"""Cohort specs: who is watching the broadcast, in one grammar string.

A fleet is described the way ``--faults`` describes chaos: a compact,
round-trippable spec.  Cohorts are separated by ``|``, each one a name
plus ``key=value`` parameters::

    SPEC   := cohort ("|" cohort)*
    cohort := name (":" param ("," param)*)?
    param  := key "=" value

for example::

    lobby:n=24,join_spread=1.0|far:n=8,distance=1.6,join_spread=1.0,faults=drop:p=0.15

Parameters (all numeric; times in seconds):

================= ======================================================
key               meaning
================= ======================================================
n                 receivers in the cohort (1)
fps               capture rate override (inherit the base camera)
exposure          per-row exposure override in seconds (inherit)
offset            extra camera clock offset beyond the join time (0)
offset_spread     per-receiver uniform draw added to ``offset`` (0)
drift_ppm         extra camera clock drift in ppm (0)
drift_spread_ppm  per-receiver uniform +/- draw around ``drift_ppm`` (0)
distance          viewing distance relative to the paper's 50 cm setup;
                  the screen fill shrinks as ``base_fill / distance`` (1)
join              when the receiver starts watching (0)
join_spread       per-receiver uniform draw added to ``join`` (0)
dwell             how long the receiver watches (the fleet default)
heal              1/0 forces the self-healing decoder on/off (default:
                  heal exactly when the cohort carries faults)
faults            an embedded :mod:`repro.faults` spec with ``/`` for
                  ``;`` and ``+`` for ``,`` (the outer grammar owns
                  those), e.g. ``faults=drop:p=0.1+burst=3/blackout:at=0.5+dur=0.4``
================= ======================================================

Determinism contract
--------------------
Per-receiver draws (join phase, clock offset, drift) come from
``spawn_rng(seed, _KEY_COHORT, cohort_index, member_index)`` and are made
in the parent before any worker runs; a cohort-level fault plan is
re-seeded per receiver through :meth:`~repro.faults.FaultPlan.for_receiver`.
Compiling the same spec with the same seed therefore yields bit-identical
:class:`ReceiverSpec` tuples at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.camera.capture import CameraModel
from repro.core.pipeline import InFrameReceiver
from repro.faults.plan import FaultPlan, FaultSpecError
from repro.runtime.scheduler import spawn_rng

#: Known cohort parameters and their defaults (``None`` = inherit).
COHORT_KEYS: dict[str, float | None] = {
    "n": 1.0,
    "fps": None,
    "exposure": None,
    "offset": 0.0,
    "offset_spread": 0.0,
    "drift_ppm": 0.0,
    "drift_spread_ppm": 0.0,
    "distance": 1.0,
    "join": 0.0,
    "join_spread": 0.0,
    "dwell": None,
    "heal": None,
}

#: Spawn-key namespace of the per-receiver parameter draws.
_KEY_COHORT = 0xC0407

#: The camera model's legal screen-fill range.
_MIN_FILL = 0.05
_MAX_FILL = 1.0


class CohortSpecError(ValueError):
    """Raised when a cohort spec string cannot be parsed."""


@dataclass(frozen=True)
class CohortSpec:
    """One named cohort of receivers sharing a parameter distribution."""

    name: str
    n: int = 1
    fps: float | None = None
    exposure_s: float | None = None
    offset_s: float = 0.0
    offset_spread_s: float = 0.0
    drift_ppm: float = 0.0
    drift_spread_ppm: float = 0.0
    distance: float = 1.0
    join_s: float = 0.0
    join_spread_s: float = 0.0
    dwell_s: float | None = None
    faults: FaultPlan | None = None
    heal: bool | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CohortSpecError("cohort name must be non-empty")
        if self.n < 1:
            raise CohortSpecError(f"cohort {self.name!r}: n must be >= 1, got {self.n}")
        if self.distance <= 0.0:
            raise CohortSpecError(
                f"cohort {self.name!r}: distance must be > 0, got {self.distance}"
            )
        for label, value in (
            ("offset_spread", self.offset_spread_s),
            ("drift_spread_ppm", self.drift_spread_ppm),
            ("join_spread", self.join_spread_s),
        ):
            if value < 0.0:
                raise CohortSpecError(
                    f"cohort {self.name!r}: {label} must be >= 0, got {value}"
                )
        if self.join_s < 0.0:
            raise CohortSpecError(
                f"cohort {self.name!r}: join must be >= 0, got {self.join_s}"
            )
        if self.dwell_s is not None and self.dwell_s <= 0.0:
            raise CohortSpecError(
                f"cohort {self.name!r}: dwell must be > 0, got {self.dwell_s}"
            )


@dataclass(frozen=True)
class ReceiverSpec:
    """One concrete receiver, every parameter drawn and frozen.

    ``faults`` is already the receiver's own plan (cohort plan re-seeded
    through :meth:`~repro.faults.FaultPlan.for_receiver`), and ``heal``
    is resolved -- workers execute specs verbatim, drawing nothing.
    """

    receiver_id: int
    cohort: str
    join_s: float
    dwell_s: float | None
    clock_offset_s: float
    extra_drift: float
    distance: float
    fps: float | None = None
    exposure_s: float | None = None
    faults: FaultPlan | None = None
    heal: bool = False

    def camera(self, base: CameraModel) -> CameraModel:
        """This receiver's camera, derived from the fleet's base model."""
        fill = min(max(base.screen_fill / self.distance, _MIN_FILL), _MAX_FILL)
        drift = min(max(base.clock_drift + self.extra_drift, -0.01), 0.01)
        return replace(
            base,
            fps=self.fps if self.fps is not None else base.fps,
            exposure_s=self.exposure_s if self.exposure_s is not None else base.exposure_s,
            clock_offset_s=self.clock_offset_s,
            clock_drift=drift,
            screen_fill=fill,
        )


def _parse_params(name: str, body: str) -> dict[str, object]:
    """The ``key=value`` pairs of one cohort, validated against the table."""
    params: dict[str, object] = {}
    if not body.strip():
        return params
    for pair in body.split(","):
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq:
            raise CohortSpecError(
                f"malformed parameter {pair!r} in cohort {name!r} (expected key=value)"
            )
        if key == "faults":
            params[key] = value.strip()
            continue
        if key not in COHORT_KEYS:
            known = ", ".join(sorted([*COHORT_KEYS, "faults"]))
            raise CohortSpecError(
                f"cohort {name!r} has no parameter {key!r} (known: {known})"
            )
        if key in params:
            raise CohortSpecError(f"cohort {name!r} repeats parameter {key!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise CohortSpecError(
                f"non-numeric value {value!r} for {name}.{key}"
            ) from exc
    return params


def _cohort_faults(name: str, embedded: str, seed: int) -> FaultPlan:
    """Translate the embedded fault grammar back and parse it."""
    translated = embedded.replace("/", ";").replace("+", ",")
    try:
        return FaultPlan.parse(translated, seed=seed)
    except FaultSpecError as exc:
        raise CohortSpecError(f"cohort {name!r}: faults: {exc}") from exc


def parse_cohorts(spec: str, seed: int = 0) -> tuple[CohortSpec, ...]:
    """Parse a fleet spec string into cohort specs.

    Raises :class:`CohortSpecError` on unknown keys, malformed pairs,
    duplicate cohort names, or an empty spec.  *seed* seeds every
    cohort's fault plan (receivers then derive their own).
    """
    cohorts: list[CohortSpec] = []
    seen: set[str] = set()
    for part in spec.split("|"):
        part = part.strip()
        if not part:
            continue
        name, _, body = part.partition(":")
        name = name.strip()
        if not name or any(c in name for c in "=, \t"):
            raise CohortSpecError(
                f"malformed cohort name {name!r} (did you forget the 'name:' prefix?)"
            )
        params = _parse_params(name, body)
        if name in seen:
            raise CohortSpecError(f"duplicate cohort name {name!r}")
        seen.add(name)
        heal_raw = params.get("heal")
        faults_raw = params.get("faults")
        cohorts.append(
            CohortSpec(
                name=name,
                n=int(float(params.get("n", 1.0))),  # type: ignore[arg-type]
                fps=_opt_float(params.get("fps")),
                exposure_s=_opt_float(params.get("exposure")),
                offset_s=float(params.get("offset", 0.0)),  # type: ignore[arg-type]
                offset_spread_s=float(params.get("offset_spread", 0.0)),  # type: ignore[arg-type]
                drift_ppm=float(params.get("drift_ppm", 0.0)),  # type: ignore[arg-type]
                drift_spread_ppm=float(params.get("drift_spread_ppm", 0.0)),  # type: ignore[arg-type]
                distance=float(params.get("distance", 1.0)),  # type: ignore[arg-type]
                join_s=float(params.get("join", 0.0)),  # type: ignore[arg-type]
                join_spread_s=float(params.get("join_spread", 0.0)),  # type: ignore[arg-type]
                dwell_s=_opt_float(params.get("dwell")),
                faults=(
                    _cohort_faults(name, str(faults_raw), seed)
                    if faults_raw is not None
                    else None
                ),
                heal=None if heal_raw is None else bool(float(heal_raw)),  # type: ignore[arg-type]
            )
        )
    if not cohorts:
        raise CohortSpecError("cohort spec is empty")
    return tuple(cohorts)


def _opt_float(value: object | None) -> float | None:
    return None if value is None else float(value)  # type: ignore[arg-type]


def compile_receivers(
    cohorts: tuple[CohortSpec, ...] | list[CohortSpec], seed: int = 0
) -> tuple[ReceiverSpec, ...]:
    """Draw every receiver's concrete parameters, in the parent, once.

    Receiver ids are global and sequential across cohorts (in spec
    order), so a receiver's identity -- and therefore its RNG streams
    and derived fault seed -- does not depend on how the fan-out later
    chunks the fleet.
    """
    specs: list[ReceiverSpec] = []
    receiver_id = 0
    for cohort_index, cohort in enumerate(cohorts):
        for member in range(cohort.n):
            rng = spawn_rng(seed, _KEY_COHORT, cohort_index, member)
            join = cohort.join_s + float(rng.uniform(0.0, 1.0)) * cohort.join_spread_s
            offset = (
                cohort.offset_s
                + float(rng.uniform(0.0, 1.0)) * cohort.offset_spread_s
            )
            drift_ppm = cohort.drift_ppm + float(
                rng.uniform(-1.0, 1.0)
            ) * cohort.drift_spread_ppm
            faults = (
                cohort.faults.for_receiver(receiver_id)
                if cohort.faults is not None
                else None
            )
            specs.append(
                ReceiverSpec(
                    receiver_id=receiver_id,
                    cohort=cohort.name,
                    join_s=join,
                    dwell_s=cohort.dwell_s,
                    clock_offset_s=join + offset,
                    extra_drift=drift_ppm * 1e-6,
                    distance=cohort.distance,
                    fps=cohort.fps,
                    exposure_s=cohort.exposure_s,
                    faults=faults,
                    heal=InFrameReceiver.heals(cohort.heal, faults is not None),
                )
            )
            receiver_id += 1
    return tuple(specs)
