"""Closed-loop maneuver campaigns.

A campaign flies a waypoint plan against a truth model.  The chaser's
state is always its Hill-frame relative state; the truth model is only
the coast that carries it from one burn to the next.  Guidance is always
the CW model: at each waypoint arrival a CW targeting impulse toward the
next waypoint is computed from the truth state and added to its velocity.
When the truth model is itself CW the corrections vanish identically; when
the truth is the two-body problem the accumulated correction Δv measures
the guidance-model mismatch.

Accounting conventions (circumnavigation kinds):

* The chaser is inserted at the first waypoint already carrying the
  plan's initial velocity (NMC velocity for the unforced ellipse, the
  first-leg targeting velocity for the forced circle).  The insertion
  Δv from a co-moving start is reported separately and excluded from
  the total unless ``count_insertion_dv`` is set.
* Correction burns fire at waypoint *arrivals*, one per leg including
  the lap-closure return, so ``impulse_count`` burns fire per lap and
  every lap runs the same schedule as the next (no special-cased first
  burn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constants import MU_EARTH
from .dynamics import TargetOrbit, chief_state, propagate_cw, propagate_two_body
from .errors import UnphysicalBurn
from .frames import RelativeState, eci_to_hill, hill_to_eci
from .frames import hill_basis  # noqa: F401  wrapped by perfbench/spans.py
from .guidance import (
    ImpulseRecord,
    Waypoint,
    cw_target_impulse,
    nmc_initial_state,
    waypoints_circle,
    waypoints_line,
    waypoints_nmc,
)

CIRCUMNAV_KINDS = ("nmc_unforced", "circle_forced")
INTERCEPT_KINDS = ("intercept_unforced", "intercept_forced")
MANEUVER_KINDS = CIRCUMNAV_KINDS + INTERCEPT_KINDS
TRUTH_MODELS = ("two_body", "cw")
# fewest burns each kind can fly: the circumnavigation waypoint plans need
# three points per lap, the line-following intercept two legs
_MIN_IMPULSES = {"nmc_unforced": 3, "circle_forced": 3, "intercept_forced": 2}


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of one campaign run (deterministic; no seeds)."""

    maneuver_kind: str
    chief_altitude: float
    size: float
    impulse_count: int
    duration: Optional[float] = None
    truth_model: str = "two_body"
    count_insertion_dv: bool = False
    laps: int = 1
    circle_period_factor: float = 1.0
    start_xy: Optional[Tuple[float, float]] = None
    rendezvous_xy: Tuple[float, float] = (0.0, 0.0)
    mu: float = MU_EARTH

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, got {value}")
        if self.maneuver_kind not in MANEUVER_KINDS:
            raise ValueError(f"unknown maneuver kind {self.maneuver_kind!r}")
        if self.truth_model not in TRUTH_MODELS:
            raise ValueError(f"unknown truth model {self.truth_model!r}")
        if self.chief_altitude <= 0:
            raise ValueError("chief altitude must be positive")
        if self.size < 0:
            raise ValueError("size must be non-negative")
        # a zero offset is a legal (null) intercept but a degenerate shape
        # for circumnavigation plans
        if self.size == 0 and self.maneuver_kind in CIRCUMNAV_KINDS:
            raise ValueError("size must be positive for circumnavigation")
        minimum = _MIN_IMPULSES.get(self.maneuver_kind, 1)
        if self.impulse_count < minimum:
            raise ValueError(
                f"{self.maneuver_kind} needs impulse_count >= {minimum}"
            )
        if self.laps < 1:
            raise ValueError("laps must be >= 1")
        if self.circle_period_factor <= 0:
            raise ValueError("circle period factor must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.maneuver_kind in INTERCEPT_KINDS:
            if self.duration is None or self.duration <= 0:
                raise ValueError("intercept kinds require a positive duration")
        elif self.duration is not None:
            raise ValueError("circumnavigation duration is derived; leave it unset")

    @property
    def start_point(self) -> Tuple[float, float]:
        if self.start_xy is not None:
            return self.start_xy
        return (self.size, 0.0)


@dataclass(frozen=True)
class CampaignResult:
    """Executed trajectory, impulse log, and Δv accounting for one run.

    ``samples`` holds ``(t, RelativeState)`` pairs: the start, then each
    waypoint arrival before its burn.  The chaser's inertial state at a
    sample is ``hill_to_eci(chief_state(orbit, t), rel)``.
    """

    config: CampaignConfig
    samples: Tuple[Tuple[float, RelativeState], ...]
    impulses: Tuple[ImpulseRecord, ...]
    total_dv: float
    insertion_dv: float
    max_waypoint_miss: float
    duration: float


# the truth model's coast of the chaser's Hill-frame state from t to t1
Coast = Callable[[RelativeState, float, float], RelativeState]


def _truth_coast(orbit: TargetOrbit, model: str) -> Coast:
    """Coast function of the truth model: the one place the models differ."""
    n = orbit.n
    if model == "cw":
        return lambda rel, t, t1: propagate_cw(rel, n, t1 - t)

    def two_body(rel: RelativeState, t: float, t1: float) -> RelativeState:
        # lifted from the chief's exact state at t, so the chaser's epoch
        # t + (t1 - t) matches the chief's at t1
        chaser = hill_to_eci(chief_state(orbit, t), rel)
        end = propagate_two_body(chaser, orbit.mu, t1 - t)[-1]
        return eci_to_hill(chief_state(orbit, t1), end)

    return two_body


def _burn(rel: RelativeState, record: ImpulseRecord, cap: float) -> RelativeState:
    """The state just after an impulse, under either truth model.

    An impulse leaves the position, and with it the frame term omega x rho,
    unchanged, so in Hill axes it adds dv to the relative velocity exactly.
    A burn at or above ``cap`` (the chief's circular speed) is not a
    relative-motion maneuver and raises UnphysicalBurn.
    """
    if not record.magnitude < cap:
        raise UnphysicalBurn(
            f"burn of {record.magnitude:.6g} km/s at t = {record.t:.6g} s reaches "
            f"the chief's circular speed {cap:.6g} km/s"
        )
    dv = record.dv
    return RelativeState(rel.x, rel.y, rel.z, rel.vx + dv[0], rel.vy + dv[1], rel.vz + dv[2])


def _finish(config, samples, impulses, insertion_dv, max_miss, duration) -> CampaignResult:
    total = float(sum(rec.magnitude for rec in impulses))
    if config.count_insertion_dv:
        total += insertion_dv
    return CampaignResult(
        config=config,
        samples=tuple(samples),
        impulses=tuple(impulses),
        total_dv=total,
        insertion_dv=insertion_dv,
        max_waypoint_miss=max_miss,
        duration=duration,
    )


def _run_circumnavigation(
    config: CampaignConfig, orbit: TargetOrbit, coast: Coast
) -> CampaignResult:
    n = orbit.n
    m = config.impulse_count
    if config.maneuver_kind == "nmc_unforced":
        lap = orbit.period
        plan = waypoints_nmc(config.size, n, m)
        rel0 = nmc_initial_state(config.size, n)
    else:
        lap = config.circle_period_factor * orbit.period
        plan = waypoints_circle(config.size, m, lap)
        tau0 = lap / m
        at_start = RelativeState(plan[0].x, plan[0].y, 0.0, 0.0, 0.0, 0.0)
        _, v_plus = cw_target_impulse(
            at_start, replace(plan[1], t=tau0), tau0, n
        )
        rel0 = RelativeState(plan[0].x, plan[0].y, 0.0, v_plus[0], v_plus[1], 0.0)

    tau = lap / m
    insertion_dv = float(np.linalg.norm(rel0.velocity))
    cap = orbit.circular_speed
    rel = rel0
    samples = [(0.0, rel)]
    impulses: List[ImpulseRecord] = []
    max_miss = 0.0

    for k in range(1, config.laps * m + 1):
        t = k * tau
        rel = coast(rel, (k - 1) * tau, t)
        arrived = plan[k % m]
        max_miss = max(max_miss, float(np.hypot(rel.x - arrived.x, rel.y - arrived.y)))
        samples.append((t, rel))
        nxt = plan[(k + 1) % m]
        record, _ = cw_target_impulse(rel, Waypoint(t=t + tau, x=nxt.x, y=nxt.y), tau, n)
        rel = _burn(rel, record, cap)
        impulses.append(record)

    return _finish(config, samples, impulses, insertion_dv, max_miss, config.laps * lap)


def _run_intercept(config: CampaignConfig, orbit: TargetOrbit, coast: Coast) -> CampaignResult:
    """Fly a straight-line plan from the start point to the rendezvous point.

    The unforced arm is the one-leg plan: a single targeting impulse at
    departure, then a ballistic coast over the whole window.
    """
    n = orbit.n
    duration = float(config.duration)
    start = config.start_point
    m = 1 if config.maneuver_kind == "intercept_unforced" else config.impulse_count
    plan = waypoints_line(start, config.rendezvous_xy, m + 1, duration)
    tau = duration / m
    cap = orbit.circular_speed
    rel = RelativeState(start[0], start[1], 0.0, 0.0, 0.0, 0.0)
    samples = [(0.0, rel)]
    impulses: List[ImpulseRecord] = []
    max_miss = 0.0
    for k in range(m):
        nxt = plan[k + 1]
        record, _ = cw_target_impulse(rel, nxt, tau, n)
        rel = _burn(rel, record, cap)
        impulses.append(record)
        t = (k + 1) * tau
        rel = coast(rel, k * tau, t)
        max_miss = max(max_miss, float(np.hypot(rel.x - nxt.x, rel.y - nxt.y)))
        samples.append((t, rel))
    return _finish(config, samples, impulses, 0.0, max_miss, duration)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute one campaign and account its Δv.

    See the module docstring for the burn-scheduling and accounting
    conventions.  Raises SingularTransferTime, UnphysicalBurn or
    propagator errors from the underlying layers; everything else is
    deterministic arithmetic.
    """
    orbit = TargetOrbit.from_altitude(config.chief_altitude, config.mu)
    coast = _truth_coast(orbit, config.truth_model)
    if config.maneuver_kind in CIRCUMNAV_KINDS:
        return _run_circumnavigation(config, orbit, coast)
    return _run_intercept(config, orbit, coast)


def sweep_circumnavigation(
    sizes: Sequence[float],
    impulse_counts: Sequence[int],
    chief_altitude: float,
    truth_model: str = "two_body",
    laps: int = 1,
    circle_period_factor: float = 1.0,
    count_insertion_dv: bool = False,
    mu: float = MU_EARTH,
) -> List[CampaignResult]:
    """Run forced and unforced circumnavigations over a (size, count) grid.

    Rows are ordered size-major, then impulse count, with the forced run
    preceding the unforced run in every cell; the order is deterministic
    and independent of execution strategy.
    """
    if not sizes or not impulse_counts:
        raise ValueError("sweep grids must be non-empty")
    results = []
    for size in sizes:
        for count in impulse_counts:
            for kind in ("circle_forced", "nmc_unforced"):
                results.append(
                    run_campaign(
                        CampaignConfig(
                            maneuver_kind=kind,
                            chief_altitude=chief_altitude,
                            size=float(size),
                            impulse_count=int(count),
                            truth_model=truth_model,
                            count_insertion_dv=count_insertion_dv,
                            laps=laps,
                            circle_period_factor=circle_period_factor,
                            mu=mu,
                        )
                    )
                )
    return results


def intercept_experiment(
    start_offset: Tuple[float, float],
    rendezvous_point: Tuple[float, float],
    duration: float,
    impulse_count: int,
    chief_altitude: float,
    truth_model: str = "two_body",
    mu: float = MU_EARTH,
) -> Tuple[CampaignResult, CampaignResult]:
    """Paired intercept comparison.

    The unforced arm fires a single CW targeting impulse at departure and
    coasts; the forced arm tracks a straight line with ``impulse_count``
    targeting burns.  Returns (unforced, forced).
    """
    size = float(np.hypot(*start_offset))
    common = dict(
        chief_altitude=chief_altitude,
        size=size,
        duration=float(duration),
        truth_model=truth_model,
        start_xy=(float(start_offset[0]), float(start_offset[1])),
        rendezvous_xy=(float(rendezvous_point[0]), float(rendezvous_point[1])),
        mu=mu,
    )
    unforced = run_campaign(
        CampaignConfig(maneuver_kind="intercept_unforced", impulse_count=1, **common)
    )
    forced = run_campaign(
        CampaignConfig(maneuver_kind="intercept_forced", impulse_count=impulse_count, **common)
    )
    return unforced, forced
