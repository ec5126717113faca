"""Closed-loop maneuver campaigns.

A campaign flies a waypoint plan against a truth model.  The chaser's
state is always its Hill-frame relative state; the truth model is only
the coast that carries it from one burn to the next.  Guidance is always
the CW model: at each waypoint arrival a CW targeting impulse toward the
next waypoint is computed from the truth state and added to its velocity.
When the truth model is itself CW the corrections vanish identically; when
the truth is the two-body problem the accumulated correction Δv measures
the guidance-model mismatch.

Every kind flies one loop over ``laps x impulse_count`` legs of equal
length tau: coast a leg, read the arrival's miss against its waypoint,
record the sample, then target and burn toward the next waypoint.  The
loop alone knows time: burn k is stamped k tau, and the CW targeting law
for tau is built once per campaign.  The kinds differ only in their plan,
lap and departure:

* ``nmc_unforced``: the NMC ellipse, one chief period per lap, inserted
  already carrying the NMC velocity.
* ``circle_forced``: the circle, one chief period per lap like the NMC,
  inserted carrying the first leg's targeting velocity from rest.
* intercepts: the straight line from (size, 0) to the chief over
  ``duration`` in one lap; the chaser starts at rest and its departure
  burn is the first correction burn.

Accounting conventions:

* The insertion of the circumnavigation kinds, from a co-moving start,
  is a burn at 0 checked like every other, but its Δv is reported
  separately as ``insertion_dv`` and excluded from the total.
* A closed plan burns at every waypoint *arrival*, including the
  lap-closure return, so ``impulse_count`` burns fire per lap and every
  lap runs the same schedule as the next.  The line burns at departure
  and at every arrival but the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import TargetOrbit, propagate_cw, propagate_two_body
from .errors import UnphysicalBurn
from .frames import RelativeState, eci_to_hill, hill_to_eci
# bound here only because perfbench/spans.py wraps them here
from .dynamics import chief_state  # noqa: F401
from .frames import hill_basis  # noqa: F401
from .guidance import (
    ImpulseRecord,
    cw_target_impulse,
    cw_targeting,
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
# most legs (laps x impulse_count) one campaign, and one run of campaigns,
# may fly, so no input can make a run work without end: the benchmark's
# largest run flies 19,840, and on a 2-vCPU VM 1e5 legs took 10 s under CW
# truth, 37 s under two-body
MAX_LEGS = 100_000


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of one campaign run (deterministic; no seeds)."""

    maneuver_kind: str
    chief_altitude: float
    size: float
    impulse_count: int
    duration: Optional[float] = None
    truth_model: str = "two_body"
    laps: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.maneuver_kind not in MANEUVER_KINDS:
            raise ValueError(f"unknown maneuver kind {self.maneuver_kind!r}")
        if self.truth_model not in TRUTH_MODELS:
            raise ValueError(f"unknown truth model {self.truth_model!r}")
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
        if self.maneuver_kind == "intercept_unforced" and self.impulse_count != 1:
            raise ValueError("intercept_unforced flies one burn: impulse_count must be 1")
        if self.laps < 1:
            raise ValueError("laps must be >= 1")
        if self.laps * self.impulse_count > MAX_LEGS:
            raise ValueError(
                f"laps x impulse_count = {self.laps * self.impulse_count} exceeds "
                f"the {MAX_LEGS} legs a campaign may fly"
            )
        if self.maneuver_kind in INTERCEPT_KINDS:
            if self.duration is None or self.duration <= 0:
                raise ValueError("intercept kinds require a positive duration")
            if self.laps != 1:
                raise ValueError("intercept kinds fly one lap: laps must be 1")
        elif self.duration is not None:
            raise ValueError("circumnavigation duration is derived; leave it unset")
        orbit = TargetOrbit.from_altitude(self.chief_altitude)
        if self.truth_model == "two_body" and 0 < self.size < 1e7 * math.ulp(orbit.radius):
            # the leg lifts the chaser to R + x: an offset this small is rounding
            raise ValueError(
                f"size {self.size:.6g} km is below 1e7 ulps of the {orbit.radius:.6g} km "
                f"chief radius, which two-body truth cannot resolve"
            )


@dataclass(frozen=True)
class CampaignResult:
    """Executed trajectory, impulse log, and Δv accounting for one run.

    ``samples`` holds ``(t, RelativeState)`` pairs: the start, then each
    waypoint arrival before its burn.  The chaser's inertial state at a
    sample is ``hill_to_eci(orbit, t, rel)``.
    """

    config: CampaignConfig
    samples: Tuple[Tuple[float, RelativeState], ...]
    impulses: Tuple[ImpulseRecord, ...]
    total_dv: float
    insertion_dv: float
    max_waypoint_miss: float
    duration: float


# the truth model's coast of the chaser's Hill-frame state over one leg
Coast = Callable[[RelativeState], RelativeState]


def _truth_coast(orbit: TargetOrbit, model: str, tau: float) -> Coast:
    """Coast of the truth model over a leg of length tau: the one place the
    models differ.

    The chief is circular and equatorial, and two-body motion is invariant
    under rotation about the pole, so a leg flown from any epoch is the leg
    flown from 0 turned with the chief's frame: the two-body leg lifts the
    chaser at epoch 0, coasts it, and reads it back at tau.
    """
    n = orbit.n
    if model == "cw":
        return lambda rel: propagate_cw(rel, n, tau)
    return lambda rel: eci_to_hill(orbit, propagate_two_body(hill_to_eci(orbit, 0.0, rel), tau))


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


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute one campaign and account its Δv.

    See the module docstring for the burn-scheduling and accounting
    conventions.  Raises SingularTransferTime, UnphysicalBurn or
    propagator errors from the underlying layers; everything else is
    deterministic arithmetic.
    """
    orbit = TargetOrbit.from_altitude(config.chief_altitude)
    n, m, kind = orbit.n, config.impulse_count, config.maneuver_kind
    closed = kind in CIRCUMNAV_KINDS
    if closed:
        lap = orbit.period
        plan = (waypoints_nmc if kind == "nmc_unforced" else waypoints_circle)(config.size, m)
    else:
        lap, plan = float(config.duration), waypoints_line((config.size, 0.0), (0.0, 0.0), m + 1)
    tau = lap / m
    law = cw_targeting(n, tau)
    rel = RelativeState(*plan[0], 0.0, 0.0, 0.0, 0.0)  # at rest at the plan's start
    cap = orbit.circular_speed
    insertion_dv = 0.0
    if closed:  # inserted by a burn at 0: onto the NMC, or along the first leg from rest
        if kind == "nmc_unforced":
            insertion = ImpulseRecord(0.0, nmc_initial_state(config.size, n).velocity)
        else:
            insertion, _ = cw_target_impulse(rel, plan[1], 0.0, law)
        rel = _burn(rel, insertion, cap)
        insertion_dv = insertion.magnitude
    legs = config.laps * m
    coast = _truth_coast(orbit, config.truth_model, tau)
    samples = [(0.0, rel)]
    impulses: List[ImpulseRecord] = []
    max_miss = 0.0

    def steer(rel: RelativeState, k: int) -> RelativeState:
        # burn at k tau toward the plan point due at (k + 1) tau
        record, _ = cw_target_impulse(rel, plan[(k + 1) % len(plan)], k * tau, law)
        impulses.append(record)
        return _burn(rel, record, cap)

    if not closed:  # the line departs from rest with its first burn
        rel = steer(rel, 0)
    for k in range(1, legs + 1):
        rel = coast(rel)
        x, y = plan[k % len(plan)]
        max_miss = max(max_miss, float(np.hypot(rel.x - x, rel.y - y)))
        samples.append((k * tau, rel))
        if closed or k < legs:
            rel = steer(rel, k)

    return CampaignResult(
        config=config,
        samples=tuple(samples),
        impulses=tuple(impulses),
        total_dv=float(sum(rec.magnitude for rec in impulses)),
        insertion_dv=insertion_dv,
        max_waypoint_miss=max_miss,
        duration=config.laps * lap,
    )


def _run_all(configs: Sequence[CampaignConfig]) -> List[CampaignResult]:
    """Fly validated campaigns in order, once their legs together fit MAX_LEGS."""
    legs = sum(config.laps * config.impulse_count for config in configs)
    if legs > MAX_LEGS:
        raise ValueError(f"the run's {legs} legs exceed the {MAX_LEGS} legs a run may fly")
    return [run_campaign(config) for config in configs]


def sweep_circumnavigation(
    sizes: Sequence[float], impulse_counts: Sequence[int], chief_altitude: float, **settings
) -> List[CampaignResult]:
    """Run forced and unforced circumnavigations over a (size, count) grid.

    ``settings`` are further ``CampaignConfig`` fields shared by every cell
    (``truth_model``, ``laps``).  Both arms of a cell fly one chief period
    per lap, so they share tau.  Rows are ordered size-major, then impulse
    count, with the forced run preceding the unforced run in every cell.
    Every cell is configured, and so validated, before any is flown.
    """
    if not sizes or not impulse_counts:
        raise ValueError("sweep grids must be non-empty")
    return _run_all([
        CampaignConfig(maneuver_kind=kind, chief_altitude=chief_altitude, size=float(size),
                       impulse_count=int(count), **settings)
        for size in sizes
        for count in impulse_counts
        for kind in ("circle_forced", "nmc_unforced")
    ])


def intercept_experiment(
    offset: float, duration: float, impulse_counts: Sequence[int], chief_altitude: float,
    **settings,
) -> List[CampaignResult]:
    """Paired intercept comparison from (offset, 0) to the chief.

    The unforced arm fires a single CW targeting impulse at departure and
    coasts; each forced arm tracks the straight line with one of
    ``impulse_counts`` targeting burns.  ``settings`` are further
    ``CampaignConfig`` fields shared by every arm (``truth_model``).
    Every arm is configured, and so validated, before any is flown.
    Returns the unforced arm, then one forced arm per count in the given
    order.
    """
    common = dict(chief_altitude=chief_altitude, size=float(offset), duration=float(duration),
                  **settings)
    configs = [CampaignConfig(maneuver_kind="intercept_unforced", impulse_count=1, **common)]
    configs += [
        CampaignConfig(maneuver_kind="intercept_forced", impulse_count=count, **common)
        for count in impulse_counts
    ]
    return _run_all(configs)
