"""Closed-loop maneuver campaigns.

A campaign flies a waypoint plan against a truth model.  The chaser's
state is always its Hill-frame relative state, flown as a plain tuple of
six floats from insertion to output (a RelativeState is built only when a
result's ``samples`` view is read); the truth model is only the coast that
carries it from one burn to the next.  Guidance is always
the CW model: at each waypoint arrival a CW targeting impulse toward the
next waypoint is computed from the truth state and added to its velocity.
When the truth model is itself CW the corrections vanish identically; when
the truth is the two-body problem the accumulated correction Δv measures
the guidance-model mismatch.

Every kind flies one loop over ``laps x impulse_count`` legs of equal
length tau: coast a leg, read the arrival's miss against its waypoint,
record the sample, then target and burn toward the next waypoint.  The
loop alone knows time: burn k is stamped k tau.  Tau, the CW targeting
law, the truth coast and the kind's plan at unit size depend on no size
or lap count, so a run builds them once per burn count (``_shared_legs``).
The kinds differ only in their plan, lap and departure:

* ``nmc_unforced``: the NMC ellipse, one chief period per lap, inserted
  by setting the NMC velocity.
* ``circle_forced``: the circle, one chief period per lap like the NMC,
  inserted by the first leg's targeting burn from rest.
* intercepts: the straight line from (size, 0) to the chief over
  ``duration`` in one lap; the chaser starts at rest and its departure
  burn is the first correction burn.

Accounting conventions:

* Burn 0, from a co-moving start, is flown and checked like every other.
  A closed plan's is its insertion, reported as ``insertion_dv``, kept out
  of ``burns`` and the total, and followed by the start sample; the line's
  is its departure, a correction burn, after a start sample at rest.
* A closed plan burns at every waypoint *arrival*, including the
  lap-closure return, so ``impulse_count`` burns fire per lap and every
  lap runs the same schedule as the next.  The line burns at departure
  and at every arrival but the last.

A closed plan's legs are copied, not flown, once a post-burn state has the
bits of the one m legs before it.  After each burn k that a later leg
follows, the insertion (burn 0) included, the loop keeps the six
post-burn floats by k mod m and compares them with burn k - m's, as
packed bytes where == holds, since == takes 0.0 for -0.0.  If burn k's
bits equal burn k - m's, every later leg repeats the one m legs before it
bit for bit, because nothing that feeds back depends on k: both truth
coasts are autonomous (the two-body leg is flown from theta = 0),
targeting reads only the state, the aim and the law, the aim index is
k mod m, and k tau only stamps records.  So the loop stops at
k, recorded as ``replayed_from``, and adds the magnitudes of the copied
burns, whole copies of the last m legs' burns and then the first
(legs - k) mod m of them, to the total one at a time in burn order; the
largest miss stands, and no copied burn or coast can raise, since each
already passed its checks.  The result stores only the flown legs: its
``arrivals`` and ``burns`` append the copies on first read.  Retargeting
at every waypoint makes the lap map contract to such a fixed point: on the
benchmark's ``sweep_cw_laps`` grid (80 campaigns of 10 laps under CW truth)
75 campaigns repeat within 3 laps and 17,500 of the 19,840 legs are copied;
the other 5, all at 4 burns a lap, alternate between two starts and fly
every leg.  Under two-body truth the same 10-lap grid copies 16,618.  A
one-lap campaign, such as every intercept and ``sweep_grid``'s, keeps no
state and copies nothing.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import cached_property

from .dynamics import TargetOrbit, cw_coast, two_body_coast
from .errors import UnphysicalBurn
from .frames import RelativeState, _checked, _real, _whole
# bound here only because perfbench/spans.py wraps them here, and its tracer
# raises on a binding that does not resolve
from .frames import eci_to_hill, hill_basis, hill_to_eci  # noqa: F401
from .guidance import (
    ImpulseRecord,
    cw_target_impulse,
    cw_targeting,
    nmc_initial_state,
    waypoints_circle,
    waypoints_line,
    waypoints_nmc,
)

# placeholders for that tracer: the functions moved to tests/reference.py,
# nothing calls these names, and ROADMAP direction 14 deletes them
chief_state = propagate_cw = propagate_two_body = None

CIRCUMNAV_KINDS = ("nmc_unforced", "circle_forced")
INTERCEPT_KINDS = ("intercept_unforced", "intercept_forced")
MANEUVER_KINDS = CIRCUMNAV_KINDS + INTERCEPT_KINDS
TRUTH_MODELS = ("two_body", "cw")
# fewest burns each kind can fly: the circumnavigation waypoint plans need
# three points per lap, the line-following intercept two legs
_MIN_IMPULSES = {"nmc_unforced": 3, "circle_forced": 3, "intercept_forced": 2}
# most legs (laps x impulse_count) one campaign, and one run of campaigns,
# may fly, so no input can make a run work without end: the benchmark's
# largest run has 19,840, and on a shared 2-vCPU VM (Python 3.11) a
# 1e5-leg nmc_unforced campaign that flies every leg (one lap, or 4 burns a
# lap at 50 km, which never repeats) takes 0.24-0.40 s of CPU under CW
# truth and 0.87-1.14 s under two-body, and its result holds ~26 MB; at 64
# burns a lap (1 km) it repeats at leg 66 or 67 and takes ~0.01 s, and its
# result holds ~0.02 MB until its arrivals and burns are read, then ~7 MB
MAX_LEGS = 100_000


class CampaignConfig(_checked(
        "_Config", "maneuver_kind chief_altitude size impulse_count duration truth_model laps")):
    """Full description of one campaign run (deterministic; no seeds).

    Every constructor (see ``frames._checked``) checks the fields and reads
    the counts as ints, the rest as finite floats.
    The size, km, is positive (-0.0 is not) and at least what its truth resolves:
    1e7 ulps of the chief radius under two-body, float_info.min / n**2 under CW.
    """

    __slots__ = ()

    def __new__(cls, maneuver_kind: str, chief_altitude: float, size: float, impulse_count: int,
                duration: float | None = None, truth_model: str = "two_body",
                laps: int = 1) -> "CampaignConfig":
        self = tuple.__new__(cls, (
            maneuver_kind, _real("chief_altitude", chief_altitude), _real("size", size),
            _whole("impulse_count", impulse_count),
            None if duration is None else _real("duration", duration), truth_model,
            _whole("laps", laps)))
        if self.maneuver_kind not in MANEUVER_KINDS:
            raise ValueError(f"unknown maneuver kind {self.maneuver_kind!r}")
        if self.truth_model not in TRUTH_MODELS:
            raise ValueError(f"unknown truth model {self.truth_model!r}")
        if not self.size > 0:
            raise ValueError(f"size must be positive, got {self.size:g}")
        minimum = _MIN_IMPULSES.get(self.maneuver_kind, 1)
        if self.impulse_count < minimum:
            raise ValueError(f"{self.maneuver_kind} needs impulse_count >= {minimum}")
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
        if self.truth_model == "two_body" and self.size < 1e7 * math.ulp(orbit.radius):
            # the leg lifts the chaser to R + x: an offset this small is rounding
            raise ValueError(
                f"size {self.size:.6g} km is below 1e7 ulps of the {orbit.radius:.6g} km "
                f"chief radius, which two-body truth cannot resolve"
            )
        # CW is linear in the size until its n^2 x accelerations leave the normal floats
        floor = sys.float_info.min / orbit.n**2
        if self.truth_model == "cw" and self.size < floor:
            raise ValueError(
                f"size {self.size:.6g} km is below float_info.min / n**2 = {floor:.6g} km, "
                f"which CW truth cannot resolve"
            )
        return self


class CampaignResult(namedtuple(
        "_Result", "config flown_arrivals flown_burns tau total_dv insertion_dv "
        "max_waypoint_miss duration replayed_from")):
    """Executed trajectory, impulse log, and Δv accounting for one run.

    The flight is kept as flat tuples of floats, so a result holds no
    Python object per leg: ``arrivals`` has six Hill floats per sample (the
    start, then each waypoint arrival before its burn) and ``burns`` the
    three dv floats of each correction burn, in burn order.  A result
    stores only the legs it flew, as ``flown_arrivals`` and ``flown_burns``;
    ``replayed_from`` is the leg k whose post-burn state had the bits of
    the one m legs before it, after which every leg was copied, or None if
    every leg flew.  ``arrivals`` and ``burns`` are the flown logs
    themselves when nothing was copied, and otherwise the flown logs
    followed by whole copies of their last m legs and then the first
    (legs - k) mod m of them.  They, ``samples`` and ``impulses`` are built
    on first access and cached: ``samples`` holds ``(k tau,
    RelativeState)`` pairs and ``impulses`` one ImpulseRecord per burn.
    The chaser's inertial state at a sample is ``hill_to_eci(orbit, t,
    rel)``.  The class declares no ``__slots__``, so each result keeps the
    instance dict those caches live in.
    """

    def _with_copies(self, flown: tuple[float, ...], width: int) -> tuple[float, ...]:
        """``flown``, ``width`` floats a leg, with the copied legs after it."""
        if self.replayed_from is None:
            return flown
        m = self.config.impulse_count
        laps, rest = divmod(self.config.laps * m - self.replayed_from, m)
        last = flown[-width * m:]
        return flown + last * laps + last[:width * rest]

    @cached_property
    def arrivals(self) -> tuple[float, ...]:
        return self._with_copies(self.flown_arrivals, 6)

    @cached_property
    def burns(self) -> tuple[float, ...]:
        return self._with_copies(self.flown_burns, 3)

    @cached_property
    def samples(self) -> tuple[tuple[float, RelativeState], ...]:
        a, tau = self.arrivals, self.tau
        return tuple((k * tau, tuple.__new__(RelativeState, a[6 * k:6 * k + 6]))
                     for k in range(len(a) // 6))

    @cached_property
    def impulses(self) -> tuple[ImpulseRecord, ...]:
        # a closed plan burns at arrivals 1..L, the line at departures 0..m-1
        first, b, tau = self.config.maneuver_kind in CIRCUMNAV_KINDS, self.burns, self.tau
        return tuple(ImpulseRecord((first + j) * tau, b[3 * j:3 * j + 3])
                     for j in range(len(b) // 3))


# the truth model's coast over one leg: six Hill-frame floats in, a plain
# tuple of six floats out, so no leg builds a RelativeState
Coast = Callable[[Sequence[float]], tuple[float, ...]]


def _truth_coast(orbit: TargetOrbit, model: str, tau: float) -> Coast:
    """Coast of the truth model over a leg of length tau, built once per
    tau: the one place the models differ."""
    if model == "cw":
        return cw_coast(orbit.n, tau)
    return two_body_coast(orbit, tau)


# the six floats of a state as bytes, so that equal bytes mean the same
# state bit for bit (== would take 0.0 for -0.0)
_bits = struct.Struct("6d").pack


def _shared_legs(config: CampaignConfig) -> tuple:
    """The legs every campaign of ``config``'s kind, altitude, truth, burn
    count and duration shares: (orbit, lap, tau, unit-size plan, CW
    targeting law, truth coast)."""
    orbit = TargetOrbit.from_altitude(config.chief_altitude)
    m, kind = config.impulse_count, config.maneuver_kind
    if kind in CIRCUMNAV_KINDS:
        lap = orbit.period
        plan = (waypoints_nmc if kind == "nmc_unforced" else waypoints_circle)(1.0, m)
    else:
        lap, plan = config.duration, waypoints_line((1.0, 0.0), (0.0, 0.0), m + 1)
    tau = lap / m
    law, coast = cw_targeting(orbit.n, tau), _truth_coast(orbit, config.truth_model, tau)
    return orbit, lap, tau, plan, law, coast


def run_campaign(config: CampaignConfig, *, _shared: tuple | None = None) -> CampaignResult:
    """Execute one campaign and account its Δv.

    See the module docstring for the burn-scheduling and accounting
    conventions.  A run passes, as ``_shared``, the ``_shared_legs`` its
    campaigns share.  Raises SingularTransferTime, UnphysicalBurn or
    propagator errors from the underlying layers; everything else is
    deterministic arithmetic.
    """
    orbit, lap, tau, unit, law, coast = _shared or _shared_legs(config)
    n, m, kind, size = orbit.n, config.impulse_count, config.maneuver_kind, config.size
    closed = kind in CIRCUMNAV_KINDS
    plan = [(size * x, size * y) for x, y in unit]  # the generator's bits at this size
    rel = (*plan[0], 0.0, 0.0, 0.0, 0.0)  # at rest at the plan's start
    legs, points, cap = config.laps * m, len(plan), orbit.circular_speed
    # local names, looked up once: the loop below runs once per leg
    hypot, target_impulse = math.hypot, cw_target_impulse
    # the line's start sample is taken at rest, a closed plan's after burn 0
    arrivals, burns = [] if closed else list(rel), []
    max_miss = total_dv = insertion_dv = 0.0
    # a closed plan of more than one lap keeps its last m post-burn states
    # by k mod m while a later leg exists; a one-lap plan, and so every
    # line, keeps none
    stop = legs if config.laps > 1 else 0
    recent = [None] * m if stop else []
    replayed_from = None
    # leg k coasts into arrival k, whose miss is taken against the point the
    # burn before it aimed at, and burns at k tau toward the point due at
    # (k + 1) tau; leg 0 only burns, and the line's last arrival does not
    for k in range(legs + 1):
        if k:
            rel = coast(rel)
            miss = hypot(rel[0] - aim[0], rel[1] - aim[1])
            if miss > max_miss:  # so, as with max(), a NaN miss is never kept
                max_miss = miss
            arrivals += rel
        if closed or k < legs:
            aim = plan[(k + 1) % points]
            if k or kind != "nmc_unforced":
                t, dv, magnitude = target_impulse(rel, aim, k * tau, law)[0]
            else:  # the NMC's insertion sets its velocity
                t, dv = 0.0, nmc_initial_state(size, n)[3:]
                magnitude = hypot(*dv)
            if not magnitude < cap:  # not finite, or too fast for a relative-motion maneuver
                raise UnphysicalBurn(
                    f"burn of {magnitude:.6g} km/s at t = {t:.6g} s reaches "
                    f"the chief's circular speed {cap:.6g} km/s"
                    if math.isfinite(magnitude) else
                    f"burn at t = {t:.6g} s is not finite: the targeting solve overflowed"
                )
            # an impulse leaves the position, and with it the frame term
            # omega x rho, unchanged, so under either truth model it adds its
            # dv to the Hill-frame velocity exactly
            dx, dy, dz = dv
            x, y, z, vx, vy, vz = rel
            rel = (x, y, z, vx + dx, vy + dy, vz + dz)  # six floats, which coast takes as is
            if k or not closed:
                burns += dv
                total_dv += magnitude  # in burn order: sum() rounds otherwise from Python 3.12
            else:  # a closed plan's burn 0 is its insertion, followed by the start sample
                insertion_dv = magnitude
                arrivals += rel
            if k < stop:
                # == differs from a bit compare only on signed zeros, which the
                # bytes tell apart, and on NaN, which never gets here: a NaN x, y,
                # vx or vy made the burn raise above, and z, vz stay finite
                slot = k % m
                if rel == recent[slot] and _bits(*rel) == _bits(*recent[slot]):
                    replayed_from = k  # every later leg repeats the one m legs before it
                    break
                recent[slot] = rel
    if replayed_from is not None:  # the copied legs' burns join the total, not the logs
        laps, rest = divmod(legs - replayed_from, m)
        # each burn's magnitude, derived from its dv as every record's is
        dvs = [*map(hypot, burns[-3 * m::3], burns[1 - 3 * m::3], burns[2 - 3 * m::3])]
        for magnitude in dvs * laps + dvs[:rest]:
            total_dv += magnitude

    return CampaignResult(
        config=config,
        flown_arrivals=tuple(arrivals),
        flown_burns=tuple(burns),
        tau=tau,
        total_dv=total_dv,
        insertion_dv=insertion_dv,
        max_waypoint_miss=max_miss,
        duration=config.laps * lap,
        replayed_from=replayed_from,
    )


def _run_all(configs: Sequence[CampaignConfig]) -> list[CampaignResult]:
    """Fly validated campaigns in order, once their legs together fit MAX_LEGS."""
    legs = sum(config.laps * config.impulse_count for config in configs)
    if legs > MAX_LEGS:
        raise ValueError(f"the run's {legs} legs exceed the {MAX_LEGS} legs a run may fly")
    built, results = {}, []
    for config in configs:
        key = config[:2] + config[3:6]  # every field but the size and the laps
        if key not in built:
            built[key] = _shared_legs(config)
        results.append(run_campaign(config, _shared=built[key]))
    return results


def sweep_circumnavigation(
    sizes: Sequence[float], impulse_counts: Sequence[int], chief_altitude: float, **settings
) -> list[CampaignResult]:
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
        CampaignConfig(maneuver_kind=kind, chief_altitude=chief_altitude, size=size,
                       impulse_count=count, **settings)
        for size in sizes
        for count in impulse_counts
        for kind in ("circle_forced", "nmc_unforced")
    ])


def intercept_experiment(
    offset: float, duration: float, impulse_counts: Sequence[int], chief_altitude: float,
    **settings,
) -> list[CampaignResult]:
    """Paired intercept comparison from (offset, 0) to the chief.

    The unforced arm fires a single CW targeting impulse at departure and
    coasts; each forced arm tracks the straight line with one of
    ``impulse_counts`` targeting burns.  ``settings`` are further
    ``CampaignConfig`` fields shared by every arm (``truth_model``).
    Every arm is configured, and so validated, before any is flown.
    Returns the unforced arm, then one forced arm per count in the given
    order.
    """
    common = dict(chief_altitude=chief_altitude, size=offset, duration=duration, **settings)
    configs = [CampaignConfig(maneuver_kind="intercept_unforced", impulse_count=1, **common)]
    configs += [
        CampaignConfig(maneuver_kind="intercept_forced", impulse_count=count, **common)
        for count in impulse_counts
    ]
    return _run_all(configs)
