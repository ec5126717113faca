"""End-to-end acceptance gate for the shipped behavior.

Every check prints exactly one PASS/FAIL line with its measured numbers
(visible with ``pytest -s``, or in the captured output of a failing test)
before asserting, so the suite documents what it measured even when it
gates.  The big circumnavigation sweep is computed once per module.

Two checks are currently red and are expected to stay red until the
guidance scheme changes:

* the unforced correction cost is not monotone non-increasing in impulse
  count: it rises from 4 to 8 corrections per lap (the per-leg targeting
  matrix is ~5x closer to singular at 8) before falling, and
* at 750-1000 km the unforced arm has not yet become more expensive than
  the forced arm for 4 and 8 impulses: unforced cost grows quadratically
  with size and forced linearly, which puts the crossover near 1000 km for
  count 4 and further out for count 8.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import reference
from reference import (
    chief_state,
    cw_derivative,
    propagate_cw,
    propagate_two_body,
    specific_angular_momentum,
    specific_energy,
)
from rpodsim import (
    CampaignConfig,
    RelativeState,
    TargetOrbit,
    cw_stm,
    cw_target_impulse,
    cw_targeting,
    intercept_experiment,
    nmc_initial_state,
    run_campaign,
    sweep_circumnavigation,
)
from rpodsim.cli import main

ALTITUDE = 2000.0
SIZES = (1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 750.0, 1000.0)
COUNTS = (4, 8, 16, 32, 64)


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweep_table():
    """Total Δv keyed by (size, count, kind) for the full sweep grid."""
    t0 = time.perf_counter()
    rows = sweep_circumnavigation(SIZES, COUNTS, ALTITUDE, truth_model="two_body")
    elapsed = time.perf_counter() - t0
    table = {
        (r.config.size, r.config.impulse_count, r.config.maneuver_kind): r.total_dv
        for r in rows
    }
    return table, elapsed


def test_zero_mismatch_baseline():
    # guidance model == truth model must need no corrections at all
    t0 = time.perf_counter()
    result = run_campaign(
        CampaignConfig(
            maneuver_kind="nmc_unforced",
            chief_altitude=ALTITUDE,
            size=10.0,
            impulse_count=16,
            truth_model="cw",
        )
    )
    elapsed = time.perf_counter() - t0
    ok = result.total_dv < 1e-9 and elapsed < 1.0
    _gate(
        "zero-mismatch baseline",
        ok,
        f"correction dv {result.total_dv:.3e} km/s (tol 1e-9), {elapsed:.2f} s",
    )


def test_two_body_propagator_fidelity():
    t0 = time.perf_counter()
    orbit = TargetOrbit(radius=8378.137)
    start = chief_state(orbit, 0.0)
    one = propagate_two_body(start, orbit.period)
    closure = float(np.linalg.norm(np.subtract(one.position, start.position)))
    ten = propagate_two_body(start, 10.0 * orbit.period)
    e0 = specific_energy(start)
    h0 = specific_angular_momentum(start)
    e_drift = abs((specific_energy(ten) - e0) / e0)
    h_drift = abs((specific_angular_momentum(ten) - h0) / h0)
    elapsed = time.perf_counter() - t0
    ok = closure < 1e-6 and e_drift < 1e-10 and h_drift < 1e-10 and elapsed < 5.0
    _gate(
        "two-body propagator fidelity",
        ok,
        f"period closure {closure:.3e} km (tol 1e-6), energy drift "
        f"{e_drift:.3e}, momentum drift {h_drift:.3e} (tol 1e-10), {elapsed:.2f} s",
    )


def test_two_body_propagator_fidelity_fractional_period():
    # the gate above coasts whole periods, which reduce to zero-length
    # coasts; this one coasts 2.37 and 10.37 periods against the chief's
    # closed-form circular motion, with the same bounds
    t0 = time.perf_counter()
    orbit = TargetOrbit(radius=8378.137)
    start = chief_state(orbit, 0.0)
    t = 2.37 * orbit.period
    miss = float(np.linalg.norm(
        np.subtract(propagate_two_body(start, t).position, chief_state(orbit, t).position)
    ))
    ten = propagate_two_body(start, 10.37 * orbit.period)
    e0 = specific_energy(start)
    h0 = specific_angular_momentum(start)
    e_drift = abs((specific_energy(ten) - e0) / e0)
    h_drift = abs((specific_angular_momentum(ten) - h0) / h0)
    elapsed = time.perf_counter() - t0
    ok = miss < 1e-6 and e_drift < 1e-10 and h_drift < 1e-10 and elapsed < 5.0
    _gate(
        "two-body propagator fidelity, fractional periods",
        ok,
        f"2.37-period miss {miss:.3e} km (tol 1e-6), 10.37-period energy drift "
        f"{e_drift:.3e}, momentum drift {h_drift:.3e} (tol 1e-10), {elapsed:.2f} s",
    )


def test_closed_form_matches_ode():
    # the closed-form transition matrix against adaptive integration of the
    # same linear ODEs, for 100 random states over one period
    t0 = time.perf_counter()
    orbit = TargetOrbit.from_altitude(ALTITUDE)
    n = orbit.n
    stm = cw_stm(n, orbit.period)
    rng = np.random.default_rng(2468)
    worst = 0.0
    for _ in range(100):
        state = np.concatenate(
            [rng.uniform(-10.0, 10.0, 3), rng.uniform(-1e-2, 1e-2, 3)]
        )
        sol = solve_ivp(
            lambda _t, s: cw_derivative(RelativeState(*s), n),
            (0.0, orbit.period),
            state,
            method="DOP853",
            rtol=1e-12,
            atol=1e-13,
        )
        worst = max(worst, float(np.max(np.abs(stm @ state - sol.y[:, -1]))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _gate(
        "closed form vs ODE",
        ok,
        f"max state error {worst:.3e} over 100 states (tol 1e-10), {elapsed:.2f} s",
    )


def test_targeting_round_trip():
    # every computed impulse must land the linear propagation on its
    # waypoint, and targeting your own free-drift image must cost nothing
    orbit = TargetOrbit.from_altitude(ALTITUDE)
    n = orbit.n
    rng = np.random.default_rng(1357)
    worst_miss = 0.0
    worst_dv = 0.0
    for _ in range(1000):
        rel = RelativeState(
            *rng.uniform(-100.0, 100.0, 2), 0.0, *rng.uniform(-0.1, 0.1, 2), 0.0
        )
        ts = rng.uniform(0.05, 0.9) * orbit.period
        x, y = rng.uniform(-100.0, 100.0, 2)
        law = cw_targeting(n, ts)
        _record, v_plus = cw_target_impulse(rel, (x, y), 0.0, law)
        after = RelativeState(rel.x, rel.y, 0.0, v_plus[0], v_plus[1], 0.0)
        arrived = propagate_cw(after, n, ts)
        worst_miss = max(worst_miss, float(np.hypot(arrived.x - x, arrived.y - y)))
        drift = propagate_cw(rel, n, ts)
        record, _ = cw_target_impulse(rel, (drift.x, drift.y), 0.0, law)
        worst_dv = max(worst_dv, record.magnitude)
    ok = worst_miss < 1e-9 and worst_dv < 1e-12
    _gate(
        "targeting round trip",
        ok,
        f"max waypoint miss {worst_miss:.3e} km (tol 1e-9), max fixed-point dv "
        f"{worst_dv:.3e} km/s (tol 1e-12) over 1000 cases",
    )


def test_sweep_forced_dv_monotone_in_size(sweep_table):
    table, elapsed = sweep_table
    violations = [
        (count, a, b)
        for count in COUNTS
        for a, b in zip(SIZES, SIZES[1:])
        if not table[(a, count, "circle_forced")] < table[(b, count, "circle_forced")]
    ]
    ok = not violations and elapsed < 300.0
    _gate(
        "sweep: forced dv monotone in size",
        ok,
        f"{len(violations)} ordering violations across {len(COUNTS)} counts, "
        f"sweep took {elapsed:.1f} s",
    )


def test_sweep_unforced_dv_monotone_in_count(sweep_table):
    table, _ = sweep_table
    violations = [
        (size, a, b)
        for size in SIZES
        for a, b in zip(COUNTS, COUNTS[1:])
        if table[(size, a, "nmc_unforced")] < table[(size, b, "nmc_unforced")]
    ]
    detail = f"{len(violations)} ordering violations"
    if violations:
        size, a, b = violations[0]
        detail += (
            f"; first at size {size:g} km: {a} -> {b} corrections raises dv "
            f"{table[(size, a, 'nmc_unforced')]:.3e} -> "
            f"{table[(size, b, 'nmc_unforced')]:.3e} km/s"
        )
    _gate("sweep: unforced dv monotone non-increasing in count", not violations, detail)


def test_sweep_crossover_at_large_size(sweep_table):
    table, _ = sweep_table
    cells = []
    ok = True
    for size in (750.0, 1000.0):
        for count in (4, 8):
            unforced = table[(size, count, "nmc_unforced")]
            forced = table[(size, count, "circle_forced")]
            crossed = unforced > forced
            ok &= crossed
            cells.append(
                f"size {size:g} count {count}: unforced {unforced:.3f} "
                f"{'>' if crossed else '<='} forced {forced:.3f}"
            )
    _gate("sweep: unforced costlier beyond 750 km", ok, "; ".join(cells))


def _reference_dv(kind, size, count):
    """Total correction Δv of one two-body sweep cell, flown without rpodsim.

    The chaser is carried in ECI through the whole lap.  The chief's Hill
    frame at t is the ECI frame turned by n t about the pole, CW targeting is
    the in-plane 2x2 solve by Cramer's rule, and every coast is a planar
    DOP853 integration of the two-body problem at rtol 2.3e-14.
    """
    mu, radius = 398600.4418, 6378.137 + ALTITUDE  # WGS-84, restated here
    n = math.sqrt(mu / radius**3)
    speed, tau, theta = n * radius, 2.0 * math.pi / n / count, 2.0 * math.pi / count
    c, s = math.cos(theta), math.sin(theta)
    # CW position after tau from (p, v): A p + B v, with B = [[b11, b12], [b21, b22]]
    b11, b12 = s / n, 2.0 * (1.0 - c) / n
    b21, b22 = 2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * theta) / n
    det = b11 * b22 - b12 * b21

    def targeted(p, goal):
        rx = goal[0] - (4.0 - 3.0 * c) * p[0]
        ry = goal[1] - 6.0 * (s - theta) * p[0] - p[1]
        return (rx * b22 - b12 * ry) / det, (b11 * ry - b21 * rx) / det

    def axes(t):  # radial and along-track unit vectors in ECI
        ca, sa = math.cos(n * t), math.sin(n * t)
        return np.array([ca, sa]), np.array([-sa, ca])

    def rhs(_t, y):
        return [y[2], y[3], *(-mu / math.hypot(y[0], y[1]) ** 3 * y[:2])]

    # the 2:1 ellipse, entered on its own velocity, or the clockwise circle,
    # entered on its first leg's targeting velocity
    stretch = 2.0 if kind == "nmc_unforced" else 1.0
    plan = [
        (size * math.cos(k * theta), -stretch * size * math.sin(k * theta)) for k in range(count)
    ]
    x, y = plan[0]
    vx, vy = (0.0, -2.0 * n * size) if kind == "nmc_unforced" else targeted(plan[0], plan[1])
    e_r, e_t = axes(0.0)
    state = np.concatenate((
        (radius + x) * e_r + y * e_t,
        (vx - n * y) * e_r + (speed + vy + n * x) * e_t,
    ))
    total = 0.0
    for k in range(1, count + 1):
        sol = solve_ivp(rhs, (0.0, tau), state, method="DOP853", rtol=2.3e-14, atol=1e-30)
        assert sol.success, sol.message
        state = sol.y[:, -1]
        e_r, e_t = axes(k * tau)
        rel, vel = state[:2] - radius * e_r, state[2:] - speed * e_t
        x, y = rel @ e_r, rel @ e_t
        vx, vy = vel @ e_r + n * y, vel @ e_t - n * x
        v_plus = targeted((x, y), plan[(k + 1) % count])
        dv = (v_plus[0] - vx, v_plus[1] - vy)
        total += math.hypot(*dv)
        state[2:] += dv[0] * e_r + dv[1] * e_t
    return total


def test_sweep_dv_matches_independent_reference(sweep_table):
    # |dv - ref| <= max(1e-8 |ref|, burns x 1e-13 km/s).  The absolute part
    # is the reference's own floor: DOP853 at rtol 2.3e-14 on ~7 km/s ECI
    # velocities leaves ~1e-13 km/s in each burn, which is all that separates
    # the two on the unforced 1 km cells (~3e-6 km/s in all)
    table, _ = sweep_table
    t0 = time.perf_counter()
    worst, where = 0.0, "every cell exact"
    for kind in ("nmc_unforced", "circle_forced"):
        for size in (1.0, 100.0, 1000.0):
            for count in (4, 16):
                ref = _reference_dv(kind, size, count)
                got = table[(size, count, kind)]
                share = abs(got - ref) / max(1e-8 * abs(ref), count * 1e-13)
                if share > worst:
                    worst, where = share, f"{kind} {size:g} km x{count}: {got!r} vs {ref!r}"
    elapsed = time.perf_counter() - t0
    _gate(
        "sweep: dv matches an independent DOP853 reference",
        worst <= 1.0,
        f"worst cell at {worst:.2f} of its bound ({where}), reference took {elapsed:.2f} s",
    )


def test_intercept_unforced_beats_forced():
    t0 = time.perf_counter()
    pieces = []
    ok = True
    for count in (4, 8, 16):
        unforced, forced = intercept_experiment(10.0, 3600.0, [count], ALTITUDE)
        cheaper = unforced.total_dv < forced.total_dv
        close = unforced.max_waypoint_miss < 0.1 and forced.max_waypoint_miss < 0.1
        ok &= cheaper and close
        pieces.append(
            f"count {count}: unforced {unforced.total_dv:.4f} "
            f"{'<' if cheaper else '>='} forced {forced.total_dv:.4f} km/s, "
            f"misses {unforced.max_waypoint_miss * 1e3:.1f}/"
            f"{forced.max_waypoint_miss * 1e3:.1f} m"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _gate(
        "intercept: unforced beats forced",
        ok,
        "; ".join(pieces) + f" (miss tol 100 m), {elapsed:.1f} s",
    )


def test_free_drift_divergence_grows_with_separation():
    orbit = TargetOrbit.from_altitude(ALTITUDE)
    normalized = []
    for x0 in (1.0, 10.0, 100.0, 500.0):
        rel0 = nmc_initial_state(x0, orbit.n)
        chaser = reference.hill_to_eci(chief_state(orbit, 0.0), rel0)
        end = propagate_two_body(chaser, orbit.period)
        truth = reference.eci_to_hill(chief_state(orbit, orbit.period), end)
        predicted = propagate_cw(rel0, orbit.n, orbit.period)
        gap = float(np.linalg.norm(np.subtract(truth[:3], predicted[:3])))
        normalized.append(gap / x0)
    ok = all(a < b for a, b in zip(normalized, normalized[1:]))
    _gate(
        "free-drift divergence trend",
        ok,
        "normalized divergence " + ", ".join(f"{v:.3e}" for v in normalized)
        + " over 1, 10, 100, 500 km",
    )


def test_csv_output_is_deterministic(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    args = [
        "sweep",
        "--sizes-km", "1,10",
        "--impulses", "4,8",
        "--truth", "cw",
    ]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _gate(
        "deterministic output",
        identical,
        f"two runs of one manifest produced "
        f"{'identical' if identical else 'differing'} bytes "
        f"({len(first.read_bytes())} bytes)",
    )
