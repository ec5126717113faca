import copy
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reference import propagate_cw
from rpodsim import (
    ImpulseRecord,
    InertialState,
    RelativeState,
    SingularTransferTime,
    TargetOrbit,
    cw_stm,
    cw_target_impulse,
    cw_targeting,
    drift_determinant,
    hill_basis,
    hill_to_eci,
    nmc_initial_state,
    waypoints_circle,
    waypoints_line,
    waypoints_nmc,
)
from rpodsim.dynamics import cw_coast
from rpodsim.guidance import Vector3

ORBIT = TargetOrbit.from_altitude(2000.0)
N = ORBIT.n
PERIOD = ORBIT.period


# ---------------------------------------------------------------------------
# NMC insertion


def test_nmc_insertion_velocity():
    rel = nmc_initial_state(1.0, 1e-3)
    assert rel.vy == pytest.approx(-2e-3, rel=1e-15)
    assert (rel.x, rel.y, rel.z, rel.vx, rel.vz) == (1.0, 0, 0, 0, 0)


def test_nmc_insertion_sign_flip():
    rel = nmc_initial_state(-1.0, 1e-3)
    assert rel.vy == pytest.approx(2e-3, rel=1e-15)


def test_nmc_zero_offset_rejected():
    with pytest.raises(ValueError, match="NMC offset x0 must be nonzero"):
        nmc_initial_state(0.0, 1e-3)


def test_nmc_two_to_one_ellipse_extent():
    # sample the closed-form trajectory: max |y| must be twice the offset
    x0 = 3.0
    rel = nmc_initial_state(x0, N)
    # 1001 points puts samples exactly on the quarter-period extrema
    times = np.linspace(0, PERIOD, 1001)
    ys = [propagate_cw(rel, N, t).y for t in times]
    xs = [propagate_cw(rel, N, t).x for t in times]
    assert max(np.abs(ys)) == pytest.approx(2 * x0, rel=1e-9)
    assert max(np.abs(xs)) == pytest.approx(x0, rel=1e-9)


# ---------------------------------------------------------------------------
# targeting


def test_impulse_record_magnitude():
    rec = ImpulseRecord(t=0.0, dv=[3e-3, -4e-3, 0.0])
    assert rec.magnitude == pytest.approx(5e-3, rel=1e-15)


def test_impulse_dv_is_a_float_triple_scaled_from_either_side():
    # the flown burn is three Python floats; a real number scales it from
    # either side, component by component, and its magnitude is their hypot
    rel = RelativeState(5.0, -3.0, 0.0, 1e-3, 0.0, 0.0)
    record, _ = cw_target_impulse(rel, (2.0, 7.0), 0.0, cw_targeting(N, PERIOD / 6))
    assert [type(v) for v in record.dv] == [float] * 3
    for k in (1.001, -2.0, 3):
        scaled = record.dv * k
        assert scaled == k * record.dv == tuple(v * k for v in record.dv)
        assert [type(v) for v in scaled] == [float] * 3
    assert record.magnitude == math.hypot(*record.dv)
    # any three numbers make the same float triple
    assert ImpulseRecord(0.0, [1, np.float64(2.0), 3]).dv * 2.0 == (2.0, 4.0, 6.0)


def test_impulse_record_is_a_tuple_whose_magnitude_is_derived_from_dv():
    # the record is the tuple (t, dv, magnitude); every way to build one,
    # copy one or change one derives the magnitude from dv, so none is stale
    record = ImpulseRecord(12.5, [1, np.float64(2.0), 3])
    assert isinstance(record, tuple) and len(record) == 3
    t, dv, magnitude = record
    assert (t, dv, magnitude) == (record.t, record.dv, record.magnitude)
    assert type(dv) is Vector3 and [type(v) for v in dv] == [float] * 3
    assert dv == (1.0, 2.0, 3.0)
    assert magnitude.hex() == math.hypot(*dv).hex()
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is ImpulseRecord and copied == record
    moved = record._replace(dv=(3e-3, -4e-3, 0.0))
    assert moved.t == 12.5 and moved.magnitude == math.hypot(3e-3, -4e-3, 0.0)
    assert record._replace(t=1.0) == (1.0, dv, magnitude)
    assert ImpulseRecord._make((12.5, dv)) == record
    with pytest.raises(TypeError):
        record._replace(magnitude=1.0)
    with pytest.raises(TypeError):
        ImpulseRecord(12.5, dv, 1.0)
    with pytest.raises(TypeError):
        ImpulseRecord._make((12.5, dv, 1.0))
    # the targeting solve builds its record without the constructor, and
    # the same way: a float Vector3 with z = 0 and its hypot
    rel = RelativeState(5.0, -3.0, 0.0, 1e-3, 0.0, 0.0)
    solved, _ = cw_target_impulse(rel, (2.0, 7.0), 0.0, cw_targeting(N, PERIOD / 6))
    assert type(solved) is ImpulseRecord and type(solved.dv) is Vector3
    assert solved == ImpulseRecord(solved.t, solved.dv) and solved.dv.z == 0.0


def test_targeting_reads_any_six_floats_by_position():
    # the leg loop hands targeting the plain six-float tuple its truth coast
    # returns; a RelativeState of the same floats, or a list of them, gives
    # the same record and post-burn velocity, bit for bit, signed zeros too
    law = cw_targeting(N, PERIOD / 6)

    def bits(record, v_plus):
        return [v.hex() for v in (record.t, *record.dv, record.magnitude, *v_plus)]

    for floats in [(5.0, -3.0, 0.0, 1e-3, -0.0, 0.0), (-0.0, 0.0, 2.0, -0.0, 2e-3, -1e-3)]:
        named = RelativeState(*floats)
        for target in [(2.0, 7.0), [-0.0, 0.0], np.array([1.5, -4.0])]:
            expected = bits(*cw_target_impulse(named, target, 42.0, law))
            for plain in (floats, list(floats)):
                record, v_plus = cw_target_impulse(plain, target, 42.0, law)
                assert type(record) is ImpulseRecord and type(record.dv) is Vector3
                assert bits(record, v_plus) == expected, (plain, target)


def test_zero_dv_when_already_on_course():
    # waypoint placed at the free-drift image of the current state
    rel = RelativeState(4.0, -2.0, 0.0, 1e-3, -2e-3, 0.0)
    ts = PERIOD / 5
    drift = propagate_cw(rel, N, ts)
    record, v_plus = cw_target_impulse(rel, (drift.x, drift.y), 42.0, cw_targeting(N, ts))
    assert record.t == 42.0
    assert record.magnitude < 1e-12
    assert v_plus == pytest.approx((rel.vx, rel.vy), abs=1e-12)


def test_zero_dv_at_equilibrium():
    rel = RelativeState(0, 0, 0, 0, 0, 0)
    record, _ = cw_target_impulse(rel, (0.0, 0.0), 0.0, cw_targeting(N, 100.0))
    assert record.magnitude < 1e-15


def test_singular_at_full_revolution():
    with pytest.raises(SingularTransferTime):
        cw_targeting(N, PERIOD)


def test_determinant_scan_finds_revolution_zero():
    # the determinant changes sign through the full-revolution zero at 2 pi;
    # 4 pi is a boundary zero (the sign flip sits beyond it), so check the
    # value there directly
    thetas = np.linspace(1e-3, 4 * np.pi, 100000)
    dets = np.array([drift_determinant(th) for th in thetas])
    crossings = thetas[np.where(np.diff(np.sign(dets)) != 0)[0]]
    assert any(abs(c - 2 * np.pi) < 1e-3 for c in crossings)
    assert abs(drift_determinant(4 * np.pi)) < 1e-12


def test_targeting_round_trip_property():
    # applied impulse must land the CW propagation on the waypoint
    rng = np.random.default_rng(314)
    for _ in range(1000):
        rel = RelativeState(
            *rng.uniform(-100, 100, 2), 0.0, *rng.uniform(-0.1, 0.1, 2), 0.0
        )
        # stay away from the 2 pi singularity
        ts = rng.uniform(0.05, 0.9) * PERIOD
        x, y = rng.uniform(-100, 100, 2)
        record, v_plus = cw_target_impulse(rel, (x, y), 0.0, cw_targeting(N, ts))
        after = RelativeState(rel.x, rel.y, 0.0, v_plus[0], v_plus[1], 0.0)
        arrived = propagate_cw(after, N, ts)
        assert np.hypot(arrived.x - x, arrived.y - y) < 1e-9
        # dv must be exactly the velocity change that was applied
        assert_allclose(record.dv[:2], [v_plus[0] - rel.vx, v_plus[1] - rel.vy])
        assert record.dv[2] == 0.0


def test_targeting_is_linear_in_state_and_target():
    # with zero initial velocity, doubling offset and target doubles dv
    ts = PERIOD / 6
    rel1 = RelativeState(5.0, -3.0, 0.0, 0.0, 0.0, 0.0)
    rel2 = RelativeState(10.0, -6.0, 0.0, 0.0, 0.0, 0.0)
    law = cw_targeting(N, ts)
    rec1, _ = cw_target_impulse(rel1, (2.0, 7.0), 0.0, law)
    rec2, _ = cw_target_impulse(rel2, (4.0, 14.0), 0.0, law)
    assert_allclose(rec2.dv, 2.0 * rec1.dv, rtol=1e-12)


def _determinant_roots(lo, hi):
    """Every root of the targeting determinant in (lo, hi): bracketed by its
    sign changes on a fine grid, then bisected to rounding."""
    thetas = np.linspace(lo, hi, 100_000)
    dets = np.array([drift_determinant(th) for th in thetas.tolist()])
    roots = []
    for i in np.nonzero(np.sign(dets[:-1]) != np.sign(dets[1:]))[0]:
        a, b = float(thetas[i]), float(thetas[i + 1])
        for _ in range(60):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if np.sign(drift_determinant(mid)) == np.sign(dets[i]) else (a, mid)
        roots.append(a)
    return roots


def test_targeting_matches_numpy_solve_up_to_near_singular_angles():
    # the law inverts B once in closed form; the reference solves B v = p_f - A p0
    # with np.linalg.solve on cw_stm's blocks.  Both are stable 2x2 solves, so
    # they agree to the first-order perturbation bound, in 2-norms,
    #   |v - v_ref| <= 4 eps |B^-1| (|B| |v_ref| + |p_f| + |A| |p0|);
    # the worst case seen is 0.8 of it
    roots = _determinant_roots(0.05, 25.2)
    # 2 pi k for k = 1..4, and the three interior roots between them
    assert len(roots) == 7
    assert [round(r / (2 * np.pi), 9) for r in roots[::2]] == [1.0, 2.0, 3.0, 4.0]
    thetas = list(np.linspace(0.05, 25.2, 200))
    thetas += [r * (1.0 + e) for r in roots for e in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3)]
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2718)
    for theta in thetas:
        ts = theta / N
        law = cw_targeting(N, ts)
        stm = np.array(cw_stm(N, ts))
        a, b = stm[:2, :2], stm[:2, 3:5]
        for _ in range(10):
            p0, v0, target = rng.uniform(-100, 100, 2), rng.uniform(-0.1, 0.1, 2), \
                rng.uniform(-100, 100, 2)
            rel = RelativeState(*p0.tolist(), 0.0, *v0.tolist(), 0.0)
            record, v_plus = cw_target_impulse(rel, tuple(target.tolist()), 0.0, law)
            reference = np.linalg.solve(b, target - a @ p0)
            bound = 4 * eps * np.linalg.norm(np.linalg.inv(b), 2) * (
                np.linalg.norm(b, 2) * np.linalg.norm(reference) + np.linalg.norm(target)
                + np.linalg.norm(a, 2) * np.linalg.norm(p0))
            assert np.linalg.norm(np.subtract(v_plus, reference)) <= bound, theta
            assert list(record.dv) == [v_plus[0] - v0[0], v_plus[1] - v0[1], 0.0]


def test_rejects_non_positive_transfer_time():
    with pytest.raises(ValueError):
        cw_targeting(N, 0.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: TargetOrbit(radius=np.nan), ValueError),
        (lambda: cw_stm(np.nan, 1.0), ValueError),
        (lambda: cw_targeting(N, np.nan), ValueError),
        (lambda: cw_targeting(np.nan, 100.0), SingularTransferTime),
        (lambda: cw_targeting(np.inf, 100.0), SingularTransferTime),
        (lambda: cw_targeting(1e10, 1e300), SingularTransferTime),
        (lambda: cw_targeting(N, np.inf), ValueError),
        (lambda: nmc_initial_state(1.0, np.nan), ValueError),
        (lambda: waypoints_circle(np.nan, 4), ValueError),
        (lambda: nmc_initial_state(np.nan, N), ValueError),
        (lambda: waypoints_nmc(np.nan, 4), ValueError),
        (lambda: waypoints_line((np.nan, 0.0), (0.0, 0.0), 3), ValueError),
        (lambda: cw_stm(N, np.nan), ValueError),
        (lambda: cw_coast(N, np.nan), ValueError),
        (lambda: cw_stm(1e10, 1e300), ValueError),
        (lambda: drift_determinant(math.inf), ValueError),
        (lambda: InertialState(np.nan, (ORBIT.radius, 0, 0), (0, 7, 0)), ValueError),
        (lambda: hill_basis(ORBIT, np.inf), ValueError),
        (lambda: hill_to_eci(ORBIT, np.inf, RelativeState(1.0, 0, 0, 0, 0, 0)), ValueError),
        (lambda: hill_to_eci(ORBIT, np.nan, RelativeState(1.0, 0, 0, 0, 0, 0)), ValueError),
    ],
    ids=["orbit-radius-nan", "stm-n-nan", "targeting-ts-nan",
         "targeting-n-nan", "targeting-n-inf", "targeting-angle-overflow", "targeting-ts-inf", "nmc-n-nan", "circle-radius-nan",
         "nmc-x0-nan", "nmc-plan-x0-nan", "line-start-nan", "stm-dt-nan", "cw-coast-dt-nan",
         "stm-angle-overflow", "determinant-angle-inf", "inertial-epoch-nan", "basis-t-inf",
         "hill-to-eci-t-inf", "hill-to-eci-t-nan"],
)
def test_non_finite_inputs_are_rejected(call, error):
    # each raises with a message of its own, never NaN out or a bare math error
    with pytest.raises(error) as info:
        call()
    assert str(info.value) and "math domain error" not in str(info.value)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TargetOrbit(radius=6000.0), ValueError,
         "orbit radius 6000 km is not above the Earth surface"),
        (lambda: cw_stm(0.0, 1.0), ValueError, "mean motion must be positive"),
        (lambda: cw_targeting(N, -1.0), ValueError, "transfer time must be positive"),
        (lambda: nmc_initial_state(1.0, 0.0), ValueError, "mean motion must be positive"),
        (lambda: waypoints_circle(-1.0, 4), ValueError, "radius must be positive"),
        (lambda: waypoints_nmc(0.0, 4), ValueError, "NMC offset x0 must be nonzero"),
        (lambda: waypoints_circle(1.0, 3.0), ValueError,
         "waypoint count must be an integer, got 3.0"),
        (lambda: waypoints_circle(1.0, "4"), ValueError,
         "waypoint count must be an integer, got '4'"),
        (lambda: waypoints_nmc(1.0, 4.5), ValueError,
         "waypoint count must be an integer, got 4.5"),
        (lambda: waypoints_line((1, 0), (0, 0), 2.0), ValueError,
         "waypoint count must be an integer, got 2.0"),
        (lambda: hill_to_eci(ORBIT, "4", RelativeState(1.0, 0, 0, 0, 0, 0)), ValueError,
         "epoch t must be a real number, got '4'"),
        (lambda: hill_basis(ORBIT, 10**400), ValueError,
         "epoch t must be finite, got an int beyond double range"),
    ],
    ids=["orbit-radius", "stm-n", "targeting-ts", "nmc-n", "circle-radius",
         "nmc-plan-offset", "circle-count-float", "circle-count-str", "nmc-plan-count-float",
         "line-count-float", "hill-to-eci-t-str", "basis-t-int-overflow"],
)
def test_bad_finite_inputs_keep_their_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# waypoint plans


def test_circle_quadrants():
    points = waypoints_circle(1.0, 4)
    expected = [(1, 0), (0, -1), (-1, 0), (0, 1)]
    for (x, y), (ex, ey) in zip(points, expected):
        assert x == pytest.approx(ex, abs=1e-12)
        assert y == pytest.approx(ey, abs=1e-12)


def test_circle_radius_membership():
    for x, y in waypoints_circle(250.0, 17):
        assert np.hypot(x, y) == pytest.approx(250.0, abs=1e-12)


def test_circle_chord_length():
    # chord oracle: 2 r sin(pi / count)
    (x0, y0), (x1, y1) = waypoints_circle(500.0, 64)[:2]
    chord = np.hypot(x1 - x0, y1 - y0)
    assert chord == pytest.approx(49.067674327418018, rel=1e-12)


def test_circle_count_guard():
    with pytest.raises(ValueError, match="need at least 3 waypoints, got 2"):
        waypoints_circle(1.0, 2)


def test_nmc_waypoints_start_and_antipode():
    x0 = 12.0
    points = waypoints_nmc(x0, 8)
    assert points[0] == (x0, 0.0)
    # half period: the 2:1 ellipse antipode
    x, y = points[4]
    assert x == pytest.approx(-x0, rel=1e-12)
    assert y == pytest.approx(0.0, abs=1e-9)


def test_nmc_waypoints_on_ellipse():
    x0 = 12.0
    for x, y in waypoints_nmc(x0, 64):
        assert (x / x0) ** 2 + (y / (2 * x0)) ** 2 == pytest.approx(
            1.0, abs=1e-9
        )


def test_nmc_waypoints_match_propagation():
    # the plan must lie on the CW free-drift path of the insertion state
    x0 = 5.0
    rel = nmc_initial_state(x0, N)
    for k, (x, y) in enumerate(waypoints_nmc(x0, 16)):
        drift = propagate_cw(rel, N, k * PERIOD / 16)
        assert np.hypot(drift.x - x, drift.y - y) < 1e-9


def test_line_endpoints_and_midpoint():
    assert waypoints_line((0.0, 0.0), (10.0, 0.0), 2) == [(0, 0), (10, 0)]
    assert waypoints_line((0.0, 0.0), (10.0, 0.0), 3)[1] == (5.0, 0.0)


def test_line_collinearity():
    start, end = np.array([1.0, -2.0]), np.array([-7.0, 4.0])
    span = end - start
    for point in waypoints_line(start, end, 9):
        offset = np.array(point) - start
        cross = offset[0] * span[1] - offset[1] * span[0]
        assert abs(cross) < 1e-12


def test_line_count_guard():
    with pytest.raises(ValueError, match="need at least 2 waypoints, got 1"):
        waypoints_line((0, 0), (1, 1), 1)
