import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from reference import cw_derivative, specific_angular_momentum
from rpodsim import (
    InertialState,
    KeplerNonConvergence,
    RelativeState,
    SingularRadius,
    TargetOrbit,
    chief_state,
    cw_stm,
    nmc_initial_state,
    propagate_cw,
    propagate_two_body,
    specific_energy,
)
from rpodsim.constants import MU_EARTH, R_EARTH

ORBIT = TargetOrbit.from_altitude(2000.0)


# ---------------------------------------------------------------------------
# target orbit


def test_target_orbit_mean_motion_consistency():
    assert ORBIT.radius == R_EARTH + 2000.0
    assert ORBIT.n == pytest.approx(np.sqrt(MU_EARTH / ORBIT.radius**3), rel=1e-15)
    assert ORBIT.period == pytest.approx(2 * np.pi / ORBIT.n, rel=1e-15)


def test_target_orbit_rejects_subsurface_radius():
    with pytest.raises(ValueError):
        TargetOrbit(radius=6000.0)


def test_chief_state_is_circular():
    for t in (0.0, 1234.5, ORBIT.period / 3):
        state = chief_state(ORBIT, t)
        assert np.linalg.norm(state.position) == pytest.approx(ORBIT.radius, rel=1e-14)
        assert np.linalg.norm(state.velocity) == pytest.approx(
            ORBIT.circular_speed, rel=1e-14
        )
        assert np.dot(state.position, state.velocity) == pytest.approx(0.0, abs=1e-6)
        assert state.epoch == t


# ---------------------------------------------------------------------------
# two-body truth model


def test_zero_duration_returns_initial():
    start = chief_state(ORBIT, 0.0)
    out = propagate_two_body(start, 0.0)
    assert_allclose(out.position, start.position)
    assert_allclose(out.velocity, start.velocity)


def test_circular_orbit_closure():
    start = chief_state(ORBIT, 0.0)
    end = propagate_two_body(start, ORBIT.period)
    assert np.linalg.norm(end.position - start.position) < 1e-6


def test_eccentric_orbit_closure():
    # period oracle from vis-viva: r_p = 8378 km, v_p = 1.05 v_circ
    # a = mu/(2 mu/r - v^2) = 9334.8189415041816 km
    period = 8975.7310046844232
    r_p = 8378.0
    v_p = 1.05 * np.sqrt(MU_EARTH / r_p)
    start = InertialState(0.0, [r_p, 0, 0], [0, v_p, 0])
    end = propagate_two_body(start, period)
    assert np.linalg.norm(end.position - start.position) < 1e-5


def test_energy_and_momentum_drift_ten_periods():
    start = chief_state(ORBIT, 0.0)
    end = propagate_two_body(start, 10 * ORBIT.period)
    e0 = specific_energy(start)
    h0 = specific_angular_momentum(start)
    assert abs((specific_energy(end) - e0) / e0) < 1e-10
    assert abs((specific_angular_momentum(end) - h0) / h0) < 1e-10


# A whole number of periods reduces to a zero-length coast, so the gates
# above close almost by construction; these coast a fractional number of
# periods and compare against closed forms with the same bounds.
FRACTION = 2.37


def _kepler_position(r_p, v_p, t):
    """Position at t on the orbit through periapsis (r_p, 0) with speed v_p
    along +y, from the Kepler equation M = E - e sin E solved by Newton."""
    a = MU_EARTH / (2.0 * MU_EARTH / r_p - v_p**2)
    e = 1.0 - r_p / a
    mean = np.sqrt(MU_EARTH / a**3) * t
    ecc_anomaly = mean
    for _ in range(50):
        step = (ecc_anomaly - e * np.sin(ecc_anomaly) - mean) / (1.0 - e * np.cos(ecc_anomaly))
        ecc_anomaly -= step
        if abs(step) < 1e-15:
            break
    return np.array([a * (np.cos(ecc_anomaly) - e),
                     a * np.sqrt(1.0 - e * e) * np.sin(ecc_anomaly), 0.0])


def test_circular_orbit_fractional_period():
    t = FRACTION * ORBIT.period
    end = propagate_two_body(chief_state(ORBIT, 0.0), t)
    assert np.linalg.norm(end.position - chief_state(ORBIT, t).position) < 1e-6


def test_eccentric_orbit_fractional_period():
    # the orbit of test_eccentric_orbit_closure: e = 1.05^2 - 1 = 0.1025
    r_p = 8378.0
    v_p = 1.05 * np.sqrt(MU_EARTH / r_p)
    t = FRACTION * 8975.7310046844232
    start = InertialState(0.0, [r_p, 0, 0], [0, v_p, 0])
    end = propagate_two_body(start, t)
    assert np.linalg.norm(end.position - _kepler_position(r_p, v_p, t)) < 1e-5


def test_energy_and_momentum_drift_fractional_periods():
    start = chief_state(ORBIT, 0.0)
    end = propagate_two_body(start, 10.37 * ORBIT.period)
    e0 = specific_energy(start)
    h0 = specific_angular_momentum(start)
    assert abs((specific_energy(end) - e0) / e0) < 1e-10
    assert abs((specific_angular_momentum(end) - h0) / h0) < 1e-10


def test_sample_times_and_epochs():
    # a coast advances the epoch it starts from by its duration
    for t0 in (0.0, 1234.5):
        start = chief_state(ORBIT, t0)
        for t in (100.0, 500.0, 1000.0):
            end = propagate_two_body(start, t)
            assert end.epoch == pytest.approx(t0 + t)
            assert np.linalg.norm(end.position) == pytest.approx(ORBIT.radius, abs=1e-6)


# ---------------------------------------------------------------------------
# closed-form coasts


def _start(position, speed_factor, direction):
    """State at ``position`` moving along ``direction`` at sqrt(speed_factor)
    times the local circular speed."""
    r = np.asarray(position, dtype=float)
    d = np.asarray(direction, dtype=float)
    v = np.sqrt(speed_factor * MU_EARTH / np.linalg.norm(r)) * d / np.linalg.norm(d)
    return InertialState(0.0, r, v)


def _time_scale(state):
    """Period for an ellipse, 2 pi sqrt(|a|^3 / mu) for a hyperbola."""
    r, v = state.position, state.velocity
    inv_a = 2.0 / np.linalg.norm(r) - v @ v / MU_EARTH
    return 2.0 * np.pi / np.sqrt(MU_EARTH * abs(inv_a) ** 3)


COAST_STARTS = {
    "circular": _start([8378.137, 0, 0], 1.0, [0, 1, 0]),
    # e = 0.32, inclination 45 deg, starting off the apsides
    "elliptic inclined": _start([5000.0, 5000.0, 2000.0], 1.3, [-0.5, 0.4, 0.6]),
    # e = 0.5 from periapsis, inclination 143 deg
    "elliptic retrograde": _start([7000.0, 0, 0], 1.5, [0, -0.8, 0.6]),
    # e = 1.46
    "hyperbolic": _start([7000.0, 0, 1000.0], 2.5, [0.3, 1, 0.2]),
}


@pytest.mark.parametrize("name", sorted(COAST_STARTS))
def test_kepler_coast_matches_dop853(name):
    # oracle: DOP853 at its tightest tolerance.  Its own error drifts with
    # arc length (~3e-7 km after 10 periods of the e = 0.5 orbit, where the
    # closed form is within ~1e-10 km of a 40-digit solution), so the bound
    # grows by 1e-7 km per period flown.
    start = COAST_STARTS[name]
    scale = _time_scale(start)
    times = np.linspace(0.0, 10.0 * scale, 41)

    def rhs(_t, y):
        return np.hstack((y[3:], -MU_EARTH / np.linalg.norm(y[:3]) ** 3 * y[:3]))

    sol = solve_ivp(
        rhs, (0.0, times[-1]), np.hstack((start.position, start.velocity)),
        method="DOP853", rtol=2.3e-14, atol=1e-14, t_eval=times,
    )
    for i, t in enumerate(times):
        state = propagate_two_body(start, t)
        gap = np.linalg.norm(state.position - sol.y[:3, i])
        assert gap < 1e-7 * max(1.0, t / scale), (t / scale, gap)
        assert state.epoch == t


@pytest.mark.parametrize(
    "start, window",
    [(start, 5.0 * _time_scale(start)) for start in COAST_STARTS.values()]
    + [
        (_start([7000.0, 0, 0], 2.0 - 1e-12, [0, 1, 0]), 1e5),  # near-parabolic
        (_start([7000.0, 0, 0], 2.0, [0, 1, 0]), 1e5),  # parabolic to rounding
    ],
)
def test_kepler_coast_composes(start, window):
    # oracle-free: coasting t1 then t2 lands where coasting t1 + t2 does,
    # including near-parabolic arcs where the integrator oracle drifts
    rng = np.random.default_rng(3)
    for t1, t2 in rng.uniform(0.0, window, (10, 2)):
        mid = propagate_two_body(start, t1)
        two = propagate_two_body(mid, t2)
        one = propagate_two_body(start, t1 + t2)
        assert np.linalg.norm(two.position - one.position) < 1e-8


def test_kepler_coast_returns_after_a_million_periods():
    # an elliptic coast is reduced modulo its period before the solve, so
    # the only error left is the rounding of the period, ~1e-12 s per lap
    start = chief_state(ORBIT, 0.0)
    end = propagate_two_body(start, 1e6 * ORBIT.period)
    assert np.linalg.norm(end.position - start.position) < 1e-4


def _on_conic(r_p, ecc, nu_deg):
    """State at true anomaly ``nu_deg`` on an equatorial conic with
    periapsis radius ``r_p`` on the x axis."""
    nu = np.radians(nu_deg)
    p = r_p * (1.0 + ecc)
    r = p / (1.0 + ecc * np.cos(nu))
    v = np.sqrt(MU_EARTH / p)
    return InertialState(
        0.0,
        [r * np.cos(nu), r * np.sin(nu), 0.0],
        [-v * np.sin(nu), v * (ecc + np.cos(nu)), 0.0],
    )


# ellipse with periapsis 6000 km, inside the Earth, and apoapsis 20000 km;
# at 60 deg either side of periapsis it is 7274 km out
_SUB_PERI, _SUB_ECC = 6000.0, 14000.0 / 26000.0
_SUB_PERIOD = 2 * np.pi * np.sqrt(13000.0**3 / MU_EARTH)


def _since_periapsis(nu_deg):
    """Time from periapsis to true anomaly ``nu_deg`` (-180, 180) on that ellipse."""
    half = np.radians(nu_deg) / 2.0
    ecc_anomaly = 2.0 * np.arctan(np.sqrt((1 - _SUB_ECC) / (1 + _SUB_ECC)) * np.tan(half))
    mean = ecc_anomaly - _SUB_ECC * np.sin(ecc_anomaly)
    return mean / (2 * np.pi) * _SUB_PERIOD


@pytest.mark.parametrize(
    "nu0, nu1, laps, hits",
    [
        (-60, 60, 0, True),  # both ends at 7274 km, periapsis between
        (-60, -45, 0, False),  # stops at 6689 km, short of periapsis
        (60, 120, 0, False),  # climbing away from periapsis
        (60, -60, 1, False),  # up through apoapsis and back down to 7274 km
        (-60, -60, 1, True),  # a whole period always passes periapsis
        (60, 60, 3, True),  # so do several
    ],
)
def test_coast_floor_is_checked_over_the_whole_arc(nu0, nu1, laps, hits):
    start, end = _on_conic(_SUB_PERI, _SUB_ECC, nu0), _on_conic(_SUB_PERI, _SUB_ECC, nu1)
    # the end points alone never show it
    assert min(np.linalg.norm(start.position), np.linalg.norm(end.position)) > R_EARTH
    duration = _since_periapsis(nu1) - _since_periapsis(nu0) + laps * _SUB_PERIOD
    if hits:
        with pytest.raises(SingularRadius, match="below the 6378.14 km floor"):
            propagate_two_body(start, duration)
    else:
        got = propagate_two_body(start, duration)
        assert np.linalg.norm(got.position - end.position) < 1e-8


def test_hyperbolic_flyby_floor():
    # hyperbola with periapsis 6000 km, e = 1.46; 60 deg either side of
    # periapsis it is 8532 km out
    ecc = 1.0 + 6000.0 / 13000.0
    inbound, outbound = _on_conic(6000.0, ecc, -60), _on_conic(6000.0, ecc, 60)
    assert np.linalg.norm(inbound.position) > R_EARTH
    propagate_two_body(inbound, 1.0)
    with pytest.raises(SingularRadius):
        propagate_two_body(inbound, 1e6)
    propagate_two_body(outbound, 1e6)


@pytest.mark.parametrize("duration", [-1.0, np.nan, np.inf])
def test_rejects_negative_or_non_finite_duration(duration):
    with pytest.raises(ValueError, match="duration must be finite and non-negative"):
        propagate_two_body(chief_state(ORBIT, 0.0), duration)


def test_escape_over_an_absurd_window_stops_at_the_anomaly_cap():
    # 15 km/s at 8378 km escapes; after 1e300 s its hyperbolic anomaly would
    # have changed by ~1e3, past where sinh and cosh overflow
    start = InertialState(0.0, np.array([8378.0, 0.0, 0.0]), np.array([0.0, 15.0, 0.0]))
    with pytest.raises(KeplerNonConvergence, match="hyperbolic anomaly change 1.02e"):
        propagate_two_body(start, 1e300)


@pytest.mark.parametrize("duration, message", [
    (1e100, "universal Kepler solve for dt=1e\\+100 s did not converge in 100 iterations"),
    (1e300, "coast of 1e\\+300 s leaves double-precision range"),
])
def test_parabolic_escape_over_an_absurd_window_is_a_kepler_failure(duration, message):
    # exactly escape speed at 7000 km: alpha reads 0, so no period bounds the
    # coast and no anomaly cap stops it
    speed = np.sqrt(2.0 * MU_EARTH / 7000.0)
    start = InertialState(0.0, np.array([7000.0, 0.0, 0.0]), np.array([0.0, speed, 0.0]))
    with pytest.raises(KeplerNonConvergence, match=message):
        propagate_two_body(start, duration)


def test_kepler_bracket_search_gives_up_at_the_iteration_cap(monkeypatch):
    # no natural input was found that exhausts the bracket search: a cap of
    # one doubling makes an ordinary 12 km/s escape do so
    import rpodsim.dynamics

    monkeypatch.setattr(rpodsim.dynamics, "_KEPLER_MAX_ITER", 1)
    start = InertialState(0.0, np.array([7000.0, 0.0, 0.0]), np.array([0.0, 12.0, 0.0]))
    with pytest.raises(KeplerNonConvergence, match="no bracket for a coast of 5000 s"):
        propagate_two_body(start, 5000.0)


# ---------------------------------------------------------------------------
# CW model


def test_cw_equilibrium_at_origin():
    rel = RelativeState(0, 0, 0, 0, 0, 0)
    assert_allclose(cw_derivative(rel, ORBIT.n), 0.0, atol=1e-18)


def test_cw_nmc_accelerations():
    n = ORBIT.n
    x0 = 7.0
    rel = nmc_initial_state(x0, n)
    deriv = cw_derivative(rel, n)
    # substituting y' = -2 n x0: x'' = 3 n^2 x0 - 4 n^2 x0 = -n^2 x0, y'' = 0
    assert deriv[3] == pytest.approx(-(n**2) * x0, rel=1e-12)
    assert deriv[4] == pytest.approx(0.0, abs=1e-18)


def test_cw_derivative_matches_linear_system():
    # independent construction of the CW system matrix
    n = ORBIT.n
    A = np.zeros((6, 6))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0
    A[3, 0], A[3, 4] = 3 * n**2, 2 * n
    A[4, 3] = -2 * n
    A[5, 2] = -(n**2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.uniform(-10, 10, 6)
        got = cw_derivative(RelativeState.from_vector(s), n)
        expected = A @ s
        assert_allclose(got, expected, rtol=1e-12, atol=1e-18)


def test_stm_identity_at_zero():
    assert_allclose(cw_stm(ORBIT.n, 0.0), np.eye(6), atol=1e-15)


def test_stm_secular_drift_entry_at_one_period():
    # the along-track drift entry 6(sin nt - nt) at nt = 2 pi equals -12 pi
    stm = cw_stm(ORBIT.n, ORBIT.period)
    assert stm[1, 0] == pytest.approx(-37.699111843077517, rel=1e-9)
    # x-row and z-block return to identity after a full revolution
    assert stm[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert stm[2, 2] == pytest.approx(1.0, abs=1e-9)


def test_stm_group_property():
    n = ORBIT.n
    rng = np.random.default_rng(11)
    for _ in range(100):
        # keep a + b within one period: the secular 4 sin - 3 n t entries grow
        # linearly, and 1e-10 absolute stops being meaningful past ~1e5 km
        a, b = rng.uniform(0, ORBIT.period / 2, 2)
        combined = cw_stm(n, a + b)
        chained = cw_stm(n, a) @ cw_stm(n, b)
        assert np.max(np.abs(combined - chained)) < 1e-10


def test_stm_cross_track_decoupling():
    stm = cw_stm(ORBIT.n, 1234.0)
    in_plane = [0, 1, 3, 4]
    out_plane = [2, 5]
    assert_allclose(stm[np.ix_(in_plane, out_plane)], 0.0, atol=1e-18)
    assert_allclose(stm[np.ix_(out_plane, in_plane)], 0.0, atol=1e-18)


def test_stm_matches_ode_integration():
    # column-by-column oracle: integrate the CW ODEs for random states
    n = ORBIT.n
    period = ORBIT.period

    def rhs(t, s):
        return cw_derivative(RelativeState.from_vector(s), n)

    rng = np.random.default_rng(42)
    for _ in range(10):
        s0 = rng.uniform(-10, 10, 6) * np.array([1, 1, 1, 1e-3, 1e-3, 1e-3])
        sol = solve_ivp(rhs, (0, period), s0, rtol=1e-12, atol=1e-14)
        closed = cw_stm(n, period) @ s0
        assert np.max(np.abs(sol.y[:, -1] - closed)) < 1e-10


def test_propagate_cw_matches_ode_quarter_period():
    n = ORBIT.n
    s0 = np.array([3.0, -2.0, 1.0, 1e-3, -2e-3, 5e-4])

    def rhs(t, s):
        return cw_derivative(RelativeState.from_vector(s), n)

    sol = solve_ivp(rhs, (0, ORBIT.period / 4), s0, rtol=1e-12, atol=1e-14)
    out = propagate_cw(RelativeState.from_vector(s0), n, ORBIT.period / 4)
    assert np.max(np.abs(out.vector - sol.y[:, -1])) < 1e-10


def test_nmc_closes_after_one_period():
    rel = nmc_initial_state(1.0, ORBIT.n)
    after = propagate_cw(rel, ORBIT.n, ORBIT.period)
    assert np.max(np.abs(after.vector - rel.vector)) < 1e-9


def test_nmc_closure_property_random_offsets():
    # any state with y' = -2 n x and no other velocity closes after 2 pi / n
    rng = np.random.default_rng(9)
    n = ORBIT.n
    for _ in range(50):
        x0 = rng.uniform(-800, 800)
        if x0 == 0.0:
            continue
        rel = RelativeState(x0, rng.uniform(-100, 100), 0, 0, -2 * n * x0, 0)
        after = propagate_cw(rel, n, ORBIT.period)
        assert np.max(np.abs(after.position - rel.position)) < 1e-9


def test_cross_track_depends_only_on_its_own_channel():
    n = ORBIT.n
    a = RelativeState(5, -3, 2.0, 1e-3, -1e-3, 4e-4)
    b = RelativeState(-8, 11, 2.0, -2e-3, 3e-3, 4e-4)
    za = propagate_cw(a, n, 500.0)
    zb = propagate_cw(b, n, 500.0)
    assert za.z == pytest.approx(zb.z, rel=1e-14)
    assert za.vz == pytest.approx(zb.vz, rel=1e-14)
