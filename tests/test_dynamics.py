import copy
import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from pins import _KEPLER_CORE_TABLE, fly_kepler_row, pinned_outcome
from reference import (
    chief_state,
    cw_derivative,
    lowest_radius,
    propagate_cw,
    propagate_two_body,
    specific_angular_momentum,
    specific_energy,
)
from rpodsim import (
    InertialState,
    RelativeState,
    SingularRadius,
    TargetOrbit,
    UnboundOrbit,
    cw_stm,
    eci_to_hill,
    hill_to_eci,
    intercept_experiment,
    nmc_initial_state,
    sweep_circumnavigation,
)
from rpodsim.constants import MU_EARTH, R_EARTH
from rpodsim.dynamics import two_body_coast

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


def test_target_orbit_derives_its_rates_from_the_radius_alone():
    # n and circular_speed are fields, computed once by every constructor:
    # _make, _replace, pickle and copy take the radius alone and derive them
    # again, so none is stale and a bad radius is refused on each path
    r, r2 = ORBIT.radius, R_EARTH + 500.0
    n = math.sqrt(MU_EARTH / r**3)
    assert ORBIT == (r, n, n * r) and ORBIT.circular_speed == ORBIT.n * r
    assert ORBIT.n.hex() == n.hex()
    other = TargetOrbit(r2)
    for moved in (ORBIT._replace(radius=r2), TargetOrbit._make((r2,))):
        assert type(moved) is TargetOrbit and moved == other
        assert moved.n.hex() == other.n.hex()
        assert moved.circular_speed.hex() == other.circular_speed.hex()
    for twin in (copy.copy(ORBIT), copy.deepcopy(ORBIT), pickle.loads(pickle.dumps(ORBIT))):
        assert type(twin) is TargetOrbit and twin == ORBIT
    with pytest.raises(ValueError):
        ORBIT._replace(radius=1.0)
    with pytest.raises(ValueError):
        TargetOrbit._make((1.0,))
    with pytest.raises(TypeError):
        ORBIT._replace(n=1.0)
    with pytest.raises(TypeError):
        TargetOrbit._make(ORBIT)
    with pytest.raises(TypeError):
        TargetOrbit(r, n, n * r)
    stale = tuple.__new__(TargetOrbit, (r, 1.0, 1.0))
    for twin in (copy.copy(stale), copy.deepcopy(stale), pickle.loads(pickle.dumps(stale))):
        assert twin == ORBIT
    below = tuple.__new__(TargetOrbit, (1.0, n, n))
    for rebuild in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        with pytest.raises(ValueError, match="not above the Earth surface"):
            rebuild(below)


def test_chief_state_is_circular():
    for t in (0.0, 1234.5, ORBIT.period / 3):
        state = chief_state(ORBIT, t)
        r, v = np.asarray(state.position), np.asarray(state.velocity)
        assert np.linalg.norm(r) == pytest.approx(ORBIT.radius, rel=1e-14)
        assert np.linalg.norm(v) == pytest.approx(ORBIT.circular_speed, rel=1e-14)
        assert np.dot(r, v) == pytest.approx(0.0, abs=1e-6)
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
    assert np.linalg.norm(np.subtract(end.position, start.position)) < 1e-6


def test_eccentric_orbit_closure():
    # period oracle from vis-viva: r_p = 8378 km, v_p = 1.05 v_circ
    # a = mu/(2 mu/r - v^2) = 9334.8189415041816 km
    period = 8975.7310046844232
    r_p = 8378.0
    v_p = 1.05 * np.sqrt(MU_EARTH / r_p)
    start = InertialState(0.0, [r_p, 0, 0], [0, v_p, 0])
    end = propagate_two_body(start, period)
    assert np.linalg.norm(np.subtract(end.position, start.position)) < 1e-5


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
    assert np.linalg.norm(np.subtract(end.position, chief_state(ORBIT, t).position)) < 1e-6


def test_eccentric_orbit_fractional_period():
    # the orbit of test_eccentric_orbit_closure: e = 1.05^2 - 1 = 0.1025
    r_p = 8378.0
    v_p = 1.05 * np.sqrt(MU_EARTH / r_p)
    t = FRACTION * 8975.7310046844232
    start = InertialState(0.0, [r_p, 0, 0], [0, v_p, 0])
    end = propagate_two_body(start, t)
    assert np.linalg.norm(np.asarray(end.position) - _kepler_position(r_p, v_p, t)) < 1e-5


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


def _period(state):
    """Period 2 pi sqrt(a^3 / mu) of the bound orbit through ``state``."""
    r, v = np.asarray(state.position), np.asarray(state.velocity)
    inv_a = 2.0 / np.linalg.norm(r) - v @ v / MU_EARTH
    return 2.0 * np.pi / np.sqrt(MU_EARTH * inv_a**3)


COAST_STARTS = {
    "circular": _start([8378.137, 0, 0], 1.0, [0, 1, 0]),
    # e = 0.32, inclination 45 deg, starting off the apsides
    "elliptic inclined": _start([5000.0, 5000.0, 2000.0], 1.3, [-0.5, 0.4, 0.6]),
    # e = 0.5 from periapsis, inclination 143 deg
    "elliptic retrograde": _start([7000.0, 0, 0], 1.5, [0, -0.8, 0.6]),
    # e = 0.7 from periapsis, inclination 37 deg; at e = 0.8 the integrator's
    # own drift already exceeds the DOP853 bound below
    "eccentric": _start([7000.0, 0, 0], 1.7, [0, 0.8, 0.6]),
}


@pytest.mark.parametrize("name", sorted(COAST_STARTS))
def test_kepler_coast_matches_dop853(name):
    # oracle: DOP853 at its tightest tolerance.  Its own error drifts with
    # arc length (~3e-7 km after 10 periods of the e = 0.5 orbit, where the
    # closed form is within ~1e-10 km of a 40-digit solution), so the bound
    # grows by 1e-7 km per period flown.
    start = COAST_STARTS[name]
    scale = _period(start)
    times = np.linspace(0.0, 10.0 * scale, 41)

    def rhs(_t, y):
        return np.hstack((y[3:], -MU_EARTH / np.linalg.norm(y[:3]) ** 3 * y[:3]))

    sol = solve_ivp(
        rhs, (0.0, times[-1]), np.hstack((start.position, start.velocity)),
        method="DOP853", rtol=2.3e-14, atol=1e-14, t_eval=times,
    )
    for i, t in enumerate(times):
        state = propagate_two_body(start, t)
        gap = np.linalg.norm(np.asarray(state.position) - sol.y[:3, i])
        assert gap < 1e-7 * max(1.0, t / scale), (t / scale, gap)
        assert state.epoch == t


@pytest.mark.parametrize(
    "start, window",
    [(start, 5.0 * _period(start)) for start in COAST_STARTS.values()]
    + [(_start([7000.0, 0, 0], 2.0 - 1e-12, [0, 1, 0]), 1e5)],  # near-parabolic, still bound
)
def test_kepler_coast_composes(start, window):
    # oracle-free: coasting t1 then t2 lands where coasting t1 + t2 does,
    # including near-parabolic arcs where the integrator oracle drifts
    rng = np.random.default_rng(3)
    for t1, t2 in rng.uniform(0.0, window, (10, 2)):
        mid = propagate_two_body(start, t1)
        two = propagate_two_body(mid, t2)
        one = propagate_two_body(start, t1 + t2)
        assert np.linalg.norm(np.subtract(two.position, one.position)) < 1e-8


def test_kepler_coast_returns_after_a_million_periods():
    # an elliptic coast is reduced modulo its period before the solve, so
    # the only error left is the rounding of the period, ~1e-12 s per lap
    start = chief_state(ORBIT, 0.0)
    end = propagate_two_body(start, 1e6 * ORBIT.period)
    assert np.linalg.norm(np.subtract(end.position, start.position)) < 1e-4


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
        assert np.linalg.norm(np.subtract(got.position, end.position)) < 1e-8


def _random_bound_arcs(count, seed):
    """(start, duration) pairs of bound coasts from 6,500 to 60,000 km, in
    every plane, a third of them within 0.5 to 5 deg of radial, each over
    0.001 to 2.5 of its period."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        radius = rng.uniform(6500.0, 60000.0)
        up = rng.normal(size=3)
        up /= np.linalg.norm(up)
        side = np.cross(up, rng.normal(size=3))
        side /= np.linalg.norm(side)
        if rng.random() < 1.0 / 3.0:
            tilt = np.radians(rng.uniform(0.5, 5.0))
            direction = rng.choice((-1.0, 1.0)) * np.cos(tilt) * up + np.sin(tilt) * side
        else:
            direction = rng.normal(size=3)
        # v^2 up to 0.98 of the escape speed's, so every orbit is bound
        start = _start(radius * up, rng.uniform(0.05, 1.96), direction)
        yield start, rng.uniform(0.001, 2.5) * _period(start)


def test_surface_check_matches_the_general_conic_reference(monkeypatch):
    # the kernel finds the lowest radius from a (1 - e) and the eccentric
    # anomaly at the end; the reference from h, the eccentricity vector and
    # the mean anomaly.  A floor just above the reference's radius must stop
    # the coast and one just below must let it fly.  The rounding error of
    # a (1 - e) grows as eps / (1 - e); it reaches 3e-11 of the radius at the
    # most radial starts here (1 - e = 5e-6)
    import rpodsim.dynamics

    ends_lowest = Counter()
    for start, duration in _random_bound_arcs(2500, seed=11):
        monkeypatch.setattr(rpodsim.dynamics, "_SURFACE_RADIUS", -math.inf)
        end = propagate_two_body(start, duration)
        end_radius = math.hypot(*end.position)
        lowest = lowest_radius(start, duration, end_radius)
        ends_lowest[lowest == min(end_radius, math.hypot(*start.position))] += 1
        monkeypatch.setattr(rpodsim.dynamics, "_SURFACE_RADIUS", lowest * (1.0 + 1e-9))
        with pytest.raises(SingularRadius):
            propagate_two_body(start, duration)
        monkeypatch.setattr(rpodsim.dynamics, "_SURFACE_RADIUS", lowest * (1.0 - 1e-9))
        assert propagate_two_body(start, duration) == end
    # both kinds of arc are common: 452 end short of periapsis, 2,048 pass it
    assert min(ends_lowest.values()) > 400


def test_hyperbolic_flyby_floor():
    # hyperbola with periapsis 6000 km, e = 1.46; 60 deg either side of
    # periapsis it is 8533 km out.  An escaping chaser flies no relative-motion
    # maneuver, so the flyby is refused before any floor check: a short arc,
    # the arc through the Earth and the outbound arc alike
    ecc = 1.0 + 6000.0 / 13000.0
    inbound, outbound = _on_conic(6000.0, ecc, -60), _on_conic(6000.0, ecc, 60)
    assert np.linalg.norm(inbound.position) > R_EARTH
    for start, duration in ((inbound, 1.0), (inbound, 1e6), (outbound, 1e6)):
        with pytest.raises(UnboundOrbit, match="at radius 8533.33 km moves at 11.1393 km/s, "
                                               "at or above the escape speed 9.6655 km/s"):
            propagate_two_body(start, duration)


@pytest.mark.parametrize("duration", [-1.0, np.nan, np.inf])
def test_rejects_negative_or_non_finite_duration(duration):
    # the library coast and the campaign's leg map both refuse it
    with pytest.raises(ValueError, match="duration must be finite and non-negative"):
        propagate_two_body(chief_state(ORBIT, 0.0), duration)
    with pytest.raises(ValueError, match=f"duration must be finite and non-negative, got {duration}"):
        two_body_coast(ORBIT, duration)


# The next three tests keep the names of the open-orbit failures these inputs
# once met (the hyperbolic anomaly cap, the Kepler solve, the bracket search).
# Those limits are gone with the open-orbit code: each input is now refused
# as an escape before any iteration, through the library's public coast.


def test_escape_over_an_absurd_window_stops_at_the_anomaly_cap():
    # 15 km/s at 8378 km escapes, however long the window
    start = InertialState(0.0, np.array([8378.0, 0.0, 0.0]), np.array([0.0, 15.0, 0.0]))
    with pytest.raises(UnboundOrbit, match="chaser at radius 8378 km moves at 15 km/s, "
                                           "at or above the escape speed 9.7547 km/s"):
        propagate_two_body(start, 1e300)


# the ids name the Kepler failure each window met before the escape check
@pytest.mark.parametrize("duration", [1e100, 1e300], ids=[
    "1e+100-universal Kepler solve for dt=1e\\+100 s did not converge in 100 iterations",
    "1e+300-coast of 1e\\+300 s leaves double-precision range",
])
def test_parabolic_escape_over_an_absurd_window_is_a_kepler_failure(duration):
    # exactly escape speed at 7000 km: alpha reads 0, which is no bound orbit
    speed = np.sqrt(2.0 * MU_EARTH / 7000.0)
    start = InertialState(0.0, np.array([7000.0, 0.0, 0.0]), np.array([0.0, speed, 0.0]))
    with pytest.raises(UnboundOrbit, match="chaser at radius 7000 km moves at 10.6717 km/s, "
                                           "at or above the escape speed 10.6717 km/s"):
        propagate_two_body(start, duration)


def test_kepler_bracket_search_gives_up_at_the_iteration_cap(monkeypatch):
    # a cap of one iteration changes nothing: the escape is refused first
    import rpodsim.dynamics

    monkeypatch.setattr(rpodsim.dynamics, "_KEPLER_MAX_ITER", 1)
    start = InertialState(0.0, np.array([7000.0, 0.0, 0.0]), np.array([0.0, 12.0, 0.0]))
    with pytest.raises(UnboundOrbit, match="chaser at radius 7000 km moves at 12 km/s, "
                                           "at or above the escape speed 10.6717 km/s"):
        propagate_two_body(start, 5000.0)


def _outcome(call):
    """A call's result as the bits of its floats, or its exception's type and text."""
    try:
        return tuple(map(float.hex, call()))
    except Exception as exc:  # compared, never swallowed: the twin must raise alike
        return type(exc), str(exc)


@pytest.mark.parametrize("max_iter, given, expected", [case[1:] for case in _KEPLER_CORE_TABLE],
                         ids=[case[0] for case in _KEPLER_CORE_TABLE])
def test_kepler_core_is_pinned_bit_for_bit(max_iter, given, expected):
    # the leg map and the library round trip share _coast, so only fixed
    # bits can show a change inside it: every output bit and every message
    assert fly_kepler_row(max_iter, given) == pinned_outcome(expected)


def _two_body_cases():
    """(relative state, leg length) pairs that every two-body leg map must fly alike."""
    cases = []
    # the arrival states of the 80-cell acceptance grid, on their own legs
    for result in sweep_circumnavigation((1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 750.0, 1000.0),
                                         (4, 8, 16, 32, 64), 2000.0):
        tau = ORBIT.period / result.config.impulse_count
        cases += [(rel, tau) for _, rel in result.samples]
    # signed zeros in every channel the lift carries through or multiplies,
    # on a leg and on a zero-length one, which reads the lift straight back
    for y, vy, z, vz, tau in itertools.product(*[(0.0, -0.0)] * 4, (ORBIT.period / 8, 0.0)):
        cases.append((RelativeState(10.0, y, z, 1e-3, vy, vz), tau))
        cases.append((RelativeState(-0.0, y, z, -0.0, vy, vz), tau))
    # legs of 0.05 to 3 chief periods, past the chaser's own period and
    # through the fmod reduction, for near and far chasers
    for size in (1e-3, 10.0, 1000.0):
        rel = RelativeState(*nmc_initial_state(size, ORBIT.n)[:4], 1e-4 * size, 0.0)
        cases += [(rel, f * ORBIT.period) for f in (0.05, 0.3, 0.99, 1.0, 1.01, 2.5, 3.0)]
    # the escaping departures of a 3000 km intercept in 10 minutes; the first
    # state and burn do not depend on the truth, which then flies no leg
    for result in intercept_experiment(3000.0, 600.0, [2], 2000.0, truth_model="cw"):
        tau = 600.0 / result.config.impulse_count
        rel = result.samples[0][1]
        dvx, dvy, _ = result.impulses[0].dv
        cases.append((rel._replace(vx=rel.vx + dvx, vy=rel.vy + dvy), tau))
    # legs that fail: through the Earth, escaping over an absurd window, the
    # same two starts on zero-length legs (which take the same checks), a
    # chaser at the Earth's center, and a state that is not finite
    v = ORBIT.circular_speed
    cases += [
        (RelativeState(-3000.0, 0.0, 0.0, 0.0, 0.0, 0.0), ORBIT.period / 3),
        (RelativeState(0.0, 0.0, 0.0, 0.0, -2.0, 0.0), ORBIT.period / 2),
        (RelativeState(0.0, 0.0, 0.0, 0.0, 15.0 - v, 0.0), 1e300),
        (RelativeState(-3000.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0),
        (RelativeState(0.0, 0.0, 0.0, 0.0, 15.0 - v, 0.0), 0.0),
        (RelativeState(-ORBIT.radius, 0.0, 0.0, 0.0, 0.0, 0.0), 100.0),
        (RelativeState(1.0, math.nan, 0.0, 0.0, 0.0, 0.0), 100.0),
    ]
    return cases


def test_two_body_coast_matches_the_library_round_trip():
    # the per-campaign leg map flies the same operations as lifting the
    # chaser at 0, coasting its inertial state and reading it back at tau:
    # every output bit, signed zeros included, and every error is the same
    legs, outcomes = {}, Counter()
    for rel, tau in _two_body_cases():
        leg = legs.setdefault(tau, two_body_coast(ORBIT, tau))
        got = _outcome(lambda: leg(rel))
        expected = _outcome(
            lambda: eci_to_hill(ORBIT, propagate_two_body(hill_to_eci(ORBIT, 0.0, rel), tau)))
        assert got == expected, (rel, tau)
        outcomes[got[0] if isinstance(got[0], type) else "state"] += 1
    assert outcomes[SingularRadius] == 3 and outcomes[UnboundOrbit] == 4
    assert outcomes[ValueError] == 2 and outcomes["state"] > 2000


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
        got = cw_derivative(RelativeState(*s), n)
        expected = A @ s
        assert_allclose(got, expected, rtol=1e-12, atol=1e-18)


def test_stm_identity_at_zero():
    assert_allclose(cw_stm(ORBIT.n, 0.0), np.eye(6), atol=1e-15)


def test_stm_secular_drift_entry_at_one_period():
    # the along-track drift entry 6(sin nt - nt) at nt = 2 pi equals -12 pi
    stm = np.array(cw_stm(ORBIT.n, ORBIT.period))
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
        combined = np.array(cw_stm(n, a + b))
        chained = np.array(cw_stm(n, a)) @ cw_stm(n, b)
        assert np.max(np.abs(combined - chained)) < 1e-10


def test_stm_cross_track_decoupling():
    stm = np.array(cw_stm(ORBIT.n, 1234.0))
    in_plane = [0, 1, 3, 4]
    out_plane = [2, 5]
    assert_allclose(stm[np.ix_(in_plane, out_plane)], 0.0, atol=1e-18)
    assert_allclose(stm[np.ix_(out_plane, in_plane)], 0.0, atol=1e-18)


def test_stm_matches_ode_integration():
    # column-by-column oracle: integrate the CW ODEs for random states
    n = ORBIT.n
    period = ORBIT.period

    def rhs(t, s):
        return cw_derivative(RelativeState(*s), n)

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
        return cw_derivative(RelativeState(*s), n)

    sol = solve_ivp(rhs, (0, ORBIT.period / 4), s0, rtol=1e-12, atol=1e-14)
    out = propagate_cw(RelativeState(*s0), n, ORBIT.period / 4)
    assert np.max(np.abs(np.array(out) - sol.y[:, -1])) < 1e-10


def test_propagate_cw_matches_the_transition_matrix():
    # the coast applies cw_stm's nonzero coefficients as float multiply-adds;
    # each row is a dot product of at most four terms, so each evaluation is
    # within 2 eps sum_j |m_ij s_j| of exact (gamma_4 of Higham, "Accuracy and
    # Stability of Numerical Algorithms", 3.1) and the two within 4 eps
    n = ORBIT.n
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    for theta in [*np.linspace(0.0, 25.2, 200), 2 * np.pi * (1 + 1e-9), 1e3, 1e5]:
        stm = np.array(cw_stm(n, theta / n))
        for _ in range(10):
            s = rng.uniform(-100, 100, 6) * np.array([1, 1, 1, 1e-2, 1e-2, 1e-2])
            got = propagate_cw(RelativeState(*s.tolist()), n, theta / n)
            assert np.all(np.abs(np.array(got) - stm @ s) <= 4 * eps * (np.abs(stm) @ np.abs(s)))
            assert {type(v) for v in got} == {float}


def test_nmc_closes_after_one_period():
    rel = nmc_initial_state(1.0, ORBIT.n)
    after = propagate_cw(rel, ORBIT.n, ORBIT.period)
    assert np.max(np.abs(np.subtract(after, rel))) < 1e-9


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
        assert np.max(np.abs(np.subtract(after[:3], rel[:3]))) < 1e-9


def test_cross_track_depends_only_on_its_own_channel():
    n = ORBIT.n
    a = RelativeState(5, -3, 2.0, 1e-3, -1e-3, 4e-4)
    b = RelativeState(-8, 11, 2.0, -2e-3, 3e-3, 4e-4)
    za = propagate_cw(a, n, 500.0)
    zb = propagate_cw(b, n, 500.0)
    assert za.z == pytest.approx(zb.z, rel=1e-14)
    assert za.vz == pytest.approx(zb.vz, rel=1e-14)
