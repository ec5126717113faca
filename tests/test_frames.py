"""The program's Hill transforms, and the general reference they are held to.

``rpodsim.frames`` transforms for the circular equatorial chief alone;
``reference`` builds the Hill frame of any target state with the transport
theorem.  The reference's own tests come first, then the program's
transforms against it.
"""

import copy
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference as ref
from reference import chief_state
from rpodsim import (
    InertialState,
    RelativeState,
    TargetOrbit,
    eci_to_hill,
    hill_basis,
    hill_to_eci,
    nmc_initial_state,
)
from rpodsim.constants import MU_EARTH

R_CHIEF = 8378.137
N_CHIEF = np.sqrt(MU_EARTH / R_CHIEF**3)
ORBIT = TargetOrbit.from_altitude(2000.0)
# an independently evaluated oracle for the along-track rate of a chaser on
# the chief's ray at R + 1 km with its own circular speed:
# vc(R + 1) - vc(R) - n * 1 (transport term)
RAY_OFFSET_VY = -0.0012348835412202485


def circular_state(phase, epoch=0.0, radius=R_CHIEF):
    vc = np.sqrt(MU_EARTH / radius)
    c, s = np.cos(phase), np.sin(phase)
    return InertialState(
        epoch=epoch,
        position=np.array([radius * c, radius * s, 0.0]),
        velocity=np.array([-vc * s, vc * c, 0.0]),
    )


# ---------------------------------------------------------------------------
# the reference: general transport-theorem transforms


def test_basis_axis_aligned():
    rotation, _ = ref.hill_basis(circular_state(0.0))
    assert_allclose(rotation[0], [1, 0, 0], atol=1e-15)
    assert_allclose(rotation[1], [0, 1, 0], atol=1e-15)
    assert_allclose(rotation[2], [0, 0, 1], atol=1e-15)


def test_basis_quarter_orbit():
    rotation, _ = ref.hill_basis(circular_state(np.pi / 2))
    assert_allclose(rotation[0], [0, 1, 0], atol=1e-15)
    assert_allclose(rotation[1], [-1, 0, 0], atol=1e-15)
    assert_allclose(rotation[2], [0, 0, 1], atol=1e-15)


def test_basis_45_degrees_matches_plane_rotation():
    # at 45 deg in-plane phase the basis is the explicit rotation about k-hat
    rotation, _ = ref.hill_basis(circular_state(np.pi / 4))
    c = s = np.sqrt(0.5)
    expected = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    assert_allclose(rotation, expected, atol=1e-15)


def test_basis_degenerate_orbit():
    radial = InertialState(0.0, [R_CHIEF, 0, 0], [1.0, 0, 0])
    with pytest.raises(ref.DegenerateOrbit):
        ref.hill_basis(radial)


def test_circular_orbit_angular_velocity():
    _, rate = ref.hill_basis(circular_state(1.2345))
    assert rate == pytest.approx(N_CHIEF, rel=1e-12)


def test_cross_track_axis_is_momentum_direction():
    state = circular_state(0.77)
    h = np.cross(np.asarray(state.position), np.asarray(state.velocity))
    rotation, _ = ref.hill_basis(state)
    assert_allclose(rotation[2], h / np.linalg.norm(h), atol=1e-15)


def test_coincident_satellites_give_zero_relative_state():
    target = circular_state(0.3)
    rel = ref.eci_to_hill(target, target)
    assert_allclose(np.array(rel), 0.0, atol=1e-15)


def test_epoch_mismatch_rejected():
    target = circular_state(0.0, epoch=0.0)
    chaser = circular_state(0.0, epoch=10.0)
    with pytest.raises(ref.EpochMismatch):
        ref.eci_to_hill(target, chaser)


def test_transport_theorem_coplanar_ray_offset():
    # chaser on the same ray at R + delta with its own circular speed:
    # x = delta and vy = vc(R+delta) - vc(R) - n*delta (transport term).
    delta = 1.0
    target = circular_state(0.0)
    chaser = circular_state(0.0, radius=R_CHIEF + delta)
    rel = ref.eci_to_hill(target, chaser)
    assert_allclose(rel.x, delta, atol=1e-12)
    assert_allclose([rel.y, rel.z], 0.0, atol=1e-12)
    assert_allclose(rel.vy, RAY_OFFSET_VY, rtol=1e-12)
    assert_allclose([rel.vx, rel.vz], 0.0, atol=1e-15)


def test_zero_relative_state_returns_target():
    target = circular_state(2.0)
    chaser = ref.hill_to_eci(target, RelativeState(0, 0, 0, 0, 0, 0))
    assert_allclose(chaser.position, target.position, atol=1e-15)
    assert_allclose(chaser.velocity, target.velocity, atol=1e-18)


def test_round_trip_property_random_states():
    # both composition orders must be identities for separations < 500 km;
    # velocity floor is set by one ulp of the chief speed (~9e-16 km/s)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        target = chief_state(ORBIT, rng.uniform(0.0, ORBIT.period))
        rel = RelativeState(*rng.uniform(-250, 250, 3), *rng.uniform(-0.3, 0.3, 3))
        chaser = ref.hill_to_eci(target, rel)
        back = ref.eci_to_hill(target, chaser)
        assert np.max(np.abs(np.subtract(back[:3], rel[:3]))) < 1e-12
        assert np.max(np.abs(np.subtract(back[3:], rel[3:]))) < 2e-15
        chaser2 = ref.hill_to_eci(target, back)
        assert np.max(np.abs(np.subtract(chaser2.position, chaser.position))) < 1e-12
        assert np.max(np.abs(np.subtract(chaser2.velocity, chaser.velocity))) < 2e-15


def test_orthonormality_property_random_states():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        position = rng.uniform(-1.0, 1.0, 3)
        position *= rng.uniform(6800, 50000) / np.linalg.norm(position)
        velocity = rng.uniform(-7, 7, 3)
        if np.linalg.norm(np.cross(position, velocity)) < 1e3:
            continue  # skip near-degenerate draws
        rot, _ = ref.hill_basis(InertialState(0.0, position, velocity))
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the program's circular-chief transforms


def test_program_basis_is_the_chiefs_frame():
    # (cos nt, sin nt) are the rows of the reference's rotation built from
    # the chief's state at t, and the reference's rate is the mean motion
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 1e7, 100):
        c, s = hill_basis(ORBIT, t)
        assert (c, s) == (np.cos(ORBIT.n * t), np.sin(ORBIT.n * t))
        rotation, rate = ref.hill_basis(chief_state(ORBIT, t))
        assert_allclose(rotation, [[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)
        assert rate == pytest.approx(ORBIT.n, rel=1e-15)


def test_program_transforms_match_reference():
    # at random epochs up to 1e7 s and separations up to 250 km both
    # transforms agree with the reference applied to chief_state(orbit, t):
    # ECI to 1e-11 km and 5e-15 km/s (~5 ulps of the 8,378 km radius and
    # the 6.9 km/s circular speed), Hill to 1e-12 km and 1e-15 km/s
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        t = rng.uniform(0.0, 1e7)
        rel = RelativeState(*rng.uniform(-250, 250, 3), *rng.uniform(-0.3, 0.3, 3))
        chief = chief_state(ORBIT, t)
        chaser, expected = hill_to_eci(ORBIT, t, rel), ref.hill_to_eci(chief, rel)
        assert chaser.epoch == t
        assert np.max(np.abs(np.subtract(chaser.position, expected.position))) < 1e-11
        assert np.max(np.abs(np.subtract(chaser.velocity, expected.velocity))) < 5e-15
        back, expected = eci_to_hill(ORBIT, chaser), ref.eci_to_hill(chief, chaser)
        assert np.max(np.abs(np.subtract(back[:3], expected[:3]))) < 1e-12
        assert np.max(np.abs(np.subtract(back[3:], expected[3:]))) < 1e-15


def test_program_round_trip_random_states():
    # both composition orders are identities to under three ulps of the
    # chief's 8,378 km radius (1.8e-12 km) and six of its 6.9 km/s speed
    # (8.9e-16 km/s): the lift forms R + x, where the reference adds the
    # turned offset to the chief's position
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        t = rng.uniform(0.0, ORBIT.period)
        rel = RelativeState(*rng.uniform(-250, 250, 3), *rng.uniform(-0.3, 0.3, 3))
        chaser = hill_to_eci(ORBIT, t, rel)
        back = eci_to_hill(ORBIT, chaser)
        assert np.max(np.abs(np.subtract(back[:3], rel[:3]))) < 5e-12
        assert np.max(np.abs(np.subtract(back[3:], rel[3:]))) < 5e-15
        chaser2 = hill_to_eci(ORBIT, t, back)
        assert np.max(np.abs(np.subtract(chaser2.position, chaser.position))) < 5e-12
        assert np.max(np.abs(np.subtract(chaser2.velocity, chaser.velocity))) < 5e-15


def test_program_transport_term_on_a_ray_offset():
    # the reference's ray test, read by the program at a phase of the chief
    t = 1234.5
    theta = ORBIT.n * t
    rel = eci_to_hill(ORBIT, circular_state(theta, epoch=t, radius=ORBIT.radius + 1.0))
    assert_allclose([rel.x, rel.vy], [1.0, RAY_OFFSET_VY], rtol=1e-9)
    assert_allclose([rel.y, rel.z, rel.vx, rel.vz], 0.0, atol=1e-12)


def test_nmc_insertion_round_trip():
    rel = nmc_initial_state(1.0, ORBIT.n)
    back = eci_to_hill(ORBIT, hill_to_eci(ORBIT, 0.0, rel))
    assert_allclose(np.array(back), np.array(rel), atol=1e-12)


def test_inertial_state_validation():
    with pytest.raises(ValueError):
        InertialState(0.0, [0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        InertialState(0.0, [np.nan, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="^position must be 3 numbers, got 2$"):
        InertialState(0.0, [1, 2], [1, 0, 0])
    with pytest.raises(ValueError):  # nested, not a TypeError from float()
        InertialState(0.0, [[1, 0, 0]] * 3, [1, 0, 0])
    with pytest.raises(ValueError):
        InertialState(0.0, ["a", 0, 0], [1, 0, 0])
    with pytest.raises(ValueError, match=r"^velocity must be 3 numbers, got 1\.0$"):
        InertialState(0.0, [1, 0, 0], 1.0)
    for text in ("123", b"123"):  # three characters, not three numbers
        message = f"position must be 3 numbers, got {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InertialState(0.0, text, [1, 0, 0])
    # the epoch is a finite real number, so no transform reads NaN out of it
    for epoch, message in ((np.nan, "epoch must be finite, got nan"),
                           (np.inf, "epoch must be finite, got inf"),
                           ("0", "epoch must be a real number, got '0'"),
                           (None, "epoch must be a real number, got None")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InertialState(epoch, [1, 0, 0], [1, 0, 0])
    assert type(InertialState(np.float64(2), [1, 0, 0], [1, 0, 0]).epoch) is float
    state = InertialState(0.0, np.array([1, 0, 0]), [np.float64(1), 0, 0])
    assert state.position == state.velocity == (1.0, 0.0, 0.0)
    assert {type(v) for v in state.position + state.velocity} == {float}


def test_inertial_state_copies_and_changes_are_checked():
    # _make, _replace (and __replace__, which copy.replace calls from Python
    # 3.13), pickle and copy all build through the constructor: each reads
    # its vectors as float triples and refuses a bad state
    state = InertialState(1.0, [R_CHIEF, 0, 0], [0, 7, 0])
    assert state == (1.0, (R_CHIEF, 0.0, 0.0), (0.0, 7.0, 0.0))
    for twin in (InertialState._make(state), copy.copy(state),
                 copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert type(twin) is InertialState and twin == state
    for replace in (InertialState._replace, InertialState.__replace__):
        twin = replace(state)
        assert type(twin) is InertialState and twin == state
        moved = replace(state, velocity=np.array([0, 6, 1]))
        assert moved.velocity == (0.0, 6.0, 1.0) and type(moved.velocity[0]) is float
        with pytest.raises(ValueError):
            replace(state, position=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            replace(state, velocity=(np.nan, 0.0, 0.0))
        with pytest.raises(TypeError, match="bogus"):
            replace(state, bogus=1)
    assert InertialState._make((1.0, [R_CHIEF, 0, 0], [0, 7, 0])) == state
    with pytest.raises(ValueError):
        InertialState._make((1.0, [1, 2], [0, 7, 0]))
    unchecked = tuple.__new__(InertialState, (1.0, (0.0, 0.0, 0.0), (0.0, 7.0, 0.0)))
    for rebuild in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        with pytest.raises(ValueError, match="position magnitude must be positive"):
            rebuild(unchecked)


def test_relative_state_vector_round_trip():
    # a RelativeState is its six components: np.array reads them in field
    # order and RelativeState(*s) builds the state back
    rel = RelativeState(1, 2, 3, 4, 5, 6)
    s = np.array(rel)
    assert_allclose(s, [1, 2, 3, 4, 5, 6])
    assert RelativeState(*s) == rel
