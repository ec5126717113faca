import numpy as np
import pytest
from numpy.testing import assert_allclose

from rpodsim import (
    DegenerateOrbit,
    EpochMismatch,
    InertialState,
    RelativeState,
    TargetOrbit,
    chief_state,
    eci_to_hill,
    hill_basis,
    hill_to_eci,
    nmc_initial_state,
)
from rpodsim.constants import MU_EARTH

R_CHIEF = 8378.137
VC = np.sqrt(MU_EARTH / R_CHIEF)
N_CHIEF = np.sqrt(MU_EARTH / R_CHIEF**3)


def circular_state(phase, epoch=0.0, radius=R_CHIEF):
    vc = np.sqrt(MU_EARTH / radius)
    c, s = np.cos(phase), np.sin(phase)
    return InertialState(
        epoch=epoch,
        position=np.array([radius * c, radius * s, 0.0]),
        velocity=np.array([-vc * s, vc * c, 0.0]),
    )


def test_basis_axis_aligned():
    rotation, _ = hill_basis(circular_state(0.0))
    assert_allclose(rotation[0], [1, 0, 0], atol=1e-15)
    assert_allclose(rotation[1], [0, 1, 0], atol=1e-15)
    assert_allclose(rotation[2], [0, 0, 1], atol=1e-15)


def test_basis_quarter_orbit():
    rotation, _ = hill_basis(circular_state(np.pi / 2))
    assert_allclose(rotation[0], [0, 1, 0], atol=1e-15)
    assert_allclose(rotation[1], [-1, 0, 0], atol=1e-15)
    assert_allclose(rotation[2], [0, 0, 1], atol=1e-15)


def test_basis_45_degrees_matches_plane_rotation():
    # at 45 deg in-plane phase the basis is the explicit rotation about k-hat
    rotation, _ = hill_basis(circular_state(np.pi / 4))
    c = s = np.sqrt(0.5)
    expected = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    assert_allclose(rotation, expected, atol=1e-15)


def test_basis_degenerate_orbit():
    radial = InertialState(0.0, [R_CHIEF, 0, 0], [1.0, 0, 0])
    with pytest.raises(DegenerateOrbit):
        hill_basis(radial)


def test_circular_orbit_angular_velocity():
    _, rate = hill_basis(circular_state(1.2345))
    assert rate == pytest.approx(N_CHIEF, rel=1e-12)


def test_cross_track_axis_is_momentum_direction():
    state = circular_state(0.77)
    h = np.cross(state.position, state.velocity)
    rotation, _ = hill_basis(state)
    assert_allclose(rotation[2], h / np.linalg.norm(h), atol=1e-15)


def test_coincident_satellites_give_zero_relative_state():
    target = circular_state(0.3)
    rel = eci_to_hill(target, target)
    assert_allclose(rel.vector, 0.0, atol=1e-15)


def test_epoch_mismatch_rejected():
    target = circular_state(0.0, epoch=0.0)
    chaser = circular_state(0.0, epoch=10.0)
    with pytest.raises(EpochMismatch):
        eci_to_hill(target, chaser)


def test_transport_theorem_coplanar_ray_offset():
    # chaser on the same ray at R + delta with its own circular speed:
    # x = delta and vy = vc(R+delta) - vc(R) - n*delta (transport term).
    delta = 1.0
    target = circular_state(0.0)
    chaser = circular_state(0.0, radius=R_CHIEF + delta)
    rel = eci_to_hill(target, chaser)
    assert_allclose(rel.x, delta, atol=1e-12)
    assert_allclose([rel.y, rel.z], 0.0, atol=1e-12)
    # independently evaluated oracle for the along-track rate
    assert_allclose(rel.vy, -0.0012348835412202485, rtol=1e-12)
    assert_allclose([rel.vx, rel.vz], 0.0, atol=1e-15)


def test_zero_relative_state_returns_target():
    target = circular_state(2.0)
    chaser = hill_to_eci(target, RelativeState(0, 0, 0, 0, 0, 0))
    assert_allclose(chaser.position, target.position, atol=1e-15)
    assert_allclose(chaser.velocity, target.velocity, atol=1e-18)


def test_nmc_insertion_round_trip():
    orbit = TargetOrbit.from_altitude(2000.0)
    target = chief_state(orbit, 0.0)
    rel = nmc_initial_state(1.0, orbit.n)
    back = eci_to_hill(target, hill_to_eci(target, rel))
    assert_allclose(back.vector, rel.vector, atol=1e-12)


def test_round_trip_property_random_states():
    # both composition orders must be identities for separations < 500 km;
    # velocity floor is set by one ulp of the chief speed (~9e-16 km/s)
    rng = np.random.default_rng(2024)
    orbit = TargetOrbit.from_altitude(2000.0)
    for _ in range(1000):
        target = chief_state(orbit, rng.uniform(0.0, orbit.period))
        rel = RelativeState(*rng.uniform(-250, 250, 3), *rng.uniform(-0.3, 0.3, 3))
        chaser = hill_to_eci(target, rel)
        back = eci_to_hill(target, chaser)
        assert np.max(np.abs(back.position - rel.position)) < 1e-12
        assert np.max(np.abs(back.velocity - rel.velocity)) < 2e-15
        chaser2 = hill_to_eci(target, back)
        assert np.max(np.abs(chaser2.position - chaser.position)) < 1e-12
        assert np.max(np.abs(chaser2.velocity - chaser.velocity)) < 2e-15


def test_orthonormality_property_random_states():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        position = rng.uniform(-1.0, 1.0, 3)
        position *= rng.uniform(6800, 50000) / np.linalg.norm(position)
        velocity = rng.uniform(-7, 7, 3)
        if np.linalg.norm(np.cross(position, velocity)) < 1e3:
            continue  # skip near-degenerate draws
        rot, _ = hill_basis(InertialState(0.0, position, velocity))
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_inertial_state_validation():
    with pytest.raises(ValueError):
        InertialState(0.0, [0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        InertialState(0.0, [np.nan, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        InertialState(0.0, [1, 2], [1, 0, 0])


def test_relative_state_vector_round_trip():
    rel = RelativeState(1, 2, 3, 4, 5, 6)
    assert_allclose(RelativeState.from_vector(rel.vector).vector, rel.vector)
