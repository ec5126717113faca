"""The tests' independent references: general ECI <-> Hill transforms,
the CW equations in ODE form, the specific energy and angular momentum, the
lowest radius on a two-body arc, and a leg-by-leg campaign flight.

The program's transforms (``rpodsim.frames``) hold only for its circular
equatorial chief, whose Hill frame is a rotation about the pole.  These
build the Hill frame of any target state from r and v, and map relative
velocity with the transport theorem, so they share no arithmetic with the
program beyond the state types.  Tests apply them to
``dynamics.chief_state(orbit, t)`` to check what the program flies.
Integrating :func:`cw_derivative` checks the closed-form ``cw_stm``, and
:func:`specific_energy` and :func:`specific_angular_momentum` check that
two-body coasts conserve the energy and h.  :func:`lowest_radius` checks
the kernel's surface test with general-conic formulas that it does not use.
:func:`fly_every_leg`, which lives in ``pins.py`` so that the pins can fly
it without numpy, flies a campaign leg by leg with the program's own coasts
and targeting but no short cut, so the program's leg loop, which copies the
last m legs once a post-burn state has the bits of the one m legs before
it, can be held to it bit for bit.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from pins import fly_every_leg  # noqa: F401  (re-exported for the tests)
from rpodsim import MU_EARTH, InertialState, RelativeState

_EPOCH_TOL = 1e-9  # seconds


class DegenerateOrbit(Exception):
    """Raised when a state has no well-defined orbital frame (r x v ~ 0)."""


class EpochMismatch(Exception):
    """Raised when two states expected at a common epoch disagree."""


def hill_basis(target: InertialState) -> Tuple[np.ndarray, float]:
    """Construct the Hill frame from the target's inertial state.

    Returns
    -------
    rotation : ndarray, shape (3, 3)
        Rows (i_r, i_theta, i_h) expressed in ECI, so ``rotation @ u`` maps
        an ECI vector u into Hill components.
    rate : float
        The frame's rotation rate h / r^2, rad/s.  Its angular velocity lies
        on the cross-track axis: omega = (0, 0, rate) in Hill axes.

    Raises
    ------
    DegenerateOrbit
        If ``r x v`` vanishes and the frame is undefined.
    """
    r = np.asarray(target.position)
    v = np.asarray(target.velocity)
    rn = np.linalg.norm(r)
    h_vec = np.cross(r, v)
    hn = np.linalg.norm(h_vec)
    if hn <= 1e-12 * rn * max(np.linalg.norm(v), 1.0):
        raise DegenerateOrbit("r x v is zero: Hill frame undefined")

    i_r = r / rn
    i_h = h_vec / hn
    i_theta = np.cross(i_h, i_r)
    rotation = np.vstack((i_r, i_theta, i_h))
    return rotation, hn / rn**2


def eci_to_hill(target: InertialState, chaser: InertialState) -> RelativeState:
    """Express the chaser state relative to the target in Hill axes.

    The relative velocity uses the transport theorem,
    ``v_rel = R (v_c - v_t) - omega x rho``, where R rotates ECI vectors
    into the Hill frame and omega x rho = rate * (-rho_y, rho_x, 0).

    Raises
    ------
    EpochMismatch
        If the two states are not at the same epoch.
    DegenerateOrbit
        Propagated from :func:`hill_basis`.
    """
    if abs(target.epoch - chaser.epoch) > _EPOCH_TOL:
        raise EpochMismatch(
            f"target epoch {target.epoch} != chaser epoch {chaser.epoch}"
        )
    rotation, w = hill_basis(target)
    rho = rotation @ np.subtract(chaser.position, target.position)
    v = rotation @ np.subtract(chaser.velocity, target.velocity)
    return RelativeState(
        rho[0], rho[1], rho[2], v[0] + w * rho[1], v[1] - w * rho[0], v[2]
    )


def hill_to_eci(target: InertialState, rel: RelativeState) -> InertialState:
    """Reconstruct the chaser's inertial state from a Hill-frame state.

    Exact algebraic inverse of :func:`eci_to_hill` at the target's epoch.
    """
    rotation, w = hill_basis(target)
    position = np.asarray(target.position) + rotation.T @ np.array(rel[:3])
    velocity = np.asarray(target.velocity) + rotation.T @ np.array(
        [rel.vx - w * rel.y, rel.vy + w * rel.x, rel.vz]
    )
    return InertialState(epoch=target.epoch, position=position, velocity=velocity)


def specific_energy(state: InertialState) -> float:
    """Specific orbital energy v^2/2 - MU_EARTH/r, km^2/s^2."""
    u, v, w = state.velocity
    return 0.5 * (u * u + v * v + w * w) - MU_EARTH / math.hypot(*state.position)


def specific_angular_momentum(state: InertialState) -> float:
    """Magnitude of r x v, km^2/s."""
    return float(np.linalg.norm(np.cross(np.asarray(state.position), np.asarray(state.velocity))))


def lowest_radius(state: InertialState, duration: float, end_radius: float) -> float:
    """Lowest radius on a bound two-body coast of ``duration`` s from ``state``
    that ends at ``end_radius``, by the general-conic formulas.

    The arc passes periapsis if it lasts at least the time from the start to
    the next periapsis, from the mean anomaly M0 = E0 - e sin E0; its lowest
    radius is then h^2 / (MU_EARTH (1 + e)), from the angular-momentum and
    eccentricity vectors, and otherwise the lower end radius (r is monotone
    between apsides).
    """
    r, v = np.asarray(state.position), np.asarray(state.velocity)
    rn, rv, v2 = np.linalg.norm(r), r @ v, v @ v
    alpha = 2.0 / rn - v2 / MU_EARTH
    period = 2.0 * math.pi / (math.sqrt(MU_EARTH) * alpha * math.sqrt(alpha))
    e_sin = rv / math.sqrt(MU_EARTH) * math.sqrt(alpha)
    mean0 = math.atan2(e_sin, 1.0 - alpha * rn) - e_sin
    if duration < (-mean0) % (2.0 * math.pi) / (2.0 * math.pi) * period:
        return min(rn, end_radius)
    h = np.cross(r, v)
    ecc = ((v2 - MU_EARTH / rn) * r - rv * v) / MU_EARTH
    return float(h @ h / (MU_EARTH * (1.0 + np.linalg.norm(ecc))))


def cw_derivative(rel: RelativeState, n: float) -> np.ndarray:
    """Uncontrolled CW equations of relative motion.

        x'' - 3 n^2 x - 2 n y' = 0
        y'' + 2 n x'           = 0
        z'' + n^2 z            = 0

    Returns the 6-vector state derivative.
    """
    ax = 3.0 * n**2 * rel.x + 2.0 * n * rel.vy
    ay = -2.0 * n * rel.vx
    az = -(n**2) * rel.z
    return np.array([rel.vx, rel.vy, rel.vz, ax, ay, az])

