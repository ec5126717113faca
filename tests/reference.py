"""The tests' independent references: general ECI <-> Hill transforms,
the CW equations in ODE form, and the specific angular momentum.

The program's transforms (``rpodsim.frames``) hold only for its circular
equatorial chief, whose Hill frame is a rotation about the pole.  These
build the Hill frame of any target state from r and v, and map relative
velocity with the transport theorem, so they share no arithmetic with the
program beyond the state types.  Tests apply them to
``chief_state(orbit, t)`` to check what the program flies.  Integrating
:func:`cw_derivative` checks the closed-form ``cw_stm``, and
:func:`specific_angular_momentum` checks that two-body coasts conserve h.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from rpodsim import InertialState, RelativeState

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
    r = target.position
    v = target.velocity
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
    rho = rotation @ (chaser.position - target.position)
    v = rotation @ (chaser.velocity - target.velocity)
    return RelativeState(
        rho[0], rho[1], rho[2], v[0] + w * rho[1], v[1] - w * rho[0], v[2]
    )


def hill_to_eci(target: InertialState, rel: RelativeState) -> InertialState:
    """Reconstruct the chaser's inertial state from a Hill-frame state.

    Exact algebraic inverse of :func:`eci_to_hill` at the target's epoch.
    """
    rotation, w = hill_basis(target)
    position = target.position + rotation.T @ rel.position
    velocity = target.velocity + rotation.T @ np.array(
        [rel.vx - w * rel.y, rel.vy + w * rel.x, rel.vz]
    )
    return InertialState(epoch=target.epoch, position=position, velocity=velocity)


def specific_angular_momentum(state: InertialState) -> float:
    """Magnitude of r x v, km^2/s."""
    return float(np.linalg.norm(np.cross(state.position, state.velocity)))


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
