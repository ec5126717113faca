"""Hill (LVLH) frame construction and ECI <-> Hill state transforms.

The rotating relative frame is centered on the target satellite with axes

    i_r     radial (target position direction)
    i_theta along-track (completes the right-handed triad)
    i_h     cross-track (target angular-momentum direction)

Relative velocity is mapped with the transport theorem, so the transforms
are exact for any target state, not just circular orbits.  Units are km,
km/s, rad/s throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateOrbit, EpochMismatch

_EPOCH_TOL = 1e-9  # seconds


def _vec3(value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class InertialState:
    """Position and velocity of a satellite in the ECI frame.

    Attributes
    ----------
    epoch : float
        Seconds since campaign start.
    position : ndarray, shape (3,)
        ECI position, km.
    velocity : ndarray, shape (3,)
        ECI velocity, km/s.
    """

    epoch: float
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position))
        object.__setattr__(self, "velocity", _vec3(self.velocity))
        if not (np.isfinite(self.position).all() and np.isfinite(self.velocity).all()):
            raise ValueError("state components must be finite")
        if np.linalg.norm(self.position) == 0.0:
            raise ValueError("position magnitude must be positive")


@dataclass(frozen=True)
class RelativeState:
    """Chaser state relative to the target, in Hill axes.

    Components are (x, y, z) position in km along (radial, along-track,
    cross-track) and (vx, vy, vz) Hill-frame relative velocity in km/s.
    The target sits at the origin.
    """

    x: float
    y: float
    z: float
    vx: float
    vy: float
    vz: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz])

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.vx, self.vy, self.vz])

    @classmethod
    def from_vector(cls, s) -> "RelativeState":
        s = np.asarray(s, dtype=float)
        return cls(*s.tolist())


def hill_basis(target: InertialState) -> Tuple[np.ndarray, float]:
    """Construct the Hill frame from the target's inertial state.

    Parameters
    ----------
    target : InertialState
        Target (chief) state; must not be on a radial trajectory.

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
