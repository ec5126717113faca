"""State types and the Hill (LVLH) frame of the circular equatorial chief.

The rotating relative frame is centered on the target satellite with axes

    i_r     radial (target position direction)
    i_theta along-track (completes the right-handed triad)
    i_h     cross-track (target angular-momentum direction)

The chief flies a circular equatorial orbit (``dynamics.TargetOrbit``), so
its Hill frame at t is the ECI frame turned about the pole through its
phase theta = n t.  The transforms are exact for that chief; relative
velocity carries the frame term omega x rho = n (-y, x, 0).  Units are km,
km/s, rad/s throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:
    from .dynamics import TargetOrbit


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


def hill_basis(orbit: TargetOrbit, t: float) -> Tuple[float, float]:
    """(cos theta, sin theta) of the chief's phase theta = n t.

    The chief's Hill axes at t are i_r = (c, s, 0), i_theta = (-s, c, 0)
    and i_h = (0, 0, 1) in ECI: R_z(theta) applied to the ECI axes.
    """
    theta = orbit.n * t
    return math.cos(theta), math.sin(theta)


def hill_to_eci(orbit: TargetOrbit, t: float, rel: RelativeState) -> InertialState:
    """The chaser's inertial state at epoch t from its Hill-frame state.

    In the chief's frame at theta = 0 the chaser sits at (R + x, y, z) and
    moves at (vx - n y, V + vy + n x, vz), with R the chief's radius and V
    its circular speed; that state is turned through theta.
    """
    c, s = hill_basis(orbit, t)
    n = orbit.n
    px, py = orbit.radius + rel.x, rel.y
    qx, qy = rel.vx - n * rel.y, orbit.circular_speed + (rel.vy + n * rel.x)
    return InertialState(t, (c * px - s * py, s * px + c * py, rel.z),
                         (c * qx - s * qy, s * qx + c * qy, rel.vz))


def eci_to_hill(orbit: TargetOrbit, chaser: InertialState) -> RelativeState:
    """The chaser's Hill-frame state at its own epoch.

    Exact inverse of :func:`hill_to_eci`: the chief's state at the chaser's
    epoch is taken off, the rest is turned back through -theta, and the
    frame term omega x rho is taken off the velocity.
    """
    c, s = hill_basis(orbit, chaser.epoch)
    n, radius, speed = orbit.n, orbit.radius, orbit.circular_speed
    (px, py, pz), (qx, qy, qz) = chaser.position.tolist(), chaser.velocity.tolist()
    px, py, qx, qy = px - radius * c, py - radius * s, qx + speed * s, qy - speed * c
    x, y = c * px + s * py, -s * px + c * py
    return RelativeState(x, y, pz, c * qx + s * qy + n * y, -s * qx + c * qy - n * x, qz)
