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

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Sequence

Vec3 = tuple[float, float, float]


def _reals(name: str, value, size: int) -> tuple[float, ...]:
    """``value`` as ``size`` floats, each read by :func:`_real` as ``name[i]``; else ValueError."""
    if isinstance(value, (str, bytes)):  # characters, not numbers
        raise ValueError(f"{name} must be {size} numbers, got {value!r}")
    try:
        items = tuple(itertools.islice(value, size + 1))  # so an endless iterable ends
    except TypeError:  # a scalar or None
        raise ValueError(f"{name} must be {size} numbers, got {value!r}") from None
    if len(items) != size:
        raise ValueError(f"{name} must be {size} numbers, got {len(items)}"
                         + " or more" * (len(items) > size))
    return tuple(_real(f"{name}[{i}]", v) for i, v in enumerate(items))


def _whole(name: str, value) -> int:
    """``value`` as an int, for any integer type (numpy's too); else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """``value`` as a finite float, for any real type (numpy's too); else ValueError."""
    try:
        if math.isfinite(value):
            return float(value)
    except TypeError:
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int beyond double range
        raise ValueError(f"{name} must be finite, got an int beyond double range") from None
    raise ValueError(f"{name} must be finite, got {value}")


def _checked(name: str, fields: str, inputs: int | None = None) -> type:
    """``namedtuple(name, fields)`` whose ``_make``, ``_replace``, ``copy.replace``, pickle and
    copy all pass the first ``inputs`` fields (all by default) to the subclass's ``__new__``:
    every constructor runs its checks, and a field it does not take is a TypeError."""
    base = namedtuple(name, fields)
    names = base._fields[:inputs]

    def _replace(self, /, **changes):
        return type(self)(**{**dict(zip(names, self)), **changes})

    base._make = classmethod(lambda cls, values: cls(*values))
    base._replace = base.__replace__ = _replace
    base.__getnewargs__ = lambda self: self[:len(names)]
    return base


class InertialState(_checked("_Inertial", "epoch position velocity")):
    """Position and velocity of a satellite in the ECI frame: the tuple
    (epoch, position, velocity).

    Attributes
    ----------
    epoch : float
        Seconds since campaign start.
    position : (float, float, float)
        ECI position, km.
    velocity : (float, float, float)
        ECI velocity, km/s.

    Every constructor (see :func:`_checked`) reads the epoch as a finite
    float and both vectors as float triples, and checks them.
    """

    __slots__ = ()

    def __new__(cls, epoch: float, position: Vec3, velocity: Vec3) -> "InertialState":
        position, velocity = _reals("position", position, 3), _reals("velocity", velocity, 3)
        _check_state(position, velocity)
        return tuple.__new__(cls, (_real("epoch", epoch), position, velocity))


def _check_state(position: Vec3, velocity: Vec3) -> None:
    """An inertial state's checks on its float triples: finite, with a nonzero position."""
    (x, y, z), (u, v, w) = position, velocity
    isfinite = math.isfinite
    if not (isfinite(x) and isfinite(y) and isfinite(z)
            and isfinite(u) and isfinite(v) and isfinite(w)):
        raise ValueError("state components must be finite")
    if not (x or y or z):
        raise ValueError("position magnitude must be positive")


class RelativeState(namedtuple("_Relative", "x y z vx vy vz")):
    """Chaser state relative to the target, in Hill axes.

    Components are (x, y, z) position in km along (radial, along-track,
    cross-track) and (vx, vy, vz) Hill-frame relative velocity in km/s.
    The target sits at the origin.
    """

    __slots__ = ()


def hill_basis(orbit: TargetOrbit, t: float) -> tuple[float, float]:
    """(cos theta, sin theta) of the chief's phase theta = n t.

    The chief's Hill axes at t are i_r = (c, s, 0), i_theta = (-s, c, 0)
    and i_h = (0, 0, 1) in ECI: R_z(theta) applied to the ECI axes.
    """
    theta = orbit.n * _real("epoch t", t)  # finite, since n < 1 rad/s
    return math.cos(theta), math.sin(theta)


def _to_eci(orbit: TargetOrbit, c: float, s: float, rel: Sequence[float]) -> tuple[Vec3, Vec3]:
    """The ECI position and velocity of six Hill floats, given the chief's (cos, sin) theta.

    In the chief's frame at theta = 0 the chaser sits at (R + x, y, z) and
    moves at (vx - n y, V + vy + n x, vz), with R the chief's radius and V
    its circular speed; that state is turned through theta.
    """
    x, y, z, vx, vy, vz = rel
    n = orbit.n
    px, py = orbit.radius + x, y
    qx, qy = vx - n * y, orbit.circular_speed + (vy + n * x)
    return (c * px - s * py, s * px + c * py, z), (c * qx - s * qy, s * qx + c * qy, vz)


def _to_hill(orbit: TargetOrbit, c: float, s: float, r: Vec3, v: Vec3) -> tuple[float, ...]:
    """The chaser's six Hill floats from its ECI floats, given the chief's (cos, sin) theta.

    Exact inverse of :func:`_to_eci`: the chief's state is taken off, the
    rest is turned back through -theta, and the frame term omega x rho is
    taken off the velocity.
    """
    n, radius, speed = orbit.n, orbit.radius, orbit.circular_speed
    (px, py, pz), (qx, qy, qz) = r, v
    px, py, qx, qy = px - radius * c, py - radius * s, qx + speed * s, qy - speed * c
    x, y = c * px + s * py, -s * px + c * py
    return x, y, pz, c * qx + s * qy + n * y, -s * qx + c * qy - n * x, qz


def hill_to_eci(orbit: TargetOrbit, t: float, rel: RelativeState) -> InertialState:
    """The chaser's inertial state at epoch t from its Hill-frame state."""
    return InertialState(t, *_to_eci(orbit, *hill_basis(orbit, t), _reals("rel", rel, 6)))


def eci_to_hill(orbit: TargetOrbit, chaser: InertialState) -> RelativeState:
    """The chaser's Hill-frame state at its own epoch: the inverse of :func:`hill_to_eci`."""
    return RelativeState._make(
        _to_hill(orbit, *hill_basis(orbit, chaser.epoch), chaser.position, chaser.velocity))
