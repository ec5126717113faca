"""Impulsive guidance from the CW model.

Provides the natural-motion circumnavigation (NMC) insertion condition,
the CW targeting law for a transfer time and the in-plane two-point
boundary-value impulse solve under it, and waypoint-plan generators for
the trajectory shapes the simulator compares: the closed 2:1 relative
ellipse (unforced), a centered circle (forced), and a straight line
(forced intercept).  Plans are positions only; the campaign's leg loop
decides when each point is due.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

from .dynamics import cw_stm
from .errors import SingularTransferTime
from .frames import RelativeState, _whole

_DET_RTOL = 1e-12
# a 2x2 matrix as its entries in row-major order
Matrix2 = Tuple[float, float, float, float]


class Vector3(NamedTuple):
    """Three floats in Hill axes; a real number scales them from either side."""

    x: float
    y: float
    z: float

    def __mul__(self, k: float) -> "Vector3":
        return Vector3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__


class ImpulseRecord(NamedTuple("_Impulse", [("t", float), ("dv", Vector3), ("magnitude", float)])):
    """A time-stamped instantaneous velocity change in Hill axes: the tuple
    (t, dv, magnitude), whose magnitude every constructor derives from dv."""

    __slots__ = ()

    def __new__(cls, t: float, dv: Sequence[float]) -> "ImpulseRecord":
        if type(dv) is not Vector3:
            dv = Vector3(*map(float, dv))
        return tuple.__new__(cls, (t, dv, math.hypot(*dv)))

    def __getnewargs__(self):  # so pickle and copy rebuild it from (t, dv)
        return self[:2]

    def _replace(self, **changes) -> "ImpulseRecord":
        return ImpulseRecord(**{"t": self.t, "dv": self.dv, **changes})

    _make = classmethod(lambda cls, fields: cls(*fields))  # from (t, dv) only


def nmc_initial_state(x0: float, n: float) -> RelativeState:
    """Relative state that seeds a closed 2:1 NMC ellipse.

    The along-track rate y' = -2 n x0 cancels the secular drift of the CW
    solution, leaving a closed relative orbit of radial semi-axis |x0| and
    along-track semi-axis 2|x0|.

    Raises
    ------
    ValueError
        If x0 is 0 (the ellipse degenerates to the origin) or not finite.
    """
    if not 0.0 < abs(x0) < math.inf:
        raise ValueError("NMC offset x0 must be nonzero")
    if not 0.0 < n < math.inf:
        raise ValueError("mean motion must be positive")
    return RelativeState(x0, 0.0, 0.0, 0.0, -2.0 * n * x0, 0.0)


def drift_determinant(theta: float) -> float:
    """Dimensionless determinant of the in-plane targeting system.

    For a transfer angle theta = n*ts the position/velocity sub-matrix of
    the CW transition matrix has determinant (8(1-cos) - 3 theta sin)/n^2;
    this returns the dimensionless factor.  Zeros (whole revolutions at
    theta = 2 pi k, plus isolated interior roots) are transfer times for
    which the two-point problem is singular.
    """
    if not math.isfinite(theta):
        raise ValueError(f"transfer angle {theta} rad is not finite")
    return 8.0 * (1.0 - math.cos(theta)) - 3.0 * theta * math.sin(theta)


def cw_targeting(n: float, ts: float) -> Tuple[Matrix2, Matrix2]:
    """The CW targeting law for transfers of length ts: A and B^-1.

    A and B are the in-plane position/position and position/velocity
    blocks of the CW transition matrix over ts, so a departure from p0
    with in-plane velocity v0 arrives at A p0 + B v0.  B is inverted once,
    in closed form on its entries times n, which are dimensionless and so
    keep every product in double range.

    Raises
    ------
    SingularTransferTime
        When n*ts sits on a zero of the targeting determinant.
    """
    if not 0.0 < ts < math.inf:
        raise ValueError("transfer time must be positive")
    theta = n * ts
    # a NaN det (n not finite, or n * ts past double range) fails the >=;
    # theta * theta reaches inf on absurd windows where theta**2 would raise
    det = drift_determinant(theta) if math.isfinite(theta) else math.nan
    if not abs(det) >= _DET_RTOL * max(1.0, theta * theta):
        raise SingularTransferTime(
            f"transfer angle n*ts = {theta:.6g} rad is a targeting singularity"
        )
    (a00, a01, _, b00, b01, _), (a10, a11, _, b10, b11, _) = cw_stm(n, ts)[:2]
    b00, b01, b10, b11 = b00 * n, b01 * n, b10 * n, b11 * n
    k = n / (b00 * b11 - b01 * b10)
    return (a00, a01, a10, a11), (b11 * k, -b01 * k, -b10 * k, b00 * k)


def cw_target_impulse(
    rel_now: Sequence[float], target: Sequence[float], t: float,
    law: Tuple[Matrix2, Matrix2],
) -> Tuple[ImpulseRecord, Tuple[float, float]]:
    """Single-impulse transfer to an in-plane target under a targeting law.

    Solves the 2x2 linear system  B v0+ = p_f - A p0  for the departure
    velocity v0+, where ``law = (A, B^-1)`` comes from :func:`cw_targeting`.
    ``rel_now`` is any six Hill floats (x, y, z, vx, vy, vz), read by position.
    The impulse, stamped ``t``, is the in-plane velocity change v0+ - v0-;
    the cross-track channel is left untouched.

    Returns
    -------
    (ImpulseRecord, (vx_plus, vy_plus))
        The impulse and the post-impulse in-plane velocity.
    """
    (a00, a01, a10, a11), (i00, i01, i10, i11) = law
    x, y, _, u, v, _ = rel_now
    rx, ry = target[0] - (a00 * x + a01 * y), target[1] - (a10 * x + a11 * y)
    vx, vy = i00 * rx + i01 * ry, i10 * rx + i11 * ry
    dvx, dvy = vx - u, vy - v
    # tuple.__new__ builds each NamedTuple without its Python-level __new__
    return tuple.__new__(ImpulseRecord, (t, tuple.__new__(Vector3, (dvx, dvy, 0.0)),
                                         math.hypot(dvx, dvy, 0.0))), (vx, vy)


def _check_count(count: int, minimum: int) -> int:
    count = _whole("waypoint count", count)
    if count < minimum:
        raise ValueError(f"need at least {minimum} waypoints, got {count}")
    return count


Point = Tuple[float, float]


def waypoints_circle(radius: float, count: int) -> List[Point]:
    """``count`` points on a target-centered circle, uniformly spaced in
    angle and traversed clockwise.

    The clockwise (x toward -y) direction matches the rotation sense of an
    NMC with positive radial offset, keeping the forced and unforced shapes
    kinematically comparable.
    """
    count = _check_count(count, 3)
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive")
    phis = [-2.0 * math.pi * k / count for k in range(count)]
    return [(radius * math.cos(phi), radius * math.sin(phi)) for phi in phis]


def waypoints_nmc(x0: float, count: int) -> List[Point]:
    """``count`` points at uniform phase steps around the closed CW NMC
    ellipse, starting from (x0, 0).

    Positions follow the closed-form CW solution seeded by
    :func:`nmc_initial_state`: x = x0 cos(nt), y = -2 x0 sin(nt).
    """
    count = _check_count(count, 3)
    if not 0.0 < abs(x0) < math.inf:
        raise ValueError("NMC offset x0 must be nonzero")
    nts = [2.0 * math.pi * k / count for k in range(count)]
    return [(x0 * math.cos(nt), -2.0 * x0 * math.sin(nt)) for nt in nts]


def waypoints_line(start, end, count: int) -> List[Point]:
    """``count`` points uniformly spaced along a segment, endpoints inclusive."""
    count = _check_count(count, 2)
    (x0, y0), (x1, y1) = map(float, start), map(float, end)
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise ValueError("line endpoints must be finite")
    fs = [k / (count - 1) for k in range(count)]
    return [((1.0 - f) * x0 + f * x1, (1.0 - f) * y0 + f * y1) for f in fs]
