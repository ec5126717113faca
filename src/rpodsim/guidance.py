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
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .dynamics import cw_stm
from .errors import SingularTransferTime
from .frames import RelativeState

_DET_RTOL = 1e-12


@dataclass(frozen=True)
class ImpulseRecord:
    """A time-stamped instantaneous velocity change in Hill axes."""

    t: float
    dv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dv", np.asarray(self.dv, dtype=float))

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.dv))


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
    return 8.0 * (1.0 - np.cos(theta)) - 3.0 * theta * np.sin(theta)


def cw_targeting(n: float, ts: float) -> Tuple[np.ndarray, np.ndarray]:
    """The CW targeting law for transfers of length ts: the blocks (A, B).

    A and B are the in-plane position/position and position/velocity
    blocks of the CW transition matrix over ts, so a departure from p0
    with in-plane velocity v0 arrives at A p0 + B v0.

    Raises
    ------
    SingularTransferTime
        When n*ts sits on a zero of the targeting determinant.
    """
    if not 0.0 < ts < math.inf:
        raise ValueError("transfer time must be positive")
    theta = n * ts
    det = drift_determinant(theta)
    # theta * theta reaches inf on absurd windows where theta**2 would raise;
    # a non-finite n gives a NaN det, which fails the >= and is rejected
    if not abs(det) >=_DET_RTOL * max(1.0, theta * theta):
        raise SingularTransferTime(
            f"transfer angle n*ts = {theta:.6g} rad is a targeting singularity"
        )
    stm = cw_stm(n, ts)
    return stm[:2, :2], stm[:2, 3:5]


def cw_target_impulse(
    rel_now: RelativeState, target: Sequence[float], t: float,
    law: Tuple[np.ndarray, np.ndarray],
) -> Tuple[ImpulseRecord, Tuple[float, float]]:
    """Single-impulse transfer to an in-plane target under a targeting law.

    Solves the 2x2 linear system  B v0+ = p_f - A p0  for the departure
    velocity v0+, where ``law = (A, B)`` comes from :func:`cw_targeting`.
    The impulse, stamped ``t``, is the in-plane velocity change v0+ - v0-;
    the cross-track channel is left untouched.

    Returns
    -------
    (ImpulseRecord, (vx_plus, vy_plus))
        The impulse and the post-impulse in-plane velocity.
    """
    a, b = law
    p0 = np.array([rel_now.x, rel_now.y])
    v_plus = np.linalg.solve(b, np.array(target) - a @ p0)
    dv = np.array([v_plus[0] - rel_now.vx, v_plus[1] - rel_now.vy, 0.0])
    return ImpulseRecord(t=t, dv=dv), (float(v_plus[0]), float(v_plus[1]))


def _check_count(count: int, minimum: int) -> None:
    if count < minimum:
        raise ValueError(f"need at least {minimum} waypoints, got {count}")


Point = Tuple[float, float]


def waypoints_circle(radius: float, count: int) -> List[Point]:
    """``count`` points on a target-centered circle, uniformly spaced in
    angle and traversed clockwise.

    The clockwise (x toward -y) direction matches the rotation sense of an
    NMC with positive radial offset, keeping the forced and unforced shapes
    kinematically comparable.
    """
    _check_count(count, 3)
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive")
    phis = [-2.0 * np.pi * k / count for k in range(count)]
    return [(radius * np.cos(phi), radius * np.sin(phi)) for phi in phis]


def waypoints_nmc(x0: float, count: int) -> List[Point]:
    """``count`` points at uniform phase steps around the closed CW NMC
    ellipse, starting from (x0, 0).

    Positions follow the closed-form CW solution seeded by
    :func:`nmc_initial_state`: x = x0 cos(nt), y = -2 x0 sin(nt).
    """
    _check_count(count, 3)
    if not 0.0 < abs(x0) < math.inf:
        raise ValueError("NMC offset x0 must be nonzero")
    nts = [2.0 * np.pi * k / count for k in range(count)]
    return [(x0 * np.cos(nt), -2.0 * x0 * np.sin(nt)) for nt in nts]


def waypoints_line(start, end, count: int) -> List[Point]:
    """``count`` points uniformly spaced along a segment, endpoints inclusive."""
    _check_count(count, 2)
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
    if not np.isfinite([p0, p1]).all():
        raise ValueError("line endpoints must be finite")
    fs = [k / (count - 1) for k in range(count)]
    return [tuple((1.0 - f) * p0 + f * p1) for f in fs]
