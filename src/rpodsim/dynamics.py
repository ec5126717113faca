"""Truth and guidance dynamics.

Two models live here:

* the restricted two-body problem (the truth model), whose coasts are
  solved in closed form (universal-variable Kepler equation with Lagrange
  f and g), and
* the Clohessy-Wiltshire (CW) linearized relative motion about a circular
  chief, in closed-form state-transition-matrix form.

Impulses are never integrated: they are velocity discontinuities applied
by the campaign layer between propagation segments.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence, Tuple

from .constants import MU_EARTH, R_EARTH
from .errors import KeplerNonConvergence, SingularRadius, UnboundOrbit
from .frames import Vec3, _check_state, _to_eci, _to_hill, hill_basis
from .frames import eci_to_hill  # noqa: F401  wrapped by perfbench/spans.py

# a placeholder for perfbench/spans.py's tracer, which raises on a name that
# does not resolve; nothing calls it, and ROADMAP step 1a deletes it
solve_ivp = None

# km; no chief orbit may lie, and no coast pass anywhere on its arc, below this
_SURFACE_RADIUS = R_EARTH
_KEPLER_MAX_ITER = 100
# relative size of the last Newton step; quadratic convergence leaves the
# root itself at rounding level
_KEPLER_RTOL = 1e-12
# km; the mean motion needs radius**3, which leaves double range above this
_MAX_RADIUS = sys.float_info.max ** (1.0 / 3.0)
_SQRT_MU = math.sqrt(MU_EARTH)


class TargetOrbit(NamedTuple("_Orbit", [("radius", float), ("n", float),
                                          ("circular_speed", float)])):
    """Circular chief orbit about the Earth, of radius above its surface, km:
    the tuple (radius, n, circular_speed).

    The mean motion n = sqrt(MU_EARTH / radius^3), rad/s, and the circular
    speed n * radius, km/s, are derived from the radius by every
    constructor, so they cannot drift out of consistency with it.
    """

    __slots__ = ()

    def __new__(cls, radius: float) -> "TargetOrbit":
        if not radius > _SURFACE_RADIUS:
            raise ValueError(f"orbit radius {radius:.6g} km is not above the Earth surface")
        if radius > _MAX_RADIUS:
            raise ValueError(f"orbit radius {radius} km is too large: its cube leaves "
                             f"double range above {_MAX_RADIUS:.3g} km")
        n = math.sqrt(MU_EARTH / radius**3)
        return tuple.__new__(cls, (radius, n, n * radius))

    def __getnewargs__(self):  # so pickle and copy rebuild it from the radius
        return self[:1]

    def _replace(self, **changes) -> "TargetOrbit":
        return TargetOrbit(**{"radius": self.radius, **changes})

    _make = classmethod(lambda cls, fields: cls(*fields))  # from (radius,) only

    @classmethod
    def from_altitude(cls, altitude: float) -> "TargetOrbit":
        return cls(radius=R_EARTH + altitude)

    @property
    def period(self) -> float:
        """Orbital period 2*pi/n, s."""
        return 2.0 * math.pi / self.n


# Taylor coefficients of C and S, (-1)^k / (2k+2)! and (-1)^k / (2k+3)!, k = 0..5
_C0, _C1, _C2, _C3, _C4, _C5 = ((-1) ** k / math.factorial(2 * k + 2) for k in range(6))
_S0, _S1, _S2, _S3, _S4, _S5 = ((-1) ** k / math.factorial(2 * k + 3) for k in range(6))


def _stumpff(z: float) -> Tuple[float, float]:
    """Stumpff functions C(z) = (1 - cos q) / q^2 and S(z) = (q - sin q) / q^3,
    q = sqrt(z), for z >= 0.

    Near z = 0 both closed forms cancel catastrophically, so a Taylor series
    is used there, by Horner's rule; its first omitted term is about 1e-17
    at z = 0.1.
    """
    if z < 0.1:
        return ((((((_C5 * z + _C4) * z + _C3) * z + _C2) * z + _C1) * z + _C0),
                (((((_S5 * z + _S4) * z + _S3) * z + _S2) * z + _S1) * z + _S0))
    q = math.sqrt(z)
    return 2.0 * math.sin(0.5 * q) ** 2 / z, (q - math.sin(q)) / (q * z)


def _coast(r0: Vec3, v0: Vec3, duration: float) -> Tuple[Vec3, Vec3]:
    """End position and velocity of an unforced coast of duration >= 0 s
    about the Earth, checked against the surface over its whole arc; a start
    at or above the escape speed raises UnboundOrbit.

    Universal-variable formulation (Curtis, *Orbital Mechanics for
    Engineering Students*, Alg. 3.3-3.4; Vallado, KEPLER): Newton's method
    on the universal anomaly chi, then the Lagrange coefficients f, g,
    f-dot, g-dot map (r0, v0) to the end.  The lowest radius on the arc is
    exact: the periapsis radius a (1 - e) if the arc passes periapsis, else
    the smaller end radius (r is monotone between apsides).
    """
    (x, y, z0), (u, v, w) = r0, v0
    rn0 = math.hypot(x, y, z0)
    rv, v2 = x * u + y * v + z0 * w, u * u + v * v + w * w
    # sigma = (r . v) / sqrt(mu); alpha = 1/a, positive on a bound orbit
    sigma0 = rv / _SQRT_MU
    alpha = 2.0 / rn0 - v2 / MU_EARTH
    if alpha <= 0.0:
        raise UnboundOrbit(
            f"chaser at radius {rn0:.6g} km moves at {math.sqrt(v2):.6g} km/s, at or "
            f"above the escape speed {math.sqrt(2.0 * MU_EARTH / rn0):.6g} km/s"
        )
    root = math.sqrt(alpha)
    if alpha * root == 0.0:
        raise KeplerNonConvergence(
            f"orbit through radius {rn0:.6g} km leaves double-precision range")
    # e cos E0 and e sin E0, E0 the eccentric anomaly at the start
    k, e_sin = 1.0 - alpha * rn0, sigma0 * root
    period = 2.0 * math.pi / (_SQRT_MU * alpha * root)
    dt = math.fmod(duration, period)
    if dt == 0.0:
        position, velocity, rn, chi = r0, v0, rn0, 0.0
    else:
        # chi after dt (0 < dt < period), by Newton's method inside a bracket
        # [lo, hi], falling back to bisection when a step would leave the
        # bracket or fails to halve the last step, so a poor start cannot
        # diverge; the residual rises monotonically in chi (its derivative
        # is the radius)
        mu_dt = _SQRT_MU * dt
        lo = 0.0
        # dt < period, so the eccentric anomaly advances less than 2 pi
        hi = 2.0 * math.pi / root
        # Curtis's starting guess, kept inside the bracket
        chi = min(_SQRT_MU * alpha * dt, 0.5 * hi) or 0.5 * hi
        last_step = hi - lo
        for _ in range(_KEPLER_MAX_ITER):
            z = alpha * chi * chi
            c, s = _stumpff(z)
            residual = sigma0 * chi * chi * c + k * chi * chi * chi * s + rn0 * chi - mu_dt
            radius = sigma0 * chi * (1.0 - z * s) + k * chi * chi * c + rn0
            if not (math.isfinite(residual) and math.isfinite(radius)):
                raise KeplerNonConvergence(f"coast of {dt:.6g} s leaves double-precision range")
            if residual == 0.0:
                break
            if residual < 0.0:
                lo = chi
            else:
                hi = chi
            step = residual / radius
            if abs(step) <= _KEPLER_RTOL * chi:
                chi -= step
                break
            if lo < chi - step < hi and abs(step) <= 0.5 * abs(last_step):
                chi -= step
                last_step = step
            else:
                last_step = 0.5 * (hi - lo)
                chi = lo + last_step
                if last_step <= _KEPLER_RTOL * chi:
                    break
        else:
            raise KeplerNonConvergence(
                f"universal Kepler solve for dt={dt:.6g} s did not converge in "
                f"{_KEPLER_MAX_ITER} iterations"
            )
        z = alpha * chi * chi
        c, s = _stumpff(z)
        f = 1.0 - chi * chi * c / rn0
        g = dt - chi * chi * chi * s / _SQRT_MU
        position = px, py, pz = f * x + g * u, f * y + g * v, f * z0 + g * w
        rn = math.hypot(px, py, pz)
        fdot = _SQRT_MU * chi * (z * s - 1.0) / (rn * rn0)
        gdot = 1.0 - chi * chi * c / rn
        velocity = fdot * x + gdot * u, fdot * y + gdot * v, fdot * z0 + gdot * w
    # no arc goes below periapsis, a (1 - e); one that ends short of it (in
    # its first period, with the eccentric anomaly E0 + chi sqrt(alpha) below
    # 2 pi) goes no lower than its lower end
    lowest = (1.0 - math.hypot(k, e_sin)) / alpha
    if lowest < _SURFACE_RADIUS and duration < period and (
            math.atan2(e_sin, k) % (2.0 * math.pi) + chi * root < 2.0 * math.pi):
        lowest = min(rn0, rn)
    if lowest < _SURFACE_RADIUS:
        raise SingularRadius(
            f"coast reaches radius {lowest:.6g} km, below the "
            f"{_SURFACE_RADIUS:.6g} km floor"
        )
    return position, velocity


def two_body_coast(orbit: TargetOrbit, dt: float) -> Callable[[Sequence[float]], Tuple[float, ...]]:
    """Two-body motion over dt of a chaser's Hill state, the twin of :func:`cw_coast`.

    Two-body motion is invariant under rotation about the pole, so a leg
    flown from any epoch is the leg flown from 0 turned with the chief's
    frame: the chaser is lifted at theta = 0, coasted, and read back in the
    frame at dt, whose basis is read once.  Each leg, of any dt >= 0, is
    ``hill_to_eci(orbit, 0.0, rel)`` coasted by ``_coast`` for dt and read
    back by ``eci_to_hill`` at dt, operation for operation, with an
    InertialState's checks at both ends, but builds no InertialState and no RelativeState.  Like the CW coast it takes any six floats and
    returns a plain tuple of six floats.  ``rpodsim validate`` checks this
    leg: a co-orbital chaser must come back unchanged, and an NMC keep its
    energy.
    """
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"duration must be finite and non-negative, got {dt}")
    c, s = hill_basis(orbit, dt)

    def coast(rel: Sequence[float]) -> Tuple[float, ...]:
        position, velocity = _to_eci(orbit, 1.0, 0.0, rel)
        _check_state(position, velocity)
        position, velocity = _coast(position, velocity, dt)
        _check_state(position, velocity)
        return _to_hill(orbit, c, s, position, velocity)

    return coast


# ---------------------------------------------------------------------------
# Clohessy-Wiltshire model


def cw_stm(n: float, dt: float) -> Tuple[Tuple[float, ...], ...]:
    """Closed-form CW state-transition matrix, as six rows of floats.

    State order (x, y, z, vx, vy, vz).  The in-plane 4x4 couples (x, y)
    radial/along-track motion; the cross-track pair (z, vz) is an
    independent harmonic oscillator at the mean motion.
    """
    if not 0.0 < n < math.inf:
        raise ValueError("mean motion must be positive")
    if not math.isfinite(dt):
        raise ValueError(f"time step must be finite, got {dt}")
    n, nt = float(n), float(n * dt)  # so numpy scalars in give floats out
    if not math.isfinite(nt):
        raise ValueError(f"transfer angle n*dt = {nt} rad is not finite")
    c, s = math.cos(nt), math.sin(nt)
    return (
        # position rows
        (4.0 - 3.0 * c, 0.0, 0.0, s / n, 2.0 * (1.0 - c) / n, 0.0),
        (6.0 * (s - nt), 1.0, 0.0, 2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * nt) / n, 0.0),
        (0.0, 0.0, c, 0.0, 0.0, s / n),
        # velocity rows
        (3.0 * n * s, 0.0, 0.0, c, 2.0 * s, 0.0),
        (6.0 * n * (c - 1.0), 0.0, 0.0, -2.0 * s, 4.0 * c - 3.0, 0.0),
        (0.0, 0.0, -n * s, 0.0, 0.0, c),
    )


def cw_coast(n: float, dt: float) -> Callable[[Sequence[float]], Tuple[float, ...]]:
    """Uncontrolled CW motion over dt: any six floats in, a plain tuple of
    six floats out.

    The nonzero coefficients of :func:`cw_stm` are read out once (``ab``
    carries component b into a; u, v, w stand for vx, vy, vz), so a caller
    that coasts many legs of one length pays for the matrix once.
    """
    m = cw_stm(n, dt)
    (xx, _, _, xu, xv, _), (yx, yy, _, yu, yv, _), (_, _, zz, _, _, zw) = m[:3]
    (ux, _, _, uu, uv, _), (vx, _, _, vu, vv, _), (_, _, wz, _, _, ww) = m[3:]

    def coast(rel: Sequence[float]) -> Tuple[float, ...]:
        x, y, z, u, v, w = rel
        return (xx * x + xu * u + xv * v, yx * x + yy * y + yu * u + yv * v, zz * z + zw * w,
                ux * x + uu * u + uv * v, vx * x + vu * u + vv * v, wz * z + ww * w)

    return coast
