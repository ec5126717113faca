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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Tuple

from .constants import MU_EARTH, R_EARTH
from .errors import KeplerNonConvergence, SingularRadius
from .frames import InertialState, RelativeState, Vec3, _check_state, _to_eci, _to_hill, hill_basis
from .frames import eci_to_hill  # noqa: F401  wrapped by perfbench/spans.py

# km; no chief orbit may lie, and no coast pass anywhere on its arc, below this
_SURFACE_RADIUS = R_EARTH
_KEPLER_MAX_ITER = 100
# relative size of the last Newton step; quadratic convergence leaves the
# root itself at rounding level
_KEPLER_RTOL = 1e-12
# sinh/cosh overflow a double just above 710; an arc whose hyperbolic anomaly
# changes by more than this has left any physically meaningful range
_MAX_HYPERBOLIC_ANOMALY = 700.0
# km; the mean motion needs radius**3, which leaves double range above this
_MAX_RADIUS = sys.float_info.max ** (1.0 / 3.0)
_SQRT_MU = math.sqrt(MU_EARTH)


def __getattr__(name: str):
    """PEP 562: bind scipy's ``solve_ivp`` on its first look-up, never on import.

    Nothing here calls it; ``perfbench/spans.py`` looks it up to count
    integrator work. The binding goes once that tracer tolerates a name that
    does not resolve.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()[name] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TargetOrbit:
    """Circular chief orbit about the Earth, of radius above its surface, km.

    The mean motion and circular speed are derived from (MU_EARTH, radius)
    on first use and cached; the orbit is frozen, so they cannot drift out
    of consistency with it.
    """

    radius: float

    def __post_init__(self):
        if not self.radius > _SURFACE_RADIUS:
            raise ValueError(f"orbit radius {self.radius:.6g} km is not above the Earth surface")
        if self.radius > _MAX_RADIUS:
            raise ValueError(f"orbit radius {self.radius} km is too large: its cube leaves "
                             f"double range above {_MAX_RADIUS:.3g} km")

    @classmethod
    def from_altitude(cls, altitude: float) -> "TargetOrbit":
        return cls(radius=R_EARTH + altitude)

    @cached_property
    def n(self) -> float:
        """Mean motion sqrt(MU_EARTH / radius^3), rad/s."""
        return math.sqrt(MU_EARTH / self.radius**3)

    @property
    def period(self) -> float:
        """Orbital period 2*pi/n, s."""
        return 2.0 * math.pi / self.n

    @cached_property
    def circular_speed(self) -> float:
        return self.n * self.radius


def chief_state(orbit: TargetOrbit, t: float) -> InertialState:
    """Analytic chief state at time t.

    The chief's circular orbit is closed-form (uniform rotation in the
    equatorial plane), so the target carries no integration error and the
    relative-state readout isolates chaser-side effects.
    """
    theta = orbit.n * t
    c, s = math.cos(theta), math.sin(theta)
    r = orbit.radius
    v = orbit.circular_speed
    return InertialState(t, (r * c, r * s, 0.0), (-v * s, v * c, 0.0))


# Taylor coefficients of C and S, (-1)^k / (2k+2)! and (-1)^k / (2k+3)!,
# highest order first for Horner evaluation
_C_SERIES = tuple((-1) ** k / math.factorial(2 * k + 2) for k in range(5, -1, -1))
_S_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(5, -1, -1))


def _stumpff(z: float) -> Tuple[float, float]:
    """Stumpff functions C(z) = (1 - cos q) / q^2 and S(z) = (q - sin q) / q^3,
    q = sqrt(z), continued to z < 0 through cosh and sinh.

    Near z = 0 both closed forms cancel catastrophically, so a Taylor series
    is used there; its first omitted term is about 1e-17 at |z| = 0.1.
    """
    if abs(z) < 0.1:
        c = s = 0.0
        for a, b in zip(_C_SERIES, _S_SERIES):
            c = c * z + a
            s = s * z + b
        return c, s
    if z > 0.0:
        q = math.sqrt(z)
        return 2.0 * math.sin(0.5 * q) ** 2 / z, (q - math.sin(q)) / (q * z)
    q = math.sqrt(-z)
    if q > _MAX_HYPERBOLIC_ANOMALY:
        raise KeplerNonConvergence(
            f"hyperbolic anomaly change {q:.3g} exceeds {_MAX_HYPERBOLIC_ANOMALY:g}"
        )
    return 2.0 * math.sinh(0.5 * q) ** 2 / -z, (math.sinh(q) - q) / (q * -z)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class _KeplerCoast:
    """Unforced two-body motion about the Earth from one state, in closed form.

    Universal-variable formulation (Curtis, *Orbital Mechanics for
    Engineering Students*, Alg. 3.3-3.4; Vallado, KEPLER): Newton's method
    on the universal anomaly chi, then the Lagrange coefficients f, g,
    f-dot, g-dot map (r0, v0) to any later time.  The scalar work runs on
    Python floats, which per call is several times cheaper than numpy
    scalars at this size.
    """

    def __init__(self, r0: Vec3, v0: Vec3):
        self.r0, self.v0 = r0, v0
        self.rn0 = math.hypot(*r0)
        # sigma = (r . v) / sqrt(mu); alpha = 1/a (> 0 elliptic, < 0 hyperbolic)
        self.sigma0 = _dot(self.r0, self.v0) / _SQRT_MU
        self.alpha = 2.0 / self.rn0 - _dot(self.v0, self.v0) / MU_EARTH
        # e cos E0 on an ellipse, e cosh F0 on a hyperbola
        self.ecc_cos0 = 1.0 - self.alpha * self.rn0
        self.period = (
            2.0 * math.pi / (_SQRT_MU * self.alpha * math.sqrt(self.alpha))
            if self.alpha > 0.0
            else math.inf
        )

    def _kepler(self, chi: float, dt: float):
        """Residual of the universal Kepler equation, and its chi-derivative r."""
        z = self.alpha * chi * chi
        c, s = _stumpff(z)
        k = self.ecc_cos0
        residual = (
            self.sigma0 * chi * chi * c + k * chi * chi * chi * s + self.rn0 * chi
            - _SQRT_MU * dt
        )
        radius = self.sigma0 * chi * (1.0 - z * s) + k * chi * chi * c + self.rn0
        if not (math.isfinite(residual) and math.isfinite(radius)):
            raise KeplerNonConvergence(
                f"coast of {dt:.6g} s leaves double-precision range"
            )
        return residual, radius

    def _anomaly(self, dt: float) -> float:
        """Universal anomaly chi after dt (0 <= dt < period).

        Newton's method inside a bracket, falling back to bisection when a
        step would leave the bracket or fails to halve the last step, so a
        poor start cannot diverge.  The residual rises monotonically in chi
        (its derivative is the radius).
        """
        lo = 0.0
        if self.alpha > 0.0:
            # dt < period, so the eccentric anomaly advances less than 2 pi
            hi = 2.0 * math.pi / math.sqrt(self.alpha)
        else:
            # grow the bracket from at most one unit of hyperbolic anomaly,
            # so the search cannot overshoot into sinh/cosh overflow
            hi = _SQRT_MU * dt / self.rn0
            if self.alpha < 0.0:
                hi = min(hi, 1.0 / math.sqrt(-self.alpha))
            for _ in range(_KEPLER_MAX_ITER):
                if self._kepler(hi, dt)[0] >= 0.0:
                    break
                hi *= 2.0
            else:
                raise KeplerNonConvergence(f"no bracket for a coast of {dt:.6g} s")
        # Curtis's starting guess, kept inside the bracket
        chi = min(_SQRT_MU * abs(self.alpha) * dt, 0.5 * hi) or 0.5 * hi
        last_step = hi - lo
        for _ in range(_KEPLER_MAX_ITER):
            residual, radius = self._kepler(chi, dt)
            if residual == 0.0:
                return chi
            if residual < 0.0:
                lo = chi
            else:
                hi = chi
            step = residual / radius
            if abs(step) <= _KEPLER_RTOL * chi:
                return chi - step
            if lo < chi - step < hi and abs(step) <= 0.5 * abs(last_step):
                chi -= step
                last_step = step
            else:
                last_step = 0.5 * (hi - lo)
                chi = lo + last_step
                if last_step <= _KEPLER_RTOL * chi:
                    return chi
        raise KeplerNonConvergence(
            f"universal Kepler solve for dt={dt:.6g} s did not converge in "
            f"{_KEPLER_MAX_ITER} iterations"
        )

    def state(self, dt: float) -> Tuple[Vec3, Vec3, float]:
        """Position, velocity and radius dt seconds after the initial state."""
        dt = math.fmod(dt, self.period)
        if dt == 0.0:
            return self.r0, self.v0, self.rn0
        chi = self._anomaly(dt)
        z = self.alpha * chi * chi
        c, s = _stumpff(z)
        f = 1.0 - chi * chi * c / self.rn0
        g = dt - chi * chi * chi * s / _SQRT_MU
        (x, y, z0), (u, v, w) = self.r0, self.v0
        position = (f * x + g * u, f * y + g * v, f * z0 + g * w)
        rn = math.hypot(*position)
        fdot = _SQRT_MU * chi * (z * s - 1.0) / (rn * self.rn0)
        gdot = 1.0 - chi * chi * c / rn
        return position, (fdot * x + gdot * u, fdot * y + gdot * v, fdot * z0 + gdot * w), rn

    def lowest_radius(
        self, duration: float, end_position: Vec3, end_velocity: Vec3, rn1: float
    ) -> float:
        """Smallest radius reached over [0, duration], given the end state
        and its radius rn1.

        Exact: periapsis radius h^2 / (MU_EARTH (1 + e)) if the arc passes
        periapsis, else the smaller end radius (r is monotone between
        apsides).
        """
        if duration >= self.period:
            passes = True
        elif self.alpha > 0.0:
            # time from the start to the next periapsis, from the mean
            # anomaly M0 = E0 - e sin E0, with e sin E0 = sigma0 sqrt(alpha)
            e_sin = self.sigma0 * math.sqrt(self.alpha)
            mean0 = math.atan2(e_sin, self.ecc_cos0) - e_sin
            to_periapsis = (-mean0) % (2.0 * math.pi) / (2.0 * math.pi) * self.period
            passes = duration >= to_periapsis
        else:
            # r . v rises monotonically on an open orbit
            passes = self.sigma0 < 0.0 <= _dot(end_position, end_velocity)
        if not passes:
            return min(self.rn0, rn1)
        r, v = self.r0, self.v0
        h = (
            r[1] * v[2] - r[2] * v[1],
            r[2] * v[0] - r[0] * v[2],
            r[0] * v[1] - r[1] * v[0],
        )
        radial = _dot(v, v) - MU_EARTH / self.rn0
        rv = _dot(r, v)
        ecc = [(radial * a - rv * b) / MU_EARTH for a, b in zip(r, v)]
        return _dot(h, h) / (MU_EARTH * (1.0 + math.hypot(*ecc)))


def _coast(r0: Vec3, v0: Vec3, duration: float) -> Tuple[Vec3, Vec3]:
    """End position and velocity of a coast of duration > 0 s, checked against the surface."""
    coast = _KeplerCoast(r0, v0)
    position, velocity, radius = coast.state(duration)
    lowest = coast.lowest_radius(duration, position, velocity, radius)
    if lowest < _SURFACE_RADIUS:
        raise SingularRadius(
            f"coast reaches radius {lowest:.6g} km, below the "
            f"{_SURFACE_RADIUS:.6g} km floor"
        )
    return position, velocity


def propagate_two_body(initial: InertialState, duration: float) -> InertialState:
    """Coast on a two-body orbit about the Earth for ``duration`` seconds (>= 0).

    The coast is solved in closed form (universal-variable Kepler equation
    with Lagrange f and g), so its cost does not grow with the duration.
    The end state's epoch is advanced by ``duration``.  Raises SingularRadius
    if the coast passes below the Earth's surface anywhere on its arc, not
    only at its end, and KeplerNonConvergence if its Kepler solve does not
    converge or leaves double-precision range.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    if duration == 0.0:
        return InertialState(initial.epoch, initial.position, initial.velocity)
    position, velocity = _coast(initial.position, initial.velocity, duration)
    return InertialState(initial.epoch + float(duration), position, velocity)


def two_body_coast(orbit: TargetOrbit, dt: float) -> Callable[[RelativeState], RelativeState]:
    """Two-body motion over dt of a chaser's Hill state, the twin of :func:`cw_coast`.

    Two-body motion is invariant under rotation about the pole, so a leg
    flown from any epoch is the leg flown from 0 turned with the chief's
    frame: the chaser is lifted at theta = 0, coasted, and read back in the
    frame at dt, whose basis is read once.  Each leg is ``eci_to_hill(orbit,
    propagate_two_body(hill_to_eci(orbit, 0.0, rel), dt))`` operation for
    operation, with its checks, but builds no InertialState.
    """
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"duration must be finite and non-negative, got {dt}")
    c, s = hill_basis(orbit, dt)

    def coast(rel: RelativeState) -> RelativeState:
        position, velocity = _to_eci(orbit, 1.0, 0.0, rel)
        _check_state(position, velocity)
        if dt:
            position, velocity = _coast(position, velocity, dt)
            _check_state(position, velocity)
        return _to_hill(orbit, c, s, position, velocity)

    return coast


def specific_energy(state: InertialState) -> float:
    """Specific orbital energy v^2/2 - MU_EARTH/r, km^2/s^2."""
    return 0.5 * _dot(state.velocity, state.velocity) - MU_EARTH / math.hypot(*state.position)


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


def cw_coast(n: float, dt: float) -> Callable[[RelativeState], RelativeState]:
    """Uncontrolled CW motion over dt, as float arithmetic on a state.

    The nonzero coefficients of :func:`cw_stm` are read out once (``ab``
    carries component b into a; u, v, w stand for vx, vy, vz), so a caller
    that coasts many legs of one length pays for the matrix once.
    """
    m = cw_stm(n, dt)
    (xx, _, _, xu, xv, _), (yx, yy, _, yu, yv, _), (_, _, zz, _, _, zw) = m[:3]
    (ux, _, _, uu, uv, _), (vx, _, _, vu, vv, _), (_, _, wz, _, _, ww) = m[3:]

    def coast(rel: RelativeState) -> RelativeState:
        x, y, z, u, v, w = rel
        return RelativeState(xx * x + xu * u + xv * v, yx * x + yy * y + yu * u + yv * v,
                             zz * z + zw * w, ux * x + uu * u + uv * v,
                             vx * x + vu * u + vv * v, wz * z + ww * w)

    return coast


def propagate_cw(rel: RelativeState, n: float, dt: float) -> RelativeState:
    """Uncontrolled CW propagation by the closed-form transition matrix."""
    return cw_coast(n, dt)(rel)
