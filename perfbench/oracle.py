"""Reference Δv per campaign, computed without the program.

The oracle flies each expected campaign with its own code, written from the
campaign conventions in ``rpodsim.campaign`` but sharing none of the
program's functions: the chief is a circular equatorial orbit in closed
form, the Hill frame of such a chief is a rotation about the pole at the
mean motion, CW targeting is the in-plane 2x2 boundary-value solve by
Cramer's rule, and a CW coast is the closed-form in-plane solution.  Under
two-body truth each coast is integrated by DOP853 at rtol 2.3e-14 (pure
relative error control), against the program's RK45 at 1e-12.

So a change anywhere in the program's guidance, frames, chief state or
propagators that moves a total shows as a difference from this reference,
on every seed.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from workloads import Row

MU_EARTH = 398600.4418  # km^3/s^2, WGS-84
R_EARTH = 6378.137  # km, WGS-84 equatorial radius

RTOL = 2.3e-14  # just above scipy's floor of 100 * machine epsilon
ATOL = 1e-30  # in-plane coasts: only z and vz are small, and they stay exactly 0

Vec2 = Tuple[float, float]


class Chief:
    """Circular equatorial chief orbit at one altitude."""

    def __init__(self, altitude_km: float):
        self.radius = R_EARTH + altitude_km
        self.n = math.sqrt(MU_EARTH / self.radius**3)
        self.period = 2.0 * math.pi / self.n
        self.speed = self.n * self.radius

    def _axes(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Radial and along-track unit vectors at time t, in ECI."""
        c, s = math.cos(self.n * t), math.sin(self.n * t)
        return np.array([c, s, 0.0]), np.array([-s, c, 0.0])

    def to_eci(self, t: float, pos: Vec2, vel: Vec2) -> np.ndarray:
        """ECI state [r, v] of an in-plane Hill state (x, y, vx, vy)."""
        e_r, e_t = self._axes(t)
        rho = pos[0] * e_r + pos[1] * e_t
        # v = v_chief + R^T (rho_dot + omega x rho), omega = n along the pole
        vel_rot = (vel[0] - self.n * pos[1]) * e_r + (vel[1] + self.n * pos[0]) * e_t
        return np.concatenate((self.radius * e_r + rho, self.speed * e_t + vel_rot))

    def to_hill(self, t: float, state: np.ndarray) -> Tuple[Vec2, Vec2]:
        """In-plane Hill position and velocity of an ECI state."""
        e_r, e_t = self._axes(t)
        d_pos = state[:3] - self.radius * e_r
        d_vel = state[3:] - self.speed * e_t
        x, y = float(d_pos @ e_r), float(d_pos @ e_t)
        return (x, y), (float(d_vel @ e_r) + self.n * y, float(d_vel @ e_t) - self.n * x)

    def add_dv(self, t: float, state: np.ndarray, dv: Vec2) -> np.ndarray:
        e_r, e_t = self._axes(t)
        out = state.copy()
        out[3:] += dv[0] * e_r + dv[1] * e_t
        return out


def cw_target(n: float, p0: Vec2, pf: Vec2, ts: float) -> Vec2:
    """Departure velocity that carries p0 to pf in time ts under CW motion."""
    nt = n * ts
    c, s = math.cos(nt), math.sin(nt)
    # position after ts = A p0 + B v0, in-plane blocks of the CW solution
    ax = (4.0 - 3.0 * c) * p0[0]
    ay = 6.0 * (s - nt) * p0[0] + p0[1]
    b11, b12 = s / n, 2.0 * (1.0 - c) / n
    b21, b22 = 2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * nt) / n
    rx, ry = pf[0] - ax, pf[1] - ay
    det = b11 * b22 - b12 * b21
    return (rx * b22 - b12 * ry) / det, (b11 * ry - b21 * rx) / det


def cw_coast(n: float, pos: Vec2, vel: Vec2, dt: float) -> Tuple[Vec2, Vec2]:
    """Closed-form in-plane CW coast."""
    nt = n * dt
    c, s = math.cos(nt), math.sin(nt)
    (x, y), (vx, vy) = pos, vel
    return (
        ((4.0 - 3.0 * c) * x + s / n * vx + 2.0 * (1.0 - c) / n * vy,
         6.0 * (s - nt) * x + y + 2.0 * (c - 1.0) / n * vx + (4.0 * s - 3.0 * nt) / n * vy),
        (3.0 * n * s * x + c * vx + 2.0 * s * vy,
         6.0 * n * (c - 1.0) * x - 2.0 * s * vx + (4.0 * c - 3.0) * vy),
    )


def _two_body_rhs(_t, y):
    r = y[:3]
    return np.concatenate((y[3:], -(MU_EARTH / np.dot(r, r) ** 1.5) * r))


def two_body_coast(state: np.ndarray, dt: float) -> np.ndarray:
    sol = solve_ivp(_two_body_rhs, (0.0, dt), state, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


class Truth:
    """The chaser flown against one truth model, read out in Hill axes."""

    def __init__(self, chief: Chief, model: str, pos: Vec2, vel: Vec2):
        self.chief, self.model, self.t = chief, model, 0.0
        if model == "two_body":
            self.state = chief.to_eci(0.0, pos, vel)
        else:
            self.pos, self.vel = pos, vel

    def coast(self, dt: float) -> None:
        if self.model == "two_body":
            self.state = two_body_coast(self.state, dt)
        else:
            self.pos, self.vel = cw_coast(self.chief.n, self.pos, self.vel, dt)
        self.t += dt

    def read(self) -> Tuple[Vec2, Vec2]:
        if self.model == "two_body":
            return self.chief.to_hill(self.t, self.state)
        return self.pos, self.vel

    def burn_to(self, waypoint: Vec2, ts: float) -> float:
        """Fire the CW targeting burn toward waypoint; its magnitude."""
        pos, vel = self.read()
        target = cw_target(self.chief.n, pos, waypoint, ts)
        dv = (target[0] - vel[0], target[1] - vel[1])
        if self.model == "two_body":
            self.state = self.chief.add_dv(self.t, self.state, dv)
        else:
            self.vel = target
        return math.hypot(*dv)


def _circumnavigation(row: Row, chief: Chief) -> float:
    m, size, n = row.impulse_count, row.size_km, chief.n
    tau = chief.period / m
    if row.kind == "nmc_unforced":
        plan = [(size * math.cos(2 * math.pi * k / m), -2 * size * math.sin(2 * math.pi * k / m))
                for k in range(m)]
        vel0 = (0.0, -2.0 * n * size)
    else:  # a clockwise circle, entered on its first leg's targeting velocity
        plan = [(size * math.cos(-2 * math.pi * k / m), size * math.sin(-2 * math.pi * k / m))
                for k in range(m)]
        vel0 = cw_target(n, plan[0], plan[1], tau)
    truth = Truth(chief, row.truth, plan[0], vel0)
    total = 0.0
    for k in range(1, row.laps * m + 1):
        truth.coast(tau)
        total += truth.burn_to(plan[(k + 1) % m], tau)
    return total


def _intercept(row: Row, chief: Chief) -> float:
    start = (row.size_km, 0.0)
    if row.kind == "intercept_unforced":
        return math.hypot(*cw_target(chief.n, start, (0.0, 0.0), row.duration_s))
    m = row.impulse_count
    tau = row.duration_s / m
    truth = Truth(chief, row.truth, start, (0.0, 0.0))
    total = 0.0
    for k in range(1, m + 1):
        total += truth.burn_to(((1.0 - k / m) * start[0], 0.0), tau)
        if k < m:  # the last coast fires no burn
            truth.coast(tau)
    return total


def reference(rows: Sequence[Row], altitude_km: float) -> List[float]:
    """Reference total Δv of each expected row, km/s."""
    chief = Chief(altitude_km)
    return [(_intercept if row.duration_s is not None else _circumnavigation)(row, chief)
            for row in rows]
