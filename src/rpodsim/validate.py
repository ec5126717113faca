"""The self-checks that ``rpodsim validate`` runs.  The CLI imports this
module only in its ``validate`` branch, so no campaign run compiles it."""

from __future__ import annotations

import math
from collections.abc import Sequence

from .campaign import CampaignConfig, _truth_coast, run_campaign
from .constants import MU_EARTH
from .dynamics import TargetOrbit, cw_stm
from .frames import RelativeState, eci_to_hill, hill_to_eci
from .guidance import nmc_initial_state


def _max_gap(a: Sequence[float], b: Sequence[float]) -> float:
    """The largest componentwise |a - b|, NaN if any component is NaN."""
    gaps = [abs(p - q) for p, q in zip(a, b)]
    return math.nan if any(map(math.isnan, gaps)) else max(gaps)


def validate_suite():
    """Run the built-in invariant checks and report residuals.

    Returns (report_lines, all_passed).  Checks are independent; an
    exception inside one check marks that check failed and the suite
    continues.
    """
    orbit = TargetOrbit.from_altitude(2000.0)

    def frame_round_trip():
        rel = RelativeState(5.0, -3.0, 2.0, 1e-3, -2e-3, 5e-4)
        back = eci_to_hill(orbit, hill_to_eci(orbit, 1234.5, rel))
        return _max_gap(back, rel), 1e-9

    def stm_identity():
        return max(_max_gap(row, [float(i == j) for j in range(6)])
                   for i, row in enumerate(cw_stm(orbit.n, 0.0))), 1e-12

    def nmc_at(phase):
        # the 1 km NMC at phase n t, x = cos and y = -2 sin, with a 1 km
        # cross-track swing z = cos, and their rates
        c, s, n = math.cos(phase), math.sin(phase), orbit.n
        return RelativeState(c, -2.0 * s, c, -n * s, -2.0 * n * c, -n * s)

    # a whole number of periods would reduce to a zero-length coast, so the
    # coasts below fly a fractional number, which exercises the Kepler solve
    # and keeps every sin(nt) term of the transition matrix
    t = 2.37 * orbit.period
    leg = _truth_coast(orbit, "two_body", t)  # the two-body leg campaigns fly

    def co_orbital_leg():
        # a chaser 1e-3 rad (~8.4 km) ahead on the chief's circle, at the
        # ranges campaigns fly, is at rest in the Hill frame
        phase, r = 1e-3, orbit.radius
        rel = (r * (math.cos(phase) - 1.0), r * math.sin(phase), 0.0, 0.0, 0.0, 0.0)
        return _max_gap(leg(rel), rel), 1e-9

    def leg_energy_drift():
        def energy(epoch, rel):
            chaser = hill_to_eci(orbit, epoch, rel)
            u, v, w = chaser.velocity
            return 0.5 * (u * u + v * v + w * w) - MU_EARTH / math.hypot(*chaser.position)

        e0 = energy(0.0, nmc_at(1.0))
        return abs((energy(t, leg(nmc_at(1.0))) - e0) / e0), 1e-10

    def closed_relative_orbit():
        # from phase 1 rad, so no term of the transition matrix vanishes
        after = _truth_coast(orbit, "cw", t)(nmc_at(1.0))  # the CW leg campaigns fly
        return _max_gap(after, nmc_at(1.0 + orbit.n * t)), 1e-9

    def leg_departs_as_rho_squared():
        # the flown two-body leg departs from CW as rho^2 / R over P/8: the
        # ratio agrees at 1 km and 10 m, a fault of another order does not
        two_body, cw = (_truth_coast(orbit, m, orbit.period / 8) for m in ("two_body", "cw"))
        ratios = []
        for rho in (1.0, 0.01):
            rel = nmc_initial_state(rho, orbit.n)
            gap = _max_gap(two_body(rel)[:3], cw(rel)[:3])
            ratios.append(gap / (rho**2 / orbit.radius))
        return abs(ratios[1] / ratios[0] - 1.0), 1e-3

    def zero_mismatch_campaign():
        config = CampaignConfig(maneuver_kind="nmc_unforced", chief_altitude=2000.0, size=10.0,
                                impulse_count=8, truth_model="cw")
        return run_campaign(config).total_dv, 1e-9

    checks = [
        ("frame round trip", frame_round_trip),
        ("transition matrix identity", stm_identity),
        ("two-body leg co-orbital", co_orbital_leg),
        ("two-body leg energy drift", leg_energy_drift),
        ("closed relative orbit", closed_relative_orbit),
        ("zero-mismatch campaign", zero_mismatch_campaign),
        ("two-body leg departs from CW as rho^2", leg_departs_as_rho_squared),
    ]
    lines = []
    all_ok = True
    for name, check in checks:
        try:
            residual, tol = check()
            ok = math.isfinite(residual) and residual < tol
            note = ""
        except Exception as exc:  # a failing check must not stop the suite
            residual, tol, ok, note = float("nan"), float("nan"), False, f"  [{exc}]"
        all_ok &= ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'}  {name:<28s} residual={residual:.3e} "
            f"tol={tol:.0e}{note}"
        )
    return lines, all_ok
