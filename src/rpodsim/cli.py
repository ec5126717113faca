"""Command-line front end.

Subcommands
-----------
circumnav   one circumnavigation campaign (forced circle or unforced NMC)
intercept   paired intercept comparison (single-impulse vs line-following)
sweep       forced/unforced grid over sizes and impulse counts
validate    run the built-in self-checks and report residuals

All physical flags carry unit suffixes (``--size-km``, ``--duration-min``).
Output is one CSV row per campaign; the pipeline is fully deterministic, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 runtime/physics error,
3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .campaign import (
    CampaignConfig,
    CampaignResult,
    _truth_coast,
    intercept_experiment,
    run_campaign,
    sweep_circumnavigation,
)
from .dynamics import (
    TargetOrbit,
    chief_state,
    cw_stm,
    propagate_cw,
    propagate_two_body,
    specific_energy,
)
from .errors import RpodError
from .frames import RelativeState, eci_to_hill, hill_to_eci
from .guidance import nmc_initial_state

CSV_HEADER = (
    "kind,size_km,impulse_count,altitude_km,total_dv_km_s,"
    "insertion_dv_km_s,max_miss_km,duration_s"
)
# a smaller total within this fraction of the larger is rounding: CW-truth
# unforced arms read ~1e-16 to 1e-13 of the forced arm, resolved two-body
# totals 1e-7 and up
_DV_ROUND_REL = 1e-12


@dataclass(frozen=True)
class RunManifest:
    """Validated description of one CLI invocation.

    ``params`` are exactly the keyword arguments of the subcommand's library
    call: ``CampaignConfig`` (circumnav), ``intercept_experiment``,
    ``sweep_circumnavigation`` or ``validate_suite``.
    """

    subcommand: str
    params: Dict
    output_path: Optional[str]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of SystemExit(2)
        raise ValueError(message)


def _list_of(kind):
    """argparse type: a non-empty comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            values = [kind(tok) for tok in text.split(",") if tok]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError(f"empty {kind.__name__} list {text!r}")
        return values
    return parse


# --kind spelling -> CampaignConfig.maneuver_kind
_KINDS = {"unforced": "nmc_unforced", "forced": "circle_forced"}


def _add_common(sub):
    sub.add_argument("--altitude-km", dest="chief_altitude", type=float, default=2000.0,
                     help="chief circular-orbit altitude (default 2000)")
    sub.add_argument("--truth", dest="truth_model", choices=["two-body", "cw"],
                     default="two-body", help="truth model flown against (default two-body)")
    sub.add_argument("--out", required=True, help="output file path")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rpodsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    circ = subs.add_parser("circumnav", help="run one circumnavigation campaign")
    circ.add_argument("--kind", dest="maneuver_kind", choices=_KINDS, required=True,
                      help="unforced NMC ellipse or forced circle")
    circ.add_argument("--size-km", dest="size", type=float, required=True,
                      help="NMC semi-minor axis / circle radius")
    circ.add_argument("--impulses", dest="impulse_count", type=int, required=True,
                      help="correction burns per lap")
    circ.add_argument("--laps", type=int, default=1,
                      help="laps flown, one chief period each (default 1)")
    _add_common(circ)

    inter = subs.add_parser("intercept", help="paired intercept comparison")
    inter.add_argument("--offset-km", dest="offset", type=float, default=10.0,
                       help="radial start offset (default 10)")
    inter.add_argument("--duration-min", dest="duration", type=float, default=60.0,
                       help="transfer window (default 60 minutes)")
    inter.add_argument("--impulses", dest="impulse_counts", type=_list_of(int), default=[8],
                       help="comma-separated forced-arm burn counts (default 8)")
    _add_common(inter)

    sweep = subs.add_parser("sweep", help="forced/unforced grid sweep")
    sweep.add_argument("--sizes-km", dest="sizes", type=_list_of(float), required=True,
                       help="comma-separated sizes")
    sweep.add_argument("--impulses", dest="impulse_counts", type=_list_of(int), required=True,
                       help="comma-separated burn counts")
    sweep.add_argument("--laps", type=int, default=1,
                       help="laps each campaign flies, one chief period each (default 1)")
    _add_common(sweep)

    subs.add_parser("validate", help="run built-in self-checks")
    return parser


def parse_args(argv: Sequence[str]) -> RunManifest:
    """Parse CLI arguments into a RunManifest whose params are the keyword
    arguments of the subcommand's library call."""
    params = vars(_build_parser().parse_args(argv))
    subcommand = params.pop("subcommand")
    output_path = params.pop("out", None)
    if "truth_model" in params:
        params["truth_model"] = params["truth_model"].replace("-", "_")
    if "maneuver_kind" in params:
        params["maneuver_kind"] = _KINDS[params["maneuver_kind"]]
    if "duration" in params:  # minutes on the command line, seconds in the library
        params["duration"] = params["duration"] * 60.0
    return RunManifest(subcommand, params, output_path)


def _execute(manifest: RunManifest) -> List[CampaignResult]:
    if manifest.subcommand == "circumnav":
        return [run_campaign(CampaignConfig(**manifest.params))]
    if manifest.subcommand == "intercept":
        return intercept_experiment(**manifest.params)
    if manifest.subcommand == "sweep":
        return sweep_circumnavigation(**manifest.params)
    raise ValueError(f"unknown subcommand {manifest.subcommand!r}")


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _row(r: CampaignResult) -> str:
    """The CSV row of one campaign, floats to 17 significant digits."""
    c = r.config
    floats = (r.total_dv, r.insertion_dv, r.max_waypoint_miss, r.duration)
    return ",".join([c.maneuver_kind, _g17(c.size), str(c.impulse_count),
                     _g17(c.chief_altitude), *map(_g17, floats)])


def _summaries(results: Sequence[CampaignResult]) -> List[str]:
    """One line per forced/unforced comparison pair."""
    def of(kind):
        return [r for r in results if r.config.maneuver_kind == kind]

    circ = {(r.config.size, r.config.impulse_count): r for r in of("circle_forced")}
    lines = []
    for r in of("nmc_unforced"):
        other = circ.get((r.config.size, r.config.impulse_count))
        if other is not None:
            lines.append(_pair_line(r, other))
    unforced_arms = of("intercept_unforced")
    if unforced_arms:
        lines += [_pair_line(unforced_arms[0], r) for r in of("intercept_forced")]
    return lines


def _pair_line(unforced: CampaignResult, forced: CampaignResult) -> str:
    lo, hi = sorted((unforced, forced), key=lambda r: r.total_dv)
    head = f"size={forced.config.size:g} km impulses={forced.config.impulse_count}: "
    if hi.total_dv == 0:  # a null transfer: neither arm is cheaper
        return head + "neither arm uses dv (0 vs 0 km/s)"
    winner = "unforced" if "unforced" in lo.config.maneuver_kind else "forced"
    ratio = math.inf if lo.total_dv <= _DV_ROUND_REL * hi.total_dv else hi.total_dv / lo.total_dv
    return head + (
        f"{winner} arm uses less dv "
        f"({lo.total_dv:.6g} vs {hi.total_dv:.6g} km/s, ratio {ratio:.3f})"
    )


def emit_results(results: Sequence[CampaignResult], manifest: RunManifest) -> None:
    """Write the result table and print per-pair summaries to stdout."""
    if not results:
        raise ValueError("nothing to write: empty result set")
    with open(manifest.output_path, "w", newline="") as handle:
        handle.writelines(f"{line}\n" for line in [CSV_HEADER, *map(_row, results)])
    for line in _summaries(results):
        print(line)


# ---------------------------------------------------------------------------
# self-test suite


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
        return float(np.max(np.abs(back.vector - rel.vector))), 1e-9

    def stm_identity():
        return float(np.max(np.abs(cw_stm(orbit.n, 0.0) - np.eye(6)))), 1e-12

    # a whole number of periods would reduce to a zero-length coast, so the
    # two-body checks fly a fractional number to exercise the Kepler solve
    coast_periods = 2.37

    def circular_coast():
        t = coast_periods * orbit.period
        end = propagate_two_body(chief_state(orbit, 0.0), t)
        return float(np.linalg.norm(end.position - chief_state(orbit, t).position)), 1e-6

    def energy_drift():
        start = chief_state(orbit, 0.0)
        end = propagate_two_body(start, coast_periods * orbit.period)
        e0 = specific_energy(start)
        return abs((specific_energy(end) - e0) / e0), 1e-10

    def closed_relative_orbit():
        rel = nmc_initial_state(1.0, orbit.n)
        after = propagate_cw(rel, orbit.n, orbit.period)
        return float(np.max(np.abs(after.vector - rel.vector))), 1e-9

    def leg_departs_as_rho_squared():
        # the flown two-body leg departs from CW as rho^2 / R over P/8: the
        # ratio agrees at 1 km and 10 m, a fault of another order does not
        two_body, cw = (_truth_coast(orbit, m, orbit.period / 8) for m in ("two_body", "cw"))
        ratios = []
        for rho in (1.0, 0.01):
            rel = nmc_initial_state(rho, orbit.n)
            gap = float(np.max(np.abs(two_body(rel).position - cw(rel).position)))
            ratios.append(gap / (rho**2 / orbit.radius))
        return abs(ratios[1] / ratios[0] - 1.0), 1e-3

    def zero_mismatch_campaign():
        config = CampaignConfig(maneuver_kind="nmc_unforced", chief_altitude=2000.0, size=10.0,
                                impulse_count=8, truth_model="cw")
        return run_campaign(config).total_dv, 1e-9

    checks = [
        ("frame round trip", frame_round_trip),
        ("transition matrix identity", stm_identity),
        ("two-body circular coast", circular_coast),
        ("two-body energy drift", energy_drift),
        ("closed relative orbit", closed_relative_orbit),
        ("zero-mismatch campaign", zero_mismatch_campaign),
        ("two-body leg departs from CW as ρ²", leg_departs_as_rho_squared),
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        manifest = parse_args(sys.argv[1:] if argv is None else list(argv))
        # an absurd input can overflow inside numpy before a burn or coast
        # check stops it; that check's message is the one stderr line
        with np.errstate(over="ignore"):
            if manifest.subcommand == "validate":
                lines, ok = validate_suite(**manifest.params)
                for line in lines:
                    print(line)
                return 0 if ok else 3
            emit_results(_execute(manifest), manifest)
        return 0
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RpodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
