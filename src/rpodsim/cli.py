"""Command-line front end.

Subcommands
-----------
circumnav   one circumnavigation campaign (forced circle or unforced NMC)
intercept   paired intercept comparison (single-impulse vs line-following)
sweep       forced/unforced grid over sizes and impulse counts
validate    run the built-in self-checks and report residuals

All physical flags carry unit suffixes (``--size-km``, ``--duration-min``).
Output is CSV (or a JSON mirror of the same rows); the pipeline is fully
deterministic, so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 runtime/physics error,
3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .campaign import (
    CampaignConfig,
    CampaignResult,
    intercept_experiment,
    run_campaign,
    sweep_circumnavigation,
)
from .constants import MU_EARTH
from .dynamics import (
    TargetOrbit,
    chief_state,
    cw_stm,
    propagate_cw,
    propagate_two_body,
    specific_energy,
)
from .errors import RpodError, UsageError
from .frames import RelativeState, eci_to_hill, hill_to_eci
from .guidance import nmc_initial_state

CSV_HEADER = (
    "kind,size_km,impulse_count,altitude_km,total_dv_km_s,"
    "insertion_dv_km_s,max_miss_km,duration_s"
)


@dataclass(frozen=True)
class RunManifest:
    """Validated, serializable description of one CLI invocation."""

    subcommand: str
    params: Dict
    output_path: Optional[str]
    format: str = "csv"

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        return cls(
            subcommand=data["subcommand"],
            params=data["params"],
            output_path=data["output_path"],
            format=data["format"],
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of SystemExit(2)
        raise UsageError(message)


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc


def _int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common(sub, with_out=True):
    sub.add_argument("--altitude-km", type=float, default=2000.0,
                     help="chief circular-orbit altitude (default 2000)")
    sub.add_argument("--truth", choices=["two-body", "cw"], default="two-body",
                     help="truth model flown against (default two-body)")
    if with_out:
        sub.add_argument("--out", required=True, help="output file path")
        sub.add_argument("--format", choices=["csv", "json"], default="csv")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rpodsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    circ = subs.add_parser("circumnav", help="run one circumnavigation campaign")
    circ.add_argument("--kind", choices=["unforced", "forced"], required=True,
                      help="unforced NMC ellipse or forced circle")
    circ.add_argument("--size-km", type=float, required=True,
                      help="NMC semi-minor axis / circle radius")
    circ.add_argument("--impulses", type=int, required=True,
                      help="correction burns per lap")
    circ.add_argument("--laps", type=int, default=1)
    circ.add_argument("--circle-period-factor", type=float, default=1.0,
                      help="forced-circle traversal period as a multiple of "
                           "the chief period (default 1.0)")
    circ.add_argument("--count-insertion-dv", action="store_true",
                      help="include the insertion burn in the total")
    _add_common(circ)

    inter = subs.add_parser("intercept", help="paired intercept comparison")
    inter.add_argument("--offset-km", type=float, default=10.0,
                       help="radial start offset (default 10)")
    inter.add_argument("--duration-min", type=float, default=60.0,
                       help="transfer window (default 60 minutes)")
    inter.add_argument("--impulses", type=_int_list, default=[8],
                       help="comma-separated forced-arm burn counts (default 8)")
    _add_common(inter)

    sweep = subs.add_parser("sweep", help="forced/unforced grid sweep")
    sweep.add_argument("--sizes-km", type=_float_list, required=True,
                       help="comma-separated sizes")
    sweep.add_argument("--impulses", type=_int_list, required=True,
                       help="comma-separated burn counts")
    sweep.add_argument("--laps", type=int, default=1)
    sweep.add_argument("--circle-period-factor", type=float, default=1.0)
    sweep.add_argument("--count-insertion-dv", action="store_true")
    _add_common(sweep)

    val = subs.add_parser("validate", help="run built-in self-checks")
    val.add_argument("--mu-km3-s2", type=float, default=MU_EARTH,
                     help="gravitational parameter override (self-test knob)")
    return parser


def parse_args(argv: Sequence[str]) -> RunManifest:
    """Parse CLI arguments into a validated RunManifest."""
    ns = _build_parser().parse_args(argv)
    truth = getattr(ns, "truth", "two-body").replace("-", "_")
    if ns.subcommand == "circumnav":
        kind = "nmc_unforced" if ns.kind == "unforced" else "circle_forced"
        params = {
            "kind": kind,
            "size_km": ns.size_km,
            "impulse_count": ns.impulses,
            "altitude_km": ns.altitude_km,
            "truth_model": truth,
            "laps": ns.laps,
            "circle_period_factor": ns.circle_period_factor,
            "count_insertion_dv": ns.count_insertion_dv,
        }
    elif ns.subcommand == "intercept":
        if min(ns.impulses) < 2:
            raise UsageError("forced intercept arm needs at least 2 impulses")
        params = {
            "offset_km": ns.offset_km,
            "duration_s": ns.duration_min * 60.0,
            "impulse_counts": ns.impulses,
            "altitude_km": ns.altitude_km,
            "truth_model": truth,
        }
    elif ns.subcommand == "sweep":
        params = {
            "sizes_km": ns.sizes_km,
            "impulse_counts": ns.impulses,
            "altitude_km": ns.altitude_km,
            "truth_model": truth,
            "laps": ns.laps,
            "circle_period_factor": ns.circle_period_factor,
            "count_insertion_dv": ns.count_insertion_dv,
        }
    else:
        params = {"mu_km3_s2": ns.mu_km3_s2}
    return RunManifest(
        subcommand=ns.subcommand,
        params=params,
        output_path=getattr(ns, "out", None),
        format=getattr(ns, "format", "csv"),
    )


def _execute(manifest: RunManifest) -> List[CampaignResult]:
    p = manifest.params
    if manifest.subcommand == "circumnav":
        config = CampaignConfig(
            maneuver_kind=p["kind"],
            chief_altitude=p["altitude_km"],
            size=p["size_km"],
            impulse_count=p["impulse_count"],
            truth_model=p["truth_model"],
            count_insertion_dv=p["count_insertion_dv"],
            laps=p["laps"],
            circle_period_factor=p["circle_period_factor"],
        )
        return [run_campaign(config)]
    if manifest.subcommand == "intercept":
        return intercept_experiment(
            p["offset_km"],
            p["duration_s"],
            p["impulse_counts"],
            p["altitude_km"],
            truth_model=p["truth_model"],
        )
    if manifest.subcommand == "sweep":
        return sweep_circumnavigation(
            p["sizes_km"],
            p["impulse_counts"],
            p["altitude_km"],
            truth_model=p["truth_model"],
            laps=p["laps"],
            circle_period_factor=p["circle_period_factor"],
            count_insertion_dv=p["count_insertion_dv"],
        )
    raise UsageError(f"unknown subcommand {manifest.subcommand!r}")


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _rows(results: Sequence[CampaignResult]) -> List[Dict]:
    rows = []
    for r in results:
        rows.append(
            {
                "kind": r.config.maneuver_kind,
                "size_km": r.config.size,
                "impulse_count": r.config.impulse_count,
                "altitude_km": r.config.chief_altitude,
                "total_dv_km_s": r.total_dv,
                "insertion_dv_km_s": r.insertion_dv,
                "max_miss_km": r.max_waypoint_miss,
                "duration_s": r.duration,
            }
        )
    return rows


def _summaries(rows: List[Dict]) -> List[str]:
    """One line per forced/unforced comparison pair."""
    lines = []
    circ = {(r["size_km"], r["impulse_count"]): r for r in rows
            if r["kind"] == "circle_forced"}
    for r in rows:
        if r["kind"] == "nmc_unforced":
            other = circ.get((r["size_km"], r["impulse_count"]))
            if other is not None:
                lines.append(_pair_line(r, other))
    unforced_arm = next((r for r in rows if r["kind"] == "intercept_unforced"), None)
    if unforced_arm is not None:
        for r in rows:
            if r["kind"] == "intercept_forced":
                lines.append(_pair_line(unforced_arm, r))
    return lines


def _pair_line(unforced: Dict, forced: Dict) -> str:
    lo, hi = sorted((unforced, forced), key=lambda r: r["total_dv_km_s"])
    winner = "unforced" if lo["kind"].find("unforced") >= 0 else "forced"
    ratio = math.inf if lo["total_dv_km_s"] == 0 else hi["total_dv_km_s"] / lo["total_dv_km_s"]
    return (
        f"size={forced['size_km']:g} km impulses={forced['impulse_count']}: "
        f"{winner} arm uses less dv "
        f"({lo['total_dv_km_s']:.6g} vs {hi['total_dv_km_s']:.6g} km/s, "
        f"ratio {ratio:.3f})"
    )


def emit_results(results: Sequence[CampaignResult], manifest: RunManifest) -> None:
    """Write the result table and print per-pair summaries to stdout."""
    if not results:
        raise UsageError("nothing to write: empty result set")
    rows = _rows(results)
    float_cols = ("size_km", "altitude_km", "total_dv_km_s",
                  "insertion_dv_km_s", "max_miss_km", "duration_s")
    if manifest.format == "csv":
        with open(manifest.output_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_HEADER.split(","))
            for row in rows:
                writer.writerow(
                    [row["kind"]]
                    + [
                        _g17(row[c]) if c in float_cols else str(row[c])
                        for c in CSV_HEADER.split(",")[1:]
                    ]
                )
    else:
        encoded = [
            {c: (_g17(row[c]) if c in float_cols else row[c])
             for c in CSV_HEADER.split(",")}
            for row in rows
        ]
        with open(manifest.output_path, "w", newline="") as handle:
            json.dump(encoded, handle, indent=2)
            handle.write("\n")
    for line in _summaries(rows):
        print(line)


# ---------------------------------------------------------------------------
# self-test suite


def validate_suite(mu: float = MU_EARTH):
    """Run the built-in invariant checks and report residuals.

    Returns (report_lines, all_passed).  Checks are independent; an
    exception inside one check marks that check failed and the suite
    continues.
    """
    def make_orbit() -> TargetOrbit:
        # built inside each check so an unusable configuration (e.g. a
        # nonsensical mu) shows up as failed checks, not an aborted suite
        return TargetOrbit.from_altitude(2000.0, mu=mu)

    def frame_round_trip():
        orbit = make_orbit()
        target = chief_state(orbit, 1234.5)
        rel = RelativeState(5.0, -3.0, 2.0, 1e-3, -2e-3, 5e-4)
        back = eci_to_hill(target, hill_to_eci(target, rel))
        return float(np.max(np.abs(back.vector - rel.vector))), 1e-9

    def stm_identity():
        orbit = make_orbit()
        return float(np.max(np.abs(cw_stm(orbit.n, 0.0) - np.eye(6)))), 1e-12

    # a whole number of periods would reduce to a zero-length coast, so the
    # two-body checks fly a fractional number to exercise the Kepler solve
    coast_periods = 2.37

    def circular_coast():
        orbit = make_orbit()
        t = coast_periods * orbit.period
        end = propagate_two_body(chief_state(orbit, 0.0), mu, t)
        return float(np.linalg.norm(end.position - chief_state(orbit, t).position)), 1e-6

    def energy_drift():
        orbit = make_orbit()
        start = chief_state(orbit, 0.0)
        end = propagate_two_body(start, mu, coast_periods * orbit.period)
        e0 = specific_energy(start, mu)
        return abs((specific_energy(end, mu) - e0) / e0), 1e-10

    def closed_relative_orbit():
        orbit = make_orbit()
        rel = nmc_initial_state(1.0, orbit.n)
        after = propagate_cw(rel, orbit.n, orbit.period)
        return float(np.max(np.abs(after.vector - rel.vector))), 1e-9

    def zero_mismatch_campaign():
        result = run_campaign(
            CampaignConfig(
                maneuver_kind="nmc_unforced", chief_altitude=2000.0, size=10.0,
                impulse_count=8, truth_model="cw", mu=mu,
            )
        )
        return result.total_dv, 1e-9

    checks = [
        ("frame round trip", frame_round_trip),
        ("transition matrix identity", stm_identity),
        ("two-body circular coast", circular_coast),
        ("two-body energy drift", energy_drift),
        ("closed relative orbit", closed_relative_orbit),
        ("zero-mismatch campaign", zero_mismatch_campaign),
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if manifest.subcommand == "validate":
            lines, ok = validate_suite(mu=manifest.params["mu_km3_s2"])
            for line in lines:
                print(line)
            return 0 if ok else 3
        results = _execute(manifest)
        emit_results(results, manifest)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RpodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
