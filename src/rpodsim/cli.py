"""Command-line front end.

Subcommands
-----------
circumnav   one circumnavigation campaign (forced circle or unforced NMC)
intercept   paired intercept comparison (single-impulse vs line-following)
sweep       forced/unforced grid over sizes and impulse counts
validate    run the built-in self-checks, loaded on demand, and report residuals

All physical flags carry unit suffixes (``--size-km``, ``--duration-min``).
Output is one CSV row per campaign; the pipeline is fully deterministic, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 runtime/physics error,
3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from collections.abc import Sequence

from .campaign import (
    CampaignConfig,
    CampaignResult,
    intercept_experiment,
    run_campaign,
    sweep_circumnavigation,
)
from .errors import RpodError

CSV_HEADER = (
    "kind,size_km,impulse_count,altitude_km,total_dv_km_s,"
    "insertion_dv_km_s,max_miss_km,duration_s"
)
# a smaller total within this fraction of the larger is rounding: CW-truth
# unforced arms read ~1e-16 to 1e-13 of the forced arm, resolved two-body
# totals 1e-7 and up
_DV_ROUND_REL = 1e-12


class RunManifest(namedtuple("_Manifest", "subcommand params output_path")):
    """Validated description of one CLI invocation.

    ``params`` are exactly the keyword arguments of the subcommand's library
    call: ``CampaignConfig`` (circumnav), ``intercept_experiment``,
    ``sweep_circumnavigation`` or ``rpodsim.validate.validate_suite``.
    """

    __slots__ = ()


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
    if output_path is not None:
        _check_output_path(output_path)
    if "truth_model" in params:
        params["truth_model"] = params["truth_model"].replace("-", "_")
    if "maneuver_kind" in params:
        params["maneuver_kind"] = _KINDS[params["maneuver_kind"]]
    if "duration" in params:  # minutes on the command line, seconds in the library
        params["duration"] = params["duration"] * 60.0
    return RunManifest(subcommand, params, output_path)


def _check_output_path(path: str) -> None:
    """Reject an --out that cannot be written as a file before any campaign
    flies; other write failures surface at the write."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    parent, name = os.path.split(path)
    if not name:
        raise ValueError(f"--out {path!r} names no file")
    if not os.path.isdir(parent or "."):
        raise ValueError(f"--out {path!r}: no directory {parent!r}")


def _execute(manifest: RunManifest) -> list[CampaignResult]:
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


def _summaries(results: Sequence[CampaignResult]) -> list[str]:
    """One line per forced/unforced pair, read in the fan-outs' order (pinned
    by test_intercept_experiment_returns_unforced_then_each_count and
    test_sweep_row_count_and_order): an intercept's unforced arm, then each
    forced arm; a sweep's cells, forced then unforced; one campaign is no pair."""
    if results[0].config.maneuver_kind == "intercept_unforced":
        return [_pair_line(results[0], r) for r in results[1:]]
    return [_pair_line(u, f) for f, u in zip(results[::2], results[1::2])]


def _pair_line(unforced: CampaignResult, forced: CampaignResult) -> str:
    lo, hi = sorted((unforced, forced), key=lambda r: r.total_dv)
    winner = "unforced" if lo is unforced else "forced"
    ratio = math.inf if lo.total_dv <= _DV_ROUND_REL * hi.total_dv else hi.total_dv / lo.total_dv
    return (f"size={forced.config.size:g} km impulses={forced.config.impulse_count}: {winner} "
            f"arm uses less dv ({lo.total_dv:.6g} vs {hi.total_dv:.6g} km/s, ratio {ratio:.3f})")


def emit_results(results: Sequence[CampaignResult], manifest: RunManifest) -> None:
    """Write the result table and print per-pair summaries to stdout."""
    if not results:
        raise ValueError("nothing to write: empty result set")
    with open(manifest.output_path, "w", newline="") as handle:
        handle.writelines(f"{line}\n" for line in [CSV_HEADER, *map(_row, results)])
    for line in _summaries(results):
        print(line)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        manifest = parse_args(sys.argv[1:] if argv is None else list(argv))
        if manifest.subcommand == "validate":
            from .validate import validate_suite
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
