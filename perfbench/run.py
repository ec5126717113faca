"""rpodsim benchmark: drive ``rpodsim.cli.main`` from outside on a named
workload, check every output against a reference table, and print the
metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_grid --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` flies traced and
untraced passes in turn and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every campaign of
every pass passed the check in ``check.py``.

The program runs from ``src/`` in fresh child processes with one thread
each; everything the benchmark writes goes under ``.bench_out/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import check
import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BUDGET_S = 170.0  # every workload run ends within this, or fails

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "legs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "dv_max_rel_err": "ratio",
    "pass_frac": "ratio",
}

class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args: List[str], deadline: float) -> str:
    """Run a child python to completion; its stdout.  At the deadline the
    child and every process it started are killed, and waited for."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent")
    with subprocess.Popen([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return stdout


def _source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Tuple[dict, List[str]]:
    """Run one workload; return (result object, report lines)."""
    deadline = time.monotonic() + BUDGET_S
    argv, expected = workloads.build(name, seed)
    legs = sum(r.burns for r in expected)
    reference = oracle.reference(expected, workloads.ALTITUDE_KM)
    # the first import writes the bytecode cache, so no timed import does
    _python(["-c", "import rpodsim.cli"], deadline)

    OUT_DIR.mkdir(exist_ok=True)
    pass_dir = OUT_DIR / name
    pass_dir.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}.spans.jsonl"
    request = {"argv": argv, "out_dir": str(pass_dir), "seconds": seconds,
               "trace": trace, "spans_path": str(spans_path)}
    worker = json.loads(_python([str(HERE / "worker.py"), json.dumps(request)],
                                deadline).splitlines()[-1])

    attempted = failed = 0
    worst_rel = check.REL_FLOOR
    reasons = []
    for p in worker["passes"]:
        failures, rel = check.check_pass(p["code"], p["output"], expected, reference)
        attempted += len(failures)
        failed += sum(f is not None for f in failures)
        worst_rel = max(worst_rel, rel)
        reasons += [p["error"]] if p["error"] else []
        reasons += [f"{r.kind} {r.size_km:g} km x{r.impulse_count}: {f}"
                    for r, f in zip(expected, failures) if f]

    plain = [p for p in worker["passes"] if not p["traced"]]
    key = "cpu_s" if trace else "paced_s"
    quartiles = " / ".join(f"{q:.4f}" for q in statistics.quantiles(
        [p[key] for p in plain], n=4))
    lines = [f"workload {name} seed {seed}: rpodsim {' '.join(argv)}",
             f"  {len(expected)} campaigns, {legs} legs; {len(plain)} untraced passes, "
             f"wall {min(p['wall_s'] for p in plain):.4f} to "
             f"{max(p['wall_s'] for p in plain):.4f} s, quartiles of {key} {quartiles} s"]
    if trace:
        metrics = {}
        for metric, unit in spans.LAYER_METRICS.items():
            values = [layer[metric] for layer in worker["layers"]]
            value = values[-1] if unit in ("count", "bytes") else statistics.median(values)
            metrics[metric] = {"value": value, "unit": unit}
        medians = {m: v["value"] for m, v in metrics.items()}
        total = sum(medians[f"{layer}.self_s"] for layer in spans.LAYERS)
        split = ", ".join(f"{layer} {100 * medians[f'{layer}.self_s'] / total:.1f}%"
                          for layer in spans.LAYERS)
        lines.append(f"  self-time split over {len(worker['layers'])} traced passes: "
                     f"{split}; dominant: {spans.dominant_layer(medians)}")
        lines.append(f"  spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    else:
        wall = statistics.median([p["paced_s"] for p in plain])
        values = {
            "setup_s": statistics.median(worker["setup_s"]),
            "wall_s": wall,
            "legs_per_s": legs / wall,
            "peak_rss_mb": worker["peak_rss_mb"],
            "dv_max_rel_err": worst_rel,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {m: {"value": values[m], "unit": END_TO_END[m]} for m in END_TO_END}
    lines += [f"  {m:<36s} {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"  check: {failed} of {attempted} campaign results failed")
    lines += [f"    {f}" for f in reasons[:5]]

    env = dict(worker["versions"], nproc=os.cpu_count(), commit=_git_commit(),
               src_lines=_source_lines())
    if trace:
        env["trace.overhead_s"] = metrics["trace.overhead_s"]["value"]
    lines.append("  env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = dict(result, workload=name, seed=seed, argv=argv, env=env,
                  setup_s=worker["setup_s"],
                  wall_s=[p["wall_s"] for p in plain], cpu_s=[p["cpu_s"] for p in plain],
                  paced_s=[p["paced_s"] for p in plain],
                  failures=reasons[:100])
    (OUT_DIR / f"{name}.report.json").write_text(json.dumps(report, indent=1) + "\n")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rpodsim" / "cli.py").is_file():
        print(f"benchmark error: no program at {SRC / 'rpodsim'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], lines = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error on {name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
