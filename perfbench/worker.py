"""Fly one workload's passes through ``rpodsim.cli.main`` in a fresh process.

Usage: python3 perfbench/worker.py REQUEST_JSON

REQUEST_JSON holds ``argv`` (the CLI arguments without ``--out``),
``out_dir``, ``seconds`` and ``trace``.  Untraced, the worker repeats the
pass until the next one would end past ``seconds`` (at least MIN_PASSES),
and before each pass times an import of ``rpodsim.cli`` in a fresh process,
so that set-up is sampled across the whole run.  The worker and the
processes it starts run pinned to one CPU.  Each untraced pass and import is
paced (``pace.py``): timed at a fixed reference speed of that CPU.  Traced,
the worker alternates a plain and a traced pass the same way (at least
MIN_PAIRS pairs), times each by process CPU time, and writes the last traced
pass's spans to ``spans_path``.  The result is one JSON object on standard
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pace
import spans

MIN_PASSES = 3
MIN_PAIRS = 2
IMPORT_TIMEOUT_S = 60.0

# pace.py is found last on the path, so it cannot shadow what rpodsim imports
IMPORT_TIMER = (
    "import sys; sys.path.append({here!r}); import pace; "
    "_, t = pace.pace(lambda: __import__('rpodsim.cli'), pace.python_probe, "
    "pace.PYTHON_PROBE_REF_S); "
    "print(repr(t.paced_s))"
).format(here=str(Path(__file__).resolve().parent))


def time_import() -> float:
    """Paced seconds a fresh python process takes to import rpodsim.cli,
    timed inside that process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                          capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S,
                          check=True)
    return float(proc.stdout)


def _fly(cli, argv, out_path: Path, tracer=None, probe=None) -> dict:
    """One call of the CLI; a crash is a failed pass, not a failed worker.

    With a tracer, its wrappers are installed for the call.  ``cpu_s`` is
    the process CPU time of the call.  With a probe, the call is paced
    (``pace.py``): ``paced_s`` is its time at the probe's reference speed,
    and the probes' own time is left out of ``cpu_s``.
    """
    if out_path.exists():
        out_path.unlink()
    stdout = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(stdout):
                return main(argv), None
        except Exception as exc:  # noqa: BLE001 - reported as a failed pass
            return -1, f"{type(exc).__name__}: {exc}"

    paced = None
    with contextlib.ExitStack() as stack:
        main = cli.main
        if tracer is not None:
            stack.enter_context(spans.installed(tracer))
            main = tracer.wrap(spans.ROOT, cli.main)
        if probe is None:
            start, cpu_start = time.perf_counter(), time.process_time()
            code, error = call()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        else:
            (code, error), timing = pace.pace(call, probe, pace.NUMPY_PROBE_REF_S)
            wall, cpu, paced = timing.wall_s, timing.cpu_s, timing.paced_s
    output = out_path.read_bytes() if out_path.exists() else b""
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "paced_s": paced,
        "code": code,
        "error": error,
        "output": output.decode(),
        "bytes_written": len(output) + len(stdout.getvalue().encode()),
        "traced": tracer is not None,
    }


def run(request: dict) -> dict:
    pace.pin()
    import numpy
    import scipy

    import rpodsim.cli as cli

    argv = list(request["argv"])
    out_path = Path(request["out_dir"]) / "out.csv"
    argv += ["--out", str(out_path)]
    deadline = time.perf_counter() + float(request["seconds"])
    minimum = MIN_PAIRS if request["trace"] else MIN_PASSES
    passes, layers, setup = [], [], []
    tracer = None
    probe = pace.numpy_probe()
    while True:
        started = time.perf_counter()
        if not request["trace"]:
            setup.append(time_import())
            passes.append(_fly(cli, argv, out_path, probe=probe))
        else:
            plain = _fly(cli, argv, out_path)
            passes.append(plain)
            tracer = spans.Tracer()
            traced = _fly(cli, argv, out_path, tracer)
            passes.append(traced)
            metrics = spans.summarize(tracer.spans, tracer.counters)
            metrics["cli.bytes_written"] = traced["bytes_written"]
            metrics["trace.overhead_s"] = traced["cpu_s"] - plain["cpu_s"]
            layers.append(metrics)
        rounds = len(layers) if request["trace"] else len(passes)
        now = time.perf_counter()
        if rounds >= minimum and now + (now - started) > deadline:
            break

    if tracer is not None:
        with open(request["spans_path"], "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    return {
        "passes": passes,
        "setup_s": setup,
        "layers": layers,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
