"""Outside-in tracing of rpodsim: wrap each module's public functions at the
binding its caller looks up, record one span per call, and reduce the spans
to per-layer call counts and self times.

Nothing here changes the program: the wrappers are installed on module
attributes for the length of a ``with installed(tracer):`` block and the
original bindings are put back when it ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Sequence

LAYERS = ("dynamics", "frames", "guidance", "campaign", "cli")

# (module whose attribute is looked up at call time, attribute, span name).
# The span name's first part is the layer that owns the function.
# ``campaign`` binds its imports with ``from ... import``, so its callees are
# wrapped on ``rpodsim.campaign``; ``frames`` calls ``hill_basis`` through its
# own module globals and ``TrajectorySample`` calls ``eci_to_hill`` through
# ``rpodsim.dynamics``.
BINDINGS = (
    ("rpodsim.cli", "parse_args", "cli.parse_args"),
    ("rpodsim.cli", "emit_results", "cli.emit_results"),
    ("rpodsim.cli", "run_campaign", "campaign.run_campaign"),
    ("rpodsim.cli", "sweep_circumnavigation", "campaign.sweep_circumnavigation"),
    ("rpodsim.campaign", "run_campaign", "campaign.run_campaign"),
    ("rpodsim.campaign", "chief_state", "dynamics.chief_state"),
    ("rpodsim.campaign", "propagate_two_body", "dynamics.propagate_two_body"),
    ("rpodsim.campaign", "propagate_cw", "dynamics.propagate_cw"),
    ("rpodsim.campaign", "eci_to_hill", "frames.eci_to_hill"),
    ("rpodsim.campaign", "hill_basis", "frames.hill_basis"),
    ("rpodsim.campaign", "hill_to_eci", "frames.hill_to_eci"),
    ("rpodsim.campaign", "cw_target_impulse", "guidance.cw_target_impulse"),
    ("rpodsim.campaign", "nmc_initial_state", "guidance.nmc_initial_state"),
    ("rpodsim.campaign", "waypoints_circle", "guidance.waypoints_circle"),
    ("rpodsim.campaign", "waypoints_line", "guidance.waypoints_line"),
    ("rpodsim.campaign", "waypoints_nmc", "guidance.waypoints_nmc"),
    ("rpodsim.frames", "hill_basis", "frames.hill_basis"),
    ("rpodsim.dynamics", "eci_to_hill", "frames.eci_to_hill"),
)

# Functions whose calls make no span of their own: only their results are
# read, to count work the span timings cannot show.
COUNTED = (("rpodsim.dynamics", "solve_ivp"),)

ROOT = "cli.main"
CAMPAIGN = "campaign.run_campaign"
# Both truth propagators report as one self time: each workload flies one
# truth model, so the split by model is the workload's, and a per-model time
# would read exactly 0 on the workloads that never call it.
PROPAGATORS = ("dynamics.propagate_two_body", "dynamics.propagate_cw")

# Per-layer metrics, in the order reported: name -> unit.
LAYER_METRICS = {
    "dynamics.rhs_evals": "count",
    "dynamics.propagate_two_body.calls": "count",
    "dynamics.propagate_cw.calls": "count",
    "dynamics.propagate.self_s": "s",
    "dynamics.chief_state.calls": "count",
    "dynamics.chief_state.self_s": "s",
    "dynamics.self_s": "s",
    "frames.hill_basis.calls": "count",
    "frames.hill_basis.self_s": "s",
    "frames.eci_to_hill.calls": "count",
    "frames.hill_to_eci.calls": "count",
    "frames.self_s": "s",
    "guidance.cw_target_impulse.calls": "count",
    "guidance.cw_target_impulse.self_s": "s",
    "guidance.self_s": "s",
    "campaign.run_campaign.calls": "count",
    "campaign.impulses": "count",
    "campaign.self_s": "s",
    "cli.parse_args.self_s": "s",
    "cli.emit_results.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# Measured around the traced call by the worker, not from spans.
CALLER_METRICS = ("cli.bytes_written", "trace.overhead_s")


class Tracer:
    """Spans of one traced pass, held in memory until the pass ends.

    A span is ``[name, start, end, parent_index, campaign_id]``; the parent
    is the innermost span open when the call began (-1 for the root) and the
    campaign id is the index of the enclosing ``run_campaign`` span.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._campaign = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_campaign = name == CAMPAIGN

        def traced(*args, **kwargs):
            index = len(spans)
            outer_campaign = self._campaign
            if opens_campaign:
                self._campaign = index
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._campaign]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._campaign = outer_campaign
            if opens_campaign:
                self.counters["campaign.impulses"] += len(result.impulses)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_rhs(self, fn):
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.counters["dynamics.rhs_evals"] += int(sol.nfev)
            return sol

        counted.__wrapped__ = fn
        return counted


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers and counters; restore them on exit."""
    saved = []
    try:
        for module_name, attr, span_name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        for module_name, attr in COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.count_rhs(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: Sequence[list], counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass: every LAYER_METRICS name except
    the CALLER_METRICS, which spans cannot give."""
    calls: Counter = Counter()
    by_name: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        by_name[name] += own
        by_layer[name.split(".")[0]] += own
    out = {
        "dynamics.rhs_evals": counters.get("dynamics.rhs_evals", 0),
        "campaign.impulses": counters.get("campaign.impulses", 0),
        "dynamics.propagate.self_s": sum(by_name[p] for p in PROPAGATORS),
    }
    for metric in LAYER_METRICS:
        if metric in out or metric in CALLER_METRICS:
            continue
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            out[metric] = calls[head]
        elif head in by_layer:
            out[metric] = by_layer[head]
        else:
            out[metric] = by_name[head]
    return out


def dominant_layer(metrics: Dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
