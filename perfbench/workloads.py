"""Benchmark workloads: the CLI argv each one runs, and the rows it must produce.

Seed 0 gives the grids exactly as written below.  Any other seed jitters the
trajectory sizes by up to 3 % and the intercept window by up to 0.2 %, drawn
from the benchmark's own numpy Generator; the program sees only the argv.
The window jitter is small on purpose: the 48 h unforced coast sits 0.15
chief periods above a root of the CW targeting determinant (22.49 periods),
and a wider jitter would fly the intercept into that singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

ALTITUDE_KM = 2000.0  # the CLI's default, which every workload flies
SIZE_JITTER = 0.03
WINDOW_JITTER = 0.002

SWEEP_SIZES_KM = (1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 750.0, 1000.0)
SWEEP_IMPULSES = (4, 8, 16, 32, 64)

# Why each workload was chosen is in README.md.  BENCHMARK.json lists the
# first two; long_coast runs on request (see README.md).
WORKLOADS = ("sweep_grid", "sweep_cw_laps", "long_coast")


@dataclass(frozen=True)
class Row:
    """One campaign the CLI must report, in output order."""

    kind: str
    size_km: float
    impulse_count: int
    truth: str = "two_body"
    laps: int = 1
    duration_s: Optional[float] = None  # intercepts only

    @property
    def burns(self) -> int:
        """Burns flown, which equals the coasts (legs) flown."""
        if self.kind == "intercept_unforced":
            return 1
        return self.impulse_count * self.laps


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _jitter(rng: np.random.Generator, values, share: float) -> List[float]:
    return [float(_fmt(v * (1.0 + rng.uniform(-share, share)))) for v in values]


def build(name: str, seed: int) -> Tuple[List[str], List[Row]]:
    """Return (CLI argv without --out, expected rows in order) for a workload."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    rng = np.random.default_rng(seed)
    jitter = seed != 0
    if name == "long_coast":
        offset = _jitter(rng, [10.0], SIZE_JITTER)[0] if jitter else 10.0
        window = _jitter(rng, [2880.0], WINDOW_JITTER)[0] if jitter else 2880.0
        counts = (2, 3)
        argv = ["intercept", "--offset-km", _fmt(offset),
                "--duration-min", _fmt(window),
                "--impulses", ",".join(map(str, counts))]
        duration = window * 60.0  # as the CLI converts it
        rows = [Row("intercept_unforced", offset, 1, duration_s=duration)]
        rows += [Row("intercept_forced", offset, m, duration_s=duration) for m in counts]
        return argv, rows

    laps = 10 if name == "sweep_cw_laps" else 1
    truth = "cw" if laps > 1 else "two_body"
    sizes = _jitter(rng, SWEEP_SIZES_KM, SIZE_JITTER) if jitter else list(SWEEP_SIZES_KM)
    argv = ["sweep", "--sizes-km", ",".join(_fmt(s) for s in sizes),
            "--impulses", ",".join(map(str, SWEEP_IMPULSES))]
    if laps > 1:
        argv += ["--truth", "cw", "--laps", str(laps)]
    rows = [
        Row(kind, size, m, truth, laps)
        for size in sizes
        for m in SWEEP_IMPULSES
        for kind in ("circle_forced", "nmc_unforced")
    ]
    return argv, rows
