"""Correctness check of one pass's CSV against the expected rows and the
reference table, and the accuracy metric read from the same comparison.

A row passes when the pass exited 0, the row is the one expected at its
position, every float in it is finite, its total Δv is below the chief's
circular speed per burn flown (a larger burn would more than cancel the
chaser's whole orbital velocity), and the total is within

    max(REL_TOL * |reference|, burns * DV_ROUND_KM_S)

of the reference.  The second term is an absolute floor for totals that are
~0 (NMC under CW truth) and for the rounding left in every total: reading a
~7 km/s inertial velocity and an ~8,400 km position to double precision
leaves ~1e-14 km/s per burn, and the reference itself agrees with a looser
DOP853 run to ~1e-13 km/s per burn.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Optional, Sequence, Tuple

from oracle import MU_EARTH, R_EARTH
from workloads import Row

REL_TOL = 1e-4  # 12x the program's worst error today (7.95e-6)
DV_ROUND_KM_S = 1e-12
REL_FLOOR = 1e-9  # the accuracy metric never reads below this

FLOAT_COLUMNS = ("size_km", "altitude_km", "total_dv_km_s",
                 "insertion_dv_km_s", "max_miss_km", "duration_s")


def circular_speed(altitude_km: float) -> float:
    return math.sqrt(MU_EARTH / (R_EARTH + altitude_km))


def _row_failure(got: dict, want: Row, ref: float) -> Tuple[Optional[str], float]:
    """(reason the row fails or None, its relative Δv error).

    A row that cannot be compared with its reference reads error 0: it
    counts as failed, not as inaccurate.
    """
    if (got["kind"], float(got["size_km"]), int(got["impulse_count"])) != \
            (want.kind, want.size_km, want.impulse_count):
        return f"expected {want}, got {got['kind']} {got['size_km']} " \
               f"{got['impulse_count']}", 0.0
    values = {c: float(got[c]) for c in FLOAT_COLUMNS}
    bad = [c for c, v in values.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {', '.join(bad)}", 0.0
    dv = values["total_dv_km_s"]
    cap = want.burns * circular_speed(values["altitude_km"])
    if not 0.0 <= dv < cap:
        return f"total dv {dv:.6g} km/s outside [0, {cap:.6g})", 0.0
    diff = abs(dv - ref)
    allowance = want.burns * DV_ROUND_KM_S
    rel = diff / max(abs(ref), allowance) if diff > allowance else 0.0
    if diff > max(REL_TOL * abs(ref), allowance):
        return f"total dv {dv!r} vs reference {ref!r} (rel {rel:.3g})", rel
    return None, rel


def check_pass(code: int, output: str, expected: Sequence[Row],
               reference: Sequence[float]) -> Tuple[List[Optional[str]], float]:
    """Per expected row, the reason it failed (None if it passed); and the
    largest relative Δv error over the pass, floored at REL_FLOOR."""
    if code != 0:
        return [f"exit code {code}"] * len(expected), REL_FLOOR
    rows = list(csv.DictReader(io.StringIO(output)))
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"] * len(expected), REL_FLOOR
    failures, worst = [], REL_FLOOR
    for got, want, ref in zip(rows, expected, reference):
        try:
            reason, rel = _row_failure(got, want, ref)
        except (KeyError, TypeError, ValueError) as exc:
            reason, rel = f"unreadable row: {exc!r}", 0.0
        failures.append(reason)
        worst = max(worst, rel)
    return failures, worst
