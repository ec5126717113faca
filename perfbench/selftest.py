"""Tests of the benchmark itself.

Run from the repository root with:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the program's own test collection:
the exact call counts below describe the program as it is flown today, and a
change that removes frame rebuilds or propagator calls is meant to move them.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import oracle  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Row  # noqa: E402


def _span(name, start, end, parent, campaign=-1):
    return [name, start, end, parent, campaign]


def test_self_times_of_nested_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("campaign.run_campaign", 0.5, 9.0, 0, 1),
        _span("dynamics.propagate_two_body", 2.0, 5.0, 1, 1),
        _span("frames.eci_to_hill", 5.0, 7.0, 1, 1),
        _span("frames.hill_basis", 5.5, 6.5, 3, 1),
        _span("cli.emit_results", 9.0, 9.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([1.0, 3.5, 3.0, 1.0, 1.0, 0.5])
    out = spans.summarize(tree, {"dynamics.rhs_evals": 7, "campaign.impulses": 2})
    assert out["frames.self_s"] == pytest.approx(2.0)
    assert out["frames.hill_basis.calls"] == 1
    assert out["frames.hill_basis.self_s"] == pytest.approx(1.0)
    assert out["dynamics.propagate.self_s"] == pytest.approx(3.0)
    assert out["campaign.self_s"] == pytest.approx(3.5)
    assert out["cli.self_s"] == pytest.approx(1.5)
    assert out["cli.emit_results.self_s"] == pytest.approx(0.5)
    assert out["dynamics.propagate_cw.calls"] == 0
    assert out["dynamics.rhs_evals"] == 7
    # self times partition the root span
    assert sum(out[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)
    assert spans.dominant_layer(out) == "campaign"
    assert set(out) | set(spans.CALLER_METRICS) == set(spans.LAYER_METRICS)


def _marks(durations, stretches):
    """Probe (start, end) marks: probes of the given durations, with the
    call's stretches of work between them."""
    marks, t = [], 0.0
    for d, gap in zip(durations, [*stretches, 0.0]):
        marks.append((t, t + d))
        t += d + gap
    return marks


def test_paced_time_reads_the_same_on_a_host_twice_as_slow():
    quick = pace.paced_time(_marks([1.0] * 6, [10.0] * 5), 1.0, 56.0)
    slow = pace.paced_time(_marks([2.0] * 6, [20.0] * 5), 1.0, 112.0)
    assert quick.cpu_s == pytest.approx(50.0) and quick.paced_s == pytest.approx(50.0)
    assert slow.cpu_s == pytest.approx(100.0) and slow.paced_s == pytest.approx(50.0)
    assert slow.probes == 6 and slow.wall_s == 112.0


def test_paced_time_follows_the_local_speed_and_ignores_one_slow_probe():
    # local medians of the 4 probes around each stretch: 1, 1, 1.5, 2, 2
    shift = pace.paced_time(_marks([1, 1, 1, 2, 2, 2], [10.0] * 5), 1.0, 0.0)
    assert shift.paced_s == pytest.approx(10 + 10 + 10 / 1.5 + 5 + 5)
    # an interrupt inside one probe moves no stretch
    spike = pace.paced_time(_marks([1, 1, 1, 50, 1, 1, 1], [10.0] * 6), 1.0, 0.0)
    assert spike.paced_s == pytest.approx(60.0)


def _spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return "done"


def test_pace_ticks_during_the_call_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    result, timing = pace.pace(lambda: _spin(0.2), pace.python_probe,
                               pace.PYTHON_PROBE_REF_S)
    assert result == "done"
    assert timing.probes > 2  # one before, one after, and ticks between
    assert 0.0 < timing.cpu_s < 0.2 < timing.wall_s + 0.05
    assert timing.paced_s > 0.0
    with pytest.raises(ZeroDivisionError):
        pace.pace(lambda: 1 / 0, pace.python_probe, pace.PYTHON_PROBE_REF_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_import_timer_reports_a_set_up_time(monkeypatch):
    import worker

    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    assert 0.0 < worker.time_import() < worker.IMPORT_TIMEOUT_S


def _bindings():
    import importlib

    names = [(m, a) for m, a, _ in spans.BINDINGS] + list(spans.COUNTED)
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in names}


def test_bindings_are_restored_even_on_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert all(getattr(fn, "__wrapped__", None) is before[key]
                       for key, fn in _bindings().items())
            raise RuntimeError("boom")
    assert _bindings() == before


def _csv(*rows):
    head = "kind,size_km,impulse_count,altitude_km,total_dv_km_s," \
           "insertion_dv_km_s,max_miss_km,duration_s\n"
    return head + "".join(",".join(map(str, r)) + "\n" for r in rows)


EXPECTED = [Row("circle_forced", 10.0, 4), Row("nmc_unforced", 10.0, 4, "cw", 10)]
REFERENCE = [0.05, 1e-11]


def test_check_accepts_good_rows():
    good = _csv(("circle_forced", 10, 4, 2000, 0.05000001, 0, 1e-3, 7631),
                ("nmc_unforced", 10, 4, 2000, 3e-11, 0, 1e-9, 7631))
    failures, worst = check.check_pass(0, good, EXPECTED, REFERENCE)
    assert failures == [None, None]
    assert worst == pytest.approx(2e-7)


@pytest.mark.parametrize("dv, reason", [
    ("nan", "non-finite"),
    ("1e9", "outside"),  # the physical cap: v_circ per burn
    ("0.0501", "reference"),  # 2e-3 relative, above REL_TOL
])
def test_check_rejects_bad_rows(dv, reason):
    bad = _csv(("circle_forced", 10, 4, 2000, dv, 0, 1e-3, 7631),
               ("nmc_unforced", 10, 4, 2000, 0, 0, 1e-9, 7631))
    failures, _ = check.check_pass(0, bad, EXPECTED, REFERENCE)
    assert reason in failures[0] and failures[1] is None


def test_check_holds_zero_rows_to_the_absolute_floor():
    # 40 burns allow 4e-11 km/s around a ~0 reference, and no more
    off = _csv(("circle_forced", 10, 4, 2000, 0.05, 0, 1e-3, 7631),
               ("nmc_unforced", 10, 4, 2000, 1e-9, 0, 1e-9, 7631))
    failures, _ = check.check_pass(0, off, EXPECTED, REFERENCE)
    assert failures[0] is None and "reference" in failures[1]


def test_check_fails_every_row_of_a_failed_or_short_pass():
    good = _csv(("circle_forced", 10, 4, 2000, 0.05, 0, 1e-3, 7631))
    assert all(check.check_pass(2, "", EXPECTED, REFERENCE)[0])
    assert all(check.check_pass(0, good, EXPECTED, REFERENCE)[0])
    swapped = _csv(("nmc_unforced", 10, 4, 2000, 0, 0, 1e-9, 7631),
                   ("circle_forced", 10, 4, 2000, 0.05, 0, 1e-3, 7631))
    assert all(check.check_pass(0, swapped, EXPECTED, REFERENCE)[0])


def test_seed_zero_is_the_stated_grid_and_other_seeds_jitter():
    argv, rows = workloads.build("sweep_grid", 0)
    assert argv == ["sweep", "--sizes-km", "1,10,50,100,250,500,750,1000",
                    "--impulses", "4,8,16,32,64"]
    assert len(rows) == 80 and sum(r.burns for r in rows) == 1984
    argv, rows = workloads.build("sweep_cw_laps", 0)
    assert argv[-4:] == ["--truth", "cw", "--laps", "10"]
    assert sum(r.burns for r in rows) == 19840
    argv, rows = workloads.build("long_coast", 0)
    assert argv == ["intercept", "--offset-km", "10", "--duration-min", "2880",
                    "--impulses", "2,3"]
    assert [r.burns for r in rows] == [1, 2, 3]

    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7)[0] != workloads.build(name, 0)[0]
    sizes = [float(s) for s in workloads.build("sweep_grid", 7)[0][2].split(",")]
    for got, base in zip(sizes, workloads.SWEEP_SIZES_KM):
        assert abs(got / base - 1) <= workloads.SIZE_JITTER + 1e-6
    window = float(workloads.build("long_coast", 7)[0][4])
    assert abs(window / 2880 - 1) <= workloads.WINDOW_JITTER + 1e-6


def test_manifest_matches_the_metrics_the_runner_prints():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS[:2])
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == spans.LAYER_METRICS


def _program_output(argv, tmp_path):
    from rpodsim.cli import main

    out = tmp_path / "program.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


SMALL_CASES = [
    (["sweep", "--sizes-km", "10,500", "--impulses", "4,16"],
     [Row(kind, size, m) for size in (10.0, 500.0) for m in (4, 16)
      for kind in ("circle_forced", "nmc_unforced")]),
    (["sweep", "--sizes-km", "10", "--impulses", "4", "--truth", "cw", "--laps", "3"],
     [Row("circle_forced", 10.0, 4, "cw", 3), Row("nmc_unforced", 10.0, 4, "cw", 3)]),
    (["intercept", "--duration-min", "30", "--impulses", "2,3"],
     [Row("intercept_unforced", 10.0, 1, duration_s=1800.0)]
     + [Row("intercept_forced", 10.0, m, duration_s=1800.0) for m in (2, 3)]),
]


@pytest.mark.parametrize("argv, rows", SMALL_CASES)
def test_oracle_agrees_with_the_program(argv, rows, tmp_path):
    reference = oracle.reference(rows, workloads.ALTITUDE_KM)
    output = _program_output(argv, tmp_path)
    failures, worst = check.check_pass(0, output, rows, reference)
    assert failures == [None] * len(rows) and worst < check.REL_TOL


def test_oracle_catches_a_change_in_the_programs_guidance(tmp_path, monkeypatch):
    import rpodsim.campaign
    from rpodsim.guidance import ImpulseRecord

    original = rpodsim.campaign.cw_target_impulse

    def off_by_a_thousandth(*args):
        record, v_plus = original(*args)
        return ImpulseRecord(record.t, record.dv * 1.001), v_plus

    monkeypatch.setattr(rpodsim.campaign, "cw_target_impulse", off_by_a_thousandth)
    argv, rows = SMALL_CASES[1]  # CW truth: the program's own laps cannot hide it
    output = _program_output(argv, tmp_path)
    failures, _ = check.check_pass(0, output, rows, oracle.reference(rows, 2000.0))
    assert "reference" in failures[0]


def _traced_counts(name, tmp_path):
    import rpodsim.cli as cli
    import worker

    argv, _ = workloads.build(name, 0)
    argv += ["--out", str(tmp_path / "out.csv")]
    counts, outputs = [], set()
    for _ in range(2):
        tracer = spans.Tracer()
        flown = worker._fly(cli, argv, tmp_path / "out.csv", tracer)
        assert flown["code"] == 0
        outputs.add(flown["output"])
        counts.append(spans.summarize(tracer.spans, tracer.counters))
    paced = worker._fly(cli, argv, tmp_path / "out.csv", probe=pace.numpy_probe())
    assert paced["paced_s"] > 0.0
    outputs.add(paced["output"])
    assert len(outputs) == 1, "tracing or pacing changed the program's output"
    assert {k: v for k, v in counts[0].items() if not k.endswith("_s")} == \
        {k: v for k, v in counts[1].items() if not k.endswith("_s")}
    return counts[0]


def test_traced_counts_repeat_on_sweep_grid(tmp_path):
    counts = _traced_counts("sweep_grid", tmp_path)
    assert counts["campaign.run_campaign.calls"] == 80
    assert counts["dynamics.propagate_two_body.calls"] == 1984
    assert counts["dynamics.chief_state.calls"] == 6112
    assert counts["frames.hill_basis.calls"] == 6112
    assert counts["guidance.cw_target_impulse.calls"] == 2024
    assert counts["dynamics.rhs_evals"] == 275720
    assert counts["campaign.impulses"] == 1984
    assert spans.dominant_layer(counts) == "dynamics"


def test_traced_counts_repeat_on_sweep_cw_laps(tmp_path):
    counts = _traced_counts("sweep_cw_laps", tmp_path)
    assert counts["dynamics.propagate_cw.calls"] == 19840
    assert counts["frames.hill_to_eci.calls"] == 19920
    assert counts["dynamics.propagate_two_body.calls"] == 0
    assert counts["dynamics.rhs_evals"] == 0
    assert spans.dominant_layer(counts) == "frames"


def test_runner_fails_without_a_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
