import json
import math
import time

import pytest

from rpodsim import UsageError
from rpodsim.cli import CSV_HEADER, RunManifest, main, parse_args, validate_suite


def test_parse_sweep_grid():
    manifest = parse_args(
        [
            "sweep", "--sizes-km", "1,10,100,500,1000",
            "--impulses", "4,8,16,32,64", "--altitude-km", "2000",
            "--out", "results.csv",
        ]
    )
    assert manifest.subcommand == "sweep"
    assert manifest.params["sizes_km"] == [1, 10, 100, 500, 1000]
    assert manifest.params["impulse_counts"] == [4, 8, 16, 32, 64]
    assert manifest.params["altitude_km"] == 2000.0
    assert manifest.output_path == "results.csv"
    assert manifest.format == "csv"


def test_parse_intercept_defaults():
    manifest = parse_args(["intercept", "--altitude-km", "2000", "--out", "x.csv"])
    assert manifest.params["duration_s"] == 3600.0
    assert manifest.params["impulse_counts"] == [8]
    assert manifest.params["offset_km"] == 10.0
    assert manifest.params["truth_model"] == "two_body"


def test_parse_circumnav():
    manifest = parse_args(
        [
            "circumnav", "--kind", "forced", "--size-km", "25",
            "--impulses", "8", "--truth", "cw", "--out", "run.csv",
        ]
    )
    assert manifest.params["kind"] == "circle_forced"
    assert manifest.params["truth_model"] == "cw"
    assert manifest.params["circle_period_factor"] == 1.0


def test_missing_out_is_usage_error():
    with pytest.raises(UsageError):
        parse_args(["sweep", "--sizes-km", "1", "--impulses", "4"])


def test_bad_list_is_usage_error():
    with pytest.raises(UsageError):
        parse_args(["sweep", "--sizes-km", "1,banana", "--impulses", "4", "--out", "x"])


def test_unknown_flag_is_usage_error():
    with pytest.raises(UsageError):
        parse_args(["validate", "--frob"])


def test_manifest_round_trip():
    manifest = parse_args(
        ["sweep", "--sizes-km", "1,10", "--impulses", "4,8", "--out", "r.csv"]
    )
    rebuilt = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
    assert rebuilt == manifest


def test_usage_error_exit_code(capsys):
    assert main(["sweep", "--sizes-km", "1", "--impulses", "4"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_csv_output_schema(tmp_path):
    out = tmp_path / "run.csv"
    code = main(
        [
            "sweep", "--sizes-km", "1,10", "--impulses", "4",
            "--truth", "cw", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # header + 2 sizes x 1 count x 2 kinds
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["circle_forced", "nmc_unforced"] * 2


def test_csv_floats_parse_back_exactly(tmp_path):
    from rpodsim import CampaignConfig, run_campaign

    out = tmp_path / "run.csv"
    main(
        [
            "circumnav", "--kind", "unforced", "--size-km", "10",
            "--impulses", "4", "--truth", "cw", "--out", str(out),
        ]
    )
    row = out.read_text().splitlines()[1].split(",")
    result = run_campaign(
        CampaignConfig(
            maneuver_kind="nmc_unforced", chief_altitude=2000.0, size=10.0,
            impulse_count=4, truth_model="cw",
        )
    )
    # 17 significant digits are lossless for doubles
    assert float(row[4]) == result.total_dv
    assert float(row[5]) == result.insertion_dv
    assert float(row[6]) == result.max_waypoint_miss
    assert float(row[7]) == result.duration


def test_rerun_is_byte_identical(tmp_path):
    args = [
        "sweep", "--sizes-km", "1,10", "--impulses", "4,8",
        "--truth", "cw", "--out",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_mirror(tmp_path):
    out = tmp_path / "run.json"
    code = main(
        [
            "circumnav", "--kind", "forced", "--size-km", "5", "--impulses", "4",
            "--truth", "cw", "--out", str(out), "--format", "json",
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert list(rows[0].keys()) == CSV_HEADER.split(",")
    assert rows[0]["kind"] == "circle_forced"
    assert float(rows[0]["total_dv_km_s"]) >= 0.0


def test_intercept_summary_names_unforced(tmp_path, capsys):
    out = tmp_path / "intercept.csv"
    code = main(
        [
            "intercept", "--altitude-km", "2000", "--duration-min", "60",
            "--impulses", "4", "--out", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "unforced arm uses less dv" in stdout


def test_intercept_count_guard():
    with pytest.raises(UsageError):
        parse_args(["intercept", "--impulses", "1", "--out", "x.csv"])


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    assert stdout.count("PASS") == 6
    assert "residual=" in stdout


def test_validate_detects_tampered_mu(capsys):
    assert main(["validate", "--mu-km3-s2", "-398600.4418"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_validate_suite_reports_residuals():
    lines, ok = validate_suite()
    assert ok
    assert len(lines) == 6
    assert all("residual=" in line for line in lines)


def test_long_intercept_window_is_bounded(tmp_path):
    # 1e9 minutes is ~7.9e6 chief periods; closed-form coasts make each leg
    # O(1), where an integrator ran for minutes
    out = tmp_path / "long.csv"
    t0 = time.perf_counter()
    code = main(["intercept", "--duration-min", "1e9", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert code in (0, 2)
    if code == 0:
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])


def test_burn_at_orbital_speed_is_physics_error(tmp_path, capsys):
    # legs of ~1e6 chief periods make CW targeting ask for burns faster than
    # the chief itself; that is no relative-motion answer, so nothing is written
    out = tmp_path / "fling.csv"
    code = main(["intercept", "--duration-min", "1e9", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "circular speed" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_singular_window_message_is_short(tmp_path, capsys):
    code = main(["intercept", "--duration-min", "1e300", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "targeting singularity" in err
    assert len(err) < 200


def test_non_finite_input_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        [
            "circumnav", "--kind", "forced", "--size-km", "10", "--impulses", "4",
            "--altitude-km", "inf", "--out", str(out),
        ]
    )
    assert code == 1
    assert "finite" in capsys.readouterr().err


def test_too_few_circle_impulses_is_usage_error(tmp_path, capsys):
    # the circle plan needs three waypoints; config validation says so first
    code = main(
        ["sweep", "--sizes-km", "10", "--impulses", "2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "impulse_count >= 3" in capsys.readouterr().err


def test_subsurface_leg_is_physics_error(tmp_path, capsys):
    # a 9000 km circle about a chief at 2000 km altitude dips ~1000 km below
    # the surface; no result is written for it
    out = tmp_path / "deep.csv"
    code = main(
        [
            "circumnav", "--kind", "forced", "--size-km", "9000", "--impulses", "4",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "below the 6378.14 km floor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["circumnav", "--kind", "unforced", "--size-km", "10", "--impulses", "10000000",
         "--truth", "cw"],
        ["sweep", "--sizes-km", "10", "--impulses", "4", "--laps", "100000000",
         "--truth", "cw"],
        ["intercept", "--impulses", "10000000"],
    ],
)
def test_work_per_campaign_is_capped(argv, tmp_path, capsys):
    # each probe once built waypoints or flew legs until it was killed
    out = tmp_path / "x.csv"
    t0 = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 1
    assert elapsed < 1.0
    err = capsys.readouterr().err
    assert "legs a campaign may fly" in err
    assert err.count("\n") == 1
    assert not out.exists()
