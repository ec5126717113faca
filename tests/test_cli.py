import json
import math
import time
import warnings
from dataclasses import asdict

import pytest

from rpodsim import CampaignConfig
from rpodsim.cli import (
    CSV_HEADER, RunManifest, _execute, emit_results, main, parse_args, validate_suite,
)


def test_parse_sweep_grid():
    manifest = parse_args(
        [
            "sweep", "--sizes-km", "1,10,100,500,1000",
            "--impulses", "4,8,16,32,64", "--altitude-km", "2000",
            "--out", "results.csv",
        ]
    )
    assert manifest.subcommand == "sweep"
    assert manifest.params["sizes"] == [1, 10, 100, 500, 1000]
    assert manifest.params["impulse_counts"] == [4, 8, 16, 32, 64]
    assert manifest.params["chief_altitude"] == 2000.0
    assert manifest.output_path == "results.csv"


def test_parse_intercept_defaults():
    manifest = parse_args(["intercept", "--altitude-km", "2000", "--out", "x.csv"])
    assert manifest.params["duration"] == 3600.0
    assert manifest.params["impulse_counts"] == [8]
    assert manifest.params["offset"] == 10.0
    assert manifest.params["truth_model"] == "two_body"


def test_parse_circumnav():
    manifest = parse_args(
        [
            "circumnav", "--kind", "forced", "--size-km", "25",
            "--impulses", "8", "--truth", "cw", "--out", "run.csv",
        ]
    )
    # the params are CampaignConfig's keyword arguments, nothing more
    assert CampaignConfig(**manifest.params) == CampaignConfig(
        maneuver_kind="circle_forced", chief_altitude=2000.0, size=25.0,
        impulse_count=8, truth_model="cw",
    )


def test_missing_out_is_usage_error():
    with pytest.raises(ValueError):
        parse_args(["sweep", "--sizes-km", "1", "--impulses", "4"])


def test_bad_list_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for argv in (
        ["sweep", "--sizes-km", "1,banana", "--impulses", "4"],
        ["sweep", "--sizes-km", "", "--impulses", "4"],
        ["intercept", "--impulses", ""],
        ["intercept", "--impulses", ","],
    ):
        with pytest.raises(ValueError):
            parse_args(argv + ["--out", str(out)])
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


def test_unknown_flag_is_usage_error():
    with pytest.raises(ValueError):
        parse_args(["validate", "--frob"])


def test_manifest_round_trip():
    manifest = parse_args(
        ["sweep", "--sizes-km", "1,10", "--impulses", "4,8", "--out", "r.csv"]
    )
    rebuilt = RunManifest(**json.loads(json.dumps(asdict(manifest))))
    assert rebuilt == manifest


def test_usage_error_exit_code(capsys):
    assert main(["sweep", "--sizes-km", "1", "--impulses", "4"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("bad_out", ["{tmp}/no_such_dir/x.csv", "{tmp}", "{tmp}/x.csv/", ""],
                         ids=["missing_dir", "a_dir", "trailing_slash", "empty"])
def test_unwritable_out_stops_the_run_before_any_campaign(bad_out, monkeypatch, tmp_path,
                                                          capsys):
    # an --out that cannot be a file once failed with exit 2 only at the
    # write, after every campaign of the run had flown
    import rpodsim.campaign

    flown = []
    monkeypatch.setattr(rpodsim.campaign, "run_campaign", flown.append)
    argv = ["sweep", "--sizes-km", "10", "--impulses", "4", "--truth", "cw",
            "--out", bad_out.format(tmp=tmp_path)]
    with pytest.raises(ValueError, match="--out"):
        parse_args(argv)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --out ")
    assert err.count("\n") == 1
    assert flown == []
    assert list(tmp_path.iterdir()) == []


def test_failed_write_is_runtime_error(monkeypatch, tmp_path, capsys):
    # an --out that passes the path check can still fail at the write, for
    # instance without permission: that stays exit 2
    import rpodsim.cli

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(rpodsim.cli, "open", refuse, raising=False)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--sizes-km", "10", "--impulses", "4", "--truth", "cw", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"


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
    from rpodsim import run_campaign

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


def test_retired_flags_are_usage_errors(tmp_path, capsys):
    # the CSV row is the one output: its total excludes the insertion, which
    # has its own column, and no other file format is written; the forced
    # circle flies one chief period a lap, like the NMC it is compared with
    out = tmp_path / "x.csv"
    for argv in (
        ["circumnav", "--kind", "forced", "--size-km", "5", "--impulses", "4"],
        ["sweep", "--sizes-km", "5", "--impulses", "4"],
    ):
        for flags in (["--format", "json"], ["--format", "csv"], ["--count-insertion-dv"],
                      ["--circle-period-factor", "1.0"]):
            assert main(argv + flags + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == f"usage error: unrecognized arguments: {' '.join(flags)}\n"
            assert not out.exists()


def test_cw_truth_summary_ratio_of_rounding_is_inf(tmp_path, capsys):
    # under CW truth the unforced arm's correction is exactly zero but for
    # ~1e-17 km/s of rounding, which once printed a ratio of ~7e14
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sizes-km", "10", "--impulses", "4", "--truth", "cw",
                 "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("size=10 km impulses=4: unforced arm uses less dv (")
    assert line.endswith(" vs 0.0300503 km/s, ratio inf)")


def test_two_body_summary_ratio_of_a_small_resolved_total_is_finite(tmp_path, capsys):
    # a 1 m offset's unforced correction is a few 1e-12 km/s but resolved:
    # the rounding floor is relative to the forced arm, not per burn
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sizes-km", "0.001", "--impulses", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == (
        "size=0.001 km impulses=4: unforced arm uses less dv "
        "(2.99222e-12 vs 3.00503e-06 km/s, ratio 1004280.449)"
    )


def test_null_intercept_summary_names_no_winner(tmp_path, capsys):
    # from the chief to the chief under CW truth both totals are exactly 0:
    # neither arm is cheaper, and 0 over 0 is no ratio
    out = tmp_path / "x.csv"
    assert main(["intercept", "--offset-km", "0", "--impulses", "4", "--truth", "cw",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "size=0 km impulses=4: neither arm uses dv (0 vs 0 km/s)\n"
    assert [line.split(",")[4] for line in out.read_text().splitlines()[1:]] == ["0", "0"]


def test_two_body_null_intercept_summary_names_no_winner(tmp_path, capsys):
    # from the chief to the chief under two-body truth the forced arm's total
    # is the rounding of lifting the chaser to R + x: no arm is cheaper, and
    # both totals are printed
    out = tmp_path / "x.csv"
    assert main(["intercept", "--offset-km", "0", "--impulses", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "size=0 km impulses=4: neither arm is cheaper at zero offset (0 vs 1.1735e-14 km/s)\n"
    )
    totals = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
    assert totals[0] == 0.0 and 0.0 < totals[1] < 1e-13


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(ValueError, match="unknown subcommand 'frob'"):
        _execute(RunManifest("frob", {}, None))


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


def test_intercept_count_guard(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["intercept", "--impulses", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "impulse_count >= 2" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_empty_result_set_is_usage_error(tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="empty result set"):
        emit_results([], RunManifest("sweep", {}, str(out)))
    assert not out.exists()


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    assert stdout.count("PASS") == 7
    assert "residual=" in stdout


def test_validate_detects_scaled_stumpff_c(monkeypatch, capsys):
    # a 1e-9 relative error in the two-body coast's Stumpff C moves a leg by
    # ~1e-5 km, which swamps the rho^2 departure at 10 m
    import rpodsim.dynamics

    stumpff = rpodsim.dynamics._stumpff

    def scaled(z):
        c, s = stumpff(z)
        return c * (1.0 + 1e-9), s

    monkeypatch.setattr(rpodsim.dynamics, "_stumpff", scaled)
    assert main(["validate"]) == 3
    assert "FAIL  two-body leg departs from CW as ρ²" in capsys.readouterr().out


def test_validate_detects_flipped_frame_term(monkeypatch, capsys):
    # omega x rho added where it is taken off, in both float transforms the
    # library and the flown leg share: the round trip cannot see it, the
    # leg's departure from CW can (it grows as rho)
    import rpodsim.dynamics
    import rpodsim.frames
    from rpodsim import RelativeState

    lift, read = rpodsim.frames._to_eci, rpodsim.frames._to_hill

    def flipped_lift(orbit, c, s, rel):
        n = orbit.n
        return lift(orbit, c, s, RelativeState(rel.x, rel.y, rel.z, rel.vx + 2 * n * rel.y,
                                               rel.vy - 2 * n * rel.x, rel.vz))

    def flipped_read(orbit, c, s, position, velocity):
        rel, n = read(orbit, c, s, position, velocity), orbit.n
        return RelativeState(rel.x, rel.y, rel.z, rel.vx - 2 * n * rel.y,
                             rel.vy + 2 * n * rel.x, rel.vz)

    for module in (rpodsim.frames, rpodsim.dynamics):
        monkeypatch.setattr(module, "_to_eci", flipped_lift)
        monkeypatch.setattr(module, "_to_hill", flipped_read)
    assert main(["validate"]) == 3
    stdout = capsys.readouterr().out
    assert "PASS  frame round trip" in stdout
    assert "FAIL  two-body leg departs from CW as ρ²" in stdout


# every nonzero term of the flown CW leg, named by what it carries into what
# (u, v, w stand for vx, vy, vz)
_CW_COAST_TERMS = {
    "xx": "radial_from_x", "xu": "radial_from_vx", "xv": "radial_from_vy",
    "yx": "along_track_from_x", "yy": "along_track_from_y",
    "yu": "along_track_from_vx", "yv": "along_track_drift",
    "ux": "vx_from_x", "uu": "vx_from_vx", "uv": "vx_vy_coupling",
    "vx": "vy_from_x", "vu": "vy_from_vx", "vv": "vy_from_vy",
    "zz": "cross_track_from_z", "zw": "cross_track_from_vz",
    "wz": "vz_from_z", "ww": "vz_from_vz",
}


@pytest.mark.parametrize("term", _CW_COAST_TERMS, ids=_CW_COAST_TERMS.values())
def test_validate_detects_a_sign_flip_in_the_flown_cw_leg(term, monkeypatch, capsys):
    # the coast that campaigns fly is compiled again with one term's sign
    # flipped, and bound wherever the package looks it up; the closed orbit
    # is checked from phase 1 rad over a fractional number of periods, so
    # even the terms that vanish over a whole period show.  The zero-mismatch
    # campaign flies in the orbit plane, so it sees every in-plane term and
    # none of the cross-track ones
    import inspect

    import rpodsim.campaign
    import rpodsim.dynamics

    source = inspect.getsource(rpodsim.dynamics.cw_coast)
    product = f"{term} * "
    assert source.count(product) == 1
    namespace = dict(vars(rpodsim.dynamics))
    exec(source.replace(product, "-" + product), namespace)
    for module in (rpodsim.dynamics, rpodsim.campaign):
        monkeypatch.setattr(module, "cw_coast", namespace["cw_coast"])
    assert main(["validate"]) == 3
    stdout = capsys.readouterr().out
    assert "FAIL  closed relative orbit" in stdout
    in_plane = not set(term) & {"z", "w"}
    assert f"{'FAIL' if in_plane else 'PASS'}  zero-mismatch campaign" in stdout


def test_validate_reports_a_raising_check_and_goes_on(monkeypatch, capsys):
    import rpodsim.cli
    from rpodsim import KeplerNonConvergence

    def raising(*args):
        raise KeplerNonConvergence("injected")

    monkeypatch.setattr(rpodsim.cli, "propagate_two_body", raising)
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    coast = next(line for line in lines if line.startswith("FAIL  two-body circular coast"))
    assert coast.endswith("[injected]")
    assert any(line.startswith("PASS  zero-mismatch campaign") for line in lines)


def test_validate_fails_a_nan_in_any_component(monkeypatch, capsys):
    # a NaN in the last component of the round trip is a failed check, not
    # a gap that max() skips over
    import rpodsim.cli

    read = rpodsim.cli.eci_to_hill
    monkeypatch.setattr(rpodsim.cli, "eci_to_hill",
                        lambda orbit, chaser: read(orbit, chaser)._replace(vz=float("nan")))
    assert main(["validate"]) == 3
    assert "FAIL  frame round trip             residual=nan" in capsys.readouterr().out


def test_validate_suite_reports_residuals():
    lines, ok = validate_suite()
    assert ok
    assert len(lines) == 7
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
    # an altitude above ~5.6e102 km is finite, but its orbit radius cubed is
    # not; well below that, a 10 km offset added to the orbit radius is lost
    # to rounding, and two-body truth once flew it to a 3.96e84 km miss
    out = tmp_path / "x.csv"
    circle = ["circumnav", "--kind", "forced", "--size-km", "10", "--impulses", "4"]
    sweep = ["sweep", "--sizes-km", "10", "--impulses", "4"]
    for argv, message in (
        (circle + ["--altitude-km", "inf"], "finite"),
        (circle + ["--altitude-km", "1e300"], "its cube leaves double range"),
        (sweep + ["--altitude-km", "1e154"], "its cube leaves double range"),
        (circle + ["--altitude-km", "1e25"], "below 1e7 ulps"),
        (sweep + ["--altitude-km", "1e100"], "below 1e7 ulps"),
        # an altitude whose radius rounds to the Earth's is not above it
        (circle + ["--altitude-km", "1e-300"],
         "orbit radius 6378.14 km is not above the Earth surface"),
        (circle + ["--altitude-km", "0"], "orbit radius 6378.14 km is not above the Earth surface"),
    ):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert not out.exists()


_OVERFLOWS = [
    ["intercept", "--offset-km", "1e300"],
    ["intercept", "--offset-km", "1e300", "--truth", "cw"],
    ["circumnav", "--kind", "unforced", "--size-km", "1e300", "--impulses", "4"],
    ["sweep", "--sizes-km", "1e200", "--impulses", "4", "--truth", "cw"],
]


@pytest.mark.parametrize("argv", _OVERFLOWS, ids=[f"argv{i}" for i in range(len(_OVERFLOWS))])
def test_overflow_is_one_stderr_line(argv, tmp_path, capsys):
    # each run overflows before a burn or coast check stops it; numpy's
    # RuntimeWarnings once added two lines to the one-line error
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


_NON_FINITE_BURNS = [
    ["intercept", "--offset-km", "1e308"],
    ["intercept", "--offset-km", "1e308", "--truth", "cw"],
    ["circumnav", "--kind", "forced", "--size-km", "1e308", "--impulses", "4", "--truth", "cw"],
]


@pytest.mark.parametrize("argv", _NON_FINITE_BURNS,
                         ids=["intercept", "intercept_cw", "circumnav_forced_cw"])
def test_non_finite_burn_is_reported_as_not_finite(argv, tmp_path, capsys):
    # the targeting solve reaches inf - inf on these offsets; the error once
    # read "burn of nan km/s ... reaches the chief's circular speed"
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "burn at t = 0 s is not finite: the targeting solve overflowed" in err
    assert "nan" not in err
    assert not out.exists()


def test_too_few_circle_impulses_is_usage_error(tmp_path, capsys):
    # the circle plan needs three waypoints; config validation says so first
    code = main(
        ["sweep", "--sizes-km", "10", "--impulses", "2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "impulse_count >= 3" in capsys.readouterr().err


def test_subsurface_leg_is_physics_error(tmp_path, capsys):
    # a 3000 km circle flown in three legs about a chief at 2000 km altitude
    # dips ~600 km below the surface; no result is written for it
    out = tmp_path / "deep.csv"
    code = main(
        [
            "circumnav", "--kind", "forced", "--size-km", "3000", "--impulses", "3",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "below the 6378.14 km floor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, truth", [("forced", "two-body"), ("unforced", "cw")])
def test_insertion_at_orbital_speed_is_physics_error(kind, truth, tmp_path, capsys):
    # a 9000 km circle or ellipse about a chief at 2000 km altitude needs an
    # insertion faster than the chief itself (13.3 and 14.8 km/s); the
    # insertion is checked like every burn, under either truth
    out = tmp_path / "deep.csv"
    code = main(
        [
            "circumnav", "--kind", kind, "--size-km", "9000", "--impulses", "4",
            "--truth", truth, "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "at t = 0 s reaches the chief's circular speed" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_unresolvable_size_stops_the_run_before_any_campaign(monkeypatch, tmp_path, capsys):
    # every cell is validated before any flies: the 10 km cells of this
    # sweep are never flown
    import rpodsim.campaign

    flown = []
    original = rpodsim.campaign.run_campaign
    monkeypatch.setattr(rpodsim.campaign, "run_campaign",
                        lambda config: flown.append(config) or original(config))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sizes-km", "10,1e-6", "--impulses", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "size 1e-06 km is below 1e7 ulps" in err
    assert err.count("\n") == 1
    assert flown == []
    assert not out.exists()


# forty burn counts just under 1e5: no campaign exceeds the cap, the run does
_NEAR_CAP_COUNTS = ",".join(str(99999 - i) for i in range(40))
_CAPPED = [
    (["circumnav", "--kind", "unforced", "--size-km", "10", "--impulses", "10000000",
      "--truth", "cw"], "legs a campaign may fly"),
    (["sweep", "--sizes-km", "10", "--impulses", "4", "--laps", "100000000",
      "--truth", "cw"], "legs a campaign may fly"),
    (["intercept", "--impulses", "10000000"], "legs a campaign may fly"),
    (["sweep", "--sizes-km", "10", "--impulses", _NEAR_CAP_COUNTS, "--truth", "cw"],
     "7998360 legs exceed the 100000 legs a run may fly"),
    (["intercept", "--impulses", _NEAR_CAP_COUNTS],
     "3999181 legs exceed the 100000 legs a run may fly"),
]


@pytest.mark.parametrize("argv, message", _CAPPED,
                         ids=[f"argv{i}" for i in range(len(_CAPPED))])
def test_work_per_campaign_is_capped(argv, message, tmp_path, capsys):
    # each probe once built waypoints or flew legs until it was killed
    out = tmp_path / "x.csv"
    t0 = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 1
    assert elapsed < 1.0
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()
