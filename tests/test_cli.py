import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pins import _EXITS, _PINNED_BYTES, _VALIDATE_SHA256, fly_exit_row
import rpodsim
from rpodsim import CampaignConfig
from rpodsim.cli import CSV_HEADER, RunManifest, _execute, emit_results, main, parse_args
from rpodsim.validate import validate_suite


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


def test_unknown_flag_is_usage_error():
    with pytest.raises(ValueError):
        parse_args(["validate", "--frob"])


def test_manifest_round_trip():
    manifest = parse_args(
        ["sweep", "--sizes-km", "1,10", "--impulses", "4,8", "--out", "r.csv"]
    )
    rebuilt = RunManifest(**json.loads(json.dumps(manifest._asdict())))
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


@pytest.mark.parametrize("argv, csv_sha, stdout_sha", _PINNED_BYTES.values(),
                         ids=_PINNED_BYTES.keys())
def test_output_bytes_are_pinned(argv, csv_sha, stdout_sha, tmp_path, capsys):
    # a change that only speeds the program up writes these bytes unchanged
    out = tmp_path / "pinned.csv"
    assert main(argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha


@pytest.mark.parametrize("name", _EXITS)
def test_documented_exit(name, tmp_path):
    # the rows python tests/pins.py flies; none once hung, wrote a file or
    # printed a traceback, and each returns within a second
    t0 = time.perf_counter()
    flown, documented = fly_exit_row(name, tmp_path)
    assert time.perf_counter() - t0 < 1.0
    assert flown == documented


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
    assert hashlib.sha256(stdout.encode()).hexdigest() == _VALIDATE_SHA256


def test_validate_prints_on_an_ascii_stdout():
    # every line validate prints is ASCII, so a stdout that encodes nothing
    # else takes the whole report and the run exits 0
    src = Path(rpodsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="ascii")
    proc = subprocess.run([sys.executable, "-m", "rpodsim.cli", "validate"], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode("ascii").splitlines()
    assert len(lines) == 7 and all(line.startswith("PASS  ") for line in lines)


def _assert_fails_on_its_residual(stdout, name):
    # validate prints FAIL with residual=nan and an exception note in
    # brackets when a check raises; a mutation must fail the check itself,
    # on a finite residual above the line's tolerance
    line = next(line for line in stdout.splitlines() if line.startswith(f"FAIL  {name} "))
    assert " [" not in line, line
    residual, tol = map(float, re.fullmatch(r".* residual=(\S+) tol=(\S+)", line).groups())
    assert math.isfinite(residual) and residual > tol, line


def _scale_stumpff_c(monkeypatch):
    import rpodsim.dynamics

    stumpff = rpodsim.dynamics._stumpff

    def scaled(z):
        c, s = stumpff(z)
        return c * (1.0 + 1e-9), s

    monkeypatch.setattr(rpodsim.dynamics, "_stumpff", scaled)


def _scale_sqrt_mu(monkeypatch):
    import rpodsim.dynamics

    monkeypatch.setattr(rpodsim.dynamics, "_SQRT_MU", rpodsim.dynamics._SQRT_MU * (1.0 + 1e-9))


def _flip_frame_term_in_the_leg_readout(monkeypatch):
    import rpodsim.dynamics

    read = rpodsim.dynamics._to_hill

    def flipped_read(orbit, c, s, position, velocity):
        (x, y, z, vx, vy, vz), n = read(orbit, c, s, position, velocity), orbit.n
        return x, y, z, vx - 2 * n * y, vy + 2 * n * x, vz

    monkeypatch.setattr(rpodsim.dynamics, "_to_hill", flipped_read)


def test_validate_detects_scaled_stumpff_c(monkeypatch, capsys):
    # a 1e-9 relative error in the two-body coast's Stumpff C moves a leg by
    # ~1e-5 km, which swamps the rho^2 departure at 10 m
    _scale_stumpff_c(monkeypatch)
    assert main(["validate"]) == 3
    _assert_fails_on_its_residual(capsys.readouterr().out, "two-body leg departs from CW as rho^2")


# faults inside the flown two-body leg, with what its co-orbital and energy
# checks read at 2000 km over 2.37 periods (unmutated ~2e-12 km and ~3e-16)
_LEG_MUTATIONS = {
    "stumpff_c_scaled": _scale_stumpff_c,  # ~1e-5 km, ~7e-10
    "sqrt_mu_scaled": _scale_sqrt_mu,  # ~1e-4 km, ~2e-9
    # ~1e-2 km, ~5e-4; the departure-as-rho^2 check reads positions only and passes
    "frame_term_flipped_in_readout": _flip_frame_term_in_the_leg_readout,
}


@pytest.mark.parametrize("mutation", _LEG_MUTATIONS)
def test_validate_leg_checks_detect_a_fault_in_the_flown_leg(mutation, monkeypatch, capsys):
    _LEG_MUTATIONS[mutation](monkeypatch)
    assert main(["validate"]) == 3
    stdout = capsys.readouterr().out
    _assert_fails_on_its_residual(stdout, "two-body leg co-orbital")
    _assert_fails_on_its_residual(stdout, "two-body leg energy drift")


def test_validate_detects_flipped_frame_term(monkeypatch, capsys):
    # omega x rho added where it is taken off, in both float transforms the
    # library and the flown leg share: the round trip cannot see it, the
    # leg's departure from CW can (it grows as rho)
    import rpodsim.dynamics
    import rpodsim.frames

    lift, read = rpodsim.frames._to_eci, rpodsim.frames._to_hill

    def flipped_lift(orbit, c, s, rel):
        (x, y, z, vx, vy, vz), n = rel, orbit.n
        return lift(orbit, c, s, (x, y, z, vx + 2 * n * y, vy - 2 * n * x, vz))

    def flipped_read(orbit, c, s, position, velocity):
        (x, y, z, vx, vy, vz), n = read(orbit, c, s, position, velocity), orbit.n
        return x, y, z, vx - 2 * n * y, vy + 2 * n * x, vz

    for module in (rpodsim.frames, rpodsim.dynamics):
        monkeypatch.setattr(module, "_to_eci", flipped_lift)
        monkeypatch.setattr(module, "_to_hill", flipped_read)
    assert main(["validate"]) == 3
    stdout = capsys.readouterr().out
    assert "PASS  frame round trip" in stdout
    _assert_fails_on_its_residual(stdout, "two-body leg departs from CW as rho^2")


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
    _assert_fails_on_its_residual(stdout, "closed relative orbit")
    # some in-plane flips fail the campaign through its burn cap, not a residual
    in_plane = not set(term) & {"z", "w"}
    assert f"{'FAIL' if in_plane else 'PASS'}  zero-mismatch campaign" in stdout


def test_validate_closed_orbit_flies_the_campaigns_cw_binding(monkeypatch, capsys):
    # the vx-vy coupling flipped only where campaigns look the CW coast up:
    # the closed-orbit check must fly that binding, not a twin of it
    import inspect

    import rpodsim.campaign
    import rpodsim.dynamics

    source = inspect.getsource(rpodsim.dynamics.cw_coast)
    assert source.count("uv * ") == 1
    namespace = dict(vars(rpodsim.dynamics))
    exec(source.replace("uv * ", "-uv * "), namespace)
    monkeypatch.setattr(rpodsim.campaign, "cw_coast", namespace["cw_coast"])
    assert main(["validate"]) == 3
    _assert_fails_on_its_residual(capsys.readouterr().out, "closed relative orbit")


def test_validate_reports_a_raising_check_and_goes_on(monkeypatch, capsys):
    import rpodsim.dynamics
    from rpodsim import KeplerNonConvergence

    def raising(*args):
        raise KeplerNonConvergence("injected")

    monkeypatch.setattr(rpodsim.dynamics, "_coast", raising)
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    coast = next(line for line in lines if line.startswith("FAIL  two-body leg co-orbital"))
    assert coast.endswith("[injected]")
    for check in ("transition matrix identity", "closed relative orbit", "zero-mismatch campaign"):
        assert any(line.startswith(f"PASS  {check}") for line in lines)


def test_validate_fails_a_nan_in_any_component(monkeypatch, capsys):
    # a NaN in the last component of the round trip is a failed check, not
    # a gap that max() skips over
    import rpodsim.validate

    read = rpodsim.validate.eci_to_hill
    monkeypatch.setattr(rpodsim.validate, "eci_to_hill",
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


def test_unresolvable_size_stops_the_run_before_any_campaign(monkeypatch, tmp_path, capsys):
    # every cell is validated before any flies: the 10 km cells of this
    # sweep are never flown
    import rpodsim.campaign

    flown = []
    original = rpodsim.campaign.run_campaign

    def record(config, **shared):  # a run passes the legs its campaigns share
        flown.append(config)
        return original(config, **shared)

    monkeypatch.setattr(rpodsim.campaign, "run_campaign", record)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sizes-km", "10,1e-6", "--impulses", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "size 1e-06 km is below 1e7 ulps" in err
    assert err.count("\n") == 1
    assert flown == []
    assert not out.exists()
