"""The CLI's pinned output bytes and ``validate``'s, its documented exits,
the numbers the library reads, the groups of numbers it reads, the Kepler
kernel's pinned bits, the campaigns that replay their last legs and the
checked value types, and a check of all of them, of the campaigns that
share legs in a run, and of the names the benchmark's tracer wraps, that
needs no pytest.

``test_cli.py::test_output_bytes_are_pinned`` reads the first table below,
``test_cli.py::test_validate_passes`` the sha256 after it,
``test_cli.py::test_documented_exit`` the second table,
``test_guidance.py::test_non_finite_inputs_are_rejected`` and
``test_guidance.py::test_numpy_and_int_inputs_give_the_bits_of_the_float_input``
the third, ``test_guidance.py::test_a_bad_group_is_refused`` the fourth,
``test_dynamics.py::test_kepler_core_is_pinned_bit_for_bit`` the fifth
and ``test_campaign.py::test_replay_row`` the sixth; only this script
flies the value types table, on each interpreter CI runs;
``test_campaign.py::test_a_swept_cell_flies_as_it_flies_alone`` calls
:func:`fly_shared_legs`; ``reference.py`` re-exports :func:`fly_every_leg`,
and ``test_package.py::test_every_traced_name_is_flown_or_inert`` reads
:func:`traced_names`.  Run as a script from the repository root,

    python -W error tests/pins.py

it flies every pinned argv, ``validate`` and every exits row through
``rpodsim.cli.main`` (from ``src/``), every inputs row with each value that
is no number,
every groups row with each value that is no group of its size,
every value type's valid and broken instance through each rebuild,
every Kepler row through ``rpodsim.dynamics._coast``,
every replay row through ``rpodsim.run_campaign`` and :func:`fly_every_leg`
and every campaign of the pinned argvs both in its run and alone, and looks
up every name that ``perfbench/spans.py``'s tracer wraps or counts.  It
prints one PASS or FAIL line per pin, one for each table, one for the
shared legs and one for the traced names, and exits 1 if any exit code,
CSV, stdout, stderr, end-state bit, error message or flown bit differs, a
campaign flies otherwise alone than in its run, a rebuilt value differs or
skips its checks, or a traced name does not resolve, so the pins can be
checked on an interpreter that has no pytest installed.
"""

import ast
import contextlib
import copy
import hashlib
import importlib
import io
import itertools
import math
import pickle
import platform
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

_GRID = ["sweep", "--sizes-km", "1,10,50,100,250,500,750,1000", "--impulses", "4,8,16,32,64"]
_PAIR = ["intercept", "--impulses", "2,3,4,8,16"]
# sha256 of the CSV and of stdout, as written since the float leg loop; the
# digits come from libm's cos, sin and hypot, and were taken with glibc on
# x86-64 Linux.  A change that means to move bytes re-pins these and says why.
_PINNED_BYTES = {
    "grid": (_GRID, "e93f748b759285f8e75e77a7612d6cd62d65e06fc1cf7a075d0cb449b5bd35c3",
             "8236285dd4edfceed23f6f9faa7cf258009b766ca8aa6729000f595e93c994c1"),
    "grid-cw-10-laps": (_GRID + ["--truth", "cw", "--laps", "10"],
                        "c27219bed7f16ccb2b5be0dd08390fcc86ad071661aad9367beb92f72b87c302",
                        "4685f6b7baa826d7f4db95dc3e355c3d58feb3b71164218ded1247d79f4a1849"),
    "intercept": (_PAIR, "1219f5e027c711043994029601375a819944b9c9256a6249a17ee7990e6c284a",
                  "4f8659893c458982132eff87151ae54c2842bccaba8c949c4b89f89d9156c649"),
    "intercept-cw": (_PAIR + ["--truth", "cw"],
                     "359ae0db986b6bb43ea4471815960e3d50dd3168bd244710c4446a14ab37bb76",
                     "17b25f1e12c98f1c296604631045b87f354a5b4d1b046fcced0798d4f738f2f7"),
}
# sha256 of the 7 lines `rpodsim validate` prints, which read the same on
# Python 3.10 to 3.13; test_cli.py::test_validate_passes reads it too
_VALIDATE_SHA256 = "bd6622c00498ac570a728b6ee3767a402cf4e1c5e3853985ff4693846e7e18c7"


# Every documented exit short of a result: the shell-quoted argv, {out} where
# it takes an output path; the exit code (1 usage, 2 physics); and the exact
# stderr line.  Flown with warnings as errors, no row prints to stdout or
# writes its file.  CW truth checks no surface: `sweep --sizes-km 2500
# --impulses 4 --truth cw` flies through the Earth to exit 0, and is no row
_CIRCLE = "circumnav --kind forced --size-km 10 --impulses 4"
_SWEEP = "sweep --sizes-km 10 --impulses 4"
_NEAR_CAP = ",".join(str(99999 - i) for i in range(40))  # under the campaign cap, over the run's
_SPEED = "reaches the chief's circular speed 6.89755 km/s"
_RANGE = "km is too large: its cube leaves double range above 5.64e+102 km"
_ULPS = ("usage error: size 10 km is below 1e7 ulps of the {} km chief radius, which two-body"
         " truth cannot resolve")
_SURFACE = "usage error: orbit radius 6378.14 km is not above the Earth surface"
_LEGS = "exceeds the 100000 legs a campaign may fly"
_RUN_LEGS = "legs exceed the 100000 legs a run may fly"
_NOT_FINITE = "error: burn at t = 0 s is not finite: the targeting solve overflowed"
_CW_FLOOR = ("usage error: size 4.94066e-324 km is below float_info.min / n**2 = 3.28283e-302 km,"
             " which CW truth cannot resolve")
_EXITS = {
    "bad-float-list": ("sweep --sizes-km 1,banana --impulses 4 --out {out}", 1,
                       "usage error: argument --sizes-km: bad float list '1,banana'"),
    "empty-float-list": ("sweep --sizes-km '' --impulses 4 --out {out}", 1,
                         "usage error: argument --sizes-km: empty float list ''"),
    "empty-int-list": ("intercept --impulses '' --out {out}", 1,
                       "usage error: argument --impulses: empty int list ''"),
    "comma-int-list": ("intercept --impulses , --out {out}", 1,
                       "usage error: argument --impulses: empty int list ','"),
    "missing-out": ("sweep --sizes-km 1 --impulses 4", 1,
                    "usage error: the following arguments are required: --out"),
    "unknown-flag": ("validate --frob", 1, "usage error: unrecognized arguments: --frob"),
    # the CSV row is the one output, and the forced circle flies the chief's period
    **{f"retired-{sub.split()[0]}{flags.replace('--', '-').replace(' ', '-')}": (
        f"{sub} {flags} --out {{out}}", 1, f"usage error: unrecognized arguments: {flags}")
       for sub in ("circumnav --kind forced --size-km 5 --impulses 4",
                   "sweep --sizes-km 5 --impulses 4")
       for flags in ("--format json", "--format csv", "--count-insertion-dv",
                     "--circle-period-factor 1.0")},
    "intercept-count": ("intercept --impulses 1 --out {out}", 1,
                        "usage error: intercept_forced needs impulse_count >= 2"),
    "circle-count": ("sweep --sizes-km 10 --impulses 2 --out {out}", 1,
                     "usage error: circle_forced needs impulse_count >= 3"),
    # legs of ~1e6 chief periods, where CW targeting asks for more than orbital speed
    "burn-at-circular-speed": ("intercept --duration-min 1e9 --out {out}", 2,
                               f"error: burn of 31.964 km/s at t = 7.5e+09 s {_SPEED}"),
    "singular-window": ("intercept --duration-min 1e300 --out {out}", 2,
                        "error: transfer angle n*ts = 4.93968e+298 rad is a targeting "
                        "singularity"),
    "altitude-inf": (f"{_CIRCLE} --altitude-km inf --out {{out}}", 1,
                     "usage error: chief_altitude must be finite, got inf"),
    "altitude-cube-overflow": (f"{_CIRCLE} --altitude-km 1e300 --out {{out}}", 1,
                               f"usage error: orbit radius 1e+300 {_RANGE}"),
    "sweep-altitude-cube-overflow": (f"{_SWEEP} --altitude-km 1e154 --out {{out}}", 1,
                                     f"usage error: orbit radius 1e+154 {_RANGE}"),
    # a 10 km offset added to these radii is lost to rounding
    "size-below-ulps": (f"{_CIRCLE} --altitude-km 1e25 --out {{out}}", 1,
                        _ULPS.format("1e+25")),
    "sweep-size-below-ulps": (f"{_SWEEP} --altitude-km 1e100 --out {{out}}", 1,
                              _ULPS.format("1e+100")),
    "altitude-rounds-to-surface": (f"{_CIRCLE} --altitude-km 1e-300 --out {{out}}", 1, _SURFACE),
    "altitude-zero": (f"{_CIRCLE} --altitude-km 0 --out {{out}}", 1, _SURFACE),
    # each overflows to a finite burn far beyond the cap before any coast
    "overflow-intercept": ("intercept --offset-km 1e300 --out {out}", 2,
                           f"error: burn of 1.51905e+297 km/s at t = 0 s {_SPEED}"),
    "overflow-intercept-cw": ("intercept --offset-km 1e300 --truth cw --out {out}", 2,
                              f"error: burn of 1.51905e+297 km/s at t = 0 s {_SPEED}"),
    "overflow-circumnav": ("circumnav --kind unforced --size-km 1e300 --impulses 4 --out {out}",
                           2, f"error: burn of 1.64656e+297 km/s at t = 0 s {_SPEED}"),
    "overflow-sweep-cw": ("sweep --sizes-km 1e200 --impulses 4 --truth cw --out {out}", 2,
                          f"error: burn of 1.48326e+197 km/s at t = 0 s {_SPEED}"),
    # the targeting solve reaches inf - inf, once read as "burn of nan km/s"
    "non-finite-burn-intercept": ("intercept --offset-km 1e308 --out {out}", 2, _NOT_FINITE),
    "non-finite-burn-intercept-cw": ("intercept --offset-km 1e308 --truth cw --out {out}", 2,
                                     _NOT_FINITE),
    "non-finite-burn-circumnav-forced-cw": ("circumnav --kind forced --size-km 1e308 --impulses 4 "
                                            "--truth cw --out {out}", 2, _NOT_FINITE),
    # a 3000 km circle in three legs about a chief at 2000 km dips ~600 km underground
    "subsurface-leg": ("circumnav --kind forced --size-km 3000 --impulses 3 --out {out}", 2,
                       "error: coast reaches radius 5779.21 km, below the 6378.14 km floor"),
    "escaping-leg": ("intercept --offset-km 3000 --duration-min 10 --impulses 2 --out {out}", 2,
                     "error: chaser at radius 11378.1 km moves at 8.87745 km/s, at or above "
                     "the escape speed 8.37044 km/s"),
    # a 9000 km circle or ellipse needs an insertion faster than the chief
    "insertion-forced-two-body": ("circumnav --kind forced --size-km 9000 --impulses 4 "
                                  "--truth two-body --out {out}", 2,
                                  f"error: burn of 13.3493 km/s at t = 0 s {_SPEED}"),
    "insertion-unforced-cw": ("circumnav --kind unforced --size-km 9000 --impulses 4 --truth cw "
                              "--out {out}", 2, f"error: burn of 14.819 km/s at t = 0 s {_SPEED}"),
    "leg-cap-circumnav": ("circumnav --kind unforced --size-km 10 --impulses 10000000 --truth cw "
                          "--out {out}", 1,
                          f"usage error: laps x impulse_count = 10000000 {_LEGS}"),
    "leg-cap-laps": (f"{_SWEEP} --laps 100000000 --truth cw --out {{out}}", 1,
                     f"usage error: laps x impulse_count = 400000000 {_LEGS}"),
    "leg-cap-intercept": ("intercept --impulses 10000000 --out {out}", 1,
                          f"usage error: laps x impulse_count = 10000000 {_LEGS}"),
    "run-cap-sweep": (f"sweep --sizes-km 10 --impulses {_NEAR_CAP} --truth cw --out {{out}}", 1,
                      f"usage error: the run's 7998360 {_RUN_LEGS}"),
    "run-cap-intercept": (f"intercept --impulses {_NEAR_CAP} --out {{out}}", 1,
                          f"usage error: the run's 3999181 {_RUN_LEGS}"),
    # no size is a null transfer: zero, -0 and sizes below CW truth's floor
    "zero-offset": ("intercept --offset-km 0 --impulses 4 --out {out}", 1,
                    "usage error: size must be positive, got 0"),
    "zero-offset-cw": ("intercept --offset-km 0 --impulses 4 --truth cw --out {out}", 1,
                       "usage error: size must be positive, got 0"),
    "negative-zero-offset-cw": ("intercept --offset-km=-0 --truth cw --impulses 2 --out {out}", 1,
                                "usage error: size must be positive, got -0"),
    "subnormal-size-cw": ("circumnav --kind unforced --size-km 5e-324 --impulses 4 --truth cw "
                          "--out {out}", 1, _CW_FLOOR),
    "subnormal-offset-cw": ("intercept --offset-km 5e-324 --truth cw --impulses 2 --out {out}", 1,
                            _CW_FLOOR),
}


# Every number a public dynamics, guidance or frames function reads:
# row -> (the parameter its messages name, a whole value in its range, the
# call with x in that place, from the package r).  With each of
# _NOT_NUMBERS in place of x, a row must raise a ValueError whose message
# begins with the parameter's name.  The coasts a leg map returns, the
# frame kernels and cw_target_impulse read nothing, since the leg loop
# feeds them floats it made, so the coast rows fly their leg only on the
# good value.  No row needs numpy
_NOT_NUMBERS = {"str": "1", "none": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                "int-beyond-double": 10**400}
_REST = (7000.0, 0.0, 0.0), (0.0, 7.0, 0.0)  # an inertial position and velocity
_NMC = (1.0, 0.0, 0.0, 0.0, -2e-3, 0.0)  # a Hill state near an NMC
_INPUTS = {
    "orbit-radius": ("radius", 8378, lambda r, x: r.TargetOrbit(x)),
    "orbit-altitude": ("altitude", 2000, lambda r, x: r.TargetOrbit.from_altitude(x)),
    "inertial-epoch": ("epoch", 60, lambda r, x: r.InertialState(x, *_REST)),
    "inertial-position": ("position[1]", 2,
                          lambda r, x: r.InertialState(0.0, (7000.0, x, 0.0), _REST[1])),
    "inertial-velocity": ("velocity[2]", 1,
                          lambda r, x: r.InertialState(0.0, _REST[0], (0.0, 7.0, x))),
    "basis-t": ("epoch t", 60, lambda r, x: r.hill_basis(r.TargetOrbit(8378.0), x)),
    "hill-to-eci-t": ("epoch t", 60, lambda r, x: r.hill_to_eci(r.TargetOrbit(8378.0), x, _NMC)),
    "hill-to-eci-rel": ("rel[4]", -2, lambda r, x: r.hill_to_eci(
        r.TargetOrbit(8378.0), 0.0, (1.0, 0.0, 0.0, 0.0, x, 0.0))),
    "two-body-coast-dt": ("dt", 600,
                          lambda r, x: r.dynamics.two_body_coast(r.TargetOrbit(8378.0), x)(_NMC)),
    "stm-n": ("n", 1, lambda r, x: r.cw_stm(x, 100.0)),
    "stm-dt": ("dt", 100, lambda r, x: r.cw_stm(1e-3, x)),
    "cw-coast-n": ("n", 1, lambda r, x: r.dynamics.cw_coast(x, 100.0)(_NMC)),
    "cw-coast-dt": ("dt", 100, lambda r, x: r.dynamics.cw_coast(1e-3, x)(_NMC)),
    "nmc-x0": ("x0", 3, lambda r, x: r.nmc_initial_state(x, 1e-3)),
    "nmc-n": ("n", 1, lambda r, x: r.nmc_initial_state(3.0, x)),
    "determinant-theta": ("theta", 3, lambda r, x: r.drift_determinant(x)),
    "targeting-n": ("n", 1, lambda r, x: r.cw_targeting(x, 100.0)),
    "targeting-ts": ("ts", 100, lambda r, x: r.cw_targeting(1e-3, x)),
    "impulse-t": ("t", 60, lambda r, x: r.ImpulseRecord(x, (1e-3, 0.0, 0.0))),
    "impulse-dv": ("dv[1]", 2, lambda r, x: r.ImpulseRecord(0.0, (1e-3, x, 0.0))),
    "circle-radius": ("radius", 3, lambda r, x: r.waypoints_circle(x, 4)),
    "nmc-plan-x0": ("x0", 3, lambda r, x: r.waypoints_nmc(x, 4)),
    "line-start": ("start[0]", 3, lambda r, x: r.waypoints_line((x, 0.0), (0.0, 0.0), 3)),
    "line-end": ("end[1]", 3, lambda r, x: r.waypoints_line((1.0, 0.0), (0.0, x), 3)),
}

# Every group of numbers a public frames or guidance function reads: row ->
# (the parameter its messages name, the group's size, the call with x in
# that place, from the package r).  With each of _NOT_GROUPS, made for the
# row's size, in place of x, a row must raise a ValueError whose message
# begins with the parameter's name: None, a scalar and text are no group,
# one item short or over is the wrong size, and an endless group must end
_NOT_GROUPS = {"none": lambda size: None, "float": lambda size: 1.0, "str": lambda size: "123",
               "bytes": lambda size: b"123", "short": lambda size: (1.0,) * (size - 1),
               "long": lambda size: (1.0,) * (size + 1),
               "endless": lambda size: itertools.repeat(1.0)}
_GROUPS = {
    "inertial-position": ("position", 3, lambda r, x: r.InertialState(0.0, x, _REST[1])),
    "inertial-velocity": ("velocity", 3, lambda r, x: r.InertialState(0.0, _REST[0], x)),
    "hill-to-eci-rel": ("rel", 6, lambda r, x: r.hill_to_eci(r.TargetOrbit(8378.0), 0.0, x)),
    "impulse-dv": ("dv", 3, lambda r, x: r.ImpulseRecord(0.0, x)),
    "line-start": ("start", 2, lambda r, x: r.waypoints_line(x, (0.0, 0.0), 3)),
    "line-end": ("end", 2, lambda r, x: r.waypoints_line((1.0, 0.0), x, 3)),
}

# Every checked value type, each of whose constructors runs its checks: type
# -> (how many leading fields its constructor takes, a valid instance from
# the package r, the fields of an instance that breaks the type's rule, made
# by tuple.__new__ past the checks, and the start of the ValueError it must
# raise).  Rebuilt by each of _REBUILDS, the valid instance must come back
# equal and of its type, and the broken one must raise its ValueError
_VALUE_TYPES = {
    "TargetOrbit": (1, lambda r: r.TargetOrbit(8378.0), (1.0, 1.0, 1.0),
                    "orbit radius 1 km is not above the Earth surface"),
    "ImpulseRecord": (2, lambda r: r.ImpulseRecord(60.0, (1e-3, 0.0, 0.0)),
                      (60.0, (math.inf, 0.0, 0.0), math.inf), "dv[0] must be finite, got inf"),
    "CampaignConfig": (7, lambda r: r.CampaignConfig("nmc_unforced", 2000.0, 10.0, 4),
                       ("nmc_unforced", 2000.0, -1.0, 4, None, "two_body", 1),
                       "size must be positive, got -1"),
    "InertialState": (3, lambda r: r.InertialState(60.0, *_REST),
                      (60.0, (0.0, 0.0, 0.0), _REST[1]), "position magnitude must be positive"),
}
# every way to rebuild a value from one, given the value and how many fields
# its constructor takes; copy.replace exists from Python 3.13
_REBUILDS = {
    "_make": lambda value, inputs: type(value)._make(value[:inputs]),
    "_replace": lambda value, inputs: value._replace(),
    **({"copy.replace": lambda value, inputs: copy.replace(value)}
       if hasattr(copy, "replace") else {}),
    "copy": lambda value, inputs: copy.copy(value),
    "deepcopy": lambda value, inputs: copy.deepcopy(value),
    "pickle": lambda value, inputs: pickle.loads(pickle.dumps(value)),
}

# dynamics._coast inputs (r0, v0 and duration, as float.hex) and the float.hex
# bits of its end state or its exception's class name and message, pinned
# from the class-based solver that _coast replaced; the cases cover both
# Stumpff branches, arcs that do and do not pass periapsis, a whole number of
# periods, and every error the core raises; the second field is
# _KEPLER_MAX_ITER.  The rows named for open orbits and their errors
# (hyperbola-*, parabola, anomaly-cap, double-range, no-convergence,
# no-bracket, newton-cap-after-the-bracket) keep their inputs and pin the
# escape error, for alpha < 0 and for alpha read as exactly 0, raised before
# any iteration whatever the cap.  The errors are named by string, so this
# table loads before src/ is on the path
_KEPLER_CORE_TABLE = [
    ("near-circular-m-64-taylor", 100,
     "0x1.05d91eb851eb8p+13 0x1.p+1 -0x1.p-1"
     " 0x1.0624dd2f1a9fcp-10 0x1.b99249144a560p+2 -0x0.0p+0 0x1.dcfe52e68993dp+6",
     "0x1.04976af6ba114p+13 0x1.9bb7161e3397ep+9 -0x1.fd891a64e3912p-2"
     " -0x1.598a1e4b57ffep-1 0x1.b76f8d1fac3bep+2 0x1.52520500b6ba8p-15"),
    ("near-circular-m-8-closed-form", 100,
     "0x1.05d91eb851eb8p+13 0x1.p+1 -0x1.p-1"
     " 0x1.0624dd2f1a9fcp-10 0x1.b99249144a560p+2 -0x0.0p+0 0x1.dcfe52e68993dp+9",
     "0x1.7278a09bf0e2ap+12 0x1.727fed162f6a0p+12 -0x1.6a25044e8585cp-2"
     " -0x1.37dcd3c59c9bep+2 0x1.38510962bb80ep+2 0x1.30f114b19630fp-12"),
    ("grid-leg-m-4", 100,
     "0x1.0da11eb851eb8p+13 -0x1.4000000000000p+5 0x1.8000000000000p+1"
     " 0x1.47ae147ae147bp-6 0x1.99718478a472bp+2 0x1.0624dd2f1a9fcp-10 0x1.dcfe52e68993dp+10",
     "0x1.fb1b5e513446dp+7 0x1.de6b7e1b0d2f8p+12 0x1.46c981d16b01cp+0"
     " -0x1.cec19c9889f37p+2 -0x1.2b314cfc5373bp-1 -0x1.561824d4dfe65p-9"),
    ("grid-leg-m-16", 100,
     "0x1.ec623d70a3d70p+12 0x1.c200000000000p+9 -0x1.c000000000000p+2"
     " -0x1.3333333333333p-2 0x1.eca4b7abd7a5ep+2 -0x1.0624dd2f1a9fcp-9 0x1.dcfe52e68993dp+8",
     "0x1.b951b0e6d5cefp+12 0x1.126acafb8467dp+12 -0x1.d4c7899786ef2p+2"
     " -0x1.81a127d890379p+1 0x1.b03318e51f4a4p+2 0x1.38aae5f3ef7d0p-11"),
    ("grid-leg-m-32", 100,
     "0x1.05d51eb851eb8p+13 -0x1.p+0 0x1.p-2"
     " -0x1.a36e2eb1c432dp-12 0x1.b981e6c677646p+2 0x1.4f8b588e368f1p-16 0x1.dcfe52e68993dp+7",
     "0x1.00cc9b062ab83p+13 0x1.98701a61d9db3p+10 0x1.ffdea478c87e6p-3"
     " -0x1.588f82c4102a7p+0 0x1.b10907e13b590p+2 -0x1.5879f7c83c2e3p-16"),
    ("ellipse-through-periapsis", 100,
     "0x1.ee90b21642c88p+11 -0x1.ac4e58c63ba3bp+12 0x0.0p+0"
     " 0x1.6ed32c1192af2p+2 0x1.52dbbad3320d0p+2 0x0.0p+0 0x1.7700000000000p+10",
     "0x1.66fcd5dbd627bp+12 0x1.214e87698f5efp+12 0x0.0p+0"
     " -0x1.09c9b44fc386cp+2 0x1.c8e044039d40cp+2 -0x0.0p+0"),
    ("ellipse-short-of-periapsis", 100,
     "0x1.86f954161981ep+12 0x1.c3753392f8591p+11 0x0.0p+0"
     " -0x1.a792a987fe900p+1 0x1.ede59220c5740p+2 0x0.0p+0 0x1.2c00000000000p+9",
     "0x1.9fc974648dc02p+11 0x1.cdbd35a5912e3p+12 0x0.0p+0"
     " -0x1.823b038c5bb0ep+2 0x1.2cf7e57cc6af4p+2 0x0.0p+0"),
    ("ellipse-over-2.5-periods", 100,
     "0x1.05d91eb851eb8p+13 0x1.p+1 -0x1.p-1"
     " 0x1.0624dd2f1a9fcp-10 0x1.b99249144a560p+2 -0x0.0p+0 0x1.2a1ef3d015fc6p+14",
     "-0x1.06294a080652ep+13 0x1.58ef5a5d3e613p+7 0x1.004e93930c53ep-1"
     " -0x1.1cd01be36bdc0p-3 -0x1.b8dc680054afcp+2 0x1.1473ef9f5bc82p-17"),
    ("two-whole-periods", 100,
     "0x1.05d11eb851eb8p+13 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.bddb9cd60240ap+2 0x0.0p+0 0x1.ebbeab95f91a5p+13",
     "0x1.05d11eb851eb8p+13 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.bddb9cd60240ap+2 0x0.0p+0"),
    # e = 0.51 from 20,000 km over 0.9 of its period: Curtis's start is poor
    # enough that one step falls back to bisection
    ("ellipse-by-bisection", 100,
     "0x1.3880000000000p+14 0x0.0p+0 0x0.0p+0"
     " 0x1.0b4f95b31e94ap+1 0x1.cefefb4db3bd8p+1 0x0.0p+0 0x1.4be0000000000p+14",
     "0x1.6f35a1c284a6ap+13 -0x1.ee96854a74389p+12 0x0.0p+0"
     " 0x1.4aa12a844abbcp+2 0x1.56b647951b00ap+1 0x0.0p+0"),
    ("hyperbola-bracket-growth", 100,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.8000000000000p+3 0x0.0p+0 0x1.3880000000000p+12",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 12 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("hyperbola-bracket-growth-fewest-iterations", 7,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.8000000000000p+3 0x0.0p+0 0x1.3880000000000p+12",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 12 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("hyperbola-through-periapsis", 100,
     "0x1.2d5c0d3796aedp+11 -0x1.ab4615ed91e0ap+13 0x0.0p+0"
     " 0x1.2ccd6a0fc2fbap+2 0x1.ff342711d9166p+2 0x0.0p+0 0x1.7700000000000p+11",
     ("UnboundOrbit", "chaser at radius 13883.7 km moves at 9.26776 km/s, at or above "
      "the escape speed 7.5776 km/s")),
    ("hyperbola-short-arc-taylor", 100,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.8000000000000p+3 0x0.0p+0 0x1.4000000000000p+4",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 12 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("hyperbola-by-bisection", 100,
     "0x1.eca0000000000p+13 0x0.0p+0 0x0.0p+0"
     " 0x1.1eb851eb851ecp-2 0x1.de147ae147ae1p+2 0x0.0p+0 0x1.1000000000000p+5",
     ("UnboundOrbit", "chaser at radius 15764 km moves at 7.47525 km/s, at or above "
      "the escape speed 7.11133 km/s")),
    # a fall from 1e6 km to a 6,833 km pass on an e ~ 5 hyperbola
    ("hyperbola-bisection-exit", 100,
     "0x1.e848000000000p+19 0x0.0p+0 0x0.0p+0"
     " -0x1.f5fa43fe5c91dp+3 0x1.feb18116ebd4dp-4 0x0.0p+0 0x1.f018000000000p+15",
     ("UnboundOrbit", "chaser at radius 1e+06 km moves at 15.6873 km/s, at or above "
      "the escape speed 0.892861 km/s")),
    ("parabola", 100,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.557ed1cfb9c2ep+3 0x0.0p+0 0x1.f400000000000p+9",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 10.6717 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("ellipse-climbing-from-below-the-floor", 100,
     "0x1.729a29f69f51bp+12 0x1.05637fde38f8ep+10 0x0.0p+0"
     " -0x1.3dc8a874564c1p+0 0x1.25e8278ea783cp+3 0x0.0p+0 0x1.2c00000000000p+8",
     ("SingularRadius", "coast reaches radius 6021.11 km, below the 6378.14 km floor")),
    ("ellipse-through-periapsis-below-the-floor", 100,
     "0x1.c68ba2e8ba2ebp+11 -0x1.89a5dd7ba06f9p+12 0x0.0p+0"
     " 0x1.6c379fa90ac15p+2 0x1.b4bcc2be5d708p+2 0x0.0p+0 0x1.2c00000000000p+10",
     ("SingularRadius", "coast reaches radius 6000 km, below the 6378.14 km floor")),
    ("hyperbola-through-periapsis-below-the-floor", 100,
     "0x1.0aaaaaaaaaaacp+12 -0x1.cde155cb14fdcp+12 0x0.0p+0"
     " 0x1.1ff0650e130d2p+2 0x1.4616e694ce1a4p+3 0x0.0p+0 0x1.e848000000000p+19",
     ("UnboundOrbit", "chaser at radius 8533.33 km moves at 11.1393 km/s, at or above "
      "the escape speed 9.6655 km/s")),
    ("anomaly-cap", 100,
     "0x1.05d0000000000p+13 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.e000000000000p+3 0x0.0p+0 0x1.7e43c8800759cp+996",
     ("UnboundOrbit", "chaser at radius 8378 km moves at 15 km/s, at or above "
      "the escape speed 9.7547 km/s")),
    ("double-range", 100,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.557ed1cfb9c2ep+3 0x0.0p+0 0x1.7e43c8800759cp+996",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 10.6717 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("no-convergence", 100,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.557ed1cfb9c2ep+3 0x0.0p+0 0x1.249ad2594c37dp+332",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 10.6717 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("no-bracket", 1,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.8000000000000p+3 0x0.0p+0 0x1.3880000000000p+12",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 12 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("newton-cap-after-the-bracket", 6,
     "0x1.b580000000000p+12 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x1.8000000000000p+3 0x0.0p+0 0x1.3880000000000p+12",
     ("UnboundOrbit", "chaser at radius 7000 km moves at 12 km/s, at or above "
      "the escape speed 10.6717 km/s")),
    ("newton-cap", 1,
     "0x1.05d91eb851eb8p+13 0x1.p+1 -0x1.p-1"
     " 0x1.0624dd2f1a9fcp-10 0x1.b99249144a560p+2 -0x0.0p+0 0x1.dcfe52e68993dp+9",
     ("KeplerNonConvergence", "universal Kepler solve for dt=953.987 s"
      " did not converge in 1 iterations")),
    # an orbit so wide that its alpha**1.5, and so its period's denominator,
    # underflows to zero
    ("period-beyond-double-range", 100,
     "0x1.485ce9e7a065fp+963 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
     ("KeplerNonConvergence", "orbit through radius 1e+290 km leaves double-precision range")),
    # a fall from rest at 2e205 km over half its period: the period, ~3.1e305 s,
    # is a double, but the Kepler residual over half of it is not
    ("coast-beyond-double-range", 100,
     "0x1.fe52048590673p+681 0x0.0p+0 0x0.0p+0"
     " 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.caeb1361be762p+1013",
     ("KeplerNonConvergence", "coast of 1.57355e+305 s leaves double-precision range")),
]


# multi-lap campaigns at 2000 km that the leg loop flies only until a
# post-burn state has the bits of the one m legs before it, and copies after:
# (kind, size km, impulse_count, truth, laps, the leg k whose state repeated,
# or None where every leg flies).  Each must be, as float.hex, the flight of
# every leg; the legs are as pinned with glibc on x86-64 Linux
_REPLAY_CASES = {
    "circle-cw-1-km-x4-10-laps": ("circle_forced", 1.0, 4, "cw", 10, 5),
    # its laps alternate between two starts
    "circle-cw-50-km-x4-10-laps": ("circle_forced", 50.0, 4, "cw", 10, None),
    "circle-cw-1-km-x3-2-laps": ("circle_forced", 1.0, 3, "cw", 2, 5),
    "circle-cw-50-km-x3-3-laps": ("circle_forced", 50.0, 3, "cw", 3, 4),
    "circle-cw-10-km-x8-3-laps": ("circle_forced", 10.0, 8, "cw", 3, 9),
    "nmc-cw-1-km-x3-3-laps": ("nmc_unforced", 1.0, 3, "cw", 3, 8),
    "nmc-cw-10-km-x4-2-laps": ("nmc_unforced", 10.0, 4, "cw", 2, 5),
    "nmc-cw-1000-km-x8-10-laps": ("nmc_unforced", 1000.0, 8, "cw", 10, 10),
    "circle-two-body-1-km-x8-2-laps": ("circle_forced", 1.0, 8, "two_body", 2, 11),
    "circle-two-body-50-km-x4-10-laps": ("circle_forced", 50.0, 4, "two_body", 10, 24),
    "circle-two-body-10-km-x3-10-laps": ("circle_forced", 10.0, 3, "two_body", 10, None),
    "nmc-two-body-10-km-x3-10-laps": ("nmc_unforced", 10.0, 3, "two_body", 10, 21),
    "nmc-two-body-1000-km-x8-10-laps": ("nmc_unforced", 1000.0, 8, "two_body", 10, 25),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fly_kepler_row(max_iter: int, given: str) -> tuple:
    """One Kepler row's outcome under its iteration cap, which is restored
    after: the float.hex bits of ``_coast``'s end state, or its exception's
    class name and message."""
    from rpodsim import dynamics

    x, y, z, u, v, w, duration = map(float.fromhex, given.split())
    saved, dynamics._KEPLER_MAX_ITER = dynamics._KEPLER_MAX_ITER, max_iter
    try:
        return tuple(map(float.hex, sum(dynamics._coast((x, y, z), (u, v, w), duration), ())))
    except Exception as exc:  # compared, never swallowed: a row pins its error
        return type(exc).__name__, str(exc)
    finally:
        dynamics._KEPLER_MAX_ITER = saved


def fly_exit_row(name: str, directory) -> tuple:
    """An exits row flown through ``rpodsim.cli.main`` with warnings as
    errors, {out} naming a file in ``directory``: its exit code, stdout,
    stderr and whether the file was written, as flown and as documented."""
    from rpodsim.cli import main

    command, code, line = _EXITS[name]
    out = Path(directory) / f"{name}.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        flown = main([arg.format(out=out) for arg in shlex.split(command)])
    return ((flown, stdout.getvalue(), stderr.getvalue(), out.exists()),
            (code, "", line + "\n", False))


def _raised(call) -> tuple:
    """The class name and message of what ``call()`` raised, or (None, None)."""
    try:
        call()
    except Exception as exc:  # compared, never swallowed: a row pins its error
        return type(exc).__name__, str(exc)
    return None, None


def fly_input_row(name: str, label: str) -> tuple:
    """An inputs row flown with ``_NOT_NUMBERS[label]`` in its place: the
    class name and message of what it raised, and the class name and the
    start of the message it must raise."""
    import rpodsim

    parameter, _, call = _INPUTS[name]
    return (_raised(lambda: call(rpodsim, _NOT_NUMBERS[label])),
            ("ValueError", f"{parameter} must "))


def fly_group_row(name: str, label: str) -> tuple:
    """A groups row flown with ``_NOT_GROUPS[label]`` of its size in its
    place, in the form :func:`fly_input_row` returns."""
    import rpodsim

    parameter, size, call = _GROUPS[name]
    return (_raised(lambda: call(rpodsim, _NOT_GROUPS[label](size))),
            ("ValueError", f"{parameter} must "))


def fly_value_type_row(name: str, rebuild: str) -> tuple:
    """A value type's valid and broken instances rebuilt by
    ``_REBUILDS[rebuild]``: the type and value of the first's rebuild and
    what the second's raised, as flown and as they must be."""
    import rpodsim

    inputs, build, broken, message = _VALUE_TYPES[name]
    value = build(rpodsim)
    again = _REBUILDS[rebuild]
    try:
        twin = again(value, inputs)
    except Exception as exc:  # compared, never swallowed
        twin = exc
    unchecked = tuple.__new__(type(value), broken)
    kind, raised = _raised(lambda: again(unchecked, inputs))
    return ((type(twin), twin, kind, (raised or "")[:len(message)]),
            (type(value), value, "ValueError", message))


def fly_every_leg(config) -> tuple:
    """(arrivals, burns, total_dv, max_waypoint_miss) of ``config``, every
    leg coasted and targeted in turn.

    This is the campaign leg loop without its replay: leg k coasts into
    arrival k, takes its miss against the point aimed at, and burns toward
    the next point, for all laps x impulse_count legs, with the magnitudes
    added in burn order.  It makes none of the loop's burn checks, so it is
    for configs that fly without error.
    """
    from rpodsim import (TargetOrbit, cw_target_impulse, cw_targeting, nmc_initial_state,
                         waypoints_circle, waypoints_line, waypoints_nmc)
    from rpodsim.dynamics import cw_coast, two_body_coast

    orbit = TargetOrbit.from_altitude(config.chief_altitude)
    n, m, kind = orbit.n, config.impulse_count, config.maneuver_kind
    closed = kind in ("nmc_unforced", "circle_forced")
    if closed:
        lap = orbit.period
        plan = (waypoints_nmc if kind == "nmc_unforced" else waypoints_circle)(config.size, m)
    else:
        lap, plan = config.duration, waypoints_line((config.size, 0.0), (0.0, 0.0), m + 1)
    tau = lap / m
    law = cw_targeting(n, tau)
    rel = (*plan[0], 0.0, 0.0, 0.0, 0.0)
    if closed:  # the insertion burn, whose dv is not in the total
        if kind == "nmc_unforced":
            dv = nmc_initial_state(config.size, n)[3:]
        else:
            dv = cw_target_impulse(rel, plan[1], 0.0, law)[0].dv
        rel = _burn(rel, dv)
    coast = cw_coast(n, tau) if config.truth_model == "cw" else two_body_coast(orbit, tau)
    legs = config.laps * m
    arrivals, burns = list(rel), []
    max_miss = total_dv = 0.0
    aim = plan[1]
    for k in range(1 if closed else 0, legs + 1):
        if k:
            rel = coast(rel)
            max_miss = max(max_miss, math.hypot(rel[0] - aim[0], rel[1] - aim[1]))
            arrivals += rel
        if closed or k < legs:
            aim = plan[(k + 1) % len(plan)]
            record, _ = cw_target_impulse(rel, aim, k * tau, law)
            burns += record.dv
            total_dv += record.magnitude
            rel = _burn(rel, record.dv)
    return tuple(arrivals), tuple(burns), total_dv, max_miss


def _burn(rel, dv):
    return (*rel[:3], *(v + d for v, d in zip(rel[3:], dv)))


def fly_replay_row(name: str) -> tuple:
    """A replay row flown by ``rpodsim.run_campaign`` and by
    :func:`fly_every_leg`: the float.hex bits of the arrivals, the burns,
    the total and the largest miss, and the leg whose state repeated, as
    flown and as they must be."""
    from rpodsim import CampaignConfig, run_campaign

    kind, size, count, truth, laps, replayed_from = _REPLAY_CASES[name]
    config = CampaignConfig(kind, 2000.0, size, count, truth_model=truth, laps=laps)
    result = run_campaign(config)

    def bits(arrivals, burns, total_dv, max_miss):
        return [*map(float.hex, arrivals)], [*map(float.hex, burns)], total_dv.hex(), max_miss.hex()

    return ((bits(result.arrivals, result.burns, result.total_dv, result.max_waypoint_miss),
             result.replayed_from),
            (bits(*fly_every_leg(config)), replayed_from))


def fly_shared_legs() -> dict:
    """Every campaign of the pinned runs, flown in its run, which builds the
    legs campaigns share once, and flown alone by ``rpodsim.run_campaign``:
    ``"{run}[{i}]"`` -> (in the run, alone), each the float.hex bits of the
    result's float fields, ``flown_arrivals`` and ``flown_burns`` included,
    and its ``replayed_from``."""
    from rpodsim import run_campaign
    from rpodsim.cli import _execute, parse_args

    def bits(result):
        return [[*map(float.hex, v)] if isinstance(v, tuple) else
                v.hex() if isinstance(v, float) else v for v in result[1:]]

    rows = {}
    for name, (argv, _, _) in _PINNED_BYTES.items():
        # the --out the CLI requires is checked, never written
        for i, result in enumerate(_execute(parse_args(argv + ["--out", "unwritten.csv"]))):
            rows[f"{name}[{i}]"] = bits(result), bits(run_campaign(result.config))
    return rows


def traced_names() -> list:
    """(module, name) of every binding ``perfbench/spans.py``'s tracer wraps
    (its BINDINGS) or counts (its COUNTED), read as literals, without
    running the benchmark's code.  The tracer raises on a name that does
    not resolve, so a cleanup that deletes one breaks every traced run."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(spans.read_text()).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("BINDINGS", "COUNTED")}
    return [entry[:2] for entry in tables["BINDINGS"]] + list(tables["COUNTED"])


def pinned_outcome(expected) -> tuple:
    """A row's pinned outcome in the form :func:`fly_kepler_row` returns."""
    if isinstance(expected, tuple):
        return expected
    return tuple(float.fromhex(bits).hex() for bits in expected.split())


def check() -> int:
    """Fly each pinned argv and ``validate``, each exits row, Kepler row and
    replay row and compare, fly each campaign of the pinned argvs alone and
    compare, fly each inputs row with each value that is no number and each
    groups row with each value that is no group of its size, rebuild each
    value type's valid and broken instance every way, and look up every
    traced name; 0 if every pin holds, every campaign flies alone as in its
    run, every inputs and groups row and every broken value raises its
    ValueError, every valid value comes back and every name resolves,
    else 1."""
    from rpodsim.cli import main

    failed = 0
    print(f"Python {platform.python_version()}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, csv_sha, stdout_sha) in _PINNED_BYTES.items():
            out = Path(tmp) / f"{name}.csv"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + ["--out", str(out)])
            got = (code, _sha256(out.read_bytes()) if out.exists() else None,
                   _sha256(stdout.getvalue().encode()), stderr.getvalue())
            ok = got == (0, csv_sha, stdout_sha, "")
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f"  got {got}"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["validate"])
    got = (code, _sha256(stdout.getvalue().encode()), stderr.getvalue())
    ok = got == (0, _VALIDATE_SHA256, "")
    failed += not ok
    print(f"{'PASS' if ok else 'FAIL'}  validate ({len(stdout.getvalue().splitlines())} lines)"
          + ("" if ok else f"  got {got}"))
    with tempfile.TemporaryDirectory() as tmp:
        exits = {name: fly_exit_row(name, tmp) for name in _EXITS}
    moved = [name for name, (flown, documented) in exits.items() if flown != documented]
    failed += bool(moved)
    print(f"{'FAIL' if moved else 'PASS'}  exits ({len(_EXITS)} rows)"
          + (f"  moved: {', '.join(moved)}" if moved else ""))
    moved = [name for name, max_iter, given, expected in _KEPLER_CORE_TABLE
             if fly_kepler_row(max_iter, given) != pinned_outcome(expected)]
    failed += bool(moved)
    print(f"{'FAIL' if moved else 'PASS'}  kepler-core ({len(_KEPLER_CORE_TABLE)} coasts)"
          + (f"  moved: {', '.join(moved)}" if moved else ""))
    replays = {name: fly_replay_row(name) for name in _REPLAY_CASES}
    moved = [name for name, (flown, pinned) in replays.items() if flown != pinned]
    failed += bool(moved)
    print(f"{'FAIL' if moved else 'PASS'}  replay ({len(_REPLAY_CASES)} campaigns)"
          + (f"  moved: {', '.join(moved)}" if moved else ""))
    shared = fly_shared_legs()
    moved = [name for name, (in_run, alone) in shared.items() if in_run != alone]
    failed += bool(moved)
    print(f"{'FAIL' if moved else 'PASS'}  shared legs ({len(shared)} campaigns)"
          + (f"  moved: {', '.join(moved)}" if moved else ""))
    for table, rows in (
            ("inputs", {f"{name}-{label}": fly_input_row(name, label)
                        for name in _INPUTS for label in _NOT_NUMBERS}),
            ("groups", {f"{name}-{label}": fly_group_row(name, label)
                        for name in _GROUPS for label in _NOT_GROUPS})):
        moved = [name for name, ((kind, message), (must, start)) in rows.items()
                 if kind != must or not message.startswith(start)]
        failed += bool(moved)
        print(f"{'FAIL' if moved else 'PASS'}  {table} ({len(rows)} calls)"
              + (f"  moved: {', '.join(moved)}" if moved else ""))
    rebuilt = {f"{name}-{rebuild}": fly_value_type_row(name, rebuild)
               for name in _VALUE_TYPES for rebuild in _REBUILDS}
    moved = [name for name, (flown, pinned) in rebuilt.items() if flown != pinned]
    failed += bool(moved)
    print(f"{'FAIL' if moved else 'PASS'}  value types ({len(_VALUE_TYPES)} types)"
          + (f"  moved: {', '.join(moved)}" if moved else ""))
    names = traced_names()
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    failed += bool(missing)
    print(f"{'FAIL' if missing else 'PASS'}  traced names ({len(names)} bindings)"
          + (f"  missing: {', '.join(missing)}" if missing else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(check())
