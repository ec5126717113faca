"""Property test over the command line: every argv either runs to a finite
result or stops with a documented exit code and one line of stderr.

Examples mix ordinary values with extremes (0, negatives, 1e-300, 1e300,
inf, nan, empty lists, counts and laps of 1e7).  Ordinary runs stay small,
at most ~130 legs, so each example ends well inside its deadline.
Derandomized, so tier-1 runs the same examples every time.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rpodsim.cli import main

EXTREME_FLOATS = st.sampled_from(["0", "-1", "1e-300", "1e300", "inf", "-inf", "nan"])
EXTREME_INTS = st.sampled_from(["0", "-1", "10000000"])


def _sometimes(extreme, ordinary):
    # one value in eight is an extreme, so most runs get past validation
    return st.integers(0, 7).flatmap(lambda i: extreme if i == 0 else ordinary)


def _float(low, high):
    return _sometimes(EXTREME_FLOATS, st.floats(low, high).map(repr))


def _int(low, high):
    return _sometimes(EXTREME_INTS, st.integers(low, high).map(str))


def _list(element, max_size):
    return st.lists(element, max_size=max_size).map(",".join)


def _flags(required=False, **flags):
    """argv fragment: each flag with a drawn value, or, unless required,
    left out for its default."""
    pairs = [value.map(lambda v, f=flag: [f, v]) for flag, value in flags.items()]
    if not required:
        pairs = [st.one_of(st.just([]), pair) for pair in pairs]
    return st.tuples(*pairs).map(lambda drawn: sum(drawn, []))


COMMON = _flags(**{
    "--altitude-km": _float(200.0, 40000.0),
    "--truth": st.sampled_from(["two-body", "cw"]),
})
CIRCUMNAV_SETTINGS = _flags(**{"--laps": _int(1, 2)})

CIRCUMNAV = st.tuples(
    st.just(["circumnav", "--kind"]),
    st.sampled_from([["forced"], ["unforced"]]),
    _flags(True, **{"--size-km": _float(0.1, 500.0), "--impulses": _int(1, 8)}),
    CIRCUMNAV_SETTINGS,
    COMMON,
)
INTERCEPT = st.tuples(
    st.just(["intercept"]),
    _flags(**{"--offset-km": _float(0.0, 100.0), "--duration-min": _float(5.0, 600.0),
              "--impulses": _list(_int(1, 8), 3)}),
    COMMON,
)
SWEEP = st.tuples(
    st.just(["sweep"]),
    _flags(True, **{"--sizes-km": _list(_float(0.1, 500.0), 2),
              "--impulses": _list(_int(1, 8), 2)}),
    CIRCUMNAV_SETTINGS,
    COMMON,
)
ARGV = st.one_of(CIRCUMNAV, INTERCEPT, SWEEP).map(lambda parts: sum(parts, []))


def _floats_in(path: Path):
    lines = path.read_text().splitlines()[1:]
    assert lines
    return [float(v) for line in lines for v in line.split(",")[1:]]


@settings(derandomize=True, database=None, deadline=2000, max_examples=100)
@given(ARGV)
def test_every_argv_ends_in_a_documented_way(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        # a numpy warning would be a stray stderr line: make it escape instead
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), (code, err)
        if code == 0:
            assert err == ""
            assert all(math.isfinite(v) for v in _floats_in(out))
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert not out.exists()
