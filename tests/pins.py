"""The CLI's pinned output bytes, and a check of them that needs no pytest.

``test_cli.py::test_output_bytes_are_pinned`` reads the table below.  Run as
a script from the repository root,

    python tests/pins.py

it flies every pinned argv through ``rpodsim.cli.main`` (from ``src/``),
prints one PASS or FAIL line per pin and exits 1 if any exit code, CSV,
stdout or stderr differs, so the pins can be checked on an interpreter that
has no pytest installed.
"""

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check() -> int:
    """Fly each pinned argv and compare its bytes; 0 if every pin holds, else 1."""
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(check())
