import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rpodsim
from pins import traced_names

SRC = Path(rpodsim.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _loaded_in_the_package():
    """Every name and attribute loaded by the package's modules, the
    package root left out."""
    loaded = set()
    for path in Path(rpodsim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_export_has_a_caller_in_the_package():
    # a name that only the tests load is API without a caller: delete it, or
    # move it to tests/reference.py if the tests compare against it
    assert sorted(set(rpodsim.__all__) - _loaded_in_the_package()) == []


def test_every_exported_exception_is_raised_in_the_package():
    # an exception type that the package only names in an except clause is
    # an error no input reaches; a base class is raised through a subclass
    raised = set()
    for path in Path(rpodsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    raised_types = [getattr(rpodsim, name) for name in raised if hasattr(rpodsim, name)]
    exported = [getattr(rpodsim, name) for name in rpodsim.__all__]
    exceptions = [t for t in exported if isinstance(t, type) and issubclass(t, BaseException)]
    assert exceptions
    assert [t.__name__ for t in exceptions
            if not any(issubclass(r, t) for r in raised_types)] == []


# Imports the CLI and flies every subcommand under both truths in one fresh
# process, then prints the numpy, scipy, dataclasses and inspect modules that
# process loaded, and every module it loaded from outside the standard library
# apart from the program's own.
_FLY_EVERY_SUBCOMMAND = """
import contextlib, io, json, sys
import rpodsim.cli as cli
out = sys.argv[1]
runs = [["validate"]]
for truth in ("two-body", "cw"):
    runs += [
        ["circumnav", "--kind", "forced", "--size-km", "10", "--impulses", "4",
         "--truth", truth, "--out", f"{out}/circumnav-{truth}.csv"],
        ["intercept", "--impulses", "2,4", "--truth", truth,
         "--out", f"{out}/intercept-{truth}.csv"],
        ["sweep", "--sizes-km", "1,10", "--impulses", "4", "--truth", truth,
         "--out", f"{out}/sweep-{truth}.csv"],
    ]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
loaded = {name: sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
          for name in ("numpy", "scipy", "dataclasses", "inspect")}
loaded["foreign"] = sorted(m for m in sys.modules if m.partition(".")[0]
                           not in sys.stdlib_module_names | {"rpodsim", "__main__"})
print(json.dumps({"codes": codes, **loaded}))
"""


def test_the_flown_path_loads_no_scipy(tmp_path):
    # numpy and scipy are test dependencies only: importing the program and
    # running every subcommand must load neither, not even on first use.  Nor
    # may it load dataclasses or inspect, whose import (and the ast, dis and
    # tokenize it pulls in) would cost every start of the CLI more than the
    # rest of its import.  -S keeps the interpreter's site hooks out, so any
    # module from outside the standard library is one the program loaded
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", _FLY_EVERY_SUBCOMMAND, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 7
    assert report["numpy"] == []
    assert report["scipy"] == []
    assert report["dataclasses"] == []
    assert report["inspect"] == []
    assert report["foreign"] == []


def test_every_traced_name_is_flown_or_inert():
    # the export rule above, for the names the benchmark's tracer wraps or
    # counts: each is loaded somewhere in the package, or is a None
    # placeholder that only keeps the tracer from raising, never a function
    # that exists for the benchmark alone
    loaded = _loaded_in_the_package()
    idle = [f"{module}.{name}" for module, name in traced_names()
            if getattr(importlib.import_module(module), name) is not None
            and name not in loaded]
    assert idle == []


def test_every_binding_the_benchmark_tracer_wraps_resolves():
    # the tracer raises on a binding that does not resolve, so a cleanup that
    # deletes one of these names breaks every traced benchmark run; its two
    # tables are read as literals, without running the benchmark's code
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(SPANS.read_text()).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("BINDINGS", "COUNTED")}
    assert tables["BINDINGS"]
    bindings = [entry[:2] for entry in tables["BINDINGS"]] + list(tables["COUNTED"])
    unresolved = [(module, name) for module, name in bindings
                  if not hasattr(importlib.import_module(module), name)]
    assert unresolved == []


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]

    # the program runs on the standard library alone
    assert project["dependencies"] == []
    assert {"numpy", "scipy"} <= set(names(project["optional-dependencies"]["test"]))
