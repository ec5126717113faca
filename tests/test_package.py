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
# process, validate last, then prints whether the validate suite's module was
# loaded before and after validate ran, the numpy, scipy, dataclasses, inspect
# and typing modules that process loaded, and every module it loaded from
# outside the standard library apart from the program's own.
_FLY_EVERY_SUBCOMMAND = """
import contextlib, io, json, sys
import rpodsim.cli as cli
out = sys.argv[1]
runs = []
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
    suite_before = "rpodsim.validate" in sys.modules
    codes.append(cli.main(["validate"]))
loaded = {name: sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
          for name in ("numpy", "scipy", "dataclasses", "inspect", "typing")}
loaded["foreign"] = sorted(m for m in sys.modules if m.partition(".")[0]
                           not in sys.stdlib_module_names | {"rpodsim", "__main__"})
print(json.dumps({"codes": codes, "suite": [suite_before, "rpodsim.validate" in sys.modules],
                  **loaded}))
"""


def test_the_flown_path_loads_no_scipy(tmp_path):
    # numpy and scipy are test dependencies only: importing the program and
    # running every subcommand must load neither, not even on first use.  Nor
    # may it load dataclasses or inspect, whose import (and the ast, dis and
    # tokenize it pulls in) would cost every start of the CLI more than the
    # rest of its import, nor typing, which the value types and annotations
    # do without and whose import would cost every start a few ms.  -S keeps
    # the interpreter's site hooks out, so any module from outside the
    # standard library is one the program loaded
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", _FLY_EVERY_SUBCOMMAND, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 7
    # no campaign run loads the validate suite; validate loads it on demand
    assert report["suite"] == [False, True]
    assert report["numpy"] == []
    assert report["scipy"] == []
    assert report["dataclasses"] == []
    assert report["inspect"] == []
    assert report["typing"] == []
    assert report["foreign"] == []


def test_every_value_type_is_a_named_tuple_without_an_instance_dict():
    # each value type subclasses a collections.namedtuple and declares empty
    # __slots__, so its instances are bare tuples; only a campaign result
    # keeps a dict, for the views it caches
    from rpodsim.cli import RunManifest
    from rpodsim.guidance import Vector3
    config = rpodsim.CampaignConfig("nmc_unforced", 2000.0, 10.0, 4)
    values = [rpodsim.TargetOrbit(8000.0), rpodsim.InertialState(0.0, (8000.0, 0, 0), (0, 7, 0)),
              rpodsim.RelativeState(1.0, 0, 0, 0, 0, 0), Vector3(1.0, 2.0, 3.0),
              rpodsim.ImpulseRecord(0.0, (1, 2, 3)), config, RunManifest("validate", {}, None)]
    result = rpodsim.run_campaign(config)
    for value in [*values, result]:
        (base,) = type(value).__bases__
        assert base.__bases__ == (tuple,) and base._fields
        assert "__annotations__" not in vars(base)  # not built by typing.NamedTuple
    assert [type(v).__name__ for v in values if hasattr(v, "__dict__")] == []
    assert hasattr(result, "__dict__")


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
