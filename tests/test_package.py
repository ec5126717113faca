import ast
from pathlib import Path

import rpodsim


def test_every_export_has_a_caller_in_the_package():
    # a name that only the tests load is API without a caller: delete it, or
    # move it to tests/reference.py if the tests compare against it
    loaded = set()
    for path in Path(rpodsim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(rpodsim.__all__) - loaded) == []


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
