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
