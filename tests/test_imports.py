"""Every module-level import in the library is used in its module or listed
in the module's __all__; no linter is assumed installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcfw"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by the module body's imports that the module never reads
    and its __all__ does not list."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read - exported)


def test_the_library_is_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n"
    source += "__all__ = ['a']\nnp.ones(1)\n"
    assert unused_imports(source) == ["b", "os"]
