"""Every module-level import in the library is used in its module or listed
in the module's __all__, only the Birkhoff LMO imports scipy, and only
_checks.py imports numbers or operator; no linter is assumed installed."""

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


def import_sites(source, package):
    """Qualified name of the function or class around each import of package
    in source, or "<module>" for a module-level one."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module]
            else:
                modules = []
            if any(m.split(".")[0] == package for m in modules):
                sites.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


def test_only_the_birkhoff_lmo_imports_scipy():
    # scipy costs a third of a second and tens of MB to import, so only the
    # solver that needs it pays, on its first call
    sites = {path.name: import_sites(path.read_text(), "scipy") for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {
        "lmo.py": ["BirkhoffPolytope._minimize"]
    }


def test_a_scipy_import_is_found():
    source = "import scipy\ndef f():\n    from scipy.special import expit\n"
    source += "class C:\n    def g(self):\n        import scipy.optimize as o\n"
    source += "from .scipy import x\n"
    assert import_sites(source, "scipy") == ["<module>", "f", "C.g"]


@pytest.mark.parametrize("package", ["numbers", "operator"])
def test_only_the_checks_module_imports_the_number_rule(package):
    # a number or count a caller passes is checked by dcfw._checks alone, so
    # one mistake raises one exception type wherever it is made
    sites = {path.name: import_sites(path.read_text(), package) for path in MODULES}
    assert {name for name, s in sites.items() if s} <= {"_checks.py"}
