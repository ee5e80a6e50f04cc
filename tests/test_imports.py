"""Every top-level import of a hypifs module is used in that module, every
top-level name a module defines is read somewhere in the package or
exported from `hypifs`, no module imports another's private names, and
only `ifs` imports a root solver."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hypifs"
SOURCES = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == [(1, "math")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(tree) -> dict:
    """{name: line} of the top-level functions, classes and assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node.lineno
    return out


def used_names(trees) -> set:
    """Names read in any of `trees`, as a variable or as an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def exported_names(init_tree) -> set:
    return {alias.asname or alias.name for node in init_tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_names(sources: dict) -> list:
    """(module, line, name) of every top-level definition in `sources`
    ({module name: source}) that no module reads and `__init__` does not
    export."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = used_names(trees.values())
    if "__init__" in trees:
        used |= exported_names(trees["__init__"])
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for name, line in defined_names(tree).items() if name not in used)


def test_detects_an_unused_name():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "X = 1\nY: int = 2\ndef f(): return X\ndef exported(): f()\nclass C: pass\n",
        "b": "from .a import Y\nY.attr\n",
    }
    assert unused_names(sources) == [("a", 5, "C")]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_top_level_names(module):
    assert [u for u in unused_names(SOURCES) if u[0] == module] == []


def imports_scipy_optimize(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.optimize") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if (node.module.startswith("scipy.optimize") or
                    (node.module == "scipy" and
                     any(a.name == "optimize" for a in node.names))):
                return True
    return False


def test_only_ifs_imports_scipy_optimize():
    """Every scalar root goes through `ifs.solve_root`, at one tolerance."""
    assert imports_scipy_optimize("from scipy import optimize\n")
    assert imports_scipy_optimize("def f():\n    import scipy.optimize as so\n")
    assert not imports_scipy_optimize("import scipy.sparse\n")
    assert [mod for mod, src in SOURCES.items()
            if mod != "ifs" and imports_scipy_optimize(src)] == []


def private_imports(source: str) -> list:
    """Names with one leading underscore that `source` imports from a
    hypifs module; dunders such as `__version__` are public."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "hypifs"):
            out += [a.name for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")]
    return out


def test_detects_a_private_import():
    assert private_imports("from .ifs import _freeze, poly\n") == ["_freeze"]
    assert private_imports("def f():\n    from hypifs.ifs import _a as b\n") == ["_a"]
    assert private_imports("from . import __version__\nfrom numpy import _x\n") == []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_private_imports_across_modules(module):
    assert private_imports(SOURCES[module]) == []
