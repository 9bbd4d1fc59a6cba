"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import starflow

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "starflow").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; names listed in ``__all__``
    and names read only inside string annotations count as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _names_read(tree: ast.AST) -> set[str]:
    """Every name that a node reads: plain names, attribute names and the
    names an import pulls in."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_no_dead_private_helpers():
    # a module-level _helper must be read somewhere in the package outside
    # its own definition
    defined, read = {}, set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_"):
                defined[node.name] = path.name
                read |= _names_read(node) - {node.name}
            else:
                read |= _names_read(node)
    assert sorted(f"{name} ({module})" for name, module in defined.items()
                  if name not in read) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


# standard library names that lead with an underscore and are documented as
# public: os._exit ends a forked worker without the parent's clean-up
DOCUMENTED_UNDERSCORE_NAMES = {"os._exit"}


def _foreign_private_reads(tree: ast.AST) -> list[str]:
    """Reads of another object's private names: ``obj._x`` where obj is not
    ``self`` or ``cls``, and ``from .m import _x``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and not (
                isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")) and \
                ast.unparse(node) not in DOCUMENTED_UNDERSCORE_NAMES:
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [f"from {module} import {alias.name} (line {node.lineno})"
                      for alias in node.names if _is_private(alias.name)]
    return found


def test_foreign_private_reads_are_found():
    tree = ast.parse("from .walk import _lists, WalkWindow\n"
                     "w._lists()\nself._lists()\ncls._cache\nw.__len__()\n"
                     "os._exit(0)\nos._wrap_close\nfrom os import _exit\n")
    assert sorted(_foreign_private_reads(tree)) == [
        "from .walk import _lists (line 1)", "from os import _exit (line 8)",
        "os._wrap_close (line 7)", "w._lists (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_foreign_private_reads(path):
    # a module reaches another object only through its public names, so a
    # representation such as WalkWindow's cached lists can change in one place
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _foreign_private_reads(tree) == []


def test_package_exports_are_bound():
    # a name left in __all__ after its definition is gone breaks `import *`
    assert [name for name in starflow.__all__ if not hasattr(starflow, name)] == []


def _function_level_package_imports(tree: ast.AST) -> list[str]:
    """Imports from inside the package made in a function body: relative
    imports and imports of ``starflow``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "starflow"):
                found.append(f"from {'.' * node.level}{node.module or ''} import "
                             f"(line {node.lineno})")
            elif isinstance(node, ast.Import):
                found += [f"import {alias.name} (line {node.lineno})" for alias in node.names
                          if alias.name.split(".")[0] == "starflow"]
    return sorted(set(found))


def test_function_level_package_imports_are_found():
    tree = ast.parse("from .chain import a\n"
                     "def f():\n    from .chain import b\n    from scipy.optimize import c\n"
                     "class K:\n    def g(self):\n        import starflow.walk\n"
                     "        from starflow import d\n        from . import e\n")
    assert _function_level_package_imports(tree) == [
        "from . import (line 9)", "from .chain import (line 3)",
        "from starflow import (line 8)", "import starflow.walk (line 7)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_level_package_imports(path):
    # the package's modules import each other at module level, so an import
    # cycle fails on import and not on the first call; imports of outside
    # packages may stay lazy
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _function_level_package_imports(tree) == []


def _direct_random_calls(tree: ast.AST) -> list[str]:
    """Calls into ``np.random`` / ``numpy.random`` and imports from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.startswith(("np.random.", "numpy.random.")):
                found.append(f"{name} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append(f"from {node.module} import (line {node.lineno})")
        elif isinstance(node, ast.Import):
            found += [f"import {alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("numpy.random")]
    return found


def test_direct_random_calls_are_found():
    tree = ast.parse("np.random.default_rng(1)\nnumpy.random.Philox(key=k).random_raw()\n"
                     "from numpy.random import Generator\nimport numpy.random\n"
                     "def f(rng: np.random.Generator): return rng.random(3)\n")
    assert sorted(_direct_random_calls(tree)) == [
        "from numpy.random import (line 3)", "import numpy.random (line 4)",
        "np.random.default_rng (line 1)", "numpy.random.Philox (line 2)",
        "numpy.random.Philox(key=k).random_raw (line 2)"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rng.py"],
                         ids=[p.name for p in SOURCES if p.name != "rng.py"])
def test_streams_come_from_rng(path):
    # every stream goes through the range-checked (seed, stream_id) key of rng
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _direct_random_calls(tree) == []


def _module_level_packages(tree: ast.AST) -> list[str]:
    """Outside packages imported when the module is imported: every absolute
    import that is not inside a function body."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        found |= set(_module_level_packages(node))
    return sorted(found)


def test_module_level_packages_are_found():
    tree = ast.parse("import numpy as np\nfrom . import walk\n"
                     "try:\n    import scipy.special\nexcept ImportError:\n    pass\n"
                     "class K:\n    from math import erf\n"
                     "    def g(self):\n        from scipy.optimize import linprog\n"
                     "def f():\n    import json\n")
    assert _module_level_packages(tree) == ["math", "numpy", "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_level_scipy_import(path):
    # importing the package loads no scipy: the production paths use none,
    # and an oracle that does imports it when it is called
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "scipy" not in _module_level_packages(tree)


def _package_modules_imported(tree: ast.AST) -> set[str]:
    """The modules of the package that a module imports, by their names
    inside it: ``from .m import x``, ``from . import m``, ``import
    starflow.m`` and ``from starflow import m`` all give ``m``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "starflow":
                continue
            inside = [p for p in (parts if node.level else parts[1:]) if p]
            found |= {inside[0]} if inside else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("starflow.")}
    return found


def test_package_modules_imported_are_found():
    tree = ast.parse("from .oracles import a\nfrom . import oracles, walk\n"
                     "import starflow.beta\nfrom starflow import cli\nfrom starflow.cv import b\n"
                     "import numpy.linalg\nfrom numpy import oracles as o\n")
    assert _package_modules_imported(tree) == {"oracles", "walk", "beta", "cli", "cv"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "oracles.py"],
                         ids=[p.name for p in SOURCES if p.name != "oracles.py"])
def test_no_module_imports_the_oracles(path):
    # the oracles are for tests: no module of the package imports them
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "oracles" not in _package_modules_imported(tree)


def _defined_names(tree: ast.AST) -> set[str]:
    """Every function and class a module defines, methods and nested ones
    included."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_oracle_names_are_defined_only_in_the_oracles():
    # a reference lives in one place: no production module defines a name
    # of the oracles module, and the package exports none of them
    oracles = next(p for p in SOURCES if p.name == "oracles.py")
    names = _defined_names(ast.parse(oracles.read_text(), filename=str(oracles)))
    assert {"excursions_brute", "step_chain", "wiener_kernel"} <= names
    assert sorted(names & set(starflow.__all__)) == []
    for path in SOURCES:
        if path != oracles:
            tree = ast.parse(path.read_text(), filename=str(path))
            assert sorted(names & _defined_names(tree)) == [], path.name
