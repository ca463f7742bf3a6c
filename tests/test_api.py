"""The public names: each module's ``__all__``, the package re-exports and
the names the demo scripts import all resolve."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gaugesim

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = [f"gaugesim.{m.name}" for m in pkgutil.iter_modules(gaugesim.__path__)]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _from_imports(path):
    """(module, name) for every ``from <module> import <name>`` in a file,
    with relative modules resolved against the ``gaugesim`` package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "gaugesim." + node.module if node.level else node.module
            yield from ((module, alias.name) for alias in node.names)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_are_public():
    imports = list(_from_imports(pathlib.Path(gaugesim.__file__)))
    assert imports
    private = [(m, n) for m, n in imports if n not in importlib.import_module(m).__all__]
    assert private == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    imports = [(m, n) for m, n in _from_imports(demo) if m.split(".")[0] == "gaugesim"]
    assert imports
    missing = [(m, n) for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []
