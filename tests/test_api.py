"""The public names: each module's ``__all__``, the package re-exports, the
names the demo scripts import and the names README's library tour cites all
resolve; the demo scripts run; the library leaves the process environment
alone."""

import ast
import importlib
import pathlib
import pkgutil
import re
import runpy
import shutil

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


def _library_tour_names():
    """Every backticked Python name in the contents column of README's
    "Library tour" table (module paths, config keys and formulas are not
    plain names and are left out)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in tour.splitlines() if line.startswith("| `gaugesim.")]
    cells = [row.split(" | ", 1)[1] for row in rows]
    return sorted({name for cell in cells for name in re.findall(r"`([^`]+)`", cell)
                   if name.isidentifier()})


def test_library_tour_names_resolve():
    names = _library_tour_names()
    assert len(names) >= 30
    modules = [gaugesim] + [importlib.import_module(m) for m in MODULES]
    missing = [n for n in names if not any(hasattr(mod, n) for mod in modules)]
    assert missing == []


def test_demos_run_and_regenerate_the_committed_doc(tmp_path, capsys):
    # demo 02 writes demos/out/ and demo 04 rewrites docs/, so the scripts
    # run from a copy and the checkout stays untouched
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "docs").mkdir()
    for demo in sorted((tmp_path / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out, demo.name
    doc = "docs/monopole_variants.md"
    assert (tmp_path / doc).read_bytes() == (ROOT / doc).read_bytes()


def _writes_environ(node):
    """True for ``os.environ[...] = / del``, a mutating ``os.environ`` method
    call, and ``os.putenv`` / ``os.unsetenv``."""
    def is_environ(n):
        return isinstance(n, ast.Attribute) and n.attr == "environ"

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(isinstance(t, ast.Subscript) and is_environ(t.value) for t in targets)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        return ((is_environ(func.value) and func.attr in ("update", "setdefault", "pop", "popitem", "clear"))
                or func.attr in ("putenv", "unsetenv"))
    return False


def test_library_sets_no_environment_variable():
    # README: the library sets no OPENBLAS_* variable; thread settings are the caller's
    sources = sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "OPENBLAS_" not in text, path.name
        assert not any(_writes_environ(n) for n in ast.walk(ast.parse(text))), path.name
