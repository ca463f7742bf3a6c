"""The public names: each module's ``__all__``, the package re-exports, the
names the demo scripts import and the names README's library tour cites all
resolve; the demo scripts run; the library leaves the process environment
alone, and imports no third-party package beyond its declared dependencies."""

import ast
import importlib
import inspect
import json
import pathlib
import pkgutil
import re
import runpy
import shutil
import subprocess
import sys

import numpy as np
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


def test_builds_are_made_one_way():
    # a BuiltHamiltonian is made only by the builders, its constructor checks
    # it and works out ``hermitian``, and no second finishing step exists
    makers, flags, finishers = [], [], []
    for path in sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) == "BuiltHamiltonian":
                    makers.append(path.name)
                flags += [path.name for k in node.keywords if k.arg == "hermitian"]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_finish":
                finishers.append(path.name)
    assert set(makers) == {"hamiltonians.py"} and len(makers) == 4
    assert flags == [] and finishers == []


def _called(node) -> list:
    """The name of every function called under ``node``."""
    return [getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(node) if isinstance(n, ast.Call)]


def test_one_ry_kernel():
    # the layer kernel ``_rotate`` runs only inside the forward and adjoint
    # sweeps, and no module but ``circuits`` applies a layer itself
    for path in sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "circuits.py":
            assert not {"_rotate", "_entangle"} & set(_called(tree)), path.name
            continue
        sweeps = {f.name: _called(f).count("_rotate") for f in tree.body if isinstance(f, ast.FunctionDef)
                  and "_rotate" in _called(f)}
        assert set(sweeps) == {"_forward", "_backward"}
        assert sum(sweeps.values()) == _called(tree).count("_rotate")


#: The functions of ``evolution`` that make or apply a Trotter product.
TROTTER_FUNCTIONS = {"_groups", "_factors", "_product", "_split_steps", "_apply_trotter", "_evolver"}


def test_each_sweep_rule_has_one_owner():
    # the adjoint sweep makes its own undoing factors, so the optimizer's
    # objective transposes nothing; and ``evolution._factors`` makes every
    # exponential of a Trotter step, the grid's diagonal phases included
    package = pathlib.Path(gaugesim.__file__).parent
    vqe_calls = set(_called(ast.parse((package / "vqe.py").read_text(encoding="utf-8"))))
    assert not {"transpose", "ascontiguousarray"} & vqe_calls
    tree = ast.parse((package / "evolution.py").read_text(encoding="utf-8"))
    trotter = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in TROTTER_FUNCTIONS}
    assert set(trotter) == TROTTER_FUNCTIONS
    makers = {name for name, f in trotter.items() if {"exp", "cos", "sin"} & set(_called(f))}
    assert makers == {"_factors"}


def test_the_grid_is_assembled_by_its_builder_and_checked_by_the_constructor():
    # ``_grid_matrix`` runs once in the grid builder and once in the check
    # that a build with orbits holds its spec's grid, never per Trotter call
    callers = []
    for path in sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        functions += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                      for f in c.body if isinstance(f, ast.FunctionDef)]
        callers += [(path.name, name) for name, f in functions for _ in range(_called(f).count("_grid_matrix"))]
        assert _called(tree).count("_grid_matrix") == sum(1 for file, _ in callers if file == path.name)
    assert sorted(callers) == [("hamiltonians.py", "BuiltHamiltonian.__post_init__"),
                               ("hamiltonians.py", "build_landau_cartesian_position")]


#: Sample arguments for every ``lru_cache``d function of the library.
CACHED_TABLE_CALLS = {
    "gaugesim.circuits._factor_tables": [(1,), (4,), (9,)],
    "gaugesim.circuits._flip_tables": [(1,), (4,)],
    "gaugesim.circuits._cz_full_layer_signs": [(3,)],
    "gaugesim.circuits._cx_full_layer_sources": [(3,), (3, True)],
    "gaugesim.hamiltonians._monopole_tables": [(2,), (4,)],
    "gaugesim.hamiltonians._monopole_terms": [(2, False, False), (2, True, False)],
    "gaugesim.hamiltonians._monopole_kinetic": [(2,)],
    "gaugesim.hamiltonians._polar_terms": [(2, 5.0), (16, 1.0)],
}


def _arrays(value):
    """Every ndarray in ``value``, looking into tuples and lists."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, np.ndarray):
        yield value


def test_every_cached_table_is_read_only():
    # a cached table is shared by every later call, so a caller that wrote
    # into it would change those calls' results
    cached = {f"{m}.{name}" for m in MODULES for name, f in vars(importlib.import_module(m)).items()
              if hasattr(f, "cache_info") and f.__module__ == m}
    assert cached == set(CACHED_TABLE_CALLS)
    for qualname, calls in CACHED_TABLE_CALLS.items():
        module, name = qualname.rsplit(".", 1)
        for args in calls:
            arrays = list(_arrays(getattr(importlib.import_module(module), name)(*args)))
            assert arrays and not [a.shape for a in arrays if a.flags.writeable], (qualname, args)


def test_every_array_of_a_held_build_is_read_only():
    # the builders hand their last build to every caller that asks again, so
    # a caller that wrote into it would change those callers' results
    from gaugesim.hamiltonians import HamiltonianSpec, build, build_landau_cartesian_position

    for built in (build(HamiltonianSpec(kind="LandauCartesian", boson_trunc=4)),
                  build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", boson_trunc=4)),
                  build(HamiltonianSpec(kind="LandauPolar", angular_m=1)),
                  build(HamiltonianSpec(kind="MonopoleSU2", boson_trunc=2, variant="HermitianPart"))):
        built.spectrum()  # the solved spectrum is kept with the build
        built.real_form  # and so is the real form (every build here is Hermitian)
        built.matrix  # and the matrix, assembled from the kept blocks on first read
        assert {"entries", "filled", "matrix", "real_form"} <= vars(built).keys()
        arrays = list(_arrays(list(vars(built).values())))
        assert len(arrays) >= 5 and not [a.shape for a in arrays if a.flags.writeable], built.spec


#: A build's block layout: its label blocks and kept filled blocks, and the helper that gathers them.
_LAYOUT_FIELDS = ("blocks", "entries", "filled")
_LAYOUT_HELPERS = ("_diagonal_blocks",)


def _block_layout_uses(path):
    """Every read of a build's ``.blocks``, ``.entries`` or ``.filled`` and
    every mention of the block stacking helpers in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _LAYOUT_FIELDS + _LAYOUT_HELPERS:
            yield node.attr
        elif isinstance(node, ast.Name) and node.id in _LAYOUT_HELPERS:
            yield node.id
        elif isinstance(node, ast.alias) and node.name in _LAYOUT_HELPERS:
            yield node.name
        elif isinstance(node, ast.Constant) and node.value in _LAYOUT_FIELDS + _LAYOUT_HELPERS:
            yield node.value  # getattr(h, "blocks", ...)


def test_only_hamiltonians_knows_the_block_layout():
    # a build's views of its blocks (spectrum, eigensystem, real_form) are
    # gathered in one module; the others read those views
    sources = sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py"))
    uses = {path.name: sorted(set(_block_layout_uses(path))) for path in sources}
    assert uses.pop("hamiltonians.py") == ["_diagonal_blocks", "blocks", "entries", "filled"]
    assert {name: found for name, found in uses.items() if found} == {}


def test_only_operators_refuses_a_non_hermitian_operator():
    # one Hermiticity rule: every refusal goes through operators._require_hermitian,
    # and the relative tolerance 1e-10 is written out once, as HERM_TOL
    raises, literals, tols = set(), [], []
    for path in sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tol = [node.value for node in tree.body
               if isinstance(node, ast.Assign) and ast.unparse(node) == "HERM_TOL = 1e-10"]
        tols += [path.name] * len(tol)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and "NotHermitianError" in ast.unparse(node):
                raises.add(path.name)
            elif isinstance(node, ast.Constant) and node.value == 1e-10 and node not in tol:
                literals.append(f"{path.name}:{node.lineno}")
    assert (raises, literals, tols) == ({"operators.py"}, [], ["operators.py"])


_PUBLIC_BUILDERS = ("build", "build_landau_cartesian_position")


def test_every_builder_takes_a_spec_and_nothing_else():
    # the spec is a build's whole input, so the build slot keys on (builder, spec)
    builders = _PUBLIC_BUILDERS + ("_build_landau_cartesian", "_build_landau_polar", "_build_monopole_su2")
    tree = ast.parse((pathlib.Path(gaugesim.__file__).parent / "hamiltonians.py").read_text(encoding="utf-8"))
    params = {node.name: ast.unparse(node.args) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in builders}
    assert params == dict.fromkeys(builders, "spec: HamiltonianSpec")
    for name in _PUBLIC_BUILDERS:  # the held builders' wrappers too
        assert list(inspect.signature(getattr(gaugesim, name), follow_wrapped=False).parameters) == ["spec"]


def test_build_is_the_one_public_builder_of_every_kind():
    # the kinds' builders are reached only through build's dispatch; the
    # position grid is a second basis of LandauCartesian, not a kind
    from gaugesim import hamiltonians

    exported = {name for name in hamiltonians.__all__ if name.startswith("build")}
    reexported = {name for name in dir(gaugesim) if name.startswith("build")}
    assert exported == reexported == set(_PUBLIC_BUILDERS)


def _imported_top_levels(path):
    """Top-level package of every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_exactly_its_declared_dependencies():
    # pyproject's dependencies are the third-party packages src/gaugesim
    # imports, no more and no fewer (scipy is a test extra only)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}
    sources = sorted(pathlib.Path(gaugesim.__file__).parent.glob("*.py"))
    imported = {name for path in sources for name in _imported_top_levels(path)}
    assert imported - set(sys.stdlib_module_names) - {"gaugesim"} == declared


_FRESH_RUN = """\
import sys
sys.path.insert(0, sys.argv[1])
import gaugesim.cli
for command, config in zip(sys.argv[2::2], sys.argv[3::2]):
    assert gaugesim.cli.main([command, "--config", config, "--quiet"]) == 0, command
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter runs spectrum, eoh and vqe through cli.main and
    # never loads scipy
    configs = {
        "spectrum": {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0}},
        "eoh": {"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
                "evolution": {"t_max": 0.5, "t_points": 3, "trotter_steps": 10}},
        "vqe": {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0},
                "ansatz": {"depth": 1}, "optimizer": {"max_iter": 5, "seed": 3}},
    }
    argv = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dict(cfg, output=str(tmp_path / f"{command}.csv"))))
        argv += [command, str(path)]
    src = str(pathlib.Path(gaugesim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, src, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
