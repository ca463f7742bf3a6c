"""Property test of the command line: perturbed configs never end in a traceback.

Small valid configs of all five commands get one or two edits (a value
replaced by a bool, a string, null, NaN, +-inf, a small negative or
non-integral number or a wrong container; a key deleted; an unknown key
added).  Every run must exit 0, 2 or 3 with at most a one-line message,
and exit 0 must write and print only finite numbers.  Counts are drawn
from a small range, so no edit can ask for a large run.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from gaugesim.cli import main

BASE = {
    "spectrum": {"hamiltonian": {"kind": "MonopoleSU2", "b_field": 0.2, "boson_trunc": 2,
                                 "angular_m": 0, "variant": {"ScalarB": 1.0}, "floor": 1e-8}},
    "vqe": {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0, "boson_trunc": 4},
            "ansatz": {"depth": 1, "entangler": "cz"},
            "optimizer": {"max_iter": 5, "seed": 3, "tolerance": 1e-6, "restarts": 1}},
    "eoh": {"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
            "evolution": {"t_max": 0.5, "t_points": 3, "trotter_steps": 4, "method": "Both"},
            "final_states": [0, 5]},
    "scatter": {"scatter": {"qubits": 3, "p1": 1, "p3": 6,
                            "p2_scan": {"min": -2.0, "max": 2.0, "points": 8}}},
    "wuyang": {"wuyang": {"r_start": 0.05, "r_end": 0.5, "steps": 20, "seed_series": False,
                          "g_start": 1.0, "gprime_start": 0.0}},
}

BAD_VALUES = st.one_of(
    st.sampled_from([True, False, None, "abc", "4", [], {}, [1, 2], {"x": 1},
                     math.nan, math.inf, -math.inf]),
    st.integers(-2, 4),
    st.floats(-3.0, 3.0).filter(lambda x: not x.is_integer()),
)


@pytest.fixture(autouse=True, scope="module")
def _hypothesis_storage(tmp_path_factory):
    # Hypothesis caches the constants it reads from source files under its
    # home directory, ./.hypothesis by default; keep the checkout clean.
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    set_hypothesis_home_dir(None)


def _paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


@st.composite
def perturbed(draw, base):
    cfg = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "replace", "delete", "extra"]))
        # a copy: sampled containers are shared between examples
        value = copy.deepcopy(draw(BAD_VALUES))
        if action == "delete":
            del parent[path[-1]]
        elif action == "extra" and isinstance(parent, dict):
            parent["bogus"] = value
        else:
            parent[path[-1]] = value
    return cfg


def _numbers_in_summary(text):
    for token in text.replace(",", " ").split():
        _, eq, value = token.partition("=")
        if eq:
            try:
                yield float(value)
            except ValueError:
                pass  # a file name


def _run(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg_path = work / "cfg.json"
        cfg_path.write_text(json.dumps(dict(cfg, output=str(work / "out.csv"))))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg_path)])
        cells = [cell for csv in sorted(work.glob("*.csv"))
                 for line in csv.read_text().splitlines()[1:] for cell in line.split(",")]
    return code, out.getvalue(), err.getvalue(), cells


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_configs_run(command):
    code, _, err, cells = _run(command, BASE[command])
    assert code == 0, err
    assert cells


@pytest.mark.parametrize("command", sorted(BASE))
def test_perturbed_configs_end_in_exit_0_2_or_3(command):
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(perturbed(BASE[command]))
    def check(cfg):
        code, out, err, cells = _run(command, cfg)
        assert code in (0, 2, 3), err
        if code:
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            return
        assert all(math.isfinite(float(cell)) for cell in cells)
        assert all(math.isfinite(x) for x in _numbers_in_summary(out))

    check()
