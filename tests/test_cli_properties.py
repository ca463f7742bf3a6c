"""Property test of the command line: perturbed configs never end in a traceback.

Small valid configs of all five commands get one or two edits (a value
replaced by a bool, a string, null, NaN, +-inf, a number at the edge of
the float range (+-1e308, 1e300, 5e-324, -0.0), a small negative or
non-integral number or a wrong container; a key deleted; an unknown key
added).  Independent edits practically never move two numbers together,
so a second strategy sets two sibling numbers of one object to opposite
edges of the float range (-1e308 and 1e308, as a ``p2_scan`` window),
then perhaps makes one more edit.  Every run must exit 0, 2 or 3 with at
most a one-line message, and exit 0 must write and print only finite
numbers.  Small counts are
drawn from a small range, and a huge one is refused by its cap or costs no
more than a small one, so no edit can ask for a large run.
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

from gaugesim.cli import main

BASE = {
    "spectrum": {"hamiltonian": {"kind": "MonopoleSU2", "b_field": 0.2, "boson_trunc": 2,
                                 "angular_m": 0, "variant": {"ScalarB": 1.0}}},
    "vqe": {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0, "boson_trunc": 4},
            "ansatz": {"depth": 1, "entangler": "cz"},
            "optimizer": {"max_iter": 5, "seed": 3, "tolerance": 1e-6}},
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
                     math.nan, math.inf, -math.inf, 1e308, -1e308, 1e300, 5e-324, -0.0]),
    st.integers(-2, 4),
    st.floats(-3.0, 3.0).filter(lambda x: not x.is_integer()),
)


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


@st.composite
def opposite_edges(draw, base):
    """``base`` with two numbers of one object or list set to -1e308 and
    1e308, then, on half the draws, the edits of ``perturbed``."""
    cfg = copy.deepcopy(base)
    pairs = []
    for path in [()] + list(_paths(cfg)):
        obj = cfg
        for key in path:
            obj = obj[key]
        if isinstance(obj, (dict, list)):
            keys = [k for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj))
                    if isinstance(v, (int, float)) and not isinstance(v, bool)]
            pairs += [(obj, low, high) for low in keys for high in keys if low != high]
    obj, low, high = draw(st.sampled_from(pairs))
    obj[low], obj[high] = -1e308, 1e308
    return draw(perturbed(cfg)) if draw(st.booleans()) else cfg


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


def _check_every_draw(strategy, command):
    @settings(max_examples=100)
    @given(strategy(BASE[command]))
    def check(cfg):
        code, out, err, cells = _run(command, cfg)
        assert code in (0, 2, 3), err
        if code:
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            return
        assert all(math.isfinite(float(cell)) for cell in cells)
        assert all(math.isfinite(x) for x in _numbers_in_summary(out))

    check()


@pytest.mark.parametrize("command", sorted(BASE))
def test_perturbed_configs_end_in_exit_0_2_or_3(command):
    _check_every_draw(perturbed, command)


@pytest.mark.parametrize("command", sorted(BASE))
def test_sibling_numbers_at_opposite_float_edges_end_in_exit_0_2_or_3(command):
    _check_every_draw(opposite_edges, command)
