import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gaugesim
from gaugesim.circuits import AnsatzConfig, adjoint_gradient, ansatz_state
from gaugesim.cli import _COMMANDS, _section, main
from gaugesim.errors import InvalidConfigError
from gaugesim.hamiltonians import HamiltonianSpec
from gaugesim.vqe import OptimizerSettings


def run(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfg_path), *extra])


def test_spectrum_cartesian(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = run(tmp_path, "spectrum",
               {"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0}, "output": str(out)})
    assert code == 0
    assert "lambda_min=1.000000000" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 257
    assert abs(float(lines[1].split(",")[1]) - 1.0) < 1e-9


def test_spectrum_free_cartesian_nonnegative(tmp_path, capsys):
    out = tmp_path / "spec0.csv"
    code = run(tmp_path, "spectrum",
               {"hamiltonian": {"kind": "LandauCartesian", "b_field": 0.0}, "output": str(out)})
    assert code == 0
    lam = float(out.read_text().strip().splitlines()[1].split(",")[1])
    assert lam >= -1e-9


def test_spectrum_monopole_literal_uses_real_parts(tmp_path, capsys):
    out = tmp_path / "mono.csv"
    code = run(tmp_path, "spectrum",
               {"hamiltonian": {"kind": "MonopoleSU2", "b_field": 0.2}, "output": str(out)})
    assert code == 0
    # literal spectrum equals the free spectrum (block-triangular coupling)
    assert "lambda_min=0.412882" in capsys.readouterr().out


def test_vqe_polar_summary_and_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    cfg = {
        "hamiltonian": {"kind": "LandauPolar", "b_field": 2.0},
        "ansatz": {"depth": 3},
        "optimizer": {"max_iter": 300, "seed": 11},
        "output": str(out),
    }
    assert run(tmp_path, "vqe", cfg) == 0
    text = capsys.readouterr().out
    assert "energy=" in text and "lambda_min=" in text and "gap=" in text
    assert out.read_text().startswith("iteration,energy,evaluations\n")


@pytest.mark.parametrize("hamiltonian", [{"kind": "LandauPolar", "b_field": b} for b in (1e100, 1e154)]
                         + [{"kind": "LandauCartesian", "b_field": b, "boson_trunc": n}
                            for b in (1e100, 1e154) for n in (2, 4)])
def test_vqe_at_a_huge_field_writes_a_finite_trace(tmp_path, capsys, hamiltonian):
    # |g|^2 overflows at these fields: the optimizer ends at its last finite
    # row, where it once stepped to NaN angles and exited 2 with a config error
    out = tmp_path / "trace.csv"
    assert run(tmp_path, "vqe", {"hamiltonian": hamiltonian, "output": str(out)}) == 0
    assert "energy=" in capsys.readouterr().out
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == 2 and np.all(np.isfinite(rows))
    # a field whose H overflows is still refused by the build, with exit 3
    assert run(tmp_path, "vqe", {"hamiltonian": dict(hamiltonian, b_field=1e200), "output": str(out)}) == 3


@pytest.mark.parametrize("b_field, max_iter, converged", [
    (2.0, 600, True),
    (2.0, 3, False),  # the iteration budget runs out
    (1e154, 600, False),  # |g|^2 overflows: the run ends at its start
])
def test_vqe_summary_says_whether_the_run_converged(tmp_path, capsys, b_field, max_iter, converged):
    cfg = {"hamiltonian": {"kind": "LandauPolar", "b_field": b_field}, "ansatz": {"depth": 3, "entangler": "cz"},
           "optimizer": {"max_iter": max_iter, "seed": 11, "tolerance": 1e-9}, "output": str(tmp_path / "t.csv")}
    assert run(tmp_path, "vqe", cfg) == 0
    line = capsys.readouterr().out
    assert re.fullmatch(r"energy=[-.\d]+, lambda_min=[-.\d]+, gap=\S+, converged=(True|False)\n", line)
    assert line.endswith(f", converged={converged}\n")


def test_vqe_rejects_literal_monopole(tmp_path, capsys):
    cfg = {
        "hamiltonian": {"kind": "MonopoleSU2", "b_field": 2.0},
        "output": str(tmp_path / "x.csv"),
    }
    assert run(tmp_path, "vqe", cfg) == 2


def test_monopole_spectrum_and_vqe_solve_only_blocks(tmp_path, monkeypatch, capsys):
    # spectra come from the builder's symmetry blocks: no general eigvals,
    # and no eigensolve above 32 on the 512-dim monopole; the build keeps
    # its 16 sector blocks, and neither command assembles the dense matrix
    from gaugesim.hamiltonians import build

    solved = []
    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _n=name, _f=solver, **k:
                            solved.append((_n, np.shape(a)[-1])) or _f(a, *r, **k))
    for variant in ("Literal", "MajoranaFermions", "HermitianPart", {"ScalarB": 1.0}):
        ham = {"kind": "MonopoleSU2", "variant": variant}
        assert run(tmp_path, "spectrum", {"hamiltonian": ham, "output": str(tmp_path / "s.csv")}) == 0
        held = build(HamiltonianSpec.from_json(ham))  # the build the run made
        assert "_spectrum" in vars(held) and "matrix" not in vars(held), variant
    ham = {"kind": "MonopoleSU2", "variant": "HermitianPart", "b_field": 0.2}
    assert run(tmp_path, "vqe", {"hamiltonian": ham, "optimizer": {"max_iter": 2, "seed": 1},
                                 "output": str(tmp_path / "v.csv")}) == 0
    held = build(HamiltonianSpec.from_json(ham))
    assert "real_form" in vars(held) and "matrix" not in vars(held)
    assert solved and not [n for n, _ in solved if n in ("eig", "eigvals")], solved
    assert max(d for _, d in solved) <= 32, solved


_SPECTRUM_IMPORTS = """\
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import gaugesim.cli
for n, ham in enumerate(json.loads(sys.argv[3])):
    config = pathlib.Path(sys.argv[2]) / f"{n}.json"
    config.write_text(json.dumps({"hamiltonian": ham, "output": str(config.with_suffix(".csv"))}))
    assert gaugesim.cli.main(["spectrum", "--config", str(config), "--quiet"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_a_spectrum_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma takes about 8-20 ms to import, and np.unique imports it on first use
    hams = [{"kind": "LandauCartesian"}, {"kind": "LandauPolar", "angular_m": 1},
            {"kind": "MonopoleSU2"}, {"kind": "MonopoleSU2", "variant": "HermitianPart"}]
    src = str(pathlib.Path(gaugesim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SPECTRUM_IMPORTS, src, str(tmp_path), json.dumps(hams)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: README's eoh config: the 16x16 position grid at B = 2, both methods
_README_EOH = {"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0},
               "evolution": {"t_max": 1.0, "t_points": 11, "trotter_steps": 100, "method": "Both"}}


def test_eoh_solves_no_eigenproblem_above_64(tmp_path, monkeypatch):
    # the exact propagator of the 256-point grid comes from its four 64x64
    # quarter-turn sectors, never from a 256x256 solve
    solved = []
    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _n=name, _f=solver, **k:
                            solved.append((_n, np.shape(a))) or _f(a, *r, **k))
    assert run(tmp_path, "eoh", dict(_README_EOH, output=str(tmp_path / "eoh.csv"))) == 0
    assert solved == [("eigh", (4, 64, 64))], solved


def test_eoh_leaves_the_held_grid_build_without_a_real_form(tmp_path):
    # only vqe reads real_form: eoh's exact and Trotter paths never gather it
    from gaugesim.hamiltonians import build_landau_cartesian_position

    spec = HamiltonianSpec(kind="LandauCartesian", b_field=2.0)
    held = build_landau_cartesian_position(spec)
    assert run(tmp_path, "eoh", dict(_README_EOH, output=str(tmp_path / "eoh.csv"))) == 0
    assert build_landau_cartesian_position(spec) is held and "real_form" not in vars(held)


def test_eoh_writes_both_series(tmp_path, capsys):
    out = tmp_path / "eoh.csv"
    cfg = {
        "hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
        "evolution": {"t_max": 0.5, "t_points": 3, "trotter_steps": 25},
        "output": str(out),
    }
    assert run(tmp_path, "eoh", cfg) == 0
    summary = capsys.readouterr().out
    assert "max_deviation=" in summary
    exact = (tmp_path / "eoh_exact.csv").read_text().strip().splitlines()
    trot = (tmp_path / "eoh_trotter.csv").read_text().strip().splitlines()
    assert exact[0].startswith("t,re_0,im_0,prob_0")
    assert len(exact) == 4 and len(trot) == 4
    # probabilities over the complete basis sum to one at every t
    for line in exact[1:]:
        vals = [float(v) for v in line.split(",")]
        probs = vals[3::3]
        assert abs(sum(probs) - 1.0) < 1e-10


def test_eoh_t0_probabilities_are_overlaps(tmp_path):
    out = tmp_path / "eoh0.csv"
    cfg = {
        "hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
        "evolution": {"t_max": 0.0, "t_points": 1, "method": "Exact"},
        "output": str(out),
    }
    assert run(tmp_path, "eoh", cfg) == 0
    line = (tmp_path / "eoh0_exact.csv").read_text().strip().splitlines()[1]
    vals = [float(v) for v in line.split(",")]
    probs = np.array(vals[3::3])
    # initial basis state: probability 1 on itself, 0 elsewhere
    centre = 2 * 4 + 2
    assert abs(probs[centre] - 1.0) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


def test_eoh_columns_named_by_grid_index(tmp_path):
    cfg = {
        "hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
        "evolution": {"t_max": 0.5, "t_points": 2, "method": "Exact"},
        "final_states": [5, 9],
        "output": str(tmp_path / "eoh.csv"),
    }
    assert run(tmp_path, "eoh", cfg) == 0
    header = (tmp_path / "eoh_exact.csv").read_text().splitlines()[0]
    assert header == "t,re_5,im_5,prob_5,re_9,im_9,prob_9"


def test_eoh_repeated_index_writes_identical_columns(tmp_path):
    cfg = {
        "hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
        "evolution": {"t_max": 0.5, "t_points": 3, "trotter_steps": 25},
        "final_states": [9, 5, 9],
        "output": str(tmp_path / "eoh.csv"),
    }
    assert run(tmp_path, "eoh", cfg) == 0
    for name in ("eoh_exact.csv", "eoh_trotter.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "t,re_9,im_9,prob_9,re_5,im_5,prob_5,re_9,im_9,prob_9"
        rows = [line.split(",") for line in lines[1:]]
        assert all(cells[1:4] == cells[7:10] for cells in rows)
        assert float(rows[-1][3]) > 0.0  # the particle has reached grid point 9


@pytest.mark.parametrize("out, written", [
    ("eoh.csv", "eoh_exact.csv"),
    ("eoh", "eoh_exact"),
    ("./eoh", "eoh_exact"),
    ("run.v2/eoh", "run.v2/eoh_exact"),
    ("run.v2/eoh.csv", "run.v2/eoh_exact.csv"),
])
def test_eoh_output_suffix_goes_before_the_file_extension(tmp_path, monkeypatch, out, written):
    # a dot in a directory name is not an extension
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    cfg = {
        "hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
        "evolution": {"t_max": 0.0, "t_points": 1, "method": "Exact"},
        "output": out,
    }
    assert run(tmp_path, "eoh", cfg) == 0
    files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert files == {"eoh.json", written}


@pytest.mark.parametrize("method", ["Both", "Exact", "Trotter"])
def test_eoh_overflow_exits_3_and_writes_no_file(tmp_path, capsys, method):
    # t_max * |lambda| overflows: each evolution refuses its phase before
    # any CSV is written, so neither CSV reaches the disk
    cfg = {"hamiltonian": {"kind": "LandauCartesian", "boson_trunc": 4},
           "evolution": {"t_max": 1.7e308, "t_points": 2, "trotter_steps": 1, "method": method},
           "output": str(tmp_path / "eoh.csv")}
    assert run(tmp_path, "eoh", cfg) == 3
    assert "float64 cannot resolve" in capsys.readouterr().err
    assert not (tmp_path / "eoh_exact.csv").exists()
    assert not (tmp_path / "eoh_trotter.csv").exists()


def test_eoh_rejects_polar(tmp_path, capsys):
    cfg = {
        "hamiltonian": {"kind": "LandauPolar"},
        "output": str(tmp_path / "x.csv"),
    }
    assert run(tmp_path, "eoh", cfg) == 2


def test_scatter_peak_matches_prediction(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    cfg = {"scatter": {"qubits": 4, "p1": 3, "p3": 9}, "output": str(out)}
    assert run(tmp_path, "scatter", cfg) == 0
    summary = capsys.readouterr().out
    fields = dict(part.split("=") for part in summary.split())
    assert abs(float(fields["argmax_p2"]) - float(fields["predicted_wrapped"])) < 1e-9
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p2,abs_amplitude"
    assert len(lines) == 16 * 16 + 1


def test_scatter_equal_indices_peak_at_zero(tmp_path, capsys):
    cfg = {"scatter": {"qubits": 4, "p1": 5, "p3": 5}, "output": str(tmp_path / "s.csv")}
    assert run(tmp_path, "scatter", cfg) == 0
    fields = dict(part.split("=") for part in capsys.readouterr().out.split())
    assert abs(float(fields["argmax_p2"])) < 1e-9


def test_wuyang_series_columns(tmp_path, capsys):
    out = tmp_path / "wy.csv"
    cfg = {
        "wuyang": {"r_start": 0.05, "r_end": 0.1, "steps": 50, "seed_series": True},
        "output": str(out),
    }
    assert run(tmp_path, "wuyang", cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,g,gprime,series_small,series_large"
    final = lines[-1].split(",")
    assert abs(float(final[1]) - float(final[3])) < 1e-6  # ODE vs small-r series


def test_wuyang_fixed_point_start(tmp_path, capsys):
    out = tmp_path / "wyfix.csv"
    cfg = {
        "wuyang": {"r_start": 0.1, "r_end": 2.0, "steps": 100,
                   "g_start": 1.0, "gprime_start": 0.0},
        "output": str(out),
    }
    assert run(tmp_path, "wuyang", cfg) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert all(abs(float(r[1]) - 1.0) < 1e-12 for r in rows)


def test_wuyang_step_halving_reported_error(tmp_path, capsys):
    def max_err(steps):
        cfg = {
            "wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": steps, "seed_series": True},
            "output": str(tmp_path / f"wy{steps}.csv"),
        }
        assert run(tmp_path, "wuyang", cfg) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        return float(fields["max_error_vs_fine"])

    ratio = max_err(100) / max_err(200)
    assert 12.0 <= ratio <= 20.0


def test_config_error_paths(tmp_path, capsys):
    bad = {"hamiltonian": {"kind": "Nope"}, "output": str(tmp_path / "x.csv")}
    assert run(tmp_path, "spectrum", bad) == 2
    unknown = {"hamiltonian": {"kind": "LandauPolar"}, "output": str(tmp_path / "x.csv"),
               "bogus": 1}
    assert run(tmp_path, "spectrum", unknown) == 2
    missing_out = {"hamiltonian": {"kind": "LandauPolar"}}
    assert run(tmp_path, "spectrum", missing_out) == 2
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["spectrum", "--config", str(not_json)]) == 2


def test_numerical_error_exit_code(tmp_path, capsys):
    # passes config validation, fails in the integrator (negative radius)
    cfg = {
        "wuyang": {"r_start": 0.05, "r_end": -1.0, "steps": 100, "seed_series": True},
        "output": str(tmp_path / "x.csv"),
    }
    assert run(tmp_path, "wuyang", cfg) == 3
    assert "numerical error" in capsys.readouterr().err


def test_determinism_spectrum_and_scatter(tmp_path):
    # every command, run twice with one config, writes the same bytes
    cases = [
        ("spectrum", {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0}}, ["a.csv"]),
        ("scatter", {"scatter": {"qubits": 3, "p1": 1, "p3": 6}}, ["a.csv"]),
        ("vqe", {"hamiltonian": {"kind": "LandauPolar", "boson_trunc": 4},
                 "ansatz": {"depth": 1}, "optimizer": {"max_iter": 20, "seed": 3}}, ["a.csv"]),
        ("eoh", {"hamiltonian": {"kind": "LandauCartesian", "boson_trunc": 4},
                 "evolution": {"t_points": 3, "trotter_steps": 5}}, ["a_exact.csv", "a_trotter.csv"]),
        ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 50, "seed_series": True}},
         ["a.csv"]),
    ]
    for command, cfg, files in cases:
        cfg = dict(cfg, output=str(tmp_path / "a.csv"))
        assert run(tmp_path, command, cfg) == 0
        first = [(tmp_path / f).read_bytes() for f in files]
        assert run(tmp_path, command, cfg) == 0
        assert [(tmp_path / f).read_bytes() for f in files] == first, command


_POLAR = {"kind": "LandauPolar", "b_field": 2.0}
_CART4 = {"kind": "LandauCartesian", "boson_trunc": 4}
_CART_M7 = {"kind": "LandauCartesian", "variant": "HermitianPart", "angular_m": 7}
_NAN, _INF = float("nan"), float("inf")


def _spec(**kw):
    return "spectrum", {"hamiltonian": dict(_POLAR, **kw)}, ()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, cfg, extra, code", [
    (*_spec(b_field=_NAN), 2),
    (*_spec(b_field=_INF), 2),
    ("spectrum", {"hamiltonian": {"kind": "MonopoleSU2", "variant": {"ScalarB": _NAN}}}, (), 2),
    # --quiet on this row, the next, the string seed and the two ScalarB rows
    # below silences only the summary line: the error line is still written
    ("spectrum", {"hamiltonian": {"kind": "MonopoleSU2", "variant": {"ScalarB": "abc"}}}, ("--quiet",), 2),
    ("spectrum", {"hamiltonian": {"kind": "MonopoleSU2", "variant": "ScalarB"}}, ("--quiet",), 2),
    ("spectrum", {"hamiltonian": [1, 2]}, (), 2),
    (*_spec(boson_trunc="16"), 2),
    (*_spec(boson_trunc=16.9), 2),
    (*_spec(angular_m=1.7), 2),
    (*_spec(b_field="2"), 2),
    (*_spec(b_field=True), 2),
    (*_spec(floor=_NAN), 2),  # an unknown key
    (*_spec(boson_trunc=1024), 2),  # 10 qubits, above the ceiling
    (*_spec(b_field=1e200), 3),  # overflow in the build
    ("eoh", {"hamiltonian": _CART4, "evolution": {"t_max": _NAN}}, (), 2),
    ("eoh", {"hamiltonian": _CART4, "final_states": [True]}, (), 2),
    ("scatter", {"scatter": {"p1": True, "p3": 2}}, (), 2),
    ("scatter", {"scatter": {"p1": 1, "p3": 2, "p2_scan": {"min": _NAN}}}, (), 2),
    ("scatter", {"scatter": {"qubits": 40, "p1": 1, "p3": 2}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"tolerance": _NAN}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "ansatz": {"depth": True}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"seed": -1}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"seed": "-1"}}, ("--quiet",), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"method": "Nope"}}, (), 2),
    ("wuyang", {"wuyang": {"r_start": _NAN, "r_end": 1.0, "steps": 50, "seed_series": True}}, (), 2),
    ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1e9, "steps": 50, "seed_series": True}}, (), 3),
    ("wuyang", {"wuyang": {"r_start": 1e-300, "r_end": 1.0, "steps": 10, "seed_series": True}}, (), 3),
    # one above each count field's cap
    ("eoh", {"hamiltonian": _CART4, "evolution": {"t_points": 129}}, (), 2),
    ("eoh", {"hamiltonian": _CART4, "evolution": {"trotter_steps": 100001}}, (), 2),
    ("scatter", {"scatter": {"p1": 1, "p3": 2, "p2_scan": {"points": 16385}}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "ansatz": {"depth": 65}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"max_iter": 100001}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"restarts": 101}}, (), 2),
    ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 1000001, "seed_series": True}}, (), 2),
    ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 100001, "seed_series": True}}, (), 2),
    # removed keys
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"method": "SLSQP"}}, (), 2),
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"gradient_step": 1e-6}}, (), 2),
    # more final states than the 16 basis states
    ("eoh", {"hamiltonian": _CART4, "final_states": [0] * 17}, (), 2),
    # a field the kind ignores: angular_m off LandauPolar, variant off MonopoleSU2
    ("spectrum", {"hamiltonian": _CART_M7}, (), 2),
    ("spectrum", {"hamiltonian": dict(_CART_M7, variant={"ScalarB": 2})}, ("--quiet",), 2),
    ("spectrum", {"hamiltonian": dict(_CART4, variant={"ScalarB": 2})}, ("--quiet",), 2),
    ("spectrum", {"hamiltonian": {"kind": "MonopoleSU2", "angular_m": -3}}, (), 2),
    ("vqe", {"hamiltonian": dict(_POLAR, variant="HermitianPart")}, (), 2),
    # the register comes from the Hamiltonian, so n_qubits is not a config key
    ("vqe", {"hamiltonian": _POLAR, "ansatz": {"n_qubits": 4}}, (), 2),
    # a window whose span overflows the float range
    ("scatter", {"scatter": {"p1": 1, "p3": 2, "p2_scan": {"min": -1e308, "max": 1e308}}}, (), 2),
    # two initial conditions: the series seed and an explicit start value
    ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 50, "seed_series": True, "g_start": 7.0}}, (), 2),
    ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 50, "seed_series": True,
                           "gprime_start": -3.0}}, (), 2),
    ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 50, "seed_series": True,
                           "g_start": 7.0, "gprime_start": -3.0}}, (), 2),
    # a start g > 1 blows up: wu_yang_solve refuses the solution
    ("wuyang", {"wuyang": {"r_start": 0.01, "r_end": 5.0, "steps": 1000, "g_start": 1.3, "gprime_start": 0.2}},
     (), 3),
    # removed keys (appended here, so the case ids above stay as they were)
    ("vqe", {"hamiltonian": _POLAR, "optimizer": {"restarts": 1}}, (), 2),
    # phases above MAX_PHASE: evolution times and fields (exit 3), a p2 window (the config's, exit 2)
    ("eoh", {"hamiltonian": _CART4, "evolution": {"t_max": 1e300, "method": "Exact"}}, (), 3),
    ("eoh", {"hamiltonian": _CART4, "evolution": {"t_max": 1e300, "method": "Trotter"}}, (), 3),
    ("eoh", {"hamiltonian": dict(_CART4, b_field=1e12), "evolution": {"t_max": 1.0}}, (), 3),
    ("scatter", {"scatter": {"p1": 1, "p3": 2, "p2_scan": {"min": -1e300, "max": 1e300}}}, (), 2),
    # a field whose terms pass the float range: the build refuses its inf entries by the field
    ("spectrum", {"hamiltonian": {"kind": "LandauCartesian", "b_field": 1e154}}, (), 3),
    ("eoh", {"hamiltonian": {"kind": "LandauCartesian", "b_field": 1e154}}, (), 3),
])
def test_bad_input_exit_code_and_one_line_message(tmp_path, capsys, command, cfg, extra, code):
    out = tmp_path / "out.csv"
    assert run(tmp_path, command, dict(cfg, output=str(out)), extra) == code
    printed = capsys.readouterr()
    assert len(printed.err.splitlines()) == 1 and "Traceback" not in printed.err
    spec = cfg.get("hamiltonian")
    if code == 3 and isinstance(spec, dict) and spec.get("b_field", 0.0) >= 1e154:  # overflow: kind and field named
        assert f"{spec['kind']}: an entry of H overflows the float range at b_field {spec['b_field']:g}" in printed.err
    # no file but the config: eoh's per-method CSVs (out_exact.csv, ...) included
    assert printed.out == "" and [p.name for p in tmp_path.iterdir()] == [f"{command}.json"]


#: the command that reads each config section, and a config it runs
_SECTION_RUNS = {"ansatz": ("vqe", {"hamiltonian": _POLAR}),
                 "optimizer": ("vqe", {"hamiltonian": _POLAR}),
                 "evolution": ("eoh", {"hamiltonian": _CART4}),
                 "scatter": ("scatter", {"scatter": {"p1": 1, "p3": 2}}),
                 "wuyang": ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 50,
                                                  "seed_series": True}})}


def test_readme_config_keys_are_read_by_their_sections(tmp_path, capsys):
    # every dotted key README's CLI section names is one its section reads:
    # a value of the wrong type is refused by the key's name, not as unknown
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_text = readme.split("## Command-line interface")[1].split("\n## ")[0]
    keys = set(re.findall(rf"`((?:{'|'.join(_SECTION_RUNS)})(?:\.\w+)+)`", cli_text))
    assert {"optimizer.max_iter", "evolution.t_points", "scatter.p2_scan.points"} <= keys
    for key in sorted(keys):
        *path, last = key.split(".")
        command, cfg = _SECTION_RUNS[path[0]]
        cfg = json.loads(json.dumps(cfg))
        node = cfg
        for part in path:
            node = node.setdefault(part, {})
        node[last] = "x"
        assert run(tmp_path, command, dict(cfg, output=str(tmp_path / "out.csv"))) == 2, key
        err = capsys.readouterr().err
        assert f"{key}:" in err and "unknown keys" not in err, err


@pytest.mark.parametrize("flag, value", [("--out", "x.csv"), ("--seed", "3"), ("--variant", "HermitianPart")])
def test_removed_override_flags_are_refused(tmp_path, capsys, flag, value):
    # a run is its config file: no flag changes what it does
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"hamiltonian": _POLAR, "output": str(tmp_path / "a.csv")}))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_main_prints_each_summary_line_once_unless_quiet(tmp_path, capsys, monkeypatch):
    # each command returns its summary line; main prints it, or nothing under --quiet
    cases = [("spectrum", {"hamiltonian": _POLAR}),
             ("vqe", {"hamiltonian": _POLAR, "optimizer": {"max_iter": 2, "seed": 1}}),
             ("eoh", {"hamiltonian": _CART4, "evolution": {"t_points": 2, "method": "Exact"}}),
             ("scatter", {"scatter": {"qubits": 3, "p1": 1, "p3": 6}}),
             ("wuyang", {"wuyang": {"r_start": 0.05, "r_end": 0.1, "steps": 10, "seed_series": True}})]
    monkeypatch.chdir(tmp_path)
    for command, cfg in cases:
        cfg = dict(cfg, output=f"{command}.csv")
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        summary = _COMMANDS[command](cfg)
        assert isinstance(summary, str) and summary and "\n" not in summary
        assert main([command, "--config", str(path)]) == 0
        assert capsys.readouterr().out == summary + "\n", command
        assert main([command, "--config", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == "", command


def test_each_json_section_accepts_exactly_its_class_table():
    # one intake per config object: a section's keys are its class's FIELDS,
    # less the register (the Hamiltonian's) and r_ref (the ScalarB mapping)
    spec = HamiltonianSpec("MonopoleSU2", b_field=0.2, variant="HermitianPart")
    hamiltonian = {name: getattr(spec, name) for name in HamiltonianSpec.FIELDS if name != "r_ref"}
    assert HamiltonianSpec.from_json(hamiltonian) == spec
    scalar_b = dict(hamiltonian, variant={"ScalarB": 1.5})
    assert HamiltonianSpec.from_json(scalar_b) == replace(spec, variant="ScalarB", r_ref=1.5)
    shape = AnsatzConfig(4, 2, "cx")
    ansatz = {name: getattr(shape, name) for name in AnsatzConfig.FIELDS if name != "n_qubits"}
    assert _section({"ansatz": ansatz}, "ansatz", AnsatzConfig, n_qubits=4) == shape
    settings = OptimizerSettings(max_iter=7, tolerance=1e-6, seed=5)
    optimizer = {name: getattr(settings, name) for name in OptimizerSettings.FIELDS}
    assert _section({"optimizer": optimizer}, "optimizer", OptimizerSettings) == settings
    assert _section({}, "optimizer", OptimizerSettings) == OptimizerSettings()
    readers = [(HamiltonianSpec.from_json, hamiltonian, "r_ref"),
               (lambda obj: _section({"ansatz": obj}, "ansatz", AnsatzConfig, n_qubits=4), ansatz, "n_qubits"),
               (lambda obj: _section({"optimizer": obj}, "optimizer", OptimizerSettings), optimizer,
                "restarts")]
    for read, section, extra in readers:
        with pytest.raises(InvalidConfigError, match=rf"unknown keys \['{extra}'\]"):
            read(dict(section, **{extra: 1.0}))
    # the angles are the optimizer's, passed next to the form and counted there
    state = np.eye(2 ** shape.n_qubits)[0]
    for params in (np.zeros(shape.n_params - 1), np.zeros(shape.n_params + 1), np.zeros((3, 4))):
        with pytest.raises(InvalidConfigError, match=f"expected {shape.n_params} parameters"):
            ansatz_state(shape, params)
        with pytest.raises(InvalidConfigError, match=f"expected {shape.n_params} parameters"):
            adjoint_gradient(shape, params, state, state)


def test_every_field_of_a_config_class_has_a_table_rule():
    # the FIELDS table reads every field of its class, so no field passes
    # unread to a hand-written check (a None rule)
    for cls in (HamiltonianSpec, AnsatzConfig, OptimizerSettings):
        assert {name: rule for name, rule in cls.FIELDS.items() if rule is None} == {}, cls.__name__


_RUN_CONFIGS = """\
import sys
sys.path.insert(0, sys.argv[1])
import gaugesim.cli
for config in sys.argv[2:]:
    assert gaugesim.cli.main(["vqe", "--config", config, "--quiet"]) == 0, config
"""


def test_vqe_traces_do_not_depend_on_blas_threads(tmp_path):
    # README's six vqe configs, and the MajoranaFermions monopole (the other
    # build with 16 sectors), give the same trace bytes at 1 and 2 BLAS threads
    hamiltonians = {"cartesian": {"kind": "LandauCartesian", "b_field": 2.0},
                    "polar": {"kind": "LandauPolar", "b_field": 2.0},
                    "monopole": {"kind": "MonopoleSU2", "b_field": 2.0, "variant": "HermitianPart"},
                    "majorana": {"kind": "MonopoleSU2", "b_field": 2.0, "variant": "MajoranaFermions"}}
    src = str(pathlib.Path(gaugesim.__file__).resolve().parents[1])
    traces = {}
    for threads in ("1", "2"):
        configs = []
        for name, spec in hamiltonians.items():
            for entangler in ("cz", "cx"):
                path = tmp_path / f"{name}_{entangler}_{threads}.json"
                path.write_text(json.dumps({
                    "hamiltonian": spec, "ansatz": {"depth": 3, "entangler": entangler},
                    "optimizer": {"max_iter": 600, "seed": 11, "tolerance": 1e-9},
                    "output": str(path.with_suffix(".csv"))}))
                configs.append(path)
        proc = subprocess.run([sys.executable, "-c", _RUN_CONFIGS, src, *map(str, configs)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        traces[threads] = [path.with_suffix(".csv").read_bytes() for path in configs]
    assert traces["1"] == traces["2"]


_RUN_EOH = """\
import sys
sys.path.insert(0, sys.argv[1])
import gaugesim.cli
for config in sys.argv[2:]:
    assert gaugesim.cli.main(["eoh", "--config", config, "--quiet"]) == 0
"""

#: README's eoh config, and the 8x8 grid, whose Trotter product steps on
#: two 3-bit registers
_THREAD_EOH = {"readme": _README_EOH,
               "grid8": dict(_README_EOH, hamiltonian={"kind": "LandauCartesian", "b_field": 2.0,
                                                       "boson_trunc": 8})}


def test_eoh_csvs_do_not_depend_on_blas_threads(tmp_path):
    # the eoh configs give the same exact and Trotter bytes at 1 and 2 BLAS threads
    src = str(pathlib.Path(gaugesim.__file__).resolve().parents[1])
    csvs = {}
    for threads in ("1", "2"):
        paths = []
        for name, cfg in _THREAD_EOH.items():
            paths.append(tmp_path / f"{name}_{threads}.json")
            paths[-1].write_text(json.dumps(dict(cfg, output=str(tmp_path / f"{name}_{threads}.csv"))))
        proc = subprocess.run([sys.executable, "-c", _RUN_EOH, src, *map(str, paths)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csvs[threads] = [(tmp_path / f"{name}_{threads}_{m}.csv").read_bytes()
                         for name in _THREAD_EOH for m in ("exact", "trotter")]
    assert csvs["1"] == csvs["2"]
