"""Command-line driver: JSON experiment configs in, CSV artifacts out.

Commands: spectrum, vqe, eoh, scatter, wuyang.  Every command is a pure
function of its config file, seed included: one config gives
byte-identical CSV output.  Each returns its summary line, which ``main``
prints unless ``--quiet`` is given.  ``errors.write_rows`` writes every
CSV and refuses NaN and infinities: such a run writes no file, exit 3.
Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import vqe as vqe_mod
from .analytic import wu_yang_series_large, wu_yang_series_small, wu_yang_series_small_prime, wu_yang_solve
from .circuits import AnsatzConfig
from .errors import GaugesimError, InvalidConfigError, read_fields, read_number, write_rows
from .evolution import (MAX_TROTTER_STEPS, _vertex_grid, dual_lattice_period, transition_series, vertex_scan,
                        wrap_momentum, write_transition_csv)
from .hamiltonians import HamiltonianSpec, build, build_landau_cartesian_position
from .operators import MAX_QUBITS


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc


def _output_path(cfg) -> str:
    out = cfg.get("output")
    if not isinstance(out, str) or not out:
        raise InvalidConfigError("an output path is required ('output' key)")
    return out


def _section(cfg, name: str, cls, **given):
    """``cls`` from the config section ``name``, whose keys are ``cls.FIELDS``
    less those ``given`` by the caller; the constructor reads the values."""
    keys = dict.fromkeys(field for field in cls.FIELDS if field not in given)
    return cls(**given, **read_fields(cfg.get(name, {}), name, keys))


def cmd_spectrum(cfg) -> str:
    read_fields(cfg, "config", {"hamiltonian": None, "output": None}, required=("hamiltonian",))
    spec = HamiltonianSpec.from_json(cfg["hamiltonian"])
    out = _output_path(cfg)
    values = build(spec).spectrum()
    write_rows(out, "index,eigenvalue", np.column_stack([np.arange(len(values)), values]))
    return f"lambda_min={values[0]:.9f}"


def cmd_vqe(cfg) -> str:
    read_fields(cfg, "config", {"hamiltonian": None, "ansatz": None, "optimizer": None, "output": None},
                required=("hamiltonian",))
    spec = HamiltonianSpec.from_json(cfg["hamiltonian"])
    out = _output_path(cfg)
    built = build(spec)
    if not built.hermitian:
        raise InvalidConfigError(
            f"variant {spec.variant!r} builds a non-Hermitian matrix; VQE needs a real "
            "objective - select variant 'HermitianPart' (or 'MajoranaFermions')"
        )
    ansatz = _section(cfg, "ansatz", AnsatzConfig, n_qubits=built.qubits)
    opt = _section(cfg, "optimizer", vqe_mod.OptimizerSettings)
    result = vqe_mod.minimize(built, ansatz, opt)
    vqe_mod.write_trace_csv(result, out)
    lam = built.lowest_eigenvalue()
    return (f"energy={result.energy:.9f}, lambda_min={lam:.9f}, gap={result.energy - lam:.3e}, "
            f"converged={result.converged}")


def cmd_eoh(cfg) -> str:
    read_fields(cfg, "config", {"hamiltonian": None, "evolution": None, "final_states": None, "output": None},
                required=("hamiltonian",))
    spec = HamiltonianSpec.from_json(cfg["hamiltonian"])
    if spec.kind != "LandauCartesian":
        raise InvalidConfigError(
            f"eoh supports kind 'LandauCartesian' (position-basis evolution), got {spec.kind!r}"
        )
    out = _output_path(cfg)
    ev = read_fields(cfg.get("evolution", {}), "evolution", {
        "t_max": (float, 0.0), "t_points": (int, 1, 128), "trotter_steps": (int, 1, MAX_TROTTER_STEPS),
        "method": ("Both", "Exact", "Trotter"),
    })
    method = ev.get("method", "Both")

    built = build_landau_cartesian_position(spec)
    n = spec.boson_trunc
    finals = cfg.get("final_states", "all")
    if finals != "all":
        if not (isinstance(finals, list) and 0 < len(finals) <= built.dim):
            raise InvalidConfigError(
                f"final_states must be 'all' or a list of 1 to {built.dim} basis indices"
            )
        indices = [read_number(k, "final_states[]", int, 0, built.dim - 1) for k in finals]
    else:
        indices = list(range(built.dim))

    # initial particle position nearest the origin: with an even grid zero is
    # not a point, so both axes sit at the smallest positive value.
    centre = (n // 2) * n + (n // 2)
    psi_i = np.zeros(built.dim, dtype=complex)
    psi_i[centre] = 1.0
    ts = np.linspace(0.0, ev.get("t_max", 1.0), ev.get("t_points", 11))

    # every series is computed before any is written: a refused phase or a non-finite table writes no file
    series = {}
    stem, ext = os.path.splitext(out)
    for name in ("exact", "trotter"):
        if method in ("Both", name.capitalize()):
            s = transition_series(built, psi_i, "all", ts, method=name,
                                  trotter_steps=ev.get("trotter_steps", 100))
            # the requested columns of the full basis, named by grid index
            series[f"{stem}_{name}{ext}"] = replace(s, amplitudes=s.amplitudes[:, indices], labels=indices)
    for path, s in series.items():
        write_transition_csv(s, path)
    if len(series) == 2:
        exact, trotter = series.values()
        dev = float(np.max(np.abs(exact.probabilities() - trotter.probabilities())))
        return f"max_deviation={dev:.3e} files={','.join(series)}"
    return f"file={next(iter(series))}"


def cmd_scatter(cfg) -> str:
    read_fields(cfg, "config", {"scatter": None, "output": None}, required=("scatter",))
    sc = read_fields(cfg["scatter"], "scatter", {
        "qubits": (int, 1, MAX_QUBITS), "p1": int, "p3": int, "p2_scan": None,
    }, required=("p1", "p3"))
    n = 2 ** sc.get("qubits", 4)
    p1, p3 = sc["p1"], sc["p3"]
    if not (0 <= p1 < n and 0 <= p3 < n):
        raise InvalidConfigError(f"p1/p3 must index the {n}-state momentum grid")
    out = _output_path(cfg)

    scan = read_fields(sc.get("p2_scan", {}), "scatter.p2_scan",
                       {"min": float, "max": float, "points": (int, 2, 16384)})
    period = dual_lattice_period(n)
    lo = scan.get("min", -period / 2.0)
    hi = scan.get("max", period / 2.0)
    if hi <= lo:
        raise InvalidConfigError("p2_scan.max must exceed p2_scan.min")
    grid = _vertex_grid([lo, hi], n, "scatter.p2_scan", InvalidConfigError)
    p2s = np.linspace(lo, hi, scan.get("points", 16 * n), endpoint=False)
    amps = vertex_scan(p1, p3, n, p2s)
    write_rows(out, "p2,abs_amplitude", np.column_stack([p2s, amps]))
    predicted = float(grid[p3] - grid[p1])
    argmax = float(p2s[int(np.argmax(amps))])
    return (f"argmax_p2={argmax:.9f} predicted_p2={predicted:.9f} "
            f"predicted_wrapped={wrap_momentum(predicted, n):.9f}")


def cmd_wuyang(cfg) -> str:
    read_fields(cfg, "config", {"wuyang": None, "output": None}, required=("wuyang",))
    wy = read_fields(cfg["wuyang"], "wuyang", {
        "r_start": float, "r_end": float, "steps": (int, 10, 100000), "seed_series": (True, False),
        "g_start": float, "gprime_start": float,
    }, required=("r_start", "r_end", "steps"))
    r_start, r_end, steps = wy["r_start"], wy["r_end"], wy["steps"]
    out = _output_path(cfg)
    if wy.get("seed_series", False):
        if "g_start" in wy or "gprime_start" in wy:
            raise InvalidConfigError("wuyang takes seed_series=true or g_start/gprime_start, not both")
        g0 = wu_yang_series_small(r_start)
        gp0 = wu_yang_series_small_prime(r_start)
    elif "g_start" in wy and "gprime_start" in wy:
        g0, gp0 = wy["g_start"], wy["gprime_start"]
    else:
        raise InvalidConfigError("wuyang needs seed_series=true or g_start/gprime_start")
    traj = wu_yang_solve(r_start, r_end, steps, g0, gp0)
    fine = wu_yang_solve(r_start, r_end, steps * 16, g0, gp0)
    max_err = float(np.max(np.abs(traj[:, 1] - fine[::16, 1])))
    rs = traj[:, 0]
    write_rows(out, "r,g,gprime,series_small,series_large", np.column_stack(
        [traj, [wu_yang_series_small(r) for r in rs], [wu_yang_series_large(r) for r in rs]]))
    return f"final_r={traj[-1, 0]:.9f} final_g={traj[-1, 1]:.9f} max_error_vs_fine={max_err:.3e}"


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "vqe": cmd_vqe,
    "eoh": cmd_eoh,
    "scatter": cmd_scatter,
    "wuyang": cmd_wuyang,
}


_PARSER = argparse.ArgumentParser(prog="gaugesim",  # one parser for every main() call
                                  description="Gauge-field quantum simulation runs driven by JSON configs.")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to the JSON experiment config")
_PARSER.add_argument("--quiet", action="store_true", help="suppress the summary line")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        # Overflow ends in a non-finite result, which write_rows refuses
        # with one message; numpy's warnings would add lines to stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = _COMMANDS[args.command](_load_config(args.config))
    except (InvalidConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GaugesimError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
