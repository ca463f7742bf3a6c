"""Command-line driver: JSON experiment configs in, CSV artifacts out.

Commands: spectrum, vqe, eoh, scatter, wuyang.  Every command is a pure
function of (config, seed): fixed seeds give byte-identical CSV output.
Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import vqe as vqe_mod
from .analytic import wu_yang_series_large, wu_yang_series_small, wu_yang_series_small_prime, wu_yang_solve
from .basis import pos_grid
from .circuits import AnsatzConfig
from .errors import GaugesimError, InvalidConfigError, InvalidSpecError
from .evolution import (
    dual_lattice_period,
    transition_series,
    vertex_scan,
    wrap_momentum,
    write_transition_csv,
)
from .hamiltonians import (
    BuiltHamiltonian,
    HamiltonianSpec,
    build,
    build_landau_cartesian_position,
)
from .operators import hermitian_eig

_FLOATY = (int, float)


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InvalidConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InvalidConfigError(f"{where}: missing keys {sorted(missing)}")


def _num(obj, key, where, default=None, kind=float, minimum=None):
    if key not in obj:
        return default
    val = obj[key]
    if kind is int and not isinstance(val, int):
        raise InvalidConfigError(f"{where}.{key}: expected an integer, got {val!r}")
    if kind is float and not isinstance(val, _FLOATY):
        raise InvalidConfigError(f"{where}.{key}: expected a number, got {val!r}")
    val = kind(val)
    if minimum is not None and val < minimum:
        raise InvalidConfigError(f"{where}.{key}: must be >= {minimum}, got {val}")
    return val


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidConfigError("top-level config must be a JSON object")
    return cfg


def _hamiltonian_spec(cfg, args) -> HamiltonianSpec:
    if "hamiltonian" not in cfg:
        raise InvalidConfigError("config requires a 'hamiltonian' object")
    ham = dict(cfg["hamiltonian"])
    if args.variant is not None:
        name, _, rref = args.variant.partition("=")
        ham["variant"] = {"ScalarB": float(rref)} if name == "ScalarB" else name
    try:
        return HamiltonianSpec.from_json(ham)
    except GaugesimError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad hamiltonian spec: {exc}") from exc


def _output_path(cfg, args) -> str:
    out = args.out if args.out is not None else cfg.get("output")
    if not isinstance(out, str) or not out:
        raise InvalidConfigError("an output path is required ('output' key or --out)")
    return out


def _ansatz_from(cfg, n_qubits) -> AnsatzConfig:
    a = cfg.get("ansatz", {})
    _require_keys(a, ("depth", "entangler"), (), "ansatz")
    depth = _num(a, "depth", "ansatz", default=3, kind=int, minimum=0)
    entangler = a.get("entangler", "cz")
    if entangler not in ("cz", "cx"):
        raise InvalidConfigError(f"ansatz.entangler must be 'cz' or 'cx', got {entangler!r}")
    return vqe_mod.template(n_qubits, depth, entangler)


def _optimizer_from(cfg, args) -> vqe_mod.OptimizerSettings:
    o = cfg.get("optimizer", {})
    # "gradient_step" is accepted so that older configs still parse, and
    # ignored: the gradient is exact.
    _require_keys(
        o,
        ("max_iter", "seed", "tolerance", "restarts", "gradient_step", "method"),
        (),
        "optimizer",
    )
    method = o.get("method", "SLSQP")
    if not isinstance(method, str):
        raise InvalidConfigError("optimizer.method must be a string")
    seed = _num(o, "seed", "optimizer", default=vqe_mod.DEFAULT_SEED, kind=int)
    if args.seed is not None:
        seed = args.seed
    return vqe_mod.OptimizerSettings(
        max_iter=_num(o, "max_iter", "optimizer", default=600, kind=int, minimum=1),
        tolerance=_num(o, "tolerance", "optimizer", default=1e-9, kind=float, minimum=0.0),
        seed=seed,
        restarts=_num(o, "restarts", "optimizer", default=1, kind=int, minimum=1),
        method=method,
    )


def _say(args, text):
    if not args.quiet:
        print(text)


def cmd_spectrum(cfg, args) -> int:
    _require_keys(cfg, ("hamiltonian", "output"), ("hamiltonian",), "config")
    spec = _hamiltonian_spec(cfg, args)
    out = _output_path(cfg, args)
    built = build(spec)
    if built.hermitian:
        values = hermitian_eig(built.matrix).values
    else:
        values = np.sort(np.linalg.eigvals(built.matrix).real)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{v:.17g}\n")
    _say(args, f"lambda_min={values[0]:.9f}")
    return 0


def cmd_vqe(cfg, args) -> int:
    _require_keys(cfg, ("hamiltonian", "ansatz", "optimizer", "output"), ("hamiltonian",), "config")
    spec = _hamiltonian_spec(cfg, args)
    out = _output_path(cfg, args)
    built = build(spec)
    if not built.hermitian:
        raise InvalidConfigError(
            f"variant {spec.variant!r} builds a non-Hermitian matrix; VQE needs a real "
            "objective - select variant 'HermitianPart' (or 'MajoranaFermions')"
        )
    ansatz = _ansatz_from(cfg, built.qubits)
    opt = _optimizer_from(cfg, args)
    result = vqe_mod.minimize(built, ansatz, opt)
    vqe_mod.write_trace_csv(result, out)
    lam = hermitian_eig(built.matrix).values[0]
    _say(args, f"energy={result.energy:.9f}, lambda_min={lam:.9f}, gap={result.energy - lam:.3e}")
    return 0


def cmd_eoh(cfg, args) -> int:
    _require_keys(
        cfg, ("hamiltonian", "evolution", "final_states", "output"), ("hamiltonian",), "config"
    )
    spec = _hamiltonian_spec(cfg, args)
    if spec.kind != "LandauCartesian":
        raise InvalidConfigError(
            f"eoh supports kind 'LandauCartesian' (position-basis evolution), got {spec.kind!r}"
        )
    out = _output_path(cfg, args)
    ev = cfg.get("evolution", {})
    _require_keys(ev, ("t_max", "t_points", "trotter_steps", "method"), (), "evolution")
    t_max = _num(ev, "t_max", "evolution", default=1.0, kind=float, minimum=0.0)
    t_points = _num(ev, "t_points", "evolution", default=11, kind=int, minimum=1)
    steps = _num(ev, "trotter_steps", "evolution", default=100, kind=int, minimum=1)
    method = ev.get("method", "Both")
    if method not in ("Both", "Exact", "Trotter"):
        raise InvalidConfigError(f"evolution.method must be Both/Exact/Trotter, got {method!r}")

    built = build_landau_cartesian_position(spec)
    n = spec.resolved().boson_trunc
    finals = cfg.get("final_states", "all")
    if finals != "all":
        if not (isinstance(finals, list) and all(isinstance(k, int) for k in finals)):
            raise InvalidConfigError("final_states must be 'all' or a list of basis indices")
        if any(not 0 <= k < built.dim for k in finals):
            raise InvalidConfigError("final_states index outside the register")
        basis_vectors = [np.eye(built.dim)[:, k] for k in finals]
    else:
        basis_vectors = "all"

    # initial particle position nearest the origin: with an even grid zero is
    # not a point, so both axes sit at the smallest positive value.
    centre = (n // 2) * n + (n // 2)
    psi_i = np.zeros(built.dim, dtype=complex)
    psi_i[centre] = 1.0
    ts = np.linspace(0.0, t_max, t_points)

    series = {}
    if method in ("Both", "Exact"):
        series["exact"] = transition_series(built, psi_i, basis_vectors, ts, method="exact")
    if method in ("Both", "Trotter"):
        series["trotter"] = transition_series(
            built, psi_i, basis_vectors, ts, method="trotter", trotter_steps=steps
        )
    paths = {}
    stem, dot, ext = out.rpartition(".")
    for name, s in series.items():
        path = f"{stem}_{name}.{ext}" if dot else f"{out}_{name}"
        write_transition_csv(s, path)
        paths[name] = path
    if len(series) == 2:
        dev = float(np.max(np.abs(series["exact"].probabilities() - series["trotter"].probabilities())))
        _say(args, f"max_deviation={dev:.3e} files={paths['exact']},{paths['trotter']}")
    else:
        only = next(iter(paths.values()))
        _say(args, f"file={only}")
    return 0


def cmd_scatter(cfg, args) -> int:
    _require_keys(cfg, ("scatter", "output"), ("scatter",), "config")
    sc = cfg["scatter"]
    _require_keys(sc, ("qubits", "p1", "p3", "p2_scan"), ("p1", "p3"), "scatter")
    qubits = _num(sc, "qubits", "scatter", default=4, kind=int, minimum=1)
    n = 2 ** qubits
    p1 = _num(sc, "p1", "scatter", kind=int)
    p3 = _num(sc, "p3", "scatter", kind=int)
    if not (0 <= p1 < n and 0 <= p3 < n):
        raise InvalidConfigError(f"p1/p3 must index the {n}-state momentum grid")
    out = _output_path(cfg, args)

    scan = sc.get("p2_scan", {})
    _require_keys(scan, ("min", "max", "points"), (), "scatter.p2_scan")
    period = dual_lattice_period(n)
    lo = _num(scan, "min", "p2_scan", default=-period / 2.0, kind=float)
    hi = _num(scan, "max", "p2_scan", default=period / 2.0, kind=float)
    points = _num(scan, "points", "p2_scan", default=16 * n, kind=int, minimum=2)
    if hi <= lo:
        raise InvalidConfigError("p2_scan.max must exceed p2_scan.min")
    p2s = np.linspace(lo, hi, points, endpoint=False)
    amps = vertex_scan(p1, p3, n, p2s)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("p2,abs_amplitude\n")
        for p2, a in zip(p2s, amps):
            fh.write(f"{p2:.17g},{a:.17g}\n")
    grid = pos_grid(n)
    predicted = float(grid[p3] - grid[p1])
    argmax = float(p2s[int(np.argmax(amps))])
    _say(
        args,
        f"argmax_p2={argmax:.9f} predicted_p2={predicted:.9f} "
        f"predicted_wrapped={wrap_momentum(predicted, n):.9f}",
    )
    return 0


def cmd_wuyang(cfg, args) -> int:
    _require_keys(cfg, ("wuyang", "output"), ("wuyang",), "config")
    wy = cfg["wuyang"]
    _require_keys(
        wy, ("r_start", "r_end", "steps", "seed_series", "g_start", "gprime_start"),
        ("r_start", "r_end", "steps"), "wuyang",
    )
    r_start = _num(wy, "r_start", "wuyang", kind=float)
    r_end = _num(wy, "r_end", "wuyang", kind=float)
    steps = _num(wy, "steps", "wuyang", kind=int, minimum=10)
    out = _output_path(cfg, args)
    if wy.get("seed_series", False):
        g0 = wu_yang_series_small(r_start)
        gp0 = wu_yang_series_small_prime(r_start)
    else:
        if "g_start" not in wy or "gprime_start" not in wy:
            raise InvalidConfigError("wuyang needs seed_series=true or g_start/gprime_start")
        g0 = _num(wy, "g_start", "wuyang", kind=float)
        gp0 = _num(wy, "gprime_start", "wuyang", kind=float)
    traj = wu_yang_solve(r_start, r_end, steps, g0, gp0)
    fine = wu_yang_solve(r_start, r_end, steps * 16, g0, gp0)
    max_err = float(np.max(np.abs(traj[:, 1] - fine[::16, 1])))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("r,g,gprime,series_small,series_large\n")
        for r, g, gp in traj:
            fh.write(
                f"{r:.17g},{g:.17g},{gp:.17g},"
                f"{wu_yang_series_small(r):.17g},{wu_yang_series_large(r):.17g}\n"
            )
    _say(args, f"final_r={traj[-1, 0]:.9f} final_g={traj[-1, 1]:.9f} max_error_vs_fine={max_err:.3e}")
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "vqe": cmd_vqe,
    "eoh": cmd_eoh,
    "scatter": cmd_scatter,
    "wuyang": cmd_wuyang,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaugesim",
        description="Gauge-field quantum simulation runs driven by JSON configs.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", help="override the config's output path")
    parser.add_argument("--seed", type=int, help="override the optimizer seed")
    parser.add_argument("--variant", help="override the Hamiltonian variant (monopole)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (InvalidConfigError, InvalidSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GaugesimError as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
