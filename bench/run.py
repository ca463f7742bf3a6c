#!/usr/bin/env python3
"""gaugesim benchmark: seeded CLI workloads timed end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload vqe-monopole9 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process drives ``gaugesim.cli.main`` in-process as a closed loop with
one client: each command starts after the previous one returns.  The BLAS
thread count is pinned to the number of usable CPUs (the OpenBLAS default)
before numpy is imported.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the fixed op
list's wall time, the set-up time (median of several fresh interpreters,
each importing ``gaugesim.cli`` and running one warm-up command) and the
peak RSS.  ``--trace 1`` runs the op list untraced and then traced (see
``tracing.py``) and reports the per-layer metrics.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the run record
(environment, host-speed probes, per-op times, diagnostics, all layer
totals, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# Fresh starts per run, spread evenly between the ops so that they sample
# the same stretch of machine time as wall_s.
SETUP_STARTS = 7
PROBE_TIMEOUT_S = 60
# Passes of the host-speed kernel per probe (about 0.2 s on the 2-vCPU VM
# described in README.md).
HOST_PROBE_PASSES = 6000

WARM_UP = {"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0}}

_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import gaugesim.cli
gaugesim.cli.main(["spectrum", "--config", sys.argv[2], "--quiet"])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Pin OpenBLAS to the usable CPU count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread count was pinned")
    threads = usable_cpus()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout():
    if not (SRC / "gaugesim" / "cli.py").is_file():
        raise SetupError(f"no gaugesim sources under {SRC}")


def import_program():
    """Import gaugesim from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import gaugesim.cli

    if Path(gaugesim.__file__).resolve().parent != SRC / "gaugesim":
        raise SetupError(f"imported gaugesim from {gaugesim.__file__}, not {SRC}")
    return gaugesim.cli


def write_warm_up(workdir: Path) -> str:
    path = workdir / "warm_up.json"
    path.write_text(json.dumps(dict(WARM_UP, output=str(workdir / "warm_up.csv"))))
    return str(path)


def measure_setup(warm_up_config: str) -> float:
    """Seconds from spawning a fresh interpreter to gaugesim being ready."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), warm_up_config],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def host_probe_s() -> float:
    """Seconds for a fixed elementwise numpy kernel that uses no BLAS and no gaugesim.

    Timed next to each set-up probe, it tells a slow phase of the host
    apart from a slower program when two run records are compared.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.normal(size=(11, 256)) + 0j
    perm = rng.permutation(256)
    phase = np.exp(1j * rng.normal(size=256))
    t0 = time.perf_counter()
    for _ in range(HOST_PROBE_PASSES):
        x = 0.9 * x - 0.1j * (phase * x[:, perm])
    return time.perf_counter() - t0


def chunked(items, k: int) -> list:
    """``k`` consecutive slices of nearly equal length (some empty if k > len)."""
    cuts = [round(i * len(items) / k) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def run_ops(cli, ops) -> tuple:
    """Run the ops back to back; returns (wall seconds, per-op records)."""
    records = []
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv())
            cause = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        except (Exception, SystemExit):  # noqa: BLE001 - a crashing op is counted, not fatal
            # argparse reports a rejected command line with SystemExit.
            cause = "exception: " + traceback.format_exc(limit=3).strip()
        records.append({"command": op.command, "config": op.config_path,
                        "seconds": time.perf_counter() - t0, "cause": cause})
    return time.perf_counter() - start, records


def check_outputs(ops, records) -> list:
    """Check every op that exited 0; fills ``cause`` and returns diagnostics."""
    from workloads import CheckFailed

    diagnostics = []
    for op, rec in zip(ops, records):
        if rec["cause"] is not None:
            continue
        try:
            diag = op.check(op.output)
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            rec["cause"] = f"check failed: {type(exc).__name__}: {exc}"
            continue
        diagnostics.append(diag)
    return diagnostics


def count_failures(records) -> int:
    return sum(1 for rec in records if rec["cause"] is not None)


def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(names, stats, counters, diagnostics, overhead_frac) -> dict:
    """Values of the per-layer metrics named in BENCHMARK.json.

    ``<layer>.calls`` and ``<layer>.self_s`` come from the aggregated spans;
    the rest are derived here, and all of those are always returned.
    """
    def total(key):
        return sum(d.get(key, 0) for d in diagnostics)

    def largest(key):
        return max((d[key] for d in diagnostics if key in d), default=0.0)

    iterations = total("iterations")
    decompositions = stats.get("evolution.pauli_decompose", {}).get("calls", 0)
    derived = {
        "vqe.iterations": iterations,
        "vqe.objective_evals": total("objective_evals"),
        "vqe.circuits_per_iter": (stats.get("circuits.ansatz_state", {}).get("calls", 0) / iterations
                                  if iterations else 0.0),
        "evolution.pauli_terms": (counters.get("evolution.pauli_terms", 0) / decompositions
                                  if decompositions else 0.0),
        "evolution.trotter_dev_max": largest("trotter_dev"),
        "vqe.gap_to_real_floor_max": largest("gap_to_real_floor"),
        "trace.overhead_frac": overhead_frac,
    }
    values = dict(derived)
    for name in names:
        if name not in derived:
            layer, _, field = name.rpartition(".")
            values[name] = stats.get(layer, {}).get(field, 0)
    return values


def environment(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                   platform.processor())
    try:  # git must not look for a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaugesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "usable_cpus": usable_cpus(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit, "source_sha256": digest.hexdigest(), "workload_seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check_checkout()
    threads = pin_blas_threads()
    spec = load_spec()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up = write_warm_up(workdir)
        cli = import_program()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["spectrum", "--config", warm_up])
        if code != 0:
            raise SetupError(f"warm-up command exited {code}: {err.getvalue().strip()[-500:]}")

        import workloads
        from tracing import Tracer, aggregate

        units = workloads.units_for(workload, seconds / 2 if trace else seconds)
        ops = workloads.make_ops(workload, seed, units, workdir)
        setup_times, host_times, chunk_walls, records = [], [], [], []
        for chunk in chunked(ops, 1 if trace else SETUP_STARTS):
            if not trace:
                setup_times.append(measure_setup(warm_up))
            host_times.append(host_probe_s())
            chunk_wall_s, chunk_records = run_ops(cli, chunk)
            chunk_walls.append(chunk_wall_s)
            records += chunk_records
        wall_s = sum(chunk_walls)
        diagnostics = check_outputs(ops, records)
        record = {"environment": environment(threads, seed), "workload": workload, "units": units,
                  "setup_times_s": setup_times, "host_probe_s": host_times, "chunk_wall_s": chunk_walls,
                  "wall_s": wall_s, "ops": records}
        OUT.mkdir(exist_ok=True)
        if trace:
            tracer = Tracer()
            with tracer:
                traced_wall_s, traced_records = run_ops(cli, ops)
            diagnostics = check_outputs(ops, traced_records)
            records = records + traced_records
            stats = aggregate(tracer.spans)
            names = [m["name"] for m in spec["per_layer"]]
            metrics = layer_metrics(names, stats, tracer.counters, diagnostics,
                                    traced_wall_s / wall_s - 1.0)
            units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
            tracer.write(OUT / f"{tag}-spans.csv.gz")
            record.update(traced_wall_s=traced_wall_s, traced_ops=traced_records, layers=stats,
                          counters=tracer.counters)
        else:
            metrics = {
                "setup_s": median(setup_times),
                "wall_s": wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        record["diagnostics"] = diagnostics
        failed = count_failures(records)
        record["fail_frac"] = failed / len(records)
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
        for rec in records:
            if rec["cause"] is not None:
                print(f"FAILED {rec['command']} {rec['config']}: {rec['cause']}", file=sys.stderr)
        return {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units_of[name]} for name in units_of},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(names, seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"{workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload == "all":
            result = run_all(names, args.seed, args.seconds, bool(args.trace))
        elif args.workload in names:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
