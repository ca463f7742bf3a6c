"""Self-tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Op  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("a", 11.0, 12.0, -1, 1),
    ]
    stats = tracing.aggregate(spans)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert stats["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert stats["leaf"]["self_s"] == 1.0
    assert stats["b"]["self_s"] == 2.0


def test_tracer_records_nested_spans_and_op_ids():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner())
    outer()
    outer()
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("m.outer", -1, 0), ("m.inner", 0, 0), ("m.outer", -1, 1), ("m.inner", 2, 1)]
    stats = tracing.aggregate(tracer.spans)
    assert stats["m.outer"]["self_s"] == 4.0  # two spans of 3 ticks, each with a 1-tick child


def test_install_patches_from_import_copies_and_splits_transition_series():
    import gaugesim.cli
    import gaugesim.evolution
    import gaugesim.vqe

    original = gaugesim.evolution.transition_series
    h = np.diag([1.0, -1.0]).astype(complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    tracer = tracing.Tracer()
    with tracer:
        assert gaugesim.cli.transition_series is not original
        assert gaugesim.vqe.ansatz_state is gaugesim.circuits.ansatz_state
        gaugesim.cli.transition_series(h, psi, "all", [0.0, 0.5], method="trotter", trotter_steps=2)
        gaugesim.evolution.transition_series(h, psi, "all", [0.0, 0.5])
    assert gaugesim.cli.transition_series is original
    stats = tracing.aggregate(tracer.spans)
    assert stats["evolution.transition_series.trotter"]["calls"] == 1
    assert stats["evolution.transition_series.exact"]["calls"] == 1
    assert stats["evolution.pauli_decompose"]["calls"] == 1
    assert tracer.counters["evolution.pauli_terms"] == 1


def test_median():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_set_up_probes_are_spread_over_the_op_list():
    chunks = run.chunked(list(range(10)), 7)
    assert len(chunks) == 7
    assert [x for c in chunks for x in c] == list(range(10))
    assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
    assert sum(map(len, run.chunked([1], 3))) == 1


def _op(check):
    return Op("spectrum", "cfg.json", "out.csv", check)


def test_a_rejected_command_line_counts_as_failed(tmp_path):
    import gaugesim.cli

    ops = [Op("spectrum", str(tmp_path / "cfg.json"), "out.csv", lambda output: {})]
    ops[0].argv = lambda: ["spectrum", "--no-such-flag"]
    _, records = run.run_ops(gaugesim.cli, ops)
    assert run.count_failures(records) == 1
    assert "SystemExit" in records[0]["cause"]


def test_fail_counting_covers_exit_codes_and_checks():
    def failing(output):
        raise CheckFailed("wrong")

    ops = [_op(lambda output: {"x": 1}), _op(failing), _op(lambda output: {})]
    records = [{"cause": None}, {"cause": None}, {"cause": "exit 2: config error"}]
    diagnostics = run.check_outputs(ops, records)
    assert diagnostics == [{"x": 1}]
    assert run.count_failures(records) == 2
    assert records[1]["cause"].startswith("check failed")


def test_deliberately_wrong_output_counts_as_failed(tmp_path):
    import gaugesim.cli

    cfg = tmp_path / "spec.json"
    out = tmp_path / "spec.csv"
    cfg.write_text(json.dumps({"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0,
                                               "boson_trunc": 4}, "output": str(out)}))
    check = workloads.check_spectrum(16, workloads.ground_within(1.0, workloads.CARTESIAN_GROUND_TOL, "LLL"))
    ops = [Op("spectrum", str(cfg), str(out), check)]
    _, records = run.run_ops(gaugesim.cli, ops)
    run.check_outputs(ops, records)
    assert run.count_failures(records) == 0

    lines = out.read_text().splitlines()
    index, value = lines[1].split(",")
    lines[1] = f"{index},{float(value) - 1e-6!r}"
    out.write_text("\n".join(lines) + "\n")
    records[0]["cause"] = None
    run.check_outputs(ops, records)
    assert run.count_failures(records) == 1
    assert "LLL" in records[0]["cause"]


def _vqe_trace(tmp_path, energies):
    path = tmp_path / "vqe.csv"
    rows = [f"{i},{e!r},{2 * i + 1}" for i, e in enumerate(energies)]
    path.write_text("iteration,energy,evaluations\n" + "\n".join(rows) + "\n")
    return str(path)


def test_vqe_check_fails_an_early_stop_or_a_stalled_descent(tmp_path):
    floor = 0.5
    check = workloads.check_vqe(0.1, floor, budget=4)
    descent = [2.0, 1.0, 0.6, 0.55, 0.52, 0.52]
    assert check(_vqe_trace(tmp_path, descent))["iterations"] == 4
    assert check(_vqe_trace(tmp_path, [2.0, 1.0, floor + 1e-8, floor + 1e-8]))["iterations"] == 2
    with pytest.raises(CheckFailed, match="stopped after 2 of 4"):
        check(_vqe_trace(tmp_path, [2.0, 0.6, 0.55, 0.55]))
    with pytest.raises(CheckFailed, match="of the way"):
        workloads.check_vqe(0.1, floor)(_vqe_trace(tmp_path, [2.0, 1.9, 1.2, 1.0, 1.0]))
    with pytest.raises(CheckFailed, match="below lambda_min"):
        check(_vqe_trace(tmp_path, [2.0, 1.0, 0.5, 0.0, 0.0, 0.0]))


def test_scatter_argmax_is_compared_modulo_the_period():
    period = 2.0
    assert workloads.wrapped_distance(0.999999, -1.0, period) < 1e-5
    assert workloads.wrapped_distance(0.5, -0.5, period) == pytest.approx(1.0)


def test_literal_oracle_ground_is_the_free_ground():
    # `spectrum` prints lambda_min=0.412882686 for the literal monopole (non-Hermitian eigvals).
    assert workloads.free_monopole_spectrum()[0] == pytest.approx(0.412882686, abs=1e-7)


def test_op_lists_depend_only_on_the_seed(tmp_path):
    def configs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        ops = workloads.make_ops("cli-mix", seed, 2, workdir)
        return [{k: v for k, v in json.loads(Path(op.config_path).read_text()).items() if k != "output"}
                for op in ops]

    first = configs(5, "a")
    assert len(first) == 26
    assert first == configs(5, "b")
    assert first != configs(6, "c")


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import gaugesim.cli  # noqa: F401 - loads every traced module

    traced = {f"{short}.{name}" for short in tracing.TRACED_MODULES
              for name in tracing.public_functions(sys.modules[f"gaugesim.{short}"])}
    traced |= {"evolution.transition_series.exact", "evolution.transition_series.trotter"}
    derived = run.layer_metrics([], {}, {}, [], 0.0)
    for metric in spec["per_layer"]:
        layer, _, field = metric["name"].rpartition(".")
        if metric["name"] not in derived:
            assert field in ("calls", "self_s") and layer in traced, metric["name"]
