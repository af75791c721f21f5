"""Tests of the benchmark harness itself: seeded inputs, the correctness gate,
the tracer, and the refusal to run without the program.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
CLI = run.import_cli()

# Small versions of each workload, so every test runs in well under a second.
SMALL = {
    "interval-wide": lambda rng: workloads.interval_wide(rng, d=6, n=4),
    "constraint-sum": lambda rng: workloads.constraint_sum(rng, d=4, m=2, n=4, models=1),
    "vertex-limit": lambda rng: workloads.vertex_limit(rng, d=4, leak=0.3, models=1),
    "mixed-check": lambda rng: workloads.mixed_check(rng, n=3, models=1),
}


def _runner(tmp_path, name, seed=3):
    workload = SMALL[name](np.random.default_rng(seed))
    workload.write(tmp_path)
    return run.Runner(CLI, tmp_path), workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_documents(tmp_path, name):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    workloads.build(name, 11).write(first)
    workloads.build(name, 11).write(again)
    workloads.build(name, 12).write(other)
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in again.iterdir())
    assert all((first / f).read_bytes() == (again / f).read_bytes() for f in files)
    assert any((first / f).read_bytes() != (other / f).read_bytes() for f in files)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_op_of_every_workload_passes_the_gate(tmp_path, name):
    runner, workload = _runner(tmp_path, name)
    assert run.crosscheck(runner, workload)
    for op in workload.ops:
        seconds, _, lp_calls = runner.gated(op)
        assert seconds is not None
        assert lp_calls > 0
    assert runner.failed == 0


def _tamperings(op):
    """(description, edit) pairs, each of which must make the gate fail."""

    def bump(path):
        def edit(doc):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1
        return edit

    def conditional(where):
        def edit(doc):
            node = doc[where]["conditional"] if where else doc["conditional"]
            label = next(iter(node))
            node[label] = [node[label][1] + 1.0, node[label][1] + 2.0]
        return edit

    if op.command == "check":
        return [
            ("engine lp_calls", bump(["engine", "lp_calls"])),
            ("oracle lp_calls", bump(["oracle", "lp_calls"])),
            ("engine bounds", conditional("engine")),
            ("oracle bounds", conditional("oracle")),
        ]

    def swap(doc):
        doc["lower"], doc["upper"] = doc["upper"] + 1.0, doc["lower"]

    def tighten(doc):
        mid = (doc["lower"] + doc["upper"]) / 2
        doc["lower"] = doc["upper"] = mid + 0.5

    return [
        ("lp_calls", bump(["lp_calls"])),
        ("lower above upper", swap),
        ("bounds that miss the precise value", tighten),
        ("conditional bounds", conditional(None)),
    ]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_rejects_tampered_lp_counts_and_bounds(tmp_path, name):
    runner, workload = _runner(tmp_path, name)
    op = workload.ops[0]
    _, doc, code = runner.run(op)
    assert gate.check(op, code, doc)[0] == []
    for what, edit in _tamperings(op):
        tampered = copy.deepcopy(doc)
        edit(tampered)
        problems, _ = gate.check(op, code, tampered)
        assert problems, f"gate accepted tampered {what}"
    assert gate.check(op, 3, doc)[0] == ["exit code 3"]
    assert gate.check(op, 0, None)[0]


def test_tampered_result_counts_as_a_failed_untimed_op(tmp_path):
    runner, workload = _runner(tmp_path, "interval-wide")
    op = workload.ops[0]

    class TamperingCli:
        @staticmethod
        def main(argv):
            code = CLI.main(argv)
            output = Path(argv[argv.index("--output") + 1])
            doc = json.loads(output.read_text())
            doc["lp_calls"] -= 1
            output.write_text(json.dumps(doc))
            return code

    runner.cli = TamperingCli
    seconds, _, lp_calls = runner.gated(op)
    assert (seconds, lp_calls) == (None, 0)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_a_stale_result_file_is_not_read_as_the_next_result(tmp_path):
    runner, workload = _runner(tmp_path, "interval-wide")
    op = workload.ops[0]
    assert runner.gated(op)[0] is not None

    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    runner.cli = Crashing
    assert runner.gated(op)[0] is None
    assert runner.failed == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_self_times_sum_to_the_op_time(tmp_path, name):
    runner, workload = _runner(tmp_path, name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        elapsed, doc, code = runner.run(workload.ops[0], tracer)
    finally:
        tracer.remove()
    assert code == 0 and tracer.absent == []
    spans = tracer.spans
    summary = tracing.summarise(spans)
    root = spans[0]
    assert root[tracing.NAME] == "op" and root[tracing.PARENT] == -1
    assert all(s[tracing.PARENT] >= 0 for s in spans[1:])
    op_time = root[tracing.END] - root[tracing.START]
    total_self = sum(entry["self"] for entry in summary.values())
    assert total_self == pytest.approx(op_time, rel=1e-9)
    assert op_time <= elapsed and op_time == pytest.approx(elapsed, rel=0.05, abs=5e-4)
    assert all(entry["self"] >= -1e-9 for entry in summary.values())
    # dumps_document recurses; only its top-level call is a span.
    assert summary["cli.serialize"]["calls"] == 1
    assert summary["cli.parse"]["calls"] == 4
    lp_calls = sum(v["calls"] for k, v in summary.items() if k.startswith("lp."))
    expected = doc["engine"]["lp_calls"] + doc["oracle"]["lp_calls"] if "engine" in doc \
        else doc["lp_calls"]
    assert lp_calls == expected


def test_tracer_skips_missing_names_and_restores_the_rest(tmp_path, monkeypatch):
    import credalmc.engine as engine

    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + (
        ("engine", "no_such_function", "engine.gone"),
        ("no_such_module", "anything", "gone"),
    ))
    original = engine.upper_transition
    tracer = tracing.Tracer()
    tracer.install()
    assert engine.upper_transition is not original
    tracer.remove()
    assert engine.upper_transition is original
    assert tracer.absent == ["engine.no_such_function", "no_such_module.anything"]

    runner, workload = _runner(tmp_path, "interval-wide")
    tracer.install()
    try:
        assert runner.gated(workload.ops[0], tracer)[0] is not None
    finally:
        tracer.remove()


def test_layer_metrics_cover_every_declared_name(tmp_path):
    runner, workload = _runner(tmp_path, "vertex-limit")
    samples, absent = run.measure_traced(runner, workload, seconds=0.2)
    metrics = run.layer_metrics(samples)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert list(run.DECLARED) == [m["name"] for m in declared["end_to_end"]]
    end_to_end = run.end_to_end_metrics({"times": [0.01] * 200, "lp_calls": 100}, 0.3)
    assert all(end_to_end[m["name"]][1] == m["unit"] for m in declared["end_to_end"])
    assert all(metrics[m["name"]][1] == m["unit"] for m in declared["per_layer"])
    assert absent == [] and runner.failed == 0
    assert metrics["inferences.limit.horizon_reached"][0] >= 2
    assert metrics["lp.vertex.calls"][0] == metrics["engine.lp_calls"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mixed-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert time.monotonic() - start < 60


def test_precise_witness_matches_a_direct_expectation():
    rng = np.random.default_rng(5)
    workload = SMALL["interval-wide"](rng)
    op = workload.ops[3]  # the signed product
    matrix, initial = op.chain.matrix, op.chain.initial
    d, n = op.d, op.n
    # Expectation of the product by summing over every path.
    fs = [op.g0] + [h for h, _ in op.steps]
    fs = fs[::-1]  # f_1 .. f_n
    total = 0.0
    for path in np.ndindex(*(d,) * n):
        p = initial[path[0]]
        for a, b in zip(path, path[1:]):
            p *= matrix[a, b]
        total += p * np.prod([f[x] for f, x in zip(fs, path)])
    assert op.witness()[1] == pytest.approx(total, rel=1e-12, abs=1e-15)
