"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers (run with ``pytest -s`` to see them).

Every expected value asserted here is either trivially forced, rederived by
an in-test independent oracle, or cross-checked between unrelated code paths
at the stated tolerance.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from credalmc import (
    ImpreciseMarkovChain,
    IntervalRow,
    LpCounter,
    StateSpace,
    conditional_bounds,
    infer,
    limit_infer,
    lower_transition,
    materialize_path_function,
    naive_conditional_bounds,
    spec_hitting_probability,
    spec_hitting_time,
    spec_product,
    spec_single_instant,
    spec_sum,
    unconditional_bounds,
    upper_transition,
)
from credalmc.cli import main
from helpers import (
    E1_SPACE,
    e1_model,
    endpoint_bruteforce_two_step_upper,
    enumerate_vertex_processes,
    forward_conditional,
    forward_unconditional,
    iterate_upper,
    path_value_hitting_probability,
    path_value_hitting_time,
    path_value_product,
    path_value_single_instant,
    path_value_sum,
    random_gamble,
    random_model,
    random_spec,
    singleton_model,
)

DATA = Path(__file__).parent / "data"
F01 = np.array([0.0, 1.0])


def test_criterion_1_recursion_matches_naive_oracle():
    rng = np.random.default_rng(11)
    instances = 208
    start = time.perf_counter()
    for _ in range(instances):
        d = int(rng.integers(2, 4))
        model = random_model(rng, d)
        spec = random_spec(rng, d, max_horizon=5)
        upper, lower = conditional_bounds(model, spec)
        oracle_upper, oracle_lower = naive_conditional_bounds(
            model, materialize_path_function(spec)
        )
        assert upper == pytest.approx(oracle_upper, abs=1e-8)
        assert lower == pytest.approx(oracle_lower, abs=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS - {instances} random instances match the "
          f"exponential oracle within 1e-8 in {elapsed:.1f}s")


def test_criterion_2_vertex_process_envelope():
    rng = np.random.default_rng(22)
    instances = 60
    for _ in range(instances):
        model = random_model(rng, 2, kinds=("vertices",), max_vertices=3)
        spec = random_spec(rng, 2, max_horizon=4)
        upper, lower = conditional_bounds(model, spec)
        hist = materialize_path_function(spec)
        naive_upper, naive_lower = naive_conditional_bounds(model, hist)
        enum_upper, enum_lower = enumerate_vertex_processes(model, hist)
        for other_upper, other_lower in (
            (naive_upper, naive_lower),
            (enum_upper, enum_lower),
        ):
            assert upper == pytest.approx(other_upper, abs=1e-8)
            assert lower == pytest.approx(other_lower, abs=1e-8)
    print(f"criterion 2: PASS - {instances} vertex-row instances agree across "
          f"engine, oracle and process enumeration within 1e-8")


def test_criterion_3_lp_call_counts_and_linear_time():
    rng = np.random.default_rng(33)
    # Exact call counts on a grid of sizes and horizons.
    for d in (2, 3):
        for n in (2, 3, 4, 5):
            model = random_model(rng, d)
            spec = random_spec(rng, d, max_horizon=n, min_horizon=n)
            engine_counter = LpCounter()
            conditional_bounds(model, spec, engine_counter)
            assert engine_counter.calls == 2 * (n - 1) * d
            oracle_counter = LpCounter()
            naive_conditional_bounds(
                model, materialize_path_function(spec), oracle_counter
            )
            assert oracle_counter.calls == 2 * sum(d**i for i in range(1, n))

    # Wall time grows linearly in the horizon on a fixed 5-state model.
    space = StateSpace(tuple(f"s{i}" for i in range(5)))
    lower = np.full(5, 0.1)
    upper = np.full(5, 0.4)
    model = ImpreciseMarkovChain(
        states=space,
        initial=IntervalRow(lower=lower, upper=upper),
        rows=tuple(IntervalRow(lower=lower, upper=upper) for _ in range(5)),
    )
    f = rng.uniform(-1, 1, size=5)
    horizons = (10, 100, 1000)
    specs = [spec_single_instant(f, n) for n in horizons]
    # Round-robin: each repetition times every horizon in turn, so that each
    # best-of-5 sees the same phases of a machine whose speed drifts.
    rounds = [
        [_timed(lambda: conditional_bounds(model, spec)) for spec in specs]
        for _ in range(5)
    ]
    times = [min(column) for column in zip(*rounds)]
    # Fit weighted by 1/t so the fit targets relative rather than absolute
    # residuals, matching the acceptance quantity.
    slope, intercept = np.polyfit(horizons, times, 1, w=1.0 / np.array(times))
    fitted = [slope * n + intercept for n in horizons]
    residuals = [abs(fit - obs) / obs for fit, obs in zip(fitted, times)]
    assert slope > 0
    assert max(residuals) < 0.20
    print(f"criterion 3: PASS - exact counts 2(n-1)d and 2*sum(d^i); wall "
          f"times {['%.4fs' % t for t in times]} fit linearly "
          f"(max relative residual {max(residuals):.1%})")


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_4_operator_coherence():
    rng = np.random.default_rng(44)
    pairs = 100
    for _ in range(pairs):
        d = int(rng.integers(2, 4))
        model = random_model(rng, d)
        f = random_gamble(rng, d)
        upper_f = upper_transition(model, f)
        lower_f = lower_transition(model, f)
        for lam in (0.0, 0.5, 3.0):
            assert upper_transition(model, lam * f) == pytest.approx(
                lam * upper_f, abs=1e-10
            )
        for mu in (-2.0, 0.0, 7.0):
            assert upper_transition(model, f + mu) == pytest.approx(
                upper_f + mu, abs=1e-10
            )
        g = f + rng.uniform(0.0, 1.5, size=d)
        assert np.all(upper_f <= upper_transition(model, g) + 1e-10)
        assert np.all(f.min() - 1e-10 <= lower_f)
        assert np.all(lower_f <= upper_f + 1e-10)
        assert np.all(upper_f <= f.max() + 1e-10)
        assert np.array_equal(lower_f, -upper_transition(model, -f))
    print(f"criterion 4: PASS - homogeneity, constant additivity, "
          f"monotonicity, boundedness and exact conjugacy on {pairs} pairs "
          f"at 1e-10")


def test_criterion_5_precise_collapse():
    rng = np.random.default_rng(55)
    models = 50
    for _ in range(models):
        d = int(rng.integers(2, 4))
        model, p0, t = singleton_model(rng, d)
        n = int(rng.integers(1, 7))
        mask = np.zeros(d, dtype=bool)
        mask[rng.integers(d)] = True
        targets = [f"s{i}" for i in range(d) if mask[i]]
        f = random_gamble(rng, d)
        fs = [random_gamble(rng, d) for _ in range(n)]
        cases = [
            (spec_single_instant(f, n), path_value_single_instant(f)),
            (spec_sum(fs), path_value_sum(fs)),
            (spec_product(fs), path_value_product(fs)),
            (
                spec_hitting_probability(model.states, targets, n),
                path_value_hitting_probability(mask),
            ),
            (
                spec_hitting_time(model.states, targets, n),
                path_value_hitting_time(mask),
            ),
        ]
        for spec, path_value in cases:
            result = infer(model, spec)
            assert result.upper == pytest.approx(result.lower, abs=1e-10)
            expected_cond = forward_conditional(t, path_value, n)
            assert result.upper_conditional == pytest.approx(
                expected_cond, abs=1e-10
            )
            expected = forward_unconditional(p0, t, path_value, n)
            assert result.upper == pytest.approx(expected, abs=1e-10)
    print(f"criterion 5: PASS - {models} precise chains collapse to the "
          f"forward path-enumeration value within 1e-10 for all five kinds")


def test_criterion_6_worked_model_pinned_values():
    model = e1_model()

    assert upper_transition(model, F01) == pytest.approx([0.3, 0.6], abs=1e-12)

    # Two-step iterate, rederived by brute force over per-step, per-state
    # interval endpoint choices (the second entry is 0.48: from s1 the best
    # endpoint choices give 0.6 * 0.6 + 0.4 * 0.3 = 0.48).
    brute = endpoint_bruteforce_two_step_upper(model, F01)
    assert brute == pytest.approx([0.39, 0.48], abs=1e-12)
    assert iterate_upper(model, F01, 2) == pytest.approx(brute, abs=1e-12)

    upper_cond, lower_cond = conditional_bounds(
        model, spec_hitting_probability(E1_SPACE, ["s1"], 2)
    )
    assert upper_cond == pytest.approx([0.3, 1.0], abs=1e-12)
    assert lower_cond == pytest.approx([0.1, 1.0], abs=1e-12)

    _, ht_lower = conditional_bounds(
        model, spec_hitting_time(E1_SPACE, ["s1"], 2)
    )
    assert ht_lower == pytest.approx([1.7, 0.0], abs=1e-12)

    upper, lower = unconditional_bounds(model, upper_cond, lower_cond)
    assert upper == pytest.approx(0.65, abs=1e-12)
    assert lower == pytest.approx(0.28, abs=1e-12)

    print("criterion 6: PASS - all pinned two-state worked values exact "
          "to 1e-12")


def test_criterion_7_limit_convergence():
    result = limit_infer(e1_model(), "hitting_probability", ["s1"], tol=1e-9)
    assert result.converged
    assert result.horizon_reached < 500
    assert result.upper == pytest.approx(1.0, abs=1e-6)
    assert result.lower == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(result.upper_trace) >= -1e-15)
    assert np.all(np.diff(result.lower_trace) >= -1e-15)
    print(f"criterion 7: PASS - hitting probability converges to 1 within "
          f"1e-6 at horizon {result.horizon_reached} with monotone traces")


def test_criterion_8_complement_identity():
    rng = np.random.default_rng(88)
    instances = 50
    for _ in range(instances):
        d = int(rng.integers(2, 4))
        model = random_model(rng, d)
        targets = [f"s{i}" for i in range(d) if rng.random() < 0.5]
        n = int(rng.integers(1, 6))
        outside = 1.0 - model.states.indicator(targets)
        hit_upper, _ = conditional_bounds(
            model, spec_hitting_probability(model.states, targets, n)
        )
        _, stay_lower = conditional_bounds(model, spec_product([outside] * n))
        assert hit_upper == pytest.approx(1.0 - stay_lower, abs=1e-10)
    print(f"criterion 8: PASS - hit-within-n equals 1 minus stay-out-for-n "
          f"on {instances} instances at 1e-10")


def test_criterion_9_cli_end_to_end(capsys, tmp_path):
    model = str(DATA / "model_e1.json")

    assert main(["validate", model]) == 0
    capsys.readouterr()

    assert main(["infer", model, str(DATA / "query_hitting_prob_n2.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper"] == pytest.approx(0.65, abs=1e-12)
    assert doc["lower"] == pytest.approx(0.28, abs=1e-12)
    assert doc["lp_calls"] == 6

    assert main(["check", model, str(DATA / "query_hitting_prob_n3.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_discrepancy"] < 1e-8
    assert doc["engine"]["lp_calls"] == 8
    assert doc["oracle"]["lp_calls"] == 12

    assert main(["validate", str(DATA / "model_bad.json")]) == 2
    err = capsys.readouterr().err
    assert "sum of lower bounds exceeds 1" in err and "s0" in err

    assert main(["infer", model, str(DATA / "query_unknown_state.json")]) == 2
    assert "s9" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["validate", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    print("criterion 9: PASS - validate/infer/check reproduce the pinned "
          "numbers and complexity counts; malformed inputs exit 2 with "
          "actionable messages")
