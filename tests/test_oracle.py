import numpy as np
import pytest

from credalmc import (
    HISTORY_CAP,
    CapExceededError,
    ImpreciseMarkovChain,
    LpCounter,
    NumericalError,
    RecursiveSpec,
    VertexRow,
    conditional_bounds,
    materialize_path_function,
    naive_conditional_bounds,
    spec_hitting_probability,
    spec_hitting_time,
    spec_sum,
)
from helpers import (
    ASSIGNMENT_CAP,
    E1_SPACE,
    e1_model,
    enumerate_vertex_processes,
    random_gamble,
    random_model,
    random_pmf,
    random_spec,
    singleton_model,
)

rng = np.random.default_rng(6006)


class TestMaterialize:
    def test_hitting_probability_two_steps(self):
        hist = materialize_path_function(
            spec_hitting_probability(E1_SPACE, ["s1"], 2)
        )
        # path order: s0s0, s0s1, s1s0, s1s1
        assert hist.tolist() == [[0.0, 1.0], [1.0, 1.0]]

    def test_hitting_time_two_steps(self):
        hist = materialize_path_function(spec_hitting_time(E1_SPACE, ["s1"], 2))
        assert hist.tolist() == [[2.0, 1.0], [0.0, 0.0]]

    def test_horizon_one_is_the_seed(self):
        g0 = np.array([0.25, -1.0])
        hist = materialize_path_function(RecursiveSpec(g0=g0))
        assert np.array_equal(hist, g0)

    def test_sum_target_is_the_literal_sum(self):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 5))
            fs = [random_gamble(rng, d) for _ in range(n)]
            hist = materialize_path_function(spec_sum(fs))
            assert hist.shape == (d,) * n
            # check every history via the direct definition
            for flat in range(d**n):
                path, idx = [], flat
                for _ in range(n):
                    path.append(idx % d)
                    idx //= d
                path.reverse()
                direct = sum(f[x] for f, x in zip(fs, path))
                assert hist[tuple(path)] == pytest.approx(direct, abs=1e-12)
                assert hist.ravel()[flat] == hist[tuple(path)]

    def test_non_finite_values_raise(self):
        spec = RecursiveSpec(g0=[1e200, 1.0], steps=(([1e200, 1.0], [0.0, 0.0]),))
        with np.errstate(all="raise"), pytest.raises(NumericalError):
            materialize_path_function(spec)

    def test_cap(self):
        # 2**24 entries exceed HISTORY_CAP; the check runs before allocation.
        assert 2**23 < HISTORY_CAP < 2**24
        spec = spec_hitting_probability(E1_SPACE, ["s1"], 24)
        with pytest.raises(CapExceededError, match=r"2\*\*24 entries"):
            materialize_path_function(spec)


class TestNaiveBounds:
    def test_worked_model_hitting_probability(self):
        model = e1_model()
        hist = materialize_path_function(
            spec_hitting_probability(E1_SPACE, ["s1"], 2)
        )
        upper, lower = naive_conditional_bounds(model, hist)
        assert upper == pytest.approx([0.3, 1.0], abs=1e-12)
        assert lower == pytest.approx([0.1, 1.0], abs=1e-12)

    def test_constant_history(self):
        model = e1_model()
        hist = np.full((2, 2, 2), -1.5)
        upper, lower = naive_conditional_bounds(model, hist)
        assert upper == pytest.approx([-1.5, -1.5], abs=1e-12)
        assert lower == pytest.approx([-1.5, -1.5], abs=1e-12)

    def test_history_depending_only_on_first_state(self):
        model = e1_model()
        diag = np.array([2.0, -3.0])
        hist = np.repeat(diag, 4).reshape(2, 2, 2)  # horizon 3, value fixed by x1
        upper, lower = naive_conditional_bounds(model, hist)
        assert upper == pytest.approx(diag, abs=1e-12)
        assert lower == pytest.approx(diag, abs=1e-12)

    def test_state_count_must_match(self):
        # At horizon 1 no contraction runs, so no operator sees the array.
        for hist in (np.zeros(3), np.zeros((3, 3)), np.float64(1.0)):
            for oracle in (naive_conditional_bounds, enumerate_vertex_processes):
                with pytest.raises(ValueError, match="state count"):
                    oracle(e1_model(), hist)

    def test_lp_call_count_is_exponential(self):
        model = random_model(rng, 2)
        for n in (2, 3, 4, 5):
            spec = random_spec(rng, 2, max_horizon=n, min_horizon=n)
            counter = LpCounter()
            naive_conditional_bounds(
                model, materialize_path_function(spec), counter
            )
            assert counter.calls == 2 * sum(2**i for i in range(1, n))


class TestEnumerate:
    def test_worked_model_interval_conversion(self):
        model = e1_model()
        hist = materialize_path_function(
            spec_hitting_probability(E1_SPACE, ["s1"], 2)
        )
        upper, lower = enumerate_vertex_processes(model, hist)
        assert upper == pytest.approx([0.3, 1.0], abs=1e-12)
        assert lower == pytest.approx([0.1, 1.0], abs=1e-12)

    def test_precise_chain_has_tight_envelope(self):
        model, _, _ = singleton_model(rng, 2)
        spec = random_spec(rng, 2, max_horizon=3)
        hist = materialize_path_function(spec)
        upper, lower = enumerate_vertex_processes(model, hist)
        assert upper == pytest.approx(lower, abs=1e-12)

    def test_horizon_one_returns_the_diagonal(self):
        model = e1_model()
        hist = np.array([4.0, -2.0])
        upper, lower = enumerate_vertex_processes(model, hist)
        assert list(upper) == [4.0, -2.0]
        assert list(lower) == [4.0, -2.0]

    def test_assignment_cap(self):
        # Two vertices per row: each start has 2**(2**(n-1) - 1) assignments,
        # so horizon 5 needs 2 * 2**15 in total and horizon 6 needs 2 * 2**31.
        assert 2 * 2**15 <= ASSIGNMENT_CAP < 2 * 2**31
        rows = tuple(
            VertexRow(vertices=[random_pmf(rng, 2), random_pmf(rng, 2)])
            for _ in range(2)
        )
        model = ImpreciseMarkovChain(states=E1_SPACE, initial=rows[0], rows=rows)
        hist = materialize_path_function(random_spec(rng, 2, 5, 5))
        upper, lower = enumerate_vertex_processes(model, hist)
        naive_upper, naive_lower = naive_conditional_bounds(model, hist)
        assert upper == pytest.approx(naive_upper, abs=1e-12)
        assert lower == pytest.approx(naive_lower, abs=1e-12)
        hist = materialize_path_function(random_spec(rng, 2, 6, 6))
        with pytest.raises(
            CapExceededError, match=f"more than {ASSIGNMENT_CAP} assignments"
        ):
            enumerate_vertex_processes(model, hist)

    @pytest.mark.parametrize(
        "hist",
        [
            [[np.inf, -np.inf], [1.0, 2.0]],  # inf + -inf is a NaN expectation
            [[1.0, np.nan], [1.0, 2.0]],
            [[1.0, 2.0], [-np.inf, 0.0]],
            [np.inf, 0.0],  # horizon 1: no operator sees the array
        ],
    )
    def test_non_finite_history_raises_like_the_contraction(self, hist):
        hist = np.array(hist)
        for oracle in (naive_conditional_bounds, enumerate_vertex_processes):
            with pytest.raises(
                ValueError, match="^objective contains non-finite entries$"
            ):
                oracle(e1_model(), hist)

    def test_wide_interval_rows_rejected(self):
        model = random_model(rng, 3, kinds=("intervals",))
        hist = materialize_path_function(random_spec(rng, 3, 2, 2))
        with pytest.raises(ValueError, match="vertex"):
            enumerate_vertex_processes(model, hist)

    def test_envelope_covers_non_homogeneous_chains(self):
        # Target 1_{s1}(x2) + 1_{s0}(x3): the best process moves towards s1
        # at the first step and back towards s0 at the second, which no
        # single homogeneous transition matrix can do.  From s0 the envelope
        # reaches 0.3 + 0.7 * 0.9 + 0.3 * 0.6 = 1.11, while the best
        # homogeneous chain in the model tops out at 0.97.
        model = e1_model()
        hist = np.array([1.0, 0.0, 2.0, 1.0, 1.0, 0.0, 2.0, 1.0]).reshape(2, 2, 2)
        upper, _ = enumerate_vertex_processes(model, hist)
        assert upper == pytest.approx([1.11, 1.32], abs=1e-12)
        homogeneous_best = max(
            q + (1 - q) * (1 - q) + q * r
            for q in np.linspace(0.1, 0.3, 41)
            for r in np.linspace(0.4, 0.6, 41)
        )
        assert homogeneous_best < 1.0 < upper[0]


class TestTripleAgreement:
    def test_three_routes_coincide(self):
        for _ in range(30):
            model = random_model(rng, 2, kinds=("vertices",), max_vertices=3)
            spec = random_spec(rng, 2, max_horizon=4)
            upper, lower = conditional_bounds(model, spec)
            hist = materialize_path_function(spec)
            nu, nl = naive_conditional_bounds(model, hist)
            eu, el = enumerate_vertex_processes(model, hist)
            assert upper == pytest.approx(nu, abs=1e-8)
            assert lower == pytest.approx(nl, abs=1e-8)
            assert upper == pytest.approx(eu, abs=1e-8)
            assert lower == pytest.approx(el, abs=1e-8)
