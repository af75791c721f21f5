import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from credalmc import (
    ImpreciseMarkovChain,
    LpCounter,
    RecursiveSpec,
    StateSpace,
    extended_lower,
    extended_upper,
    lower_transition,
    materialize_path_function,
    maximize,
    minimize,
    upper_transition,
)
from credalmc import lp, operators
from credalmc.cli import parse_model
from helpers import (
    E1_ROW_S0,
    e1_model,
    endpoint_bruteforce_two_step_upper,
    iterate_lower,
    iterate_upper,
    random_gamble,
    random_interval_row,
    random_model,
    random_vertex_row,
    singleton_model,
    small_constraint_row,
)

rng = np.random.default_rng(3003)

F01 = np.array([0.0, 1.0])
DATA = Path(__file__).parent / "data"


class TestUpperLower:
    def test_worked_model_upper(self):
        assert upper_transition(e1_model(), F01) == pytest.approx(
            [0.3, 0.6], abs=1e-12
        )

    def test_worked_model_lower(self):
        assert lower_transition(e1_model(), F01) == pytest.approx(
            [0.1, 0.4], abs=1e-12
        )

    def test_constant_gamble_preserved(self):
        model = e1_model()
        for mu in (-2.0, 0.0, 7.0):
            assert upper_transition(model, np.full(2, mu)) == pytest.approx(
                [mu, mu], abs=1e-12
            )

    def test_precise_rows_reduce_to_matrix_product(self):
        for _ in range(20):
            model, _, t = singleton_model(rng, 3)
            f = random_gamble(rng, 3)
            assert upper_transition(model, f) == pytest.approx(t @ f, abs=1e-12)
            assert lower_transition(model, f) == pytest.approx(t @ f, abs=1e-12)

    def test_lower_below_upper(self):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            f = random_gamble(rng, d)
            assert np.all(
                lower_transition(model, f) <= upper_transition(model, f) + 1e-12
            )

    def test_conjugacy_bit_equality(self):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            f = random_gamble(rng, d)
            assert np.array_equal(
                lower_transition(model, f), -upper_transition(model, -f)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            upper_transition(e1_model(), [1.0, 2.0, 3.0])


class TestCoherence:
    # Operator-level homogeneity, constant additivity, monotonicity and
    # boundedness; the acceptance suite runs the full battery.
    def test_nonnegative_homogeneity(self):
        model = random_model(rng, 3)
        f = random_gamble(rng, 3)
        base = upper_transition(model, f)
        for lam in (0.0, 0.5, 3.0):
            assert upper_transition(model, lam * f) == pytest.approx(
                lam * base, abs=1e-10
            )

    def test_constant_additivity(self):
        model = random_model(rng, 3)
        f = random_gamble(rng, 3)
        base = upper_transition(model, f)
        for mu in (-2.0, 0.0, 7.0):
            assert upper_transition(model, f + mu) == pytest.approx(
                base + mu, abs=1e-10
            )

    def test_monotonicity(self):
        for _ in range(30):
            model = random_model(rng, 2)
            f = random_gamble(rng, 2)
            g = f + rng.uniform(0.0, 1.0, size=2)
            assert np.all(
                upper_transition(model, f) <= upper_transition(model, g) + 1e-12
            )

    def test_bounded_by_gamble_range(self):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            f = random_gamble(rng, d)
            lo = lower_transition(model, f)
            up = upper_transition(model, f)
            assert np.all(f.min() - 1e-10 <= lo)
            assert np.all(lo <= up + 1e-12)
            assert np.all(up <= f.max() + 1e-10)


class TestIterate:
    def test_zero_iterations_is_identity(self):
        out = iterate_upper(e1_model(), F01, 0)
        assert np.array_equal(out, F01)

    def test_one_iteration_is_single_application(self):
        model = e1_model()
        assert np.array_equal(
            iterate_upper(model, F01, 1), upper_transition(model, F01)
        )

    def test_two_iterations_match_endpoint_bruteforce(self):
        # Independent derivation: enumerate the per-step, per-state interval
        # endpoint choices and maximise the two-step expectation.
        model = e1_model()
        brute = endpoint_bruteforce_two_step_upper(model, F01)
        assert brute == pytest.approx([0.39, 0.48], abs=1e-12)
        assert iterate_upper(model, F01, 2) == pytest.approx(brute, abs=1e-12)

    def test_endpoint_bruteforce_needs_two_state_interval_rows(self):
        model = random_model(np.random.default_rng(5), 3, kinds=("intervals",))
        with pytest.raises(ValueError, match="two-state interval rows"):
            endpoint_bruteforce_two_step_upper(model, [0.0, 1.0, 0.0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate_upper(e1_model(), F01, -1)

    def test_iterate_lower_conjugate(self):
        model = random_model(rng, 3)
        f = random_gamble(rng, 3)
        assert np.array_equal(
            iterate_lower(model, f, 3), -iterate_upper(model, -f, 3)
        )


class TestHistoryArray:
    def test_flat_layout(self):
        # F(x1, x2) = 2 x1 + x2: the first time index is the most significant
        # in C order, so the flat values count up along the paths.
        spec = RecursiveSpec(g0=[0.0, 1.0], steps=(([1.0, 1.0], [0.0, 2.0]),))
        hist = materialize_path_function(spec)
        assert hist.shape == (2, 2)
        assert list(hist.ravel()) == [0.0, 1.0, 2.0, 3.0]
        assert hist[1, 0] == 2.0

    def test_shape_must_match(self):
        # Horizon 1, the wrong state count, or uneven axes.
        for shape in [(2,), (8,), (3, 3), (2, 3), (2, 2, 4)]:
            for extended in (extended_upper, extended_lower):
                with pytest.raises(ValueError, match="not \\(d,\\)\\*n"):
                    extended(e1_model(), np.zeros(shape))


class TestExtended:
    def test_last_coordinate_only_reduces_to_transition(self):
        # F(x1, x2) = indicator of s1 at the second instant; contracting the
        # second instant must reproduce the plain operator, for every x1.
        model = e1_model()
        hist = np.tile(F01, (2, 1))
        out = extended_upper(model, hist)
        assert out.shape == (2,)
        assert out == pytest.approx([0.3, 0.6], abs=1e-12)

    # model_e1 has interval rows; model_mixed has one row of each kind.
    @pytest.mark.parametrize("model_file", ["model_e1.json", "model_mixed.json"])
    @pytest.mark.parametrize(
        "plain, extended",
        [(upper_transition, extended_upper), (lower_transition, extended_lower)],
    )
    def test_transition_is_extended_step_on_repeated_blocks(
        self, model_file, plain, extended
    ):
        with open(DATA / model_file) as fh:
            model = parse_model(json.load(fh))
        d = model.size
        for _ in range(10):
            f = random_gamble(rng, d)
            hist = np.tile(f, (d, 1))
            assert np.array_equal(plain(model, f), extended(model, hist))

    def test_constant_history_stays_constant(self):
        model = e1_model()
        hist = np.full((2, 2, 2), 4.25)
        out = extended_upper(model, hist)
        assert out.shape == (2, 2)
        assert out == pytest.approx(np.full((2, 2), 4.25), abs=1e-12)

    def test_horizon_one_rejected(self):
        with pytest.raises(ValueError):
            extended_upper(e1_model(), np.array([1.0, 2.0]))

    def test_lower_is_conjugate(self):
        model = e1_model()
        hist = rng.uniform(-2, 2, size=(2, 2, 2))
        assert np.array_equal(
            extended_lower(model, hist), -extended_upper(model, -hist)
        )

    def test_lp_call_count(self):
        model = e1_model()
        counter = LpCounter()
        extended_upper(model, np.zeros((2, 2, 2)), counter)
        assert counter.calls == 4


class TestNonFiniteObjectives:
    """Checked once per gamble or history array, not once per row: a
    non-finite entry is still refused, on every entry point."""

    CALLS = {
        "maximize": lambda v: maximize(E1_ROW_S0, [0.5, v]),
        "minimize": lambda v: minimize(E1_ROW_S0, [0.5, v]),
        "upper_transition": lambda v: upper_transition(e1_model(), [v, 0.5]),
        "lower_transition": lambda v: lower_transition(e1_model(), [v, 0.5]),
        # In the last block, after blocks that are fine.
        "extended_upper": lambda v: extended_upper(
            e1_model(), np.array([[0.0, 1.0], [2.0, v]])
        ),
        "extended_lower": lambda v: extended_lower(
            e1_model(), np.array([[[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [v, 0.0]]])
        ),
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call, value):
        with pytest.raises(ValueError, match="non-finite"):
            self.CALLS[call](value)


class TestObjectiveGambles:
    """A transition takes an ``Objective`` as ``maximize`` does: it is only
    checked for its length, and gives the bits a plain vector gives."""

    @pytest.mark.parametrize("transition", [upper_transition, lower_transition])
    def test_matches_plain_vector(self, transition):
        model = random_model(np.random.default_rng(9), 6)
        f = random_gamble(rng, 6)
        shared = lp.Objective.checked(f)
        assert np.array_equal(transition(model, shared), transition(model, f))

    @pytest.mark.parametrize("transition", [upper_transition, lower_transition])
    @pytest.mark.parametrize("wrap", [list, lp.Objective.checked])
    def test_wrong_length_names_the_gamble(self, transition, wrap):
        with pytest.raises(ValueError, match="^gamble has length 3, expected 2$"):
            transition(e1_model(), wrap([1.0, 2.0, 3.0]))


class TestSortOnce:
    @pytest.mark.parametrize("transition", [upper_transition, lower_transition])
    def test_transition_sorts_its_gamble_once(self, monkeypatch, transition):
        model = random_model(np.random.default_rng(5), 5, kinds=("intervals",))
        f = random_gamble(rng, 5)
        expected = transition(model, f)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k)
        )
        assert np.array_equal(transition(model, f), expected)
        assert len(sorts) == 1

    @pytest.mark.parametrize("extended", [extended_upper, extended_lower])
    @pytest.mark.parametrize("d, n", [(3, 7), (50, 3)])
    def test_contraction_sorts_once_per_chunk(self, monkeypatch, extended, d, n):
        model = random_model(np.random.default_rng(5), d, kinds=("intervals",))
        hist = np.random.default_rng(6).normal(size=(d,) * n)
        expected = extended(model, hist)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k)
        )
        assert np.array_equal(extended(model, hist), expected)
        assert len(sorts) == math.ceil(d ** (n - 1) / (lp.CHUNK_ENTRIES // d))


def _mixed_model(
    seed, d, makers=(random_interval_row, random_vertex_row, small_constraint_row)
):
    """Rows of all three kinds in turn, or of ``makers`` in turn, cheap
    enough for d**2 blocks."""
    gen = np.random.default_rng(seed)
    rows = tuple(makers[i % len(makers)](gen, d) for i in range(d))
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    return ImpreciseMarkovChain(states=space, initial=rows[0], rows=rows)


class TestChunkedContraction:
    """The contraction prepares its blocks' objectives a chunk at a time (see
    ``lp.Objective.blocks``); what a reader of the history array sees of
    that is its results, its memory and its calls."""

    @pytest.mark.parametrize(
        "extended, optimise", [(extended_upper, maximize), (extended_lower, minimize)]
    )
    def test_matches_per_block_reference_loop(self, extended, optimise):
        # d**2 = 1600 blocks in chunks of 102, the last one short.
        d = 40
        model = _mixed_model(11, d)
        gen = np.random.default_rng(12)
        hist = gen.normal(size=(d, d, d))
        hist[gen.random(hist.shape) < 0.3] = 0.5
        hist[gen.random(hist.shape) < 0.1] = -0.0
        blocks = hist.reshape(-1, d)
        reference = np.array(
            [optimise(model.rows[i % d], b.copy()).value for i, b in enumerate(blocks)]
        )
        out = extended(model, hist)
        assert out.tobytes() == reference.reshape(d, d).tobytes()

    @pytest.mark.parametrize("extended", [extended_upper, extended_lower])
    def test_peak_memory_below_the_history(self, extended):
        # The shape of the interval-wide benchmark's cross-check: d=50, n=3.
        # Negation, orders and gathers of the whole history would take about
        # three times its size; a chunk at a time takes a small fraction.  So
        # the lower step negates a chunk at a time too: negating the whole
        # history first would take its size on its own.
        d = 50
        model = random_model(np.random.default_rng(13), d, kinds=("intervals",))
        hist = np.random.default_rng(14).normal(size=(d, d, d))
        extended(model, hist)
        tracemalloc.start()
        try:
            extended(model, hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hist.nbytes

    @pytest.mark.parametrize("extended", [extended_upper, extended_lower])
    @pytest.mark.parametrize(
        "kind, d", [("constraints", 3), ("constraints", 6), ("vertices", 6), (None, 6)]
    )
    def test_sorts_only_for_interval_rows(self, monkeypatch, extended, kind, d):
        # Only ``IntervalRow._maximize`` reads an objective's order, so a
        # model without an interval row sorts no block.  Constraint rows of
        # two inequalities on three states are solved over their vertices,
        # on six by the simplex.
        if kind is None:
            model = _mixed_model(18, d)
        else:
            maker = {"constraints": small_constraint_row, "vertices": random_vertex_row}
            model = _mixed_model(18, d, (maker[kind],))
        if kind == "constraints":
            assert all((row.vertices is not None) == (d == 3) for row in model.rows)
        hist = np.random.default_rng(19).normal(size=(d, d, d))
        want = extended(model, hist)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *args, **kw: sorts.append(1) or argsort(*args, **kw)
        )
        assert extended(model, hist).tobytes() == want.tobytes()
        assert bool(sorts) == (kind is None)

    @pytest.mark.parametrize("extended", [extended_upper, extended_lower])
    def test_one_call_per_block(self, monkeypatch, extended):
        # The benchmark's tracer wraps these two names on ``operators`` and
        # counts one span per row optimisation; solving several blocks in one
        # call would need the tracer changed first.  Both contractions
        # maximise, the lower one over the negated blocks.
        model = random_model(np.random.default_rng(15), 4)
        hist = np.random.default_rng(16).normal(size=(4, 4, 4))
        calls = {"maximize": [], "minimize": []}
        for name, seen in calls.items():
            original = getattr(operators, name)
            monkeypatch.setattr(
                operators,
                name,
                lambda row, obj, counter=None, seen=seen, original=original: (
                    seen.append(row) or original(row, obj, counter)
                ),
            )
        extended(model, hist)
        assert calls["minimize"] == []
        assert [id(row) for row in calls["maximize"]] == [
            id(model.rows[i % 4]) for i in range(16)
        ]
