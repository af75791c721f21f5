import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from credalmc import (
    ConstraintRow,
    ImpreciseMarkovChain,
    InfeasibleRowError,
    IntervalRow,
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
    VertexRow,
)
from credalmc import core, lp, operators
from credalmc.cli import parse_model
from credalmc.core import EPS_FEAS, STACK_POUR_MIN_ENTRIES, VERTEX_STACK_MIN_ROWS
from helpers import (
    E1_ROW_S0,
    e1_model,
    endpoint_bruteforce_two_step_upper,
    iterate_lower,
    iterate_upper,
    model_to_document,
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
    @pytest.mark.parametrize(
        "transition, stacked",
        [pytest.param(transition, stacked,
                      id=transition.__name__ + ("-stacked" if stacked else ""))
         for stacked in (False, True)
         for transition in (upper_transition, lower_transition)],
    )
    def test_transition_sorts_its_gamble_once(self, monkeypatch, transition, stacked):
        # Rows built one by one run the loop, each reading the kept order; a
        # stack of 25 rows of 24 states (600 entries) is poured in one pass,
        # which gathers by that same order.
        d = 24 if stacked else 5
        model = random_model(np.random.default_rng(5), d, kinds=("intervals",))
        if stacked:
            model = parse_model(json.loads(json.dumps(model_to_document(model))))
        assert len(model.pour_stacks) == stacked
        f = random_gamble(rng, d)
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
        # Negation and orders of the whole history would take two or more
        # times its size; a chunk at a time takes a small fraction.  So
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


def _outcome(solve):
    """``(value, maximizer, iterations)`` of an ``LpResult``, the first two
    as bytes, or the type and message of the error raised instead."""
    try:
        value, maximizer, iterations = solve()
    except InfeasibleRowError as exc:
        return type(exc).__name__, str(exc)
    return np.float64(value).tobytes(), maximizer.tobytes(), iterations


def _stacked_model(lower, upper):
    """A model whose d rows are those of one ``IntervalRow.stack`` of the k
    rows of ``lower`` and ``upper``, row i of the model being line i mod k,
    with the last line as the initial set; and that stack."""
    rows = IntervalRow.stack(lower, upper)
    d = lower.shape[1]
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    model = ImpreciseMarkovChain(
        states=space, initial=rows[-1], rows=[rows[i % len(rows)] for i in range(d)]
    )
    return model, rows


def _stack_bounds(gen, d, k, short):
    """``(k, d)`` bounds: some -0.0 lower bounds, zero and slightly negative
    gaps, and, cycling with the line, ample mass, about the mass needed or
    mass short of 1 by half of ``EPS_FEAS``; the lines in ``short`` are
    short by twice ``EPS_FEAS``, so they raise."""
    lower = gen.dirichlet(np.ones(d), size=k) * gen.uniform(0.0, 0.9, (k, 1))
    lower[gen.random((k, d)) < 0.2] = -0.0
    gap = gen.uniform(0.0, 1.0, (k, d))
    kind = gen.integers(0, 4, (k, d))
    kind[np.arange(k), gen.integers(0, d, k)] = 0  # one positive gap a line
    gap[kind == 2] = 0.0
    gap[kind == 3] = -gen.uniform(0.0, 1e-9, int((kind == 3).sum()))
    positive = np.where(kind < 2, gap, 0.0)
    need = 1.0 - lower.sum(axis=1)
    scale = np.choose(np.arange(k) % 3, [gen.uniform(1.0, 3.0, k), np.ones(k),
                                         1.0 - 0.5 * EPS_FEAS / need])
    scale[short] = 1.0 - 2.0 * EPS_FEAS / need[short]
    gap = np.where(kind < 2, positive * (need * scale / positive.sum(axis=1))[:, None],
                   gap)
    return lower, lower + gap


class TestStackPourMatchesLoop:
    """A transition pours the rows of an interval stack of at least
    ``STACK_POUR_MIN_ENTRIES`` entries in one numpy pass, and each row reads
    its line of it.  Every row must give what the loop gives on the same row
    built alone: the value and maximizer bit for bit, the iteration count,
    and the type and message of the error raised, at the same row."""

    @staticmethod
    def _assert_matches_loop(lower, upper, c):
        k, d = lower.shape
        model, rows = _stacked_model(lower, upper)
        above = k * d >= STACK_POUR_MIN_ENTRIES
        assert model.pour_stacks == ((rows[0].stacked_in,) if above else ())
        alone = [IntervalRow(lower=lo, upper=up) for lo, up in zip(lower, upper)]
        for transition, optimise in ((upper_transition, maximize),
                                     (lower_transition, minimize)):
            # Each row's result, as the transition's own call returns it.
            seen = []

            def record(row, obj, counter=None, optimise=optimise):
                seen.append(_outcome(lambda: optimise(row, obj, counter)))
                return optimise(row, obj, counter)

            obj = lp.Objective.checked(c)
            with mock.patch.object(operators, optimise.__name__, record):
                try:
                    transition(model, obj)
                except InfeasibleRowError:
                    pass
            want = []
            for i in range(d):
                want.append(_outcome(lambda: optimise(alone[i % k], c)))
                if isinstance(want[-1][0], str):
                    break
            assert seen == want
            # Then every line of the stack, read for the same objective,
            # including the initial set's and those after a raise.
            target = obj if optimise is maximize else obj.negation
            assert (rows[0].stacked_in.poured[0] is target) == above
            for row, row_alone in zip(rows, alone):
                outcome = _outcome(lambda: optimise(row, obj))
                assert outcome == _outcome(lambda: optimise(row_alone, c))
                if above and not isinstance(outcome[0], str):
                    # The line is a view of the stack's maximizers.
                    maximizer = optimise(row, obj).maximizer
                    assert not maximizer.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        maximizer[0] = 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([1, 3, 23, 50, 200]),
        extra=st.integers(-1, 2),
        shorts=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    # At d = 1 a dot product is a scalar product: a value that is a product
    # of -0.0 stays -0.0 only if the pour multiplies rather than sums.
    @example(d=1, extra=1, shorts=0, seed=5834380)
    def test_random_stacks(self, d, extra, shorts, seed):
        # Stacks just below the constant (extra = -1) and at or above it.
        k = max(1, -(-STACK_POUR_MIN_ENTRIES // d) + extra)
        gen = np.random.default_rng(seed)
        lower, upper = _stack_bounds(gen, d, k, gen.integers(0, k, shorts))
        c = gen.uniform(-5.0, 5.0, d)
        ties = gen.random(d) < 0.3
        c[ties] = gen.integers(-1, 2, int(ties.sum()))
        self._assert_matches_loop(lower, upper, c)

    @pytest.mark.parametrize(
        "lower, upper, c",
        [
            ([0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]),  # ties
            ([-0.0, 0.5, -0.0, -0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 2.0, 4.0]),
            ([-0.0, 0.2], [0.0, 0.9], [-0.0, 0.0]),
            # Zero and slightly negative gaps.
            ([0.1, 0.2, 0.3], [0.1, 0.9, 0.3], [3.0, -1.0, 2.0]),
            ([0.2, 0.5, 0.1], [0.2 - 1e-12, 0.9, 0.1 - 1e-10], [2.0, 1.0, 3.0]),
            # The slack 0.5 is spent exactly at the first state poured.
            ([0.25, 0.25, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0]),
            # sum(lower) = 1 + 1e-12: no state takes mass.
            ([0.5, 0.5 + 1e-12, 0.0], [0.9, 0.9, 0.9], [1.0, 2.0, 3.0]),
            ([0.25, 0.25, 0.5], [1.0, 1.0, 1.0], [0.0, 1.0, -1.0]),
            # Short of mass by half of EPS_FEAS, and by twice it, which raises.
            ([0.0, 0.0], [0.5, 0.5 - 0.5 * EPS_FEAS], [1.0, 2.0]),
            ([0.0, 0.0], [0.5, 0.5 - 2.0 * EPS_FEAS], [2.0, 1.0]),
            ([0.6, 0.6], [0.7, 0.7], [1.0, 2.0]),  # empty
            ([0.3], [1.0], [-2.0]),
            # Lower sums that leave float range: NaN (two partial sums of
            # opposite infinities), so the slack is never spent, and -inf, an
            # infinite slack; and a headroom of inf, capped by the slack.  The
            # objective is 0 on the huge bounds, so the value stays finite.
            ([1e308, -1e308] + [0.0] * 6 + [1e308, -1e308] + [0.0] * 6,
             [1e308, 0.5] + [0.5] * 6 + [1e308, 0.5] + [0.5] * 6,
             [0.0, 0.0] + [float(i % 3) for i in range(6)] + [0.0, 0.0]
             + [float(i % 4) for i in range(6)]),
            ([-1e308, -1e308, 0.0], [0.5, 0.5, 0.5], [1.0, 3.0, 2.0]),
            ([-1e308, 0.3, 0.3], [1e308, 0.5, 0.5], [3.0, 2.0, 1.0]),
            ([-1e308, 0.3, 0.3], [1e308, 0.5, 0.5], [1.0, 2.0, 3.0]),
        ],
    )
    def test_edge_rows(self, lower, upper, c):
        # The edge row first, then rows of the whole simplex, enough of them
        # for the stack to be poured in one pass.
        d = len(lower)
        k = max(d + 1, -(-STACK_POUR_MIN_ENTRIES // d))
        lows = np.zeros((k, d))
        ups = np.ones((k, d))
        lows[0], ups[0] = lower, upper
        self._assert_matches_loop(lows, ups, np.array(c))
        # The same row alone is a stack of one, which keeps the loop.
        self._assert_matches_loop(lows[:1], ups[:1], np.array(c))

    def test_overflowing_lower_sum_is_nan(self):
        row = IntervalRow(
            lower=[1e308, -1e308] + [0.0] * 6 + [1e308, -1e308] + [0.0] * 6,
            upper=[1e308] * 16,
        )
        assert math.isnan(row.pour[0]) and not row.empty

    def test_stack_of_another_width_keeps_the_loop(self):
        # A stack as wide as the model is the only kind poured; a row of
        # another width raises as it does alone.
        rows = IntervalRow.stack(np.zeros((600, 3)), np.ones((600, 3)))
        space = StateSpace(("a", "b"))
        model = ImpreciseMarkovChain(states=space, initial=rows[0], rows=rows[:2])
        assert model.pour_stacks == ()
        for transition in (upper_transition, lower_transition):
            with pytest.raises(ValueError, match="^objective has length 2, expected 3$"):
                transition(model, [1.0, 2.0])


# Entries of objective blocks: few distinct values, -0.0 beside 0.0, so
# blocks have ties.
_POOL = np.array([-2.0, -1.0, -0.3, -0.0, 0.0, 0.5, 1.0, 1.7, 2.0])


def _objectives(gen, k, d):
    """``(k, d)`` objectives, entries drawn mostly from ``_POOL``."""
    return np.where(gen.random((k, d)) < 0.7, gen.choice(_POOL, size=(k, d)),
                    gen.normal(size=(k, d)))


def _vertex_lists(gen, d, counts):
    """One vertex list per count: unit vectors, the uniform pmf and random
    pmfs whose zero entries are -0.0, some repeated, so objectives tie."""
    pool = np.vstack([np.eye(d), np.full(d, 1.0 / d), gen.dirichlet(np.ones(d), 3)])
    pool[gen.random(pool.shape) < 0.3] *= 0.0
    pool[pool == 0.0] = -0.0
    return [pool[gen.integers(0, len(pool), count)] for count in counts]


def _compiled_constraint_row(gen, d):
    """A constraint row solved over its vertex list: as many inequalities
    around the uniform pmf, up to three, as ``VERTEX_BASES_MAX`` allows, or
    ``None`` for a d at which even the bare simplex has too many bases."""
    fits = [m for m in range(4) if math.comb(m + d, d - 1) <= core.VERTEX_BASES_MAX]
    if not fits:
        return None
    m = fits[-1]
    a = gen.normal(size=(m, d))
    row = ConstraintRow(a=a, b=a @ np.full(d, 1.0 / d) + 0.05)
    assert row.vertices is not None
    return row


def _row_pool(gen, d):
    """Rows of every kind, built as a parsed model builds them: five interval
    rows in one stack (-0.0 lower bounds, zero gaps, one row short of mass
    by twice ``EPS_FEAS``, one empty), four vertex rows in one stack with
    mixed vertex counts, a constraint row with a vertex list (when d allows
    one) and one that keeps the simplex."""
    lower, upper = _stack_bounds(gen, d, 5, [3])
    lower[4] = 0.0
    lower[4, 0] = upper[4, 0] = 1.5  # lower bounds summing above 1: empty
    rows = [*IntervalRow.stack(lower, upper),
            *VertexRow.stack(_vertex_lists(gen, d, gen.integers(1, 5, 4)))]
    compiled = _compiled_constraint_row(gen, d)
    if compiled is not None:
        rows.append(compiled)
    if d >= 4:
        simplex = small_constraint_row(gen, d)
        assert simplex.vertices is None
        rows.append(simplex)
    return rows


class TestContractionMatchesCalls:
    """A contraction solves a row's blocks of a chunk in bulk, one numpy
    kernel per row kind (see ``lp.Objective.blocks``), when the row meets at
    least ``BATCH_MIN_LINES`` of them; every block then hands its line to
    its own ``maximize`` call.  Every call must give what a call on a plain
    copy of the block gives: the value and maximizer bit for bit, the
    iteration count, and the first error, at the same block."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 64),
        rows=st.integers(1, 4),
        chunks=st.sampled_from((1, 2)),
        extra=st.integers(-3, 3),
        negate=st.booleans(),
        data=st.data(),
    )
    def test_blocks_match_calls(self, d, rows, chunks, extra, negate, data):
        # A cycle of a few rows, so that at any d a row meets enough blocks
        # of a chunk; chunks do not start at a multiple of the cycle.
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = _row_pool(gen, d)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=rows, max_size=rows))
        cycle = [pool[i] for i in picks]
        k = max(1, chunks * (lp.CHUNK_ENTRIES // d) + extra)
        self._assert_blocks_match_calls(_objectives(gen, k, d), negate, cycle)

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("row", [
        IntervalRow(lower=[-0.0], upper=[1.0]),
        IntervalRow(lower=[1.0], upper=[1.0]),
        VertexRow(vertices=[[1.0]]),
        VertexRow(vertices=[[1.0], [-0.0], [0.5]]),
        ConstraintRow(a=[[1.0]], b=[2.0]),
    ], ids=["interval", "interval-fixed", "vertex-1", "vertex-3", "constraint"])
    def test_one_state(self, row, negate):
        # At d = 1 numpy's dot multiplies a one-entry line, or a (1, 1)
        # matrix, by the one-entry objective, which keeps a product of -0.0,
        # and sums from 0.0 for a taller matrix, which does not.
        blocks = np.array([[-0.0], [0.0], [1.0], [-1.0]] * lp.BATCH_MIN_LINES)
        solved = self._assert_blocks_match_calls(blocks, negate, [row])
        assert all(obj._line[0] is row for obj in solved)

    @staticmethod
    def _assert_blocks_match_calls(blocks, negate, cycle):
        """Each block's call, on its objective from ``Objective.blocks``,
        against a call on a plain copy; returns the objectives."""
        solved = list(lp.Objective.blocks(blocks, negate, cycle))
        for i, (obj, block) in enumerate(zip(solved, blocks)):
            row = cycle[i % len(cycle)]
            plain = -block if negate else block.copy()
            assert _outcome(lambda: maximize(row, obj)) == _outcome(
                lambda: maximize(row, plain)
            )
            if obj._line[0] is not None:
                assert obj._line[0] is row
        return solved

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 40]),
        extended=st.sampled_from([extended_upper, extended_lower]),
        data=st.data(),
    )
    def test_contractions_match_calls(self, d, extended, data):
        # The model's rows drawn from the pool, so a row that raises may be
        # met by a later block than the first; d = 40 gives chunks of 102
        # blocks, whose starts are not a multiple of d.
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = _row_pool(gen, d)
        weights = np.array([1.0 if i in (3, 4) else 4.0 for i in range(len(pool))])
        picks = gen.choice(len(pool), d, p=weights / weights.sum())
        rows = [pool[i] for i in picks]
        space = StateSpace(tuple(f"s{i}" for i in range(d)))
        model = ImpreciseMarkovChain(states=space, initial=rows[0], rows=rows)
        n = 3 if d == 40 else max(2, math.floor(math.log(3000) / math.log(d)) + 1
                                  if d > 1 else 4)
        hist = _objectives(gen, d ** n, 1).reshape((d,) * n)
        negate = extended is extended_lower
        seen = []

        def record(row, obj, counter=None):
            seen.append(_outcome(lambda: maximize(row, obj, counter)))
            return maximize(row, obj, counter)

        with mock.patch.object(operators, "maximize", record):
            try:
                out = extended(model, hist)
            except InfeasibleRowError:
                out = None
        want = []
        for i, block in enumerate(hist.reshape(-1, d)):
            want.append(_outcome(
                lambda: maximize(rows[i % d], -block if negate else block.copy())
            ))
            if isinstance(want[-1][0], str):
                break
        assert seen == want
        if out is not None:
            values = np.array([np.frombuffer(v)[0] for v, _, _ in want])
            assert out.tobytes() == (-values if negate else values).tobytes()


class TestVertexStackPourMatchesCalls:
    """A transition solves every vertex row of a stack with one vertex count,
    ``VERTEX_STACK_MIN_ROWS`` rows or more, in one gemv, and each row reads
    its line of it.  Every row must give what the same row built alone
    gives: the value and maximizer bit for bit, and the iteration count;
    the maximizer is still a read-only view of the row's vertices."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 64),
        r=st.integers(VERTEX_STACK_MIN_ROWS - 1, 3 * VERTEX_STACK_MIN_ROWS),
        most=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(self, d, r, most, seed):
        gen = np.random.default_rng(seed)
        lists = _vertex_lists(gen, d, gen.integers(1, most + 1, r))
        self._assert_matches_alone(lists, _objectives(gen, 1, d)[0])

    @pytest.mark.parametrize("c", [-0.0, 0.0, 2.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_state(self, k, c):
        # At d = 1 a one-vertex row's value is a product, which keeps -0.0,
        # and a taller row's is a sum from 0.0 (see ``core._matvec``).
        vertices = [[1.0], [-0.0], [0.5]][:k]
        self._assert_matches_alone([vertices] * VERTEX_STACK_MIN_ROWS, np.array([c]))

    @staticmethod
    def _assert_matches_alone(lists, c):
        counts = np.array([len(vertices) for vertices in lists])
        r, d = len(lists), len(c)
        rows = VertexRow.stack(lists)
        alone = [VertexRow(vertices=vertices) for vertices in lists]
        space = StateSpace(tuple(f"s{i}" for i in range(d)))
        model = ImpreciseMarkovChain(states=space, initial=rows[-1],
                                     rows=[rows[i % r] for i in range(d)])
        # One stack per vertex count, poured when it has enough rows.
        poured = {row.stacked_in for row in rows
                  if sum(counts == len(row.vertices)) >= VERTEX_STACK_MIN_ROWS}
        assert set(model.pour_stacks) == {row.stacked_in for row in model.rows} & poured
        for transition, optimise in ((upper_transition, maximize),
                                     (lower_transition, minimize)):
            seen = []

            def record(row, obj, counter=None, optimise=optimise):
                seen.append(_outcome(lambda: optimise(row, obj, counter)))
                return optimise(row, obj, counter)

            obj = lp.Objective.checked(c)
            with mock.patch.object(operators, optimise.__name__, record):
                transition(model, obj)
            assert seen == [_outcome(lambda: optimise(alone[i % r], c))
                            for i in range(d)]
            # Every line of a poured stack, including those of rows the
            # model does not hold.
            target = obj if optimise is maximize else obj.negation
            for row, row_alone in zip(rows, alone):
                read = row.stacked_in in model.pour_stacks
                assert (row.stacked_in.poured[0] is target) == read
                res = optimise(row, obj)
                assert _outcome(lambda: res) == _outcome(
                    lambda: optimise(row_alone, c)
                )
                assert np.shares_memory(res.maximizer, row.vertices)
                assert not res.maximizer.flags.writeable
