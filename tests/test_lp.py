import importlib.util
import json
import math
import sys
import warnings
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from credalmc import (
    ConstraintRow,
    ImpreciseMarkovChain,
    InfeasibleRowError,
    IntervalRow,
    LpCounter,
    NumericalError,
    StateSpace,
    VertexRow,
    extended_lower,
    extended_upper,
    maximize,
    minimize,
    row_contains,
    validate_model,
)
from credalmc import cli, core, lp
from credalmc.core import EPS_FEAS, EPS_PROB, PIVOT_TOL
from helpers import (
    BREAKDOWN_A,
    BREAKDOWN_A_PADDED,
    BREAKDOWN_B,
    BREAKDOWN_B_PADDED,
    LEAVING_START_A,
    LEAVING_START_B,
    PivotCapError,
    UNBOUNDED_START_A,
    UNBOUNDED_START_B,
    expectation,
    interval_to_constraints,
    interval_witness,
    is_pmf,
    random_constraint_row,
    random_interval_bounds,
    random_interval_row,
    random_model,
    random_row,
    random_vertex_row,
    reference_interval_maximize,
    reference_phase_one,
    reference_run_phase,
    reference_simplex_max,
    sample_in_row,
    small_constraint_row,
)

rng = np.random.default_rng(2002)

E1_ROW = IntervalRow(lower=[0.7, 0.1], upper=[0.9, 0.3])


class TestMaximize:
    def test_interval_endpoint(self):
        res = maximize(E1_ROW, [0.0, 1.0])
        assert res.value == pytest.approx(0.3, abs=1e-12)
        assert res.maximizer == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_vertex_enumeration(self):
        row = VertexRow(vertices=[[1.0, 0.0], [0.0, 1.0]])
        res = maximize(row, [3.0, 7.0])
        assert res.value == pytest.approx(7.0)
        assert list(res.maximizer) == [0.0, 1.0]

    def test_vertex_tie_takes_lowest_index(self):
        row = VertexRow(vertices=[[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
        res = maximize(row, [1.0, 1.0])
        assert list(res.maximizer) == [0.5, 0.5]

    def test_interval_tie_fills_in_state_order(self):
        row = IntervalRow(lower=[0.0, 0.0], upper=[1.0, 1.0])
        res = maximize(row, [2.0, 2.0])
        assert list(res.maximizer) == [1.0, 0.0]

    def test_constraints_match_interval_greedy(self):
        res = maximize(interval_to_constraints(E1_ROW.lower, E1_ROW.upper), [0.0, 1.0])
        assert res.value == pytest.approx(0.3, abs=1e-10)

    def test_constant_objective_gives_constant(self):
        for row in (E1_ROW, VertexRow(vertices=[[0.2, 0.8]]),
                    interval_to_constraints(E1_ROW.lower, E1_ROW.upper)):
            assert maximize(row, [2.5, 2.5]).value == pytest.approx(2.5, abs=1e-10)

    def test_result_invariants(self):
        # maximizer in the row, value consistent with its expectation
        for _ in range(60):
            d = int(rng.integers(2, 5))
            row = random_row(rng, d)
            c = rng.uniform(-3, 3, size=d)
            res = maximize(row, c)
            assert row_contains(row, res.maximizer)
            assert res.value == pytest.approx(
                expectation(res.maximizer, c), abs=1e-9
            )
            assert res.iterations >= 0

    def test_counter_counts_each_call_once(self):
        counter = LpCounter()
        maximize(E1_ROW, [0.0, 1.0], counter)
        minimize(E1_ROW, [0.0, 1.0], counter)
        assert counter.calls == 2


class TestSimplexEdgeCases:
    def test_empty_constraint_system_is_the_whole_simplex(self):
        row = ConstraintRow(a=np.zeros((0, 3)), b=np.zeros(0))
        res = maximize(row, [1.0, 5.0, 2.0])
        assert res.value == pytest.approx(5.0, abs=1e-12)
        assert res.maximizer == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_duplicate_and_redundant_constraints(self):
        row = ConstraintRow(
            a=[[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, -1.0]],
            b=[0.4, 0.4, 0.8, -1.0],
        )
        assert maximize(row, [1.0, 0.0]).value == pytest.approx(0.4, abs=1e-12)

    def test_single_state(self):
        row = ConstraintRow(a=np.zeros((0, 1)), b=np.zeros(0))
        assert maximize(row, [3.0]).value == pytest.approx(3.0, abs=1e-15)

    def test_coordinate_pinned_by_opposing_inequalities(self):
        row = ConstraintRow(a=[[1.0, 0.0], [-1.0, 0.0]], b=[0.25, -0.25])
        res = maximize(row, [10.0, 1.0])
        assert res.maximizer[0] == pytest.approx(0.25, abs=1e-9)
        assert res.value == pytest.approx(3.25, abs=1e-9)

    def test_negative_bound_needs_artificial_start(self):
        row = ConstraintRow(a=[[-1.0, 0.0, 0.0]], b=[-0.5])  # p0 >= 0.5
        res = maximize(row, [0.0, 1.0, 2.0])
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.maximizer == pytest.approx([0.5, 0.0, 0.5], abs=1e-9)

    # Tiny rows sit below the absolute pivot and feasibility tolerances
    # unless the solver scales each inequality first.
    SCALES = (1e-12, 1e-10, 1e-6, 1.0, 1e6, 1e12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_scaled_upper_bound_is_kept(self, scale):
        row = ConstraintRow(a=[[scale, 0.0]], b=[0.5 * scale])  # p0 <= 0.5
        res = maximize(row, [1.0, 0.0])
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert row_contains(row, res.maximizer)

    @pytest.mark.parametrize("scale", SCALES)
    def test_membership_uses_the_scaled_row(self, scale):
        row = ConstraintRow(a=[[scale, 0.0]], b=[0.5 * scale])  # p0 <= 0.5
        assert not row_contains(row, [1.0, 0.0])
        assert row_contains(row, [0.5, 0.5])

    @pytest.mark.parametrize("scale", SCALES)
    def test_scaled_infeasible_row_is_rejected(self, scale):
        row = ConstraintRow(a=[[scale, scale]], b=[-2.0 * scale])  # p0 + p1 <= -2
        assert not row.feasible
        space = StateSpace(("s0", "s1"))
        model = ImpreciseMarkovChain(states=space, initial=row, rows=(row, row))
        assert "initial set: constraint system admits no pmf" in validate_model(model)

    # A subnormal max-norm scales the bound to an infinity, which is exact:
    # on the simplex the scaled left-hand side lies in [-1, 1].
    SUBNORMAL = [[1e-310, 0.0]]

    def test_subnormal_row_bounded_above_is_the_whole_simplex(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = ConstraintRow(a=self.SUBNORMAL, b=[1.0])
            assert row.feasible
            assert maximize(row, [1.0, 0.0]).value == 1.0
            assert minimize(row, [1.0, 0.0]).value == 0.0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_subnormal_row_bounded_below_is_infeasible(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = ConstraintRow(a=self.SUBNORMAL, b=[-1.0])
            with pytest.raises(InfeasibleRowError):
                maximize(row, [1.0, 0.0])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestMinimize:
    def test_interval_endpoint(self):
        assert minimize(E1_ROW, [0.0, 1.0]).value == pytest.approx(0.1, abs=1e-12)

    def test_vertices(self):
        row = VertexRow(vertices=[[1.0, 0.0], [0.0, 1.0]])
        assert minimize(row, [3.0, 7.0]).value == pytest.approx(3.0)

    def test_constant(self):
        assert minimize(E1_ROW, [-1.5, -1.5]).value == pytest.approx(-1.5, abs=1e-12)

    def test_conjugacy_is_exact(self):
        # The whole result: value, maximizer and iteration count, bit for bit.
        def conjugate(row, c):
            res = maximize(row, -c)
            return -res.value, res.maximizer, res.iterations

        def check(row, c):
            assert _outcome(lambda: minimize(row, c)) == _outcome(
                lambda: conjugate(row, c)
            )

        for _ in range(50):
            d = int(rng.integers(2, 5))
            row = random_row(rng, d)
            c = rng.uniform(-3, 3, size=d)
            check(row, c)
        # Every row kind, on objectives with ties and -0.0 beside 0.0.
        gen = np.random.default_rng(2024)
        pool = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
        makers = (random_interval_row, random_vertex_row, random_constraint_row)
        for _ in range(40):
            d = int(gen.integers(2, 7))
            c = gen.choice(pool, size=d)
            for make in makers:
                check(make(gen, d), c)


class TestFeasible:
    def test_interval_overfull_lower(self):
        assert not IntervalRow(lower=[0.6, 0.6], upper=[0.7, 0.7]).feasible

    def test_interval_underfull_upper(self):
        assert not IntervalRow(lower=[0.0, 0.0], upper=[0.3, 0.3]).feasible

    def test_vertex_singleton(self):
        assert VertexRow(vertices=[[0.5, 0.5]]).feasible

    def test_contradictory_constraints(self):
        row = ConstraintRow(a=[[1.0, 0.0], [-1.0, 0.0]], b=[0.2, -0.5])
        assert not row.feasible
        with pytest.raises(InfeasibleRowError):
            maximize(row, [1.0, 0.0])

    def test_constraint_rows_from_intervals_are_feasible(self):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            assert random_constraint_row(rng, d).feasible

    @given(data=st.data())
    def test_vertex_row_is_feasible_iff_every_vertex_is_a_pmf(self, data):
        # The reference is the per-vertex rule, is_pmf, on every vertex.
        # Entries and sums land on either side of each rule's threshold.
        d = data.draw(st.integers(1, 4))
        shifts = [s * e for s in (-1, 1)
                  for e in (EPS_PROB, np.nextafter(EPS_PROB, 0), 2 * EPS_PROB)]
        edges = [t + shift for t in (0.0, 1.0) for shift in shifts]
        entry = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([*edges, 1e308]))
        pmf = st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d).map(
            lambda xs: [x / sum(xs) for x in xs])
        shifted = st.tuples(pmf, st.sampled_from(shifts)).map(
            lambda pair: [pair[0][0] + pair[1], *pair[0][1:]])
        vertex = st.one_of(pmf, shifted, st.lists(entry, min_size=d, max_size=d))
        vertices = data.draw(st.lists(vertex, min_size=1, max_size=4))
        assert VertexRow(vertices).feasible == all(is_pmf(v) for v in vertices)

    def test_sums_beyond_float_range_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert IntervalRow([0, 0], [1e308, 1e308]).feasible is True
            assert VertexRow([[1e308, 1e308]]).feasible is False

    def test_interval_flag_is_the_emptiness_rule(self):
        # The reference is the emptiness rule, evaluated anew on the row's
        # bounds.  Entries sit on each threshold, a
        # hair either side of it, and at +-1e308, whose sums overflow to inf
        # or, over 32 states, meet both infinities and give NaN.
        def reference(row):
            with np.errstate(over="ignore", invalid="ignore"):
                upper_sum = float(row.upper.sum())
            return bool(not row.empty and (row.lower >= -EPS_PROB).all()
                        and upper_sum >= 1.0 - EPS_PROB)

        gen = np.random.default_rng(15)
        small = [0.0, EPS_PROB, 2 * EPS_PROB, -EPS_PROB, -2 * EPS_PROB, -1e308]
        large = [1.0, 1.0 - EPS_PROB, 1.0 + EPS_PROB, 1e308]
        edges = small + large
        nan_sums = 0
        for d in (1, 2, 3, 8, 32):
            # One entry in d, on average, is far from its usual range, so
            # rows of every width are often feasible and often not.
            rare = 1.0 / (2 * d)
            lower = gen.choice(edges, size=(2000, d),
                               p=[(1 - rare) / 3] * 3 + [rare / 7] * 7)
            upper = gen.choice(edges, size=(2000, d),
                               p=[rare / 6] * 6 + [(1 - rare) / 4] * 4)
            if d == 32:
                upper[:100] = [1e308, -1e308] * 16
                lower[:50] = [-1e308, 0.0] * 16
            with np.errstate(over="ignore", invalid="ignore"):
                nan_sums += np.isnan(upper.sum(axis=1)).sum()
            flags = []
            for lo, up, row in zip(lower, upper, IntervalRow.stack(lower, upper)):
                alone = IntervalRow(lo, up)
                assert row.feasible is alone.feasible
                assert row.feasible is reference(alone)
                flags.append(row.feasible)
            assert {True, False} <= set(flags)
        assert nan_sums >= 100

    def test_vertex_and_constraint_flags_are_no_violations(self):
        shifts = [0.0, EPS_PROB, -EPS_PROB, 2 * EPS_PROB, -2 * EPS_PROB, 1e308]
        vertex_lists = [[[x, 1.0 - x]] for x in shifts]
        vertex_lists += [[[0.5, 0.5], [x, 0.0]] for x in shifts]
        rows = [*VertexRow.stack(vertex_lists),
                *(VertexRow(vertices) for vertices in vertex_lists),
                VertexRow([[1e308, -1e308] * 16])]
        gen = np.random.default_rng(16)
        for _ in range(200):
            d, m = int(gen.integers(1, 5)), int(gen.integers(0, 4))
            a = gen.integers(-2, 3, size=(m, d)).astype(float)
            rows.append(ConstraintRow(a=a, b=gen.integers(-2, 3, size=m)))
            assert rows[-1].feasible is _reference_feasible(a, rows[-1].b)
            assert rows[-1].feasible is (rows[-1].simplex_start is not None)
        for row in rows:
            assert row.feasible is (not row.violations)
        assert {True, False} == {row.feasible for row in rows if
                                 isinstance(row, ConstraintRow)}
        assert {True, False} == {row.feasible for row in rows if
                                 isinstance(row, VertexRow)}


class TestProperties:
    def test_value_dominates_sampled_points(self):
        # 100 in-row samples per row may not all materialise for constraint
        # rows; require a meaningful number and check domination on each.
        for _ in range(25):
            d = int(rng.integers(2, 4))
            row = random_row(rng, d)
            c = rng.uniform(-3, 3, size=d)
            res = maximize(row, c)
            samples = sample_in_row(rng, row, n_samples=100)
            assert len(samples) >= 10
            for p in samples:
                assert res.value >= expectation(p, c) - 1e-8

    def test_cross_representation_agreement(self):
        for _ in range(60):
            d = int(rng.integers(2, 5))
            lower, upper = random_interval_bounds(rng, d)
            row = IntervalRow(lower=lower, upper=upper)
            crow = interval_to_constraints(lower, upper)
            c = rng.uniform(-4, 4, size=d)
            assert maximize(row, c).value == pytest.approx(
                maximize(crow, c).value, abs=1e-8
            )

    def test_determinism_bit_identical(self):
        for maker in (random_interval_row, random_vertex_row, random_constraint_row):
            gen_a = np.random.default_rng(7)
            row = maker(gen_a, 3)
            c = np.array([1.0, -2.0, 0.5])
            first = maximize(row, c)
            second = maximize(row, c)
            assert first.value == second.value
            assert np.array_equal(first.maximizer, second.maximizer)
            assert first.iterations == second.iterations

    # Entries comparable to the simplex pivot tolerance (1e-9) make the
    # solver legitimately indifferent, so the identities only hold for
    # objectives of sane scale; zero entries stay interesting though.
    _objective_entry = st.one_of(
        st.just(0.0), st.floats(1e-3, 5), st.floats(-5, -1e-3)
    )

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(-10, 10),
        lam=st.one_of(st.just(0.0), st.floats(1e-2, 5)),
        data=st.data(),
    )
    def test_constant_shift_and_scaling(self, mu, lam, data):
        d = data.draw(st.integers(2, 4))
        c = np.array(data.draw(
            st.lists(self._objective_entry, min_size=d, max_size=d)
        ))
        seed = data.draw(st.integers(0, 2**32 - 1))
        row = random_row(np.random.default_rng(seed), d)
        base = maximize(row, c).value
        assert maximize(row, c + mu).value == pytest.approx(base + mu, abs=1e-10)
        assert maximize(row, lam * c).value == pytest.approx(lam * base, abs=1e-10)


def _outcome(solve):
    """Bit patterns of the values ``solve`` returns, or the type and message
    of the InfeasibleRowError or NumericalError it raises instead."""
    try:
        values = solve()
    except (InfeasibleRowError, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    return [np.asarray(v).tobytes() for v in values]


def _assert_matches_reference_greedy(lower, upper, c):
    row = IntervalRow(lower=lower, upper=upper)
    c = np.array(c, dtype=float)

    def via(optimise, sign):
        res = optimise(row, c)
        return sign * res.value, res.maximizer, res.iterations

    assert _outcome(lambda: via(maximize, 1.0)) == _outcome(
        lambda: reference_interval_maximize(row, c)
    )
    assert _outcome(lambda: via(minimize, -1.0)) == _outcome(
        lambda: reference_interval_maximize(row, -c)
    )
    assert _outcome(lambda: [interval_witness(row)]) == _outcome(
        lambda: reference_interval_maximize(row, np.zeros(row.dim))[1:2]
    )


class TestIntervalKernelMatchesReferenceGreedy:
    """The interval pour's plain-Python loop, run on every row of a call
    outside a transition over a large stack, equals the sequential greedy
    bit for bit: value, maximizer, iteration count and raised error.  The
    stack pour of a transition is held to this loop in
    ``test_operators.py::TestStackPourMatchesLoop``."""

    @pytest.mark.parametrize(
        "lower, upper, c",
        [
            ([0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]),  # ties
            ([0.1, 0.2, 0.3], [0.1, 0.9, 0.3], [3.0, -1.0, 2.0]),  # zero headroom
            ([0.2, 0.5, 0.1], [0.2 - 1e-12, 0.9, 0.1 - 1e-10], [2.0, 1.0, 3.0]),
            ([0.25, 0.25, 0.5], [1.0, 1.0, 1.0], [0.0, 1.0, -1.0]),  # sum(lower) 1
            ([0.0, 0.0], [0.3, 0.3], [1.0, 2.0]),  # total upper mass below 1
            ([0.0, 0.0], [0.5, 0.5 - 5e-9], [1.0, 2.0]),  # short, within EPS_FEAS
            ([0.0, 0.0], [0.5, 0.5 - 2e-8], [1.0, 2.0]),  # short, beyond EPS_FEAS
            ([0.6, 0.6], [0.7, 0.7], [1.0, 2.0]),  # empty row
            ([0.5, 0.2], [0.4, 0.9], [1.0, 2.0]),  # lower above upper
            ([0.3], [1.0], [-2.0]),  # d = 1
            ([1.0], [1.0], [5.0]),
            ([-0.0, 0.2], [0.0, 0.9], [1.0, 2.0]),  # a signed zero bound
            # The pour stops once the slack is spent.  The slack 0.5 runs out
            # exactly at the first state, before three that have headroom.
            ([0.25, 0.25, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0]),
            # sum(lower) = 1 + 1e-12: the slack is below 0 from the start,
            # so no state takes mass, not even a negative share.
            ([0.5, 0.5 + 1e-12, 0.0], [0.9, 0.9, 0.9], [1.0, 2.0, 3.0]),
            # Zero headroom before the stop (state 0) and after it (2, 4).
            ([0.0, 0.25, 0.25, 0.0, 0.25], [0.0, 0.5, 0.25, 0.5, 0.25],
             [5.0, 4.0, 3.0, 2.0, 1.0]),
            # -0.0 lower bounds on states the pour never reaches.
            ([-0.0, 0.5, -0.0, -0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 2.0, 4.0]),
            # Short of mass by EPS_FEAS, on the boundary of the raise, and
            # by 2·EPS_FEAS, which raises.
            ([0.0, 0.0], [0.5, 0.5 - EPS_FEAS], [1.0, 2.0]),
            ([0.0, 0.0], [0.5, 0.5 - 2.0 * EPS_FEAS], [2.0, 1.0]),
        ],
    )
    def test_edge_cases(self, lower, upper, c):
        _assert_matches_reference_greedy(lower, upper, c)

    _lower = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 0.3))
    _gap = st.one_of(
        st.just(0.0), st.floats(-1e-9, 0.0), st.floats(0.0, 1.0)
    )
    _objective = st.one_of(
        st.integers(-2, 2).map(float), st.floats(-5.0, 5.0)
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_rows(self, data):
        d = data.draw(st.integers(1, 8))
        lower = data.draw(st.lists(self._lower, min_size=d, max_size=d))
        gap = data.draw(st.lists(self._gap, min_size=d, max_size=d))
        c = data.draw(st.lists(self._objective, min_size=d, max_size=d))
        upper = [lo + g for lo, g in zip(lower, gap)]
        _assert_matches_reference_greedy(lower, upper, c)

    @staticmethod
    def _seeded_row(gen, d, k):
        """Row k of a seeded family: some -0.0 lower bounds, some zero and
        slightly negative gaps, and, cycling with k, positive gaps that give
        ample mass, exactly the mass needed, or mass short of 1 by half of
        ``EPS_FEAS`` or by twice it."""
        lower = gen.dirichlet(np.ones(d)) * gen.uniform(0.0, 0.9)
        lower[gen.random(d) < 0.2] = -0.0
        kind = gen.integers(0, 4, d)
        kind[gen.integers(d)] = 0  # at least one positive gap
        gap = gen.uniform(0.0, 1.0, d)
        gap[kind == 2] = 0.0
        gap[kind == 3] = -gen.uniform(0.0, 1e-9, int((kind == 3).sum()))
        positive = kind < 2
        need = 1.0 - float(lower.sum())
        need = (need * gen.uniform(1.0, 3.0), need,
                need - 0.5 * EPS_FEAS, need - 2.0 * EPS_FEAS)[k % 4]
        gap[positive] *= need / gap[positive].sum()
        return IntervalRow(lower=lower, upper=lower + gap)

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 64, 200, 500])
    def test_seeded_rows_at_scale_share_one_objective(self, d):
        # One objective over many rows in both directions, as a transition
        # uses it, so its kept order and gather index serve every row.
        gen = np.random.default_rng(4000 + d)
        c = gen.uniform(-5.0, 5.0, d)
        ties = gen.random(d) < 0.3
        c[ties] = gen.integers(-1, 2, int(ties.sum()))
        shared = lp.Objective.checked(c)
        for k in range(40):
            row = self._seeded_row(gen, d, k)
            for optimise, sign in ((maximize, 1.0), (minimize, -1.0)):

                def kernel():
                    res = optimise(row, shared)
                    return sign * res.value, res.maximizer, res.iterations

                assert _outcome(kernel) == _outcome(
                    lambda: reference_interval_maximize(row, sign * c)
                )


def _reference_feasible(a, b):
    try:
        reference_simplex_max(np.zeros(np.shape(a)[1]), a, b, check_start=False)
    except InfeasibleRowError:
        return False
    return True


def _assert_matches_simplex(row, c, values=True):
    """``maximize`` and ``minimize`` on a constraint row against the simplex,
    ``core._simplex_maximize``.  On a row that keeps the simplex they are
    compared bit for bit.  On a row solved over its vertex list they report
    0 iterations, a maximizer in the row and a value within
    1e-12·max(1, |v|) of the best vertex found by brute force,
    ``_row_vertices``, and, when ``values``, of the simplex's value too."""
    obj = lp.Objective.checked(c)
    sides = ((maximize, obj, 1.0), (minimize, obj.negation, -1.0))
    for optimise, target, sign in sides:

        def via():
            res = optimise(row, c)
            return sign * res.value, res.maximizer, res.iterations

        if row.vertices is None:
            assert _outcome(via) == _outcome(
                lambda: core._simplex_maximize(row, target)
            )
            continue
        value, maximizer, iterations = via()
        assert iterations == 0
        assert row_contains(row, maximizer)
        wants = [max(float(target.values @ p) for p in _row_vertices(row))]
        if values:
            wants.append(core._simplex_maximize(row, target)[0])
        for want in wants:
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def _assert_matches_reference_simplex(a, b, c):
    c = np.array(c, dtype=float)
    a = np.array(a, dtype=float).reshape(len(b), c.size)
    try:
        row = ConstraintRow(a=a, b=b)
    except NumericalError as exc:
        # Phase 1 runs, and a row that keeps the simplex checks its start,
        # when the row is built: the reference must raise the same error,
        # with the same message, for either objective.
        for target in (c, -c):
            assert _outcome(lambda: reference_simplex_max(target, a, b)) == (
                type(exc).__name__, str(exc)
            )
        return
    obj = lp.Objective.checked(c)
    # A row solved over its vertex list does not check its start.
    check_start = row.vertices is None

    def simplex(objective):
        return core._simplex_maximize(row, objective)

    # Twice each, so that calls after others on the same row, all starting
    # from the kept phase-1 tableau, are compared too.
    for _ in range(2):
        assert _outcome(lambda: simplex(obj)) == _outcome(
            lambda: reference_simplex_max(c, a, b, check_start)
        )
        assert row.feasible == _reference_feasible(a, b)
        assert _outcome(lambda: simplex(obj.negation)) == _outcome(
            lambda: reference_simplex_max(-c, a, b, check_start)
        )
    # On rows with float entries the simplex itself can stop off the optimum
    # (see ``TestCompiledConstraintRows``), so a compiled row's value is
    # compared with its brute-force vertices there, and with the simplex on
    # the integer rows only.
    _assert_matches_simplex(row, c, values=False)


_ROW_ENTRY = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))


def _random_row(data):
    """``(a, b, c)``: a constraint row of up to the benchmark's d = 10, m = 5
    and beyond, often degenerate, with each inequality scaled by 1e-12 to
    1e12, and an objective."""
    d = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(0, 7))
    a = np.array(
        data.draw(st.lists(_ROW_ENTRY, min_size=m * d, max_size=m * d))
    ).reshape(m, d)
    if data.draw(st.booleans()):
        # Through or around the barycentre: nonempty, often degenerate.
        margin = data.draw(st.sampled_from([0.0, 0.1]))
        b = a @ np.full(d, 1.0 / d) + margin
    else:
        b = np.array(data.draw(st.lists(_ROW_ENTRY, min_size=m, max_size=m)))
    exponents = data.draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m))
    scales = 10.0 ** np.array(exponents, dtype=float)
    c = data.draw(st.lists(_ROW_ENTRY, min_size=d, max_size=d))
    return a * scales[:, None], b * scales, c


class TestConstraintSimplexMatchesReference:
    """The simplex that keeps each row's phase-1 start equals the solver that
    redoes both phases on every call, bit for bit: value, maximizer,
    iteration count, raised error and feasibility.  ``maximize`` and
    ``minimize`` then equal that simplex on a row that keeps it (see
    ``_assert_matches_simplex``)."""

    @pytest.mark.parametrize(
        "a, b, c",
        [
            (np.zeros((0, 3)), [], [1.0, 5.0, 2.0]),  # m = 0
            (np.zeros((0, 1)), [], [3.0]),  # m = 0, d = 1
            ([[1.0]], [2.0], [-1.0]),  # d = 1
            ([[1.0]], [0.5], [1.0]),  # d = 1, infeasible
            ([[0.0, 0.0]], [1.0], [1.0, 2.0]),  # all-zero inequality
            ([[0.0, 0.0]], [0.0], [2.0, 1.0]),
            ([[0.0, 0.0]], [-1.0], [1.0, 2.0]),  # all-zero, infeasible
            ([[-1.0, 0.0, 0.0]], [-0.5], [0.0, 1.0, 2.0]),  # negative b
            ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 1.0], [1.0, 1.0, 1.0]),
            ([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0], [1.0, 2.0]),  # degenerate
            (
                [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, -1.0]],
                [0.4, 0.4, 0.8, -1.0],
                [1.0, 0.0],
            ),  # duplicate and redundant rows
            ([[1.0, 0.0], [-1.0, 0.0]], [0.25, -0.25], [10.0, 1.0]),
            ([[1.0, 0.0], [-1.0, 0.0]], [0.2, -0.5], [1.0, 0.0]),  # infeasible
            ([[1.0, 1.0]], [1.0 - 1e-9], [1.0, 0.0]),  # short, within EPS_FEAS
            ([[1.0, 1.0]], [1.0 - 1e-7], [1.0, 0.0]),  # short, beyond EPS_FEAS
            ([[1e-12, 0.0]], [0.5e-12], [1.0, 0.0]),
            ([[1e12, 1e12]], [-2e12], [1.0, 0.0]),  # scaled, infeasible
            ([[-1e12, 0.0, 0.0], [0.0, 1e-12, 0.0]], [-3e11, 2e-13], [0.0, 1.0, 2.0]),
            ([[1e-310, 0.0], [1.0, 0.0]], [1.0, 0.5], [1.0, 0.0]),  # b scales to inf
            ([[1e-310, 0.0]], [-1.0], [1.0, 0.0]),  # b scales to -inf: infeasible
            # Phase 1 keeps a start outside the row, and on the next row
            # finds an unbounded direction: both sides raise.
            (LEAVING_START_A, LEAVING_START_B, [1.0, 0.0, -1.0, 2.0, 0.5]),
            (UNBOUNDED_START_A, UNBOUNDED_START_B, [1.0, 0.0, -1.0, 2.0, 0.5]),
        ],
    )
    def test_edge_cases(self, a, b, c):
        _assert_matches_reference_simplex(a, b, c)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_rows(self, data):
        _assert_matches_reference_simplex(*_random_row(data))

    def test_phase_one_is_solved_once_per_row(self, monkeypatch):
        solves = []
        solve = core._solve_phase_one
        monkeypatch.setattr(
            core, "_solve_phase_one", lambda row: solves.append(row) or solve(row)
        )
        rows = [random_constraint_row(np.random.default_rng(s), 4) for s in range(3)]
        for row in rows:
            assert row.feasible
        start = [row.simplex_start for row in rows]
        for k in range(20):
            c = np.random.default_rng(k).normal(size=4)
            for row in rows:
                maximize(row, c)
                minimize(row, c)
        assert len(solves) == len(rows)
        assert all(row.simplex_start is s for row, s in zip(rows, start))

    def test_infeasible_row_raises_on_every_call(self, monkeypatch):
        solves = []
        solve = core._solve_phase_one
        monkeypatch.setattr(
            core, "_solve_phase_one", lambda row: solves.append(row) or solve(row)
        )
        row = ConstraintRow(a=[[1.0, 0.0], [-1.0, 0.0]], b=[0.2, -0.5])
        for _ in range(3):
            assert not row.feasible
            for optimise in (maximize, minimize):
                with pytest.raises(InfeasibleRowError, match="admits no pmf"):
                    optimise(row, [1.0, 0.0])
        assert len(solves) == 1
        assert row.simplex_start is None

    def test_kept_start_is_out_of_equality_and_repr(self):
        row = ConstraintRow(a=[[1.0, 0.0]], b=[0.5])
        before = repr(row)
        maximize(row, [1.0, 0.0])
        assert row.simplex_start is not None
        assert repr(row) == before
        assert [f.name for f in fields(row) if f.compare] == ["a", "b"]
        assert [f.name for f in fields(row) if f.repr] == ["a", "b"]


def _row_vertices(row):
    """Every vertex of a constraint row, by brute force over active sets: each
    choice of ``d - 1`` of the scaled inequalities and the bounds ``p >= 0``,
    held as equalities together with ``sum(p) = 1``, that has a unique
    solution inside the row within 1e-9.  An inequality whose scaled bound
    overflowed to +inf never holds with equality."""
    d = row.dim
    lhs = np.vstack([row.scaled_a, -np.eye(d)])
    rhs = np.concatenate([row.scaled_b, np.zeros(d)])
    vertices = []
    for active in combinations(range(lhs.shape[0]), d - 1):
        if not np.isfinite(rhs[list(active)]).all():
            continue
        system = np.vstack([lhs[list(active)], np.ones(d)])
        if np.linalg.cond(system) > 1e8:
            continue
        p = np.linalg.solve(system, np.append(rhs[list(active)], 1.0))
        if (lhs @ p <= rhs + 1e-9).all():
            vertices.append(p)
    return vertices


def _small_integer_row(data):
    """A constraint row of small integers on 1 to 5 states and 0 to 4
    inequalities, often degenerate, and an objective of small integers, so
    that many objectives have several optima."""
    d = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(0, 4))
    a = np.array(
        data.draw(st.lists(st.integers(-2, 2), min_size=m * d, max_size=m * d)),
        dtype=float,
    ).reshape(m, d)
    through = data.draw(st.sampled_from(["simplex vertex", "barycentre", "free"]))
    if through == "simplex vertex":
        # Every inequality holds with equality at one corner of the
        # simplex: a degenerate vertex.
        b = a[:, data.draw(st.integers(0, d - 1))]
    elif through == "barycentre":
        b = a @ np.full(d, 1.0 / d)
    else:
        b = np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)),
            dtype=float,
        )
    c = np.array(
        data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)),
        dtype=float,
    )
    return ConstraintRow(a=a, b=b), c


class TestConstraintRowTightness:
    """A constraint row's value is the true optimum: the best of its
    vertices, found by brute force without a simplex, so the check does not
    depend on the pivot rule."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_value_is_the_best_vertex(self, data):
        row, c = _small_integer_row(data)
        vertices = _row_vertices(row)
        if not vertices:
            with pytest.raises(InfeasibleRowError):
                maximize(row, c)
            return
        values = [float(c @ p) for p in vertices]
        for optimise, best in ((maximize, max(values)), (minimize, min(values))):
            res = optimise(row, c)
            assert res.value == pytest.approx(best, abs=1e-9)
            assert row_contains(row, res.maximizer)


def _unique_rows(points):
    """The distinct rows of ``points``, rounded to 12 decimals, sorted."""
    return sorted({tuple(np.round(p, 12) + 0.0) for p in points})


class TestCompiledConstraintRows:
    """A feasible constraint row with at most ``VERTEX_BASES_MAX`` candidate
    bases is solved over the vertex list it finds when it is built."""

    @staticmethod
    def _row_of_any_size(data):
        # The list is found the same way under any basis limit; one that
        # admits the 126 bases of d = 5, m = 4 lets the properties below
        # reach every shape the strategy draws, not only those under
        # ``VERTEX_BASES_MAX``.
        with mock.patch.object(core, "VERTEX_BASES_MAX", 126):
            return _small_integer_row(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_simplex(self, data):
        row, c = self._row_of_any_size(data)
        _assert_matches_simplex(row, c)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_vertices_are_the_brute_force_vertices(self, data):
        row, _ = self._row_of_any_size(data)
        if row.vertices is None:
            return
        assert not row.vertices.flags.writeable
        assert _unique_rows(row.vertices) == _unique_rows(_row_vertices(row))

    @pytest.mark.parametrize(
        "a, b, vertices",
        [
            (np.zeros((0, 3)), [], np.eye(3)),  # m = 0
            (np.zeros((0, 1)), [], [[1.0]]),  # m = 0, d = 1
            ([[1.0]], [2.0], [[1.0]]),  # d = 1
            ([[0.0, 0.0]], [1.0], np.eye(2)),  # all-zero inequality
            ([[0.0, 0.0]], [0.0], np.eye(2)),
            ([[-1.0, 0.0, 0.0]], [-0.5], [[0.5, 0.5, 0], [0.5, 0, 0.5], [1, 0, 0]]),
            (
                [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, -1.0]],
                [0.4, 0.4, 0.8, -1.0],
                [[0.4, 0.6], [0.0, 1.0]],
            ),  # duplicate and redundant rows
            ([[1.0, 0.0], [-1.0, 0.0]], [0.25, -0.25], [[0.25, 0.75]]),
            ([[1e-310, 0.0], [1.0, 0.0]], [1.0, 0.5], [[0.5, 0.5], [0.0, 1.0]]),
        ],
    )
    def test_edge_cases(self, a, b, vertices):
        d = np.shape(vertices)[1]
        row = ConstraintRow(a=np.reshape(a, (len(b), d)), b=b)
        assert _unique_rows(row.vertices) == _unique_rows(vertices)
        gen = np.random.default_rng(len(b))
        for c in [np.arange(row.dim, dtype=float), *gen.normal(size=(5, row.dim))]:
            _assert_matches_simplex(row, c)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1.0, 1.0]], [1.0 - 1e-9]),  # short, within EPS_FEAS: no vertex
            # The corner (0, 0, 0, 1) misses the row by 6.9e-9: keeping it
            # would raise the maximum of p3 by that much.
            ([[0.0] * 4, [1.0, 1.0, -1.0, 6.892739913138855e-09]], [0.0, 0.0]),
            ([[1.0]], [0.5]),  # infeasible
            ([[1e-310, 0.0]], [-1.0]),  # b scales to -inf: infeasible
        ],
    )
    def test_row_with_a_near_vertex_or_none_keeps_the_simplex(self, monkeypatch, a, b):
        # Under any basis limit: the near-vertex row has 20 bases.
        monkeypatch.setattr(core, "VERTEX_BASES_MAX", 126)
        row = ConstraintRow(a=a, b=b)
        assert row.vertices is None
        _assert_matches_simplex(row, np.arange(row.dim, dtype=float))

    @staticmethod
    def _mass_cap_rows(m):
        # m caps p0 <= u on two states: C(m + 2, 1) = m + 2 bases, every
        # active set well conditioned.
        u = np.linspace(0.5, 0.9, m)
        return ConstraintRow(a=np.tile([1.0, 0.0], (m, 1)), b=u)

    def test_one_basis_over_the_limit_keeps_the_simplex(self, monkeypatch):
        at_limit = self._mass_cap_rows(core.VERTEX_BASES_MAX - 2)
        assert at_limit.vertices is not None
        _assert_matches_simplex(at_limit, [1.0, -1.0])
        # Over the limit, building the row only compares the basis count.
        finds = []
        find = core._find_vertices
        monkeypatch.setattr(
            core, "_find_vertices", lambda row: finds.append(row) or find(row)
        )
        over = self._mass_cap_rows(core.VERTEX_BASES_MAX - 1)
        assert over.vertices is None
        assert finds == []
        _assert_matches_simplex(over, [1.0, -1.0])

    def test_ill_conditioned_row_keeps_the_simplex(self, monkeypatch):
        # Two inequalities 1e-7 apart: their active set has a 1-norm
        # condition number of 6e7.
        a, b = [[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]], [0.5, 0.5]
        row = ConstraintRow(a=a, b=b)
        assert row.vertices is None
        for c in ([1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [-1.0, 0.5, 0.25]):
            _assert_matches_simplex(row, c)
        monkeypatch.setattr(core, "VERTEX_COND_MAX", 1e9)
        assert ConstraintRow(a=a, b=b).vertices is not None

    def test_small_row_answers_where_the_simplex_leaves_the_row(self):
        # Phase 1 pivots on the scaled entry 1.25e-8, its tableau grows
        # entries of 8e7, and the start it keeps is p = [1.028, -0.028],
        # outside the row: the simplex answers 2.083 > max(c).  The vertex
        # list answers within the row.
        row = ConstraintRow(a=BREAKDOWN_A, b=BREAKDOWN_B)
        assert row.vertices is not None
        c = np.array([2.0, -1.0])
        res = maximize(row, c)
        assert row_contains(row, res.maximizer)
        assert res.value == max(float(c @ p) for p in _row_vertices(row))
        assert res.value == pytest.approx(2.0, abs=1e-7)

    def test_row_whose_phase_one_leaves_it_raises(self):
        # Padded, the same row keeps the simplex, whose kept start lies
        # outside it: phase 2 from there answered 2.083 > max(c) for c =
        # [2, -1], with a maximizer outside the row.  Building it raises.
        with pytest.raises(NumericalError, match="^phase 1 of the simplex left"):
            ConstraintRow(a=BREAKDOWN_A_PADDED, b=BREAKDOWN_B_PADDED)

    def test_maximizer_is_a_read_only_view_of_a_vertex(self):
        row = ConstraintRow(a=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], b=[0.7, -0.2])
        for optimise in (maximize, minimize):
            p = optimise(row, [1.0, 2.0, 3.0]).maximizer
            assert np.shares_memory(p, row.vertices)
            assert not p.flags.writeable


def _bits(res):
    return res.value, res.maximizer.tobytes(), res.iterations


def _benchmark_shaped_rows(seed, count):
    """Constraint rows like the ``constraint-sum`` benchmark's: d = 10 states
    and m = 5 normal halfspaces through a margin of 0.05 to 0.2 around a
    Dirichlet(2) pmf."""
    gen = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        centre = gen.dirichlet(np.full(10, 2.0))
        a = gen.normal(size=(5, 10))
        rows.append(ConstraintRow(a=a, b=a @ centre + gen.uniform(0.05, 0.2, size=5)))
    return rows


class TestPivotRule:
    def test_call_is_pure(self):
        # A call on a row that already optimised other objectives gives the
        # bits of a call on a fresh copy of the row: nothing but phase 1 is
        # carried from one call to the next.
        for row in _benchmark_shaped_rows(3, 10):
            gen = np.random.default_rng(5)
            c = gen.normal(size=row.dim)
            for _ in range(5):
                maximize(row, gen.normal(size=row.dim))
                minimize(row, gen.normal(size=row.dim))
            for optimise in (maximize, minimize):
                fresh = ConstraintRow(a=row.a, b=row.b)
                assert _bits(optimise(row, c)) == _bits(optimise(fresh, c))

    def test_phase_two_pivot_count(self):
        # Mean phase-2 pivots over 800 calls on these rows: 4.04 with
        # Dantzig's entering rule, 7.61 with Bland's smallest-index rule.
        pivots = []
        gen = np.random.default_rng(12)
        for row in _benchmark_shaped_rows(12, 40):
            for _ in range(10):
                c = gen.normal(size=row.dim)
                for optimise in (maximize, minimize):
                    pivots.append(optimise(row, c).iterations)
        assert np.mean(pivots) < 5.5


def _float_bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# Tableau entries: repeated small values, both zeros, entries on either side
# of PIVOT_TOL and of -PIVOT_TOL, and any float in [-3, 3].
_NEAR_TOL = [PIVOT_TOL, math.nextafter(PIVOT_TOL, 1.0), math.nextafter(PIVOT_TOL, 0.0),
             PIVOT_TOL * (1 + 1e-7), PIVOT_TOL * (1 - 1e-7)]
_TABLEAU_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, *_NEAR_TOL,
                     *(-x for x in _NEAR_TOL)]),
    st.floats(-3.0, 3.0),
)
# Right-hand sides: zeros (degenerate ratios), infinity and repeated values.
_RHS_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf]), st.floats(0.0, 3.0)
)


@st.composite
def _canonical_tableau(draw):
    """``(rows, costs, basis)``: a simplex tableau of up to 9 constraint rows
    over up to 20 columns and the right-hand side, past the 6 x 16 of the
    ``constraint-sum`` benchmark.  Each row's basic column is a unit column
    with a reduced cost of 0, or an artificial variable, an index past the
    stored columns, as phase 1 keeps them.  Half the tableaux have a first
    row that bounds every column; the others often have unbounded
    columns."""
    n_rows = draw(st.integers(1, 9))
    n_cols = draw(st.integers(n_rows, 20))
    order = draw(st.permutations(range(n_cols)))
    basis = [order[i] if draw(st.booleans()) else n_cols + i for i in range(n_rows)]
    rows = [draw(st.lists(_TABLEAU_ENTRY, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]
    costs = draw(st.lists(_TABLEAU_ENTRY, min_size=n_cols + 1, max_size=n_cols + 1))
    if draw(st.booleans()):
        # Entries of at least 0.5 in the first row bound every column, as
        # the ``sum(p) = 1`` row of phase 1 does.
        rows[0] = [abs(x) + 0.5 for x in rows[0]]
    for i, k in enumerate(basis):
        if k < n_cols:
            for r, trow in enumerate(rows):
                trow[k] = 1.0 if r == i else 0.0
            costs[k] = 0.0
    rows = [tuple(trow + [draw(_RHS_ENTRY)]) for trow in rows]
    return rows, costs, basis


def _scaled_row(a, b):
    """The fields phase 1 reads, ``scaled_a`` and ``scaled_b``, scaled as
    ``ConstraintRow`` scales them, without building the row."""
    a = np.array(a, dtype=float)
    norms = np.abs(a).max(axis=1, initial=0.0)
    norms[norms == 0.0] = 1.0
    with np.errstate(over="ignore"):
        return SimpleNamespace(
            scaled_a=a / norms[:, None], scaled_b=np.asarray(b, dtype=float) / norms
        )


def _start_outcome(solve, row):
    """The bits of the start ``solve(row)`` returns, row by row, and its
    basis, or the type and message of the error it raises."""
    try:
        tableau, basis = solve(row)
    except (InfeasibleRowError, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    return [_float_bits(trow) for trow in tableau], basis


def _workload_constraint_rows(seeds):
    """Every ``ConstraintRow`` of the model documents of the benchmark's four
    workloads at ``seeds``, parsed as ``credalmc`` parses them."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # ``dataclasses`` looks the module up while the module runs.
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    rows = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for text in workloads.build(name, seed).documents.values():
                doc = json.loads(text)
                if "rows" in doc and '"constraints"' in text:
                    model = cli.parse_model(doc)
                    rows += [row for row in (*model.rows, model.initial)
                             if isinstance(row, ConstraintRow)]
    return rows


class TestDeferredRowUpdates:
    """``core._run_phase`` updates in full only the pivot row, the
    reduced-cost row and the right-hand side; the other rows catch up when
    they are read.  It must make the pivots, and leave the bits, of the
    eager loop that updates every row at every pivot
    (``helpers.reference_run_phase``)."""

    @settings(max_examples=400, deadline=None)
    @given(tableau=_canonical_tableau())
    def test_random_tableaux(self, tableau):
        rows, costs, basis = tableau
        eager = [list(trow) for trow in rows] + [list(costs)]
        eager_basis = list(basis)
        try:
            want = reference_run_phase(eager, eager_basis, max_pivots=200)
        except PivotCapError:
            assume(False)
        except NumericalError as exc:
            want = str(exc)
        # The rows are tuples, so nothing can write to them in place.
        lazy, missed = list(rows), [[] for _ in rows]
        rhs = [trow[-1] for trow in rows]
        lazy_basis = list(basis)
        try:
            got, obj = core._run_phase(lazy, missed, rhs, lazy_basis, list(costs))
        except NumericalError as exc:
            got, obj = str(exc), None
        assert got == want
        assert lazy_basis == eager_basis
        assert _float_bits(rhs) == _float_bits([trow[-1] for trow in eager[:-1]])
        # Caught up, every row is the eager one, bit for bit; so is the
        # reduced-cost row, whose last entry phase 1 reads.
        flushed = [core._applied(trow, todo) for trow, todo in zip(lazy, missed)]
        assert [_float_bits(t) for t in flushed] == [_float_bits(t) for t in eager[:-1]]
        if obj is not None:
            assert _float_bits(obj) == _float_bits(eager[-1])
            assert _float_bits(obj[-1:]) == _float_bits(eager[-1][-1:])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_phase_one_matches_the_eager_reference(self, data):
        a, b, _ = _random_row(data)
        row = _scaled_row(a, b)
        assert _start_outcome(core._solve_phase_one, row) == _start_outcome(
            reference_phase_one, row
        )

    @pytest.mark.parametrize(
        "a, b",
        [
            (BREAKDOWN_A_PADDED, BREAKDOWN_B_PADDED),
            (LEAVING_START_A, LEAVING_START_B),
            (UNBOUNDED_START_A, UNBOUNDED_START_B),
            ([[1.0, 0.0], [-1.0, 0.0]], [0.2, -0.5]),  # infeasible
            # Artificials left at level 0 after phase 1, driven out.
            ([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
             [0.0, 0.0, 1.0]),
        ],
    )
    def test_phase_one_edge_cases(self, a, b):
        row = _scaled_row(a, b)
        assert _start_outcome(core._solve_phase_one, row) == _start_outcome(
            reference_phase_one, row
        )

    def test_workload_rows_keep_the_reference_start(self):
        rows = _workload_constraint_rows(seeds=(1, 2, 3))
        # At least constraint-sum's 4 models of 11 rows at each seed (with
        # mixed-check's 4, 144 rows in all at the time of writing).
        assert len(rows) >= 3 * 44
        for row in rows:
            assert _start_outcome(lambda r: r.simplex_start, row) == _start_outcome(
                reference_phase_one, row
            )


class TestSharedObjective:
    """An ``Objective`` shared by many rows, with its order and negation kept
    between calls, gives bit for bit what a fresh plain vector gives on each
    row."""

    _entry = st.one_of(
        st.integers(-2, 2).map(float), st.just(-0.0), st.floats(-5.0, 5.0)
    )
    _lower = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 0.3))
    _gap = st.one_of(st.just(0.0), st.floats(0.0, 1.0))

    @staticmethod
    def _vertex_row(data, d):
        # Unit vectors and the uniform pmf, repeated: ties on every objective.
        pmfs = [np.eye(d)[j] for j in range(d)] + [np.full(d, 1.0 / d)]
        picks = data.draw(st.lists(st.integers(0, d), min_size=1, max_size=4))
        return VertexRow(vertices=[pmfs[j] for j in picks])

    def _row(self, data, d):
        kind = data.draw(st.sampled_from(("interval", "vertex", "constraint")))
        if kind == "interval":
            lower = data.draw(st.lists(self._lower, min_size=d, max_size=d))
            gap = data.draw(st.lists(self._gap, min_size=d, max_size=d))
            return IntervalRow(lower=lower, upper=[lo + g for lo, g in zip(lower, gap)])
        if kind == "vertex":
            return self._vertex_row(data, d)
        seed = data.draw(st.integers(0, 2**32 - 1))
        return random_constraint_row(np.random.default_rng(seed), d)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_shared_objective_matches_fresh_vectors(self, data):
        d = data.draw(st.integers(1, 6))
        c = np.array(data.draw(st.lists(self._entry, min_size=d, max_size=d)))
        rows = [self._row(data, d) for _ in range(data.draw(st.integers(1, 6)))]
        shared = lp.Objective.checked(c)

        def via(optimise, row, objective):
            res = optimise(row, objective)
            return res.value, res.maximizer, res.iterations

        for row in rows:
            order = data.draw(st.permutations([maximize, minimize]))
            for optimise in order:
                assert _outcome(lambda: via(optimise, row, shared)) == _outcome(
                    lambda: via(optimise, row, c.copy())
                )

    def test_wrong_length_matches_the_plain_vector_message(self):
        c = [1.0, 2.0, 3.0]
        for optimise in (maximize, minimize):
            with pytest.raises(ValueError) as plain:
                optimise(E1_ROW, c)
            with pytest.raises(ValueError) as shared:
                optimise(E1_ROW, lp.Objective.checked(c))
            assert str(shared.value) == str(plain.value)
            assert str(plain.value) == "objective has length 3, expected 2"

    @pytest.mark.parametrize("c, message", [
        ([np.nan], "objective has length 1, expected 2"),
        ([1.0, np.inf, 0.0], "objective has length 3, expected 2"),
        ([[np.nan, 1.0]], "objective must be one-dimensional, got shape (1, 2)"),
        ([1.0, np.nan], "objective contains non-finite entries"),
    ])
    def test_plain_vector_messages_keep_their_order(self, c, message):
        # Shape, then length, then finiteness, on every row kind.
        rows = [E1_ROW, VertexRow(vertices=[[0.2, 0.8]]),
                interval_to_constraints(E1_ROW.lower, E1_ROW.upper)]
        for row in rows:
            for optimise in (maximize, minimize):
                with pytest.raises(ValueError) as raised:
                    optimise(row, c)
                assert str(raised.value) == message

    def test_values_are_a_read_only_view(self):
        c = np.array([0.0, 1.0])
        shared = lp.Objective.checked(c)
        assert not shared.values.flags.writeable
        assert c.flags.writeable
        assert maximize(E1_ROW, shared).value == maximize(E1_ROW, c).value


class TestChunkedObjectives:
    """``Objective.blocks`` takes a chunk of blocks at a time, negates it for
    the lower contraction, and, given the rows the blocks cycle through,
    sorts and solves them in bulk; each block's objective, over the block
    or its negation, solved in bulk or not, gives on every row kind and in
    both directions what a fresh ``Objective(block)`` or
    ``Objective(-block)`` gives, bit for bit, on either side of every chunk
    boundary.  Its own negation is built only when it is read."""

    # Few distinct entries, -0.0 beside 0.0 among them, so blocks have ties.
    _POOL = np.array([-2.0, -1.0, -0.3, -0.0, 0.0, 0.5, 1.0, 1.7, 2.0])

    @staticmethod
    def _row(kind, gen, d):
        if kind == "interval":
            lower, upper = random_interval_bounds(gen, d)
            lower[gen.random(d) < 0.3] = -0.0
            return IntervalRow(lower=lower, upper=upper)
        if kind == "vertex":
            # Unit vectors and the uniform pmf, repeated: ties on every block.
            pmfs = np.vstack([np.eye(d), np.full(d, 1.0 / d)])
            return VertexRow(vertices=pmfs[gen.integers(0, d + 1, size=4)])
        return small_constraint_row(gen, d)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(6, 64),
        chunks=st.sampled_from(("1", "chunk", "chunk + 1", "3 chunks + 1")),
        kind=st.sampled_from(("interval", "vertex", "constraint")),
        negate=st.booleans(),
        solved=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fresh_objectives(self, d, chunks, kind, negate, solved, seed):
        gen = np.random.default_rng(seed)
        step = lp.CHUNK_ENTRIES // d
        k = {
            "1": 1,
            "chunk": step,
            "chunk + 1": step + 1,
            "3 chunks + 1": 3 * step + 1,
        }[chunks]
        blocks = np.where(
            gen.random((k, d)) < 0.7,
            gen.choice(self._POOL, size=(k, d)),
            gen.normal(size=(k, d)),
        )
        rows = [self._row(kind, gen, d) for _ in range(3)]

        def via(optimise, objective, row):
            res = optimise(row, objective)
            return res.value, res.maximizer, res.iterations

        prepared = list(lp.Objective.blocks(blocks, negate, rows if solved else ()))
        assert len(prepared) == k
        for i, (obj, block) in enumerate(zip(prepared, blocks)):
            row = rows[i % 3]
            fresh = lp.Objective(-block if negate else block.copy())
            # Either direction may come first: the one that reads the
            # negation or the order builds it for the other.
            directions = (maximize, minimize) if i % 2 else (minimize, maximize)
            for optimise in directions:
                assert _outcome(lambda: via(optimise, obj, row)) == _outcome(
                    lambda: via(optimise, fresh, row)
                )
            assert obj.negation.values.tobytes() == (-fresh.values).tobytes()

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("solved", [False, True])
    def test_negation_is_built_when_first_read(self, negate, solved):
        # Interval and vertex rows maximise ``values`` and never read it, in
        # bulk (``BATCH_MIN_LINES`` blocks each) or call by call.
        rows = [IntervalRow(lower=[0.1, 0.2, 0.3], upper=[0.5, 0.6, 0.7]),
                VertexRow(vertices=[[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])]
        k = lp.BATCH_MIN_LINES
        blocks = np.arange(6.0 * k).reshape(2 * k, 3) - 7.0
        prepared = list(lp.Objective.blocks(blocks, negate, rows if solved else ()))
        assert all(obj._negation is None for obj in prepared)
        assert all((obj._line[0] is row) == solved
                   for obj, row in zip(prepared, rows * k))
        for obj, row in zip(prepared, rows * k):
            maximize(row, obj)
        assert all(obj._negation is None for obj in prepared)
        first = prepared[0].negation
        assert prepared[0].negation is first
        assert first.values.tobytes() == (-prepared[0].values).tobytes()
        assert all(obj._negation is None for obj in prepared[1:])

    def test_contraction_without_simplex_rows_builds_no_negation(self, monkeypatch):
        # Only a simplex row reads a block's negation in a contraction, and
        # that read builds it.
        built = []
        negation = lp.Objective.negation

        def counted(obj):
            if obj._negation is None:
                built.append(obj)
            return negation.fget(obj)

        monkeypatch.setattr(lp.Objective, "negation", property(counted))
        gen = np.random.default_rng(23)
        model = random_model(gen, 3, kinds=("intervals", "vertices"))
        hist = gen.normal(size=(3, 3, 3))
        for contract in (extended_upper, extended_lower):
            contract(model, hist)
        assert built == []
        rows = list(model.rows)
        # 15 candidate bases, over the vertex-list limit: it keeps the simplex.
        rows[1] = ConstraintRow(a=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                b=[0.7, -0.3, 0.5])
        assert rows[1].vertices is None
        extended_lower(replace(model, rows=tuple(rows)), hist)
        assert len(built) == 3

    def test_blocks_are_read_only_views(self):
        blocks = np.arange(12.0).reshape(4, 3)
        rows = [IntervalRow(lower=[0.1, 0.2, 0.3], upper=[0.5, 0.6, 0.7])]
        for obj, block in zip(lp.Objective.blocks(blocks, False, rows), blocks):
            assert np.shares_memory(obj.values, block)
            assert not obj.values.flags.writeable
        assert blocks.flags.writeable


class TestVertexKernel:
    """``vertices.dot(c)`` gives the bits of ``vertices @ c``, so the vertex
    kernel's value and listed vertex are those of the matmul and its
    lowest-index argmax."""

    def test_matches_matmul_and_argmax(self):
        gen = np.random.default_rng(6006)
        for _ in range(3000):
            k = int(gen.integers(1, 13))
            d = int(gen.integers(1, 61))
            vertices = gen.dirichlet(np.ones(d), k)
            # Repeated vertices tie on every objective.
            vertices[gen.random(k) < 0.25] = vertices[0]
            c = gen.uniform(-1.0, 1.0, d) * 10.0 ** gen.uniform(-5.0, 5.0)
            row = VertexRow(vertices=vertices)
            shared = lp.Objective.checked(c)
            for optimise, target in ((maximize, c), (minimize, -c)):
                values = row.vertices @ target
                best = int(values.argmax())
                res = optimise(row, shared)
                value = res.value if optimise is maximize else -res.value
                assert np.float64(value).tobytes() == values[best].tobytes()
                assert np.shares_memory(res.maximizer, row.vertices[best])


class _UnlistedRow:
    """A row-like object of no supported row kind."""

    dim = 2


class _NamedIntervalRow(IntervalRow):
    """A subclass of a supported row kind."""


class TestCallPathContract:
    """What callers may rely on from one ``maximize``/``minimize`` call."""

    @pytest.mark.parametrize("optimise", [maximize, minimize])
    def test_unsupported_row_type_raises_type_error(self, optimise):
        with pytest.raises(
            TypeError, match="^unsupported credal row type _UnlistedRow$"
        ):
            optimise(_UnlistedRow(), [1.0, 2.0])

    @pytest.mark.parametrize("optimise", [maximize, minimize])
    def test_row_subclass_uses_the_kernel_of_its_kind(self, optimise):
        row = _NamedIntervalRow(lower=E1_ROW.lower, upper=E1_ROW.upper)
        c = [0.25, -1.5]
        got, want = optimise(row, c), optimise(E1_ROW, c)
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert got.maximizer.tobytes() == want.maximizer.tobytes()
        assert got.iterations == want.iterations

    def test_result_fields_and_immutability(self):
        assert lp.LpResult._fields == ("value", "maximizer", "iterations")
        for row in (E1_ROW, VertexRow(vertices=[[0.2, 0.8]]),
                    interval_to_constraints(E1_ROW.lower, E1_ROW.upper)):
            for optimise in (maximize, minimize):
                res = optimise(row, [1.0, -1.0])
                assert type(res) is lp.LpResult
                assert isinstance(res.value, float)
                assert isinstance(res.iterations, int)
                for name in lp.LpResult._fields:
                    with pytest.raises(AttributeError):
                        setattr(res, name, None)
                with pytest.raises(AttributeError):
                    res.extra = 1

    def test_vertex_maximizer_is_a_read_only_view_of_a_vertex(self):
        row = VertexRow(vertices=[[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
        before = row.vertices.copy()
        for optimise in (maximize, minimize):
            for c in ([1.0, 0.0], [0.0, 1.0], [3.0, 3.0]):
                p = optimise(row, c).maximizer
                assert any(p.tobytes() == v.tobytes() for v in row.vertices)
                assert np.shares_memory(p, row.vertices)
                assert not p.flags.writeable
                with pytest.raises(ValueError):
                    p[0] = 7.0
                assert row.vertices.tobytes() == before.tobytes()

    def test_counter_counts_every_call_exactly(self):
        rows = [E1_ROW, VertexRow(vertices=[[0.2, 0.8], [0.6, 0.4]]),
                interval_to_constraints(E1_ROW.lower, E1_ROW.upper)]
        counter = LpCounter()
        shared = lp.Objective.checked([1.0, -1.0])
        for k in range(1, 6):
            for row in rows:
                maximize(row, shared, counter)
                minimize(row, [0.5, k], counter)
                maximize(row, [k, 0.0])  # no counter: not counted
        assert counter.calls == 5 * len(rows) * 2
        # A failed call is still one attempted row optimisation.
        with pytest.raises(TypeError):
            maximize(_UnlistedRow(), [1.0, 2.0], counter)
        assert counter.calls == 5 * len(rows) * 2 + 1
        assert repr(counter) == f"LpCounter(calls={counter.calls})"


class TestIllConditionedRows:
    """Near-degenerate interval rows and badly scaled constraint rows: the
    maximizers stay in the row, and the results equal the references of
    ``tests/helpers.py`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_interval_rows_with_lower_mass_near_one(self, data):
        d = data.draw(st.integers(1, 8))
        weights = data.draw(
            st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                     min_size=d, max_size=d).filter(any)
        )
        excess = data.draw(st.floats(-1e-9, 1e-9))
        lower = np.array(weights) / sum(weights) * (1.0 + excess)
        assert abs(float(lower.sum()) - 1.0) <= 1e-9 + 1e-15
        gap = data.draw(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                     min_size=d, max_size=d)
        )
        gap[data.draw(st.integers(0, d - 1))] = 0.0  # some zero headroom
        upper = lower + np.array(gap)
        c = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d))
        _assert_matches_reference_greedy(lower, upper, c)
        row = IntervalRow(lower=lower, upper=upper)
        for optimise in (maximize, minimize):
            try:
                res = optimise(row, c)
            except InfeasibleRowError:
                continue
            assert row_contains(row, res.maximizer)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_constraint_rows_scaled_by_1e_12_to_1e12(self, data):
        d = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 5))
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
        inside = np.array(weights) / sum(weights)
        a = np.array(
            data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m * d, max_size=m * d))
        ).reshape(m, d)
        # A strict margin around a known pmf keeps the row nonempty whatever
        # the scale of each inequality.
        margins = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
        b = a @ inside + np.array(margins)
        exponents = data.draw(st.lists(st.floats(-12.0, 12.0), min_size=m, max_size=m))
        scales = 10.0 ** np.array(exponents)
        c = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
        scaled_a, scaled_b = a * scales[:, None], b * scales
        _assert_matches_reference_simplex(scaled_a, scaled_b, c)
        row = ConstraintRow(a=scaled_a, b=scaled_b)
        unscaled = ConstraintRow(a=a, b=b)
        for optimise in (maximize, minimize):
            res = optimise(row, c)
            assert row_contains(row, res.maximizer)
            assert row_contains(unscaled, res.maximizer)
            # The units of an inequality do not move the bound.
            assert res.value == pytest.approx(optimise(unscaled, c).value, abs=1e-9)
