import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from credalmc import (
    ConstraintRow,
    ImpreciseMarkovChain,
    IntervalRow,
    StateSpace,
    VertexRow,
    row_contains,
    validate_model,
)
from credalmc.core import EPS_PROB
from helpers import (
    e1_model,
    expectation,
    interval_witness,
    is_pmf,
    random_model,
    random_pmf,
)

rng = np.random.default_rng(1001)


class TestStateSpace:
    def test_basic(self):
        space = StateSpace(("a", "b", "c"))
        assert space.size == 3
        assert len(space) == 3
        assert space.index("b") == 1
        assert list(space.indicator(["a", "c"])) == [1.0, 0.0, 1.0]

    def test_single_state_allowed(self):
        assert StateSpace(("only",)).size == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(())

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            StateSpace(("a",)).index("b")


class TestValidation:
    def test_e1_is_valid(self):
        assert validate_model(e1_model()) == []

    def test_interval_lower_sum_exceeds_one(self):
        bad = IntervalRow(lower=[0.6, 0.6], upper=[0.7, 0.7])
        model = ImpreciseMarkovChain(
            states=StateSpace(("s0", "s1")),
            initial=IntervalRow(lower=[0.0, 0.0], upper=[1.0, 1.0]),
            rows=(bad, IntervalRow(lower=[0.4, 0.4], upper=[0.6, 0.6])),
        )
        violations = validate_model(model)
        assert len(violations) == 1
        assert "sum of lower bounds exceeds 1" in violations[0]
        assert "s0" in violations[0]

    def test_vertex_not_normalised(self):
        bad = VertexRow(vertices=[[0.5, 0.6]])
        model = ImpreciseMarkovChain(
            states=StateSpace(("s0", "s1")),
            initial=VertexRow(vertices=[[0.5, 0.5]]),
            rows=(bad, VertexRow(vertices=[[1.0, 0.0]])),
        )
        violations = validate_model(model)
        assert len(violations) == 1
        assert "does not sum to 1" in violations[0]

    def test_dimension_mismatch_reported(self):
        model = ImpreciseMarkovChain(
            states=StateSpace(("s0", "s1")),
            initial=VertexRow(vertices=[[0.5, 0.5]]),
            rows=(
                IntervalRow(lower=[0.2, 0.2, 0.2], upper=[0.5, 0.5, 0.5]),
                VertexRow(vertices=[[1.0, 0.0]]),
            ),
        )
        assert any("dimension" in v for v in validate_model(model))

    def test_row_count_mismatch_reported(self):
        model = ImpreciseMarkovChain(
            states=StateSpace(("s0", "s1")),
            initial=VertexRow(vertices=[[0.5, 0.5]]),
            rows=(VertexRow(vertices=[[1.0, 0.0]]),),
        )
        assert any("transition rows" in v for v in validate_model(model))

    def test_infeasible_constraint_row_reported(self):
        bad = ConstraintRow(a=[[1.0, 0.0], [-1.0, 0.0]], b=[0.2, -0.5])
        model = ImpreciseMarkovChain(
            states=StateSpace(("s0", "s1")),
            initial=VertexRow(vertices=[[0.5, 0.5]]),
            rows=(bad, VertexRow(vertices=[[1.0, 0.0]])),
        )
        assert any("no pmf" in v for v in validate_model(model))

    def test_unsupported_row_type_reported(self):
        model = ImpreciseMarkovChain(
            states=StateSpace(("s0", "s1")),
            initial=IntervalRow(lower=[0.0, 0.0], upper=[1.0, 1.0]),
            rows=(object(), IntervalRow(lower=[0.0, 0.0], upper=[1.0, 1.0])),
        )
        assert validate_model(model) == ["row 's0': unsupported row type object"]

    def test_every_valid_row_has_a_witness(self):
        # Constructive nonemptiness across representations.
        for trial in range(30):
            model = random_model(rng, d=int(rng.integers(2, 5)))
            assert validate_model(model) == []
            for row in (*model.rows, model.initial):
                if isinstance(row, IntervalRow):
                    assert is_pmf(interval_witness(row))
                    assert row_contains(row, interval_witness(row))
                elif isinstance(row, VertexRow):
                    assert all(is_pmf(v) for v in row.vertices)
                else:
                    assert row.feasible


class TestExpectation:
    def test_uniform_average(self):
        assert expectation([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.5)

    def test_point_mass(self):
        assert expectation([1.0, 0.0], [3.0, 7.0]) == pytest.approx(3.0)

    def test_constant_gamble(self):
        assert expectation([0.2, 0.8], [1.0, 1.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation([0.5, 0.5], [1.0, 2.0, 3.0])

    def test_all_ones_gamble_has_unit_expectation(self):
        for _ in range(50):
            d = int(rng.integers(1, 6))
            p = random_pmf(rng, d)
            assert expectation(p, np.ones(d)) == pytest.approx(1.0, abs=1e-12)

    @given(
        f=st.lists(st.floats(-10, 10), min_size=2, max_size=5),
        g=st.lists(st.floats(-10, 10), min_size=2, max_size=5),
        alpha=st.floats(-5, 5),
        beta=st.floats(-5, 5),
    )
    def test_linearity(self, f, g, alpha, beta):
        d = min(len(f), len(g))
        f, g = np.array(f[:d]), np.array(g[:d])
        p = np.full(d, 1.0 / d)
        combo = expectation(p, alpha * f + beta * g)
        split = alpha * expectation(p, f) + beta * expectation(p, g)
        assert combo == pytest.approx(split, abs=1e-9)


class TestImmutability:
    def test_arrays_are_read_only(self):
        model = e1_model()
        with pytest.raises(ValueError):
            model.rows[0].lower[0] = 0.0
        with pytest.raises(ValueError):
            VertexRow(vertices=[[0.5, 0.5]]).vertices[0, 0] = 0.1


class TestStackedRows:
    def test_rows_are_views_of_shared_frozen_arrays(self):
        rows = IntervalRow.stack([[0.2, 0.3], [0.1, 0.1]], [[0.7, 0.8], [0.9, 0.9]])
        assert rows[0].lower.base is rows[1].lower.base
        assert rows[0].supply.base is rows[1].supply.base
        vertex_rows = VertexRow.stack([[[1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]])
        assert vertex_rows[0].vertices.base is vertex_rows[1].vertices.base
        assert [row.vertices.shape for row in vertex_rows] == [(1, 2), (2, 2)]
        for row in rows:
            for arr in (row.lower, row.upper, row.supply):
                assert not arr.flags.writeable
        assert not vertex_rows[1].vertices.flags.writeable

    def test_stack_rejects_bad_arrays(self):
        with pytest.raises(ValueError, match="shapes"):
            IntervalRow.stack([[0.5, 0.5]], [[1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            IntervalRow.stack([[0.5, np.nan]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="nonempty"):
            VertexRow.stack([[[1.0, 0.0]], []])
        with pytest.raises(ValueError, match="non-finite"):
            VertexRow.stack([[[np.inf, 0.0]]])

    def test_stacked_rows_break_the_rules_of_rows_built_alone(self):
        # Each rule's threshold is 0 or 1 give or take EPS_PROB; the values
        # land on both sides of it, and some sums leave float range.
        shifts = [s * e for s in (-1, 1)
                  for e in (EPS_PROB, np.nextafter(EPS_PROB, 0), 2 * EPS_PROB)]
        edges = [t + shift for t in (0.0, 1.0) for shift in shifts]
        bounds = [([0.2, 0.3], [0.7, 0.8]),
                  ([0.0, 0.0], [1e308, 1e308]), ([1e308, 1e308], [1e308, 1e308]),
                  ([-0.1, 0.9], [1.5, -1.0])]
        for x in edges:
            bounds += [([x, 0.0], [1.0, 1.0]),   # negative lower, lower sum
                       ([0.0, 0.0], [x, 0.0]),   # upper above 1, upper sum
                       ([x, 0.0], [0.0, 1.0])]   # lower exceeds upper
        lower, upper = zip(*bounds)
        stacked = IntervalRow.stack(lower, upper)
        alone = [IntervalRow(lo, up) for lo, up in bounds]
        found = [row.violations for row in stacked]
        assert found == [row.violations for row in alone]
        rules = {message.split(" (")[0] for messages in found for message in messages}
        assert rules == {"negative lower bound", "upper bound above 1",
                         "lower bound exceeds upper bound",
                         "sum of lower bounds exceeds 1",
                         "sum of upper bounds is below 1"}
        assert () in found

        vertex_lists = [[[0.5, 0.5]], [[1e308, 1e308]], [[1.5, -0.5], [0.3, 0.3]]]
        for x in edges:
            vertex_lists += [[[x, 0.0]], [[0.5, 0.5], [x, 1.0]], [[x, 1.0 - x]]]
        stacked = VertexRow.stack(vertex_lists)
        alone = [VertexRow(vertices) for vertices in vertex_lists]
        found = [row.violations for row in stacked]
        assert found == [row.violations for row in alone]
        rules = {message.split(" ", 2)[2].split(" (")[0]
                 for messages in found for message in messages}
        assert rules == {"has entries outside [0, 1]", "does not sum to 1"}
        assert () in found

    def test_sums_beyond_float_range_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = IntervalRow(lower=[0.0, 0.0], upper=[1.0, 1.0])
            assert row_contains(row, [1e308, 1e308]) is False

    def test_sums_of_both_infinities_warn_nothing(self):
        # Over 32 entries numpy's pairwise sum adds +inf to -inf: NaN, which
        # fails every rule; each such row breaks another rule as well.
        both = [1e308, -1e308] * 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            box = IntervalRow(lower=[0.0] * 32, upper=[1.0] * 32)
            assert row_contains(box, both) is False
            rows = [IntervalRow([0.0] * 32, both), IntervalRow(both, [1e308] * 32),
                    *IntervalRow.stack([[0.0] * 32, both], [both, [1e308] * 32]),
                    VertexRow([both]), *VertexRow.stack([[both], [both]])]
        assert [row.violations for row in rows] == 2 * [
            ("upper bound above 1", "lower bound exceeds upper bound"),
            ("negative lower bound", "upper bound above 1"),
        ] + 3 * [("vertex 0 has entries outside [0, 1]",)]
        assert not any(row.feasible for row in rows)
