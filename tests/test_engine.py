import warnings

import numpy as np
import pytest

from credalmc import (
    BoundsResult,
    ImpreciseMarkovChain,
    IntervalRow,
    LpCounter,
    NumericalError,
    RecursiveSpec,
    StateSpace,
    VertexRow,
    conditional_bounds,
    infer,
    materialize_path_function,
    naive_conditional_bounds,
    spec_hitting_probability,
    spec_single_instant,
    spec_time_average,
    unconditional_bounds,
    validate_model,
)
from credalmc import lp
from credalmc.engine import SANDWICH_TOL, recursion_step
from helpers import (
    E1_SPACE,
    e1_model,
    iterate_lower,
    iterate_upper,
    random_gamble,
    random_model,
    random_spec,
    singleton_model,
)

rng = np.random.default_rng(4004)


def hitting_spec_n2():
    return spec_hitting_probability(E1_SPACE, ["s1"], 2)


class TestRecursiveSpec:
    def test_horizon(self):
        spec = random_spec(rng, 3, max_horizon=4, min_horizon=4)
        assert spec.horizon == 4
        assert len(spec.steps) == 3

    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            RecursiveSpec(g0=[1.0, 2.0], steps=(([1.0], [0.0]),))


class TestConditionalBounds:
    def test_trivial_horizon_returns_seed(self):
        g0 = np.array([3.0, -1.0])
        upper, lower = conditional_bounds(e1_model(), RecursiveSpec(g0=g0))
        assert np.array_equal(upper, g0)
        assert np.array_equal(lower, g0)
        # Two new writable arrays, neither shared with the other nor with g0.
        assert upper.flags.writeable and lower.flags.writeable
        assert not np.shares_memory(upper, lower)
        assert not np.shares_memory(upper, g0) and not np.shares_memory(lower, g0)

    def test_hitting_probability_two_steps(self):
        upper, lower = conditional_bounds(e1_model(), hitting_spec_n2())
        assert upper == pytest.approx([0.3, 1.0], abs=1e-12)
        assert lower == pytest.approx([0.1, 1.0], abs=1e-12)

    def test_identity_steps_reduce_to_iterates(self):
        for _ in range(15):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            model = random_model(rng, d)
            f = random_gamble(rng, d)
            spec = RecursiveSpec(
                g0=f, steps=((np.ones(d), np.zeros(d)),) * (n - 1)
            )
            upper, lower = conditional_bounds(model, spec)
            assert upper == pytest.approx(iterate_upper(model, f, n - 1), abs=1e-12)
            assert lower == pytest.approx(iterate_lower(model, f, n - 1), abs=1e-12)

    def test_sign_changing_weights_match_oracle(self):
        for _ in range(25):
            model = random_model(rng, 2)
            spec = random_spec(rng, 2, max_horizon=4)
            upper, lower = conditional_bounds(model, spec)
            ou, ol = naive_conditional_bounds(model, materialize_path_function(spec))
            assert upper == pytest.approx(ou, abs=1e-8)
            assert lower == pytest.approx(ol, abs=1e-8)

    def test_lp_call_count_is_exact(self):
        for d in (2, 3):
            for n in (1, 2, 4, 6):
                model = random_model(rng, d)
                spec = random_spec(rng, d, max_horizon=n, min_horizon=n)
                counter = LpCounter()
                conditional_bounds(model, spec, counter)
                assert counter.calls == 2 * (n - 1) * d

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conditional_bounds(e1_model(), RecursiveSpec(g0=[1.0, 2.0, 3.0]))

    def test_sandwich(self):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            spec = random_spec(rng, d)
            upper, lower = conditional_bounds(model, spec)
            assert np.all(lower <= upper + 1e-10)

    def test_bounds_lie_within_target_range(self):
        for _ in range(20):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            spec = random_spec(rng, d, max_horizon=4)
            upper, lower = conditional_bounds(model, spec)
            target = materialize_path_function(spec)
            assert np.all(target.min() - 1e-10 <= lower)
            assert np.all(upper <= target.max() + 1e-10)

    def test_one_state_space_is_scalar_identity(self):
        space = StateSpace(("only",))
        model = ImpreciseMarkovChain(
            states=space,
            initial=VertexRow(vertices=[[1.0]]),
            rows=(IntervalRow(lower=[1.0], upper=[1.0]),),
        )
        assert validate_model(model) == []
        spec = RecursiveSpec(
            g0=[2.5], steps=(([3.0], [-1.0]), ([-2.0], [0.5]))
        )
        result = infer(model, spec)
        # the recursion degenerates to plain scalar arithmetic
        value = 2.5
        value = 3.0 * value - 1.0
        value = -2.0 * value + 0.5
        assert result.upper == pytest.approx(value, abs=1e-12)
        assert result.lower == pytest.approx(value, abs=1e-12)

    def test_sandwich_is_equality_for_precise_chains(self):
        for _ in range(10):
            model, _, _ = singleton_model(rng, 3)
            spec = random_spec(rng, 3)
            upper, lower = conditional_bounds(model, spec)
            assert upper == pytest.approx(lower, abs=1e-12)

    def test_scaling_the_offsets_scales_the_bounds(self):
        # Nonnegative scaling of g0 and every g_k, with the weights h_k kept,
        # scales both conditional vectors.
        model = random_model(rng, 3)
        spec = random_spec(rng, 3, max_horizon=4, min_horizon=4)
        upper, lower = conditional_bounds(model, spec)
        for lam in (0.0, 0.5, 3.0):
            scaled = RecursiveSpec(
                g0=lam * spec.g0,
                steps=tuple((h, lam * g) for h, g in spec.steps),
            )
            su, sl = conditional_bounds(model, scaled)
            assert su == pytest.approx(lam * upper, abs=1e-10)
            assert sl == pytest.approx(lam * lower, abs=1e-10)

    def test_shifting_final_offset_shifts_the_bounds(self):
        model = random_model(rng, 3)
        spec = random_spec(rng, 3, max_horizon=4, min_horizon=2)
        upper, lower = conditional_bounds(model, spec)
        mu = 1.75
        h_last, g_last = spec.steps[-1]
        shifted = RecursiveSpec(
            g0=spec.g0, steps=spec.steps[:-1] + ((h_last, g_last + mu),)
        )
        su, sl = conditional_bounds(model, shifted)
        assert su == pytest.approx(upper + mu, abs=1e-10)
        assert sl == pytest.approx(lower + mu, abs=1e-10)

    def test_identity_padding_matches_iterated_operators(self):
        # Appending identity steps shifts the whole target one instant into
        # the future; the bounds respond by one more operator application,
        # independently of absolute time.
        model = random_model(rng, 2)
        spec = random_spec(rng, 2, max_horizon=3)
        upper, lower = conditional_bounds(model, spec)
        d = 2
        for pad in (1, 2):
            padded = RecursiveSpec(
                g0=spec.g0,
                steps=spec.steps + ((np.ones(d), np.zeros(d)),) * pad,
            )
            pu, pl = conditional_bounds(model, padded)
            assert np.array_equal(pu, iterate_upper(model, upper, pad))
            assert np.array_equal(pl, iterate_lower(model, lower, pad))


class TestRecursionStep:
    @pytest.mark.parametrize(
        "upper_next, lower_next",
        [([1e300, 1.0], [0.5, 1.0]), ([0.5, 1.0], [1e300, 1.0])],
        ids=["upper-track", "lower-track"],
    )
    def test_one_overflowing_track_raises_without_warning(self, upper_next, lower_next):
        h = np.array([1e300, 1.0])
        g = np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                recursion_step(h, g, np.array(upper_next), np.array(lower_next))


class TestUnconditionalBounds:
    def test_worked_model(self):
        upper, _ = unconditional_bounds(e1_model(), [0.3, 1.0], [0.1, 1.0])
        assert upper == pytest.approx(0.65, abs=1e-12)

    def test_point_mass_initial_reads_off_the_state(self):
        model = e1_model(initial=VertexRow(vertices=[[1.0, 0.0]]))
        upper, lower = unconditional_bounds(model, [0.3, 1.0], [0.1, 1.0])
        assert upper == pytest.approx(0.3, abs=1e-12)
        assert lower == pytest.approx(0.1, abs=1e-12)

    def test_constant_vectors(self):
        upper, lower = unconditional_bounds(e1_model(), [2.5, 2.5], [2.5, 2.5])
        assert upper == pytest.approx(2.5, abs=1e-12)
        assert lower == pytest.approx(2.5, abs=1e-12)

    def test_objectives_are_only_length_checked(self):
        upper = lp.Objective.checked([0.3, 1.0])
        lower = lp.Objective.checked([0.1, 1.0])
        assert unconditional_bounds(e1_model(), upper, lower) == (
            unconditional_bounds(e1_model(), [0.3, 1.0], [0.1, 1.0])
        )
        for name, args in (("upper", ([1.0, 2.0, 3.0], [0.1, 1.0])),
                           ("lower", ([0.3, 1.0], [1.0, 2.0, 3.0]))):
            for wrap in (list, lp.Objective.checked):
                with pytest.raises(
                    ValueError, match=f"^{name} conditional has length 3, expected 2$"
                ):
                    unconditional_bounds(e1_model(), *map(wrap, args))


class TestInfer:
    def test_worked_model_full_inference(self):
        result = infer(e1_model(), hitting_spec_n2())
        assert result.upper == pytest.approx(0.65, abs=1e-12)
        assert result.lower == pytest.approx(0.28, abs=1e-12)
        assert result.lp_calls == 6

    def test_no_steps_costs_two_calls(self):
        result = infer(e1_model(), RecursiveSpec(g0=[0.0, 1.0]))
        assert result.upper == pytest.approx(0.5, abs=1e-12)
        assert result.lower == pytest.approx(0.2, abs=1e-12)
        assert result.lp_calls == 2

    def test_conditional_vectors_are_not_checked_again(self, monkeypatch):
        # The initial-set step takes the checked conditional vectors as they
        # are; the result still holds them as writable arrays.
        model = random_model(np.random.default_rng(8), 4)
        spec = random_spec(np.random.default_rng(9), 4, min_horizon=3)
        upper, lower = conditional_bounds(model, spec)
        checks = []
        as_vector = lp.as_vector
        monkeypatch.setattr(
            lp, "as_vector", lambda *a, **k: checks.append(1) or as_vector(*a, **k)
        )
        result = infer(model, spec)
        assert checks == []
        assert result.upper_conditional.tobytes() == upper.tobytes()
        assert result.lower_conditional.tobytes() == lower.tobytes()
        assert result.upper_conditional.flags.writeable
        assert result.lower_conditional.flags.writeable

    def test_precise_chain_collapses(self):
        model, p0, t = singleton_model(rng, 3)
        spec = random_spec(rng, 3)
        result = infer(model, spec)
        assert result.upper == pytest.approx(result.lower, abs=1e-12)
        # forward computation on the unique compatible chain
        cond = spec.g0.copy()
        for h, g in spec.steps:
            cond = h * (t @ cond) + g
        assert result.upper == pytest.approx(float(p0 @ cond), abs=1e-10)

    def test_result_invariant_guard(self):
        with pytest.raises(NumericalError):
            BoundsResult(
                upper_conditional=np.array([0.0]),
                lower_conditional=np.array([0.0]),
                upper=0.0,
                lower=1.0,
                lp_calls=0,
            )


def precise_interval_model():
    """Two states whose rows and initial set are all the intervals
    [0.1, 0.2] x [0.1, 0.8], which hold the one pmf (0.2, 0.8)."""
    row = IntervalRow(lower=[0.1, 0.1], upper=[0.2, 0.8])
    return ImpreciseMarkovChain(
        states=StateSpace(("a", "b")), initial=row, rows=(row, row)
    )


class TestSandwichTolerance:
    """The lower bound may exceed the upper one by rounding alone, which
    grows with the size of the bounds and with the horizon."""

    def test_long_horizon_on_a_precise_chain(self):
        spec, scale = spec_time_average([1.0, 2.0], 10_000)
        result = infer(precise_interval_model(), spec)
        assert scale * result.upper == pytest.approx(1.8, abs=1e-11)
        assert scale * result.lower == pytest.approx(1.8, abs=1e-11)

    def test_large_gamble_on_a_precise_chain(self):
        spec = spec_single_instant([1e12, 1e12 + 0.125], 2)
        result = infer(precise_interval_model(), spec)
        assert result.lower_conditional == pytest.approx(
            result.upper_conditional, rel=1e-15
        )
        assert result.lower == pytest.approx(result.upper, rel=1e-15)

    @pytest.mark.parametrize("size", [0.0, 1.0, 1e12, -1e12])
    def test_a_crossing_beyond_the_relative_tolerance_raises(self, size):
        crossed = size + 2.0 * SANDWICH_TOL * max(1.0, abs(size))
        with pytest.raises(NumericalError, match="^lower bound"):
            BoundsResult(
                upper_conditional=np.array([size]),
                lower_conditional=np.array([size]),
                upper=size,
                lower=crossed,
                lp_calls=0,
            )
        with pytest.raises(NumericalError, match="^conditional lower bound"):
            BoundsResult(
                upper_conditional=np.array([0.0, size]),
                lower_conditional=np.array([0.0, crossed]),
                upper=size,
                lower=size,
                lp_calls=0,
            )
