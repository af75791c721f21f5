import math

import numpy as np
import pytest

from credalmc import (
    ImpreciseMarkovChain,
    LimitResult,
    NumericalError,
    StateSpace,
    VertexRow,
    conditional_bounds,
    infer,
    limit_infer,
    materialize_path_function,
    naive_conditional_bounds,
    spec_hitting_probability,
    spec_hitting_time,
    spec_product,
    spec_single_instant,
    spec_sum,
    spec_time_average,
)
from credalmc import lp
from credalmc.inferences import HITTING_FAMILIES
from helpers import E1_SPACE, e1_model, iterate_upper, random_gamble, random_model

rng = np.random.default_rng(5005)

F01 = np.array([0.0, 1.0])


def assert_same_bounds(a, b):
    assert np.array_equal(a.upper_conditional, b.upper_conditional)
    assert np.array_equal(a.lower_conditional, b.lower_conditional)
    assert a.upper == b.upper and a.lower == b.lower
    assert a.lp_calls == b.lp_calls


class TestSingleInstant:
    def test_horizon_one_has_no_steps(self):
        spec = spec_single_instant(F01, 1)
        assert spec.steps == ()
        assert np.array_equal(spec.g0, F01)

    def test_three_instants_equal_iterated_operator(self):
        model = e1_model()
        upper, _ = conditional_bounds(model, spec_single_instant(F01, 3))
        assert upper == pytest.approx(iterate_upper(model, F01, 2), abs=1e-12)
        assert upper == pytest.approx([0.39, 0.48], abs=1e-12)

    def test_constant_gamble(self):
        model = e1_model()
        for n in (1, 2, 4):
            upper, lower = conditional_bounds(
                model, spec_single_instant([3.5, 3.5], n)
            )
            assert upper == pytest.approx([3.5, 3.5], abs=1e-12)
            assert lower == pytest.approx([3.5, 3.5], abs=1e-12)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            spec_single_instant(F01, 0)


class TestSum:
    def test_single_summand_equals_single_instant(self):
        model = e1_model()
        a = infer(model, spec_sum([F01]))
        b = infer(model, spec_single_instant(F01, 1))
        assert_same_bounds(a, b)

    def test_two_summands(self):
        upper, _ = conditional_bounds(e1_model(), spec_sum([F01, F01]))
        assert upper == pytest.approx([0.3, 1.6], abs=1e-12)

    def test_constant_summands_add(self):
        upper, lower = conditional_bounds(
            e1_model(), spec_sum([[1.5, 1.5], [-0.25, -0.25]])
        )
        assert upper == pytest.approx([1.25, 1.25], abs=1e-12)
        assert lower == pytest.approx([1.25, 1.25], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spec_sum([])


class TestTimeAverage:
    def test_halves_the_two_step_sum(self):
        spec, scale = spec_time_average(F01, 2)
        upper, _ = conditional_bounds(e1_model(), spec)
        assert scale == 0.5
        assert scale * upper == pytest.approx([0.15, 0.8], abs=1e-12)

    def test_single_step_is_identity(self):
        spec, scale = spec_time_average(F01, 1)
        assert scale == 1.0
        assert spec.steps == ()

    def test_constant_average(self):
        spec, scale = spec_time_average([2.0, 2.0], 3)
        result = infer(e1_model(), spec)
        assert scale * result.upper == pytest.approx(2.0, abs=1e-12)
        assert scale * result.lower == pytest.approx(2.0, abs=1e-12)


class TestProduct:
    def test_stay_probability_two_steps(self):
        # Upper probability that both of the first two states are s0; from
        # s1 the first factor is already 0.
        ind_s0 = np.array([1.0, 0.0])
        upper, _ = conditional_bounds(e1_model(), spec_product([ind_s0, ind_s0]))
        assert upper == pytest.approx([0.9, 0.0], abs=1e-12)

    def test_single_factor_equals_single_instant(self):
        model = e1_model()
        a = infer(model, spec_product([F01]))
        b = infer(model, spec_single_instant(F01, 1))
        assert_same_bounds(a, b)

    def test_negative_factors_match_oracle(self):
        for _ in range(20):
            model = random_model(rng, 2)
            fs = [random_gamble(rng, 2) for _ in range(int(rng.integers(1, 5)))]
            spec = spec_product(fs)
            upper, lower = conditional_bounds(model, spec)
            ou, ol = naive_conditional_bounds(model, materialize_path_function(spec))
            assert upper == pytest.approx(ou, abs=1e-8)
            assert lower == pytest.approx(ol, abs=1e-8)


class TestHittingProbability:
    def test_worked_model_two_steps(self):
        upper, lower = conditional_bounds(
            e1_model(), spec_hitting_probability(E1_SPACE, ["s1"], 2)
        )
        assert upper == pytest.approx([0.3, 1.0], abs=1e-12)
        assert lower == pytest.approx([0.1, 1.0], abs=1e-12)

    def test_full_target_hits_immediately(self):
        for n in (1, 3):
            upper, lower = conditional_bounds(
                e1_model(), spec_hitting_probability(E1_SPACE, ["s0", "s1"], n)
            )
            assert upper == pytest.approx([1.0, 1.0], abs=1e-12)
            assert lower == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_empty_target_never_hits(self):
        upper, lower = conditional_bounds(
            e1_model(), spec_hitting_probability(E1_SPACE, [], 3)
        )
        assert upper == pytest.approx([0.0, 0.0], abs=1e-12)
        assert lower == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_monotone_in_horizon_and_within_unit_interval(self):
        for _ in range(15):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            targets = [f"s{i}" for i in range(d) if rng.random() < 0.5]
            prev_upper = np.zeros(d)
            prev_lower = np.zeros(d)
            for n in range(1, 6):
                spec = spec_hitting_probability(model.states, targets, n)
                upper, lower = conditional_bounds(model, spec)
                assert np.all(upper >= prev_upper - 1e-12)
                assert np.all(lower >= prev_lower - 1e-12)
                assert np.all(upper <= 1.0 + 1e-12) and np.all(lower >= -1e-12)
                prev_upper, prev_lower = upper, lower


class TestHittingTime:
    def test_worked_model_two_steps(self):
        _, lower = conditional_bounds(
            e1_model(), spec_hitting_time(E1_SPACE, ["s1"], 2)
        )
        assert lower == pytest.approx([1.7, 0.0], abs=1e-12)

    def test_zero_on_target_states_for_every_horizon(self):
        for n in range(1, 6):
            upper, lower = conditional_bounds(
                e1_model(), spec_hitting_time(E1_SPACE, ["s1"], n)
            )
            assert upper[1] == pytest.approx(0.0, abs=1e-12)
            assert lower[1] == pytest.approx(0.0, abs=1e-12)

    def test_full_target_gives_zero(self):
        upper, lower = conditional_bounds(
            e1_model(), spec_hitting_time(E1_SPACE, ["s0", "s1"], 4)
        )
        assert upper == pytest.approx([0.0, 0.0], abs=1e-12)
        assert lower == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_empty_target_warns(self):
        with pytest.warns(UserWarning, match="empty target"):
            spec_hitting_time(E1_SPACE, [], 2)

    def test_bounded_by_horizon_and_monotone(self):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            targets = [f"s{int(rng.integers(d))}"]
            prev = np.zeros(d)
            for n in range(1, 6):
                upper, _ = conditional_bounds(
                    model, spec_hitting_time(model.states, targets, n)
                )
                assert np.all(upper <= n + 1e-10)
                assert np.all(upper >= prev - 1e-12)
                prev = upper


class TestComplementIdentity:
    def test_hit_within_n_is_one_minus_stay_out_for_n(self):
        for _ in range(20):
            d = int(rng.integers(2, 4))
            model = random_model(rng, d)
            targets = [f"s{i}" for i in range(d) if rng.random() < 0.5]
            n = int(rng.integers(1, 6))
            outside = 1.0 - model.states.indicator(targets)
            hit_upper, _ = conditional_bounds(
                model, spec_hitting_probability(model.states, targets, n)
            )
            _, stay_lower = conditional_bounds(
                model, spec_product([outside] * n)
            )
            assert hit_upper == pytest.approx(1.0 - stay_lower, abs=1e-10)


class TestLimitInfer:
    def test_worked_model_converges_to_one(self):
        result = limit_infer(e1_model(), "hitting_probability", ["s1"], tol=1e-9)
        assert result.converged
        assert result.horizon_reached < 500
        assert result.upper == pytest.approx(1.0, abs=1e-6)
        assert result.lower == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(result.upper_trace) >= -1e-15)
        assert np.all(np.diff(result.lower_trace) >= -1e-15)
        assert len(result.upper_trace) == result.horizon_reached

    def test_trace_matches_hand_iterated_recursion(self):
        # Conditional values at s0 obey u <- 0.3 + 0.7 u (upper) and
        # l <- 0.1 + 0.9 l (lower); the unconditional values then optimise
        # the initial mass on s1 inside [0.2, 0.5].
        result = limit_infer(
            e1_model(), "hitting_probability", ["s1"], tol=1e-6, max_horizon=50
        )
        u = l = 0.0
        for k, (tu, tl) in enumerate(zip(result.upper_trace, result.lower_trace)):
            if k > 0:
                u = 0.3 + 0.7 * u
                l = 0.1 + 0.9 * l
            assert tu == pytest.approx(0.5 * u + 0.5, abs=1e-12)
            assert tl == pytest.approx(0.8 * l + 0.2, abs=1e-12)

    def test_full_target_converges_at_horizon_two(self):
        result = limit_infer(e1_model(), "hitting_probability", ["s0", "s1"], tol=1e-9)
        assert result.converged
        assert result.horizon_reached == 2
        assert result.upper == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_target_diverges_linearly(self):
        # The row of s0 forbids entering s1 outright, so from s0 the hitting
        # time grows by one per horizon and never settles.
        space = StateSpace(("s0", "s1"))
        model = ImpreciseMarkovChain(
            states=space,
            initial=VertexRow(vertices=[[1.0, 0.0]]),
            rows=(
                VertexRow(vertices=[[1.0, 0.0]]),
                VertexRow(vertices=[[0.0, 1.0]]),
            ),
        )
        result = limit_infer(
            model, "hitting_time", ["s1"], tol=1e-9, max_horizon=40
        )
        assert not result.converged
        assert result.horizon_reached == 40
        assert list(result.upper_trace) == pytest.approx(
            [float(n) for n in range(1, 41)], abs=1e-12
        )

    def test_incremental_matches_fresh_recursion_bitwise(self):
        # Bit for bit, the sign of zero included, at every horizon and for
        # both families.
        model = e1_model()
        for family, build in HITTING_FAMILIES.items():
            for max_horizon in range(2, 8):
                result = limit_infer(
                    model, family, ["s1"], tol=1e-12, max_horizon=max_horizon
                )
                n = result.horizon_reached
                assert n == max_horizon
                upper, lower = conditional_bounds(model, build(E1_SPACE, ["s1"], n))
                assert result.upper_conditional.tobytes() == upper.tobytes()
                assert result.lower_conditional.tobytes() == lower.tobytes()

    def test_lp_call_accounting(self):
        result = limit_infer(
            e1_model(), "hitting_probability", ["s1"], tol=1e-12, max_horizon=9
        )
        n = result.horizon_reached
        assert result.lp_calls == 2 * 2 * (n - 1) + 2 * n

    @pytest.mark.parametrize("family", ["hitting_probability", "hitting_time"])
    def test_track_vectors_are_not_checked_again(self, monkeypatch, family):
        # Each track vector is wrapped once and shared by the initial-set
        # step and the next transition; no row or operator checks it again.
        model = random_model(np.random.default_rng(8), 4)
        checks = []
        as_vector = lp.as_vector
        monkeypatch.setattr(
            lp, "as_vector", lambda *a, **k: checks.append(1) or as_vector(*a, **k)
        )
        result = limit_infer(model, family, ["s0"], tol=1e-12, max_horizon=12)
        assert result.horizon_reached > 2
        conditional_bounds(model, HITTING_FAMILIES[family](model.states, ["s0"], 12))
        assert checks == []

    def test_empty_target_hitting_time_warns(self):
        # The builder's warning: with no target the hitting time never settles.
        with pytest.warns(UserWarning, match="grows linearly"):
            limit_infer(e1_model(), "hitting_time", [], max_horizon=3)

    def test_result_rejects_lower_above_upper(self):
        with pytest.raises(NumericalError):
            LimitResult(
                upper_conditional=np.zeros(2),
                lower_conditional=np.zeros(2),
                upper=0.0,
                lower=1.0,
                lp_calls=0,
                horizon_reached=1,
                converged=False,
                upper_trace=(0.0,),
                lower_trace=(1.0,),
            )

    def test_argument_validation(self):
        model = e1_model()
        with pytest.raises(ValueError):
            limit_infer(model, "time_average", ["s1"])
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                limit_infer(model, "hitting_probability", ["s1"], tol=tol)
        with pytest.raises(ValueError):
            limit_infer(model, "hitting_probability", ["s1"], max_horizon=1)

    @pytest.mark.parametrize("max_horizon", [2.5, 3.0, True, math.inf])
    def test_max_horizon_must_be_an_integer(self, max_horizon):
        with pytest.raises(ValueError, match="max_horizon"):
            limit_infer(
                e1_model(), "hitting_probability", ["s1"], max_horizon=max_horizon
            )

    @pytest.mark.parametrize(
        "max_horizon, reached", [(np.int64(9), 9), (10**30, 110)], ids=["numpy", "huge"]
    )
    def test_max_horizon_takes_any_integer_type_and_size(self, max_horizon, reached):
        result = limit_infer(
            e1_model(), "hitting_probability", ["s1"], tol=1e-6, max_horizon=max_horizon
        )
        assert result.horizon_reached == reached
