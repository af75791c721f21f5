"""Builders that express standard inference families as recursive targets,
plus the growing-horizon approximation loop for unbounded-horizon hitting
inferences.

Builders cover functions of a single time instant, sums, time averages,
products, hitting probabilities and hitting times.  The hitting time follows
the recursion-consistent convention: it counts the steps strictly before the
first entry into the target set, is 0 when the chain starts inside the set,
and is capped at the horizon when the set is not reached within it.  The two
hitting families use the same step weights at every instant, so
``HITTING_FAMILIES`` maps each to its builder and ``limit_infer`` runs the
builder's one step repeatedly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ImpreciseMarkovChain, StateSpace, as_vector
from .engine import BoundsResult, RecursiveSpec, recursion_step, unconditional_bounds
from .lp import LpCounter, Objective
from .operators import lower_transition, upper_transition


@dataclass(frozen=True)
class LimitResult(BoundsResult):
    """The bounds at the last horizon reached, plus the per-horizon traces."""

    horizon_reached: int
    converged: bool
    upper_trace: tuple[float, ...]
    lower_trace: tuple[float, ...]


def spec_single_instant(f, n: int) -> RecursiveSpec:
    """Target f(X_n): the bound vectors are the (n-1)-fold operator iterates of f."""
    f = as_vector(f, name="gamble")
    if n < 1:
        raise ValueError("horizon must be at least 1")
    ones = np.ones(f.size)
    zeros = np.zeros(f.size)
    return RecursiveSpec(g0=f, steps=((ones, zeros),) * (n - 1))


def spec_sum(fs) -> RecursiveSpec:
    """Target sum of f_k(X_k) over k = 1..n for the given list of gambles."""
    fs = [as_vector(f, name="gamble") for f in fs]
    if not fs:
        raise ValueError("need at least one gamble")
    d = fs[0].size
    ones = np.ones(d)
    # The seed holds the last gamble; each step folds in the one before it.
    return RecursiveSpec(g0=fs[-1], steps=tuple((ones, f) for f in fs[-2::-1]))


def spec_time_average(f, n: int) -> tuple[RecursiveSpec, float]:
    """Target (1/n) * sum of f(X_k): a sum target plus a scale to apply to
    all four resulting bounds (bounds scale linearly under nonnegative
    factors)."""
    f = as_vector(f, name="gamble")
    if n < 1:
        raise ValueError("horizon must be at least 1")
    return spec_sum([f] * n), 1.0 / n


def spec_product(fs) -> RecursiveSpec:
    """Target product of f_k(X_k) over k = 1..n.

    Sign-changing factors are handled by the two-track recursion, so the
    gambles may take negative values.
    """
    fs = [as_vector(f, name="gamble") for f in fs]
    if not fs:
        raise ValueError("need at least one gamble")
    zeros = np.zeros(fs[0].size)
    return RecursiveSpec(g0=fs[-1], steps=tuple((f, zeros) for f in fs[-2::-1]))


def spec_hitting_probability(space: StateSpace, targets, n: int) -> RecursiveSpec:
    """Target: indicator that at least one of the first n states lies in the
    target set."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    inside = space.indicator(targets)
    outside = 1.0 - inside
    return RecursiveSpec(g0=inside, steps=((outside, inside),) * (n - 1))


def spec_hitting_time(space: StateSpace, targets, n: int) -> RecursiveSpec:
    """Target: number of steps before the first entry into the target set,
    0 when starting inside it, capped at n when unhit within the horizon."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    inside = space.indicator(targets)
    if not inside.any():
        warnings.warn(
            "hitting time of an empty target set grows linearly with the horizon",
            stacklevel=2,
        )
    outside = 1.0 - inside
    return RecursiveSpec(g0=outside, steps=((outside, outside),) * (n - 1))


HITTING_FAMILIES = {
    "hitting_probability": spec_hitting_probability,
    "hitting_time": spec_hitting_time,
}


def limit_infer(
    model: ImpreciseMarkovChain,
    family: str,
    targets,
    tol: float = 1e-6,
    max_horizon: int = 100_000,
) -> LimitResult:
    """Approximate an unbounded-horizon hitting inference by growing the horizon.

    Runs the recursion incrementally, one extra time instant per horizon
    (two operator applications plus two initial-set optimisations each), and
    stops once both unconditional bounds move by less than ``tol`` between
    consecutive horizons.  The per-horizon conditional vectors coincide
    bit-for-bit with a fresh fixed-horizon computation, since the hitting
    families use the same step weights at every instant.
    """
    if family not in HITTING_FAMILIES:
        raise ValueError(
            f"family must be one of {tuple(HITTING_FAMILIES)}, got {family!r}"
        )
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be a finite positive number")
    if max_horizon < 2:
        raise ValueError("max_horizon must be at least 2")
    spec = HITTING_FAMILIES[family](model.states, targets, 2)
    (h, g), = spec.steps

    counter = LpCounter()
    # Each track vector is wrapped once and shared by the initial-set step
    # and the next transition.  ``spec.g0`` passed ``as_vector`` and
    # ``recursion_step`` checks its output, so no wrap needs a check.
    upper_cond = spec.g0.copy()
    lower_cond = spec.g0.copy()
    upper_track, lower_track = Objective(upper_cond), Objective(lower_cond)
    upper, lower = unconditional_bounds(model, upper_track, lower_track, counter)
    upper_trace = [upper]
    lower_trace = [lower]
    converged = False
    horizon = 1
    while horizon < max_horizon:
        horizon += 1
        upper_next = upper_transition(model, upper_track, counter)
        lower_next = lower_transition(model, lower_track, counter)
        upper_cond, lower_cond = recursion_step(h, g, upper_next, lower_next)
        upper_track, lower_track = Objective(upper_cond), Objective(lower_cond)
        upper, lower = unconditional_bounds(model, upper_track, lower_track, counter)
        upper_trace.append(upper)
        lower_trace.append(lower)
        if (
            abs(upper_trace[-1] - upper_trace[-2]) < tol
            and abs(lower_trace[-1] - lower_trace[-2]) < tol
        ):
            converged = True
            break
    return LimitResult(
        upper=upper_trace[-1],
        lower=lower_trace[-1],
        upper_conditional=upper_cond,
        lower_conditional=lower_cond,
        horizon_reached=horizon,
        converged=converged,
        upper_trace=tuple(upper_trace),
        lower_trace=tuple(lower_trace),
        lp_calls=counter.calls,
    )
