"""Builders that express standard inference families as recursive targets,
and the unbounded-horizon hitting inference built on them.

Builders cover functions of a single time instant, sums, time averages,
products, hitting probabilities and hitting times.  The hitting time follows
the recursion-consistent convention: it counts the steps strictly before the
first entry into the target set, is 0 when the chain starts inside the set,
and is capped at the horizon when the set is not reached within it.  The two
hitting families use the same step weights at every instant, so
``HITTING_FAMILIES`` maps each to its builder and ``limit_infer`` hands the
builder's one step, repeated, to ``engine.tracks``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import ImpreciseMarkovChain, StateSpace, as_vector
from .engine import BoundsResult, RecursiveSpec, tracks, unconditional_bounds
from .lp import LpCounter

# Unused here; ``bench/tracing.py`` still patches these three names.
from .engine import lower_transition, recursion_step, upper_transition  # noqa: F401


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

    Runs the family's one step through ``engine.tracks`` for up to
    ``max_horizon`` (an integer >= 2) horizons, each costing two operator
    applications and two initial-set optimisations, and stops once both
    unconditional bounds move by less than ``tol`` between consecutive
    horizons.  The per-horizon conditional vectors coincide bit-for-bit with
    a fresh fixed-horizon computation: the steps are the same at every instant.
    """
    if family not in HITTING_FAMILIES:
        raise ValueError(
            f"family must be one of {tuple(HITTING_FAMILIES)}, got {family!r}"
        )
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be a finite positive number")
    integer = isinstance(max_horizon, Integral) and not isinstance(max_horizon, bool)
    if not integer or max_horizon < 2:
        raise ValueError("max_horizon must be an integer >= 2")
    spec = HITTING_FAMILIES[family](model.states, targets, 2)
    # ``range``, unlike ``itertools.repeat``, takes a count beyond sys.maxsize.
    steps = (spec.steps[0] for _ in range(max_horizon - 1))

    counter = LpCounter()
    upper_trace, lower_trace = [], []
    for upper_track, lower_track in tracks(model, spec.g0, steps, counter):
        upper, lower = unconditional_bounds(model, upper_track, lower_track, counter)
        upper_trace.append(upper)
        lower_trace.append(lower)
        converged = len(upper_trace) > 1 and (
            abs(upper - upper_trace[-2]) < tol and abs(lower - lower_trace[-2]) < tol
        )
        if converged:
            break
    return LimitResult(
        upper=upper,
        lower=lower,
        upper_conditional=upper_track.values.copy(),
        lower_conditional=lower_track.values.copy(),
        horizon_reached=len(upper_trace),
        converged=converged,
        upper_trace=tuple(upper_trace),
        lower_trace=tuple(lower_trace),
        lp_calls=counter.calls,
    )
