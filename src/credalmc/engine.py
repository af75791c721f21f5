"""Linear-time computation of conditional and unconditional expectation bounds.

The target functions handled here are built recursively from per-state
weights: starting from a gamble g0 on the first state, each further step
(h, g) extends the function one time instant into the future via

    target(x1, ..., x_{n+1}) = h(x1) * target(x2, ..., x_{n+1}) + g(x1).

The tight conditional bounds on such a target given the first state satisfy a
two-track recursion that interleaves the upper and lower transition operators:
where the weight h is nonnegative the upper track feeds on the upper operator
and the lower track on the lower one, and where h is negative the tracks
swap.  One pass therefore costs two operator applications per step, i.e.
exactly 2 * (horizon - 1) * n_states row optimisations, linear in the horizon
instead of the exponential cost of expanding all histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ImpreciseMarkovChain, NumericalError, as_vector
from .lp import LpCounter, Objective, maximize, minimize
from .operators import lower_transition, upper_transition

# Slack allowed before the computed bounds are declared inconsistent,
# relative to the larger of 1 and the bounds' magnitude: the two tracks round
# differently, by errors that grow with the bounds and the horizon.
SANDWICH_TOL = 1e-10


@dataclass(frozen=True)
class RecursiveSpec:
    """A recursively decomposable target: the seed gamble g0 and the ordered
    list of (h, g) weight pairs, one pair per additional time instant."""

    g0: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        g0 = as_vector(self.g0, name="g0")
        d = g0.size
        frozen_steps = []
        for k, (h, g) in enumerate(self.steps, start=1):
            h = as_vector(h, size=d, name=f"step {k} weight h")
            g = as_vector(g, size=d, name=f"step {k} offset g")
            frozen_steps.append((h, g))
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "steps", tuple(frozen_steps))

    @property
    def dim(self) -> int:
        return self.g0.size

    @property
    def horizon(self) -> int:
        return 1 + len(self.steps)


@dataclass(frozen=True)
class BoundsResult:
    """Conditional bound vectors, unconditional bounds, and the LP-call count."""

    upper_conditional: np.ndarray
    lower_conditional: np.ndarray
    upper: float
    lower: float
    lp_calls: int

    def __post_init__(self):
        scale = max(1.0, abs(self.upper), abs(self.lower))
        if self.lower > self.upper + SANDWICH_TOL * scale:
            raise NumericalError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        upper, lower = self.upper_conditional, self.lower_conditional
        scale = np.maximum(1.0, np.maximum(np.abs(upper), np.abs(lower)))
        if np.any(lower > upper + SANDWICH_TOL * scale):
            raise NumericalError("conditional lower bound exceeds upper bound")


def recursion_step(h, g, upper_next, lower_next):
    """One step of the two-track recursion.

    ``upper_next`` and ``lower_next`` are the transition-operator images of
    the previous upper and lower track.  States with h(x) = 0 land in the
    nonnegative branch, where both products vanish, so the branch choice is
    immaterial there.  Raises ``NumericalError`` when a bound overflows.
    """
    nonneg = h >= 0.0
    # Overflow is reported once, below, instead of as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        new_upper = np.where(nonneg, h * upper_next, h * lower_next) + g
        new_lower = np.where(nonneg, h * lower_next, h * upper_next) + g
    # One ufunc over both tracks: ``ndarray.all`` adds a Python layer per call.
    if not np.logical_and.reduce(np.isfinite((new_upper, new_lower)), axis=None):
        raise NumericalError("recursion step overflowed to a non-finite bound")
    return new_upper, new_lower


def tracks(model, g0, steps, counter):
    """Yield the (upper, lower) tracks at every horizon: ``g0`` for both, then
    the pair after each (h, g) of ``steps``.  The only code that applies the
    transition operators and ``recursion_step``.  Each track is wrapped once,
    as an ``Objective`` for the next transition and the caller, and without a
    check: ``g0`` must have passed ``as_vector``, and ``recursion_step``
    checks its output."""
    upper = lower = Objective(g0)
    yield upper, lower
    for h, g in steps:
        upper_next = upper_transition(model, upper, counter)
        lower_next = lower_transition(model, lower, counter)
        upper, lower = map(Objective, recursion_step(h, g, upper_next, lower_next))
        yield upper, lower


def conditional_bounds(
    model: ImpreciseMarkovChain,
    spec: RecursiveSpec,
    counter: LpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tight upper and lower conditional expectation bounds given the first state.

    Returns the pair (upper, lower) of gambles on the first state.  Both
    transition operators are evaluated at every step, so an instrumented
    counter records exactly 2 * (horizon - 1) * n_states row optimisations.
    """
    if spec.dim != model.size:
        raise ValueError(
            f"spec dimension {spec.dim} does not match state count {model.size}"
        )
    for upper, lower in tracks(model, spec.g0, spec.steps, counter):
        pass
    return upper.values.copy(), lower.values.copy()


def unconditional_bounds(
    model: ImpreciseMarkovChain,
    upper_cond,
    lower_cond,
    counter: LpCounter | None = None,
) -> tuple[float, float]:
    """Optimise conditional bound vectors over the initial credal set.

    The upper bound pairs with the upper conditional vector and the lower
    bound with the lower one; mixing them has no meaning here.  Each vector
    is checked, unless it is an ``Objective``, which only has its length
    checked.
    """
    upper_cond = Objective.checked(
        upper_cond, size=model.size, name="upper conditional"
    )
    lower_cond = Objective.checked(
        lower_cond, size=model.size, name="lower conditional"
    )
    upper = maximize(model.initial, upper_cond, counter).value
    lower = minimize(model.initial, lower_cond, counter).value
    return upper, lower


def infer(model: ImpreciseMarkovChain, spec: RecursiveSpec) -> BoundsResult:
    """Full inference: conditional bounds, then the optimisation over the
    initial credal set, with the total LP-call count recorded."""
    counter = LpCounter()
    upper_cond, lower_cond = conditional_bounds(model, spec, counter)
    # Both vectors are fresh and already checked, so they are wrapped without
    # a second check; the wrappers leave the arrays themselves writable.
    upper, lower = unconditional_bounds(
        model, Objective(upper_cond), Objective(lower_cond), counter
    )
    return BoundsResult(
        upper_conditional=upper_cond,
        lower_conditional=lower_cond,
        upper=upper,
        lower=lower,
        lp_calls=counter.calls,
    )
