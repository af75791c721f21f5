"""Upper and lower transition operators on gambles and on history arrays.

The upper transition operator maps a gamble f to the gamble whose value at
state x is the maximum one-step expectation of f over the credal row of x.
The lower operator is its conjugate.  Both extend to functions of whole state
histories, which powers the exponential-cost reference computation.  A
history function on horizon n is a float array of shape ``(d,)*n``, d the
state count, whose entry ``hist[x1, ..., xn]`` is its value on that path.
"""

from __future__ import annotations

import numpy as np

from .core import ImpreciseMarkovChain, IntervalRow
from .lp import LpCounter, Objective, maximize, minimize


def _optimise_blocks(
    model: ImpreciseMarkovChain, blocks, optimise, counter
) -> np.ndarray:
    """Optimise objective block i over the credal row of state i mod d, with
    d the number of states; ``blocks`` is an iterable of ``Objective``s.

    ``optimise`` is ``maximize`` or ``minimize``; every block costs exactly
    one row optimisation.
    """
    rows = model.rows
    d = len(rows)
    return np.array(
        [optimise(rows[i % d], block, counter).value for i, block in enumerate(blocks)]
    )


def upper_transition(
    model: ImpreciseMarkovChain, f, counter: LpCounter | None = None
) -> np.ndarray:
    """Apply the upper transition operator to a gamble.

    Entry x is the maximum of the expectation of f over the credal row of
    state x, i.e. the tight upper bound on the one-step conditional
    expectation of f given the current state.  ``f`` is a vector, which is
    checked, or an ``Objective``, which only has its length checked.
    """
    f = Objective.checked(f, size=model.size, name="gamble")
    return _optimise_blocks(model, [f] * model.size, maximize, counter)


def lower_transition(
    model: ImpreciseMarkovChain, f, counter: LpCounter | None = None
) -> np.ndarray:
    """Conjugate of ``upper_transition``: entry x minimises over the row of x.
    ``f`` is a vector or an ``Objective``, as there."""
    f = Objective.checked(f, size=model.size, name="gamble")
    return _optimise_blocks(model, [f] * model.size, minimize, counter)


def _contract(
    model: ImpreciseMarkovChain, hist: np.ndarray, negate: bool, counter
) -> np.ndarray:
    d = model.size
    if hist.ndim < 2 or hist.shape != (d,) * hist.ndim:
        raise ValueError(
            f"history array of shape {hist.shape} is not (d,)*n with d = {d}, n >= 2"
        )
    blocks = np.asarray(hist.reshape(-1, d), dtype=float)
    if not np.isfinite(blocks).all():
        raise ValueError("objective contains non-finite entries")
    # Each block is its own objective, so its negation and sort are done in
    # bulk, a chunk of blocks at a time: the set-up kept for a chunk is about
    # three times the chunk, and a whole history would need three times the
    # history.  Only interval rows read the sort, so a model without one
    # skips it.  Each block still costs one ``maximize`` call, looked up here
    # so that a wrapper set on this module sees every block.  The lower
    # contraction maximises the negated blocks and negates the maxima.
    ordered = any(isinstance(row, IntervalRow) for row in model.rows)
    objectives = Objective.blocks(blocks, negate, ordered)
    out = _optimise_blocks(model, objectives, maximize, counter)
    return (-out if negate else out).reshape(hist.shape[:-1])


def extended_upper(
    model: ImpreciseMarkovChain, hist: np.ndarray, counter: LpCounter | None = None
) -> np.ndarray:
    """Upper transition step on a history array, horizon n+1 to n.

    For every history prefix, the value is the row maximum over the
    last-coordinate slice, taken in the row of the prefix's final state.
    In C order those slices are the rows of ``hist.reshape(-1, d)``.
    """
    return _contract(model, hist, False, counter)


def extended_lower(
    model: ImpreciseMarkovChain, hist: np.ndarray, counter: LpCounter | None = None
) -> np.ndarray:
    """Conjugate of ``extended_upper`` on history arrays: minus the upper
    step on the negated history, which is negated a chunk of blocks at a
    time, never whole."""
    return _contract(model, hist, True, counter)
