"""Upper and lower transition operators on gambles and on history arrays.

The upper transition operator maps a gamble f to the gamble whose value at
state x is the maximum one-step expectation of f over the credal row of x.
The lower operator is its conjugate.  Both extend to functions of whole state
histories, which powers the exponential-cost reference computation.  A
history function on horizon n is a float array of shape ``(d,)*n``, d the
state count, whose entry ``hist[x1, ..., xn]`` is its value on that path.

A transition optimises one objective over every row, so it first solves
the model's ``pour_stacks`` for it (its negation for the lower operator),
each in one numpy pass: the interval stacks as wide as the model of at
least ``STACK_POUR_MIN_ENTRIES`` entries and the vertex stacks of one vertex
count with at least ``VERTEX_STACK_MIN_ROWS`` rows.  A contraction gives
each row the blocks ``x::d`` of a history, an objective each, and solves a
row's blocks of a chunk in one numpy pass when there are at least
``BATCH_MIN_LINES`` of them (see ``lp.Objective.blocks``).  Either way,
every row optimisation still costs one ``maximize`` or ``minimize`` call,
where a row reads its line of a pass.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np

from .core import ImpreciseMarkovChain
from .lp import LpCounter, Objective, maximize, minimize


def _optimise_blocks(
    model: ImpreciseMarkovChain, blocks, optimise, counter
) -> np.ndarray:
    """Optimise objective block i over the credal row of state i mod d, with
    d the number of states; ``blocks`` is an iterable of ``Objective``s.

    ``optimise`` is ``maximize`` or ``minimize``; every block costs exactly
    one row optimisation.
    """
    pairs = zip(cycle(model.rows), blocks)
    # Index 0 of the ``LpResult`` is its value, read without the field lookup.
    return np.array([optimise(row, block, counter)[0] for row, block in pairs])


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
    model.pour(f)
    return _optimise_blocks(model, [f] * model.size, maximize, counter)


def lower_transition(
    model: ImpreciseMarkovChain, f, counter: LpCounter | None = None
) -> np.ndarray:
    """Conjugate of ``upper_transition``: entry x minimises over the row of x.
    ``f`` is a vector or an ``Objective``, as there."""
    f = Objective.checked(f, size=model.size, name="gamble")
    model.pour(f.negation)
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
    # Each block is its own objective, so its sort and its solution are
    # done in bulk, a chunk of blocks at a time: the set-up kept for a chunk
    # is two to five times the chunk, and a whole history would need that
    # many times the history.  Only the blocks that meet an interval row are
    # sorted, and only simplex rows read a block's negation, which is built
    # on that read.  Each block still costs one ``maximize`` call, looked up
    # here so that a wrapper set on this module sees every block.  The lower
    # contraction maximises the negated blocks, a chunk negated at a time,
    # and negates the maxima.
    objectives = Objective.blocks(blocks, negate, model.rows)
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
