"""Exponential-cost reference computations used to validate the recursion.

Three independent routes are provided: explicit materialisation of the
recursive target on all histories, full backward contraction of the
resulting history array via the extended operators, and brute-force
enumeration of extreme compatible processes for vertex-style rows, as a
set-valued recursion over the history tree.  A history array on horizon n
has shape ``(d,)*n`` and holds the target's value on path (x1, ..., xn) at
``hist[x1, ..., xn]``.  Materialisation checks the history size and the
finiteness of the values it computes; both oracles check the shape and the
finiteness of the history array they are given.  The two size limits,
``HISTORY_CAP`` and ``ASSIGNMENT_CAP``, are fixed constants.  These routes
exist to check the linear-time engine on desk-scale instances, but the
contraction is also what ``credalmc check`` spends nearly all its time on:
its ``2·Σd^i`` row optimisations, one per history block, run through the
extended operators, which prepare the blocks' objectives a chunk at a time.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .core import (
    CapExceededError,
    CredalRow,
    ImpreciseMarkovChain,
    IntervalRow,
    NumericalError,
    VertexRow,
)
from .engine import RecursiveSpec
from .lp import LpCounter
from .operators import extended_lower, extended_upper

# Largest number of materialised history values before raising, so that an
# oversized request fails cleanly instead of exhausting memory.
HISTORY_CAP = 10_000_000

# Cap on the number of enumerated process assignments (summed over starting
# states), which bounds the cost of the brute-force envelope check.
ASSIGNMENT_CAP = 1_000_000


def materialize_path_function(spec: RecursiveSpec) -> np.ndarray:
    """Evaluate the recursive target explicitly on every state history.

    Step k prepends one time instant: with the accumulated values t on
    suffix histories, the new value on (x, suffix) is h_k(x) * t(suffix)
    + g_k(x).  This is the definition the engine never expands; the result
    is an array of shape ``(d,)*horizon``.  Raises ``CapExceededError``
    before allocating if d**horizon exceeds ``HISTORY_CAP``, or if the
    horizon exceeds numpy's dimension limit, and ``NumericalError`` if a
    value is not finite.
    """
    d, n = spec.dim, spec.horizon
    if d**n > HISTORY_CAP:
        raise CapExceededError(
            f"history of {d}**{n} entries exceeds cap {HISTORY_CAP}"
        )
    values = spec.g0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for h, g in spec.steps:
            values = (h[:, None] * values[None, :] + g[:, None]).ravel()
    if not np.isfinite(values).all():
        raise NumericalError("materialised history values contain non-finite entries")
    try:
        return values.reshape((d,) * n)
    except ValueError:  # n is beyond the number of dimensions numpy allows
        raise CapExceededError(
            f"history of horizon {n} has more dimensions than numpy allows"
        ) from None


def _check_history(model: ImpreciseMarkovChain, hist: np.ndarray) -> None:
    if hist.ndim < 1 or hist.shape != (model.size,) * hist.ndim:
        raise ValueError("history array does not match the model's state count")
    # An infinite entry can make a sum NaN, which the envelope would skip.
    if not np.isfinite(hist).all():
        raise ValueError("objective contains non-finite entries")


def naive_conditional_bounds(
    model: ImpreciseMarkovChain, hist: np.ndarray, counter: LpCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional bounds of a history array by backward contraction.

    Repeatedly applies the extended upper and lower operators until only the
    first time index remains.  Contracting horizon j+1 to j costs d**j row
    optimisations per side, so the total is 2 * sum of d**i for i = 1..n-1,
    exponential in the horizon.  Exact for every function of finitely many
    time instants, which is what makes it an oracle for the engine.
    """
    _check_history(model, hist)
    upper = lower = hist
    while upper.ndim > 1:
        upper = extended_upper(model, upper, counter)
        lower = extended_lower(model, lower, counter)
    return upper.copy(), lower.copy()


def _row_extreme_points(row: CredalRow, where: str) -> list[np.ndarray]:
    if isinstance(row, VertexRow):
        return [np.array(v, copy=True) for v in row.vertices]
    if isinstance(row, IntervalRow) and row.dim == 2:
        # On two states the interval row is a segment; its endpoints are the
        # pmfs with maximal mass on either state.
        lo, up = row.lower, row.upper
        p0_hi = min(up[0], 1.0 - lo[1])
        p0_lo = max(lo[0], 1.0 - up[1])
        points = [np.array([p0_hi, 1.0 - p0_hi])]
        if abs(p0_lo - p0_hi) > 1e-15:
            points.append(np.array([p0_lo, 1.0 - p0_lo]))
        return points
    raise ValueError(
        f"{where}: vertex enumeration needs vertex rows "
        "(or two-state interval rows, which convert to their endpoints)"
    )


def enumerate_vertex_processes(
    model: ImpreciseMarkovChain, hist: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force envelope over extreme compatible processes, given the start.

    A compatible process may pick a different row element after every
    history, so one assignment attaches an extreme pmf to every history node
    of depth below the horizon.  Subtrees never interact, so the
    expectations below a node, one per assignment of its subtree, are every
    ``sum(pmf[y] * w[y])`` with ``pmf`` an extreme point of the node's row
    and ``w`` one expectation from each child.  The componentwise maximum
    and minimum over each start's expectations are returned.  Assignments
    are counted first, per depth and last state; more than
    ``ASSIGNMENT_CAP`` over all starts raises ``CapExceededError``.
    """
    _check_history(model, hist)
    d = model.size
    n = hist.ndim
    values = hist.ravel()
    if n == 1:
        return values.copy(), values.copy()

    extremes = [
        _row_extreme_points(row, f"row {label!r}")
        for label, row in zip(model.states.labels, model.rows)
    ]
    counts = [1] * d
    for _ in range(n - 1):
        below = math.prod(counts)
        counts = [min(len(e) * below, ASSIGNMENT_CAP + 1) for e in extremes]
    if sum(counts) > ASSIGNMENT_CAP:
        raise CapExceededError(
            f"process enumeration needs more than {ASSIGNMENT_CAP} assignments"
        )

    def expectations(idx: int, depth: int) -> list[float]:
        if depth == n:
            return [float(values[idx])]
        children = [expectations(idx * d + y, depth + 1) for y in range(d)]
        return [
            sum(pmf[y] * w[y] for y in range(d) if pmf[y] != 0.0)
            for pmf in extremes[idx % d]
            for w in product(*children)
        ]

    per_start = [expectations(x, 1) for x in range(d)]
    # Starting from an infinity skips NaN expectations.
    upper = np.array([max([-np.inf, *e]) for e in per_start])
    lower = np.array([min([np.inf, *e]) for e in per_start])
    return upper, lower
