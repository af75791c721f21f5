"""Exponential-cost reference computations used to validate the recursion.

Three independent routes are provided: explicit materialisation of the
recursive target on all histories, full backward contraction of the
resulting history array via the extended operators, and brute-force
enumeration of extreme compatible processes for vertex-style rows.  A history
array on horizon n has shape ``(d,)*n`` and holds the target's value on path
(x1, ..., xn) at ``hist[x1, ..., xn]``.  Materialisation is the one place
that checks the size cap and the finiteness of the values.  These routes
exist purely to check the linear-time engine on desk-scale instances;
nothing here is performance work.
"""

from __future__ import annotations

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
DEFAULT_HISTORY_CAP = 10_000_000

# Cap on the number of enumerated process assignments (summed over starting
# states), which bounds the cost of the brute-force envelope check.
DEFAULT_ASSIGNMENT_CAP = 1_000_000


def materialize_path_function(
    spec: RecursiveSpec, cap: int = DEFAULT_HISTORY_CAP
) -> np.ndarray:
    """Evaluate the recursive target explicitly on every state history.

    Step k prepends one time instant: with the accumulated values t on
    suffix histories, the new value on (x, suffix) is h_k(x) * t(suffix)
    + g_k(x).  This is the definition the engine never expands; the result
    is an array of shape ``(d,)*horizon``.  Raises ``CapExceededError``
    before allocating if d**horizon exceeds ``cap``, and ``NumericalError``
    if a value is not finite.
    """
    d, n = spec.dim, spec.horizon
    if d**n > cap:
        raise CapExceededError(
            f"history of {d}**{n} entries exceeds cap {cap}"
        )
    values = spec.g0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for h, g in spec.steps:
            values = (h[:, None] * values[None, :] + g[:, None]).ravel()
    if not np.isfinite(values).all():
        raise NumericalError("materialised history values contain non-finite entries")
    return values.reshape((d,) * n)


def _check_history(model: ImpreciseMarkovChain, hist: np.ndarray) -> None:
    if hist.ndim < 1 or hist.shape != (model.size,) * hist.ndim:
        raise ValueError("history array does not match the model's state count")


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
    model: ImpreciseMarkovChain,
    hist: np.ndarray,
    cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force envelope over extreme compatible processes, given the start.

    A compatible process may pick a different row element after every
    history, so one assignment attaches an extreme pmf to every history node
    of depth below the horizon.  For each assignment the precise conditional
    expectation of the history function is evaluated by plain forward
    weighting; the componentwise maximum and minimum over assignments are
    returned.  Assignments for different starting states never interact, so
    the enumeration runs per starting state; the cap bounds the total number
    of assignments across all starts.
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

    # History nodes of depth 1..n-1 in the subtree of each starting state,
    # identified by (flat prefix index, depth); node order is deterministic.
    total_assignments = 0
    per_state_nodes: list[list[tuple[int, int]]] = []
    for x in range(d):
        nodes = []
        level = [(x, 1)]
        while level:
            nodes.extend(level)
            level = [
                (idx * d + y, depth + 1)
                for idx, depth in level
                if depth + 1 <= n - 1
                for y in range(d)
            ]
        per_state_nodes.append(nodes)
        count = 1
        for idx, _ in nodes:
            count *= len(extremes[idx % d])
        total_assignments += count
        if total_assignments > cap:
            raise CapExceededError(
                f"process enumeration needs more than {cap} assignments"
            )

    upper = np.empty(d)
    lower = np.empty(d)
    for x in range(d):
        nodes = per_state_nodes[x]
        node_pos = {node: j for j, node in enumerate(nodes)}
        choice_lists = [extremes[idx % d] for idx, _ in nodes]
        best = -np.inf
        worst = np.inf
        for assignment in product(*choice_lists):

            def path_expectation(idx: int, depth: int) -> float:
                if depth == n:
                    return float(values[idx])
                pmf = assignment[node_pos[(idx, depth)]]
                return sum(
                    pmf[y] * path_expectation(idx * d + y, depth + 1)
                    for y in range(d)
                    if pmf[y] != 0.0
                )

            value = path_expectation(x, 1)
            if value > best:
                best = value
            if value < worst:
                worst = value
        upper[x] = best
        lower[x] = worst
    return upper, lower
