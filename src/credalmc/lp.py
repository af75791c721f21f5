"""Linear optimisation of a gamble over one credal row.

Every transition-operator evaluation reduces to one call of ``maximize`` (or
its conjugate ``minimize``) on a single row.  Interval rows use the exact
sorting solution: one stable argsort of the objective, then a vectorised
greedy pour of the remaining mass (``IntervalRow.pour``) over the row's
precomputed headroom.  Vertex rows use direct enumeration, and constraint
rows run a dense two-phase simplex restricted to the probability simplex.
All three paths are deterministic: identical inputs produce bit-identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_FEAS,
    EPS_PROB,
    ConstraintRow,
    CredalRow,
    InfeasibleRowError,
    IntervalRow,
    NumericalError,
    VertexRow,
    as_vector,
    is_pmf,
)

# Entries smaller than this are treated as zero when selecting simplex pivots.
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    """Optimal value, an optimising pmf, and a solver effort counter."""

    value: float
    maximizer: np.ndarray
    iterations: int


class LpCounter:
    """Counter of row optimisations, for complexity assertions."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def bump(self):
        self.calls += 1

    def __repr__(self):
        return f"LpCounter(calls={self.calls})"


def maximize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Maximise a linear objective over a credal row.

    Returns the supremum of ``expectation(p, objective)`` over the row
    together with a maximising pmf.  Dispatches on the row representation;
    ties are broken by ascending state index (intervals) or by lowest list
    index (vertices).
    """
    if counter is not None:
        counter.bump()
    return _maximize(row, as_vector(objective, size=row.dim, name="objective"))


def minimize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Minimise a linear objective over a credal row (conjugate of maximize)."""
    if counter is not None:
        counter.bump()
    res = _maximize(row, -as_vector(objective, size=row.dim, name="objective"))
    return LpResult(value=-res.value, maximizer=res.maximizer, iterations=res.iterations)


def feasible(row: CredalRow) -> bool:
    """True iff the row contains at least one probability mass function."""
    if isinstance(row, IntervalRow):
        return bool(
            not row.empty
            and (row.lower >= -EPS_PROB).all()
            and float(row.upper.sum()) >= 1.0 - EPS_PROB
        )
    if isinstance(row, VertexRow):
        return all(is_pmf(v) for v in row.vertices)
    if isinstance(row, ConstraintRow):
        try:
            _simplex_max(np.zeros(row.dim), row.a, row.b)
        except InfeasibleRowError:
            return False
        return True
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


def _maximize(row: CredalRow, c: np.ndarray) -> LpResult:
    if isinstance(row, IntervalRow):
        return _maximize_intervals(row, c)
    if isinstance(row, VertexRow):
        return _maximize_vertices(row, c)
    if isinstance(row, ConstraintRow):
        return _maximize_constraints(row, c)
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


def _maximize_intervals(row: IntervalRow, c: np.ndarray) -> LpResult:
    # Exact for box-on-simplex rows: give every state its lower bound, then
    # pour the remaining mass into states in decreasing objective order.
    if row.empty:
        raise InfeasibleRowError("interval row is empty")
    p, iterations = row.pour(np.argsort(-c, kind="stable"))
    return LpResult(value=float(np.dot(c, p)), maximizer=p, iterations=iterations)


def _maximize_vertices(row: VertexRow, c: np.ndarray) -> LpResult:
    values = row.vertices @ c
    best = int(np.argmax(values))
    return LpResult(
        value=float(values[best]),
        maximizer=np.array(row.vertices[best], copy=True),
        iterations=0,
    )


def _maximize_constraints(row: ConstraintRow, c: np.ndarray) -> LpResult:
    value, p, iterations = _simplex_max(c, row.a, row.b)
    return LpResult(value=value, maximizer=p, iterations=iterations)


def _simplex_max(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray):
    """Dense two-phase simplex for: max c @ p  s.t.  a_ub @ p <= b_ub,
    sum(p) = 1, p >= 0.

    Uses Bland's smallest-index rule for both the entering and the leaving
    variable, which excludes cycling and fixes the pivot sequence, so the
    solver is fully deterministic.  The feasible set is a subset of the
    probability simplex, hence bounded; an unbounded ray indicates a numeric
    breakdown and raises ``NumericalError``.

    Each inequality is scaled to unit max-norm first, so that the absolute
    tolerances ``PIVOT_TOL`` and ``EPS_FEAS`` mean the same on every row
    whatever its units; an all-zero inequality is left as it is.
    """
    norms = np.abs(a_ub).max(axis=1, initial=0.0)
    norms[norms == 0.0] = 1.0
    a_ub = a_ub / norms[:, None]
    b_ub = b_ub / norms

    d = c.size
    m = a_ub.shape[0]
    n_rows = m + 1
    n_cols = d + m  # structural + one slack per inequality

    body = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    needs_artificial = [False] * n_rows
    for i in range(m):
        arow = a_ub[i]
        bi = float(b_ub[i])
        if bi < 0.0:
            # Negate so the right-hand side is nonnegative; the slack then
            # enters with coefficient -1 and cannot start in the basis.
            body[i, :d] = -arow
            body[i, d + i] = -1.0
            rhs[i] = -bi
            needs_artificial[i] = True
        else:
            body[i, :d] = arow
            body[i, d + i] = 1.0
            rhs[i] = bi
    body[m, :d] = 1.0
    rhs[m] = 1.0
    needs_artificial[m] = True

    art_rows = [i for i in range(n_rows) if needs_artificial[i]]
    n_art = len(art_rows)
    tableau = np.zeros((n_rows + 1, n_cols + n_art + 1))
    tableau[:n_rows, :n_cols] = body
    tableau[:n_rows, -1] = rhs
    basis = np.empty(n_rows, dtype=int)
    for i in range(m):
        basis[i] = d + i
    for j, i in enumerate(art_rows):
        tableau[i, n_cols + j] = 1.0
        basis[i] = n_cols + j

    iterations = 0

    def run_phase(costs: np.ndarray, allowed: int) -> int:
        # Reduced-cost row for minimising costs @ x; entering candidates are
        # the allowed columns with a negative reduced cost.
        obj = np.zeros(tableau.shape[1])
        obj[: costs.size] = costs
        for i in range(n_rows):
            cb = costs[basis[i]] if basis[i] < costs.size else 0.0
            if cb != 0.0:
                obj -= cb * tableau[i]
        pivots = 0
        while True:
            enter = -1
            for j in range(allowed):
                if obj[j] < -PIVOT_TOL:
                    enter = j
                    break
            if enter < 0:
                break
            leave = -1
            best_ratio = np.inf
            for i in range(n_rows):
                coef = tableau[i, enter]
                if coef > PIVOT_TOL:
                    ratio = tableau[i, -1] / coef
                    if ratio < best_ratio - PIVOT_TOL or (
                        abs(ratio - best_ratio) <= PIVOT_TOL
                        and (leave < 0 or basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                raise NumericalError(
                    "unbounded direction in a simplex-constrained program"
                )
            pivot_row = tableau[leave] / tableau[leave, enter]
            tableau[leave] = pivot_row
            for i in range(n_rows):
                if i != leave and tableau[i, enter] != 0.0:
                    tableau[i] -= tableau[i, enter] * pivot_row
            obj -= obj[enter] * pivot_row
            basis[leave] = enter
            pivots += 1
        # Current objective value is -obj[-1]; stash it on the last row.
        tableau[-1] = obj
        return pivots

    if n_art:
        phase1_costs = np.zeros(n_cols + n_art)
        phase1_costs[n_cols:] = 1.0
        iterations += run_phase(phase1_costs, allowed=n_cols)
        if -tableau[-1, -1] > EPS_FEAS:
            raise InfeasibleRowError("constraint system admits no pmf")
        # Drive leftover artificials out of the basis where possible; a row
        # with no structural pivot is redundant and stays inert at level 0.
        for i in range(n_rows):
            if basis[i] >= n_cols:
                for j in range(n_cols):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        pivot_row = tableau[i] / tableau[i, j]
                        tableau[i] = pivot_row
                        for k in range(n_rows):
                            if k != i and tableau[k, j] != 0.0:
                                tableau[k] -= tableau[k, j] * pivot_row
                        basis[i] = j
                        iterations += 1
                        break

    phase2_costs = np.zeros(n_cols + n_art)
    phase2_costs[:d] = -c
    iterations += run_phase(phase2_costs, allowed=n_cols)

    x = np.zeros(n_cols + n_art)
    x[basis] = tableau[:n_rows, -1]
    p = x[:d].copy()
    return float(np.dot(c, p)), p, iterations
