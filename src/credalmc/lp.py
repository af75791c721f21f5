"""Linear optimisation of a gamble over one credal row.

Every transition-operator evaluation reduces to one call of ``maximize`` (or
its conjugate ``minimize``) on a single row.  The d rows of one transition
share their objective, so the operators wrap the gamble once in an
``Objective``: it is checked once, and its negation and its stable sort
orders are computed on first use and kept for the other rows.  Interval
rows use the exact sorting solution: the objective's stable order, then a
vectorised greedy pour of the remaining mass (``IntervalRow.pour``): gather
the row's slack and headroom in that order, subtract the running slack with
one ``np.subtract.accumulate``, cap each state's share at its headroom, and
scatter the positive shares onto the lower bounds.  Vertex rows use direct
enumeration, and constraint rows run a dense two-phase simplex restricted to
the probability simplex.  Only the objective changes from one call on a
constraint row to the next, so phase 1 is solved once per row, when the row
is built (``ConstraintRow`` calls ``_solve_phase_one``), and kept on it;
each call then runs phase 2 on a copy of that start, in plain Python
floats (the tableaux are too small for numpy's per-operation overhead to pay
off).  The simplex enters the column with the most negative reduced cost
(Dantzig's rule) and falls back to Bland's smallest-index rule right after
a degenerate pivot, which excludes cycling with fewer pivots than Bland's
rule alone.  The pivot path fixes the last bits of a result: Bland's rule
alone reaches the same optimum with values that differ by a few ulps.  All
three paths are deterministic: identical inputs produce bit-identical
output.

A call is on the hot path of every transition, so its fixed cost is kept
small: ``LpResult`` is a named tuple, each kernel returns a plain
``(value, maximizer, iterations)`` triple that ``maximize`` or ``minimize``
wraps once, and the kernel is looked up by row type in one table.  A vertex
row's maximizer is a read-only view of the chosen row of ``vertices``, not a
copy; the interval and constraint maximizers are fresh arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    EPS_FEAS,
    ConstraintRow,
    CredalRow,
    InfeasibleRowError,
    IntervalRow,
    NumericalError,
    VertexRow,
    as_vector,
)

# Entries smaller than this are treated as zero when selecting simplex pivots.
PIVOT_TOL = 1e-9


class LpResult(NamedTuple):
    """Optimal value, an optimising pmf, and a solver effort counter.

    For a vertex row the maximizer is a read-only view of one listed vertex.
    """

    value: float
    maximizer: np.ndarray
    iterations: int


class LpCounter:
    """Counter of row optimisations, for complexity assertions."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def __repr__(self):
        return f"LpCounter(calls={self.calls})"


class Objective:
    """A gamble optimised over many rows, checked once.

    ``values`` is a read-only view of a finite 1-D float array; build one
    with ``Objective.checked``, or directly from an array that has already
    passed ``as_vector``.  The negation and, for each direction, the stable
    sort order and the interval pour's gather index are computed on first
    use and kept, so every row after the first reuses them.
    """

    __slots__ = ("values", "_negated", "_orders")

    def __init__(self, values: np.ndarray):
        self.values = values.view()
        self.values.flags.writeable = False
        self._negated = None
        self._orders = [None, None]

    @classmethod
    def checked(cls, values, size: int | None = None, name: str = "objective"):
        """An ``Objective`` over ``values``.  A vector is checked by
        ``as_vector``; an ``Objective`` has been checked already, so only its
        length is, and it is returned as it is."""
        if isinstance(values, Objective):
            if size is not None and values.values.size != size:
                raise ValueError(
                    f"{name} has length {values.values.size}, expected {size}"
                )
            return values
        return cls(as_vector(values, size=size, name=name))

    @property
    def negated(self) -> np.ndarray:
        if self._negated is None:
            self._negated = -self.values
        return self._negated

    def target(self, minimise: bool) -> np.ndarray:
        """The vector that is maximised: the gamble, or its negation when
        minimising."""
        return self.negated if minimise else self.values

    def order(self, minimise: bool) -> tuple[np.ndarray, np.ndarray]:
        """``(order, gather)``: the states by decreasing ``target(minimise)``,
        ties by ascending index, and ``[0, *(order + 1)]``, the index that
        ``IntervalRow.pour`` reads its supply with.

        The order is the stable argsort of ``-target``.  When minimising
        that is ``-(-values)``, which is ``values`` bit for bit."""
        pair = self._orders[minimise]
        if pair is None:
            order = np.argsort(self.target(not minimise), kind="stable")
            pair = self._orders[minimise] = (order, np.concatenate(([0], order + 1)))
        return pair


def maximize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Maximise a linear objective over a credal row.

    Returns the supremum of ``expectation(p, objective)`` over the row
    together with a maximising pmf.  ``objective`` is a vector, checked on
    every call, or an ``Objective`` shared by many calls, which is only
    checked for its length.  Dispatches on the row representation; ties are
    broken by ascending state index (intervals) or by lowest list index
    (vertices).
    """
    if counter is not None:
        counter.calls += 1
    obj = Objective.checked(objective, row.dim)
    value, maximizer, iterations = _kernel(row)(row, obj, False)
    return LpResult(value, maximizer, iterations)


def minimize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Minimise a linear objective over a credal row (conjugate of maximize)."""
    if counter is not None:
        counter.calls += 1
    obj = Objective.checked(objective, row.dim)
    value, maximizer, iterations = _kernel(row)(row, obj, True)
    return LpResult(-value, maximizer, iterations)


def feasible(row: CredalRow) -> bool:
    """True iff the row contains at least one probability mass function (for
    a vertex row: iff every listed vertex is one).  The row decided this when
    it was built and keeps it in ``row.feasible``."""
    if isinstance(row, (IntervalRow, VertexRow, ConstraintRow)):
        return row.feasible
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


# Each kernel maximises ``obj.target(minimise)`` over a row and returns the
# triple ``(value, maximizer, iterations)``.


def _maximize_intervals(row: IntervalRow, obj: Objective, minimise: bool) -> tuple:
    # Exact for box-on-simplex rows: give every state its lower bound, then
    # pour the remaining mass into states in decreasing objective order.
    if row.empty:
        raise InfeasibleRowError("interval row is empty")
    p, iterations = row.pour(*obj.order(minimise))
    return float(obj.target(minimise).dot(p)), p, iterations


def _maximize_vertices(row: VertexRow, obj: Objective, minimise: bool) -> tuple:
    vertices = row.vertices
    # ``ndarray.dot`` has less call overhead than ``@`` and gives the same
    # bits for a 2-D by 1-D product.
    values = vertices.dot(obj.target(minimise))
    best = values.argmax()
    # ``vertices`` is frozen, so the chosen row is handed out as a view.
    return float(values[best]), vertices[best], 0


def _simplex_max(row: ConstraintRow, obj: Objective, minimise: bool) -> tuple:
    """Dense two-phase simplex for: max c @ p  s.t.  a @ p <= b,
    sum(p) = 1, p >= 0, on the row's scaled inequalities, where ``c`` is
    ``obj.target(minimise)``.  The cost vector it minimises is ``-c``, that
    is ``obj.target(not minimise)``.

    Enters by Dantzig's rule, or by Bland's after a degenerate pivot, and
    leaves by the minimum ratio with ties to the smallest basic index (see
    ``_run_phase``).  This excludes cycling and fixes the pivot sequence, so
    the solver is fully deterministic; the path it takes fixes the last bits
    of the value, which differ by a few ulps from those of Bland's rule
    alone.  The feasible set is a subset of the probability simplex, hence
    bounded; an unbounded ray indicates a numeric breakdown and raises
    ``NumericalError``.

    Phase 1 does not depend on the objective, so it was solved once, when
    the row was built, and kept in ``row.simplex_start``; each call copies
    that start and runs phase 2 from it, and counts its own pivots only.
    A row without a start raises ``InfeasibleRowError``.
    """
    if row.simplex_start is None:
        raise InfeasibleRowError("constraint system admits no pmf")
    start, basis = row.simplex_start
    d = row.dim
    costs = obj.target(not minimise).tolist()
    tableau = list(start)
    basis = list(basis)
    tableau.append(
        _reduced_costs(tableau, [costs[k] if k < d else 0.0 for k in basis], costs)
    )
    iterations = _run_phase(tableau, basis)
    p = np.zeros(d)
    for i, k in enumerate(basis):
        if k < d:
            p[k] = tableau[i][-1]
    return float(obj.target(minimise).dot(p)), p, iterations


_KERNELS = {
    IntervalRow: _maximize_intervals,
    VertexRow: _maximize_vertices,
    ConstraintRow: _simplex_max,
}


def _kernel(row: CredalRow):
    """The kernel for the row's type, or for the row kind it subclasses."""
    kernel = _KERNELS.get(type(row))
    if kernel is not None:
        return kernel
    for cls in type(row).__mro__:
        if cls in _KERNELS:
            return _KERNELS[cls]
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


def _solve_phase_one(row: ConstraintRow):
    """Phase 1 of the simplex on a row: ``(tableau, basis)``, the start that
    ``ConstraintRow`` keeps.

    The tableau has one row per scaled inequality (negated where its bound
    is negative) plus the ``sum(p) = 1`` row, over the structural and slack
    columns and the right-hand side.  Rows whose slack cannot start in the
    basis get an artificial variable; phase 1 minimises their sum, then the
    leftover artificials are driven out where a structural pivot exists (a
    row with none is redundant and stays inert at level 0).  The artificial
    columns are not stored: no pivot choice or structural entry reads them,
    and a basic artificial keeps its column index ``d + m + j``.  Rows are
    tuples, so the start cannot be written to once it is kept.

    Raises ``InfeasibleRowError`` when no pmf satisfies the row.
    """
    m, d = row.scaled_a.shape
    n_cols = d + m
    tableau = []
    basis = []
    artificial = []
    inequalities = zip(row.scaled_a.tolist(), row.scaled_b.tolist())
    for i, (arow, bi) in enumerate(inequalities):
        slack = [0.0] * m
        if bi < 0.0:
            # Negate so the right-hand side is nonnegative; the slack then
            # enters with coefficient -1 and cannot start in the basis.
            slack[i] = -1.0
            tableau.append([-x for x in arow] + slack + [-bi])
            artificial.append(i)
        else:
            slack[i] = 1.0
            tableau.append(arow + slack + [bi])
        basis.append(d + i)
    tableau.append([1.0] * d + [0.0] * m + [1.0])
    basis.append(-1)
    artificial.append(m)
    for j, i in enumerate(artificial):
        basis[i] = n_cols + j

    tableau.append(
        _reduced_costs(tableau, [1.0 if k >= n_cols else 0.0 for k in basis], [])
    )
    _run_phase(tableau, basis)
    if -tableau.pop()[-1] > EPS_FEAS:
        raise InfeasibleRowError("constraint system admits no pmf")
    for i in range(m + 1):
        if basis[i] >= n_cols:
            for j in range(n_cols):
                if abs(tableau[i][j]) > PIVOT_TOL:
                    _pivot(tableau, i, j)
                    basis[i] = j
                    break

    return tuple(map(tuple, tableau)), tuple(basis)


def _reduced_costs(tableau: list, basic_costs: list, costs: list) -> list:
    """Reduced-cost row for minimising ``costs @ x`` (zero past the end of
    ``costs``), given the cost of each row's basic variable."""
    obj = costs + [0.0] * (len(tableau[0]) - len(costs))
    for trow, cb in zip(tableau, basic_costs):
        if cb != 0.0:
            obj = [o - cb * x for o, x in zip(obj, trow)]
    return obj


def _run_phase(tableau: list, basis: list) -> int:
    """Pivot until no reduced cost is below ``-PIVOT_TOL``; returns the pivot
    count.

    ``tableau[-1]`` is the reduced-cost row; the others are the constraint
    rows, whose basic variables are listed in ``basis``.  Entering
    candidates are the structural and slack columns.  The entering column is
    the one with the most negative reduced cost, lowest index on ties
    (Dantzig's rule), except right after a degenerate pivot (ratio at most
    ``PIVOT_TOL``), when it is the first column below ``-PIVOT_TOL``
    (Bland's rule).  The leaving row is always chosen by the minimum ratio,
    ties to the lowest basic index, as Bland's rule asks.

    This cannot cycle.  A pivot that is not degenerate lowers the objective,
    so a basis can only recur through degenerate pivots alone.  In such a
    cycle every pivot follows a degenerate pivot, so every pivot is chosen
    by Bland's rule, and Bland's rule never cycles (Bland 1977).
    """
    n_rows = len(basis)
    n_cols = len(tableau[0]) - 1
    pivots = 0
    degenerate = False
    while True:
        obj = tableau[-1]
        enter = -1
        least = -PIVOT_TOL
        for j in range(n_cols):
            if obj[j] < least:
                enter = j
                if degenerate:
                    break
                least = obj[j]
        if enter < 0:
            return pivots
        leave = -1
        best_ratio = math.inf
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > PIVOT_TOL:
                ratio = tableau[i][-1] / coef
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
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        pivots += 1
        degenerate = best_ratio <= PIVOT_TOL


def _pivot(tableau: list, r: int, j: int) -> None:
    """Scale row ``r`` so that its entry in column ``j`` is 1, and eliminate
    column ``j`` from every other row that has a nonzero entry there.

    Rows are replaced by new lists, never written in place, so a tableau
    that shares its rows with the kept phase-1 start leaves it unchanged.
    """
    pivot_value = tableau[r][j]
    pivot_row = [x / pivot_value for x in tableau[r]]
    tableau[r] = pivot_row
    for i, trow in enumerate(tableau):
        factor = trow[j]
        if i != r and factor != 0.0:
            tableau[i] = [x - factor * y for x, y in zip(trow, pivot_row)]
