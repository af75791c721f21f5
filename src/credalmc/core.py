"""Core domain types: state spaces, gambles, probability mass functions and
credal rows, plus whole-model validation.

A gamble is a real-valued function on the state space and is represented as a
plain 1-D float array.  A credal row is a nonempty set of probability mass
functions on the state space; three representations are supported (per-state
probability intervals, an explicit vertex list, and a system of linear
inequality constraints on the simplex).

Rows of one kind can be built together: ``IntervalRow.stack`` and
``VertexRow.stack`` make all of them from one array per field, and each row
holds read-only views of those shared frozen arrays.  Row construction is the
one place that evaluates the validation rules of every row kind, interval and
vertex rows once over the whole block (a row built alone is a block of one),
constraint rows by solving phase 1 of the simplex: each row keeps the rules it
breaks in ``violations``, which ``validate_model`` reads, and whether it holds
a pmf in ``feasible``.  A sum that leaves float range is inf there, or NaN
when it meets both infinities, without a warning; every comparison that
reads it is still exact.

Each row kind also owns its linear optimisation, ``_maximize(obj)``, which
``lp.maximize`` calls, and ``lp.minimize`` on the objective's negation: it
maximises ``obj.values`` over the row, where ``obj`` is an ``lp.Objective``,
and returns ``(value, maximizer, iterations)``.  Interval rows use the exact
sorting solution, a vectorised greedy pour of the slack in the objective's
stable order; vertex rows use direct enumeration; constraint rows run a dense
two-phase simplex restricted to the probability simplex, or, when small,
enumerate a vertex list found once.  The simplex lives here, next to
``ConstraintRow``, which solves phase 1 once when it is built and keeps its
start; each call runs phase 2 on a copy of that start, in plain Python floats
(the tableaux are too small for numpy's per-operation overhead to pay off).
The simplex enters the column with the most negative reduced cost (Dantzig's
rule) and falls back to Bland's smallest-index rule right after a degenerate
pivot, which excludes cycling with fewer pivots than Bland's rule alone.  The
pivot path fixes the last bits of a result: Bland's rule alone reaches the
same optimum with values that differ by a few ulps.  A feasible row with at
most ``VERTEX_BASES_MAX`` candidate bases also solves all of its active sets
in one batch when it is built, and keeps the solutions that lie in the row as
``vertices``; its calls then take the best vertex, as a vertex row does, with
0 iterations, which is the optimum up to rounding.  It keeps the
simplex when an active set is solved with a condition number above
``VERTEX_COND_MAX``, or when no solution is kept.  Both limits are fixed
constants.  Every solution is deterministic: identical inputs produce
bit-identical output.  This module imports nothing from the rest of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Union

import numpy as np

# Tolerance for normalisation and nonnegativity checks on probability vectors.
EPS_PROB = 1e-9
# Tolerance for membership tests of optimiser output in a credal row.
EPS_FEAS = 1e-8
# Entries smaller than this are treated as zero when selecting simplex pivots.
PIVOT_TOL = 1e-9
# A feasible constraint row with at most this many candidate bases, C(m+d,
# d-1) for m inequalities on d states, is solved over its vertex list, found
# when the row is built (see ``ConstraintRow``).  The limit is the 10 bases of
# the d=3, m=2 rows of the ``mixed-check`` benchmark, the only measured
# traffic that builds a list: there it takes 0.12 ms on a 2-core VM, and a
# call then takes 4 µs instead of 18 µs, which cut that benchmark's p90 by a
# third.  Rows of 55 bases take 0.24-0.78 ms, 20 to 70 simplex calls, which a
# short ``infer`` or a ``validate`` does not repay; no benchmark has such rows.
VERTEX_BASES_MAX = 10
# A row keeps the simplex if one of its active sets has a 1-norm condition
# number above this.  A vertex solved through a set of condition number κ
# misses the row by rounding below 0.4·d·ε·κ (measured); at 1e6, with d <= 4
# on any row with an inequality under the basis limit, that stays below
# 1e-9, so no vertex can be judged outside the row at ``EPS_FEAS``.
VERTEX_COND_MAX = 1e6


class CapExceededError(RuntimeError):
    """A size or enumeration cap would be exceeded on an exponential code path."""


class NumericalError(RuntimeError):
    """A computation produced values that violate basic sanity bounds."""


class InfeasibleRowError(ValueError):
    """A credal row contains no probability mass function."""


def as_vector(values, size: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if size is not None and arr.size != size:
        raise ValueError(f"{name} has length {arr.size}, expected {size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of distinct state names."""

    labels: tuple[str, ...]
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if not self.labels:
            raise ValueError("state space must contain at least one state")
        positions = {label: i for i, label in enumerate(self.labels)}
        if len(positions) != len(self.labels):
            raise ValueError("state labels must be pairwise distinct")
        object.__setattr__(self, "_positions", positions)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise KeyError(f"unknown state {label!r}") from None

    def indicator(self, subset: Iterable[str]) -> np.ndarray:
        """Indicator gamble of a subset of states, given by their labels."""
        out = np.zeros(len(self.labels))
        for label in subset:
            out[self.index(label)] = 1.0
        return out


def _set_fields(row, values):
    """Set a frozen row's fields to ``values``, in their declared order, and
    return the row."""
    for name, value in zip(row.__dataclass_fields__, values):
        object.__setattr__(row, name, value)
    return row


def _interval_fields(lower: np.ndarray, upper: np.ndarray):
    """The fields ``(lower, upper, supply, empty, violations, feasible)`` of k
    interval rows, row by row, from frozen ``(k, d)`` bounds: views of the
    bounds and of a frozen ``(k, d+1)`` supply array, a bool, a tuple of
    messages and a bool (see ``IntervalRow``).  Each row's sums are the ones
    ``lower[i].sum()`` and ``upper[i].sum()`` give, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        lower_sum = lower.sum(axis=1)
        upper_sum = upper.sum(axis=1)
        supply = np.empty((lower.shape[0], lower.shape[1] + 1))
        np.subtract(1.0, lower_sum, out=supply[:, 0])
        np.maximum(upper - lower, 0.0, out=supply[:, 1:])
    supply.flags.writeable = False
    fails = np.array([
        (lower < -EPS_PROB).any(axis=1),
        (upper > 1.0 + EPS_PROB).any(axis=1),
        (lower > upper + EPS_PROB).any(axis=1),
        lower_sum > 1.0 + EPS_PROB,
        upper_sum < 1.0 - EPS_PROB,
    ])
    empty = fails[2] | fails[3]
    # A NaN sum fails ``>=`` as it fails every rule: such a row is infeasible.
    feasible = ~empty & ~fails[0] & (upper_sum >= 1.0 - EPS_PROB)
    violations = [()] * lower.shape[0]
    for i in np.flatnonzero(fails.any(axis=0)).tolist():
        messages = (
            "negative lower bound",
            "upper bound above 1",
            "lower bound exceeds upper bound",
            f"sum of lower bounds exceeds 1 (sum={lower_sum[i]:.6g})",
            f"sum of upper bounds is below 1 (sum={upper_sum[i]:.6g})",
        )
        violations[i] = tuple(m for m, fail in zip(messages, fails[:, i]) if fail)
    return zip(lower, upper, supply, empty.tolist(), violations, feasible.tolist())


@dataclass(frozen=True)
class IntervalRow:
    """Credal row given by componentwise probability bounds.

    The row is the set of pmfs p with lower <= p <= upper.  Construction
    does not require the row to be nonempty, so an empty row can still be
    built and reported.

    The bounds never change, so what is read from them later is computed
    once here: ``supply`` is the frozen ``(d+1,)`` array of the slack ``1 -
    sum(lower)`` followed by each state's headroom, ``upper - lower`` clipped
    at 0; ``empty`` flags a row whose lower bounds exceed its upper bounds or
    sum above 1; ``violations`` holds a message for each rule the row breaks
    (lower >= 0, upper <= 1, lower <= upper, sum(lower) <= 1 <= sum(upper),
    each within ``EPS_PROB``), ``()`` for a valid row; ``feasible`` flags a
    row that holds a pmf: not empty, lower >= 0 and sum(upper) >= 1 (an upper
    bound above 1 leaves it feasible).  A row built here is the k=1 case of
    ``stack``: both run the same computation on ``(k, d)`` arrays.
    """

    lower: np.ndarray
    upper: np.ndarray
    supply: np.ndarray = field(init=False, repr=False, compare=False)
    empty: bool = field(init=False, repr=False, compare=False)
    violations: tuple = field(init=False, repr=False, compare=False)
    feasible: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = _freeze(as_vector(self.lower, name="lower bounds"))
        up = _freeze(as_vector(self.upper, size=lo.size, name="upper bounds"))
        (fields,) = _interval_fields(lo[None], up[None])
        _set_fields(self, fields)

    @classmethod
    def stack(cls, lower, upper) -> tuple[IntervalRow, ...]:
        """The rows ``IntervalRow(lower[i], upper[i])`` of two ``(k, d)``
        bound arrays, built at once with the same numbers, bit for bit.  Each
        row's arrays are read-only views of shared frozen arrays."""
        lo = np.array(lower, dtype=float)
        up = np.array(upper, dtype=float)
        if lo.ndim != 2 or up.shape != lo.shape:
            raise ValueError(f"bounds must be two (k, d) arrays, got shapes "
                             f"{lo.shape} and {up.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ValueError("bounds contain non-finite entries")
        lo.flags.writeable = False
        up.flags.writeable = False
        return tuple(_set_fields(object.__new__(cls), values)
                     for values in _interval_fields(lo, up))

    @property
    def dim(self) -> int:
        return self.lower.size

    def _maximize(self, obj) -> tuple:
        """The exact sorting solution: start at the lower bounds, then pour
        the slack into the states in decreasing objective order, each up to
        its upper bound (see ``Objective.order``; the row's ``supply``
        gathered in that order is the slack, then each state's headroom).

        The running slack is subtracted in order, one state at a time,
        exactly as a sequential loop would, so the result matches that loop
        bit for bit.  Once the running slack is spent it is at most 0, and so
        is every later ``add``, so no clip at 0 is needed.  Only states that
        take mass are written, which keeps a lower bound of -0.0 as it is;
        the iteration count is the number of states that took mass.
        """
        if self.empty:
            raise InfeasibleRowError("interval row is empty")
        order, gather = obj.order()
        seq = self.supply[gather]
        left = np.subtract.accumulate(seq)
        if left[-1] > EPS_FEAS:
            raise InfeasibleRowError("interval row has total upper mass below 1")
        add = np.minimum(seq[1:], left[:-1])
        take = add > 0.0
        states = order[take]
        p = self.lower.copy()
        p[states] += add[take]
        return float(obj.values.dot(p)), p, states.size


def _vertex_fields(block: np.ndarray, counts):
    """The fields ``(vertices, violations, feasible)`` of the vertex rows that
    take ``counts[i]`` rows of the ``(sum k, d)`` array ``block`` each, in
    order (see ``VertexRow``); ``vertices`` are read-only views of ``block``,
    frozen here.  Raises ``ValueError`` on an empty list or a non-finite entry."""
    if block.ndim != 2 or block.shape[1] == 0 or 0 in counts:
        raise ValueError("vertex list must be a nonempty 2-D array")
    if not np.isfinite(block).all():
        raise ValueError("vertex list contains non-finite entries")
    block.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):
        sums = block.sum(axis=1)
    outside = ((block < -EPS_PROB) | (block > 1.0 + EPS_PROB)).any(axis=1)
    unnormalised = np.abs(sums - 1.0) > EPS_PROB
    bad = outside | unnormalised
    checked = bad.any()  # a valid block runs no loop over its vertices
    fields = []
    start = 0
    for count in counts:
        stop = start + count
        messages = []
        for k in np.flatnonzero(bad[start:stop]).tolist() if checked else ():
            if outside[start + k]:
                messages.append(f"vertex {k} has entries outside [0, 1]")
            if unnormalised[start + k]:
                messages.append(f"vertex {k} does not sum to 1 "
                                f"(sum={sums[start + k]:.6g})")
        fields.append((block[start:stop], tuple(messages), not messages))
        start = stop
    return fields


@dataclass(frozen=True)
class VertexRow:
    """Credal row given by an explicit, nonempty list of pmfs.

    Linear objectives attain their extrema on the listed vertices, so the
    row behaves like the convex hull of the list for every purpose here.
    ``violations`` holds, vertex by vertex, a message for each vertex with an
    entry outside [0, 1] and each that does not sum to 1 (within
    ``EPS_PROB``), ``()`` when every vertex is a pmf; ``feasible`` is ``not
    violations``.  A row built here is the k=1 case of ``stack``: both run
    the same computation.
    """

    vertices: np.ndarray
    violations: tuple = field(init=False, repr=False, compare=False)
    feasible: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.vertices, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        (fields,) = _vertex_fields(arr, arr.shape[:1])
        _set_fields(self, fields)

    @classmethod
    def stack(cls, vertex_lists) -> tuple[VertexRow, ...]:
        """The rows ``VertexRow(vertex_lists[i])``, each a nonempty list of
        vertices of one common length, built from one ``(sum k, d)`` array.
        Each row's ``vertices`` is a read-only view of that frozen array."""
        counts = [len(vertices) for vertices in vertex_lists]
        block = np.array([v for vertices in vertex_lists for v in vertices],
                         dtype=float)
        return tuple(_set_fields(object.__new__(cls), values)
                     for values in _vertex_fields(block, counts))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def _maximize(self, obj) -> tuple:
        """Direct enumeration: the best listed vertex, ties to the lowest
        list index.  It reads ``self.vertices`` only, so a compiled
        ``ConstraintRow`` runs it too."""
        vertices = self.vertices
        # ``ndarray.dot`` has less call overhead than ``@`` and gives the same
        # bits for a 2-D by 1-D product.
        values = vertices.dot(obj.values)
        best = values.argmax()
        # ``vertices`` is frozen, so the chosen row is handed out as a view.
        return float(values[best]), vertices[best], 0


@dataclass(frozen=True)
class ConstraintRow:
    """Credal row {p : a @ p <= b, p >= 0, sum(p) = 1}.

    ``scaled_a`` and ``scaled_b`` hold each inequality divided by the
    max-norm of its coefficients (an all-zero inequality is left as it is),
    so that absolute tolerances mean the same on every row whatever its
    units; the simplex and ``row_contains`` both work on them.

    Phase 1 of the simplex does not depend on the objective, so it is solved
    here, once: ``simplex_start`` is its tableau and basis, which every
    simplex call over the row starts from and never writes to, or ``None``
    when no pmf satisfies the row.  An empty row can still be built and
    reported: ``violations`` is then ``("constraint system admits no pmf",)``
    (``()`` otherwise) and ``feasible`` is ``False``.

    A feasible row with at most ``VERTEX_BASES_MAX`` candidate bases, C(m+d,
    d-1), is compiled here as well: ``vertices`` is the frozen ``(k, d)``
    array of its vertices (see ``_find_vertices``), and every call takes the
    best of them, with 0 iterations, in place of phase 2.  ``vertices`` is
    ``None`` on a row that keeps the simplex; a row over the limit pays only
    the comparison of its basis count.
    """

    a: np.ndarray
    b: np.ndarray
    scaled_a: np.ndarray = field(init=False, repr=False, compare=False)
    scaled_b: np.ndarray = field(init=False, repr=False, compare=False)
    simplex_start: tuple | None = field(init=False, repr=False, compare=False)
    vertices: np.ndarray | None = field(init=False, repr=False, compare=False)
    violations: tuple = field(init=False, repr=False, compare=False)
    feasible: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise ValueError("constraint matrix must be two-dimensional")
        b = as_vector(self.b, size=a.shape[0], name="constraint bounds")
        if not np.all(np.isfinite(a)):
            raise ValueError("constraint matrix contains non-finite entries")
        norms = np.abs(a).max(axis=1, initial=0.0)
        norms[norms == 0.0] = 1.0
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "scaled_a", _freeze(a / norms[:, None]))
        # A subnormal norm can overflow b to +-inf, which is exact: on the
        # simplex |scaled_a @ p| <= 1, so +inf always holds and -inf never.
        with np.errstate(over="ignore"):
            object.__setattr__(self, "scaled_b", _freeze(b / norms))
        try:
            start, violations = _solve_phase_one(self), ()
        except InfeasibleRowError as exc:
            start, violations = None, (str(exc),)
        object.__setattr__(self, "simplex_start", start)
        m, d = a.shape
        compiled = start is not None and math.comb(m + d, d - 1) <= VERTEX_BASES_MAX
        object.__setattr__(self, "vertices", _find_vertices(self) if compiled else None)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "feasible", start is not None)

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def _maximize(self, obj) -> tuple:
        """The best of the row's ``vertices`` when it has them, by
        ``VertexRow._maximize``, with 0 iterations; otherwise phase 2 of the
        simplex, ``_simplex_maximize``."""
        if self.vertices is None:
            return _simplex_maximize(self, obj)
        return VertexRow._maximize(self, obj)


def _simplex_maximize(row: ConstraintRow, obj) -> tuple:
    """Phase 2 of the simplex for max c @ p over the row's scaled
    inequalities, where ``c`` is ``obj.values``: it minimises ``-c``, the
    values of ``obj.negation``, from a copy of the kept phase-1 start, and
    counts its own pivots only.  A row without a start raises
    ``InfeasibleRowError``.  The feasible set lies in the probability
    simplex, so an unbounded ray is a numeric breakdown, which ``_run_phase``
    raises as ``NumericalError``.
    """
    if row.simplex_start is None:
        raise InfeasibleRowError("constraint system admits no pmf")
    start, basis = row.simplex_start
    d = row.dim
    costs = obj.negation.values.tolist()
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
    return float(obj.values.dot(p)), p, iterations


def _find_vertices(row: ConstraintRow) -> np.ndarray | None:
    """The vertices of a feasible row, as a frozen ``(k, d)`` array, or
    ``None`` when the row keeps the simplex.

    Each candidate basis is an active set: ``d - 1`` of the scaled
    inequalities and the bounds ``p >= 0``, held as equalities together with
    ``sum(p) = 1``.  All of them are solved at once.  A set whose LU
    factorisation has a zero pivot has no unique solution and is skipped, as
    is a set with an infinite bound (see ``ConstraintRow``).  Every vertex
    solves some regular set, so the list misses none as long as every
    regular set is well conditioned: the row keeps the simplex when one has
    a 1-norm condition number above ``VERTEX_COND_MAX``.

    Each solution is then judged by how far it misses the row, the largest
    excess of ``scaled_a @ p`` over ``scaled_b`` or of ``-p`` over 0.  A
    vertex misses it by rounding only, below ``4·d·ε·cond`` for its set's
    condition number (measured: under a tenth of that), and is kept.  A
    solution that misses by more than ``EPS_FEAS`` is outside and dropped.
    One in between is a near-vertex: keeping it could loosen the bound by up
    to ``EPS_FEAS``, and a row accepted by phase 1 within ``EPS_FEAS`` may
    have no exact vertex at all, so such a row keeps the simplex, as does a
    row with no solution kept.
    """
    m, d = row.scaled_a.shape
    lhs = np.concatenate([row.scaled_a, -np.eye(d)])
    rhs = np.concatenate([row.scaled_b, np.zeros(d)])
    active = list(combinations(range(m + d), d - 1))
    active = np.array(active, dtype=np.intp).reshape(len(active), d - 1)
    systems = np.ones((active.shape[0], d, d))
    systems[:, :-1] = lhs[active]
    targets = np.ones((active.shape[0], d, 1))
    targets[:, :-1, 0] = rhs[active]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A zero pivot makes the log-determinant -inf and the sign 0.
        sign, _ = np.linalg.slogdet(systems)
        regular = (sign != 0.0) & np.isfinite(targets).all(axis=(1, 2))
        systems, targets = systems[regular], targets[regular]
        norms = np.abs(systems).sum(axis=1).max(axis=1)
        cond = norms * np.abs(np.linalg.inv(systems)).sum(axis=1).max(axis=1)
        if not (cond <= VERTEX_COND_MAX).all():  # a NaN fails too
            return None
        points = np.linalg.solve(systems, targets)[:, :, 0]
        excess = (points @ row.scaled_a.T - row.scaled_b).max(axis=1, initial=-math.inf)
        miss = np.maximum(excess, -points.min(axis=1))
    vertex = miss <= 4.0 * d * np.finfo(float).eps * cond
    if not vertex.any() or (~vertex & (miss <= EPS_FEAS)).any():
        return None
    # A bound p_i >= 0 held as -p_i = 0 solves to -0.0; adding 0.0 gives the
    # 0.0 the simplex leaves there.
    return _freeze(points[vertex] + 0.0)


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


CredalRow = Union[IntervalRow, VertexRow, ConstraintRow]


@dataclass(frozen=True)
class ImpreciseMarkovChain:
    """A credal set of initial distributions plus one credal row per state.

    ``rows[i]`` constrains the one-step transition distribution out of state
    ``states.labels[i]``; the rows are specified separately, so every
    optimisation decomposes per state.  Instances are immutable; use
    ``validate_model`` to collect invariant violations.
    """

    states: StateSpace
    initial: CredalRow
    rows: tuple[CredalRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def size(self) -> int:
        return self.states.size


def row_contains(row: CredalRow, p) -> bool:
    """Membership test of a pmf in a credal row, within ``EPS_FEAS``.

    Vertex rows test proximity to one of the listed vertices, which is the
    membership notion relevant for optimiser output.  Constraint rows are
    tested on their scaled inequalities, as the simplex sees them.
    """
    p = as_vector(p, size=row.dim, name="pmf")
    tol = EPS_FEAS
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sum
        total = float(p.sum())
    if abs(total - 1.0) > tol or np.any(p < -tol):
        return False
    if isinstance(row, IntervalRow):
        return bool(np.all(p >= row.lower - tol) and np.all(p <= row.upper + tol))
    if isinstance(row, VertexRow):
        return bool(np.min(np.max(np.abs(row.vertices - p), axis=1)) <= tol)
    if isinstance(row, ConstraintRow):
        return bool(np.all(row.scaled_a @ p <= row.scaled_b + tol))
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


def validate_model(model: ImpreciseMarkovChain) -> list[str]:
    """Collect every invariant violation of a model; empty means valid.

    The violations are listed row by row, in state order, then those of
    the initial set.  Every row holds its own from construction."""
    size = model.states.size
    out: list[str] = []
    if len(model.rows) != size:
        out.append(f"model has {len(model.rows)} transition rows, expected {size}")
    rows = [*model.rows[:size], model.initial]
    labels = model.states.labels
    for i, row in enumerate(rows):
        if not isinstance(row, (IntervalRow, VertexRow, ConstraintRow)):
            messages = [f"unsupported row type {type(row).__name__}"]
        elif row.dim != size:
            messages = [f"dimension {row.dim} does not match state count {size}"]
        else:
            messages = row.violations
        if messages:
            where = "initial set" if i == len(rows) - 1 else f"row {labels[i]!r}"
            out.extend(f"{where}: {message}" for message in messages)
    return out
