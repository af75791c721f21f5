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
sorting solution, a greedy pour of the slack in the objective's stable order,
one plain-Python loop over inputs each row keeps as Python floats, which
stops once the slack is spent.  Vertex rows use direct enumeration;
constraint rows run a dense two-phase simplex restricted to the probability
simplex, or, when small, enumerate a vertex list found once.

The interval pour and the vertex enumeration also have one numpy kernel each
that solves many lines, a line being a row and an objective, with the bits
of the call: ``_pour`` and ``_best_vertices``, whose products go through
``_matvec``.  Both batch shapes use them.  A transition, one objective over
many rows, first solves every row of the model's ``pour_stacks``, the rows
built together of one kind that are numerous enough to repay it
(``STACK_POUR_MIN_ENTRIES``, ``VERTEX_STACK_MIN_ROWS``), and each row's call
then reads its line of its stack.  A contraction, one row over many
objectives, gets the lines of a row's blocks from the row's ``_lines``, and
each block's objective carries its line to its call (see
``lp.Objective.blocks``).  Every solution still costs one call, and a row
short of mass or empty has no line, so its call runs the loop and raises.
Simplex rows have no kernel: each call runs phase 2.

The simplex lives here, next to ``ConstraintRow``, which solves phase 1 once
when it is built, checks that its start lies in the row and keeps it; each
call runs phase 2 from that start, which it only reads, in plain Python
floats.  A pivot updates in full only the pivot row, the reduced-cost row
and the right-hand side; every other row catches up on the pivots it missed
when it is read, entry by entry in a ratio test or in full as a pivot row,
with the same steps in the same order, so every bit is that of a tableau
updated in full.  The tableaux, and the pour of one row or of a few lines,
are too small for numpy's per-operation overhead to pay off.
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
from itertools import combinations, repeat
from operator import getitem
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
# A transition pours all the rows of an interval stack in one numpy pass (see
# ``_IntervalStack.pour``) when the stack holds at least this many entries, k
# rows of d states.  Per transition on a 2-core VM (best of 5, d = k), the
# pass takes 2.2 times as long as the per-row loop at d = 3 and 1.2 at 100
# entries; from about 250 to 400 entries the two are within the machine's
# run-to-run spread, and from 500 up every run measured favours the pass:
# 0.46-0.75 of the loop at 506 entries, 0.5 at the ``interval-wide``
# benchmark's 2550 (k = 51, d = 50).
STACK_POUR_MIN_ENTRIES = 500
# A transition solves all the vertex rows of a stack with one vertex count in
# one gemv (see ``_VertexStack.pour``) when there are at least this many.
# Per transition on a 2-core Xeon VM (numpy 2.4.6; best of 300 interleaved,
# r stack rows of d states and the rest built alone), the gemv took 1.1-1.6
# times as long as the per-row calls at r = 2 to 6, 0.99-1.01 at r = 8 for
# d from 10 to 50, 0.90 at r = d = 10 (the ``vertex-limit`` benchmark's
# rows) and 0.61 at r = d = 50.
VERTEX_STACK_MIN_ROWS = 8


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


# The line of an objective that carries none (see ``lp.Objective``).  A line
# is ``(row, solved, i)``: the row, a kernel's results for a batch of its
# objectives, and the objective's index in them (see ``IntervalRow._lines``).
_NO_LINE = (None, None, None)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a[..., i, :]`` times ``x[..., :]`` for every matrix of the stack
    ``a``, shape ``(..., k, d)``, and its vector in ``x``, shape ``(..., d)``
    or one ``(d,)`` for all: the ``(..., k)`` products, each with the bits
    that ``ndarray.dot`` gives on that one matrix and vector.

    ``np.matmul`` runs, item by item, the BLAS call that ``ndarray.dot``
    runs on one pair: gemv, or dot when the matrix has one row.  So a ``(m,
    1, d)`` stack gives m dot products of lines, and a ``(k, d)`` matrix is
    never multiplied as a block of lines, which sums in another order.  Both
    sum from 0.0, which turns a product of -0.0 into 0.0, except where
    ``ndarray.dot`` meets two operands of one entry each, a ``(1, 1)``
    matrix, or a line, by a one-entry vector: it multiplies them, and so
    does this."""
    if a.shape[-2:] == (1, 1):
        return a[..., 0] * x
    return np.matmul(a, x[..., None])[..., 0]


def _pour(inputs: np.ndarray, order: np.ndarray, objective: np.ndarray):
    """The sorting solution of many lines in one numpy pass, with the
    results of ``IntervalRow._maximize``'s loop, bit for bit: the lines'
    values, a list, their maximizers, the rows of a read-only ``(m, d)``
    array, their iteration counts, a list, and the indices of the lines
    whose row is short of mass beyond ``EPS_FEAS``, a list, which has none
    but those, as the loop raises there.

    A line is a row and an objective.  Either k rows share one objective, in
    a transition: ``inputs`` is their ``(2d + 1, k)`` array of pour inputs
    (see ``_IntervalStack``), ``order`` the objective's order, shape
    ``(d,)``, and ``objective`` its ``(d,)`` values.  Or one row takes m
    objectives, in a contraction: ``inputs`` is the row's ``(2d + 1,)``
    column, ``order`` holds the m orders as columns, ``(d, m)``, and
    ``objective`` the ``(m, d)`` values.

    The inputs are gathered in each line's order, one state per line of the
    array, and the running slack before each state is
    ``np.subtract.accumulate`` down the slack and the headrooms, the loop's
    own sequence of subtractions, for all lines at once.  Each state's share
    is its headroom, or the running slack when the headroom is larger (the
    loop's ``add > left``, not ``np.minimum``), which spends the slack: the
    accumulated slack then turns negative where the loop's is 0.  The loop
    stops at the first state whose running slack is ``<= 0.0``, and every
    later one is too, as a headroom is never negative; there the share is
    the slack or a zero headroom, so a state takes mass exactly when its
    share is above 0.  A NaN slack is never spent, and every state with
    headroom takes it, as in the loop.  A line is short when its slack after
    the last state is above ``EPS_FEAS``, since a loop that stopped early
    ends at or below 0 there.  Only states that take mass are written, so a
    lower bound of -0.0 stays.  The maximizers are scattered back to state
    order, and the values are m dot products in one ``_matvec``.
    """
    d = order.shape[0]
    head = np.zeros((1,) + order.shape[1:], dtype=order.dtype)
    gathered = inputs[np.concatenate((head, order + 1, order + d + 1))]
    share = gathered[1 : d + 1]
    lower = gathered[d + 1 :]
    left = np.subtract.accumulate(gathered[: d + 1], axis=0)
    np.copyto(share, left[:-1], where=share > left[:-1])
    taken = share > 0.0
    np.add(lower, share, out=lower, where=taken)
    p = np.empty(lower.shape[::-1])
    if order.ndim == 1:
        p[:, order] = lower.T
    else:
        p[np.arange(len(p))[:, None], order.T] = lower.T
    p.flags.writeable = False
    values = _matvec(p[:, None, :], objective)[:, 0].tolist()
    short = np.flatnonzero(left[-1] > EPS_FEAS).tolist()
    return values, p, taken.sum(axis=0).tolist(), short


def _best_vertex(vertices: np.ndarray, obj) -> tuple:
    """The vertex kernel of one call: the best row of the frozen ``(k, d)``
    array ``vertices`` for ``obj``, ties to the lowest index, with 0
    iterations; the vertex is handed out as a read-only view."""
    # ``ndarray.dot`` has less call overhead than ``@`` and gives the same
    # bits for a 2-D by 1-D product.
    values = vertices.dot(obj.values)
    best = values.argmax()
    return float(values[best]), vertices[best], 0


def _best_vertices(stacked: np.ndarray, objective: np.ndarray):
    """The vertex kernel of many lines: for each matrix of ``stacked`` and its
    objective in ``objective`` (see ``_matvec``), the value of the best
    vertex and its index, ties to the lowest, as two lists; the bits of
    ``_best_vertex`` on each, as ``argmax`` along a line takes the first
    maximum, as it does on one vector."""
    values = _matvec(stacked, objective)
    best = values.argmax(axis=1)
    return values[np.arange(len(best)), best].tolist(), best.tolist()


def _vertex_lines(row, objective: np.ndarray) -> list:
    """The lines of a row solved over its ``vertices`` (a vertex row, or a
    constraint row that has them) for the ``(m, d)`` objectives, as
    ``_lines`` returns them (see ``IntervalRow._lines``): ``solved`` is the
    values and the indices of the best vertices."""
    values, best = _best_vertices(row.vertices, objective)
    solved = (values, best)
    return [(row, solved, i) for i in range(len(values))]


class _IntervalStack:
    """The interval rows built together, by one ``IntervalRow.stack`` or one
    ``IntervalRow(lower, upper)``: their pour inputs as one frozen ``(2d + 1,
    k)`` array, ``inputs``, whose column i is row i's slack, its headroom
    and its lower bounds (the three parts of ``IntervalRow.pour``), and
    ``poured``, the result of the last ``pour``.

    ``poured`` is one tuple ``(objective, lines)``: the objective poured and
    a list of each row's ``(value, maximizer, iterations)``, or ``None`` for
    a row short of mass (see ``_pour``).  Row i's ``_maximize`` reads line i
    when it is given that same objective (see ``IntervalRow``), so a line is
    never read for another objective.  Before the first pour no objective
    is held.
    """

    __slots__ = ("inputs", "poured")

    def __init__(self, inputs: np.ndarray):
        inputs.flags.writeable = False
        self.inputs = inputs
        self.poured = (None, None)

    def pours(self, d: int) -> bool:
        """Whether a transition over d states pours this stack: its rows are
        d wide and hold at least ``STACK_POUR_MIN_ENTRIES`` entries."""
        rows = self.inputs.shape[1]
        return self.inputs.shape[0] == 2 * d + 1 and rows * d >= STACK_POUR_MIN_ENTRIES

    def pour(self, obj) -> None:
        """Pour the slack of every row for ``obj`` in one numpy pass
        (``_pour``), in the objective's kept order."""
        values, p, iterations, short = _pour(
            self.inputs, np.array(obj.order()), obj.values
        )
        lines = list(zip(values, p, iterations))
        for i in short:
            lines[i] = None
        self.poured = (obj, lines)


def _interval_fields(lower: np.ndarray, upper: np.ndarray):
    """The fields ``(lower, upper, pour, empty, violations, feasible,
    stacked_in, line)`` of k interval rows, row by row, from frozen ``(k,
    d)`` bounds: views of the bounds, a tuple of plain Python floats, a bool,
    a tuple of messages, a bool, their one ``_IntervalStack`` and the row's
    index in it (see ``IntervalRow``).  Each row's sums are the ones
    ``lower[i].sum()`` and ``upper[i].sum()`` give, bit for bit."""
    k, d = lower.shape
    with np.errstate(over="ignore", invalid="ignore"):
        lower_sum = lower.sum(axis=1)
        upper_sum = upper.sum(axis=1)
        inputs = np.empty((2 * d + 1, k))
        np.subtract(1.0, lower_sum, out=inputs[0])
        np.maximum((upper - lower).T, 0.0, out=inputs[1 : d + 1])
    inputs[d + 1 :] = lower.T
    pours = [(line[0], tuple(line[1 : d + 1]), tuple(line[d + 1 :]))
             for line in inputs.T.tolist()]
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
    violations = [()] * k
    for i in np.flatnonzero(fails.any(axis=0)).tolist():
        messages = (
            "negative lower bound",
            "upper bound above 1",
            "lower bound exceeds upper bound",
            f"sum of lower bounds exceeds 1 (sum={lower_sum[i]:.6g})",
            f"sum of upper bounds is below 1 (sum={upper_sum[i]:.6g})",
        )
        violations[i] = tuple(m for m, fail in zip(messages, fails[:, i]) if fail)
    return zip(lower, upper, pours, empty.tolist(), violations, feasible.tolist(),
               repeat(_IntervalStack(inputs)), range(k))


@dataclass(frozen=True)
class IntervalRow:
    """Credal row given by componentwise probability bounds.

    The row is the set of pmfs p with lower <= p <= upper.  Construction
    does not require the row to be nonempty, so an empty row can still be
    built and reported.

    The bounds never change, so what is read from them later is computed
    once here: ``pour`` is ``(slack, headroom, lower)`` in plain Python
    floats, the inputs of ``_maximize``: the slack ``1 - sum(lower)``, a
    tuple of each state's headroom, ``upper - lower`` clipped at 0, and a
    tuple of the lower bounds; ``empty`` flags a row whose lower bounds
    exceed its upper bounds or sum above 1; ``violations`` holds a message
    for each rule the row breaks (lower >= 0, upper <= 1, lower <= upper,
    sum(lower) <= 1 <= sum(upper), each within ``EPS_PROB``), ``()`` for a
    valid row; ``feasible`` flags a row that holds a pmf: not empty, lower >=
    0 and sum(upper) >= 1 (an upper bound above 1 leaves it feasible).  A row
    built here is the k=1 case of ``stack``: both run the same computation on
    ``(k, d)`` arrays.  The rows built together share one ``_IntervalStack``,
    ``stacked_in``, which can pour all of them at once, and ``line`` is the
    row's index in it.
    """

    lower: np.ndarray
    upper: np.ndarray
    pour: tuple = field(init=False, repr=False, compare=False)
    empty: bool = field(init=False, repr=False, compare=False)
    violations: tuple = field(init=False, repr=False, compare=False)
    feasible: bool = field(init=False, repr=False, compare=False)
    stacked_in: _IntervalStack = field(init=False, repr=False, compare=False)
    line: int = field(init=False, repr=False, compare=False)

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

    def _lines(self, objective: np.ndarray, order: np.ndarray) -> list | None:
        """The lines of the m objectives ``objective``, ``(m, d)``, whose
        orders are the rows of ``order`` (see ``Objective.order``), found in
        one ``_pour``: ``(self, solved, i)`` for objective i, where
        ``solved`` is the pour's values, maximizers and iteration counts,
        the line that ``_maximize`` reads from an objective (see
        ``lp.Objective.blocks``), or ``_NO_LINE`` where the row is short of
        mass, so that call runs the loop and raises its error.  An empty row
        has no lines: ``None``.  A line's maximizer, a view, is made when
        its call reads it, so a chunk's lines hold only the kernel's arrays
        and lists and one small tuple each."""
        if self.empty:
            return None
        column = self.stacked_in.inputs[:, self.line]
        values, p, iterations, short = _pour(column, order.T, objective)
        solved = (values, p, iterations)
        lines = [(self, solved, i) for i in range(len(values))]
        for i in short:
            lines[i] = _NO_LINE
        return lines

    def _maximize(self, obj) -> tuple:
        """The exact sorting solution: start at the lower bounds, then pour
        the slack into the states in decreasing objective order (see
        ``Objective.order``), each up to its upper bound.

        One plain-Python loop gives each state ``min(headroom, left)`` while
        the running slack ``left`` is above 0, the sequential pour, so the
        result matches it bit for bit.  The slack never grows, so the loop
        stops at the first state where it is spent: no later state could
        take mass.  A row still short of mass by more than ``EPS_FEAS`` can
        only be found when the loop runs to the end.  Only states that take
        mass are written, which keeps a lower bound of -0.0 as it is; the
        iteration count is the number of states that took mass.

        The loop is the reference; two bulk solutions stand in for it, each
        with its bits (see ``_pour``).  An objective that carries a line for
        this row, a contraction block's, hands it back; and when the row's
        stack was last poured for this same objective, a transition's, the
        row reads its line of that pour.  A row short of mass has no line
        in either, so it runs the loop, which raises.
        """
        row, solved, i = obj._line
        if row is self:
            values, p, iterations = solved
            return values[i], p[i], iterations[i]
        if self.empty:
            raise InfeasibleRowError("interval row is empty")
        poured = self.stacked_in.poured
        if poured[0] is obj:
            line = poured[1][self.line]
            if line is not None:
                return line
        left, headroom, lower = self.pour
        p = self.lower.copy()
        taken = 0
        for i in obj.order():
            if left <= 0.0:
                break
            add = headroom[i]
            if add > 0.0:
                if add > left:
                    add = left
                p[i] = lower[i] + add
                left -= add
                taken += 1
        else:
            if left > EPS_FEAS:
                raise InfeasibleRowError("interval row has total upper mass below 1")
        return float(obj.values.dot(p)), p, taken


class _VertexStack:
    """The vertex rows of one ``VertexRow.stack``, or one ``VertexRow``, that
    list k vertices each: ``vertices``, the rows' own ``(k, d)`` arrays, in
    order; ``stacked``, a frozen ``(r, k, d)`` copy of them for the gemv
    of ``_best_vertices``; and ``poured``, the result of the last ``pour``,
    one tuple ``(objective, lines)`` as ``_IntervalStack`` keeps it.  Rows
    with another vertex count are in another stack: a matrix is never
    padded, as a padded gemv sums in another order."""

    __slots__ = ("vertices", "stacked", "poured")

    def __init__(self, vertices: tuple):
        self.vertices = vertices
        self.stacked = _freeze(np.stack(vertices))
        self.poured = (None, None)

    def pours(self, d: int) -> bool:
        """Whether a transition over d states pours this stack: its rows are
        d wide and there are at least ``VERTEX_STACK_MIN_ROWS`` of them."""
        r, _, width = self.stacked.shape
        return width == d and r >= VERTEX_STACK_MIN_ROWS

    def pour(self, obj) -> None:
        """Solve every row for ``obj`` in one ``_best_vertices``; each line's
        maximizer is a view of its row's ``vertices``, as in a call."""
        values, best = _best_vertices(self.stacked, obj.values)
        maximizers = map(getitem, self.vertices, best)
        self.poured = (obj, list(zip(values, maximizers, repeat(0))))


def _vertex_fields(block: np.ndarray, counts):
    """The fields ``(vertices, violations, feasible, stacked_in, line)`` of the
    vertex rows that take ``counts[i]`` rows of the ``(sum k, d)`` array
    ``block`` each, in order (see ``VertexRow``); ``vertices`` are read-only
    views of ``block``, frozen here, and the rows with one vertex count
    share one ``_VertexStack``.  Raises ``ValueError`` on an empty list or a
    non-finite entry."""
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
    by_count: dict[int, list] = {}
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
        fields.append([block[start:stop], tuple(messages), not messages])
        by_count.setdefault(count, []).append(fields[-1])
        start = stop
    for members in by_count.values():
        stack = _VertexStack(tuple(row[0] for row in members))
        for line, row in enumerate(members):
            row += (stack, line)
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
    the same computation.  The rows built together that list the same
    number of vertices share one ``_VertexStack``, ``stacked_in``, which
    can solve all of them at once, and ``line`` is the row's index in it.
    """

    vertices: np.ndarray
    violations: tuple = field(init=False, repr=False, compare=False)
    feasible: bool = field(init=False, repr=False, compare=False)
    stacked_in: _VertexStack = field(init=False, repr=False, compare=False)
    line: int = field(init=False, repr=False, compare=False)

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

    def _lines(self, objective: np.ndarray, order=None) -> list:
        """The lines of the ``(m, d)`` objectives, in one ``_best_vertices``
        (see ``IntervalRow._lines``)."""
        return _vertex_lines(self, objective)

    def _maximize(self, obj) -> tuple:
        """Direct enumeration: the best listed vertex, ties to the lowest
        list index (``_best_vertex``).  An objective that carries a line for
        this row hands it back, and a row whose stack was last poured for
        this same objective reads its line of that pour, as an interval row
        does."""
        row, solved, i = obj._line
        if row is self:
            values, best = solved
            return values[i], self.vertices[best[i]], 0
        poured = self.stacked_in.poured
        if poured[0] is obj:
            return poured[1][self.line]
        return _best_vertex(self.vertices, obj)


@dataclass(frozen=True)
class ConstraintRow:
    """Credal row {p : a @ p <= b, p >= 0, sum(p) = 1}.

    ``scaled_a`` and ``scaled_b`` hold each inequality divided by the
    max-norm of its coefficients (an all-zero inequality is left as it is),
    so that absolute tolerances mean the same on every row whatever its
    units; the simplex and ``row_contains`` both work on them.

    Phase 1 of the simplex does not depend on the objective, so it is solved
    here, once: ``simplex_start`` is its tableau, with every row brought up
    to date, and basis, which every simplex call over the row starts from
    and never writes to, or ``None`` when no pmf satisfies the row.  A row
    that keeps the simplex raises ``NumericalError`` when that start misses
    the row by more than ``EPS_FEAS`` (see ``_check_start``).  An empty row
    can still be built and reported: ``violations`` is then ``("constraint
    system admits no pmf",)`` (``()`` otherwise) and ``feasible`` is
    ``False``.

    A feasible row with at most ``VERTEX_BASES_MAX`` candidate bases, C(m+d,
    d-1), is compiled here as well: ``vertices`` is the frozen ``(k, d)``
    array of its vertices (see ``_find_vertices``), and every call takes the
    best of them, with 0 iterations, in place of phase 2.  ``vertices`` is
    ``None`` on a row that keeps the simplex; a row over the limit pays only
    the comparison of its basis count and the check of its start.
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
        if not np.isfinite(a).all():
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
        vertices = _find_vertices(self) if compiled else None
        if start is not None and vertices is None:
            tableau, basis = start
            _check_start(self, _basic_point([trow[-1] for trow in tableau], basis, d))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "feasible", start is not None)

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def _lines(self, objective: np.ndarray, order=None) -> list | None:
        """The lines of the ``(m, d)`` objectives over the row's
        ``vertices``, as a vertex row finds them; ``None`` on a row that
        keeps the simplex, which solves each call on its own."""
        return None if self.vertices is None else _vertex_lines(self, objective)

    def _maximize(self, obj) -> tuple:
        """The line an objective carries for this row, if any (see
        ``VertexRow._maximize``); else the best of the row's ``vertices``
        when it has them, by ``_best_vertex``, with 0 iterations; otherwise
        phase 2 of the simplex, ``_simplex_maximize``."""
        row, solved, i = obj._line
        if row is self:
            values, best = solved
            return values[i], self.vertices[best[i]], 0
        if self.vertices is None:
            return _simplex_maximize(self, obj)
        return _best_vertex(self.vertices, obj)


def _simplex_maximize(row: ConstraintRow, obj) -> tuple:
    """Phase 2 of the simplex for max c @ p over the row's scaled
    inequalities, where ``c`` is ``obj.values``: it minimises ``-c``, the
    values of ``obj.negation``, from the kept phase-1 start, which it reads
    and never writes, and counts its own pivots only.  Only the right-hand
    side is read at the end, so the rows that missed pivots are never
    brought up to date (see ``_run_phase``).  A row without a start raises
    ``InfeasibleRowError``.  The feasible set lies in the probability
    simplex, so an unbounded ray is a numeric breakdown, which ``_run_phase``
    raises as ``NumericalError``.
    """
    if row.simplex_start is None:
        raise InfeasibleRowError("constraint system admits no pmf")
    start, basis = row.simplex_start
    d = row.dim
    costs = obj.negation.values.tolist()
    reduced = _reduced_costs(start, [costs[k] if k < d else 0.0 for k in basis], costs)
    rhs = [trow[-1] for trow in start]
    basis = list(basis)
    iterations = _run_phase(list(start), [[] for _ in basis], rhs, basis, reduced)[0]
    p = _basic_point(rhs, basis, d)
    return float(obj.values.dot(p)), p, iterations


def _basic_point(rhs, basis, d: int) -> np.ndarray:
    """The pmf of a simplex tableau with right-hand side ``rhs``: each basic
    structural column's right-hand side, 0 elsewhere."""
    p = np.zeros(d)
    for i, k in enumerate(basis):
        if k < d:
            p[k] = rhs[i]
    return p


def _check_start(row: ConstraintRow, p: np.ndarray) -> None:
    """Raise ``NumericalError`` unless the phase-1 start ``p`` meets
    ``p >= 0`` and the scaled inequalities within ``EPS_FEAS``.

    Pivots on tiny entries of a badly scaled row can carry phase 1 out of
    the row while its objective still reads feasible; every phase 2 would
    then start, and may stop, outside the row, a silently wrong bound.  A
    row accepted within ``EPS_FEAS`` passes: each artificial left in the
    basis is at most that.  The sum is not tested: rounding in phase 1 can
    leave it just over ``EPS_FEAS`` from 1 on a row it does not leave (a
    d=10 row with a 1e-8 coefficient kept a start summing to 1 + 1.1e-8).
    A NaN fails every comparison, so it raises too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inside = (p >= -EPS_FEAS).all() and (
            row.scaled_a @ p <= row.scaled_b + EPS_FEAS
        ).all()
    if not inside:
        raise NumericalError(
            "phase 1 of the simplex left the constraint row: its start misses "
            "the row by more than EPS_FEAS"
        )


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
    and a basic artificial keeps its column index ``d + m + j``.

    Phase 1 and the drive-out pivot through ``_pivot``, which leaves the
    rows that are not pivot rows behind; each row is brought up to date
    when the drive-out reads it and, once, before it is kept, so the start
    is the full tableau, with the bits of one that updates every row at
    every pivot.  Rows are tuples, so the start cannot be written to once
    it is kept.

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

    reduced = _reduced_costs(
        tableau, [1.0 if k >= n_cols else 0.0 for k in basis], []
    )
    missed = [[] for _ in basis]
    rhs = [trow[-1] for trow in tableau]
    if -_run_phase(tableau, missed, rhs, basis, reduced)[1][-1] > EPS_FEAS:
        raise InfeasibleRowError("constraint system admits no pmf")
    for i in range(m + 1):
        if basis[i] >= n_cols:
            trow = _catch_up(tableau, missed, i)
            for j in range(n_cols):
                if abs(trow[j]) > PIVOT_TOL:
                    column = [_catch_up(tableau, missed, k)[j] for k in range(m + 1)]
                    _pivot(tableau, missed, rhs, i, j, column)
                    basis[i] = j
                    break

    start = tuple(tuple(_applied(trow, todo)) for trow, todo in zip(tableau, missed))
    return start, tuple(basis)


def _reduced_costs(tableau, basic_costs: list, costs: list) -> list:
    """Reduced-cost row for minimising ``costs @ x`` (zero past the end of
    ``costs``), given the cost of each row's basic variable."""
    obj = costs + [0.0] * (len(tableau[0]) - len(costs))
    basic = [(cb, trow) for trow, cb in zip(tableau, basic_costs) if cb != 0.0]
    return _applied(obj, basic)


def _run_phase(rows: list, missed: list, rhs: list, basis: list, obj: list):
    """Pivot until no reduced cost is below ``-PIVOT_TOL``; returns the pivot
    count and the final reduced-cost row.

    ``obj`` is the reduced-cost row and ``rows`` the constraint rows, whose
    basic variables are listed in ``basis`` and whose right-hand sides are
    ``rhs``.  A row is kept as its last full version, ``rows[i]``, plus
    ``missed[i]``, the pivots it has not applied yet (see ``_pivot``);
    ``obj`` and ``rhs`` are always up to date.  The ratio test catches up
    only the entries of the entering column, which are the factors the
    pivot logs.  Each entry gets the steps ``x - f*y`` of the pivots it
    missed, in order, as it would have when every pivot updated it, so the
    pivots and every value are those of a tableau updated in full.

    Entering candidates are the structural and slack columns.  The entering
    column is the one with the most negative reduced cost, lowest index on
    ties (Dantzig's rule), except right after a degenerate pivot (ratio at
    most ``PIVOT_TOL``), when it is the first column below ``-PIVOT_TOL``
    (Bland's rule).  The leaving row is always chosen by the minimum ratio,
    ties to the lowest basic index, as Bland's rule asks.

    This cannot cycle.  A pivot that is not degenerate lowers the objective,
    so a basis can only recur through degenerate pivots alone.  In such a
    cycle every pivot follows a degenerate pivot, so every pivot is chosen
    by Bland's rule, and Bland's rule never cycles (Bland 1977).
    """
    n_cols = len(obj) - 1
    pivots = 0
    degenerate = False
    while True:
        enter = -1
        least = -PIVOT_TOL
        for j in range(n_cols):
            if obj[j] < least:
                enter = j
                if degenerate:
                    break
                least = obj[j]
        if enter < 0:
            return pivots, obj
        column = []
        leave = -1
        best_ratio = math.inf
        for i, pending in enumerate(missed):
            coef = rows[i][enter]
            for f, y in pending:
                coef = coef - f * y[enter]
            column.append(coef)
            if coef > PIVOT_TOL:
                ratio = rhs[i] / coef
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
        pivot_row = _pivot(rows, missed, rhs, leave, enter, column)
        factor = obj[enter]
        obj = [x - factor * y for x, y in zip(obj, pivot_row)]
        basis[leave] = enter
        pivots += 1
        degenerate = best_ratio <= PIVOT_TOL


def _pivot(rows: list, missed: list, rhs: list, r: int, j: int, column: list) -> list:
    """Pivot on row ``r`` and column ``j``, whose entries, up to date, are
    ``column``; returns the pivot row, scaled so that its entry in column
    ``j`` is 1.

    Only the pivot row and the right-hand side are updated in full: every
    other row with a nonzero entry in column ``j`` logs the factor and the
    pivot row in ``missed`` and applies them when it is read in full
    (``_catch_up``).  Rows are replaced by new lists, never written in
    place, so rows shared with the kept phase-1 start leave it unchanged.
    """
    pivot_value = column[r]
    trow = rows[r]
    pending = missed[r]
    # The last one or two missed pivots are applied in the pass that scales
    # the row.
    if len(pending) > 1:
        if len(pending) > 2:
            trow = _applied(trow, pending[:-2])
        (f, y), (g, z) = pending[-2:]
        pivot_row = [(x - f * a - g * b) / pivot_value
                     for x, a, b in zip(trow, y, z)]
    elif pending:
        ((f, y),) = pending
        pivot_row = [(x - f * a) / pivot_value for x, a in zip(trow, y)]
    else:
        pivot_row = [x / pivot_value for x in trow]
    missed[r] = []
    rows[r] = pivot_row
    level = pivot_row[-1]
    for i, factor in enumerate(column):
        if factor != 0.0 and i != r:
            missed[i].append((factor, pivot_row))
            rhs[i] = rhs[i] - factor * level
    rhs[r] = level
    return pivot_row


def _catch_up(rows: list, missed: list, i: int):
    """Row ``i`` brought up to date: apply the pivots it missed, keep the
    result as its full version and return it."""
    if missed[i]:
        rows[i] = _applied(rows[i], missed[i])
        missed[i] = []
    return rows[i]


def _applied(trow, pending: list):
    """``trow`` with the missed pivots ``pending``, ``(factor, pivot_row)``
    pairs, applied in order: each entry ``x`` becomes ``x - factor * y``.

    Up to three pivots go in one pass over the row, which costs less than
    three passes: ``x - f*a - g*b`` is ``(x - f*a) - g*b``, the same steps.
    """
    k = 0
    while len(pending) - k >= 3:
        (f, y), (g, z), (h, w) = pending[k : k + 3]
        trow = [x - f * a - g * b - h * c for x, a, b, c in zip(trow, y, z, w)]
        k += 3
    if len(pending) - k == 2:
        (f, y), (g, z) = pending[k:]
        trow = [x - f * a - g * b for x, a, b in zip(trow, y, z)]
    elif len(pending) - k == 1:
        f, y = pending[k]
        trow = [x - f * a for x, a in zip(trow, y)]
    return trow


CredalRow = Union[IntervalRow, VertexRow, ConstraintRow]


@dataclass(frozen=True)
class ImpreciseMarkovChain:
    """A credal set of initial distributions plus one credal row per state.

    ``rows[i]`` constrains the one-step transition distribution out of state
    ``states.labels[i]``; the rows are specified separately, so every
    optimisation decomposes per state.  Instances are immutable; use
    ``validate_model`` to collect invariant violations.

    ``pour_stacks`` holds the stacks of the rows in ``rows`` that a
    transition pours (see ``_IntervalStack.pours`` and
    ``_VertexStack.pours``), in row order: ``pour`` solves each of them in
    one pass before the rows are solved one call at a time.
    """

    states: StateSpace
    initial: CredalRow
    rows: tuple[CredalRow, ...]
    pour_stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        stacks = dict.fromkeys(row.stacked_in for row in self.rows
                               if isinstance(row, (IntervalRow, VertexRow)))
        d = self.states.size
        object.__setattr__(self, "pour_stacks",
                           tuple(stack for stack in stacks if stack.pours(d)))

    @property
    def size(self) -> int:
        return self.states.size

    def pour(self, obj) -> None:
        """Solve every stack of ``pour_stacks`` for ``obj``, each in one
        numpy pass, as a transition does before its calls; a row of such a
        stack then reads its line when it is given that same objective.
        A sum that leaves float range is inf or NaN without a warning, as
        it is in a call."""
        if self.pour_stacks:
            with np.errstate(over="ignore", invalid="ignore"):
                for stack in self.pour_stacks:
                    stack.pour(obj)


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
