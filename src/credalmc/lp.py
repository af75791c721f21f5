"""Linear optimisation of a gamble over one credal row: the public calls.

Every transition-operator evaluation reduces to one call of ``maximize`` (or
its conjugate ``minimize``) on a single row.  The d rows of one transition
share their objective, so the operators wrap the gamble once in an
``Objective``: it is checked once, and its negation and its stable sort
order, a list of Python ints, are computed on first use and kept for the
other rows.  A history contraction has one objective per block instead, so
``Objective.blocks`` prepares them in bulk, a chunk of ``CHUNK_ENTRIES``
entries at a time: one object per block, over a view of the chunk (or of
its one negation, for the lower contraction), plus one row-wise sort of the
blocks that meet an interval row.  A row that meets at least
``BATCH_MIN_LINES`` blocks of a chunk solves them in one call of its kind's
numpy kernel (see ``core``), and each block's objective carries its line.
A block's own negation is left to the ``negation`` property, which only
simplex rows read inside a contraction.

Each row kind solves one problem only, in its ``_maximize`` method in
``core``: it maximises ``obj.values`` over the row and returns a plain
``(value, maximizer, iterations)`` triple.  Interval rows pour the slack in
the objective's order, in a plain-Python loop that stops once the slack is
spent; vertex rows enumerate their vertices; constraint rows run phase 2 of
the simplex, or, when the row is small enough to have found its vertex list
when it was built, enumerate that list, with 0 iterations.  A row hands back
instead the line its objective carries for it, or its line of its stack
when a transition has just solved the stack for the same objective (see
``operators``), both with the bits of the method.  Minimisation is
the conjugate by construction: ``minimize`` runs the same method on the
objective's kept ``negation`` and negates the value, so the lower bound is
minus the upper bound of the negated gamble, with the same maximizer and
iteration count.  A call is on the hot path of every transition and of
every contraction block, so its fixed cost is kept small: ``maximize`` or
``minimize`` takes an ``Objective`` as it is once its length matches the
row, looks the method up on the row once, calls it, and builds the
``LpResult``, a named tuple, straight from the triple with
``tuple.__new__``.  Any other objective, or one of the wrong length, goes
through ``Objective.checked``, so the messages and their order are those of
``as_vector``.  A row of no supported kind has no such method and raises
``TypeError``.  A vertex row's maximizer, and that of a constraint row
solved over its vertex list, is a read-only view of the chosen row of
``vertices``, not a copy, and an interval row's line of a kernel is a
read-only view of that kernel's maximizers; the maximizers of the interval
loop and of the simplex are fresh arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import _NO_LINE, CredalRow, IntervalRow, as_vector

# Entries of a block array that ``Objective.blocks`` prepares at a time.  The
# orders it keeps for a chunk, each a list of Python ints, and the chunk's
# negation in the lower contraction, are two (d=50) to five (d=3) times the
# chunk, as a list's header outweighs a short row; two chunks' worth is alive
# while the caller still holds the last block of one and the next is
# prepared.  Measured with ``tracemalloc``, a whole contraction of interval
# rows peaks at 215 kB (upper) and 250 kB (lower) on a d=50, n=3 history of
# 1 MB, whose set-up at once would need about 3 MB, and at 100 kB at d=3,
# n=7.  Each chunk costs a few numpy calls and one ``tolist``.
CHUNK_ENTRIES = 2**12
# A row solves its blocks of a chunk in bulk (see ``Objective.blocks``) when
# it meets at least this many of them.  On one d=3 row (2-core Xeon VM,
# numpy 2.4.6, best of 300 interleaved), blocks and calls in bulk took 1.8
# (interval), 1.0 (vertex) and 1.1 (constraint row with vertices) times as
# long as call by call at 8 blocks, 1.3, 0.8 and 0.8 at 16, and 1.0, 0.7
# and 0.7 at 32.  Whole contractions, interleaved, at limits of 8, 16, 32
# and 64 against none: 0.72, 0.70, 0.70, 0.72 on a ``mixed-check`` model
# (d=3, n=7), 0.77, 0.76, 0.81, 1.00 on a ``vertex-limit`` one (d=10, n=4)
# and 1.05, 0.98, 1.00, 1.00 at d=3, n=5, whose rows meet 27 blocks at most.
BATCH_MIN_LINES = 16


class LpResult(NamedTuple):
    """Optimal value, an optimising pmf, and a solver effort counter.

    For a vertex row the maximizer is a read-only view of one listed vertex;
    for an interval row read from a kernel, a read-only view of its line.
    """

    value: float
    maximizer: np.ndarray
    iterations: int


# Builds an ``LpResult`` from a triple without the named tuple's own
# Python-level ``__new__``, one frame less on every call.
_new_tuple = tuple.__new__


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
    passed ``as_vector``, or one per block with ``Objective.blocks``.  Its
    ``negation``, an ``Objective`` of ``-values``, and its ``order()`` are
    computed on first use and kept, so every row after the first reuses
    them, and an objective whose negation no row reads never builds it.
    The negation holds no reference back, so dropping an objective frees
    both at once.  The rows' ``_maximize`` methods in ``core`` read
    ``values``, ``order()`` and ``negation`` only.
    """

    __slots__ = ("values", "_negation", "_order", "_line")

    def __init__(self, values: np.ndarray):
        self.values = values.view()
        self.values.flags.writeable = False
        self._negation = None
        self._order = None
        self._line = _NO_LINE

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

    @classmethod
    def blocks(cls, array: np.ndarray, negate: bool, rows=()):
        """One ``Objective`` per row of the finite ``(k, d)`` float array
        ``array``, in order, over that row or, when ``negate``, over its
        negation; block i is to be maximised over ``rows[i % len(rows)]``,
        and solved here in bulk for it when it can be.

        The rows are taken a chunk of at most ``CHUNK_ENTRIES`` entries (at
        least one row) at a time, and each objective's values are a
        read-only view of a row of the chunk or, when ``negate``, of the
        chunk's one negation, not a copy.  A row of ``rows`` meets the
        blocks ``x::len(rows)`` of the chunk, shifted by the chunk's start.
        The blocks that meet an interval row are sorted, row-wise and
        stably, in one ``argsort`` per chunk, and only those.  A row that
        meets at least ``BATCH_MIN_LINES`` blocks of the chunk and is as
        wide solves them all in one ``_lines`` call, its kind's numpy
        kernel, and each block's objective carries its line, which the
        row's ``_maximize`` hands back for the call.  A row that meets
        fewer keeps the per-call solution, where an interval row reads the
        order kept here, a list, and so does a row of no such kind.  An
        objective with no line and no kept order computes ``order()`` on
        first use.  No objective's ``negation`` is built here: the property
        builds it from ``-values`` when a row first reads it.  Each gives
        the bits that ``Objective(row)`` computes itself: ``-(-x)`` is
        ``x``, and every kernel has the bits of the call (see ``core``).
        """
        d = array.shape[1]
        sorted_rows = [x for x, row in enumerate(rows) if isinstance(row, IntervalRow)]
        solvers = []
        for row in rows:
            solve = getattr(row, "_lines", None)
            solvers.append(solve if solve is not None and row.dim == d else None)
        step = max(1, CHUNK_ENTRIES // d)
        new = object.__new__
        for start in range(0, array.shape[0], step):
            chunk = array[start : start + step]
            chunk.flags.writeable = False
            values = -chunk if negate else chunk
            values.flags.writeable = False
            # ``order()`` sorts ``-values``, which is the chunk itself when
            # the values are its negation.
            keys = chunk if negate else -chunk
            orders, lines = _chunk_lines(values, keys, start, solvers, sorted_rows)
            for row, order, line in zip(values, orders, lines):
                obj = new(cls)
                obj.values, obj._negation, obj._order, obj._line = row, None, order, line
                yield obj

    @property
    def negation(self) -> Objective:
        """The ``Objective`` of ``-values``, which ``minimize`` maximises."""
        if self._negation is None:
            self._negation = Objective(-self.values)
        return self._negation

    def order(self) -> list[int]:
        """The states by decreasing ``values``, ties by ascending index, as a
        list of Python ints, which ``IntervalRow._maximize`` walks.

        The order is the stable argsort of ``-values``.  On a negation that
        is ``-(-values)``, which is ``values`` bit for bit."""
        if self._order is None:
            self._order = np.argsort(-self.values, kind="stable").tolist()
        return self._order


def _chunk_lines(values, keys, start: int, solvers: list, sorted_rows: list):
    """The kept orders and the lines of the blocks of one chunk, two lists,
    for ``Objective.blocks``: ``values`` are the chunk's objectives, whose
    first block is block ``start``, ``keys`` their negation, ``solvers``
    each row's ``_lines`` (``None`` for a row that has none or is of another
    width) and ``sorted_rows`` the indices of the interval rows."""
    m, n = len(values), len(solvers)
    orders = [None] * m
    lines = [_NO_LINE] * m
    if not sorted_rows and not any(solvers):
        return orders, lines
    if -(-m // n) < BATCH_MIN_LINES and len(sorted_rows) == n:
        # No row meets enough blocks, and every block is sorted: one
        # ``tolist`` for the chunk, not one per row, which a wide model of
        # interval rows would pay on every chunk.
        return np.argsort(keys, axis=1, kind="stable").tolist(), lines
    sorted_blocks = _sorted_blocks(keys, start, n, sorted_rows)
    # A sum that leaves float range is inf or NaN without a warning, as it
    # is in a call.
    with np.errstate(over="ignore", invalid="ignore"):
        for x, solve in enumerate(solvers):
            first = (x - start) % n
            order = sorted_blocks.get(x)
            found = None
            if solve is not None and len(range(first, m, n)) >= BATCH_MIN_LINES:
                found = solve(values[first::n], order)
            if found is not None:
                lines[first::n] = found
            elif order is not None:
                orders[first::n] = order.tolist()
    return orders, lines


def _sorted_blocks(keys: np.ndarray, start: int, n: int, sorted_rows: list) -> dict:
    """For each row index x in ``sorted_rows``, the stable row-wise argsort
    of the blocks ``keys[(x - start) % n :: n]``, from one ``np.argsort``
    over just those blocks (none when the list is empty), by x."""
    if not sorted_rows:
        return {}
    firsts = [(x - start) % n for x in sorted_rows]
    if len(sorted_rows) == n:
        order = np.argsort(keys, axis=1, kind="stable")
        return {x: order[first::n] for x, first in zip(sorted_rows, firsts)}
    parts = [keys[first::n] for first in firsts]
    order = np.argsort(np.concatenate(parts), axis=1, kind="stable")
    bounds = np.cumsum([0] + [len(part) for part in parts]).tolist()
    return {x: order[a:b] for x, a, b in zip(sorted_rows, bounds, bounds[1:])}


def maximize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Maximise a linear objective over a credal row.

    Returns the supremum of the expectation ``objective @ p`` over the row
    together with a maximising pmf.  ``objective`` is a vector, checked on
    every call, or an ``Objective`` shared by many calls, which is only
    checked for its length.  The row's own ``_maximize`` solves it; ties are
    broken by ascending state index (intervals) or by lowest list index
    (vertices).
    """
    if counter is not None:
        counter.calls += 1
    size = row.dim
    if type(objective) is not Objective or objective.values.size != size:
        objective = Objective.checked(objective, size)
    try:
        solve = row._maximize
    except AttributeError:
        raise TypeError(f"unsupported credal row type {type(row).__name__}") from None
    return _new_tuple(LpResult, solve(objective))


def minimize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Minimise a linear objective over a credal row, as the conjugate of
    ``maximize``: minus the maximum of the objective's negation, with that
    maximizer and iteration count."""
    if counter is not None:
        counter.calls += 1
    size = row.dim
    if type(objective) is not Objective or objective.values.size != size:
        objective = Objective.checked(objective, size)
    try:
        solve = row._maximize
    except AttributeError:
        raise TypeError(f"unsupported credal row type {type(row).__name__}") from None
    value, maximizer, iterations = solve(objective.negation)
    return _new_tuple(LpResult, (-value, maximizer, iterations))
