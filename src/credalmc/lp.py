"""Linear optimisation of a gamble over one credal row: the public calls.

Every transition-operator evaluation reduces to one call of ``maximize`` (or
its conjugate ``minimize``) on a single row.  The d rows of one transition
share their objective, so the operators wrap the gamble once in an
``Objective``: it is checked once, and its negation and its stable sort
order are computed on first use and kept for the other rows.  A history
contraction has one objective per block instead, so ``Objective.blocks``
prepares them in bulk: one negation for each chunk of ``CHUNK_ENTRIES``
entries, plus one row-wise sort when a row reads the order, which then serve
each block's single call.

Each row kind solves one problem only, in its ``_maximize`` method in
``core``: it maximises ``obj.values`` over the row and returns a plain
``(value, maximizer, iterations)`` triple.  Interval rows pour the slack in
the objective's order, vertex rows enumerate their vertices and constraint
rows run phase 2 of the simplex, or, when the row is small enough to have
found its vertex list when it was built, enumerate that list, with 0
iterations.  Minimisation is the conjugate by
construction: ``minimize`` runs the same method on the objective's kept
``negation`` and negates the value, so the lower bound is minus the upper
bound of the negated gamble, with the same maximizer and iteration count.
A call is on the hot path of every transition, so its fixed cost is kept
small: ``maximize`` or ``minimize`` looks the method up on the row, calls
it, and wraps the triple once in ``LpResult``, a named tuple.  A row of no
supported kind has no such method and raises ``TypeError``.  A vertex row's
maximizer, and that of a constraint row solved over its vertex list, is a
read-only view of the chosen row of ``vertices``, not a copy; the interval
and simplex maximizers are fresh arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import CredalRow, as_vector

# Entries of a block array that ``Objective.blocks`` prepares at a time.  The
# negation, the orders and the gather indices it keeps for a chunk are about
# three times the chunk, and two chunks' worth is alive while the caller still
# holds the last block of one and the next is prepared: 2**12 entries keep
# that near 200 kB, where a whole d=50, n=3 history would need 3 MB.  Each
# chunk costs a few numpy calls, under 0.2 µs a block at 81 blocks of 50.
CHUNK_ENTRIES = 2**12


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
    passed ``as_vector``, or one per block with ``Objective.blocks``.  Its
    ``negation``, an ``Objective`` of ``-values``, and its ``order()`` are
    computed on first use and kept, so every row after the first reuses
    them.  The negation holds no reference back, so dropping an objective
    frees both at once.  The rows' ``_maximize`` methods in ``core`` read
    ``values``, ``order()`` and ``negation`` only.
    """

    __slots__ = ("values", "_negation", "_order")

    def __init__(self, values: np.ndarray):
        self.values = values.view()
        self.values.flags.writeable = False
        self._negation = None
        self._order = None

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
    def blocks(cls, array: np.ndarray, negate: bool, ordered: bool):
        """One ``Objective`` per row of the finite ``(k, d)`` float array
        ``array``, in order, over that row or, when ``negate``, over its
        negation.

        The rows are taken a chunk of at most ``CHUNK_ENTRIES`` entries (at
        least one row) at a time.  Each chunk is negated once, and the
        values of each objective and of its ``negation`` are read-only views
        of rows of the chunk and of its negation, not copies.  When
        ``ordered``, the array the negation reads is also sorted once,
        row-wise and stably, into every objective's ``order()``; otherwise
        ``order()`` is left to compute itself on first use.  Both give the
        bits that ``Objective(row)`` computes itself: ``-(-x)`` is ``x``.
        """
        d = array.shape[1]
        step = max(1, CHUNK_ENTRIES // d)
        new = object.__new__
        for start in range(0, array.shape[0], step):
            chunk = array[start : start + step]
            chunk.flags.writeable = False
            negated = -chunk
            negated.flags.writeable = False
            values, keys = (negated, chunk) if negate else (chunk, negated)
            if ordered:
                orders = np.argsort(keys, axis=1, kind="stable")
                gathers = np.zeros((orders.shape[0], d + 1), dtype=orders.dtype)
                np.add(orders, 1, out=gathers[:, 1:])
                prepared = zip(orders, gathers)
            else:
                prepared = [None] * len(values)
            for row, key, order in zip(values, keys, prepared):
                negation = new(cls)
                negation.values, negation._negation, negation._order = key, None, None
                obj = new(cls)
                obj.values, obj._negation, obj._order = row, negation, order
                yield obj

    @property
    def negation(self) -> Objective:
        """The ``Objective`` of ``-values``, which ``minimize`` maximises."""
        if self._negation is None:
            self._negation = Objective(-self.values)
        return self._negation

    def order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, gather)``: the states by decreasing ``values``, ties by
        ascending index, and ``[0, *(order + 1)]``, the index that
        ``IntervalRow._maximize`` reads its supply with.

        The order is the stable argsort of ``-values``.  On a negation that
        is ``-(-values)``, which is ``values`` bit for bit."""
        if self._order is None:
            order = np.argsort(-self.values, kind="stable")
            self._order = (order, np.concatenate(([0], order + 1)))
        return self._order


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
    obj = Objective.checked(objective, row.dim)
    try:
        solve = row._maximize
    except AttributeError:
        raise TypeError(f"unsupported credal row type {type(row).__name__}") from None
    value, maximizer, iterations = solve(obj)
    return LpResult(value, maximizer, iterations)


def minimize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Minimise a linear objective over a credal row, as the conjugate of
    ``maximize``: minus the maximum of the objective's negation, with that
    maximizer and iteration count."""
    if counter is not None:
        counter.calls += 1
    obj = Objective.checked(objective, row.dim).negation
    try:
        solve = row._maximize
    except AttributeError:
        raise TypeError(f"unsupported credal row type {type(row).__name__}") from None
    value, maximizer, iterations = solve(obj)
    return LpResult(-value, maximizer, iterations)
