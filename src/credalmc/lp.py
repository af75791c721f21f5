"""Linear optimisation of a gamble over one credal row: the public calls.

Every transition-operator evaluation reduces to one call of ``maximize`` (or
its conjugate ``minimize``) on a single row.  The d rows of one transition
share their objective, so the operators wrap the gamble once in an
``Objective``: it is checked once, and its negation and its stable sort
orders are computed on first use and kept for the other rows.  A history
contraction has one objective per block instead, so ``Objective.blocks``
prepares them in bulk: one negation and one row-wise sort for each chunk of
``CHUNK_ENTRIES`` entries, which then serve each block's single call.

Each row kind solves the problem itself, in its ``_maximize`` method in
``core``, which maximises ``obj.target(minimise)`` and returns a plain
``(value, maximizer, iterations)`` triple: interval rows pour the slack in
the objective's order, vertex rows enumerate their vertices and constraint
rows run phase 2 of the simplex.  A call is on the hot path of every
transition, so its fixed cost is kept small: ``maximize`` or ``minimize``
looks the method up on the row, calls it, and wraps the triple once in
``LpResult``, a named tuple.  A row of no supported kind has no such method
and raises ``TypeError``.  A vertex row's maximizer is a read-only view of
the chosen row of ``vertices``, not a copy; the interval and constraint
maximizers are fresh arrays.
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
    passed ``as_vector``, or one per block with ``Objective.blocks``.  The
    negation and, for each direction, the stable sort order and the interval
    pour's gather index are computed on first use and kept, so every row
    after the first reuses them.  The rows' ``_maximize`` methods in ``core``
    read it through ``target`` and ``order`` only.
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

    @classmethod
    def blocks(cls, array: np.ndarray, minimise: bool):
        """One ``Objective`` per row of the finite ``(k, d)`` float array
        ``array``, in order, each prepared for the direction ``minimise``.

        The rows are taken a chunk of at most ``CHUNK_ENTRIES`` entries (at
        least one row) at a time, as read-only views, not copies.  Each chunk
        is negated once and sorted once, row-wise and stably, and its gather
        indices are written into one array; each objective's negation and
        its order for ``minimise`` are rows of those arrays, and give the
        bits ``Objective(row)`` would compute itself.
        """
        d = array.shape[1]
        step = max(1, CHUNK_ENTRIES // d)
        new = object.__new__
        for start in range(0, array.shape[0], step):
            chunk = array[start : start + step]
            chunk.flags.writeable = False
            negated = -chunk
            orders = np.argsort(chunk if minimise else negated, axis=1, kind="stable")
            gathers = np.zeros((orders.shape[0], d + 1), dtype=orders.dtype)
            np.add(orders, 1, out=gathers[:, 1:])
            for values, neg, order, gather in zip(chunk, negated, orders, gathers):
                obj = new(cls)
                obj.values, obj._negated = values, neg
                obj._orders = [None, None]
                obj._orders[minimise] = (order, gather)
                yield obj

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
        ``IntervalRow._maximize`` reads its supply with.

        The order is the stable argsort of ``-target``.  When minimising
        that is ``-(-values)``, which is ``values`` bit for bit."""
        pair = self._orders[minimise]
        if pair is None:
            order = np.argsort(self.target(not minimise), kind="stable")
            pair = self._orders[minimise] = (order, np.concatenate(([0], order + 1)))
        return pair


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
    value, maximizer, iterations = solve(obj, False)
    return LpResult(value, maximizer, iterations)


def minimize(row: CredalRow, objective, counter: LpCounter | None = None) -> LpResult:
    """Minimise a linear objective over a credal row (conjugate of maximize)."""
    if counter is not None:
        counter.calls += 1
    obj = Objective.checked(objective, row.dim)
    try:
        solve = row._maximize
    except AttributeError:
        raise TypeError(f"unsupported credal row type {type(row).__name__}") from None
    value, maximizer, iterations = solve(obj, True)
    return LpResult(-value, maximizer, iterations)
