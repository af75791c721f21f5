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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

# Tolerance for normalisation and nonnegativity checks on probability vectors.
EPS_PROB = 1e-9
# Tolerance for membership tests of optimiser output in a credal row.
EPS_FEAS = 1e-8


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

    def pour(self, order: np.ndarray, gather: np.ndarray) -> tuple[np.ndarray, int]:
        """Greedy pmf: start at the lower bounds, then pour the slack into the
        states in ``order``, each up to its upper bound.  ``gather`` is
        ``[0, *(order + 1)]``, which picks the slack and then the headroom
        of each state in ``order`` out of ``supply``.

        Returns the pmf and the number of states that took mass; raises
        ``InfeasibleRowError`` when the upper bounds cannot hold the slack.
        The running slack is subtracted in ``order``, one state at a time,
        exactly as a sequential loop would, so the result matches that loop
        bit for bit.  Once the running slack is spent it is at most 0, and so
        is every later ``add``, so no clip at 0 is needed.  Only states that
        take mass are written, which keeps a lower bound of -0.0 as it is.
        """
        seq = self.supply[gather]
        left = np.subtract.accumulate(seq)
        if left[-1] > EPS_FEAS:
            raise InfeasibleRowError("interval row has total upper mass below 1")
        add = np.minimum(seq[1:], left[:-1])
        take = add > 0.0
        states = order[take]
        p = self.lower.copy()
        p[states] += add[take]
        return p, states.size


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


@dataclass(frozen=True)
class ConstraintRow:
    """Credal row {p : a @ p <= b, p >= 0, sum(p) = 1}.

    ``scaled_a`` and ``scaled_b`` hold each inequality divided by the
    max-norm of its coefficients (an all-zero inequality is left as it is),
    so that absolute tolerances mean the same on every row whatever its
    units; the simplex and ``row_contains`` both work on them.

    Phase 1 of the simplex does not depend on the objective, so it is solved
    here, once: ``simplex_start`` is its tableau and basis, which every
    optimisation over the row starts from and never writes to, or ``None``
    when no pmf satisfies the row.  An empty row can still be built and
    reported: ``violations`` is then ``("constraint system admits no pmf",)``
    (``()`` otherwise) and ``feasible`` is ``False``.
    """

    a: np.ndarray
    b: np.ndarray
    scaled_a: np.ndarray = field(init=False, repr=False, compare=False)
    scaled_b: np.ndarray = field(init=False, repr=False, compare=False)
    simplex_start: tuple | None = field(init=False, repr=False, compare=False)
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
        from . import lp  # here, as lp imports this module
        try:
            start, violations = lp._solve_phase_one(self), ()
        except InfeasibleRowError as exc:
            start, violations = None, (str(exc),)
        object.__setattr__(self, "simplex_start", start)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "feasible", start is not None)

    @property
    def dim(self) -> int:
        return self.a.shape[1]


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
