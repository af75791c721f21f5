"""Core domain types: state spaces, gambles, probability mass functions and
credal rows, plus whole-model validation.

A gamble is a real-valued function on the state space and is represented as a
plain 1-D float array.  A credal row is a nonempty set of probability mass
functions on the state space; three representations are supported (per-state
probability intervals, an explicit vertex list, and a system of linear
inequality constraints on the simplex).
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

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if not self.labels:
            raise ValueError("state space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown state {label!r}") from None

    def indicator(self, subset: Iterable[str]) -> np.ndarray:
        """Indicator gamble of a subset of states, given by their labels."""
        out = np.zeros(len(self.labels))
        for label in subset:
            out[self.index(label)] = 1.0
        return out


@dataclass(frozen=True)
class IntervalRow:
    """Credal row given by componentwise probability bounds.

    The row is the set of pmfs p with lower <= p <= upper.  Feasibility
    (lower <= upper, sum(lower) <= 1 <= sum(upper)) is checked by
    ``validate_model`` / ``lp.feasible``, not at construction time, so an
    empty row can still be built and reported.

    The bounds never change, so the invariants of the greedy pour are
    computed once here: ``supply`` is the frozen ``(d+1,)`` array of the
    slack ``1 - sum(lower)`` followed by each state's headroom, ``upper -
    lower`` clipped at 0, and ``empty`` flags a row whose lower bounds
    exceed its upper bounds or sum above 1.
    """

    lower: np.ndarray
    upper: np.ndarray
    supply: np.ndarray = field(init=False, repr=False, compare=False)
    empty: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = _freeze(as_vector(self.lower, name="lower bounds"))
        up = _freeze(as_vector(self.upper, size=lo.size, name="upper bounds"))
        total = float(lo.sum())
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        supply = np.empty(lo.size + 1)
        supply[0] = 1.0 - total
        np.maximum(up - lo, 0.0, out=supply[1:])
        supply.flags.writeable = False
        object.__setattr__(self, "supply", supply)
        object.__setattr__(
            self, "empty", bool((lo > up + EPS_PROB).any()) or total > 1.0 + EPS_PROB
        )

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


@dataclass(frozen=True)
class VertexRow:
    """Credal row given by an explicit, nonempty list of pmfs.

    Linear objectives attain their extrema on the listed vertices, so the
    row behaves like the convex hull of the list for every purpose here.
    """

    vertices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vertices, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("vertex list must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vertex list contains non-finite entries")
        object.__setattr__(self, "vertices", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class ConstraintRow:
    """Credal row {p : a @ p <= b, p >= 0, sum(p) = 1}.

    Feasibility is checked by ``validate_model`` / ``lp.feasible``, not at
    construction time, so an empty row can still be built and reported.

    ``scaled_a`` and ``scaled_b`` hold each inequality divided by the
    max-norm of its coefficients (an all-zero inequality is left as it is),
    so that absolute tolerances mean the same on every row whatever its
    units; the simplex and ``row_contains`` both work on them.
    ``simplex_start`` is the phase-1 simplex tableau, which ``lp`` computes
    on the first optimisation over the row and keeps here; it is never
    handed out or written to.
    """

    a: np.ndarray
    b: np.ndarray
    scaled_a: np.ndarray = field(init=False, repr=False, compare=False)
    scaled_b: np.ndarray = field(init=False, repr=False, compare=False)
    simplex_start: tuple | None = field(
        init=False, default=None, repr=False, compare=False
    )

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


def expectation(p, f) -> float:
    """Expectation of gamble ``f`` under pmf ``p``: sum over states of p*f."""
    p = as_vector(p, name="pmf")
    f = as_vector(f, size=p.size, name="gamble")
    return float(np.dot(p, f))


def is_pmf(p) -> bool:
    """True iff ``p`` is a probability mass function within ``EPS_PROB``."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    if np.any(arr < -EPS_PROB) or np.any(arr > 1.0 + EPS_PROB):
        return False
    return abs(float(arr.sum()) - 1.0) <= EPS_PROB


def interval_witness(row: IntervalRow) -> np.ndarray:
    """Greedy feasible pmf of an interval row: start at the lower bounds and
    fill the remaining mass in state order, capped by the upper bounds."""
    return row.pour(np.arange(row.dim), np.arange(row.dim + 1))[0]


def row_contains(row: CredalRow, p) -> bool:
    """Membership test of a pmf in a credal row, within ``EPS_FEAS``.

    Vertex rows test proximity to one of the listed vertices, which is the
    membership notion relevant for optimiser output.  Constraint rows are
    tested on their scaled inequalities, as the simplex sees them.
    """
    p = as_vector(p, size=row.dim, name="pmf")
    tol = EPS_FEAS
    if abs(float(p.sum()) - 1.0) > tol or np.any(p < -tol):
        return False
    if isinstance(row, IntervalRow):
        return bool(np.all(p >= row.lower - tol) and np.all(p <= row.upper + tol))
    if isinstance(row, VertexRow):
        return bool(np.min(np.max(np.abs(row.vertices - p), axis=1)) <= tol)
    if isinstance(row, ConstraintRow):
        return bool(np.all(row.scaled_a @ p <= row.scaled_b + tol))
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


def _row_violations(row: CredalRow, size: int, where: str) -> list[str]:
    out: list[str] = []
    if row.dim != size:
        out.append(f"{where}: dimension {row.dim} does not match state count {size}")
        return out
    if isinstance(row, IntervalRow):
        if np.any(row.lower < -EPS_PROB):
            out.append(f"{where}: negative lower bound")
        if np.any(row.upper > 1.0 + EPS_PROB):
            out.append(f"{where}: upper bound above 1")
        if np.any(row.lower > row.upper + EPS_PROB):
            out.append(f"{where}: lower bound exceeds upper bound")
        if float(row.lower.sum()) > 1.0 + EPS_PROB:
            out.append(f"{where}: sum of lower bounds exceeds 1 "
                       f"(sum={float(row.lower.sum()):.6g})")
        if float(row.upper.sum()) < 1.0 - EPS_PROB:
            out.append(f"{where}: sum of upper bounds is below 1 "
                       f"(sum={float(row.upper.sum()):.6g})")
    elif isinstance(row, VertexRow):
        for k, v in enumerate(row.vertices):
            if np.any(v < -EPS_PROB) or np.any(v > 1.0 + EPS_PROB):
                out.append(f"{where}: vertex {k} has entries outside [0, 1]")
            if abs(float(v.sum()) - 1.0) > EPS_PROB:
                out.append(f"{where}: vertex {k} does not sum to 1 "
                           f"(sum={float(v.sum()):.6g})")
    elif isinstance(row, ConstraintRow):
        from . import lp

        if not lp.feasible(row):
            out.append(f"{where}: constraint system admits no pmf")
    else:
        out.append(f"{where}: unsupported row type {type(row).__name__}")
    return out


def validate_model(model: ImpreciseMarkovChain) -> list[str]:
    """Collect every invariant violation of a model; empty means valid."""
    size = model.states.size
    out: list[str] = []
    if len(model.rows) != size:
        out.append(f"model has {len(model.rows)} transition rows, expected {size}")
    for label, row in zip(model.states.labels, model.rows):
        out.extend(_row_violations(row, size, f"row {label!r}"))
    out.extend(_row_violations(model.initial, size, "initial set"))
    return out
