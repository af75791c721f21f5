"""Upper and lower transition operators on gambles and on history functions.

The upper transition operator maps a gamble f to the gamble whose value at
state x is the maximum one-step expectation of f over the credal row of x.
The lower operator is its conjugate.  Both extend to functions of whole state
histories, which powers the exponential-cost reference computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CapExceededError, ImpreciseMarkovChain, as_vector
from .lp import LpCounter, maximize, minimize

# Largest number of materialised history values before raising, so that an
# oversized request fails cleanly instead of exhausting memory.
DEFAULT_HISTORY_CAP = 10_000_000


@dataclass(frozen=True)
class HistoryFunction:
    """Real-valued function on length-``horizon`` state paths, stored flat.

    The layout is row-major with the first time index most significant: the
    value on path (x1, ..., xn) sits at flat index
    ``x1 * d**(n-1) + x2 * d**(n-2) + ... + xn`` with d the state count.
    Consequently the slice over the last coordinate, for a fixed prefix, is a
    contiguous block, and dropping the last time index is a single reshape.
    """

    n_states: int
    horizon: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_states < 1 or self.horizon < 1:
            raise ValueError("state count and horizon must be positive")
        expected = self.n_states**self.horizon
        vals = as_vector(self.values, size=expected, name="history values")
        vals = np.array(vals, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def at(self, path) -> float:
        """Value on one path, given as a sequence of state indices."""
        path = tuple(path)
        if len(path) != self.horizon:
            raise ValueError(f"path length {len(path)} != horizon {self.horizon}")
        idx = 0
        for x in path:
            if not 0 <= x < self.n_states:
                raise IndexError(f"state index {x} out of range")
            idx = idx * self.n_states + x
        return float(self.values[idx])


def check_history_cap(n_states: int, horizon: int, cap: int = DEFAULT_HISTORY_CAP):
    """Raise ``CapExceededError`` if d**horizon exceeds the entry cap."""
    size = n_states**horizon
    if size > cap:
        raise CapExceededError(
            f"history of {n_states}**{horizon} = {size} entries exceeds cap {cap}"
        )


def _check_dim(model: ImpreciseMarkovChain, f) -> np.ndarray:
    return as_vector(f, size=model.size, name="gamble")


def _optimise_blocks(
    model: ImpreciseMarkovChain, blocks, optimise, counter
) -> np.ndarray:
    """Optimise objective block i over the credal row of state i mod d, with
    d the number of states; ``blocks`` is a sequence of length-d vectors.

    ``optimise`` is ``maximize`` or ``minimize``; every block costs exactly
    one row optimisation.
    """
    rows = model.rows
    d = len(rows)
    return np.array(
        [optimise(rows[i % d], block, counter).value for i, block in enumerate(blocks)]
    )


def upper_transition(
    model: ImpreciseMarkovChain, f, counter: LpCounter | None = None
) -> np.ndarray:
    """Apply the upper transition operator to a gamble.

    Entry x is the maximum of the expectation of f over the credal row of
    state x, i.e. the tight upper bound on the one-step conditional
    expectation of f given the current state.
    """
    f = _check_dim(model, f)
    return _optimise_blocks(model, [f] * f.size, maximize, counter)


def lower_transition(
    model: ImpreciseMarkovChain, f, counter: LpCounter | None = None
) -> np.ndarray:
    """Conjugate of ``upper_transition``: entry x minimises over the row of x."""
    f = _check_dim(model, f)
    return _optimise_blocks(model, [f] * f.size, minimize, counter)


def iterate_upper(
    model: ImpreciseMarkovChain, f, k: int, counter: LpCounter | None = None
) -> np.ndarray:
    """k-fold application of the upper transition operator (k = 0 is the identity)."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    out = _check_dim(model, f).copy()
    for _ in range(k):
        out = upper_transition(model, out, counter)
    return out


def iterate_lower(
    model: ImpreciseMarkovChain, f, k: int, counter: LpCounter | None = None
) -> np.ndarray:
    """k-fold application of the lower transition operator.

    Bit-identical to applying ``lower_transition`` k times, because the
    lower operator is exactly the negated upper operator of the negated gamble.
    """
    return -iterate_upper(model, -_check_dim(model, f), k, counter)


def _contract(
    model: ImpreciseMarkovChain, hist: HistoryFunction, optimise, counter, cap: int
) -> HistoryFunction:
    if hist.n_states != model.size:
        raise ValueError("history function does not match the model's state count")
    if hist.horizon < 2:
        raise ValueError("horizon must be at least 2 to contract a time index")
    check_history_cap(hist.n_states, hist.horizon, cap)
    d = hist.n_states
    out = _optimise_blocks(model, hist.values.reshape(-1, d), optimise, counter)
    return HistoryFunction(d, hist.horizon - 1, out)


def extended_upper(
    model: ImpreciseMarkovChain,
    hist: HistoryFunction,
    counter: LpCounter | None = None,
    cap: int = DEFAULT_HISTORY_CAP,
) -> HistoryFunction:
    """Upper transition step on a history function, horizon n+1 to n.

    For every history prefix, the value is the row maximum over the
    last-coordinate slice, taken in the row of the prefix's final state.
    Thanks to the flat layout those slices are the rows of a reshape.
    """
    return _contract(model, hist, maximize, counter, cap)


def extended_lower(
    model: ImpreciseMarkovChain,
    hist: HistoryFunction,
    counter: LpCounter | None = None,
    cap: int = DEFAULT_HISTORY_CAP,
) -> HistoryFunction:
    """Conjugate of ``extended_upper`` on history functions."""
    return _contract(model, hist, minimize, counter, cap)
