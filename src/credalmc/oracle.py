"""Exponential-cost reference computation used to validate the recursion.

One route is provided, the one ``credalmc check`` runs: explicit
materialisation of the recursive target on all histories, then full backward
contraction of the resulting history array via the extended operators.  A
history array on horizon n has shape ``(d,)*n`` and holds the target's value
on path (x1, ..., xn) at ``hist[x1, ..., xn]``.  Materialisation checks the
history size and the finiteness of the values it computes; the contraction
checks the shape and the finiteness of the history array it is given.  The
size limit, ``HISTORY_CAP``, is a fixed constant.  The route exists to check
the linear-time engine on desk-scale instances, but the contraction is also
what ``credalmc check`` spends nearly all its time on: its ``2·Σd^i`` row
optimisations, one per history block, run through the extended operators,
which prepare the blocks' objectives a chunk at a time.
"""

from __future__ import annotations

import numpy as np

from .core import CapExceededError, ImpreciseMarkovChain, NumericalError
from .engine import RecursiveSpec
from .lp import LpCounter
from .operators import extended_lower, extended_upper

# Largest number of materialised history values before raising, so that an
# oversized request fails cleanly instead of exhausting memory.
HISTORY_CAP = 10_000_000


def materialize_path_function(spec: RecursiveSpec) -> np.ndarray:
    """Evaluate the recursive target explicitly on every state history.

    Step k prepends one time instant: with the accumulated values t on
    suffix histories, the new value on (x, suffix) is h_k(x) * t(suffix)
    + g_k(x).  This is the definition the engine never expands; the result
    is an array of shape ``(d,)*horizon``.  Raises ``CapExceededError``
    before allocating if d**horizon exceeds ``HISTORY_CAP``, or if the
    horizon exceeds numpy's dimension limit, and ``NumericalError`` if a
    value is not finite.
    """
    d, n = spec.dim, spec.horizon
    if d**n > HISTORY_CAP:
        raise CapExceededError(
            f"history of {d}**{n} entries exceeds cap {HISTORY_CAP}"
        )
    values = spec.g0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for h, g in spec.steps:
            values = (h[:, None] * values[None, :] + g[:, None]).ravel()
    if not np.isfinite(values).all():
        raise NumericalError("materialised history values contain non-finite entries")
    try:
        return values.reshape((d,) * n)
    except ValueError:  # n is beyond the number of dimensions numpy allows
        raise CapExceededError(
            f"history of horizon {n} has more dimensions than numpy allows"
        ) from None


def _check_history(model: ImpreciseMarkovChain, hist: np.ndarray) -> None:
    if hist.ndim < 1 or hist.shape != (model.size,) * hist.ndim:
        raise ValueError("history array does not match the model's state count")
    # An infinite entry can make a sum NaN, which the envelope would skip.
    if not np.isfinite(hist).all():
        raise ValueError("objective contains non-finite entries")


def naive_conditional_bounds(
    model: ImpreciseMarkovChain, hist: np.ndarray, counter: LpCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional bounds of a history array by backward contraction.

    Repeatedly applies the extended upper and lower operators until only the
    first time index remains.  Contracting horizon j+1 to j costs d**j row
    optimisations per side, so the total is 2 * sum of d**i for i = 1..n-1,
    exponential in the horizon.  Exact for every function of finitely many
    time instants, which is what makes it an oracle for the engine.
    """
    _check_history(model, hist)
    upper = lower = hist
    while upper.ndim > 1:
        upper = extended_upper(model, upper, counter)
        lower = extended_lower(model, lower, counter)
    return upper.copy(), lower.copy()
