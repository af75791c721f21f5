"""Shared fixtures-by-hand: the worked two-state model, random instance
generators, small independent oracles used to derive expected values, and
the reference functions that only tests call (operator iterates, the pmf
rule, a greedy interval witness, the model document writer, the eager
simplex pivot loop, and the brute-force envelope over extreme compatible
processes)."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from credalmc import (
    CapExceededError,
    ConstraintRow,
    CredalRow,
    ImpreciseMarkovChain,
    InfeasibleRowError,
    IntervalRow,
    RecursiveSpec,
    StateSpace,
    VertexRow,
    maximize,
    upper_transition,
)
from credalmc.core import EPS_FEAS, EPS_PROB, PIVOT_TOL, NumericalError, as_vector
from credalmc.oracle import _check_history

# The two-state worked model used throughout: out of s0 the chance of moving
# to s1 lies in [0.1, 0.3]; out of s1 the chance of moving to s0 lies in
# [0.4, 0.6].  The "spec" initial set puts mass between 0.2 and 0.5 on s1.
E1_SPACE = StateSpace(("s0", "s1"))
E1_ROW_S0 = IntervalRow(lower=[0.7, 0.1], upper=[0.9, 0.3])
E1_ROW_S1 = IntervalRow(lower=[0.4, 0.4], upper=[0.6, 0.6])
E1_INITIAL = IntervalRow(lower=[0.5, 0.2], upper=[0.8, 0.5])


# A constraint row on which phase 1 of the simplex pivots on the scaled entry
# 1.25e-8, grows tableau entries of 8e7 and keeps the start p = [1.028,
# -0.028], outside the row.  It has C(6, 1) = 6 candidate bases, so it is
# solved over its vertex list; padded with five inequalities 0·p <= 1 it has
# C(11, 1) = 11 and keeps the simplex.
BREAKDOWN_A = [[2.5e-08, -2.0], [-1.0, -2.0], [1.486243791690777, 0.0],
               [2.0, 2.6237412236282402]]
BREAKDOWN_B = [1e-09, 0.0, 1.5272352896160752, 2.7306097113498335]
BREAKDOWN_A_PADDED = BREAKDOWN_A + [[0.0, 0.0]] * 5
BREAKDOWN_B_PADDED = BREAKDOWN_B + [1.0] * 5

# A feasible d=5, m=3 row (e_4 lies in it) with C(8, 4) = 70 candidate bases,
# so it keeps the simplex.  Phase 1 pivots on an entry of 1.6e-9, just above
# PIVOT_TOL, tableau entries reach 1e10, and the start it keeps misses the
# row by 0.04: building the row raises NumericalError.
LEAVING_START_A = [[0.0, 0.0, 1.0, 0.0, 0.0], [2.0, 1.0, -0.125, 0.0, 0.0],
                   [0.0, 1.0, 1e-10, -1.0, 0.0]]
LEAVING_START_B = [1.0, 0.0, 0.0]
# A d=5, m=4 row on which phase 1 finds an "unbounded direction", which a
# program inside the probability simplex cannot have: building the row
# raises NumericalError, and its feasibility is never decided.
UNBOUNDED_START_A = [
    [-6263.1716919571545, -10000.0, 29921.183472258825, -12819.781238396421,
     -29804.242704797438],
    [-0.11268947269838261, 1e-09, 0.0918305478199864, 0.2876370260073263, 0.0],
    [1.2902417518626778e-12, -1e-12, 4.740116468443416e-13,
     1.9128021518736026e-12, 1e-19],
    [0.0001947278367447776, -0.0002516859962196483, 1.0000000000000002e-13,
     0.0002, 2.5e-12],
]
UNBOUNDED_START_B = [-15974.322810544541, 0.0, -6.232207475385074e-13, 1e-12]


def e1_model(initial="spec") -> ImpreciseMarkovChain:
    if initial == "spec":
        init = E1_INITIAL
    elif initial == "vacuous":
        init = IntervalRow(lower=[0.0, 0.0], upper=[1.0, 1.0])
    else:
        init = initial
    return ImpreciseMarkovChain(
        states=E1_SPACE, initial=init, rows=(E1_ROW_S0, E1_ROW_S1)
    )


# ---------------------------------------------------------------------------
# reference functions

def expectation(p, f) -> float:
    """Expectation of gamble ``f`` under pmf ``p``: sum over states of p*f."""
    p = as_vector(p, name="pmf")
    f = as_vector(f, size=p.size, name="gamble")
    return float(np.dot(p, f))


def is_pmf(p) -> bool:
    """True iff ``p`` is a probability mass function within ``EPS_PROB``:
    the per-vertex rule behind a vertex row's ``feasible`` flag."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    if np.any(arr < -EPS_PROB) or np.any(arr > 1.0 + EPS_PROB):
        return False
    return abs(float(arr.sum()) - 1.0) <= EPS_PROB


def interval_witness(row: IntervalRow) -> np.ndarray:
    """Greedy feasible pmf of an interval row: start at the lower bounds and
    fill the remaining mass in state order, capped by the upper bounds.  This
    is the maximiser of the zero objective, whose stable order is state
    order."""
    return maximize(row, np.zeros(row.dim)).maximizer


def iterate_upper(model: ImpreciseMarkovChain, f, k: int) -> np.ndarray:
    """k-fold application of the upper transition operator (k = 0 is the identity)."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    out = as_vector(f, size=model.size, name="gamble").copy()
    for _ in range(k):
        out = upper_transition(model, out)
    return out


def iterate_lower(model: ImpreciseMarkovChain, f, k: int) -> np.ndarray:
    """k-fold application of the lower transition operator.

    Bit-identical to applying ``lower_transition`` k times, because the
    lower operator is exactly the negated upper operator of the negated gamble.
    """
    return -iterate_upper(model, -as_vector(f, size=model.size, name="gamble"), k)


def row_to_document(row) -> dict:
    """The document form of a credal row, as ``cli.parse_model`` reads it."""
    if isinstance(row, IntervalRow):
        return {"intervals": {"lower": list(row.lower), "upper": list(row.upper)}}
    if isinstance(row, VertexRow):
        return {"vertices": [list(v) for v in row.vertices]}
    if isinstance(row, ConstraintRow):
        return {"constraints": {"A": [list(r) for r in row.a], "b": list(row.b)}}
    raise TypeError(f"unsupported credal row type {type(row).__name__}")


def model_to_document(model: ImpreciseMarkovChain) -> dict:
    """The document form of a model, as ``cli.parse_model`` reads it."""
    return {
        "states": list(model.states.labels),
        "rows": {
            label: row_to_document(row)
            for label, row in zip(model.states.labels, model.rows)
        },
        "initial": row_to_document(model.initial),
    }


# ---------------------------------------------------------------------------
# random instance generators (all driven by a caller-provided Generator)

def random_pmf(rng, d):
    return rng.dirichlet(np.ones(d))


def random_interval_bounds(rng, d, max_width=0.4):
    center = rng.dirichlet(np.ones(d))
    width = rng.uniform(0.0, max_width, size=d)
    lower = np.maximum(center - width, 0.0)
    upper = np.minimum(center + width, 1.0)
    return lower, upper


def random_interval_row(rng, d):
    lower, upper = random_interval_bounds(rng, d)
    return IntervalRow(lower=lower, upper=upper)


def random_vertex_row(rng, d, max_vertices=3):
    k = int(rng.integers(1, max_vertices + 1))
    return VertexRow(vertices=np.array([random_pmf(rng, d) for _ in range(k)]))


def interval_to_constraints(lower, upper) -> ConstraintRow:
    d = len(lower)
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([upper, -lower])
    return ConstraintRow(a=a, b=b)


def random_constraint_row(rng, d):
    lower, upper = random_interval_bounds(rng, d)
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([upper, -lower])
    if rng.random() < 0.5:
        # One extra halfspace through a strictly interior margin of a point
        # known to be feasible, so the row stays nonempty.
        witness = interval_witness(IntervalRow(lower=lower, upper=upper))
        extra = rng.normal(size=d)
        a = np.vstack([a, extra])
        b = np.append(b, float(extra @ witness) + 0.05)
    return ConstraintRow(a=a, b=b)


def small_constraint_row(rng, d):
    """Two halfspaces with the uniform pmf strictly inside: a small tableau,
    so a simplex call stays cheap at large d."""
    a = rng.normal(size=(2, d))
    return ConstraintRow(a=a, b=a @ np.full(d, 1.0 / d) + 0.05)


ROW_KINDS = ("intervals", "vertices", "constraints")


def random_row(rng, d, kinds=ROW_KINDS, max_vertices=3):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "intervals":
        return random_interval_row(rng, d)
    if kind == "vertices":
        return random_vertex_row(rng, d, max_vertices)
    return random_constraint_row(rng, d)


def random_model(rng, d, kinds=ROW_KINDS, max_vertices=3) -> ImpreciseMarkovChain:
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    rows = tuple(random_row(rng, d, kinds, max_vertices) for _ in range(d))
    initial = random_row(rng, d, kinds, max_vertices)
    return ImpreciseMarkovChain(states=space, initial=initial, rows=rows)


def random_gamble(rng, d, scale=2.0):
    return rng.uniform(-scale, scale, size=d)


def random_spec(rng, d, max_horizon=5, min_horizon=1) -> RecursiveSpec:
    n = int(rng.integers(min_horizon, max_horizon + 1))
    steps = tuple(
        (random_gamble(rng, d), random_gamble(rng, d)) for _ in range(n - 1)
    )
    return RecursiveSpec(g0=random_gamble(rng, d), steps=steps)


def singleton_model(rng, d):
    """A precise chain wrapped as singleton credal rows, plus its matrices."""
    space = StateSpace(tuple(f"s{i}" for i in range(d)))
    t = np.array([random_pmf(rng, d) for _ in range(d)])
    p0 = random_pmf(rng, d)
    rows = tuple(VertexRow(vertices=t[i][None, :]) for i in range(d))
    model = ImpreciseMarkovChain(
        states=space, initial=VertexRow(vertices=p0[None, :]), rows=rows
    )
    return model, p0, t


def sample_in_row(rng, row, n_samples=100, max_tries=8000):
    """Sample pmfs lying in (the convex hull of) a credal row by rejection."""
    out = []
    if isinstance(row, VertexRow):
        k = row.vertices.shape[0]
        for _ in range(n_samples):
            w = rng.dirichlet(np.ones(k))
            out.append(w @ row.vertices)
        return out
    if isinstance(row, IntervalRow):
        lower, upper = row.lower, row.upper
        accept = lambda p: bool(np.all(p <= upper + 1e-12))
    elif isinstance(row, ConstraintRow):
        d = row.dim
        lower = np.zeros(d)
        accept = lambda p: bool(np.all(row.a @ p <= row.b + 1e-12))
    else:
        raise TypeError(type(row).__name__)
    d = lower.size
    remaining = 1.0 - float(lower.sum())
    tries = 0
    while len(out) < n_samples and tries < max_tries:
        tries += 1
        p = lower + remaining * rng.dirichlet(np.ones(d))
        if accept(p):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# small independent oracles

def reference_pour(row: IntervalRow, order):
    """Sequential greedy pour: start at the lower bounds and move the
    remaining mass into the states in ``order``, one at a time, each up to its
    upper bound.  Returns the pmf and the number of states that took mass.

    ``IntervalRow._maximize`` runs this loop on the row's kept inputs, and
    stops it before the first state the spent slack reaches; this one
    reads only ``lower`` and ``upper``, none of the cached row invariants.
    """
    p = np.array(row.lower, copy=True)
    remaining = 1.0 - float(p.sum())
    iterations = 0
    if remaining > 0.0:
        for i in order:
            headroom = row.upper[i] - row.lower[i]
            if headroom <= 0.0:
                continue
            add = headroom if headroom < remaining else remaining
            p[i] += add
            remaining -= add
            iterations += 1
            if remaining <= 0.0:
                break
    if remaining > EPS_FEAS:
        raise InfeasibleRowError("interval row has total upper mass below 1")
    return p, iterations


def reference_interval_maximize(row: IntervalRow, c):
    """Reference interval-row maximum: (value, maximizer, iterations) of the
    sequential pour in decreasing objective order, ties by ascending index."""
    if (
        np.any(row.lower > row.upper + EPS_PROB)
        or float(row.lower.sum()) > 1.0 + EPS_PROB
    ):
        raise InfeasibleRowError("interval row is empty")
    c = np.asarray(c, dtype=float)
    p, iterations = reference_pour(row, np.argsort(-c, kind="stable"))
    return float(np.dot(c, p)), p, iterations


def reference_simplex_max(c, a_ub, b_ub, check_start=True):
    """Reference constraint-row maximum: (value, maximizer, iterations) of a
    dense two-phase simplex on numpy rows for: max c @ p  s.t.
    a_ub @ p <= b_ub, sum(p) = 1, p >= 0.  ``iterations`` counts the
    phase-2 pivots, as ``maximize`` does.

    With ``check_start``, the start phase 1 leaves must lie in the row
    within ``EPS_FEAS``, or ``NumericalError`` is raised with the message
    of ``core._check_start``, the check a row that keeps the simplex makes
    when it is built.

    This is the solver ``maximize`` used before phase 1 was kept per row: it
    scales the row, builds the full tableau (artificial columns included)
    and solves both phases on every call.

    Enters by Dantzig's rule (most negative reduced cost, lowest index on
    ties), or by Bland's smallest-index rule right after a degenerate pivot,
    and leaves by the minimum ratio with ties to the smallest basic index,
    as ``core._run_phase`` does.  This excludes cycling and fixes the pivot
    sequence, so the solver is fully deterministic.  The feasible set is a
    subset of the probability simplex, hence bounded; an unbounded ray
    indicates a numeric breakdown and raises ``NumericalError``.

    Each inequality is scaled to unit max-norm first, so that the absolute
    tolerances ``PIVOT_TOL`` and ``EPS_FEAS`` mean the same on every row
    whatever its units; an all-zero inequality is left as it is.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    norms = np.abs(a_ub).max(axis=1, initial=0.0)
    norms[norms == 0.0] = 1.0
    a_ub = a_ub / norms[:, None]
    with np.errstate(over="ignore"):  # a subnormal norm; see ConstraintRow
        b_ub = b_ub / norms

    d = c.size
    m = a_ub.shape[0]
    n_rows = m + 1
    n_cols = d + m  # structural + one slack per inequality

    body = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    needs_artificial = [False] * n_rows
    for i in range(m):
        arow = a_ub[i]
        bi = float(b_ub[i])
        if bi < 0.0:
            # Negate so the right-hand side is nonnegative; the slack then
            # enters with coefficient -1 and cannot start in the basis.
            body[i, :d] = -arow
            body[i, d + i] = -1.0
            rhs[i] = -bi
            needs_artificial[i] = True
        else:
            body[i, :d] = arow
            body[i, d + i] = 1.0
            rhs[i] = bi
    body[m, :d] = 1.0
    rhs[m] = 1.0
    needs_artificial[m] = True

    art_rows = [i for i in range(n_rows) if needs_artificial[i]]
    n_art = len(art_rows)
    tableau = np.zeros((n_rows + 1, n_cols + n_art + 1))
    tableau[:n_rows, :n_cols] = body
    tableau[:n_rows, -1] = rhs
    basis = np.empty(n_rows, dtype=int)
    for i in range(m):
        basis[i] = d + i
    for j, i in enumerate(art_rows):
        tableau[i, n_cols + j] = 1.0
        basis[i] = n_cols + j

    def run_phase(costs: np.ndarray, allowed: int) -> int:
        # Reduced-cost row for minimising costs @ x; entering candidates are
        # the allowed columns with a negative reduced cost.
        obj = np.zeros(tableau.shape[1])
        obj[: costs.size] = costs
        for i in range(n_rows):
            cb = costs[basis[i]] if basis[i] < costs.size else 0.0
            if cb != 0.0:
                obj -= cb * tableau[i]
        pivots = 0
        degenerate = False
        while True:
            # Dantzig's rule (most negative, lowest index on ties), or
            # Bland's (first negative) right after a degenerate pivot.
            enter = -1
            least = -PIVOT_TOL
            for j in range(allowed):
                if obj[j] < least:
                    enter = j
                    if degenerate:
                        break
                    least = obj[j]
            if enter < 0:
                break
            leave = -1
            best_ratio = np.inf
            # An infinite right-hand side gives an infinite ratio, which
            # never wins the test; inf - inf there is NaN and compares false.
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n_rows):
                    coef = tableau[i, enter]
                    if coef > PIVOT_TOL:
                        ratio = tableau[i, -1] / coef
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
            pivot_row = tableau[leave] / tableau[leave, enter]
            tableau[leave] = pivot_row
            for i in range(n_rows):
                if i != leave and tableau[i, enter] != 0.0:
                    tableau[i] -= tableau[i, enter] * pivot_row
            obj -= obj[enter] * pivot_row
            basis[leave] = enter
            pivots += 1
            degenerate = best_ratio <= PIVOT_TOL
        # Current objective value is -obj[-1]; stash it on the last row.
        tableau[-1] = obj
        return pivots

    if n_art:
        phase1_costs = np.zeros(n_cols + n_art)
        phase1_costs[n_cols:] = 1.0
        run_phase(phase1_costs, allowed=n_cols)
        if -tableau[-1, -1] > EPS_FEAS:
            raise InfeasibleRowError("constraint system admits no pmf")
        # Drive leftover artificials out of the basis where possible; a row
        # with no structural pivot is redundant and stays inert at level 0.
        for i in range(n_rows):
            if basis[i] >= n_cols:
                for j in range(n_cols):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        pivot_row = tableau[i] / tableau[i, j]
                        tableau[i] = pivot_row
                        for k in range(n_rows):
                            if k != i and tableau[k, j] != 0.0:
                                tableau[k] -= tableau[k, j] * pivot_row
                        basis[i] = j
                        break
    if check_start:
        x = np.zeros(n_cols + n_art)
        x[basis] = tableau[:n_rows, -1]
        with np.errstate(over="ignore", invalid="ignore"):
            inside = (x[:d] >= -EPS_FEAS).all() and (
                a_ub @ x[:d] <= b_ub + EPS_FEAS
            ).all()
        if not inside:
            raise NumericalError(
                "phase 1 of the simplex left the constraint row: its start "
                "misses the row by more than EPS_FEAS"
            )

    phase2_costs = np.zeros(n_cols + n_art)
    phase2_costs[:d] = -c
    iterations = run_phase(phase2_costs, allowed=n_cols)

    x = np.zeros(n_cols + n_art)
    x[basis] = tableau[:n_rows, -1]
    p = x[:d].copy()
    return float(np.dot(c, p)), p, iterations


class PivotCapError(RuntimeError):
    """``reference_run_phase`` made more pivots than it was allowed."""


def reference_run_phase(tableau: list, basis: list, max_pivots=None) -> int:
    """The eager phase loop: pivot until no reduced cost is below
    ``-PIVOT_TOL`` and return the pivot count, updating every row of
    ``tableau`` (lists of floats, the reduced-cost row last) at every pivot
    with ``reference_pivot``.  Its entering and leaving rules are those of
    ``core._run_phase``, which updates only the rows a pivot reads and must
    give the same pivots and bits; this is the loop it replaced.  Raises
    ``PivotCapError`` after ``max_pivots`` pivots, when given."""
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
        if pivots == max_pivots:
            raise PivotCapError(f"more than {max_pivots} pivots")
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
        reference_pivot(tableau, leave, enter)
        basis[leave] = enter
        pivots += 1
        degenerate = best_ratio <= PIVOT_TOL


def reference_pivot(tableau: list, r: int, j: int) -> None:
    """Scale row ``r`` so that its entry in column ``j`` is 1, and eliminate
    column ``j`` from every other row that has a nonzero entry there.  Rows
    are replaced by new lists, never written in place."""
    pivot_value = tableau[r][j]
    pivot_row = [x / pivot_value for x in tableau[r]]
    tableau[r] = pivot_row
    for i, trow in enumerate(tableau):
        factor = trow[j]
        if i != r and factor != 0.0:
            tableau[i] = [x - factor * y for x, y in zip(trow, pivot_row)]


def reference_phase_one(row):
    """The start ``(tableau, basis)`` that ``core._solve_phase_one`` must
    keep for a row with ``scaled_a`` and ``scaled_b``: phase 1 and the
    drive-out of leftover artificials, run with ``reference_run_phase`` and
    ``reference_pivot``, which update every row at every pivot.  Raises
    ``InfeasibleRowError`` when no pmf satisfies the row."""
    m, d = row.scaled_a.shape
    n_cols = d + m
    tableau = []
    basis = []
    artificial = []
    inequalities = zip(row.scaled_a.tolist(), row.scaled_b.tolist())
    for i, (arow, bi) in enumerate(inequalities):
        slack = [0.0] * m
        if bi < 0.0:
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
    obj = [0.0] * (n_cols + 1)
    for trow, k in zip(tableau, basis):
        if k >= n_cols:
            obj = [o - 1.0 * x for o, x in zip(obj, trow)]
    tableau.append(obj)
    reference_run_phase(tableau, basis)
    if -tableau.pop()[-1] > EPS_FEAS:
        raise InfeasibleRowError("constraint system admits no pmf")
    for i in range(m + 1):
        if basis[i] >= n_cols:
            for j in range(n_cols):
                if abs(tableau[i][j]) > PIVOT_TOL:
                    reference_pivot(tableau, i, j)
                    basis[i] = j
                    break
    return tuple(map(tuple, tableau)), tuple(basis)


# Cap on the number of enumerated process assignments (summed over starting
# states), which bounds the cost of the brute-force envelope check.
ASSIGNMENT_CAP = 1_000_000


def _row_extreme_points(row: CredalRow, where: str) -> list[np.ndarray]:
    if isinstance(row, VertexRow):
        return [np.array(v, copy=True) for v in row.vertices]
    if isinstance(row, IntervalRow) and row.dim == 2:
        # On two states the interval row is a segment; its endpoints are the
        # pmfs with maximal mass on either state.
        lo, up = row.lower, row.upper
        p0_hi = min(up[0], 1.0 - lo[1])
        p0_lo = max(lo[0], 1.0 - up[1])
        points = [np.array([p0_hi, 1.0 - p0_hi])]
        if abs(p0_lo - p0_hi) > 1e-15:
            points.append(np.array([p0_lo, 1.0 - p0_lo]))
        return points
    raise ValueError(
        f"{where}: vertex enumeration needs vertex rows "
        "(or two-state interval rows, which convert to their endpoints)"
    )


def enumerate_vertex_processes(
    model: ImpreciseMarkovChain, hist: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force envelope over extreme compatible processes, given the start.

    A compatible process may pick a different row element after every
    history, so one assignment attaches an extreme pmf to every history node
    of depth below the horizon.  Subtrees never interact, so the
    expectations below a node, one per assignment of its subtree, are every
    ``sum(pmf[y] * w[y])`` with ``pmf`` an extreme point of the node's row
    and ``w`` one expectation from each child.  The componentwise maximum
    and minimum over each start's expectations are returned.  Assignments
    are counted first, per depth and last state; more than
    ``ASSIGNMENT_CAP`` over all starts raises ``CapExceededError``.
    """
    _check_history(model, hist)
    d = model.size
    n = hist.ndim
    values = hist.ravel()
    if n == 1:
        return values.copy(), values.copy()

    extremes = [
        _row_extreme_points(row, f"row {label!r}")
        for label, row in zip(model.states.labels, model.rows)
    ]
    counts = [1] * d
    for _ in range(n - 1):
        below = math.prod(counts)
        counts = [min(len(e) * below, ASSIGNMENT_CAP + 1) for e in extremes]
    if sum(counts) > ASSIGNMENT_CAP:
        raise CapExceededError(
            f"process enumeration needs more than {ASSIGNMENT_CAP} assignments"
        )

    def expectations(idx: int, depth: int) -> list[float]:
        if depth == n:
            return [float(values[idx])]
        children = [expectations(idx * d + y, depth + 1) for y in range(d)]
        return [
            sum(pmf[y] * w[y] for y in range(d) if pmf[y] != 0.0)
            for pmf in extremes[idx % d]
            for w in product(*children)
        ]

    per_start = [expectations(x, 1) for x in range(d)]
    # Starting from an infinity skips NaN expectations.
    upper = np.array([max([-np.inf, *e]) for e in per_start])
    lower = np.array([min([np.inf, *e]) for e in per_start])
    return upper, lower


def endpoint_bruteforce_two_step_upper(model, f):
    """Componentwise max of the two-step expectation of f over all per-step,
    per-state interval endpoint choices (two-state interval rows only)."""
    extremes = []
    for row in model.rows:
        if not isinstance(row, IntervalRow) or row.dim != 2:
            raise ValueError("the brute force needs two-state interval rows")
        qs = sorted({float(row.lower[1]), float(row.upper[1])})
        extremes.append([np.array([1.0 - q, q]) for q in qs])
    f = np.asarray(f, dtype=float)
    best = np.full(2, -np.inf)
    for rows1 in product(*extremes):
        t1 = np.vstack(rows1)
        for rows2 in product(*extremes):
            t2 = np.vstack(rows2)
            best = np.maximum(best, t1 @ (t2 @ f))
    return best


def forward_conditional(t, path_value, n):
    """E[g(X_1..X_n) | X_1 = x] for a precise chain, by path enumeration."""
    d = t.shape[0]
    out = np.zeros(d)
    for x in range(d):
        for tail in product(range(d), repeat=n - 1):
            path = (x, *tail)
            prob = 1.0
            for a, b in zip(path[:-1], path[1:]):
                prob *= t[a, b]
            out[x] += prob * path_value(path)
    return out


def forward_unconditional(p0, t, path_value, n):
    return float(p0 @ forward_conditional(t, path_value, n))


def path_value_single_instant(f):
    return lambda path: float(f[path[-1]])


def path_value_sum(fs):
    return lambda path: float(sum(f[x] for f, x in zip(fs, path)))


def path_value_product(fs):
    return lambda path: float(np.prod([f[x] for f, x in zip(fs, path)]))


def path_value_hitting_probability(mask):
    return lambda path: 1.0 if any(mask[x] for x in path) else 0.0


def path_value_hitting_time(mask):
    def value(path):
        for i, x in enumerate(path):
            if mask[x]:
                return float(i)
        return float(len(path))

    return value
