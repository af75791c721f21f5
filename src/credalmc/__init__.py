"""Tight lower and upper expectation bounds for imprecise Markov chains.

An imprecise Markov chain is given by a credal set of initial distributions
and one credal set of transition distributions per state.  This package
computes tight conditional and unconditional bounds on the expectation of
recursively decomposable path functions (sums, products, hitting
probabilities, hitting times, and anything of that shape) in time linear in
the horizon, alongside exponential-cost reference computations used to
verify the fast path.
"""

from .core import (
    CapExceededError,
    ConstraintRow,
    CredalRow,
    ImpreciseMarkovChain,
    InfeasibleRowError,
    IntervalRow,
    NumericalError,
    StateSpace,
    VertexRow,
    expectation,
    interval_witness,
    is_pmf,
    row_contains,
    validate_model,
)
from .engine import (
    BoundsResult,
    RecursiveSpec,
    conditional_bounds,
    infer,
    unconditional_bounds,
)
from .inferences import (
    LimitResult,
    limit_infer,
    spec_hitting_probability,
    spec_hitting_time,
    spec_product,
    spec_single_instant,
    spec_sum,
    spec_time_average,
)
from .lp import LpCounter, LpResult, feasible, maximize, minimize
from .operators import (
    extended_lower,
    extended_upper,
    iterate_lower,
    iterate_upper,
    lower_transition,
    upper_transition,
)
from .oracle import (
    ASSIGNMENT_CAP,
    HISTORY_CAP,
    enumerate_vertex_processes,
    materialize_path_function,
    naive_conditional_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "ASSIGNMENT_CAP",
    "BoundsResult",
    "CapExceededError",
    "ConstraintRow",
    "CredalRow",
    "HISTORY_CAP",
    "ImpreciseMarkovChain",
    "InfeasibleRowError",
    "IntervalRow",
    "LimitResult",
    "LpCounter",
    "LpResult",
    "NumericalError",
    "RecursiveSpec",
    "StateSpace",
    "VertexRow",
    "conditional_bounds",
    "enumerate_vertex_processes",
    "expectation",
    "extended_lower",
    "extended_upper",
    "feasible",
    "infer",
    "interval_witness",
    "is_pmf",
    "iterate_lower",
    "iterate_upper",
    "limit_infer",
    "lower_transition",
    "materialize_path_function",
    "maximize",
    "minimize",
    "naive_conditional_bounds",
    "row_contains",
    "spec_hitting_probability",
    "spec_hitting_time",
    "spec_product",
    "spec_single_instant",
    "spec_sum",
    "spec_time_average",
    "unconditional_bounds",
    "upper_transition",
    "validate_model",
]
