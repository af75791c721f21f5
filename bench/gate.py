"""Correctness gate applied to every op before its time counts.

An op passes when the command exited 0 and its result document shows

- the exact LP-call count the recursion promises: ``2(n-1)d + 2`` for a
  fixed-horizon ``infer``, ``2(h-1)d + 2h`` for a limit run that reached
  horizon h, ``2(n-1)d`` for the engine and ``2 * sum(d**i, i=1..n-1)`` for
  the oracle in ``check``;
- ``lower <= upper`` for every bound;
- bounds that enclose the expectation under a precise chain inside the
  model, computed here without the program;
- for ``check``, engine and oracle bounds within ``AGREE`` of each other,
  recomputed from the two documents rather than read from ``agree``.
"""

from __future__ import annotations

import math

# Slack for a bound against the precise-chain expectation, relative to max(1, |value|).
WITNESS_TOL = 1e-9
# Largest engine/oracle gap accepted, as in `credalmc check`.
AGREE = 1e-8


def expected_lp_calls(op, horizon: int | None = None) -> int:
    d = op.d
    if op.command == "check":
        return 2 * (op.n - 1) * d + 2 * sum(d**i for i in range(1, op.n))
    if op.limit:
        return 2 * (horizon - 1) * d + 2 * horizon
    return 2 * (op.n - 1) * d + 2


def _enclosed(value, lower, upper) -> bool:
    slack = WITNESS_TOL * max(1.0, abs(value))
    return lower - slack <= value <= upper + slack


def _ordered(lower, upper) -> bool:
    return lower <= upper + 1e-12 * max(1.0, abs(upper))


def _conditional(doc, labels, witness, where, problems):
    if not isinstance(doc, dict) or sorted(doc) != sorted(labels):
        problems.append(f"{where}: conditional bounds do not name every state")
        return None
    for label, w in zip(labels, witness):
        lower, upper = doc[label]
        if not _ordered(lower, upper):
            problems.append(f"{where}: conditional lower > upper at {label}")
        if not _enclosed(w, lower, upper):
            problems.append(
                f"{where}: conditional bounds [{lower}, {upper}] at {label} "
                f"miss the precise value {w}"
            )
    return [doc[label] for label in labels]


def check(op, returncode: int, doc) -> tuple[list[str], int]:
    """Problems with one op's result (empty when it passes) and the number of
    LP calls it verified."""
    if returncode != 0:
        return [f"exit code {returncode}"], 0
    if not isinstance(doc, dict):
        return ["no result document"], 0
    try:
        return _check(op, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result document: {exc!r}"], 0


def _check(op, doc):
    problems: list[str] = []
    labels = op.labels
    if op.command == "check":
        n = op.n
        want_engine = 2 * (n - 1) * op.d
        want_oracle = expected_lp_calls(op) - want_engine
        engine, oracle = doc["engine"], doc["oracle"]
        if engine["lp_calls"] != want_engine:
            problems.append(f"engine lp_calls {engine['lp_calls']} != {want_engine}")
        if oracle["lp_calls"] != want_oracle:
            problems.append(f"oracle lp_calls {oracle['lp_calls']} != {want_oracle}")
        witness, _ = op.witness()
        ours = _conditional(engine["conditional"], labels, witness, "engine", problems)
        theirs = _conditional(oracle["conditional"], labels, witness, "oracle", problems)
        if ours and theirs:
            gap = max(abs(a - b) for x, y in zip(ours, theirs) for a, b in zip(x, y))
            if not gap < AGREE:
                problems.append(f"engine and oracle differ by {gap}")
        if doc["agree"] is not True:
            problems.append("check reports agree != true")
        return problems, engine["lp_calls"] + oracle["lp_calls"]

    horizon = None
    if op.limit:
        horizon = doc["horizon_reached"]
        if not isinstance(horizon, int) or horizon < 2:
            return [f"bad horizon_reached {horizon!r}"], 0
        if doc["converged"] is not True:
            problems.append(f"limit run did not converge by horizon {horizon}")
        if len(doc["upper_trace"]) != horizon or len(doc["lower_trace"]) != horizon:
            problems.append("trace length differs from horizon_reached")
        elif (doc["upper_trace"][-1], doc["lower_trace"][-1]) != (doc["upper"], doc["lower"]):
            problems.append("bounds differ from the last trace entry")
    want = expected_lp_calls(op, horizon)
    if doc["lp_calls"] != want:
        problems.append(f"lp_calls {doc['lp_calls']} != {want}")
    lower, upper = doc["lower"], doc["upper"]
    if not (math.isfinite(lower) and math.isfinite(upper)):
        problems.append("non-finite bound")
    if not _ordered(lower, upper):
        problems.append(f"lower {lower} > upper {upper}")
    witness, value = op.witness(horizon)
    if not _enclosed(value, lower, upper):
        problems.append(f"bounds [{lower}, {upper}] miss the precise value {value}")
    _conditional(doc["conditional"], labels, witness, "infer", problems)
    return problems, doc["lp_calls"]
