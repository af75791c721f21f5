"""Command-line interface: model and query file formats, the three commands
(validate, infer, check) and deterministic result serialisation.

Model and query documents are JSON.  A model document looks like

    {"states": ["s0", "s1"],
     "rows": {"s0": {"intervals": {"lower": [0.7, 0.1], "upper": [0.9, 0.3]}},
              "s1": {"vertices": [[0.4, 0.6], [0.6, 0.4]]}},
     "initial": {"constraints": {"A": [[1.0, 0.0]], "b": [0.8]}}}

and a query document names a kind plus its parameters, e.g.

    {"kind": "hitting_probability", "A": ["s1"], "n": 2}
    {"kind": "custom", "g0": {"s1": 1.0},
     "steps": [{"h": {"s0": 1.0}, "g": {"s1": 1.0}}]}

Gambles are state-name-to-value maps; omitted states default to 0.  Numbers
must be finite (Python's JSON reader accepts NaN and the infinities).  Hitting
kinds accept an optional {"limit": {"tol": ..., "max_horizon": ...}} object
to request the growing-horizon approximation instead of a fixed horizon; its
two settings, a finite tol > 0 and an integer max_horizon >= 2, default to
1e-6 and 100000.  A limit run's result document is the fixed-horizon one
plus the horizon reached, the convergence flag and the per-horizon traces.

A model document is parsed in two steps.  One pure-Python pass over the row
documents, in state order and then the initial set, makes every check that
can raise, so the first bad row names the error.  The interval rows and the
vertex rows are then each built from one array per field
(``IntervalRow.stack``, ``VertexRow.stack``); constraint rows are built one
by one in the first pass, each solving its simplex phase 1 there.

Exit codes: 0 success, 2 parse or validation error or an unwritable
``--output`` path, 3 numerical failure, 4 size cap exceeded or out of memory
(and 1 for a check that found a discrepancy).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    CapExceededError,
    ConstraintRow,
    CredalRow,
    ImpreciseMarkovChain,
    IntervalRow,
    NumericalError,
    StateSpace,
    VertexRow,
    validate_model,
)
from .engine import RecursiveSpec, conditional_bounds, infer
from .inferences import (
    HITTING_FAMILIES,
    limit_infer,
    spec_product,
    spec_single_instant,
    spec_sum,
    spec_time_average,
)
from .lp import LpCounter
from .oracle import materialize_path_function, naive_conditional_bounds

CHECK_TOLERANCE = 1e-8


class DocumentError(ValueError):
    """A model or query document failed to parse or validate, or the result
    document could not be written."""


# ---------------------------------------------------------------------------
# parsing

def _require(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    if key not in doc:
        raise DocumentError(f"{kind} document is missing the {key!r} field")
    return doc[key]


def _finite_number(value, where: str, key=None) -> float:
    """A document number as a float; anything else, NaN, an infinity or an
    integer beyond float range raises a ``DocumentError`` naming ``where``,
    or ``where[key]`` when a ``key`` is given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "must be a number"
    else:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
        problem = "must be finite"
    field = where if key is None else f"{where}[{key!r}]"
    raise DocumentError(f"{field} {problem}")


_FLOAT_ONLY = frozenset([float])


def _parse_numbers(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise DocumentError(f"{where} must be a list of numbers")
    # A list of floats alone, as a JSON reader makes them, is returned as it
    # is; any other list takes the element loop, so its error is the one the
    # first bad element gives.
    if set(map(type, values)) <= _FLOAT_ONLY:
        return values
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DocumentError(f"{where} must contain only numbers")
        out.append(float(v))
    return out


def _check_finite(values: list[float], where: str, name: str):
    # A sum is finite only if every term is; a finite sum of finite terms
    # may still overflow, so that case alone takes the element check.
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise DocumentError(f"{where}: {name} contains non-finite entries")


def _check_lengths(lists: list[list[float]], where: str) -> int:
    """The length of every list in ``lists``; the first of another length
    raises a ``DocumentError`` naming it."""
    width = len(lists[0])
    for i, values in enumerate(lists):
        if len(values) != width:
            raise DocumentError(
                f"{where}[{i}] has length {len(values)}, expected {width}"
            )
    return width


def _row_fields(doc, where: str, dim: int) -> tuple:
    """Every check of a row document that can raise, in the order the row
    constructors make them, in plain Python.  Returns ``("intervals",
    (lower, upper))`` or ``("vertices", vertex_lists)`` with the numbers as
    lists of floats, or ``("constraints", row)`` with the row built."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise DocumentError(
            f"{where} must be an object with exactly one of "
            "'intervals', 'vertices' or 'constraints'"
        )
    (key, body), = doc.items()
    try:
        if key == "intervals":
            lower = _parse_numbers(_require(body, "lower", where), f"{where}.lower")
            upper = _parse_numbers(_require(body, "upper", where), f"{where}.upper")
            _check_finite(lower, where, "lower bounds")
            if len(upper) != len(lower):
                raise DocumentError(f"{where}: upper bounds has length "
                                    f"{len(upper)}, expected {len(lower)}")
            _check_finite(upper, where, "upper bounds")
            return key, (lower, upper)
        if key == "vertices":
            if not isinstance(body, list) or not body:
                raise DocumentError(f"{where}.vertices must be a nonempty list")
            vertices = [_parse_numbers(v, f"{where}.vertices[{i}]")
                        for i, v in enumerate(body)]
            if _check_lengths(vertices, f"{where}.vertices") == 0:
                raise DocumentError(
                    f"{where}: vertex list must be a nonempty 2-D array"
                )
            for v in vertices:
                _check_finite(v, where, "vertex list")
            return key, vertices
        if key == "constraints":
            a = _require(body, "A", where)
            b = _parse_numbers(_require(body, "b", where), f"{where}.b")
            if not isinstance(a, list):
                raise DocumentError(f"{where}.A must be a list of rows")
            mat = [_parse_numbers(r, f"{where}.A[{i}]") for i, r in enumerate(a)]
            if mat:
                _check_lengths(mat, f"{where}.A")
                a = np.array(mat)
            else:
                a = np.zeros((0, dim))
            return key, ConstraintRow(a=a, b=np.array(b))
    except DocumentError:
        raise  # already names the field it is about
    except (ValueError, OverflowError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc
    raise DocumentError(f"{where}: unknown row representation {key!r}")


def _build_rows(fields: list[tuple]) -> list[CredalRow]:
    """The rows of checked ``_row_fields`` results, in their order.  The
    interval rows of one width are built together, from one array per bound,
    and so are the vertex rows of one width, from one array of all their
    vertices."""
    rows: list = [None] * len(fields)
    groups: dict[tuple, list[int]] = {}
    for i, (kind, value) in enumerate(fields):
        if kind == "constraints":
            rows[i] = value
        else:
            width = len(value[0])  # of the lower bounds, or of the first vertex
            groups.setdefault((kind, width), []).append(i)
    for (kind, _), positions in groups.items():
        if kind == "intervals":
            built = IntervalRow.stack([fields[i][1][0] for i in positions],
                                      [fields[i][1][1] for i in positions])
        else:
            built = VertexRow.stack([fields[i][1] for i in positions])
        for i, row in zip(positions, built):
            rows[i] = row
    return rows


def parse_model(doc) -> ImpreciseMarkovChain:
    """Build a model from its document form (structural checks only).

    One pass over the row documents, in state order and then the initial
    set, makes every check that can raise, so the first bad row names the
    error.  The rows of each kind are then built together (``_build_rows``)."""
    states = _require(doc, "states", "model")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise DocumentError("'states' must be a list of state names")
    try:
        space = StateSpace(tuple(states))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    rows_doc = _require(doc, "rows", "model")
    if not isinstance(rows_doc, dict):
        raise DocumentError("'rows' must map state names to row objects")
    unknown = sorted(set(rows_doc) - set(states))
    if unknown:
        raise DocumentError(f"'rows' mentions unknown states: {', '.join(unknown)}")
    missing = [s for s in states if s not in rows_doc]
    if missing:
        raise DocumentError(f"'rows' is missing states: {', '.join(missing)}")
    fields = [_row_fields(rows_doc[s], f"rows[{s!r}]", space.size) for s in states]
    fields.append(_row_fields(_require(doc, "initial", "model"), "initial", space.size))
    *rows, initial = _build_rows(fields)
    return ImpreciseMarkovChain(states=space, initial=initial, rows=tuple(rows))


def _parse_gamble(doc, space: StateSpace, where: str) -> np.ndarray:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where} must map state names to numbers")
    out = np.zeros(space.size)
    for name, value in doc.items():
        try:
            idx = space.index(name)
        except KeyError:
            raise DocumentError(f"{where} references unknown state {name!r}") from None
        out[idx] = _finite_number(value, where, name)
    return out


def _parse_targets(doc, space: StateSpace, where: str) -> list[str]:
    if not isinstance(doc, list) or not all(isinstance(s, str) for s in doc):
        raise DocumentError(f"{where} must be a list of state names")
    for name in doc:
        try:
            space.index(name)
        except KeyError:
            raise DocumentError(f"{where} references unknown state {name!r}") from None
    return list(doc)


def _parse_horizon(doc, kind: str) -> int:
    n = _require(doc, "n", "query")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"query kind {kind!r} needs an integer horizon n >= 1")
    # A longer horizon has more steps than a Python sequence can hold.
    if n > sys.maxsize:
        raise DocumentError(f"query kind {kind!r} needs a horizon n <= {sys.maxsize}")
    return n


@dataclass(frozen=True)
class Query:
    """A parsed query: either a fixed-horizon spec (with an output scale) or
    a limit request for one of the hitting families, held as the keyword
    arguments of ``limit_infer``."""

    spec: RecursiveSpec | None
    scale: float
    limit: dict | None = None


_KINDS = ("single_instant", "sum", "time_average", "product", *HITTING_FAMILIES,
          "custom")


def parse_query(doc, space: StateSpace) -> Query:
    kind = _require(doc, "kind", "query")
    if kind not in _KINDS:
        raise DocumentError(
            f"unknown query kind {kind!r}; expected one of {', '.join(_KINDS)}"
        )
    if "limit" in doc and kind not in HITTING_FAMILIES:
        raise DocumentError("'limit' is only allowed with the hitting kinds")

    scale = 1.0
    if kind == "single_instant":
        f = _parse_gamble(_require(doc, "f", "query"), space, "f")
        spec = spec_single_instant(f, _parse_horizon(doc, kind))
    elif kind in ("sum", "product"):
        fs_doc = _require(doc, "fs", "query")
        if not isinstance(fs_doc, list) or not fs_doc:
            raise DocumentError("'fs' must be a nonempty list of gambles")
        fs = [_parse_gamble(g, space, f"fs[{i}]") for i, g in enumerate(fs_doc)]
        spec = spec_sum(fs) if kind == "sum" else spec_product(fs)
    elif kind == "time_average":
        f = _parse_gamble(_require(doc, "f", "query"), space, "f")
        spec, scale = spec_time_average(f, _parse_horizon(doc, kind))
    elif kind in HITTING_FAMILIES:
        targets = _parse_targets(_require(doc, "A", "query"), space, "A")
        if "limit" in doc:
            limit = doc["limit"]
            if not isinstance(limit, dict) or not set(limit) <= {"tol", "max_horizon"}:
                raise DocumentError("'limit' must be {'tol': ..., 'max_horizon': ...}")
            # A null setting takes its default.
            settings = {k: v for k, v in limit.items() if v is not None}
            if "tol" in settings:
                settings["tol"] = _finite_number(settings["tol"], "'limit.tol'")
                if settings["tol"] <= 0:
                    raise DocumentError("'limit.tol' must be a positive number")
            max_horizon = settings.get("max_horizon", 2)
            if type(max_horizon) is not int or max_horizon < 2:  # bool is no int here
                raise DocumentError("'limit.max_horizon' must be an integer >= 2")
            settings.update(family=kind, targets=tuple(targets))
            return Query(spec=None, scale=1.0, limit=settings)
        spec = HITTING_FAMILIES[kind](space, targets, _parse_horizon(doc, kind))
    else:  # custom
        g0 = _parse_gamble(_require(doc, "g0", "query"), space, "g0")
        steps_doc = doc.get("steps", [])
        if not isinstance(steps_doc, list):
            raise DocumentError("'steps' must be a list of {h, g} objects")
        steps = []
        for i, step in enumerate(steps_doc):
            if not isinstance(step, dict) or "h" not in step or "g" not in step:
                raise DocumentError(
                    f"steps[{i}] must be an object with 'h' and 'g' gambles"
                )
            h = _parse_gamble(step["h"], space, f"steps[{i}].h")
            g = _parse_gamble(step["g"], space, f"steps[{i}].g")
            steps.append((h, g))
        spec = RecursiveSpec(g0=g0, steps=tuple(steps))
    return Query(spec=spec, scale=scale)


# ---------------------------------------------------------------------------
# serialisation

def _format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not np.isfinite(value):
        raise NumericalError(f"cannot serialise non-finite value {value}")
    return format(value, ".17g")


def dumps_document(doc, indent: int = 0) -> str:
    """Deterministic JSON emitter: insertion-ordered keys, numbers at 17
    significant digits.  The standard encoder cannot pin float formatting."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_document(v, indent + 1)}'
            for k, v in doc.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(doc, (list, tuple)):
        if len(doc) == 0:
            return "[]"
        items = [f"{pad}  {dumps_document(v, indent + 1)}" for v in doc]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(doc, str):
        return json.dumps(doc)
    if doc is None:
        return "null"
    return _format_number(doc)


def _conditional_map(space: StateSpace, lower_cond, upper_cond) -> dict:
    return {
        label: [float(lower_cond[i]), float(upper_cond[i])]
        for i, label in enumerate(space.labels)
    }


def _write_output(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DocumentError(f"cannot write output file {output}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

def _load_json(path: str, kind: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {kind} file {path}: {exc}") from exc
    except ValueError as exc:  # also an integer over Python's digit limit
        raise DocumentError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def _load_model(path: str) -> ImpreciseMarkovChain:
    model = parse_model(_load_json(path, "model"))
    violations = validate_model(model)
    if violations:
        raise DocumentError(
            "model is invalid:\n" + "\n".join(f"  - {v}" for v in violations)
        )
    return model


def cmd_validate(model_path: str) -> int:
    model = _load_model(model_path)
    print(f"model ok: {model.size} states")
    return 0


def cmd_infer(model_path: str, query_path: str, output: str | None = None) -> int:
    model = _load_model(model_path)
    query = parse_query(_load_json(query_path, "query"), model.states)
    if query.limit is None:
        result = infer(model, query.spec)
    else:
        result = limit_infer(model, **query.limit)
    s = query.scale
    doc = {
        "upper": s * result.upper,
        "lower": s * result.lower,
        "conditional": _conditional_map(
            model.states, s * result.lower_conditional, s * result.upper_conditional
        ),
        "lp_calls": result.lp_calls,
    }
    if query.limit is not None:
        doc["horizon_reached"] = result.horizon_reached
        doc["converged"] = result.converged
        doc["upper_trace"] = list(result.upper_trace)
        doc["lower_trace"] = list(result.lower_trace)
    _write_output(dumps_document(doc), output)
    return 0


def cmd_check(model_path: str, query_path: str, output: str | None = None) -> int:
    model = _load_model(model_path)
    query = parse_query(_load_json(query_path, "query"), model.states)
    if query.limit is not None:
        raise DocumentError("check needs a fixed horizon; remove the 'limit' object")
    # Materialised first, so that a target over the cap fails before any LP.
    hist = materialize_path_function(query.spec)
    engine_counter = LpCounter()
    upper_cond, lower_cond = conditional_bounds(model, query.spec, engine_counter)
    oracle_counter = LpCounter()
    oracle_upper, oracle_lower = naive_conditional_bounds(model, hist, oracle_counter)
    s = query.scale
    discrepancy = max(
        float(np.max(np.abs(s * upper_cond - s * oracle_upper))),
        float(np.max(np.abs(s * lower_cond - s * oracle_lower))),
    )
    doc = {
        "engine": {
            "conditional": _conditional_map(
                model.states, s * lower_cond, s * upper_cond
            ),
            "lp_calls": engine_counter.calls,
        },
        "oracle": {
            "conditional": _conditional_map(
                model.states, s * oracle_lower, s * oracle_upper
            ),
            "lp_calls": oracle_counter.calls,
        },
        "max_discrepancy": discrepancy,
        "agree": bool(discrepancy < CHECK_TOLERANCE),
    }
    _write_output(dumps_document(doc), output)
    return 0 if discrepancy < CHECK_TOLERANCE else 1


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credalmc",
        description=(
            "Tight lower and upper expectation bounds for imprecise Markov chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a model file")
    p_validate.add_argument("model", help="path to the model JSON file")

    p_infer = sub.add_parser("infer", help="run an inference query")
    p_infer.add_argument("model", help="path to the model JSON file")
    p_infer.add_argument("query", help="path to the query JSON file")
    p_infer.add_argument("--output", default=None,
                         help="write the result document here instead of stdout")

    p_check = sub.add_parser(
        "check", help="compare the engine against the exponential oracle"
    )
    p_check.add_argument("model", help="path to the model JSON file")
    p_check.add_argument("query", help="path to the query JSON file")
    p_check.add_argument("--output", default=None,
                         help="write the comparison document here instead of stdout")
    return parser


def _fail(exc: Exception | str, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.model)
        if args.command == "infer":
            return cmd_infer(args.model, args.query, output=args.output)
        if args.command == "check":
            return cmd_check(args.model, args.query, output=args.output)
    except DocumentError as exc:
        return _fail(exc, 2)
    except NumericalError as exc:
        return _fail(exc, 3)
    except CapExceededError as exc:
        return _fail(exc, 4)
    except MemoryError as exc:  # e.g. the steps of a huge horizon
        return _fail(str(exc) or "out of memory", 4)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
