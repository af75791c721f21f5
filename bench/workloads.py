"""Seeded model and query documents for the credalmc benchmark.

``build(name, seed)`` returns a ``Workload``: the JSON documents to write to
disk and the cycle of ops to run on them.  Each op is one ``credalmc``
command line.  Next to the file names it carries what the gate needs to
judge the result without trusting the program: the recursive form of the
target and a precise Markov chain that lies inside the model, whose
expectation every tight bound must enclose.  The program only ever sees the
written files.  The same seed gives byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Chain:
    """A precise chain inside a model: an initial pmf and a transition matrix."""

    initial: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class Op:
    """One command line plus the facts its result is checked against.

    ``g0`` and ``steps`` are the recursive form of the target,
    ``t(x1..x_{k+1}) = h(x1) * t(x2..x_{k+1}) + g(x1)``, one ``(h, g)`` pair
    per time instant after the first.  A limit op has a single pair that
    repeats at every instant up to the horizon the program reached.
    """

    command: str
    model: str
    query: str
    d: int
    chain: Chain
    g0: np.ndarray
    steps: tuple
    scale: float = 1.0
    limit: bool = False

    @property
    def labels(self) -> list[str]:
        return labels(self.d)

    @property
    def n(self) -> int | None:
        return None if self.limit else 1 + len(self.steps)

    def argv(self, directory: Path, output: Path) -> list[str]:
        return [self.command, str(directory / self.model),
                str(directory / self.query), "--output", str(output)]

    def witness(self, horizon: int | None = None) -> tuple[np.ndarray, float]:
        """Conditional and unconditional expectation of the target under the
        precise chain, at the op's horizon (or ``horizon`` for a limit op)."""
        steps = self.steps * (horizon - 1) if self.limit else self.steps
        v = self.g0
        for h, g in steps:
            v = h * (self.chain.matrix @ v) + g
        v = self.scale * v
        return v, float(self.chain.initial @ v)


@dataclass(frozen=True)
class Workload:
    name: str
    documents: dict          # file name -> JSON text
    ops: tuple               # the timed cycle, run in order and repeated
    crosscheck: tuple        # small `check` ops run once at set-up
    setup_model: str         # model file the set-up subprocess validates

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.documents.items():
            (directory / name).write_text(text, encoding="utf-8")


def labels(d: int) -> list[str]:
    return [f"s{i}" for i in range(d)]


# ---------------------------------------------------------------------------
# rows: each returns the row document and a pmf inside the row


def _interval_row(rng, d):
    centre = rng.dirichlet(np.full(d, 2.0))
    width = rng.uniform(0.1, 0.5, size=d)
    lower, upper = centre * (1 - width), np.minimum(centre * (1 + width), 1.0)
    doc = {"intervals": {"lower": lower.tolist(), "upper": upper.tolist()}}
    return doc, centre


def _constraint_row(rng, d, m):
    # Random halfspaces through a strict margin around a known interior pmf.
    centre = rng.dirichlet(np.full(d, 2.0))
    a = rng.normal(size=(m, d))
    b = a @ centre + rng.uniform(0.05, 0.2, size=m)
    return {"constraints": {"A": a.tolist(), "b": b.tolist()}}, centre


def _mass_bounds_row(rng, d):
    """Constraint row p0 <= u, p1 >= l.  Every model gets the same two
    halfspaces, so the simplex does about the same work whatever the seed."""
    upper, lower = rng.uniform(0.5, 0.8), rng.uniform(0.1, 0.3)
    a = np.zeros((2, d))
    a[0, 0], a[1, 1] = 1.0, -1.0
    centre = np.empty(d)
    centre[0] = upper / 2
    centre[1] = lower + (1 - centre[0] - lower) / 2
    centre[2:] = (1 - centre[0] - centre[1]) / (d - 2)
    return {"constraints": {"A": a.tolist(), "b": [upper, -lower]}}, centre


def _vertex_row(vertices):
    vertices = np.asarray(vertices)
    return {"vertices": vertices.tolist()}, vertices.mean(axis=0)


def _model(labels, rows, initial):
    """Model document plus the precise chain made of each row's inner pmf."""
    doc = {
        "states": labels,
        "rows": {label: row for label, (row, _) in zip(labels, rows)},
        "initial": initial[0],
    }
    chain = Chain(initial=initial[1], matrix=np.array([p for _, p in rows]))
    return doc, chain


# ---------------------------------------------------------------------------
# queries: each returns the query document and the op's target fields


def _gamble_doc(labels, values):
    return {label: float(v) for label, v in zip(labels, values)}


def _hitting(labels, kind, targets, n=None, tol=None):
    d = len(labels)
    inside = np.zeros(d)
    inside[[labels.index(t) for t in targets]] = 1.0
    outside = 1.0 - inside
    if kind == "hitting_probability":
        g0, step = inside, (outside, inside)
    else:
        g0, step = outside, (outside, outside)
    doc = {"kind": kind, "A": list(targets)}
    if tol is None:
        doc["n"] = n
        return doc, dict(g0=g0, steps=(step,) * (n - 1))
    doc["limit"] = {"tol": tol}
    return doc, dict(g0=g0, steps=(step,), limit=True)


def _time_average(labels, f, n):
    ones = np.ones(len(labels))
    doc = {"kind": "time_average", "f": _gamble_doc(labels, f), "n": n}
    return doc, dict(g0=f, steps=((ones, f),) * (n - 1), scale=1.0 / n)


def _sum(labels, fs):
    ones = np.ones(len(labels))
    doc = {"kind": "sum", "fs": [_gamble_doc(labels, f) for f in fs]}
    return doc, dict(g0=fs[-1], steps=tuple((ones, f) for f in fs[-2::-1]))


def _product(labels, fs):
    zeros = np.zeros(len(labels))
    doc = {"kind": "product", "fs": [_gamble_doc(labels, f) for f in fs]}
    return doc, dict(g0=fs[-1], steps=tuple((f, zeros) for f in fs[-2::-1]))


def _custom(labels, g0, steps):
    doc = {
        "kind": "custom",
        "g0": _gamble_doc(labels, g0),
        "steps": [{"h": _gamble_doc(labels, h), "g": _gamble_doc(labels, g)}
                  for h, g in steps],
    }
    return doc, dict(g0=g0, steps=tuple(steps))


def _signed_factors(rng, d, n):
    """Factors of magnitude near 1 with random signs, so products neither
    vanish nor explode and the two tracks swap often."""
    return [rng.uniform(0.8, 1.2, d) * rng.choice([-1.0, 1.0], d) for _ in range(n)]


# ---------------------------------------------------------------------------
# workloads


class _Builder:
    def __init__(self, name, command):
        self.name = name
        self.command = command
        self.documents = {}
        self.ops = []
        self.crosscheck = []

    def model(self, key, doc):
        name = f"model-{key}.json"
        self.documents[name] = json.dumps(doc)
        return name

    def op(self, model, key, chain, query, crosscheck=False):
        doc, target = query
        name = f"query-{key}.json"
        self.documents[name] = json.dumps(doc)
        command = "check" if crosscheck else self.command
        op = Op(command=command, model=model, query=name,
                d=chain.matrix.shape[0], chain=chain, **target)
        (self.crosscheck if crosscheck else self.ops).append(op)

    def done(self):
        return Workload(self.name, self.documents, tuple(self.ops),
                        tuple(self.crosscheck), self.ops[0].model)


def interval_wide(rng, d=50, n=12, models=2):
    """Wide interval rows: hitting probability and time, a time average and a
    product whose factors change sign."""
    names = labels(d)
    b = _Builder("interval-wide", "infer")
    for k in range(models):
        doc, chain = _model(names, [_interval_row(rng, d) for _ in names],
                            _interval_row(rng, d))
        model = b.model(k, doc)
        targets = [names[i] for i in rng.choice(d, 5, replace=False)]
        queries = [
            _hitting(names, "hitting_probability", targets, n=n),
            _hitting(names, "hitting_time", targets, n=n),
            _time_average(names, rng.uniform(0, 1, d), n),
            _product(names, _signed_factors(rng, d, n)),
        ]
        for j, q in enumerate(queries):
            b.op(model, f"{k}-{j}", chain, q)
        b.op(model, f"{k}-check", chain,
             _product(names, _signed_factors(rng, d, 3)), crosscheck=True)
    return b.done()


def constraint_sum(rng, d=10, m=5, n=10, models=4):
    """Constraint rows solved by the simplex: sums and signed custom targets."""
    names = labels(d)
    b = _Builder("constraint-sum", "infer")
    for k in range(models):
        doc, chain = _model(names, [_constraint_row(rng, d, m) for _ in names],
                            _constraint_row(rng, d, m))
        model = b.model(k, doc)
        fs = [rng.uniform(0, 1, d) for _ in range(n)]
        steps = [(rng.uniform(-1, 1, d), rng.uniform(-0.5, 0.5, d))
                 for _ in range(n - 1)]
        b.op(model, f"{k}-0", chain, _sum(names, fs))
        b.op(model, f"{k}-1", chain, _custom(names, rng.uniform(-1, 1, d), steps))
        b.op(model, f"{k}-check", chain,
             _custom(names, rng.uniform(-1, 1, d), steps[:3]), crosscheck=True)
    return b.done()


def vertex_limit(rng, d=10, k=4, leak=0.08, tol=1e-6, models=2):
    """Limit hitting queries on vertex rows that leak towards s0.

    Every row outside s0 has one vertex whose leak is exactly ``leak`` and
    others with more, and no vertex puts other mass on s0.  The slowest
    policy therefore hits s0 at the geometric rate ``leak`` whatever the
    seed, which fixes the horizon the loop reaches and keeps the op cost the
    same from seed to seed.
    """
    names = labels(d)
    b = _Builder("vertex-limit", "infer")

    def row(x):
        if x == 0:
            return _vertex_row(rng.dirichlet(np.ones(d), size=k))
        leaks = np.concatenate([[leak], rng.uniform(leak, 3 * leak, k - 1)])
        rest = np.zeros((k, d))
        rest[:, 1:] = rng.dirichlet(np.ones(d - 1), size=k)
        return _vertex_row(leaks[:, None] * np.eye(d)[0] + (1 - leaks[:, None]) * rest)

    for j in range(models):
        initial = np.zeros((3, d))
        initial[:, 1:] = rng.dirichlet(np.ones(d - 1), size=3)
        doc, chain = _model(names, [row(x) for x in range(d)], _vertex_row(initial))
        model = b.model(j, doc)
        # A hitting time moves by P(T >= t) per step and a hitting
        # probability by P(T = t), about ``leak`` times less; scaling the
        # time query's tolerance by 1/leak makes both kinds stop at about
        # the same horizon, so every op costs about the same.
        for q, (kind, tol_q) in enumerate((("hitting_probability", tol),
                                           ("hitting_time", tol / leak))):
            b.op(model, f"{j}-{q}", chain, _hitting(names, kind, ["s0"], tol=tol_q))
        b.op(model, f"{j}-check", chain,
             _hitting(names, "hitting_time", ["s0"], n=4), crosscheck=True)
    return b.done()


def mixed_check(rng, d=3, n=7, models=4):
    """`check` on one interval, one vertex and one constraint row: the oracle
    and the extended operators, with a new objective on every row optimisation."""
    names = labels(d)
    b = _Builder("mixed-check", "check")
    for k in range(models):
        vertices = rng.dirichlet(np.ones(d), size=3)
        rows = [_interval_row(rng, d), _vertex_row(vertices), _mass_bounds_row(rng, d)]
        doc, chain = _model(names, rows, _vertex_row(vertices))
        model = b.model(k, doc)
        queries = [
            _hitting(names, "hitting_probability", [names[-1]], n=n),
            _time_average(names, rng.uniform(0, 1, d), n),
            _product(names, _signed_factors(rng, d, n)),
        ]
        for j, q in enumerate(queries):
            b.op(model, f"{k}-{j}", chain, q)
    return b.done()


WORKLOADS = {
    "interval-wide": interval_wide,
    "constraint-sum": constraint_sum,
    "vertex-limit": vertex_limit,
    "mixed-check": mixed_check,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed))
