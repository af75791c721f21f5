import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from credalmc import (
    ConstraintRow,
    ImpreciseMarkovChain,
    IntervalRow,
    StateSpace,
    VertexRow,
    cli,
    validate_model,
)
from credalmc.cli import (
    dumps_document,
    main,
    parse_model,
    parse_query,
)
from helpers import model_to_document

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"

MODEL = str(DATA / "model_e1.json")
MODEL_MIXED = str(DATA / "model_mixed.json")
MODEL_BAD = str(DATA / "model_bad.json")

# A two-instant target whose product h * bound overflows to infinity.
OVERFLOW_QUERY = {
    "kind": "custom",
    "g0": {"s0": 1e200, "s1": 1e200},
    "steps": [{"h": {"s0": 1e200, "s1": 1e200}, "g": {}}],
}


# Every path product is finite in the engine's recursion, but the oracle's
# materialised values 1e200 * 1e200 overflow on the path (a, b).
ORACLE_OVERFLOW_MODEL = {
    "states": ["a", "b"],
    "rows": {"a": {"vertices": [[1, 0]]}, "b": {"vertices": [[0, 1]]}},
    "initial": {"intervals": {"lower": [0, 0], "upper": [1, 1]}},
}
ORACLE_OVERFLOW_QUERY = {
    "kind": "product",
    "fs": [{"a": 1e200, "b": 1e-200}, {"a": 1e-200, "b": 1e200}],
}

# Rows that between them break every validation rule: all five interval
# rules in row a, three bad vertices in row b, an infeasible constraint
# row, two rows of the wrong dimension and a bad initial set.  The rows
# are listed out of state order; validate reports in state order.
INVALID_EVERYWHERE = {
    "states": ["a", "b", "c", "d", "e", "f"],
    "rows": {
        "f": {"vertices": [[0.5, 0.5]]},
        "a": {"intervals": {"lower": [-0.1, 0.9, 0.9, 0.0, 0.0, 0.0],
                            "upper": [1.5, -1.0, 0.2, 0.0, 0.0, 0.0]}},
        "b": {"vertices": [[0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
                           [1.2, -0.2, 0.0, 0.0, 0.0, 0.0],
                           [0.3, 0.3, 0.3, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                           [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]]},
        "c": {"constraints": {"A": [[1, 1, 1, 1, 1, 1]], "b": [0.5]}},
        "d": {"intervals": {"lower": [0, 0, 0], "upper": [1, 1, 1]}},
        "e": {"intervals": {"lower": [0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
                            "upper": [1, 1, 1, 1, 1, 1]}},
    },
    "initial": {"intervals": {"lower": [0, 0, 0, 0, 0, 0],
                              "upper": [0.1, 0.1, 0.1, 0.1, 0.1, 1.2]}},
}
INVALID_EVERYWHERE_ERROR = """\
error: model is invalid:
  - row 'a': negative lower bound
  - row 'a': upper bound above 1
  - row 'a': lower bound exceeds upper bound
  - row 'a': sum of lower bounds exceeds 1 (sum=1.7)
  - row 'a': sum of upper bounds is below 1 (sum=0.7)
  - row 'b': vertex 1 has entries outside [0, 1]
  - row 'b': vertex 2 does not sum to 1 (sum=0.9)
  - row 'b': vertex 4 has entries outside [0, 1]
  - row 'b': vertex 4 does not sum to 1 (sum=2)
  - row 'c': constraint system admits no pmf
  - row 'd': dimension 3 does not match state count 6
  - row 'e': sum of lower bounds exceeds 1 (sum=1.2)
  - row 'f': dimension 2 does not match state count 6
  - initial set: upper bound above 1
"""



def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*args):
    """Run ``python ARGS`` on this checkout's package; warnings reach stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestValidateCommand:
    def test_valid_model(self, capsys):
        code, out, _ = run(capsys, "validate", MODEL)
        assert code == 0
        assert "ok" in out

    def test_invalid_model_lists_violations(self, capsys):
        code, _, err = run(capsys, "validate", MODEL_BAD)
        assert code == 2
        assert "sum of lower bounds exceeds 1" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_beyond_float_range(self, tmp_path, capsys, digits):
        # 400 digits overflow a float; 5000 exceed Python's int-to-str limit.
        model = tmp_path / "model.json"
        model.write_text('{"states": ["a"], "rows": {"a": {"vertices": [[1%s]]}}, '
                         '"initial": {"vertices": [[1]]}}' % ("0" * digits))
        code, out, err = run(capsys, "validate", str(model))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("row, message", [
        ({"intervals": {"lower": [True, 0.1], "upper": [1, 1]}},
         "rows['a'].lower must contain only numbers"),
        ({"intervals": {"lower": [1]}},
         "rows['a'] document is missing the 'upper' field"),
        ({"vertices": []}, "rows['a'].vertices must be a nonempty list"),
        ({"constraints": {"A": [[1, "x"]], "b": [1]}},
         "rows['a'].A[0] must contain only numbers"),
        # The first bad element decides the error, as in an element loop.
        ({"intervals": {"lower": [10**400, "x"], "upper": [1]}},
         "rows['a']: int too large to convert to float"),
        ({"intervals": {"lower": ["x", 10**400], "upper": [1]}},
         "rows['a'].lower must contain only numbers"),
        ({"intervals": {"lower": [float("nan")], "upper": [1]}},
         "rows['a']: lower bounds contains non-finite entries"),
        # A ragged list names the first list of another length than the first.
        ({"vertices": [[1, 0], [1]]}, "rows['a'].vertices[1] has length 1, expected 2"),
        ({"constraints": {"A": [[1, 0], [1, 0], [1, 0, 0]], "b": [1, 1, 1]}},
         "rows['a'].A[2] has length 3, expected 2"),
    ], ids=["bool", "missing-field", "no-vertices", "string-in-A",
            "too-large-first", "string-first", "nan", "ragged-vertices",
            "ragged-A"])
    def test_row_error_names_the_row_once(self, tmp_path, capsys, row, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"states": ["a"], "rows": {"a": row},
                                     "initial": {"vertices": [[1]]}}))
        assert run(capsys, "validate", str(model)) == (2, "", f"error: {message}\n")

    def test_every_violation_listed_once_in_state_order(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(INVALID_EVERYWHERE))
        assert run(capsys, "validate", str(model)) == (2, "", INVALID_EVERYWHERE_ERROR)

    def test_library_model_lists_the_violations_of_the_parsed_one(self):
        def build(row_doc):
            (kind, body), = row_doc.items()
            if kind == "intervals":
                return IntervalRow(body["lower"], body["upper"])
            if kind == "vertices":
                return VertexRow(body)
            return ConstraintRow(body["A"], body["b"])

        states = INVALID_EVERYWHERE["states"]
        model = ImpreciseMarkovChain(
            states=StateSpace(tuple(states)),
            initial=build(INVALID_EVERYWHERE["initial"]),
            rows=tuple(build(INVALID_EVERYWHERE["rows"][s]) for s in states),
        )
        lines = INVALID_EVERYWHERE_ERROR.splitlines()[1:]
        assert [f"  - {v}" for v in validate_model(model)] == lines

    @pytest.mark.parametrize("rows, initial, message", [
        ({"c": {"intervals": {"lower": ["x"], "upper": [1]}},
          "b": {"vertices": [[1.0], [float("nan")]]}}, {"vertices": [[1, 0, 0]]},
         "rows['b']: vertex list contains non-finite entries"),
        ({"c": {"vertices": [[1.0], ["x"]]},
          "b": {"intervals": {"lower": [0.5], "upper": [float("inf")]}}},
         {"vertices": [[1, 0, 0]]},
         "rows['b']: upper bounds contains non-finite entries"),
        ({"c": {"intervals": {"lower": [0.5], "upper": [0.5, 0.5]}},
          "b": {"vertices": [[1, 0, 0]]}}, {"vertices": [[float("nan")]]},
         "rows['c']: upper bounds has length 2, expected 1"),
    ], ids=["vertex-before-interval", "interval-before-vertex", "row-before-initial"])
    def test_first_bad_row_in_state_order_wins(
        self, tmp_path, capsys, rows, initial, message
    ):
        # The documents list the rows out of state order.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "states": ["a", "b", "c"], "initial": initial,
            "rows": dict(rows, a={"vertices": [[1, 0, 0]]}),
        }))
        assert run(capsys, "validate", str(model)) == (2, "", f"error: {message}\n")

    def test_sums_beyond_float_range_print_no_warning(self, tmp_path):
        # Each sum overflows to inf, which every comparison reads exactly.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "states": ["a", "b", "c"],
            "rows": {"a": {"intervals": {"lower": [0, 0, 0],
                                         "upper": [1e308, 1e308, 1]}},
                     "b": {"intervals": {"lower": [1e308, 1e308, 0],
                                         "upper": [1e308, 1e308, 1]}},
                     "c": {"vertices": [[1e308, 1e308, 0]]}},
            "initial": {"vertices": [[1, 0, 0]]},
        }))
        proc = run_process("-m", "credalmc", "validate", str(model))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: model is invalid:\n"
            "  - row 'a': upper bound above 1\n"
            "  - row 'b': upper bound above 1\n"
            "  - row 'b': sum of lower bounds exceeds 1 (sum=inf)\n"
            "  - row 'c': vertex 0 has entries outside [0, 1]\n"
            "  - row 'c': vertex 0 does not sum to 1 (sum=inf)\n"
        )

    def test_sums_of_both_infinities_print_no_warning(self, tmp_path):
        # Over 32 entries numpy's pairwise sum adds +inf to -inf: NaN.
        labels = [f"s{i}" for i in range(32)]
        box = {"intervals": {"lower": [0] * 32, "upper": [1] * 32}}
        rows = dict.fromkeys(labels, box)
        rows["s0"] = {"intervals": {"lower": [0] * 32, "upper": [1e308, -1e308] * 16}}
        rows["s1"] = {"vertices": [[1e308, -1e308] * 16]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"states": labels, "rows": rows, "initial": box}))
        proc = run_process("-m", "credalmc", "validate", str(model))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: model is invalid:\n"
            "  - row 's0': upper bound above 1\n"
            "  - row 's0': lower bound exceeds upper bound\n"
            "  - row 's1': vertex 0 has entries outside [0, 1]\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/model.json")
        assert code == 2
        assert "cannot read" in err

    def test_subnormal_constraint_row_prints_no_warning(self, tmp_path):
        # Scaling b by the row's subnormal max-norm overflows to inf.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "states": ["s0", "s1"],
            "rows": {"s0": {"vertices": [[0.5, 0.5]]},
                     "s1": {"constraints": {"A": [[1e-310, 0.0]], "b": [1.0]}}},
            "initial": {"vertices": [[0.5, 0.5]]},
        }))
        proc = run_process("-m", "credalmc", "validate", str(model))
        assert proc.returncode == 0
        assert proc.stdout == "model ok: 2 states\n"
        assert proc.stderr == ""


class TestInferCommand:
    def test_hitting_probability_two_steps(self, capsys):
        code, out, _ = run(
            capsys, "infer", MODEL, str(DATA / "query_hitting_prob_n2.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["upper"] == pytest.approx(0.65, abs=1e-12)
        assert doc["lower"] == pytest.approx(0.28, abs=1e-12)
        assert doc["lp_calls"] == 6
        assert doc["conditional"]["s0"] == pytest.approx([0.1, 0.3], abs=1e-12)
        assert doc["conditional"]["s1"] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_single_instant_trivial_horizon(self, capsys):
        code, out, _ = run(
            capsys, "infer", MODEL, str(DATA / "query_single_instant_n1.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lp_calls"] == 2
        assert doc["upper"] == pytest.approx(0.5, abs=1e-12)
        assert doc["lower"] == pytest.approx(0.2, abs=1e-12)

    def test_time_average_is_scaled(self, capsys):
        code, out, _ = run(
            capsys, "infer", MODEL, str(DATA / "query_time_average_n2.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["conditional"]["s0"][1] == pytest.approx(0.15, abs=1e-12)
        assert doc["conditional"]["s1"][1] == pytest.approx(0.8, abs=1e-12)

    def test_custom_query(self, capsys):
        code, out, _ = run(capsys, "infer", MODEL, str(DATA / "query_custom.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] <= doc["upper"]
        assert doc["lp_calls"] == 2 * 1 * 2 + 2

    def test_limit_query(self):
        # In a fresh process, so that a warning would show on stderr.
        query = str(DATA / "query_hitting_prob_limit.json")
        proc = run_process("-m", "credalmc", "infer", MODEL, query)
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["converged"] is True
        assert doc["horizon_reached"] < 500
        assert doc["upper"] == pytest.approx(1.0, abs=1e-6)
        assert doc["lower"] == pytest.approx(1.0, abs=1e-6)
        assert len(doc["upper_trace"]) == doc["horizon_reached"]

    def test_unknown_state_named_in_error(self, capsys):
        code, _, err = run(
            capsys, "infer", MODEL, str(DATA / "query_unknown_state.json")
        )
        assert code == 2
        assert "s9" in err

    def test_invalid_model_rejected(self, capsys):
        code, _, err = run(
            capsys, "infer", MODEL_BAD, str(DATA / "query_hitting_prob_n2.json")
        )
        assert code == 2
        assert "invalid" in err

    def test_limit_with_non_hitting_kind_rejected(self, tmp_path, capsys):
        q = tmp_path / "query.json"
        q.write_text(json.dumps({
            "kind": "single_instant", "f": {"s1": 1.0}, "n": 2,
            "limit": {"tol": 1e-6},
        }))
        code, _, err = run(capsys, "infer", MODEL, str(q))
        assert code == 2
        assert "hitting" in err

    @pytest.mark.parametrize("limit", [
        pytest.param('{"tol": Infinity}', id="infinite-tol"),
        pytest.param('{"tol": NaN, "max_horizon": 5}', id="nan-tol"),
        pytest.param('{"tol": 1e-6, "max_horizn": 5}', id="unknown-key"),
        pytest.param('{"tol": 0}', id="zero-tol"),
        pytest.param('{"max_horizon": true}', id="bool-max-horizon"),
        pytest.param('{"max_horizon": 1}', id="max-horizon-below-two"),
    ])
    def test_bad_limit_settings_rejected(self, tmp_path, capsys, limit):
        q = tmp_path / "query.json"
        q.write_text(f'{{"kind": "hitting_time", "A": ["s1"], "limit": {limit}}}')
        code, out, err = run(capsys, "infer", MODEL, str(q))
        assert code == 2
        assert out == ""
        assert "'limit" in err

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "-Infinity",
        pytest.param("1" + "0" * 400, id="int-beyond-float-range"),
    ])
    @pytest.mark.parametrize("query, field", [
        pytest.param('{{"kind": "single_instant", "f": {{"s0": {}}}, "n": 2}}',
                     "f['s0']", id="f"),
        pytest.param('{{"kind": "custom", "g0": {{"s1": 1.0}}, '
                     '"steps": [{{"h": {{"s0": {}}}, "g": {{}}}}]}}',
                     "steps[0].h['s0']", id="custom-h"),
    ])
    def test_non_finite_query_number_is_a_document_error(
        self, tmp_path, capsys, value, query, field
    ):
        q = tmp_path / "query.json"
        q.write_text(query.format(value))
        for command in ("infer", "check"):
            code, out, err = run(capsys, command, MODEL, str(q))
            assert code == 2
            assert out == ""
            assert err == f"error: {field} must be finite\n"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "infer", MODEL, str(DATA / "query_hitting_prob_n2.json"),
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["upper"] == pytest.approx(0.65, abs=1e-12)

    @pytest.mark.parametrize("command", ["infer", "check"])
    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output_is_a_document_error(
        self, tmp_path, capsys, command, target
    ):
        # A missing directory or a directory as the path: exit 2, not the 1
        # that check keeps for a discrepancy, and one error line.
        path = tmp_path / target
        code, out, err = run(
            capsys, command, MODEL, str(DATA / "query_hitting_prob_n3.json"),
            "--output", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write output file {path}: ")
        assert err.count("\n") == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run(
            capsys, "infer", MODEL, str(DATA / "query_hitting_prob_n2.json")
        )
        _, second, _ = run(
            capsys, "infer", MODEL, str(DATA / "query_hitting_prob_n2.json")
        )
        assert first == second

    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys):
        # The parser is built once, so an op allocates no reference cycles
        # that only the cyclic collector could free.
        argv = ("infer", MODEL, str(DATA / "query_hitting_prob_n2.json"))
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, *argv)[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("command", ["infer", "check"])
    def test_overflow_exits_with_numerical_error(self, tmp_path, capsys, command):
        q = tmp_path / "query.json"
        q.write_text(json.dumps(OVERFLOW_QUERY))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, MODEL, str(q))
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        # In process, numpy's warnings go to the warnings machinery, not stderr.
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("command", ["infer", "check"])
    @pytest.mark.parametrize("kind", ["single_instant", "time_average",
                                      "hitting_probability", "hitting_time"])
    @pytest.mark.parametrize("n", [10**20, 2**62])
    def test_horizon_too_large_to_build_exits_cleanly(
        self, tmp_path, capsys, command, kind, n
    ):
        # 10**20 is beyond an index-sized integer.  A sequence of 2**62 steps
        # fits the index but not memory, and CPython refuses it before it
        # allocates any of it.
        target = {"A": ["s1"]} if kind.startswith("hitting") else {"f": {"s1": 1}}
        q = tmp_path / "query.json"
        q.write_text(json.dumps({"kind": kind, **target, "n": n}))
        code, out, err = run(capsys, command, MODEL, str(q))
        if n > sys.maxsize:
            message = f"query kind {kind!r} needs a horizon n <= {sys.maxsize}"
            assert (code, out, err) == (2, "", f"error: {message}\n")
        else:
            assert (code, out, err) == (4, "", "error: out of memory\n")

    def test_overflow_check_survives_optimised_python(self, tmp_path):
        # Assertions vanish under -O; the overflow check must not.
        q = tmp_path / "query.json"
        q.write_text(json.dumps(OVERFLOW_QUERY))
        proc = run_process("-O", "-m", "credalmc", "infer", MODEL, str(q))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error:")


class TestCheckCommand:
    def test_engine_agrees_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "check", MODEL, str(DATA / "query_hitting_prob_n3.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["max_discrepancy"] < 1e-12
        assert doc["engine"]["lp_calls"] == 8
        assert doc["oracle"]["lp_calls"] == 12

    def test_oracle_cap_exceeded(self, tmp_path, capsys):
        # 2**24 entries are just over the fixed cap of 1e7.
        q = tmp_path / "query.json"
        q.write_text(json.dumps({"kind": "hitting_probability", "A": ["s1"], "n": 24}))
        code, out, err = run(capsys, "check", MODEL, str(q))
        assert code == 4
        assert out == ""
        assert err == "error: history of 2**24 entries exceeds cap 10000000\n"

    def test_history_far_over_the_cap_fails_before_the_engine(
        self, tmp_path, capsys, monkeypatch
    ):
        # 2**15000 has more digits than Python will convert to a string.
        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran before the cap check")

        monkeypatch.setattr(cli, "conditional_bounds", no_engine)
        q = tmp_path / "query.json"
        q.write_text(
            json.dumps({"kind": "hitting_probability", "A": ["s1"], "n": 15000})
        )
        code, out, err = run(capsys, "check", MODEL, str(q))
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "2**15000" in err
        assert len(err) < 200

    def test_oracle_overflow_is_a_numerical_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(ORACLE_OVERFLOW_MODEL))
        q = tmp_path / "query.json"
        q.write_text(json.dumps(ORACLE_OVERFLOW_QUERY))
        code, out, _ = run(capsys, "infer", str(model), str(q))
        assert code == 0
        assert json.loads(out)["upper"] == 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "check", str(model), str(q))
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: materialised history values contain non-finite entries"
        ]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_precise_model_has_zero_discrepancy(self, tmp_path, capsys):
        model_doc = {
            "states": ["s0", "s1"],
            "rows": {
                "s0": {"vertices": [[0.8, 0.2]]},
                "s1": {"vertices": [[0.3, 0.7]]},
            },
            "initial": {"vertices": [[0.5, 0.5]]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_doc))
        code, out, _ = run(
            capsys, "check", str(path), str(DATA / "query_hitting_prob_n3.json")
        )
        assert code == 0
        assert json.loads(out)["max_discrepancy"] == 0.0

    def test_limit_query_rejected(self, capsys):
        code, _, err = run(
            capsys, "check", MODEL, str(DATA / "query_hitting_prob_limit.json")
        )
        assert code == 2
        assert "fixed horizon" in err


class TestDocuments:
    def test_model_round_trip(self):
        for path in (MODEL, MODEL_MIXED):
            with open(path) as fh:
                doc = json.load(fh)
            model = parse_model(doc)
            recovered = parse_model(model_to_document(model))
            assert recovered.states.labels == model.states.labels
            for a, b in zip(
                (*model.rows, model.initial), (*recovered.rows, recovered.initial)
            ):
                assert type(a) is type(b)
                for field in ("lower", "upper", "vertices", "a", "b"):
                    if hasattr(a, field):
                        assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_whole_simplex_constraint_row(self, tmp_path, capsys):
        # An empty constraint system is the whole simplex: the same row as
        # the list of unit vectors.
        with open(MODEL_MIXED) as fh:
            doc = json.load(fh)
        as_constraints = dict(doc, rows=dict(doc["rows"], c={
            "constraints": {"A": [], "b": []}}))
        as_vertices = dict(doc, rows=dict(doc["rows"], c={
            "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
        row = parse_model(as_constraints).rows[2]
        assert row.a.shape == (0, 3)
        assert model_to_document(parse_model(as_constraints)) == as_constraints
        query = tmp_path / "query.json"
        query.write_text(json.dumps({"kind": "hitting_probability", "A": ["b"], "n": 4}))
        outputs = []
        for name, model_doc in (("constraints", as_constraints),
                                ("vertices", as_vertices)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(model_doc))
            assert run(capsys, "validate", str(path)) == (
                0, "model ok: 3 states\n", ""
            )
            code, out, _ = run(capsys, "infer", str(path), str(query))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("d", [1, 2, 3, 50, 200])
    def test_parsed_rows_match_the_row_constructors_bit_for_bit(self, d):
        # parse_model builds the rows of each kind together; the numbers must
        # be those of one row built alone, -0.0 bounds and integers included.
        rng = np.random.default_rng(d)
        docs = []
        for i in range(d + 1):
            centre = rng.dirichlet(np.ones(d))
            if i % 3 == 1:
                vertices = rng.dirichlet(np.ones(d), size=1 + i % 4).tolist()
                vertices[0][i % d] = -0.0
                docs.append({"vertices": vertices})
                continue
            lower = (centre * rng.uniform(0.5, 1.0, d)).tolist()
            upper = np.minimum(centre * rng.uniform(1.0, 1.5, d), 1.0).tolist()
            lower[i % d] = -0.0
            if i % 5 == 4:
                upper[i % d] = 1
            docs.append({"intervals": {"lower": lower, "upper": upper}})
        labels = [f"s{i}" for i in range(d)]
        doc = {"states": labels, "rows": dict(zip(labels, docs)), "initial": docs[-1]}
        model = parse_model(json.loads(json.dumps(doc)))
        parsed = (*model.rows, model.initial)
        for row_doc, row in zip(docs, parsed):
            if "intervals" in row_doc:
                alone = IntervalRow(**row_doc["intervals"])
                assert type(row.empty) is bool and row.empty == alone.empty
                fields = ("lower", "upper", "supply")
            else:
                alone = VertexRow(row_doc["vertices"])
                fields = ("vertices",)
            assert type(row) is type(alone)
            for field in fields:
                got, want = getattr(row, field), getattr(alone, field)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
        # The stacked sums are the per-row sums, bit for bit.
        intervals = [row for row in parsed if isinstance(row, IntervalRow)]
        for stacked in (np.array([row.lower for row in intervals]),
                        np.array([row.upper for row in intervals]),
                        np.concatenate([row.vertices for row in parsed
                                        if isinstance(row, VertexRow)])):
            per_row = np.array([line.sum() for line in stacked])
            assert stacked.sum(axis=1).tobytes() == per_row.tobytes()

    def test_parsed_constraint_rows_match_rows_built_alone(self):
        # Each constraint row solves its phase 1 when it is built, in the
        # parse as alone; an infeasible row is built and keeps its message.
        docs = {"a": {"constraints": {"A": [[1, -1, 0], [0, 1, -1]], "b": [0, 0]}},
                "b": {"constraints": {"A": [[1, 1, 1]], "b": [0.5]}},
                "c": {"constraints": {"A": [], "b": []}}}
        initial = {"constraints": {"A": [[-2, 0, 0]], "b": [-0.5]}}
        model = parse_model({"states": list(docs), "rows": docs, "initial": initial})
        for doc, row in zip([*docs.values(), initial], [*model.rows, model.initial]):
            a = np.array(doc["constraints"]["A"], dtype=float).reshape(-1, 3)
            alone = ConstraintRow(a=a, b=doc["constraints"]["b"])
            assert row.simplex_start == alone.simplex_start
            assert row.violations == alone.violations
            assert row.feasible is alone.feasible
        assert [row.feasible for row in model.rows] == [True, False, True]
        assert model.rows[1].violations == ("constraint system admits no pmf",)
        assert model.rows[1].simplex_start is None

    def test_serialised_numbers_parse_back_as_floats(self):
        # model_to_document lists numpy floats; they parse as Python floats.
        def number_lists(node):
            if isinstance(node, dict):
                for value in node.values():
                    yield from number_lists(value)
            elif node and isinstance(node[0], list):
                for value in node:
                    yield from number_lists(value)
            else:
                yield node

        with open(MODEL_MIXED) as fh:
            doc = model_to_document(parse_model(json.load(fh)))
        lists = list(number_lists({"rows": doc["rows"], "initial": doc["initial"]}))
        assert {type(v) for values in lists for v in values} == {np.float64}
        for values in lists:
            parsed = cli._parse_numbers(values, "x")
            assert [type(v) for v in parsed] == [float] * len(values)
            assert parsed == [float(v) for v in values]
        mixed = [1, 2.5, np.float64(0.25), 10**20]
        assert cli._parse_numbers(mixed, "x") == [1.0, 2.5, 0.25, 1e20]

    @pytest.mark.parametrize("values", [
        [1.0, True], [np.bool_(True)], [np.int64(1)], [None], [[1.0]],
    ])
    def test_parse_numbers_rejects_non_numbers(self, values):
        with pytest.raises(cli.DocumentError, match="^x must contain only numbers$"):
            cli._parse_numbers(values, "x")

    def test_numbers_serialised_at_seventeen_digits(self):
        text = dumps_document({"x": 0.65, "third": 1.0 / 3.0})
        assert '"x": 0.65000000000000002' in text
        assert '"third": 0.33333333333333331' in text

    def test_serialised_document_parses_back(self):
        doc = {"a": [1.5, 2, True, None, "text"], "b": {"nested": [0.1]}}
        assert json.loads(dumps_document(doc)) == doc

    def test_gambles_default_missing_states_to_zero(self):
        with open(MODEL) as fh:
            model = parse_model(json.load(fh))
        query = parse_query({"kind": "single_instant", "f": {"s1": 2.0}, "n": 1},
                            model.states)
        assert list(query.spec.g0) == [0.0, 2.0]
