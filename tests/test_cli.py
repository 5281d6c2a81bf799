import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stuquandle
from stuquandle import catalog, cli, formats
from stuquandle.catalog import fixture, list_fixtures
from stuquandle.cli import entry_point, main


def write_stuquandle(tmp_path, fid, name=None):
    path = tmp_path / f"{name or fid}.json"
    formats.save_document(path, formats.stuquandle_to_dict(fixture(fid).payload))
    return str(path)


def write_presentation(tmp_path, fid):
    path = tmp_path / f"{fid}.json"
    pres = fixture(fid).payload["presentation"]
    formats.save_document(path, formats.presentation_to_dict(pres))
    return str(path)


def write_arc(tmp_path, fid):
    path = tmp_path / f"{fid}.json"
    formats.save_document(path, formats.arc_diagram_to_dict(fixture(fid).payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid_structure(tmp_path, capsys):
    path = write_stuquandle(tmp_path, "X_ex71")
    code, out, err = run(capsys, "verify", path)
    assert code == 0
    assert "valid stuquandle" in out


def test_verify_broken_structure(tmp_path, capsys):
    doc = {"n": 2, "star": [[0, 1], [1, 0]], "r1": [[0, 0], [1, 1]],
           "r2": [[0, 0], [1, 1]], "r3": [[0, 0], [1, 1]], "r4": [[0, 0], [1, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "quandle" in err


def test_missing_file_is_exit_one(capsys):
    code, out, err = run(capsys, "poly", "/nonexistent/file.json")
    assert code == 1
    assert "error" in err


def test_usage_error_is_exit_one(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1


def test_make_affine_round_trip(tmp_path, capsys):
    code, out, err = run(capsys, "make", "affine", "--n", "4", "--a", "3",
                         "--b", "2", "--e", "2")
    assert code == 0
    doc = json.loads(out)
    assert formats.stuquandle_from_dict(doc) == fixture("X1_ex63").payload


def test_make_affine_non_unit(capsys):
    code, out, err = run(capsys, "make", "affine", "--n", "4", "--a", "2",
                         "--b", "0", "--e", "0")
    assert code == 2
    assert "invertible" in err


def test_make_alexander(capsys):
    code, out, err = run(capsys, "make", "alexander", "--n", "4", "--t", "3",
                         "--v", "0", "--coeffs", "2,0,0,2,0,0")
    assert code == 0
    assert formats.stuquandle_from_dict(json.loads(out)) == fixture("X1_ex63").payload


def test_poly_golden(tmp_path, capsys):
    path = write_stuquandle(tmp_path, "X1_ex63")
    code, out, err = run(capsys, "poly", path)
    assert code == 0
    assert out.strip() == "4*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5"


def test_subpoly_golden(tmp_path, capsys):
    path = write_stuquandle(tmp_path, "X1_ex63")
    code, out, err = run(capsys, "subpoly", path, "--subset", "1,3")
    assert code == 0
    assert out.strip() == "2*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5"


def test_subpoly_not_closed_is_exit_two(tmp_path, capsys):
    path = write_stuquandle(tmp_path, "X_ex71")
    code, out, err = run(capsys, "subpoly", path, "--subset", "1")
    assert code == 2
    assert "not closed" in err


def test_color_unknot_counts_carrier(tmp_path, capsys):
    pres = write_presentation(tmp_path, "unknot")
    target = write_stuquandle(tmp_path, "X_ex71")
    code, out, err = run(capsys, "color", pres, target)
    assert code == 0
    assert out.splitlines() == ["0", "1", "2", "3", "count 4"]


def test_color_trefoil(tmp_path, capsys):
    pres = write_presentation(tmp_path, "trefoil_2_1_k_minus")
    target = write_stuquandle(tmp_path, "X_ex71")
    code, out, err = run(capsys, "color", pres, target)
    assert code == 0
    assert out.splitlines() == [
        "0 0 0 0", "1 3 3 1", "2 2 2 2", "3 1 1 3", "count 4",
    ]


def test_stdout_is_byte_identical_between_runs(tmp_path, capsys):
    pres = write_presentation(tmp_path, "K2_ex72")
    target = write_stuquandle(tmp_path, "X_ex72")
    first = run(capsys, "phi", pres, target)
    second = run(capsys, "phi", pres, target)
    assert first == second
    assert first[0] == 0


COMPARE_K1_K2_EX72 = """\
{
  "left": {
    "name": "K1_ex72",
    "counting": 4,
    "phi": "1*u^{s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5} + 3*u^{s1^3*t1^3*s2^2*t2*s3^3*t3^2*t4^2*t5 + s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5 + s1^3*t1^3*t2*t3^2*s4^3*t4^2*s5*t5}"
  },
  "right": {
    "name": "K2_ex72",
    "counting": 4,
    "phi": "1*u^{s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5} + 3*u^{s1^3*t1^3*s2^2*t2*s3^3*t3^2*t4^2*t5 + s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5}"
  },
  "verdict": "DISTINGUISHED"
}
"""


def test_compare_reference_pair(tmp_path, capsys):
    left = write_presentation(tmp_path, "K1_ex72")
    right = write_presentation(tmp_path, "K2_ex72")
    target = write_stuquandle(tmp_path, "X_ex72")
    code, out, err = run(capsys, "compare", left, right, target)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "DISTINGUISHED"
    assert doc["left"]["counting"] == doc["right"]["counting"] == 4
    # key order and layout are part of the output, so pin the text itself
    assert out == COMPARE_K1_K2_EX72


CONVERT_K2_EX74 = """\
{
  "generators": 3,
  "relations": [
    {
      "out": 2,
      "op": "R3",
      "lhs": 0,
      "rhs": 1
    },
    {
      "out": 1,
      "op": "R4",
      "lhs": 0,
      "rhs": 1
    },
    {
      "out": 0,
      "op": "~*",
      "lhs": 2,
      "rhs": 1
    }
  ]
}
"""


def test_rna_convert_and_phi(tmp_path, capsys):
    arc = write_arc(tmp_path, "rna_K2_ex74")
    target = write_stuquandle(tmp_path, "X_ex74")
    code, out, err = run(capsys, "rna", "convert", arc)
    assert code == 0
    # the writer fills a template per relation, so pin the text itself
    assert out == CONVERT_K2_EX74
    code, out, err = run(capsys, "rna", "phi", arc, target)
    assert code == 0
    assert out.strip() == fixture("rna_K2_ex74").expected["phi:X_ex74"]


def test_catalog_list(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    ids = out.split()
    assert "trefoil_2_1_k_minus" in ids
    assert "rna_K1_ex74" in ids


@pytest.mark.parametrize("argv, exit_code", [
    (["catalog", "list"], 0),
    (["frobnicate"], 1),
])
def test_entry_point_exits_with_main_code(monkeypatch, capsys, argv, exit_code):
    monkeypatch.setattr("sys.argv", ["stuquandle", *argv])
    with pytest.raises(SystemExit) as exc:
        entry_point()
    assert exc.value.code == exit_code
    out = capsys.readouterr().out
    if exit_code == 0:
        assert out.split() == list_fixtures() and len(out.split()) == 12


def test_catalog_show(capsys):
    code, out, err = run(capsys, "catalog", "show", "X1_ex63")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "stuquandle"
    assert doc["expected"]["stqp"].startswith("4*s1^2")


def test_catalog_show_unknown_is_exit_three(capsys):
    code, out, err = run(capsys, "catalog", "show", "missing")
    assert code == 3


def test_catalog_check_passes(capsys):
    code, out, err = run(capsys, "catalog", "check")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_report_file(tmp_path, capsys):
    path = write_stuquandle(tmp_path, "X2_ex63")
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "--report", str(report), "poly", path)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["command"][0] == "--report"
    assert doc["outputs"] == ["4*s1^4*t1^4*s2*t2*s3^4*t3^4*s4*t4*s5^4*t5^4"]
    assert path in doc["inputs"]
    assert doc["elapsed_seconds"] >= 0


def test_unwritable_report_is_exit_one(tmp_path, capsys):
    path = write_stuquandle(tmp_path, "X2_ex63")
    report = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, "--report", str(report), "poly", path)
    assert code == 1
    assert err.startswith("error: cannot write report")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("doc", [
    {"strands": 1, "stripes": [[0, 0, "a", 30, -1]]},
    {"strands": True, "stripes": []},
    {"strands": 1, "stripes": [[0, 0, 1.5, 30, -1]]},
    {"strands": 1, "stripes": [], "classicals": 5},
], ids=["string_position", "bool_strands", "float_position", "classicals_not_list"])
def test_malformed_arc_diagram_is_exit_one(tmp_path, capsys, doc):
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rna", "convert", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_color_many_free_generators(tmp_path, capsys):
    pres = tmp_path / "free.json"
    pres.write_text(json.dumps({"generators": 3000, "relations": []}))
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 1, "star": [[0]], "r1": [[0]], "r2": [[0]],
                               "r3": [[0]], "r4": [[0]]}))
    code, out, err = run(capsys, "color", str(pres), str(one))
    assert code == 0
    assert out.splitlines() == [" ".join(["0"] * 3000), "count 1"]
    assert err == ""


def _doc_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


_IDENTITY2 = [[0, 0], [1, 1]]


@pytest.mark.parametrize("case", [
    ("bad-json", 1, "not valid JSON",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", "{not json")]),
    ("deep-nesting", 1, "nested too deeply",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", "[" * 100000 + "]" * 100000)]),
    pytest.param(
        ("huge-integer", 1, "X.json is not valid JSON: an integer has more than",
         lambda tmp: ["verify", _doc_file(tmp, "X.json", '{"n": ' + "9" * 5000 + "}")]),
        id="huge-integer",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no integer string conversion limit")),
    ("generator-index", 1, "generator index 5 outside 0..1",
     lambda tmp: ["color", _doc_file(tmp, "P.json", {
         "generators": 2, "relations": [{"out": 5, "op": "*", "lhs": 0, "rhs": 1}]}),
         write_stuquandle(tmp, "X_ex71")]),
    ("non-integer-entry", 1, "table entry 0.7 is not an integer",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", {
         "n": 2, "star": [[0, 0.7], [1, 1]], "r1": _IDENTITY2, "r2": _IDENTITY2,
         "r3": _IDENTITY2, "r4": _IDENTITY2})]),
    ("bool-stripe-sign", 1, "True is not an integer",
     lambda tmp: ["rna", "convert", _doc_file(tmp, "arc.json", '{"strands": 1, '
                                              '"stripes": [[0, 0, 10, 30, true]]}')]),
    ("missing-strand", 1, "stripe references missing strand 3",
     lambda tmp: ["rna", "convert", _doc_file(tmp, "arc.json", {
         "strands": 1, "stripes": [[0, 3, 10, 30, -1]]})]),
    ("ValueError", 1, "modulus must be positive",
     lambda tmp: ["make", "affine", "--n", "0", "--a", "1", "--b", "0", "--e", "0"]),
    ("NonBijectiveColumn", 2, "not a bijection",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", {
         "n": 2, "star": [[0, 0], [0, 1]], "r1": _IDENTITY2, "r2": _IDENTITY2,
         "r3": _IDENTITY2, "r4": _IDENTITY2})]),
    ("AxiomViolation", 2, "axiom quandle-iii fails",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", {
         "n": 2, "star": [[1, 1], [0, 0]], "r1": _IDENTITY2, "r2": _IDENTITY2,
         "r3": _IDENTITY2, "r4": _IDENTITY2})]),
    ("NonUnit", 2, "not invertible",
     lambda tmp: ["make", "affine", "--n", "4", "--a", "2", "--b", "0", "--e", "0"]),
    ("NotClosed", 2, "not closed",
     lambda tmp: ["subpoly", write_stuquandle(tmp, "X_ex71"), "--subset", "1"]),
    ("subset-outside-carrier", 1, "error: element 9 outside 0..3",
     lambda tmp: ["subpoly", write_stuquandle(tmp, "X_ex71"), "--subset", "9"]),
    ("subset-not-integers", 1, "error: bad element list 'a,b'",
     lambda tmp: ["subpoly", write_stuquandle(tmp, "X_ex71"), "--subset", "a,b"]),
    ("table-not-list", 1, "error: stuquandle document field 'star' has the wrong type",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", {
         "n": 2, "star": 5, "r1": _IDENTITY2, "r2": _IDENTITY2,
         "r3": _IDENTITY2, "r4": _IDENTITY2})]),
    ("table-size-mismatch", 1, "error: expected a 3x3 table, got 2x2",
     lambda tmp: ["verify", _doc_file(tmp, "X.json", {
         "n": 3, "star": _IDENTITY2, "r1": _IDENTITY2, "r2": _IDENTITY2,
         "r3": _IDENTITY2, "r4": _IDENTITY2})]),
    ("relation-not-object", 1, "error: relation must be a JSON object",
     lambda tmp: ["color", _doc_file(tmp, "P.json", {"generators": 2, "relations": [5]}),
                  write_stuquandle(tmp, "X_ex71")]),
    ("relations-not-list", 1,
     "error: presentation document field 'relations' has the wrong type",
     lambda tmp: ["color", _doc_file(tmp, "P.json", {"generators": 2, "relations": {}}),
                  write_stuquandle(tmp, "X_ex71")]),
    ("no-generators", 1, "error: a presentation needs at least one generator",
     lambda tmp: ["color", _doc_file(tmp, "P.json", {"generators": 0, "relations": []}),
                  write_stuquandle(tmp, "X_ex71")]),
    ("generator-names-mismatch", 1, "error: generator_names length mismatch",
     lambda tmp: ["color", _doc_file(tmp, "P.json", {
         "generators": 2, "generator_names": ["a"], "relations": []}),
         write_stuquandle(tmp, "X_ex71")]),
    ("no-strands", 1, "error: an arc diagram needs at least one strand",
     lambda tmp: ["rna", "convert", _doc_file(tmp, "arc.json", {"strands": 0, "stripes": []})]),
    ("classical-sign", 1, "error: crossing sign must be +1 or -1, got 2",
     lambda tmp: ["rna", "convert", _doc_file(tmp, "arc.json", {
         "strands": 2, "stripes": [], "classicals": [[0, 1, 1, 1, 2]]})]),
    ("coeffs-count", 1, "error: --coeffs needs exactly six integers a,b,c,d,e,f",
     lambda tmp: ["make", "alexander", "--n", "5", "--t", "2", "--v", "1", "--coeffs", "1,2"]),
    ("UnknownFixture", 3, "unknown fixture",
     lambda tmp: ["catalog", "show", "missing"]),
    ("usage", 1, "invalid choice", lambda tmp: ["frobnicate"]),
], ids=lambda case: case[0])
def test_error_class_exit_codes(tmp_path, capsys, case):
    _, exit_code, message, argv = case
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert "set_int_max_str_digits" not in err  # advice no CLI user can follow


_BIG = [[0] * 257] * 257
_HUGE_PRESENTATION = {"generators": 10**9, "relations": []}
_HUGE_ARC = {"strands": 10**9, "stripes": []}


def _cap(n, what="a structure has at most 256 elements"):
    return f"error: {what}, got {n}\n"


@pytest.mark.parametrize("argv, line", [
    (lambda tmp: ["verify", _doc_file(tmp, "X.json", {
        "n": 257, "star": _BIG, "r1": _BIG, "r2": _BIG, "r3": _BIG, "r4": _BIG})], _cap(257)),
    (lambda tmp: ["make", "affine", "--n", "257", "--a", "3", "--b", "5", "--e", "7"],
     _cap(257)),
    (lambda tmp: ["make", "affine", "--n", "1000000000", "--a", "3", "--b", "5", "--e", "7"],
     _cap(1000000000)),
    (lambda tmp: ["make", "alexander", "--n", "257", "--t", "3", "--v", "1",
                  "--coeffs", "1,0,0,0,0,0"], _cap(257)),
    (lambda tmp: ["make", "alexander", "--n", "1000000000", "--t", "3", "--v", "1",
                  "--coeffs", "1,0,0,0,0,0"], _cap(1000000000)),
    (lambda tmp: ["color", _doc_file(tmp, "P.json", _HUGE_PRESENTATION),
                  write_stuquandle(tmp, "X_ex71")],
     _cap(10**9, "a presentation has at most 1048576 generators")),
    (lambda tmp: ["phi", _doc_file(tmp, "P.json", _HUGE_PRESENTATION),
                  write_stuquandle(tmp, "X_ex71")],
     _cap(10**9, "a presentation has at most 1048576 generators")),
    (lambda tmp: ["rna", "convert", _doc_file(tmp, "arc.json", _HUGE_ARC)],
     _cap(10**9, "an arc diagram has at most 1048576 strands")),
    (lambda tmp: ["rna", "convert", _doc_file(tmp, "arc.json", {"strands": 10**30,
                                                                 "stripes": []})],
     _cap(10**30, "an arc diagram has at most 1048576 strands")),
], ids=["verify_257", "affine_257", "affine_1e9", "alexander_257", "alexander_1e9",
        "color_generators_1e9", "phi_generators_1e9", "rna_convert_strands_1e9",
        "rna_convert_strands_1e30"])
def test_size_cap_is_checked_before_any_work(tmp_path, capsys, argv, line):
    argv = argv(tmp_path)
    start = time.perf_counter()
    got = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == (1, "", line)


def _relation(op, out=0):
    return {"out": out, "op": op, "lhs": 0, "rhs": 1}


# the op is checked before any other presentation field, so each line is pinned
@pytest.mark.parametrize("doc, line", [
    ({"generators": 2, "relations": [_relation([])]}, "error: unknown operation []"),
    ({"generators": 2, "relations": [_relation({})]}, "error: unknown operation {}"),
    ({"generators": 2, "relations": [_relation(None)]}, "error: unknown operation None"),
    ({"generators": 2, "relations": [_relation("R9")]}, "error: unknown operation 'R9'"),
    ({"generators": 2, "relations": [_relation("*", out=0.5), _relation("R9")]},
     "error: unknown operation 'R9'"),
    ({"generators": 1.5, "relations": [_relation("R9")]}, "error: unknown operation 'R9'"),
], ids=["list", "dict", "null", "R9", "float_index_before", "float_generators"])
def test_bad_op_is_the_first_error(tmp_path, capsys, doc, line):
    pres = _doc_file(tmp_path, "P.json", doc)
    assert run(capsys, "color", pres, write_stuquandle(tmp_path, "X_ex71")) == (1, "", line + "\n")


def _catalog_documents(kind):
    docs = [catalog.payload_document(fixture(fid)) for fid in list_fixtures()
            if fixture(fid).kind == kind]
    return [doc["presentation"] for doc in docs] if kind == "presentation" else docs


_ODD_VALUES = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1), st.none(),
    st.sampled_from([10**30, -10**30]))
_FIELD_VALUES = st.one_of(_ODD_VALUES, st.integers(-3, 12))
# a search over g free generators of X_ex71 has 4**g colorings, so g stays small
_GENERATOR_COUNTS = st.one_of(_ODD_VALUES, st.integers(-3, 6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_records_end_without_traceback(tmp_path_factory, data):
    """The generator or strand count, or one field, key or arity of a
    catalog relation, stripe or classical crossing is mutated, and the
    command ends in a documented exit code with at most one stderr line."""
    kind = data.draw(st.sampled_from(["presentation", "arc_diagram"]))
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_catalog_documents(kind)))))
    keys = ["relations"] if kind == "presentation" else ["stripes", "classicals"]
    records = [r for key in keys for r in doc.get(key, [])]
    if data.draw(st.booleans()):
        if kind == "presentation":
            doc["generators"] = data.draw(_GENERATOR_COUNTS)
        else:
            doc["strands"] = data.draw(_FIELD_VALUES)
    elif records:
        record = data.draw(st.sampled_from(records))
        fields = list(record) if isinstance(record, dict) else list(range(len(record)))
        field = data.draw(st.sampled_from(fields))
        mutations = ["value", "drop", "add"] + (["op"] if isinstance(record, dict) else [])
        mutation = data.draw(st.sampled_from(mutations))
        if mutation == "value":
            record[field] = data.draw(_FIELD_VALUES)
        elif mutation == "op":
            record["op"] = data.draw(st.one_of(st.sampled_from(stuquandle.OPS), _FIELD_VALUES))
        elif mutation == "drop":  # a relation key, or one field of a row
            record.pop(field)
        elif isinstance(record, dict):
            record["extra"] = 1
        else:
            record.append(data.draw(_FIELD_VALUES))
    tmp = tmp_path_factory.mktemp("mutated")
    path = _doc_file(tmp, "doc.json", doc)
    argv = (["color", path, write_stuquandle(tmp, "X_ex71")] if kind == "presentation"
            else ["rna", "convert", path])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


def _parse_outcome(parse, argv):
    """What one parse of argv gives: a namespace, a usage error message, or
    an exit (help) with its code and stdout."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            return "namespace", vars(parse(list(argv)))
    except ValueError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, stdout.getvalue()


def _full_tree(argv):
    return cli._build_parser().parse_args(argv)


_WORDS = ["verify", "make", "affine", "alexander", "poly", "subpoly", "color", "phi",
          "compare", "rna", "convert", "catalog", "list", "show", "check", "frobnicate",
          "-h", "--help", "--he", "--report", "--rep", "--report=r.json", "--n",
          "--subset", "--coeffs", "X.json", "P.json", "arc.json", "3", "-1", "1,3"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_WORDS), max_size=7))
def test_parse_matches_full_tree(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(_full_tree, argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["verify", "-h"], ["-h", "verify"], ["rna"], ["rna", "frobnicate"],
    ["make", "affine", "--n", "x"], [], ["--rep", "r.json", "poly", "X.json"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_matches_full_tree_pinned(argv):
    outcome = _parse_outcome(cli._parse, argv)
    assert outcome == _parse_outcome(_full_tree, argv)
    if argv[:1] == ["-h"]:  # the root's help lists every command, whatever follows -h
        assert outcome[:2] == ("exit", 0) and all(name in outcome[2] for name in cli._COMMANDS)


@pytest.mark.parametrize("argv, built", [
    (["verify", "X.json"], ["verify"]),
    (["--report", "r.json", "rna", "convert", "arc.json"], ["rna", "convert", "phi"]),
    (["frobnicate"], ["verify", "make", "affine", "alexander", "poly", "subpoly", "color",
                      "phi", "compare", "rna", "convert", "phi", "catalog", "list", "show",
                      "check"]),
])
def test_parse_builds_only_the_named_command(monkeypatch, argv, built):
    added = []
    add_command = cli._add_command
    monkeypatch.setattr(cli, "_add_command",
                        lambda sub, name, *rest: added.append(name) or add_command(sub, name, *rest))
    with contextlib.suppress(ValueError):
        cli._parse(argv)
    assert added == built


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_exit_one_without_traceback(buffered):
    # buffered, the write fails at the flush; unbuffered, already in print
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    src = str(Path(stuquandle.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stuquandle.cli", "catalog", "show", "trefoil_2_1_k_minus"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1
