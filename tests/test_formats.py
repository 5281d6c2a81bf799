import json

import pytest

from stuquandle import AxiomViolation, FormatError
from stuquandle.catalog import fixture, list_fixtures
from stuquandle import formats
from stuquandle.rna import self_closure, to_crossing_diagram


def test_stuquandle_round_trip(tmp_path):
    X = fixture("X_ex72").payload
    path = tmp_path / "x.json"
    formats.save_document(path, formats.stuquandle_to_dict(X, name="x"))
    assert formats.load_stuquandle(path) == X


def test_presentation_round_trip(tmp_path):
    pres = fixture("trefoil_2_1_k_minus").payload["presentation"]
    path = tmp_path / "p.json"
    formats.save_document(path, formats.presentation_to_dict(pres))
    loaded = formats.load_presentation(path)
    assert loaded.generator_count == pres.generator_count
    assert loaded.relations == pres.relations


def test_arc_diagram_round_trip(tmp_path):
    arc = fixture("rna_K2_ex74").payload
    path = tmp_path / "a.json"
    formats.save_document(path, formats.arc_diagram_to_dict(arc))
    assert formats.load_arc_diagram(path) == arc


def test_crossing_diagram_round_trip():
    # open and closed diagrams of both arc fixtures, then the catalog's
    # crossing diagrams (the trefoil mixes classical and stuck crossings)
    diagrams = []
    for fid in ("rna_K1_ex74", "rna_K2_ex74"):
        d = to_crossing_diagram(fixture(fid).payload)
        diagrams += [d, self_closure(d)]
    diagrams += [fixture(fid).payload["diagram"] for fid in list_fixtures()
                 if fixture(fid).kind == "presentation"]
    assert len(diagrams) == 9
    for d in diagrams:
        doc = formats.crossing_diagram_to_dict(d)
        assert formats.crossing_diagram_from_dict(doc) == d


@pytest.mark.parametrize("extra", [
    {"crossings": [["stuck", 1, "x", 0, 0, 0]]},
    {"crossings": [["classical", True, 0, 1, 1]]},
    {"crossings": [["stuck", 1, 0, 1, 0, 1.0]]},
    {"open_ends": 5},
    {"open_ends": [[0]]},
], ids=["str_arc", "bool_sign", "float_arc", "open_ends_not_list", "short_open_end"])
def test_bad_crossing_diagram_is_format_error(extra):
    with pytest.raises(FormatError):
        formats.crossing_diagram_from_dict({"arcs": 2, "crossings": [], **extra})


def test_missing_key_is_format_error():
    with pytest.raises(FormatError):
        formats.stuquandle_from_dict({"n": 2})
    with pytest.raises(FormatError):
        formats.presentation_from_dict({"generators": 2})
    with pytest.raises(FormatError):
        formats.arc_diagram_from_dict({"strands": 1})


def test_bad_relation_op_is_format_error():
    doc = {"generators": 2,
           "relations": [{"out": 0, "op": "R9", "lhs": 0, "rhs": 1}]}
    with pytest.raises(FormatError):
        formats.presentation_from_dict(doc)


@pytest.mark.parametrize("extra", [
    {"name": 7}, {"generator_names": 5}, {"generator_names": ["a", 2]},
])
def test_non_string_presentation_names_are_format_errors(extra):
    with pytest.raises(FormatError):
        formats.presentation_from_dict({"generators": 2, "relations": [], **extra})


def test_bad_stripe_arity_is_format_error():
    with pytest.raises(FormatError):
        formats.arc_diagram_from_dict({"strands": 1, "stripes": [[0, 0, 10, 30]]})


def test_non_integer_table_is_format_error():
    doc = {"n": 1, "star": [["x"]], "r1": [[0]], "r2": [[0]],
           "r3": [[0]], "r4": [[0]]}
    with pytest.raises(FormatError):
        formats.stuquandle_from_dict(doc)


def test_axiom_failure_propagates_from_file(tmp_path):
    doc = {"n": 2, "star": [[0, 1], [1, 0]], "r1": [[0, 0], [1, 1]],
           "r2": [[0, 0], [1, 1]], "r3": [[0, 0], [1, 1]], "r4": [[0, 0], [1, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(AxiomViolation):
        formats.load_stuquandle(path)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        formats.load_document(path)
    missing = tmp_path / "absent.json"
    with pytest.raises(FormatError):
        formats.load_document(missing)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(FormatError):
        formats.load_document(array)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(FormatError, match="utf16.json"):
        formats.load_document(utf16)
