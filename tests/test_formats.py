import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stuquandle import OPS, AxiomViolation, Presentation, Relation, compile_diagram
from stuquandle.catalog import fixture, list_fixtures
from stuquandle import formats
from stuquandle.rna import self_closure, to_crossing_diagram

from test_rna import _arc_diagrams


def test_stuquandle_round_trip(tmp_path):
    X = fixture("X_ex72").payload
    path = tmp_path / "x.json"
    formats.save_document(path, formats.stuquandle_to_dict(X, name="x"))
    assert formats.load_stuquandle(path) == X


def _examples(*values):
    """Hypothesis @example for each of values."""
    return lambda test: functools.reduce(lambda t, v: example(v)(t), values, test)


def _crossing_diagram(arc, closed):
    d = to_crossing_diagram(arc)
    return self_closure(d) if closed else d


_OPEN_OR_CLOSED = st.builds(_crossing_diagram, _arc_diagrams(), st.booleans())


@settings(max_examples=100, deadline=None)
@given(_OPEN_OR_CLOSED.map(compile_diagram))
@example(fixture("trefoil_2_1_k_minus").payload["presentation"])
@example(Presentation(2, (Relation(0, "*", 0, 1),), name="named", generator_names=("a", "b")))
def test_presentation_round_trip(tmp_path_factory, pres):
    path = tmp_path_factory.mktemp("p") / "p.json"
    formats.save_document(path, formats.presentation_to_dict(pres))
    assert formats.load_presentation(path) == pres


@st.composite
def _named_presentations(draw):
    """1-30 generators, 0-40 relations over every op, and a name and
    generator names of any text, each present or not."""
    count = draw(st.integers(1, 30))
    index = st.integers(0, count - 1)
    relations = draw(st.lists(st.builds(Relation, index, st.sampled_from(OPS), index, index),
                              max_size=40))
    name = draw(st.text() | st.just(""))
    names = draw(st.lists(st.text(), min_size=count, max_size=count) | st.just([]))
    return Presentation(count, tuple(relations), name=name, generator_names=tuple(names))


@settings(max_examples=300, deadline=None)
@given(_named_presentations())
@example(Presentation(1))
@example(Presentation(2, (Relation(1, "~*", 0, 1),), name='q"\\\n\x00é\u2603\U0001f600',
                      generator_names=("\t", "\ud800")))
def test_presentation_text_is_json_dumps(pres):
    assert formats.presentation_text(pres) == json.dumps(formats.presentation_to_dict(pres),
                                                         indent=2)


@pytest.mark.parametrize("arcs", [10**9, 10**30])
def test_arc_count_is_capped_before_any_work(arcs):
    with pytest.raises(ValueError, match=f"a diagram has at most 2097152 arcs, got {arcs}$"):
        self_closure(formats.crossing_diagram_from_dict(
            {"arcs": arcs, "crossings": [], "open_ends": [[0, 0]]}))


@settings(max_examples=100, deadline=None)
@given(_arc_diagrams())
@example(fixture("rna_K2_ex74").payload)
def test_arc_diagram_round_trip(tmp_path_factory, arc):
    path = tmp_path_factory.mktemp("a") / "a.json"
    formats.save_document(path, formats.arc_diagram_to_dict(arc))
    assert formats.load_arc_diagram(path) == arc


# open and closed diagrams of both arc fixtures, then the catalog's crossing
# diagrams (the trefoil mixes classical and stuck crossings)
@settings(max_examples=100, deadline=None)
@given(_OPEN_OR_CLOSED)
@_examples(*(_crossing_diagram(fixture(fid).payload, closed)
             for fid in ("rna_K1_ex74", "rna_K2_ex74") for closed in (False, True)),
           *(fixture(fid).payload["diagram"] for fid in list_fixtures()
             if fixture(fid).kind == "presentation"))
def test_crossing_diagram_round_trip(d):
    doc = json.loads(json.dumps(formats.crossing_diagram_to_dict(d)))
    assert formats.crossing_diagram_from_dict(doc) == d


@pytest.mark.parametrize("extra, message", [
    ({"crossings": [["stuck", 1, "x", 0, 0, 0]]},
     "crossing diagram field 'x' is not an integer"),
    ({"crossings": [["classical", True, 0, 1, 1]]},
     "crossing diagram field True is not an integer"),
    ({"crossings": [["stuck", 1, 0, 1, 0, 1.0]]},
     "crossing diagram field 1.0 is not an integer"),
    ({"open_ends": 5}, "each open end pair must be a list of 2 integers"),
    ({"open_ends": [[0]]}, "each open end pair must be a list of 2 integers"),
    ({"crossings": [5]}, "each crossing must be a list that starts with its kind"),
    ({"crossings": [["bogus"]]}, r"bad crossing entry \['bogus'\]"),
], ids=["str_arc", "bool_sign", "float_arc", "open_ends_not_list", "short_open_end",
        "crossing_not_list", "unknown_kind"])
def test_bad_crossing_diagram_is_format_error(extra, message):
    with pytest.raises(ValueError, match=message):
        formats.crossing_diagram_from_dict({"arcs": 2, "crossings": [], **extra})


def test_missing_key_is_format_error():
    with pytest.raises(ValueError, match="stuquandle document is missing 'star'"):
        formats.stuquandle_from_dict({"n": 2})
    with pytest.raises(ValueError, match="presentation document is missing 'relations'"):
        formats.presentation_from_dict({"generators": 2})
    with pytest.raises(ValueError, match="arc diagram document is missing 'stripes'"):
        formats.arc_diagram_from_dict({"strands": 1})


def test_bad_relation_op_is_format_error():
    doc = {"generators": 2,
           "relations": [{"out": 0, "op": "R9", "lhs": 0, "rhs": 1}]}
    with pytest.raises(ValueError, match="unknown operation 'R9'"):
        formats.presentation_from_dict(doc)


@pytest.mark.parametrize("extra", [
    {"name": 7}, {"generator_names": 5}, {"generator_names": ["a", 2]},
])
def test_non_string_presentation_names_are_format_errors(extra):
    with pytest.raises(ValueError, match="presentation (name and generator_names must be "
                                         "strings|generator_names must be a list)"):
        formats.presentation_from_dict({"generators": 2, "relations": [], **extra})


def test_bad_stripe_arity_is_format_error():
    with pytest.raises(ValueError, match="each stripe must be a list of 5 integers"):
        formats.arc_diagram_from_dict({"strands": 1, "stripes": [[0, 0, 10, 30]]})


def test_non_integer_table_is_format_error():
    doc = {"n": 1, "star": [["x"]], "r1": [[0]], "r2": [[0]],
           "r3": [[0]], "r4": [[0]]}
    with pytest.raises(ValueError, match="table entry 'x' is not an integer"):
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
    with pytest.raises(ValueError, match="broken.json is not valid JSON"):
        formats.load_document(path)
    missing = tmp_path / "absent.json"
    with pytest.raises(ValueError, match="cannot read .*absent.json"):
        formats.load_document(missing)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ValueError, match="array.json must contain a JSON object"):
        formats.load_document(array)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ValueError, match="utf16.json is not UTF-8 text"):
        formats.load_document(utf16)
