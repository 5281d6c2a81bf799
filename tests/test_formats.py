import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stuquandle import (
    OPS,
    AxiomViolation,
    Classical,
    CrossingDiagram,
    Presentation,
    Relation,
    Stuck,
    compile_diagram,
)
from stuquandle.catalog import fixture
from stuquandle import formats
from stuquandle.rna import self_closure, to_crossing_diagram

from test_rna import _arc_diagrams


def test_stuquandle_round_trip(tmp_path):
    X = fixture("X_ex72").payload
    path = tmp_path / "x.json"
    formats.save_document(path, formats.stuquandle_to_dict(X, name="x"))
    assert formats.load_stuquandle(path) == X


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
        self_closure(CrossingDiagram(arcs, (), ((0, 0),)))


@settings(max_examples=100, deadline=None)
@given(_arc_diagrams())
@example(fixture("rna_K2_ex74").payload)
def test_arc_diagram_round_trip(tmp_path_factory, arc):
    path = tmp_path_factory.mktemp("a") / "a.json"
    formats.save_document(path, formats.arc_diagram_to_dict(arc))
    assert formats.load_arc_diagram(path) == arc


def test_crossing_diagram_to_dict_literals():
    # the closed trefoil mixes classical and stuck crossings; the open
    # conversion of rna_K1_ex74 adds its open_ends
    trefoil = fixture("trefoil_2_1_k_minus").payload["diagram"]
    assert formats.crossing_diagram_to_dict(trefoil) == {
        "arcs": 4,
        "crossings": [["classical", -1, 1, 3, 0], ["stuck", -1, 0, 2, 1, 3],
                      ["classical", -1, 0, 1, 2]],
    }
    opened = to_crossing_diagram(fixture("rna_K1_ex74").payload)
    assert formats.crossing_diagram_to_dict(opened) == {
        "arcs": 4,
        "crossings": [["stuck", -1, 0, 2, 1, 3], ["classical", -1, 3, 1, 2]],
        "open_ends": [[0, 3]],
    }


@pytest.mark.parametrize("crossing, message", [
    (Stuck(1, "x", 0, 0, 0), "crossing diagram field 'x' is not an integer"),
    (Classical(True, 0, 1, 1), "crossing diagram field True is not an integer"),
    (Stuck(1, 0, 1, 0, 1.0), "crossing diagram field 1.0 is not an integer"),
], ids=["str_arc", "bool_sign", "float_arc"])
def test_bad_crossing_diagram_is_format_error(crossing, message):
    with pytest.raises(ValueError, match=message):
        CrossingDiagram(2, (crossing,))


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
