"""JSON document formats for stuquandles, presentations, and arc diagrams.

All three schemas are flat, human-diffable JSON:

  stuquandle    {"n": 4, "star": [[...]], "r1": [[...]], ..., "r4": [[...]]}
  presentation  {"generators": 4, "relations": [{"out": 0, "op": "~*",
                 "lhs": 3, "rhs": 1}, ...]}
  arc diagram   {"strands": 2, "stripes": [[strand_a, strand_b, pos_a,
                 pos_b, sign], ...], "classicals": [[over_strand, over_pos,
                 under_strand, under_pos, sign], ...]}

Structural problems raise FormatError; mathematical problems (axiom
failures, bad indices) propagate from the constructors.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

from .algebra import FiniteStuquandle, build_stuquandle
from .errors import FormatError
from .presentation import (
    OPS,
    Classical,
    CrossingDiagram,
    Presentation,
    Relation,
    Stuck,
)
from .rna import ArcDiagram, StrandCrossing, Stripe

# the crossing type of each file tag
_CROSSING_TYPES = {cls.kind: cls for cls in (Classical, Stuck)}


def _require(obj: dict, key: str, kind, what: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    if key not in obj:
        raise FormatError(f"{what} is missing {key!r}")
    value = obj[key]
    # bool subclasses int, but JSON true/false is never a valid field value
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise FormatError(f"{what} field {key!r} has the wrong type")
    return value


def _int_matrix(value, what: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise FormatError(f"{what} must be a list of rows")
    for row in value:
        for v in row:
            if type(v) is not int:
                raise FormatError(f"{what} must contain integers only")
    return value


def _int_lists(raw, size: int, what: str) -> list[list[int]]:
    """raw itself, once it is checked to be a list of size-integer lists.

    Types are exact, so a bool or float element is rejected.  The check runs
    over the whole list at once because diagrams hold thousands of entries.
    """
    if (not isinstance(raw, list) or set(map(type, raw)) - {list}
            or set(map(len, raw)) - {size}
            or set(map(type, itertools.chain.from_iterable(raw))) - {int}):
        raise FormatError(f"each {what} must be a list of {size} integers")
    return raw


# the file key of each operation in algebra.DEFINING, in that order
TABLE_KEYS = ("star", "r1", "r2", "r3", "r4")


def stuquandle_to_dict(X: FiniteStuquandle, name: str = "") -> dict:
    doc = {"n": X.n}
    if name:
        doc = {"name": name, "n": X.n}
    for key, rows in zip(TABLE_KEYS, X.defining):
        doc[key] = [list(row) for row in rows]
    return doc


def stuquandle_from_dict(doc: dict) -> FiniteStuquandle:
    n = _require(doc, "n", int, "stuquandle document")
    tables = [
        _int_matrix(_require(doc, key, list, "stuquandle document"), key)
        for key in TABLE_KEYS
    ]
    try:
        return build_stuquandle(n, *tables)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def presentation_to_dict(P: Presentation) -> dict:
    doc: dict = {}
    if P.name:
        doc["name"] = P.name
    doc["generators"] = P.generator_count
    if P.generator_names:
        doc["generator_names"] = list(P.generator_names)
    doc["relations"] = [
        {"out": r.out, "op": r.op, "lhs": r.lhs, "rhs": r.rhs} for r in P.relations
    ]
    return doc


def presentation_from_dict(doc: dict) -> Presentation:
    count = _require(doc, "generators", int, "presentation document")
    raw = _require(doc, "relations", list, "presentation document")
    relations = []
    for item in raw:
        out = _require(item, "out", int, "relation")
        op = _require(item, "op", str, "relation")
        lhs = _require(item, "lhs", int, "relation")
        rhs = _require(item, "rhs", int, "relation")
        if op not in OPS:
            raise FormatError(f"unknown relation operation {op!r}")
        relations.append(Relation(out, op, lhs, rhs))
    name, names = doc.get("name", ""), doc.get("generator_names", [])
    if not (isinstance(name, str) and isinstance(names, list)
            and all(isinstance(v, str) for v in names)):
        raise FormatError("presentation name and generator_names must be strings")
    try:
        return Presentation(count, tuple(relations), name=name,
                            generator_names=tuple(names))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def arc_diagram_to_dict(a: ArcDiagram) -> dict:
    doc = {
        "strands": a.strand_count,
        "stripes": [
            [s.strand_a, s.strand_b, s.position_a, s.position_b, s.sign]
            for s in a.stripes
        ],
    }
    if a.classicals:
        doc["classicals"] = [
            [c.over_strand, c.over_position, c.under_strand, c.under_position, c.sign]
            for c in a.classicals
        ]
    return doc


def arc_diagram_from_dict(doc: dict) -> ArcDiagram:
    strands = _require(doc, "strands", int, "arc diagram document")
    raw_stripes = _require(doc, "stripes", list, "arc diagram document")
    stripes = [Stripe(*item) for item in _int_lists(raw_stripes, 5, "stripe")]
    raw_classicals = doc.get("classicals", [])
    classicals = [StrandCrossing(*item)
                  for item in _int_lists(raw_classicals, 5, "classical crossing")]
    return ArcDiagram(strands, tuple(stripes), tuple(classicals))


def crossing_diagram_to_dict(d: CrossingDiagram) -> dict:
    crossings = [[c.kind, c.sign, *c.arcs()] for c in d.crossings]
    doc: dict = {"arcs": d.arc_count, "crossings": crossings}
    if d.open_ends:
        doc["open_ends"] = [list(pair) for pair in d.open_ends]
    return doc


def crossing_diagram_from_dict(doc: dict) -> CrossingDiagram:
    arcs = _require(doc, "arcs", int, "crossing diagram document")
    crossings = []
    for item in _require(doc, "crossings", list, "crossing diagram document"):
        if not isinstance(item, list) or not item or not isinstance(item[0], str):
            raise FormatError("each crossing must be a list that starts with its kind")
        cls, rest = _CROSSING_TYPES.get(item[0]), item[1:]
        # the entries after the tag are the fields: sign, then the arc slots
        if (cls is None or len(rest) != len(dataclasses.fields(cls))
                or set(map(type, rest)) - {int}):
            raise FormatError(f"bad crossing entry {item!r}")
        crossings.append(cls(*rest))
    open_ends = _int_lists(doc.get("open_ends", []), 2, "open end pair")
    return CrossingDiagram(arcs, tuple(crossings), tuple(map(tuple, open_ends)))


def load_document(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path} is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path} must contain a JSON object")
    return doc


def save_document(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_stuquandle(path) -> FiniteStuquandle:
    return stuquandle_from_dict(load_document(path))


def load_presentation(path) -> Presentation:
    return presentation_from_dict(load_document(path))


def load_arc_diagram(path) -> ArcDiagram:
    return arc_diagram_from_dict(load_document(path))
