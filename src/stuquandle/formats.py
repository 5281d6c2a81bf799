"""JSON document formats for stuquandles, presentations, and arc diagrams.

All three schemas are flat, human-diffable JSON:

  stuquandle    {"n": 4, "star": [[...]], "r1": [[...]], ..., "r4": [[...]]}
  presentation  {"generators": 4, "relations": [{"out": 0, "op": "~*",
                 "lhs": 3, "rhs": 1}, ...]}
  arc diagram   {"strands": 2, "stripes": [[strand_a, strand_b, pos_a,
                 pos_b, sign], ...], "classicals": [[over_strand, over_pos,
                 under_strand, under_pos, sign], ...]}

A record is its file row, fields in order: a stripe or classical is its
list, a crossing [kind, *fields] and a relation {"out", "op", "lhs", "rhs"}.
This module checks document shape only: objects, keys, lists and arities.
The containers check their records' values (exact integers, known
operations, ranges).  Either raises ValueError on malformed input; an axiom
failure propagates as its own type.  presentation_text writes a presentation
as json.dumps(..., indent=2) would, filling one template per relation.

Crossing diagrams are only written, as the "diagram" key of `catalog show`
({"arcs", "crossings": [[kind, *fields], ...], "open_ends"}); no command
reads one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .algebra import FiniteStuquandle, build_stuquandle
from .presentation import CrossingDiagram, Presentation, Relation
from .rna import ArcDiagram, StrandCrossing, Stripe


def _require(obj: dict, key: str, what: str, kind=None):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{what} is missing {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{what} field {key!r} has the wrong type")
    return value


def _records(raw, size: int, what: str) -> list[list]:
    """raw, once checked to be a list of size-element lists (record fields)."""
    if not isinstance(raw, list) or set(map(type, raw)) - {list} or set(map(len, raw)) - {size}:
        raise ValueError(f"each {what} must be a list of {size} integers")
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
    n = _require(doc, "n", "stuquandle document")
    return build_stuquandle(n, *(_require(doc, key, "stuquandle document", list)
                                 for key in TABLE_KEYS))


def _presentation_head(P: Presentation) -> dict:
    doc: dict = {}
    if P.name:
        doc["name"] = P.name
    doc["generators"] = P.generator_count
    if P.generator_names:
        doc["generator_names"] = list(P.generator_names)
    return doc


def presentation_to_dict(P: Presentation) -> dict:
    return {**_presentation_head(P), "relations": [r._asdict() for r in P.relations]}


def presentation_text(P: Presentation) -> str:
    """json.dumps(presentation_to_dict(P), indent=2), byte for byte.

    The head goes through json.dumps, so names keep their escaping.  Each
    relation fills one template: Presentation has checked that its indices
    are exact ints and its op one of OPS, none of which needs escaping.
    """
    head = json.dumps(_presentation_head(P), indent=2)[:-2]  # drop the closing "\n}"
    if not P.relations:
        return head + ',\n  "relations": []\n}'
    rows = ",\n".join([f'    {{\n      "out": {out},\n      "op": "{op}",\n'
                        f'      "lhs": {lhs},\n      "rhs": {rhs}\n    }}'
                        for out, op, lhs, rhs in P.relations])
    return f'{head},\n  "relations": [\n{rows}\n  ]\n}}'


def presentation_from_dict(doc: dict) -> Presentation:
    count = _require(doc, "generators", "presentation document")
    raw = _require(doc, "relations", "presentation document", list)
    fields = [[_require(item, key, "relation") for key in Relation._fields] for item in raw]
    names = doc.get("generator_names", [])
    if not isinstance(names, list):
        raise ValueError("presentation generator_names must be a list")
    return Presentation(count, tuple(Relation(*f) for f in fields),
                        name=doc.get("name", ""), generator_names=tuple(names))


def arc_diagram_to_dict(a: ArcDiagram) -> dict:
    doc = {"strands": a.strand_count, "stripes": [list(s) for s in a.stripes]}
    if a.classicals:
        doc["classicals"] = [list(c) for c in a.classicals]
    return doc


def arc_diagram_from_dict(doc: dict) -> ArcDiagram:
    strands = _require(doc, "strands", "arc diagram document")
    stripes = _records(_require(doc, "stripes", "arc diagram document", list), 5, "stripe")
    classicals = _records(doc.get("classicals", []), 5, "classical crossing")
    return ArcDiagram(strands, tuple(Stripe(*item) for item in stripes),
                      tuple(StrandCrossing(*item) for item in classicals))


def crossing_diagram_to_dict(d: CrossingDiagram) -> dict:
    crossings = [[c.kind, *c] for c in d.crossings]
    doc: dict = {"arcs": d.arc_count, "crossings": crossings}
    if d.open_ends:
        doc["open_ends"] = [list(pair) for pair in d.open_ends]
    return doc


def load_document(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ValueError(f"{path} is not valid JSON: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return doc


def save_document(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_stuquandle(path) -> FiniteStuquandle:
    return stuquandle_from_dict(load_document(path))


def load_presentation(path) -> Presentation:
    return presentation_from_dict(load_document(path))


def load_arc_diagram(path) -> ArcDiagram:
    return arc_diagram_from_dict(load_document(path))
