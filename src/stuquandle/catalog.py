"""Built-in fixtures: reference structures, diagrams, and expected values.

Each fixture carries its payload plus a dictionary of expected results in
JSON-ready form; the golden sweep recomputes every expectation through the
file formats and compares exactly.  The expected values are frozen
literals: no package code computes them, so a fault anywhere on the path
from file to rendered invariant shows up as a failed check.  Diagram
encodings whose source pictures are ambiguous are pinned by their
coloring sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from . import formats
from .algebra import Subset, build_stuquandle, table_from
from .errors import UnknownFixture
from .polynomial import stuquandle_polynomial, substuquandle_polynomial
from .presentation import (
    Classical,
    CrossingDiagram,
    Stuck,
    compile_diagram,
    enumerate_colorings,
    phi_invariant,
)
from .rna import ArcDiagram, StrandCrossing, Stripe, arc_presentation


@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str  # stuquandle | presentation | arc_diagram
    payload: object
    expected: dict


# The defining operations *, R1, R2, R3, R4 of each structure on Z_n.
_STUQUANDLES = {
    "X1_ex63": (
        4,
        lambda x, y: 3 * x + 2 * y,
        lambda x, y: 2 * x + 3 * y,
        lambda x, y: x,
        lambda x, y: 3 * x + 2 * y,
        lambda x, y: y,
    ),
    "X2_ex63": (
        4,
        lambda x, y: x,
        lambda x, y: y,
        lambda x, y: x,
        lambda x, y: y,
        lambda x, y: x,
    ),
    "X_ex71": (
        4,
        lambda x, y: 3 * x + 2 * y,
        lambda x, y: x + 2 * y * y,
        lambda x, y: 2 * x * x + y,
        lambda x, y: 3 * x,
        lambda x, y: 2 * x + y,
    ),
    "X_ex72": (
        3,
        lambda x, y: x,
        lambda x, y: 2 * y * y,
        lambda x, y: 2 * x * x,
        lambda x, y: 2 * x + 2 * x * x,
        lambda x, y: 2 * y + 2 * y * y,
    ),
    "X_ex74": (
        4,
        lambda x, y: x,
        lambda x, y: 3 * x + y,
        lambda x, y: x + 3 * y,
        lambda x, y: x + 2 * y,
        lambda x, y: 2 * x + y,
    ),
}

_DIAGRAMS = {
    "unknot": CrossingDiagram(1),
    "infinity_0_1_k_plus": CrossingDiagram(2, (Stuck(1, 0, 1, 0, 1),)),
    "trefoil_2_1_k_minus": CrossingDiagram(4, (
        Classical(-1, over=1, under_in=3, under_out=0),
        Stuck(-1, 0, 2, 1, 3),
        Classical(-1, over=0, under_in=1, under_out=2),
    )),
    "K1_ex72": CrossingDiagram(4, (Stuck(-1, 0, 1, 2, 3), Stuck(-1, 2, 3, 0, 1))),
    "K2_ex72": CrossingDiagram(4, (Stuck(1, 0, 1, 3, 2), Stuck(1, 2, 3, 1, 0))),
}

_ARC_DIAGRAMS = {
    "rna_K1_ex74": ArcDiagram(
        1,
        (Stripe(0, 0, 10, 30, -1),),
        (StrandCrossing(0, 40, 0, 20, -1),),
    ),
    "rna_K2_ex74": ArcDiagram(
        2,
        (Stripe(0, 1, 10, 15, -1),),
        (StrandCrossing(1, 25, 0, 20, -1),),
    ),
}

# Expected results per fixture, frozen from the paper's worked examples;
# the sweep recomputes each one through the file formats.
_EXPECTED = {
    "X1_ex63": {
        "profiles": [
            [[2, 1, 4, 2, 1], [2, 1, 4, 2, 1]],
            [[2, 1, 4, 2, 1], [2, 1, 4, 2, 1]],
            [[2, 1, 4, 2, 1], [2, 1, 4, 2, 1]],
            [[2, 1, 4, 2, 1], [2, 1, 4, 2, 1]],
        ],
        "stqp": "4*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5",
        "sstqp:1,3": "2*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5",
    },
    "X2_ex63": {
        "profiles": [
            [[4, 1, 4, 1, 4], [4, 1, 4, 1, 4]],
            [[4, 1, 4, 1, 4], [4, 1, 4, 1, 4]],
            [[4, 1, 4, 1, 4], [4, 1, 4, 1, 4]],
            [[4, 1, 4, 1, 4], [4, 1, 4, 1, 4]],
        ],
        "stqp": "4*s1^4*t1^4*s2*t2*s3^4*t3^4*s4*t4*s5^4*t5^4",
    },
    "X_ex71": {
        "profiles": [
            [[2, 2, 1, 4, 1], [2, 4, 1, 2, 1]],
            [[2, 2, 1, 0, 1], [2, 0, 1, 2, 1]],
            [[2, 2, 1, 4, 1], [2, 4, 1, 2, 1]],
            [[2, 2, 1, 0, 1], [2, 0, 1, 2, 1]],
        ],
        "stqp": "2*s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5"
                " + 2*s1^2*t1^2*s2^2*s3*t3*t4^2*s5*t5",
        "sstqp:0,2": "2*s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5",
    },
    "X_ex72": {
        "profiles": [
            [[3, 1, 3, 3, 2], [3, 1, 2, 2, 1]],
            [[3, 0, 0, 3, 1], [3, 1, 2, 2, 1]],
            [[3, 2, 3, 0, 0], [3, 1, 2, 2, 1]],
        ],
        "stqp": "s1^3*t1^3*s2^2*t2*s3^3*t3^2*t4^2*t5"
                " + s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5"
                " + s1^3*t1^3*t2*t3^2*s4^3*t4^2*s5*t5",
    },
    "X_ex74": {
        "profiles": [
            [[4, 1, 1, 2, 1], [4, 2, 4, 4, 1]],
            [[4, 1, 1, 2, 1], [4, 0, 0, 0, 1]],
            [[4, 1, 1, 2, 1], [4, 2, 0, 4, 1]],
            [[4, 1, 1, 2, 1], [4, 0, 0, 0, 1]],
        ],
        "stqp": "s1^4*t1^4*s2*t2^2*s3*t3^4*s4^2*t4^4*s5*t5"
                " + s1^4*t1^4*s2*t2^2*s3*s4^2*t4^4*s5*t5"
                " + 2*s1^4*t1^4*s2*s3*s4^2*s5*t5",
    },
    "unknot": {
        "colorings:X_ex71": [[0], [1], [2], [3]],
        "counting:X_ex71": 4,
        "phi:X_ex71": "2*u^{2*s1^2*t1^2*s2^2*s3*t3*t4^2*s5*t5}"
                      " + 2*u^{s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}",
    },
    "infinity_0_1_k_plus": {
        "colorings:X_ex71": [[0, 0], [0, 2], [2, 0], [2, 2]],
        "counting:X_ex71": 4,
        "phi:X_ex71": "2*u^{2*s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}"
                      " + 2*u^{s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}",
    },
    "trefoil_2_1_k_minus": {
        "colorings:X_ex71": [[0, 0, 0, 0], [1, 3, 3, 1], [2, 2, 2, 2], [3, 1, 1, 3]],
        "counting:X_ex71": 4,
        "phi:X_ex71": "2*u^{2*s1^2*t1^2*s2^2*s3*t3*t4^2*s5*t5}"
                      " + 2*u^{s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}",
        "relations": [[0, "~*", 3, 1], [1, "R3", 0, 2], [2, "~*", 1, 0], [3, "R4", 0, 2]],
    },
    "K1_ex72": {
        "colorings:X_ex72": [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]],
        "counting:X_ex72": 4,
        "phi:X_ex72": "1*u^{s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5}"
                      " + 3*u^{s1^3*t1^3*s2^2*t2*s3^3*t3^2*t4^2*t5"
                      " + s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5"
                      " + s1^3*t1^3*t2*t3^2*s4^3*t4^2*s5*t5}",
    },
    "K2_ex72": {
        "colorings:X_ex72": [[0, 0, 0, 0], [0, 2, 0, 2], [2, 0, 2, 0], [2, 2, 2, 2]],
        "counting:X_ex72": 4,
        "phi:X_ex72": "1*u^{s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5}"
                      " + 3*u^{s1^3*t1^3*s2^2*t2*s3^3*t3^2*t4^2*t5"
                      " + s1^3*t1^3*s2*t2*s3^3*t3^2*s4^3*t4^2*s5^2*t5}",
    },
    "rna_K1_ex74": {
        "colorings:X_ex74": [[0, 0, 0], [1, 3, 3], [2, 2, 2], [3, 1, 1]],
        "counting:X_ex74": 4,
        "phi:X_ex74": "1*u^{s1^4*t1^4*s2*t2^2*s3*t3^4*s4^2*t4^4*s5*t5}"
                      " + 1*u^{s1^4*t1^4*s2*t2^2*s3*t3^4*s4^2*t4^4*s5*t5"
                      " + s1^4*t1^4*s2*t2^2*s3*s4^2*t4^4*s5*t5}"
                      " + 2*u^{s1^4*t1^4*s2*t2^2*s3*t3^4*s4^2*t4^4*s5*t5"
                      " + s1^4*t1^4*s2*t2^2*s3*s4^2*t4^4*s5*t5"
                      " + 2*s1^4*t1^4*s2*s3*s4^2*s5*t5}",
        "presentation": {"generators": 3, "relations": [
            {"out": 2, "op": "R3", "lhs": 0, "rhs": 1},
            {"out": 0, "op": "R4", "lhs": 0, "rhs": 1},
            {"out": 1, "op": "~*", "lhs": 2, "rhs": 0},
        ]},
    },
    "rna_K2_ex74": {
        "colorings:X_ex74": [[0, 0, 0], [0, 2, 0], [2, 0, 2], [2, 2, 2]],
        "counting:X_ex74": 4,
        "phi:X_ex74": "1*u^{s1^4*t1^4*s2*t2^2*s3*t3^4*s4^2*t4^4*s5*t5}"
                      " + 3*u^{s1^4*t1^4*s2*t2^2*s3*t3^4*s4^2*t4^4*s5*t5"
                      " + s1^4*t1^4*s2*t2^2*s3*s4^2*t4^4*s5*t5}",
        "presentation": {"generators": 3, "relations": [
            {"out": 2, "op": "R3", "lhs": 0, "rhs": 1},
            {"out": 1, "op": "R4", "lhs": 0, "rhs": 1},
            {"out": 0, "op": "~*", "lhs": 2, "rhs": 1},
        ]},
    },
}


@functools.cache
def _catalog() -> dict[str, Fixture]:
    """Every fixture, built (and each structure verified) on first use."""
    fixtures = [
        Fixture(fid, "stuquandle", build_stuquandle(n, *(table_from(n, op) for op in ops)),
                _EXPECTED[fid])
        for fid, (n, *ops) in _STUQUANDLES.items()
    ]
    fixtures += [
        Fixture(fid, "presentation",
                {"presentation": compile_diagram(d, name=fid), "diagram": d},
                _EXPECTED[fid])
        for fid, d in _DIAGRAMS.items()
    ]
    fixtures += [
        Fixture(fid, "arc_diagram", a, _EXPECTED[fid]) for fid, a in _ARC_DIAGRAMS.items()
    ]
    return {fx.id: fx for fx in fixtures}


def list_fixtures() -> list[str]:
    return list(_catalog())


def fixture(fixture_id: str) -> Fixture:
    try:
        return _catalog()[fixture_id]
    except KeyError:
        raise UnknownFixture(fixture_id) from None


def payload_document(fx: Fixture) -> dict:
    """The JSON document of a fixture's payload: a structure file, an arc
    diagram file, or a presentation file beside its crossing diagram."""
    if fx.kind == "stuquandle":
        return formats.stuquandle_to_dict(fx.payload, name=fx.id)
    if fx.kind == "presentation":
        return {
            "presentation": formats.presentation_to_dict(fx.payload["presentation"]),
            "diagram": formats.crossing_diagram_to_dict(fx.payload["diagram"]),
        }
    if fx.kind == "arc_diagram":
        return formats.arc_diagram_to_dict(fx.payload)
    raise ValueError(f"unknown fixture kind {fx.kind!r}")


def _load_target(target: str, workdir: Path):
    """Round-trip a target structure through its file format."""
    path = workdir / f"{target}.json"
    formats.save_document(path, payload_document(fixture(target)))
    return formats.load_stuquandle(path)


def verify_fixture(fx: Fixture, workdir) -> list[tuple[str, bool, str]]:
    """Recompute every expectation of one fixture through file round trips.

    Returns (check name, passed, detail) triples; detail is empty on pass.
    """
    workdir = Path(workdir)
    results = []

    def check(name: str, got, want):
        ok = got == want
        results.append((name, ok, "" if ok else f"got {got!r}, want {want!r}"))

    def check_targets(pres):
        for key, want in fx.expected.items():
            if not key.startswith("colorings:"):
                continue
            target = key.split(":", 1)[1]
            X = _load_target(target, workdir)
            check(key, [list(c) for c in enumerate_colorings(pres, X)], want)
            phi = phi_invariant(pres, X)
            check(f"counting:{target}", phi.total(), fx.expected[f"counting:{target}"])
            check(f"phi:{target}", phi.render(), fx.expected[f"phi:{target}"])

    path = workdir / f"{fx.id}.json"
    doc = payload_document(fx)
    if fx.kind == "stuquandle":
        formats.save_document(path, doc)
        X = formats.load_stuquandle(path)
        got_profiles = [[list(p[0::2]), list(p[1::2])] for p in X.profiles]
        check("profiles", got_profiles, fx.expected["profiles"])
        check("stqp", stuquandle_polynomial(X).render(), fx.expected["stqp"])
        for key, want in fx.expected.items():
            if key.startswith("sstqp:"):
                members = tuple(int(m) for m in key.split(":", 1)[1].split(","))
                got = substuquandle_polynomial(Subset(X, members)).render()
                check(key, got, want)
    elif fx.kind == "presentation":
        formats.save_document(path, doc["presentation"])
        pres = formats.load_presentation(path)
        compiled = compile_diagram(fx.payload["diagram"], name=fx.id)
        check("compile", compiled.relations, pres.relations)
        if "relations" in fx.expected:
            got = sorted(map(list, pres.relations))
            check("relations", got, fx.expected["relations"])
        check_targets(pres)
    else:
        formats.save_document(path, doc)
        arc = formats.load_arc_diagram(path)
        pres = arc_presentation(arc)
        check("presentation", formats.presentation_to_dict(pres),
              fx.expected["presentation"])
        check_targets(pres)
    return results


def run_golden_sweep(workdir) -> list[tuple[str, str, bool, str]]:
    """Verify every fixture; returns (fixture id, check, passed, detail)."""
    rows = []
    for fid in list_fixtures():
        for name, ok, detail in verify_fixture(fixture(fid), workdir):
            rows.append((fid, name, ok, detail))
    return rows
