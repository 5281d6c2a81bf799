"""Built-in fixtures: reference structures, diagrams, and expected values.

Each fixture carries its payload plus a dictionary of expected results in
JSON-ready form; the golden sweep recomputes every expectation through the
file formats and compares exactly.  Diagram encodings whose source
pictures are ambiguous are pinned by their coloring sets, which the sweep
re-checks against a full brute-force enumeration in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import formats
from .algebra import Subset, build_stuquandle, table_from
from .errors import UnknownFixture
from .polynomial import (
    STU_VARS,
    ElementProfile,
    Polynomial,
    PolynomialMultiset,
    element_profile,
    profile_exponents,
    stuquandle_polynomial,
    substuquandle_polynomial,
)
from .presentation import (
    Classical,
    CrossingDiagram,
    Stuck,
    compile_diagram,
    enumerate_colorings,
    phi_invariant,
)
from .rna import ArcDiagram, StrandCrossing, Stripe, self_closure, to_crossing_diagram


@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str  # stuquandle | presentation | arc_diagram
    payload: object
    expected: dict


_STUQUANDLES = {
    "X1_ex63": build_stuquandle(
        4,
        table_from(4, lambda x, y: 3 * x + 2 * y),
        table_from(4, lambda x, y: 2 * x + 3 * y),
        table_from(4, lambda x, y: x),
        table_from(4, lambda x, y: 3 * x + 2 * y),
        table_from(4, lambda x, y: y),
    ),
    "X2_ex63": build_stuquandle(
        4,
        table_from(4, lambda x, y: x),
        table_from(4, lambda x, y: y),
        table_from(4, lambda x, y: x),
        table_from(4, lambda x, y: y),
        table_from(4, lambda x, y: x),
    ),
    "X_ex71": build_stuquandle(
        4,
        table_from(4, lambda x, y: 3 * x + 2 * y),
        table_from(4, lambda x, y: x + 2 * y * y),
        table_from(4, lambda x, y: 2 * x * x + y),
        table_from(4, lambda x, y: 3 * x),
        table_from(4, lambda x, y: 2 * x + y),
    ),
    "X_ex72": build_stuquandle(
        3,
        table_from(3, lambda x, y: x),
        table_from(3, lambda x, y: 2 * y * y),
        table_from(3, lambda x, y: 2 * x * x),
        table_from(3, lambda x, y: 2 * x + 2 * x * x),
        table_from(3, lambda x, y: 2 * y + 2 * y * y),
    ),
    "X_ex74": build_stuquandle(
        4,
        table_from(4, lambda x, y: x),
        table_from(4, lambda x, y: 3 * x + y),
        table_from(4, lambda x, y: x + 3 * y),
        table_from(4, lambda x, y: x + 2 * y),
        table_from(4, lambda x, y: 2 * x + y),
    ),
}

# Frozen per-element (r, c) count tables for every reference structure.
_PROFILES = {
    "X1_ex63": (((2, 1, 4, 2, 1), (2, 1, 4, 2, 1)),) * 4,
    "X2_ex63": (((4, 1, 4, 1, 4), (4, 1, 4, 1, 4)),) * 4,
    "X_ex71": (
        ((2, 2, 1, 4, 1), (2, 4, 1, 2, 1)),
        ((2, 2, 1, 0, 1), (2, 0, 1, 2, 1)),
        ((2, 2, 1, 4, 1), (2, 4, 1, 2, 1)),
        ((2, 2, 1, 0, 1), (2, 0, 1, 2, 1)),
    ),
    "X_ex72": (
        ((3, 1, 3, 3, 2), (3, 1, 2, 2, 1)),
        ((3, 0, 0, 3, 1), (3, 1, 2, 2, 1)),
        ((3, 2, 3, 0, 0), (3, 1, 2, 2, 1)),
    ),
    "X_ex74": (
        ((4, 1, 1, 2, 1), (4, 2, 4, 4, 1)),
        ((4, 1, 1, 2, 1), (4, 0, 0, 0, 1)),
        ((4, 1, 1, 2, 1), (4, 2, 0, 4, 1)),
        ((4, 1, 1, 2, 1), (4, 0, 0, 0, 1)),
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

# Coloring sets, per (diagram fixture, target structure).
_COLORINGS = {
    ("unknot", "X_ex71"): ((0,), (1,), (2,), (3,)),
    ("infinity_0_1_k_plus", "X_ex71"): ((0, 0), (0, 2), (2, 0), (2, 2)),
    ("trefoil_2_1_k_minus", "X_ex71"): (
        (0, 0, 0, 0), (1, 3, 3, 1), (2, 2, 2, 2), (3, 1, 1, 3),
    ),
    ("K1_ex72", "X_ex72"): (
        (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1),
    ),
    ("K2_ex72", "X_ex72"): (
        (0, 0, 0, 0), (0, 2, 0, 2), (2, 0, 2, 0), (2, 2, 2, 2),
    ),
    ("rna_K1_ex74", "X_ex74"): ((0, 0, 0), (1, 3, 3), (2, 2, 2), (3, 1, 1)),
    ("rna_K2_ex74", "X_ex74"): ((0, 0, 0), (0, 2, 0), (2, 0, 2), (2, 2, 2)),
}

# Coloring images with multiplicities, same keys as _COLORINGS.
_IMAGES = {
    ("unknot", "X_ex71"): (((0,), 1), ((1, 3), 2), ((2,), 1)),
    ("infinity_0_1_k_plus", "X_ex71"): (((0,), 1), ((0, 2), 2), ((2,), 1)),
    ("trefoil_2_1_k_minus", "X_ex71"): (((0,), 1), ((1, 3), 2), ((2,), 1)),
    ("K1_ex72", "X_ex72"): (((0,), 1), ((0, 1, 2), 3)),
    ("K2_ex72", "X_ex72"): (((0,), 1), ((0, 2), 3)),
    ("rna_K1_ex74", "X_ex74"): (((0,), 1), ((0, 1, 2, 3), 2), ((0, 2), 1)),
    ("rna_K2_ex74", "X_ex74"): (((0,), 1), ((0, 2), 3)),
}

_TREFOIL_RELATIONS = (
    (0, "~*", 3, 1),
    (1, "R3", 0, 2),
    (2, "~*", 1, 0),
    (3, "R4", 0, 2),
)

# Converted and self-closed arc fixtures: (generators, relations in order).
_ARC_PRESENTATIONS = {
    "rna_K1_ex74": (3, ((2, "R3", 0, 1), (0, "R4", 0, 1), (1, "~*", 2, 0))),
    "rna_K2_ex74": (3, ((2, "R3", 0, 1), (1, "R4", 0, 1), (0, "~*", 2, 1))),
}


def _monomial(profiles, x: int) -> tuple[int, ...]:
    r, c = profiles[x]
    return profile_exponents(ElementProfile(tuple(r), tuple(c)))


def _subset_poly(profiles, members) -> Polynomial:
    return Polynomial(STU_VARS, [(_monomial(profiles, m), 1) for m in members])


def _stqp_string(profiles) -> str:
    return _subset_poly(profiles, range(len(profiles))).render()


def _phi_string(profiles, images) -> str:
    return PolynomialMultiset(
        [(_subset_poly(profiles, members), mult) for members, mult in images]
    ).render()


def _profiles_json(profiles):
    return [[list(r), list(c)] for r, c in profiles]


def _colorings_json(colorings):
    return [list(c) for c in colorings]


def _stuquandle_fixture(fid: str, extra_subsets=()) -> Fixture:
    profiles = _PROFILES[fid]
    expected = {
        "profiles": _profiles_json(profiles),
        "stqp": _stqp_string(profiles),
    }
    for members in extra_subsets:
        key = "sstqp:" + ",".join(str(m) for m in members)
        expected[key] = _subset_poly(profiles, members).render()
    return Fixture(fid, "stuquandle", _STUQUANDLES[fid], expected)


def _diagram_expected(fid: str) -> dict:
    expected: dict = {}
    for (did, target), colorings in _COLORINGS.items():
        if did != fid:
            continue
        expected[f"colorings:{target}"] = _colorings_json(colorings)
        expected[f"counting:{target}"] = len(colorings)
        expected[f"phi:{target}"] = _phi_string(_PROFILES[target], _IMAGES[(did, target)])
    return expected


def _presentation_fixture(fid: str) -> Fixture:
    diagram = _DIAGRAMS[fid]
    pres = compile_diagram(diagram, name=fid)
    expected = _diagram_expected(fid)
    if fid == "trefoil_2_1_k_minus":
        expected["relations"] = sorted(list(r) for r in _TREFOIL_RELATIONS)
    payload = {"presentation": pres, "diagram": diagram}
    return Fixture(fid, "presentation", payload, expected)


def _arc_fixture(fid: str) -> Fixture:
    generators, relations = _ARC_PRESENTATIONS[fid]
    expected = _diagram_expected(fid)
    expected["presentation"] = {"generators": generators, "relations": [
        {"out": out, "op": op, "lhs": lhs, "rhs": rhs} for out, op, lhs, rhs in relations
    ]}
    return Fixture(fid, "arc_diagram", _ARC_DIAGRAMS[fid], expected)


def _build_catalog() -> dict[str, Fixture]:
    fixtures = [
        _stuquandle_fixture("X1_ex63", extra_subsets=((1, 3),)),
        _stuquandle_fixture("X2_ex63"),
        _stuquandle_fixture("X_ex71", extra_subsets=((0, 2),)),
        _stuquandle_fixture("X_ex72"),
        _stuquandle_fixture("X_ex74"),
        _presentation_fixture("unknot"),
        _presentation_fixture("infinity_0_1_k_plus"),
        _presentation_fixture("trefoil_2_1_k_minus"),
        _presentation_fixture("K1_ex72"),
        _presentation_fixture("K2_ex72"),
        _arc_fixture("rna_K1_ex74"),
        _arc_fixture("rna_K2_ex74"),
    ]
    return {fx.id: fx for fx in fixtures}


_CATALOG = _build_catalog()


def list_fixtures() -> list[str]:
    return list(_CATALOG)


def fixture(fixture_id: str) -> Fixture:
    try:
        return _CATALOG[fixture_id]
    except KeyError:
        raise UnknownFixture(fixture_id) from None


def _load_target(target: str, workdir: Path):
    """Round-trip a target structure through its file format."""
    path = workdir / f"{target}.json"
    if not path.exists():
        formats.save_document(
            path, formats.stuquandle_to_dict(fixture(target).payload, name=target)
        )
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
            check(key, _colorings_json(enumerate_colorings(pres, X)), want)
            phi = phi_invariant(pres, X)
            check(f"counting:{target}", phi.total(), fx.expected[f"counting:{target}"])
            check(f"phi:{target}", phi.render(), fx.expected[f"phi:{target}"])

    path = workdir / f"{fx.id}.json"
    if fx.kind == "stuquandle":
        formats.save_document(path, formats.stuquandle_to_dict(fx.payload, name=fx.id))
        X = formats.load_stuquandle(path)
        got_profiles = [
            [list(p.r), list(p.c)]
            for p in (element_profile(X, x) for x in range(X.n))
        ]
        check("profiles", got_profiles, fx.expected["profiles"])
        check("stqp", stuquandle_polynomial(X).render(), fx.expected["stqp"])
        for key, want in fx.expected.items():
            if key.startswith("sstqp:"):
                members = tuple(int(m) for m in key.split(":", 1)[1].split(","))
                got = substuquandle_polynomial(Subset(X, members)).render()
                check(key, got, want)
    elif fx.kind == "presentation":
        formats.save_document(
            path, formats.presentation_to_dict(fx.payload["presentation"])
        )
        pres = formats.load_presentation(path)
        compiled = compile_diagram(fx.payload["diagram"], name=fx.id)
        check("compile", compiled.relations, pres.relations)
        if "relations" in fx.expected:
            got = sorted([r.out, r.op, r.lhs, r.rhs] for r in pres.relations)
            check("relations", got, fx.expected["relations"])
        check_targets(pres)
    elif fx.kind == "arc_diagram":
        formats.save_document(path, formats.arc_diagram_to_dict(fx.payload))
        arc = formats.load_arc_diagram(path)
        pres = compile_diagram(self_closure(to_crossing_diagram(arc)))
        check("presentation", formats.presentation_to_dict(pres),
              fx.expected["presentation"])
        check_targets(pres)
    else:
        raise ValueError(f"unknown fixture kind {fx.kind!r}")
    return results


def run_golden_sweep(workdir) -> list[tuple[str, str, bool, str]]:
    """Verify every fixture; returns (fixture id, check, passed, detail)."""
    rows = []
    for fid in list_fixtures():
        for name, ok, detail in verify_fixture(fixture(fid), workdir):
            rows.append((fid, name, ok, detail))
    return rows
