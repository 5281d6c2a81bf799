import time
import tracemalloc
from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stuquandle import (
    OPS,
    Classical,
    CrossingDiagram,
    PolynomialMultiset,
    Presentation,
    Relation,
    Stuck,
    Subset,
    add_kink,
    affine_stuquandle,
    alexander_stuquandle,
    coloring_image,
    compare_invariants,
    compile_diagram,
    counting_invariant,
    enumerate_colorings,
    phi_invariant,
    substuquandle_closure,
    substuquandle_polynomial,
    build_stuquandle,
)
from stuquandle import presentation
from stuquandle.catalog import fixture, list_fixtures
from stuquandle.rna import self_closure, to_crossing_diagram

import oracles

X71 = fixture("X_ex71").payload
X72 = fixture("X_ex72").payload
X74 = fixture("X_ex74").payload
ONE = build_stuquandle(1, [[0]], [[0]], [[0]], [[0]], [[0]])

STUQUANDLE_IDS = ("X1_ex63", "X2_ex63", "X_ex71", "X_ex72", "X_ex74")


def catalog_presentations():
    out = []
    for fid in list_fixtures():
        fx = fixture(fid)
        if fx.kind == "presentation":
            out.append((fid, fx.payload["presentation"]))
        elif fx.kind == "arc_diagram":
            closed = self_closure(to_crossing_diagram(fx.payload))
            out.append((fid, compile_diagram(closed, name=fid)))
    return out


def catalog_diagrams():
    out = []
    for fid in list_fixtures():
        fx = fixture(fid)
        if fx.kind == "presentation":
            out.append((fid, fx.payload["diagram"]))
        elif fx.kind == "arc_diagram":
            out.append((fid, self_closure(to_crossing_diagram(fx.payload))))
    return out


def test_compile_classical_rules():
    pos = compile_diagram(CrossingDiagram(3, (Classical(1, over=0, under_in=1, under_out=2),)))
    assert pos.relations == (Relation(2, "*", 1, 0),)
    neg = compile_diagram(CrossingDiagram(3, (Classical(-1, over=0, under_in=1, under_out=2),)))
    assert neg.relations == (Relation(2, "~*", 1, 0),)


def test_compile_stuck_rules():
    pos = compile_diagram(CrossingDiagram(4, (Stuck(1, 0, 1, 2, 3),)))
    assert pos.relations == (Relation(2, "R1", 0, 1), Relation(3, "R2", 0, 1))
    neg = compile_diagram(CrossingDiagram(4, (Stuck(-1, 0, 1, 2, 3),)))
    assert neg.relations == (Relation(2, "R3", 0, 1), Relation(3, "R4", 0, 1))


def test_compile_kink_relation():
    d = CrossingDiagram(2, (Classical(1, over=0, under_in=0, under_out=1),))
    assert compile_diagram(d).relations == (Relation(1, "*", 0, 0),)


def test_reference_trefoil_relations():
    pres = fixture("trefoil_2_1_k_minus").payload["presentation"]
    assert set(pres.relations) == {
        Relation(0, "~*", 3, 1),
        Relation(1, "R3", 0, 2),
        Relation(2, "~*", 1, 0),
        Relation(3, "R4", 0, 2),
    }


def test_presentation_text_form():
    pres = fixture("trefoil_2_1_k_minus").payload["presentation"]
    lines = pres.to_text().splitlines()
    assert "a = d ~* b" in lines
    assert "b = R3(a, c)" in lines
    assert "c = b ~* a" in lines
    assert "d = R4(a, c)" in lines


def test_empty_diagram_is_unknot():
    pres = compile_diagram(CrossingDiagram(1))
    assert pres.generator_count == 1
    assert pres.relations == ()
    assert enumerate_colorings(pres, X71) == [(0,), (1,), (2,), (3,)]


def test_reference_coloring_sets():
    inf = fixture("infinity_0_1_k_plus").payload["presentation"]
    assert enumerate_colorings(inf, X71) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    tre = fixture("trefoil_2_1_k_minus").payload["presentation"]
    assert enumerate_colorings(tre, X71) == [
        (0, 0, 0, 0), (1, 3, 3, 1), (2, 2, 2, 2), (3, 1, 1, 3),
    ]


def test_enumeration_matches_sweep_oracle():
    for fid, pres in catalog_presentations():
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            got = enumerate_colorings(pres, X)
            assert got == sorted(oracles.sweep_colorings(pres, X)), (fid, sid)


def test_enumeration_is_lexicographic():
    for fid, pres in catalog_presentations():
        got = enumerate_colorings(pres, X74)
        assert got == sorted(got)


def test_colorings_satisfy_relations():
    for fid, pres in catalog_presentations():
        ops = X72.operations()
        for c in enumerate_colorings(pres, X72):
            for rel in pres.relations:
                assert c[rel.out] == ops[rel.op][c[rel.lhs]][c[rel.rhs]]


def test_one_element_target_has_one_coloring():
    for fid, pres in catalog_presentations():
        assert enumerate_colorings(pres, ONE) == [(0,) * pres.generator_count]
        assert counting_invariant(pres, ONE) == 1


def test_reference_counting_values():
    assert counting_invariant(fixture("infinity_0_1_k_plus").payload["presentation"], X71) == 4
    assert counting_invariant(fixture("trefoil_2_1_k_minus").payload["presentation"], X71) == 4
    assert counting_invariant(fixture("K1_ex72").payload["presentation"], X72) == 4
    assert counting_invariant(fixture("K2_ex72").payload["presentation"], X72) == 4


def test_coloring_image_closes_generator_values():
    k1 = fixture("K1_ex72").payload["presentation"]
    assert coloring_image((1, 0, 1, 0), X72).members == (0, 1, 2)
    assert coloring_image((0, 0, 0, 0), X72).members == (0,)
    for x in range(X71.n):
        mono = coloring_image((x, x), X71)
        assert mono.members == substuquandle_closure(Subset(X71, (x,))).members


def test_images_are_substuquandles():
    for fid, pres in catalog_presentations():
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            for c in enumerate_colorings(pres, X):
                image = coloring_image(c, X)
                assert oracles.is_closed(X, image.members)


def test_phi_total_equals_counting():
    for fid, pres in catalog_presentations():
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            assert phi_invariant(pres, X).total() == counting_invariant(pres, X)


@st.composite
def _small_presentations(draw, max_generators=4):
    g = draw(st.integers(1, max_generators))
    index = st.integers(0, g - 1)
    rels = draw(st.lists(st.tuples(index, st.sampled_from(OPS), index, index), max_size=5))
    return Presentation(g, tuple(Relation(*r) for r in rels))


@settings(max_examples=200, deadline=None)
@given(_small_presentations(), st.sampled_from(STUQUANDLE_IDS), st.data())
def test_enumeration_matches_sweep_in_order(pres, sid, data):
    """Compared as lists, so order counts.  The relabelled copy gives the
    preimage lists of non-bijective R-tables a non-identity labelling."""
    X = fixture(sid).payload
    sigma = data.draw(st.permutations(range(X.n)))
    for Y in (X, X.relabel(sigma)):
        assert enumerate_colorings(pres, Y) == oracles.sweep_colorings(pres, Y)


def test_deep_propagation_chain():
    """g_i = g_{i+1} ~* g_0: once g_0 is chosen, each g_{i+1} is fixed only
    through the preimage list of its relation's left operand, 2999 steps
    deep."""
    g = 3000
    pres = Presentation(g, tuple(Relation(i, "~*", i + 1, 0) for i in range(g - 1)))
    start = time.perf_counter()
    got = enumerate_colorings(pres, X71)
    assert time.perf_counter() - start < 1.0
    assert got == [(v,) * g for v in range(4)]


@st.composite
def _linear_targets(draw, max_n):
    """An affine or Alexander stuquandle on Z_n, n <= max_n: the shift
    x -> x+1 is an automorphism of each."""
    n = draw(st.integers(1, max_n))
    unit = st.sampled_from([u for u in range(n) if gcd(u, n) == 1])
    if draw(st.booleans()):
        return affine_stuquandle(n, draw(unit), *draw(st.lists(st.integers(0, n - 1),
                                                               min_size=2, max_size=2)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=7, max_size=7))
    return alexander_stuquandle(n, draw(unit), *coeffs)


_FIXTURE_TARGETS = st.sampled_from(STUQUANDLE_IDS).map(lambda sid: fixture(sid).payload)


@settings(max_examples=150, deadline=None)
@given(_small_presentations(), st.one_of(_FIXTURE_TARGETS, _linear_targets(6)))
def test_phi_matches_per_coloring_oracle(pres, X):
    """phi, one image polynomial per coloring, rebuilt from the sweep,
    closure and profile oracles; a polynomial is compared as its
    {exponents: coefficient} terms."""
    want = Counter()
    for coloring in oracles.sweep_colorings(pres, X):
        terms = Counter()
        for x in oracles.closure_by_iteration(X, coloring):
            r, c = oracles.count_profile(X, x)
            terms[tuple(v for pair in zip(r, c) for v in pair)] += 1
        want[frozenset(terms.items())] += 1
    phi = phi_invariant(pres, X)
    assert {frozenset(p.terms.items()): k for p, k in phi.entries.items()} == want


@settings(max_examples=100, deadline=None)
@given(_small_presentations(), st.sampled_from(STUQUANDLE_IDS), st.data())
def test_phi_is_relabeling_invariant(pres, sid, data):
    X = fixture(sid).payload
    sigma = data.draw(st.permutations(range(X.n)))
    assert phi_invariant(pres, X.relabel(sigma)) == phi_invariant(pres, X)


def test_shift_check_fires_on_linear_targets_only():
    """The rooted search runs on X1_ex63, X2_ex63 and affine targets on Z_n,
    and not on X_ex71, X_ex72, X_ex74 or an affine target relabelled by a
    transposition, whose phi and count are still those of the original."""
    for sid in ("X1_ex63", "X2_ex63"):
        assert presentation._shift_roots(fixture(sid).payload) == ((0,), 4)
    for n in range(1, 17):
        for a in (u for u in range(n) if gcd(u, n) == 1):
            X = affine_stuquandle(n, a, 2 * a + 1, a + 3)
            assert presentation._shift_roots(X) == ((0,), n)
    for X in (X71, X72, X74):
        assert presentation._shift_roots(X) == (None, 1)
    X = affine_stuquandle(8, 3, 5, 7)
    Y = X.relabel((1, 0, *range(2, 8)))
    assert presentation._shift_roots(Y) == (None, 1)
    for fid, pres in catalog_presentations():
        assert phi_invariant(pres, Y) == phi_invariant(pres, X), fid
        assert counting_invariant(pres, Y) == counting_invariant(pres, X), fid


def test_phi_searches_one_coloring_per_shift_orbit(monkeypatch):
    """Over affine Z_8, phi and the count see 1/8 of the colorings they
    count, each with generator 0 = 0."""
    searched = []
    colorings = presentation._colorings

    def recorded(*args):
        for c in colorings(*args):
            searched.append(c)
            yield c

    monkeypatch.setattr(presentation, "_colorings", recorded)
    X = affine_stuquandle(8, 3, 5, 7)
    free = Presentation(3)
    assert phi_invariant(free, X).total() == 8 * len(searched) == 8**3
    assert {c[0] for c in searched} == {0}
    searched.clear()
    assert counting_invariant(free, X) == 8 * len(searched) == 8**3


_EVERY_OP = Presentation(4, tuple(Relation((i + 1) % 4, op, i % 4, (i + 2) % 4)
                                  for i, op in enumerate(OPS)))


@settings(max_examples=100, deadline=None)
@given(_small_presentations(max_generators=3),
       st.one_of(st.sampled_from(("X1_ex63", "X2_ex63")).map(lambda sid: fixture(sid).payload),
                 _linear_targets(16)))
@example(Presentation(3), affine_stuquandle(16, 3, 5, 7))  # no relations
@example(Presentation(3, (Relation(2, "R1", 1, 2),)), fixture("X2_ex63").payload)  # 0 free
@example(_EVERY_OP, affine_stuquandle(16, 3, 5, 7))
@example(_EVERY_OP, fixture("X1_ex63").payload)
def test_rooted_search_matches_plain_search(pres, X):
    """phi and the count, searched from generator 0 = 0 and weighted by n,
    equal phi and the count of the plain search over every root."""
    assert presentation._shift_roots(X) == ((0,), X.n)
    value_sets = Counter(map(frozenset, presentation._colorings(pres, X, range(X.n))))
    plain = PolynomialMultiset((substuquandle_polynomial(coloring_image(values, X)), k)
                               for values, k in value_sets.items())
    assert phi_invariant(pres, X) == plain
    assert counting_invariant(pres, X) == plain.total()


def test_phi_reference_render():
    inf = fixture("infinity_0_1_k_plus").payload["presentation"]
    assert phi_invariant(inf, X71).render() == (
        "2*u^{2*s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}"
        " + 2*u^{s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}"
    )


def test_phi_streams_the_colorings():
    # 4**8 = 65,536 colorings: a list of them takes about 8 MB, and phi
    # keeps only the distinct value sets
    free = Presentation(8)
    tracemalloc.start()
    try:
        phi = phi_invariant(free, X74)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.total() == 4**8
    assert peak < 1_000_000


def test_phi_of_one_element_target():
    pres = fixture("trefoil_2_1_k_minus").payload["presentation"]
    phi = phi_invariant(pres, ONE)
    assert phi.total() == 1
    assert len(phi) == 1


def test_kinked_unknot_counts_carrier():
    base = CrossingDiagram(1)
    for sign in (1, -1):
        kinked = compile_diagram(add_kink(base, 0, sign))
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            assert counting_invariant(kinked, X) == X.n


def test_kink_preserves_invariants_on_trefoil():
    diagram = fixture("trefoil_2_1_k_minus").payload["diagram"]
    pres = compile_diagram(diagram)
    base_phi = phi_invariant(pres, X71)
    for arc in range(diagram.arc_count):
        for sign in (1, -1):
            kinked = compile_diagram(add_kink(diagram, arc, sign))
            assert counting_invariant(kinked, X71) == base_phi.total()
            assert phi_invariant(kinked, X71) == base_phi


def test_double_kink_opposite_signs():
    diagram = fixture("infinity_0_1_k_plus").payload["diagram"]
    twice = add_kink(add_kink(diagram, 0, 1), 0, -1)
    assert phi_invariant(compile_diagram(twice), X71) == \
        phi_invariant(compile_diagram(diagram), X71)


def test_add_kink_index_check():
    with pytest.raises(ValueError, match="arc index 1 outside 0..0"):
        add_kink(CrossingDiagram(1), 1, 1)
    with pytest.raises(ValueError):
        add_kink(CrossingDiagram(1), 0, 2)


def test_diagram_and_relation_index_checks():
    with pytest.raises(ValueError, match="arc index 2 outside 0..1"):
        CrossingDiagram(2, (Classical(1, over=2, under_in=0, under_out=1),))
    with pytest.raises(ValueError, match="generator index 2 outside 0..1"):
        Presentation(2, (Relation(0, "*", 1, 2),))
    with pytest.raises(ValueError, match="unknown operation 'bogus'"):
        Presentation(1, (Relation(0, "bogus", 0, 0),))


def test_compare_distinguishes_reference_pair():
    k1 = fixture("K1_ex72").payload["presentation"]
    k2 = fixture("K2_ex72").payload["presentation"]
    report = compare_invariants(k1, k2, X72)
    assert report["left"]["counting"] == report["right"]["counting"] == 4
    assert report["verdict"] == "DISTINGUISHED"


def test_compare_is_inconclusive_on_equal_input():
    k1 = fixture("K1_ex72").payload["presentation"]
    assert compare_invariants(k1, k1, X72)["verdict"] == "INCONCLUSIVE"


def test_compare_distinguishes_foldings():
    pres = dict(catalog_presentations())
    report = compare_invariants(pres["rna_K1_ex74"], pres["rna_K2_ex74"], X74)
    assert report["left"]["counting"] == report["right"]["counting"] == 4
    assert report["verdict"] == "DISTINGUISHED"
