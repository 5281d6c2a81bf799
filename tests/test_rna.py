import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stuquandle import (
    ArcDiagram,
    Classical,
    CrossingDiagram,
    StrandCrossing,
    Stripe,
    Stuck,
    arc_presentation,
    build_stuquandle,
    compile_diagram,
    enumerate_colorings,
    folding_invariant,
    phi_invariant,
    self_closure,
    to_crossing_diagram,
)
from stuquandle.catalog import fixture, list_fixtures
from stuquandle.presentation import Relation

import oracles

X74 = fixture("X_ex74").payload
ONE = build_stuquandle(1, [[0]], [[0]], [[0]], [[0]], [[0]])

RNA1 = fixture("rna_K1_ex74").payload
RNA2 = fixture("rna_K2_ex74").payload


def test_stripe_free_strand_is_single_arc():
    d = to_crossing_diagram(ArcDiagram(1))
    assert d.arc_count == 1
    assert d.crossings == ()
    assert d.open_ends == ((0, 0),)


def test_stripe_free_strand_closes_to_unknot():
    pres = compile_diagram(self_closure(to_crossing_diagram(ArcDiagram(1))))
    assert pres.generator_count == 1
    assert pres.relations == ()


def test_one_stuck_crossing_per_stripe():
    for arc in (RNA1, RNA2):
        d = to_crossing_diagram(arc)
        stuck = [c for c in d.crossings if isinstance(c, Stuck)]
        assert len(stuck) == len(arc.stripes)


def test_two_strand_single_stripe_closure():
    # both strands close to themselves: one arc each, one stuck crossing
    arc = ArcDiagram(2, (Stripe(0, 1, 10, 10, 1),))
    closed = self_closure(to_crossing_diagram(arc))
    assert closed.arc_count == 2
    assert closed.crossings == (Stuck(1, 0, 1, 0, 1),)


def test_closure_numbers_chained_ends_by_first_slot_use():
    # open ends chain 0-1-2 into one arc; arc 5, in no crossing, is numbered last
    d = CrossingDiagram(6, (Classical(1, over=3, under_in=4, under_out=1),
                            Stuck(-1, 2, 4, 3, 0)), ((0, 1), (1, 2)))
    assert self_closure(d) == CrossingDiagram(
        4, (Classical(1, 0, 1, 2), Stuck(-1, 2, 1, 0, 2)), ())


def test_malformed_stripes_rejected():
    with pytest.raises(ValueError, match="duplicate site at strand 0, position 10"):
        ArcDiagram(1, (Stripe(0, 0, 10, 10, 1),))
    with pytest.raises(ValueError, match="stripe references missing strand 1"):
        ArcDiagram(1, (Stripe(0, 1, 10, 20, 1),))
    with pytest.raises(ValueError, match="stripe sign must be [+]1 or -1, got 0"):
        ArcDiagram(1, (Stripe(0, 0, 10, 20, 0),))
    with pytest.raises(ValueError, match="duplicate site at strand 0, position 10"):
        ArcDiagram(
            1,
            (Stripe(0, 0, 10, 20, 1),),
            (StrandCrossing(0, 10, 0, 30, 1),),  # crossing on a bond site
        )


def test_double_closure_raises():
    closed = self_closure(to_crossing_diagram(RNA1))
    with pytest.raises(ValueError, match="no open strand ends to close"):
        self_closure(closed)


def test_folding_converter_reference_presentations():
    pres1 = compile_diagram(self_closure(to_crossing_diagram(RNA1)))
    assert pres1.generator_count == 3
    assert pres1.relations == (
        Relation(2, "R3", 0, 1),
        Relation(0, "R4", 0, 1),
        Relation(1, "~*", 2, 0),
    )
    pres2 = compile_diagram(self_closure(to_crossing_diagram(RNA2)))
    assert pres2.generator_count == 3
    assert pres2.relations == (
        Relation(2, "R3", 0, 1),
        Relation(1, "R4", 0, 1),
        Relation(0, "~*", 2, 1),
    )


def test_folding_reference_coloring_sets():
    pres1 = compile_diagram(self_closure(to_crossing_diagram(RNA1)))
    assert enumerate_colorings(pres1, X74) == [
        (0, 0, 0), (1, 3, 3), (2, 2, 2), (3, 1, 1),
    ]
    pres2 = compile_diagram(self_closure(to_crossing_diagram(RNA2)))
    assert enumerate_colorings(pres2, X74) == [
        (0, 0, 0), (0, 2, 0), (2, 0, 2), (2, 2, 2),
    ]


def test_folding_invariant_reports():
    phi1 = folding_invariant(RNA1, X74)
    phi2 = folding_invariant(RNA2, X74)
    assert phi1.total() == phi2.total() == 4
    assert phi1 == phi_invariant(arc_presentation(RNA1), X74)
    assert phi1 != phi2  # the enhancement separates the foldings


def test_folding_invariant_matches_sweep():
    import oracles
    for arc in (RNA1, RNA2):
        phi = folding_invariant(arc, X74)
        assert phi.total() == len(oracles.sweep_colorings(arc_presentation(arc), X74))


def test_stripe_free_with_one_element_target():
    assert folding_invariant(ArcDiagram(1), ONE).total() == 1


def test_folding_counting_for_stripe_free_strand():
    assert folding_invariant(ArcDiagram(1), X74).total() == X74.n


STUQUANDLE_IDS = tuple(fid for fid in list_fixtures() if fixture(fid).kind == "stuquandle")


@st.composite
def _arc_diagrams(draw, max_stripes=4, max_classicals=3):
    """1-3 strands; every stripe end and every crossing passage takes its
    own (strand, position) site."""
    strands = draw(st.integers(1, 3))
    n_stripes = draw(st.integers(0, max_stripes))
    n_classicals = draw(st.integers(0, max_classicals))
    site = st.tuples(st.integers(0, strands - 1), st.integers(0, 40))
    size = 2 * (n_stripes + n_classicals)
    sites = draw(st.lists(site, min_size=size, max_size=size, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=size // 2, max_size=size // 2))
    pairs = [sites[2 * i] + sites[2 * i + 1] for i in range(size // 2)]
    stripes = [Stripe(a, b, pa, pb, sign)
               for (a, pa, b, pb), sign in zip(pairs[:n_stripes], signs)]
    classicals = [StrandCrossing(*pair, sign)
                  for pair, sign in zip(pairs[n_stripes:], signs[n_stripes:])]
    return ArcDiagram(strands, tuple(stripes), tuple(classicals))


def _cuts_per_strand(arc):
    """Stripe ends and under-passages cut a strand; over-passages do not."""
    cuts = [0] * arc.strand_count
    for stripe in arc.stripes:
        cuts[stripe.strand_a] += 1
        cuts[stripe.strand_b] += 1
    for c in arc.classicals:
        cuts[c.under_strand] += 1
    return cuts


@settings(max_examples=200, deadline=None)
@given(_arc_diagrams())
def test_random_arc_diagram_conversion_and_closure(arc):
    d = to_crossing_diagram(arc)
    assert sum(isinstance(c, Stuck) for c in d.crossings) == len(arc.stripes)
    assert sum(isinstance(c, Classical) for c in d.crossings) == len(arc.classicals)
    assert d.arc_count == arc.strand_count + 2 * len(arc.stripes) + len(arc.classicals)

    closed = self_closure(d)
    assert closed.arc_count == sum(max(k, 1) for k in _cuts_per_strand(arc))
    first_use = list(dict.fromkeys(a for c in closed.crossings for a in c.arcs()))
    assert first_use == list(range(len(first_use)))
    assert len(compile_diagram(closed).relations) == \
        2 * len(arc.stripes) + len(arc.classicals)


@settings(max_examples=100, deadline=None)
@given(_arc_diagrams(max_stripes=2, max_classicals=2), st.sampled_from(STUQUANDLE_IDS))
def test_random_arc_diagram_colorings_match_sweep(arc, sid):
    pres = compile_diagram(self_closure(to_crossing_diagram(arc)))
    assume(pres.generator_count <= 6)
    X = fixture(sid).payload
    assert enumerate_colorings(pres, X) == oracles.sweep_colorings(pres, X)
