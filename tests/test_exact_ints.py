"""Every constructor that owns integer values rejects floats, bools and
strings with ValueError: no truncation, coercion or bool-as-int."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stuquandle import (
    QP_VARS,
    ArcDiagram,
    Classical,
    CrossingDiagram,
    Polynomial,
    PolynomialMultiset,
    Presentation,
    Relation,
    Stripe,
    Stuck,
    Subset,
    affine_stuquandle,
    alexander_stuquandle,
    build_stuquandle,
)
from stuquandle.rna import StrandCrossing
from stuquandle.catalog import fixture

X1 = fixture("X1_ex63").payload
ONE = [[0]]
FIRST, SECOND = [[0, 0], [1, 1]], [[0, 1], [0, 1]]  # x * y = x, x * y = y
P = Polynomial(QP_VARS, [((1, 1), 1)])

# each builds a valid value when v is 1
CONSTRUCTORS = {
    "size": lambda v: build_stuquandle(v, ONE, ONE, ONE, ONE, ONE),
    "star entry": lambda v: build_stuquandle(2, [[0, 0], [v, 1]], FIRST, SECOND, FIRST, SECOND),
    "r4 entry": lambda v: build_stuquandle(2, FIRST, FIRST, SECOND, FIRST, [[0, 1], [0, v]]),
    "subset element": lambda v: Subset(X1, (0, v)),
    "affine modulus": lambda v: affine_stuquandle(v, 3, 1, 1),
    "affine unit": lambda v: affine_stuquandle(4, v, 1, 1),
    "alexander weight": lambda v: alexander_stuquandle(4, 3, 1, v, 0, 0, 0, 0, 0),
    "exponent": lambda v: Polynomial(QP_VARS, [((1, 0), 1), ((1, v), 2)]),
    "coefficient": lambda v: Polynomial(QP_VARS, [((1, 0), v)]),
    "multiplicity": lambda v: PolynomialMultiset([(P, 1), (P, v)]),
    "generator count": lambda v: Presentation(v),
    "relation index": lambda v: Presentation(2, (Relation(0, "*", 0, 1), Relation(0, "*", v, 1))),
    "arc count": lambda v: CrossingDiagram(v),
    "classical sign": lambda v: CrossingDiagram(3, (Classical(v, 0, 1, 2),)),
    "stuck arc": lambda v: CrossingDiagram(4, (Stuck(1, 0, 1, 2, 3), Stuck(1, 0, 1, 2, v))),
    "open end": lambda v: CrossingDiagram(2, (), ((0, 1), (v, 1))),
    "strand count": lambda v: ArcDiagram(v),
    "stripe position": lambda v: ArcDiagram(2, (Stripe(0, 1, v, 3, 1),)),
    "stripe sign": lambda v: ArcDiagram(2, (Stripe(0, 1, 2, 3, v),)),
    "crossing strand": lambda v: ArcDiagram(2, (), (StrandCrossing(0, 1, v, 3, 1),)),
}


@pytest.mark.parametrize("field", sorted(CONSTRUCTORS))
def test_constructors_accept_an_int(field):
    CONSTRUCTORS[field](1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONSTRUCTORS)),
       st.one_of(st.floats(), st.booleans(), st.text(max_size=3)))
def test_constructors_reject_non_ints(field, value):
    with pytest.raises(ValueError, match="is not an integer"):
        CONSTRUCTORS[field](value)
