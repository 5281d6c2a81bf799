import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stuquandle import (
    AxiomViolation,
    NotClosed,
    Polynomial,
    PolynomialMultiset,
    QP_VARS,
    STU_VARS,
    Subset,
    parse_polynomial,
    quandle_polynomial,
    stuquandle_polynomial,
    substuquandle_polynomial,
    build_stuquandle,
    table_from,
)
from stuquandle.catalog import fixture

import oracles

X1 = fixture("X1_ex63").payload
X2 = fixture("X2_ex63").payload
X71 = fixture("X_ex71").payload
X72 = fixture("X_ex72").payload
X74 = fixture("X_ex74").payload
ALL = (X1, X2, X71, X72, X74)

ONE = build_stuquandle(1, [[0]], [[0]], [[0]], [[0]], [[0]])


def _combination(*scaled):
    """Polynomial(STU_VARS, ...) over the merged terms of k*p for each (k, p)."""
    return Polynomial(STU_VARS, [(e, k * c) for k, p in scaled for e, c in p.terms.items()])


def test_profile_reference_values():
    p = X71.profiles[0]
    assert p[0::2] == (2, 2, 1, 4, 1)
    assert p[1::2] == (2, 4, 1, 2, 1)
    p = X72.profiles[1]
    assert p[0::2] == (3, 0, 0, 3, 1)
    assert p[1::2] == (3, 1, 2, 2, 1)
    p = ONE.profiles[0]
    assert p[0::2] == (1, 1, 1, 1, 1)
    assert p[1::2] == (1, 1, 1, 1, 1)


def test_profiles_match_table_counts():
    for X in ALL:
        for x in range(X.n):
            p = X.profiles[x]
            assert (p[0::2], p[1::2]) == oracles.count_profile(X, x)


def test_profile_exponent_interleaving():
    assert X71.profiles[0] == (2, 2, 2, 4, 1, 1, 4, 2, 1, 1)


def test_stqp_reference_renders():
    assert stuquandle_polynomial(X1).render() == \
        "4*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5"
    assert stuquandle_polynomial(X2).render() == \
        "4*s1^4*t1^4*s2*t2*s3^4*t3^4*s4*t4*s5^4*t5^4"
    assert stuquandle_polynomial(ONE).render() == "s1*t1*s2*t2*s3*t3*s4*t4*s5*t5"


def test_sstqp_reference_values():
    assert substuquandle_polynomial(Subset(X1, (1, 3))).render() == \
        "2*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5"
    assert substuquandle_polynomial(Subset(X71, (0, 2))).render() == \
        "2*s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5"


def test_sstqp_of_full_carrier_is_stqp():
    for X in ALL:
        full = Subset(X, tuple(range(X.n)))
        assert substuquandle_polynomial(full) == stuquandle_polynomial(X)


def test_sstqp_rejects_open_subsets():
    with pytest.raises(NotClosed):
        substuquandle_polynomial(Subset(X71, (1,)))


def test_sstqp_uses_ambient_counts():
    # a singleton's exponents come from the whole carrier, not the subset
    poly = substuquandle_polynomial(Subset(X71, (0,)))
    assert poly.render() == "s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5"


def test_partition_into_substuquandles_sums_to_stqp():
    a = substuquandle_polynomial(Subset(X1, (0, 2)))
    b = substuquandle_polynomial(Subset(X1, (1, 3)))
    assert _combination((1, a), (1, b)) == stuquandle_polynomial(X1)
    singletons = [substuquandle_polynomial(Subset(X2, (x,))) for x in range(X2.n)]
    assert _combination(*((1, s) for s in singletons)) == stuquandle_polynomial(X2)


def test_quandle_polynomial_values():
    trivial = table_from(3, lambda x, y: x)
    assert quandle_polynomial(trivial).render() == "3*s^3*t^3"
    dihedral = table_from(3, lambda x, y: 2 * y - x)
    assert quandle_polynomial(dihedral).render() == "3*s*t"
    assert quandle_polynomial([[0]]).render() == "s*t"


def test_quandle_polynomial_rejects_non_quandles():
    with pytest.raises(AxiomViolation):
        quandle_polynomial(table_from(3, lambda x, y: x + 1))


def test_render_zero_and_ring_identities():
    zero = Polynomial(STU_VARS)
    assert zero.render() == "0"
    p = stuquandle_polynomial(X1)
    q = stuquandle_polynomial(X71)
    # the constructor cancels: p + q - q == p and p - p == 0
    assert _combination((1, p), (1, q), (-1, q)).render() == p.render()
    assert _combination((1, p), (-1, p)).render() == "0"


def test_render_coefficient_rules():
    p = Polynomial(("s", "t"), [((1, 0), 1), ((0, 2), -3), ((0, 0), 5)])
    assert p.render() == "s - 3*t^2 + 5"


def test_render_parse_round_trip():
    polys = [
        Polynomial(STU_VARS),
        stuquandle_polynomial(X1),
        stuquandle_polynomial(X72),
        _combination((1, stuquandle_polynomial(X1)), (-2, stuquandle_polynomial(X74))),
        Polynomial(STU_VARS, [((0,) * 10, 7)]),
    ]
    for p in polys:
        assert parse_polynomial(p.render()) == p
    qp = quandle_polynomial(table_from(3, lambda x, y: 2 * y - x))
    assert parse_polynomial(qp.render(), QP_VARS) == qp


@pytest.mark.parametrize("text", [
    "s1 s2", "2*s1 + + 3", "s1 +", "+ s1", "- - s1", "s1 + -t1", "", "s1 * t1",
])
def test_parse_rejects_text_render_never_writes(text):
    # signs and terms alternate as render writes them: "0", or a first term
    # with an optional leading "-", then "+ term" / "- term" pairs
    with pytest.raises(ValueError):
        parse_polynomial(text)


@st.composite
def _random_polynomials(draw):
    variables = draw(st.sampled_from((STU_VARS, QP_VARS)))
    exps = st.tuples(*[st.integers(0, 5)] * len(variables))
    terms = draw(st.lists(st.tuples(exps, st.integers(-6, 6)), max_size=6))
    return Polynomial(variables, terms)


@settings(max_examples=300, deadline=None)
@given(_random_polynomials())
def test_render_parse_round_trip_property(p):
    """Zero coefficients and cancelling terms are allowed, so the zero
    polynomial is among the inputs."""
    assert parse_polynomial(p.render(), p.variables) == p


def test_render_is_injective_on_samples():
    seen = {}
    rng = random.Random(7)
    for _ in range(200):
        exps = tuple(rng.randrange(4) for _ in range(10))
        coeff = rng.choice((-2, -1, 1, 2, 3))
        p = Polynomial(STU_VARS, [(exps, coeff)])
        text = p.render()
        assert seen.setdefault(text, p) == p


def test_evaluation_at_ones_counts_elements():
    for X in ALL:
        assert sum(stuquandle_polynomial(X).terms.values()) == X.n


def test_monomial_exponent_bounds():
    for X in ALL:
        for exps in stuquandle_polynomial(X).terms:
            assert exps[0] >= 1 and exps[1] >= 1  # idempotency floor
            assert all(e <= X.n for e in exps)
    with pytest.raises(ValueError, match="exponents must be non-negative"):
        Polynomial(QP_VARS, [((1, -1), 1)])


def test_relabel_invariance_of_stqp():
    rng = random.Random(11)
    for X in ALL:
        base = stuquandle_polynomial(X).render()
        for _ in range(5):
            sigma = list(range(X.n))
            rng.shuffle(sigma)
            assert stuquandle_polynomial(X.relabel(sigma)).render() == base


def test_multiset_rendering():
    p = substuquandle_polynomial(Subset(X71, (0,)))
    single = PolynomialMultiset([(p, 1)])
    assert single.render() == \
        "1*u^{s1^2*t1^2*s2^2*t2^4*s3*t3*s4^4*t4^2*s5*t5}"
    assert PolynomialMultiset().render() == "0"
    double = PolynomialMultiset([(p, 1), (p, 1)])
    assert double == PolynomialMultiset([(p, 2)])
    assert double.total() == 2
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        PolynomialMultiset([(p, 0)])


def test_multiset_order_is_by_exponent_string():
    p = substuquandle_polynomial(Subset(X71, (0,)))
    m = PolynomialMultiset([(p, 2), (_combination((2, p)), 2)])
    text = m.render()
    assert text.index("2*u^{2*s1^2") < text.index("2*u^{s1^2")


def test_polynomials_require_matching_variables():
    with pytest.raises(ValueError):
        Polynomial(QP_VARS, [((1, 2, 3), 1)])
