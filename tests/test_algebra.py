import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stuquandle import (
    AxiomViolation,
    NonBijectiveColumn,
    NonUnit,
    Subset,
    affine_stuquandle,
    alexander_stuquandle,
    build_stuquandle,
    is_homomorphism,
    is_isomorphic,
    is_substuquandle,
    quandle_polynomial,
    substuquandle_closure,
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


def test_table_rejects_bad_shapes():
    ok = [[0, 1], [0, 1]]
    for bad in ([[0, 1], [0]], [[0, 2], [1, 0]], []):
        with pytest.raises(ValueError):
            build_stuquandle(2, bad, ok, ok, ok, ok)
        with pytest.raises(ValueError):
            quandle_polynomial(bad)


def test_one_element_structure_is_valid():
    X = build_stuquandle(1, [[0]], [[0]], [[0]], [[0]], [[0]])
    assert X.n == 1
    assert X.star[0][0] == 0


def test_non_bijective_column_reported():
    star = [[0, 0, 0], [1, 1, 1], [2, 2, 0]]  # column 2 repeats 0
    with pytest.raises(NonBijectiveColumn) as err:
        build_stuquandle(3, star, star, star, star, star)
    assert err.value.column == 2


def test_idempotency_violation_witness():
    shift = table_from(4, lambda x, y: x + 1)  # bijective columns, x*x != x
    other = table_from(4, lambda x, y: x)
    with pytest.raises(AxiomViolation) as err:
        build_stuquandle(4, shift, other, other, other, other)
    assert err.value.axiom == "quandle-iii"
    assert err.value.witness == (0,)


def test_stuck_axiom_violation_detected():
    # valid quandle part, but R4(x,y)=y breaks the R3/R4 compatibility
    with pytest.raises(AxiomViolation) as err:
        build_stuquandle(
            4,
            table_from(4, lambda x, y: x),
            table_from(4, lambda x, y: 3 * x + y),
            table_from(4, lambda x, y: x + 3 * y),
            table_from(4, lambda x, y: x + 2 * y),
            table_from(4, lambda x, y: y),
        )
    assert err.value.axiom.startswith("eq")
    assert len(err.value.witness) in (2, 3)


@pytest.mark.parametrize("X", ALL, ids=lambda X: f"n{X.n}")
def test_star_inv_round_trips(X):
    for x, y in itertools.product(range(X.n), repeat=2):
        assert X.star_inv[X.star[x][y]][y] == x
        assert X.star[X.star_inv[x][y]][y] == x


def test_derived_inverse_consequence_of_eq4():
    # R2(x,y) = R1(y, x*y) must hold on every validated structure
    for X in ALL:
        for x, y in itertools.product(range(X.n), repeat=2):
            assert X.r2[x][y] == X.r1[y][X.star[x][y]]


def test_affine_reproduces_reference_tables():
    X = affine_stuquandle(4, 3, 2, 2)
    assert X == X1
    assert X.star == ((0, 2, 0, 2), (3, 1, 3, 1), (2, 0, 2, 0), (1, 3, 1, 3))
    assert X.r1 == ((0, 3, 2, 1), (2, 1, 0, 3), (0, 3, 2, 1), (2, 1, 0, 3))
    assert X.r2 == ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))
    assert X.r3 == X.star
    assert X.r4 == ((0, 1, 2, 3),) * 4


def test_affine_with_identity_action():
    X = affine_stuquandle(5, 1, 0, 0)
    for x, y in itertools.product(range(5), repeat=2):
        assert X.star[x][y] == x
        assert X.r1[x][y] == y
        assert X.r2[x][y] == x
        assert X.r3[x][y] == x
        assert X.r4[x][y] == y


def test_affine_rejects_non_unit():
    with pytest.raises(NonUnit) as err:
        affine_stuquandle(4, 2, 0, 0)
    assert err.value.value == 2


def test_alexander_specializes_to_affine():
    X = alexander_stuquandle(4, 3, 0, 2, 0, 0, 2, 0, 0)
    assert X == affine_stuquandle(4, 3, 2, 2)


def test_alexander_weights():
    w = (1 * 2 + 1 * 3 + 1 * 2 * 3) % 5
    assert alexander_stuquandle(5, 2, 3, 1, 1, 1, 1, 1, 1) == affine_stuquandle(5, 2, w, w)


def test_alexander_trivial_parameters():
    X = alexander_stuquandle(3, 1, 0, 0, 0, 0, 0, 0, 0)
    assert X.n == 3


def test_alexander_rejects_non_unit():
    with pytest.raises(NonUnit):
        alexander_stuquandle(6, 2, 0, 0, 0, 0, 0, 0, 0)


def test_substuquandle_membership():
    assert is_substuquandle(Subset(X1, (1, 3)))
    assert is_substuquandle(Subset(X71, tuple(range(4))))
    # R3(1,1) = 3 escapes {1}
    assert X71.r3[1][1] == 3
    assert not is_substuquandle(Subset(X71, (1,)))


def test_closure_is_idempotent_on_closed_sets():
    s = Subset(X1, (1, 3))
    assert substuquandle_closure(s).members == (1, 3)


def test_closure_grows_to_fixpoint():
    got = substuquandle_closure(Subset(X71, (1,)))
    assert 3 in got.members
    assert got.members == oracles.closure_by_iteration(X71, (1,))
    assert is_substuquandle(got)


def test_closure_of_fixed_point():
    assert substuquandle_closure(Subset(X74, (0,))).members == (0,)


def test_closure_always_closed():
    for X in ALL:
        for x in range(X.n):
            got = substuquandle_closure(Subset(X, (x,)))
            assert is_substuquandle(got)
            assert got.members == oracles.closure_by_iteration(X, (x,))


def test_identity_is_homomorphism():
    for X in ALL:
        assert is_homomorphism(range(X.n), X, X)


def test_constant_map_to_fixed_point():
    # every operation of X74 fixes 0, so the constant map is an endomorphism
    assert is_homomorphism([0] * 4, X74, X74)


def test_perturbed_identity_is_not_homomorphism():
    f = [0, 1, 2, 3]
    f[3] = 0
    assert not is_homomorphism(f, X1, X1)


def test_isomorphic_to_itself():
    for X in ALL:
        witness = is_isomorphic(X, X)
        assert witness is not None
        assert is_homomorphism(witness, X, X)


def test_reference_pair_not_isomorphic():
    assert is_isomorphic(X1, X2) is None


def test_isomorphic_to_relabeling():
    sigma = (2, 0, 3, 1)
    Y = X1.relabel(sigma)
    witness = is_isomorphic(X1, Y)
    assert witness is not None
    assert is_homomorphism(witness, X1, Y)
    inverse = [0] * len(witness)
    for x, y in enumerate(witness):
        inverse[y] = x
    assert is_homomorphism(inverse, Y, X1)


def test_size_mismatch_is_never_isomorphic():
    assert is_isomorphic(X72, X74) is None


def test_isomorphism_found_when_an_equation_has_the_largest_index():
    # R1..R4(0, 0) = 1: the identity map fails only equations whose result
    # index is larger than both arguments, so the search must check those
    # too and move on to the relabeling itself.
    T = ((1, 2, 1), (2, 2, 0), (1, 0, 1))
    X = build_stuquandle(3, ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
                         ((1, 2, 1), (1, 0, 2), (2, 1, 0)),
                         ((1, 1, 2), (2, 0, 1), (1, 2, 0)), T, T)
    assert is_isomorphic(X, X.relabel((0, 2, 1))) == (0, 2, 1)


@st.composite
def _trivial_star(draw, n):
    """x * y = x with random R1 and R3, R2(x, y) = R1(y, x) and
    R4(x, y) = R3(y, x): all thirteen axioms hold for any R1 and R3.
    R3 copies R1 in half the draws: two elements then share a profile far
    more often, so the search has more than one candidate to try."""
    cell = st.integers(0, n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    r1 = draw(table)
    r3 = r1 if draw(st.booleans()) else draw(table)
    star = [[x] * n for x in range(n)]
    r2 = [[r1[y][x] for y in range(n)] for x in range(n)]
    r4 = [[r3[y][x] for y in range(n)] for x in range(n)]
    return build_stuquandle(n, star, r1, r2, r3, r4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_isomorphism_matches_brute_force(data):
    n = data.draw(st.integers(1, 5))
    X = data.draw(_trivial_star(n))
    if data.draw(st.booleans()):
        Y = X.relabel(data.draw(st.permutations(range(n))))
    else:
        Y = data.draw(_trivial_star(n))
    assert is_isomorphic(X, Y) == oracles.first_isomorphism(X, Y)
    f = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    assert is_homomorphism(f, X, Y) == oracles.carries_tables(f, X, Y)


def test_affine_family_small_sweep():
    # quick version of the exhaustive acceptance sweep
    for n in range(2, 6):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            for b in range(n):
                for e in range(n):
                    affine_stuquandle(n, a, b, e)


def _linear(m, p, q):
    return [[(p * x + q * y) % m for y in range(m)] for x in range(m)]


@st.composite
def _affine_factor(draw, max_m):
    """Tables of an affine structure on Z_m, m <= max_m, or of a variant
    whose first failure lies further into the scan: * replaced by a random
    linear form, or R1 and R3 replaced by random linear forms with R2 and
    R4 rederived through eq4 and eq7."""
    m = draw(st.integers(1, max_m))
    a = draw(st.sampled_from([u for u in range(1, m + 1) if math.gcd(u % m, m) == 1]))
    b, e, p, q, p2, q2 = draw(st.tuples(*[st.integers(0, m - 1)] * 6))
    star = _linear(m, a, 1 - a)
    r1, r2 = _linear(m, b, 1 - b), _linear(m, a * (1 - b), 1 - a * (1 - b))
    r3, r4 = _linear(m, 1 - e, e), _linear(m, 1 - a * (1 - e), a * (1 - e))
    variant = draw(st.sampled_from(("affine", "star", "derived")))
    if variant == "star":
        star = _linear(m, p, q)
    elif variant == "derived":
        r1, r3 = _linear(m, p, q), _linear(m, p2, q2)
        r2 = [[r1[y][star[x][y]] for y in range(m)] for x in range(m)]
        r4 = [[r3[star[y][x]][x] for y in range(m)] for x in range(m)]
    return [star, r1, r2, r3, r4]


@st.composite
def _tables(draw):
    """Affine or product-of-affine tables with n <= 9, optionally with a few
    entries overwritten; overwrites favour R1..R4 so that some reach past
    the quandle checks."""
    if draw(st.booleans()):
        tables = draw(_affine_factor(9))
    else:
        left, right = draw(_affine_factor(3)), draw(_affine_factor(3))
        m = len(right[0])
        size = len(left[0]) * m
        tables = [
            [[lt[i // m][j // m] * m + rt[i % m][j % m] for j in range(size)]
             for i in range(size)]
            for lt, rt in zip(left, right)
        ]
    n = len(tables[0])
    edits = st.tuples(st.sampled_from((0, 1, 2, 3, 4, 1, 2, 3, 4)), st.integers(0, n - 1),
                      st.integers(0, n - 1), st.integers(0, n - 1))
    for k, x, y, v in draw(st.lists(edits, max_size=3)):
        tables[k][x][y] = v
    return n, tables


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_first_witness_matches_oracle(case):
    n, tables = case
    want = oracles.first_violation(n, *tables)
    try:
        build_stuquandle(n, *tables)
        got = None
    except NonBijectiveColumn as exc:
        got = ("column", (exc.column,))
    except AxiomViolation as exc:
        got = (exc.axiom, exc.witness)
    assert got == want
