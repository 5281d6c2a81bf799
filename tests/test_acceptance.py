"""Acceptance suite: one test per criterion, every check exact.

Expected values are frozen reference data; multiset expectations are
rebuilt from the per-element exponent tuples below rather than trusting
any code path under test.
"""

import math
import random

from stuquandle import (
    Polynomial,
    PolynomialMultiset,
    STU_VARS,
    affine_stuquandle,
    add_kink,
    compile_diagram,
    coloring_image,
    counting_invariant,
    element_profile,
    enumerate_colorings,
    is_isomorphic,
    is_substuquandle,
    phi_invariant,
    stuquandle_polynomial,
    substuquandle_polynomial,
    Subset,
)
from stuquandle.catalog import fixture
from stuquandle.cli import main
from stuquandle.rna import self_closure, to_crossing_diagram

import oracles


def _report(num: int, text: str):
    print(f"criterion {num:2d}: PASS  {text}")


def _mono(exps) -> Polynomial:
    return Polynomial(STU_VARS, [(tuple(exps), 1)])


STUQUANDLE_IDS = ("X1_ex63", "X2_ex63", "X_ex71", "X_ex72", "X_ex74")

# Frozen per-element monomial exponents (s1,t1,...,s5,t5 order).
P71 = _mono((2, 2, 2, 4, 1, 1, 4, 2, 1, 1))  # elements 0 and 2
Q71 = _mono((2, 2, 2, 0, 1, 1, 0, 2, 1, 1))  # elements 1 and 3
A72 = _mono((3, 3, 1, 1, 3, 2, 3, 2, 2, 1))  # element 0
B72 = _mono((3, 3, 0, 1, 0, 2, 3, 2, 1, 1))  # element 1
C72 = _mono((3, 3, 2, 1, 3, 2, 0, 2, 0, 1))  # element 2
A74 = _mono((4, 4, 1, 2, 1, 4, 2, 4, 1, 1))  # element 0
B74 = _mono((4, 4, 1, 0, 1, 0, 2, 0, 1, 1))  # elements 1 and 3
C74 = _mono((4, 4, 1, 2, 1, 0, 2, 4, 1, 1))  # element 2

# Frozen profile tables: per element, (r counts, c counts).
PROFILES = {
    "X1_ex63": [((2, 1, 4, 2, 1), (2, 1, 4, 2, 1))] * 4,
    "X2_ex63": [((4, 1, 4, 1, 4), (4, 1, 4, 1, 4))] * 4,
    "X_ex71": [
        ((2, 2, 1, 4, 1), (2, 4, 1, 2, 1)),
        ((2, 2, 1, 0, 1), (2, 0, 1, 2, 1)),
        ((2, 2, 1, 4, 1), (2, 4, 1, 2, 1)),
        ((2, 2, 1, 0, 1), (2, 0, 1, 2, 1)),
    ],
    "X_ex72": [
        ((3, 1, 3, 3, 2), (3, 1, 2, 2, 1)),
        ((3, 0, 0, 3, 1), (3, 1, 2, 2, 1)),
        ((3, 2, 3, 0, 0), (3, 1, 2, 2, 1)),
    ],
    "X_ex74": [
        ((4, 1, 1, 2, 1), (4, 2, 4, 4, 1)),
        ((4, 1, 1, 2, 1), (4, 0, 0, 0, 1)),
        ((4, 1, 1, 2, 1), (4, 2, 0, 4, 1)),
        ((4, 1, 1, 2, 1), (4, 0, 0, 0, 1)),
    ],
}

COLORING_SETS = {
    ("infinity_0_1_k_plus", "X_ex71"): [(0, 0), (0, 2), (2, 0), (2, 2)],
    ("trefoil_2_1_k_minus", "X_ex71"): [
        (0, 0, 0, 0), (1, 3, 3, 1), (2, 2, 2, 2), (3, 1, 1, 3)],
    ("K1_ex72", "X_ex72"): [
        (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)],
    ("K2_ex72", "X_ex72"): [
        (0, 0, 0, 0), (0, 2, 0, 2), (2, 0, 2, 0), (2, 2, 2, 2)],
    ("rna_K1_ex74", "X_ex74"): [(0, 0, 0), (1, 3, 3), (2, 2, 2), (3, 1, 1)],
    ("rna_K2_ex74", "X_ex74"): [(0, 0, 0), (0, 2, 0), (2, 0, 2), (2, 2, 2)],
}

PHI_EXPECTED = {
    ("infinity_0_1_k_plus", "X_ex71"): PolynomialMultiset([(2 * P71, 2), (P71, 2)]),
    ("trefoil_2_1_k_minus", "X_ex71"): PolynomialMultiset([(P71, 2), (2 * Q71, 2)]),
    ("K1_ex72", "X_ex72"): PolynomialMultiset([(A72, 1), (A72 + B72 + C72, 3)]),
    ("K2_ex72", "X_ex72"): PolynomialMultiset([(A72, 1), (A72 + C72, 3)]),
    ("rna_K1_ex74", "X_ex74"): PolynomialMultiset(
        [(A74, 1), (A74 + C74, 1), (2 * B74 + A74 + C74, 2)]),
    ("rna_K2_ex74", "X_ex74"): PolynomialMultiset([(A74, 1), (A74 + C74, 3)]),
}


def presentation_of(fid):
    fx = fixture(fid)
    if fx.kind == "presentation":
        return fx.payload["presentation"]
    return compile_diagram(self_closure(to_crossing_diagram(fx.payload)), name=fid)


def diagram_of(fid):
    fx = fixture(fid)
    if fx.kind == "presentation":
        return fx.payload["diagram"]
    return self_closure(to_crossing_diagram(fx.payload))


DIAGRAM_IDS = (
    "unknot", "infinity_0_1_k_plus", "trefoil_2_1_k_minus",
    "K1_ex72", "K2_ex72", "rna_K1_ex74", "rna_K2_ex74",
)


def test_criterion_01_stqp_golden_renders():
    X1 = fixture("X1_ex63").payload
    X2 = fixture("X2_ex63").payload
    assert stuquandle_polynomial(X1).render() == \
        "4*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5"
    assert stuquandle_polynomial(X2).render() == \
        "4*s1^4*t1^4*s2*t2*s3^4*t3^4*s4*t4*s5^4*t5^4"
    _report(1, "ten-variable polynomials of the two reference structures")


def test_criterion_02_sstqp_golden_render():
    X1 = fixture("X1_ex63").payload
    assert substuquandle_polynomial(Subset(X1, (1, 3))).render() == \
        "2*s1^2*t1^2*s2*t2*s3^4*t3^4*s4^2*t4^2*s5*t5"
    _report(2, "subset polynomial of {1,3}")


def test_criterion_03_coloring_sets_and_counts():
    for (did, sid), expected in COLORING_SETS.items():
        X = fixture(sid).payload
        got = enumerate_colorings(presentation_of(did), X)
        assert got == expected, (did, sid)
        assert len(got) == 4
    _report(3, "all six coloring sets, every counting invariant 4")


def test_criterion_04_phi_golden_multisets():
    for (did, sid), expected in PHI_EXPECTED.items():
        X = fixture(sid).payload
        got = phi_invariant(presentation_of(did), X)
        assert got == expected, (did, sid)
        assert got.render() == expected.render()
    # enhancement: counting ties, multiset separates
    for left, right, sid in (
        ("K1_ex72", "K2_ex72", "X_ex72"),
        ("rna_K1_ex74", "rna_K2_ex74", "X_ex74"),
    ):
        X = fixture(sid).payload
        pl, pr = presentation_of(left), presentation_of(right)
        assert counting_invariant(pl, X) == counting_invariant(pr, X)
        assert phi_invariant(pl, X) != phi_invariant(pr, X)
    _report(4, "six multiset invariants term-for-term, both enhancement splits")


def test_criterion_05_profile_tables():
    for sid, table in PROFILES.items():
        X = fixture(sid).payload
        assert X.n == len(table)
        for x in range(X.n):
            p = element_profile(X, x)
            assert (p[0::2], p[1::2]) == table[x], (sid, x)
    _report(5, "per-element r/c tables of all five reference structures")


def test_criterion_06_affine_family_sweep():
    built = 0
    for n in range(2, 9):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            for b in range(n):
                for e in range(n):
                    affine_stuquandle(n, a, b, e)
                    built += 1
    assert built == sum(
        sum(1 for a in range(1, n) if math.gcd(a, n) == 1) * n * n
        for n in range(2, 9)
    )
    _report(6, f"{built} linear-family structures pass all 13 axioms")


def test_criterion_07_isomorphism_invariance():
    rng = random.Random(20240517)
    for sid in STUQUANDLE_IDS:
        X = fixture(sid).payload
        base = stuquandle_polynomial(X).render()
        for _ in range(100):
            sigma = list(range(X.n))
            rng.shuffle(sigma)
            assert stuquandle_polynomial(X.relabel(sigma)).render() == base, sid
    assert is_isomorphic(fixture("X1_ex63").payload, fixture("X2_ex63").payload) is None
    _report(7, "100 relabelings per structure leave the polynomial unchanged")


def test_criterion_08_oracle_equivalence():
    pairs = 0
    for did in DIAGRAM_IDS:
        pres = presentation_of(did)
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            assert enumerate_colorings(pres, X) == sorted(oracles.sweep_colorings(pres, X))
            pairs += 1
    _report(8, f"propagating enumeration equals the full sweep on {pairs} pairs")


def test_criterion_09_images_are_substuquandles():
    checked = 0
    for did in DIAGRAM_IDS:
        pres = presentation_of(did)
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            for c in enumerate_colorings(pres, X):
                image = coloring_image(c, X)
                assert is_substuquandle(image)
                assert oracles.is_closed(X, image.members)
                checked += 1
    assert checked > 0
    _report(9, f"{checked} coloring images are closed subsets")


def test_criterion_10_kink_stability():
    runs = 0
    for did in DIAGRAM_IDS:
        diagram = diagram_of(did)
        base = compile_diagram(diagram)
        for sid in STUQUANDLE_IDS:
            X = fixture(sid).payload
            want_count = counting_invariant(base, X)
            want_phi = phi_invariant(base, X)
            for arc in range(diagram.arc_count):
                for sign in (1, -1):
                    kinked = compile_diagram(add_kink(diagram, arc, sign))
                    assert counting_invariant(kinked, X) == want_count, (did, sid, arc, sign)
                    assert phi_invariant(kinked, X) == want_phi, (did, sid, arc, sign)
                    runs += 1
    _report(10, f"{runs} kink insertions leave counting and multiset unchanged")


def test_criterion_11_catalog_check_cli(capsys):
    code = main(["catalog", "check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1].endswith("checks passed")
    with capsys.disabled():
        print()
        _report(11, "catalog check exits 0 through file round trips")
