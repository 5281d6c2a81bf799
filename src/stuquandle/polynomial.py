"""Sparse integer polynomials and the polynomial invariants of finite stuquandles.

The ten-variable polynomials live in s1,t1,...,s5,t5 where index i counts
trivial actions through the i-th operation (1 <-> *, 2 <-> R1, 3 <-> R2,
4 <-> R3, 5 <-> R4).  Each polynomial is built from (exponents, coefficient)
pairs, one monomial per element, and repeated exponents add up.  Every
polynomial has a canonical text rendering used as the interchange format.
"""

from __future__ import annotations

import re

from .algebra import (
    FiniteStuquandle,
    Subset,
    _check_ints,
    _closure_violation,
    _flatten,
    _square_rows,
    fixed_points,
    verify_quandle,
)
from .errors import NotClosed

STU_VARS = ("s1", "t1", "s2", "t2", "s3", "t3", "s4", "t4", "s5", "t5")
QP_VARS = ("s", "t")


class Polynomial:
    """Sparse polynomial with integer coefficients in a fixed variable list.

    Built from (exponents, coefficient) pairs; repeated exponents add up and
    zero sums are dropped.  Terms map exponent tuples to nonzero coefficients;
    the canonical term order is lexicographic descending on the exponent tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=()):
        variables = tuple(variables)
        terms = [(tuple(exps), coeff) for exps, coeff in terms]
        exponents = _flatten(exps for exps, _ in terms)
        _check_ints(exponents, "exponent")
        _check_ints([coeff for _, coeff in terms], "coefficient")
        if exponents and min(exponents) < 0:
            raise ValueError("exponents must be non-negative")
        clean = {}
        for exps, coeff in terms:
            if len(exps) != len(variables):
                raise ValueError(f"expected {len(variables)} exponents, got {len(exps)}")
            coeff += clean.pop(exps, 0)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<Polynomial {self.render()}>"

    def render(self) -> str:
        """Canonical text form; equal strings iff equal polynomials."""
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e != 0
            )
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)


_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def parse_polynomial(text: str, variables=STU_VARS) -> Polynomial:
    """Parse the canonical rendering back into a polynomial: "0", or a first
    term with an optional leading "-", then "+ term" or "- term" pairs."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    tokens = text.split()
    if tokens == ["0"]:
        return Polynomial(variables)
    if len(tokens) % 2 == 0 or set(tokens[1::2]) - {"+", "-"}:
        raise ValueError(f"cannot parse polynomial {text!r}")
    signed = [("-", tokens[0][1:]) if tokens[0].startswith("-") else ("+", tokens[0]),
              *zip(tokens[1::2], tokens[2::2])]
    terms = []
    for sign, chunk in signed:
        coeff = -1 if sign == "-" else 1
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"cannot parse factor {factor!r}")
            exps[index[m.group(1)]] += int(m.group(2) or 1)
        terms.append((tuple(exps), coeff))
    return Polynomial(variables, terms)


def stuquandle_polynomial(X: FiniteStuquandle) -> Polynomial:
    """Sum over the carrier of the per-element profile monomials."""
    return Polynomial(STU_VARS, [(p, 1) for p in X.profiles])


def substuquandle_polynomial(S: Subset) -> Polynomial:
    """Same sum restricted to a closed subset.

    Profiles are computed in the parent structure: the counted sets range
    over the whole carrier, not over S.
    """
    bad = _closure_violation(S)
    if bad is not None:
        raise NotClosed(S.members, *bad)
    return _profile_polynomial(S.parent, S.members)


def _profile_polynomial(X: FiniteStuquandle, members) -> Polynomial:
    """substuquandle_polynomial of members, known to be closed, unchecked."""
    profiles = X.profiles
    return Polynomial(STU_VARS, [(profiles[x], 1) for x in members])


def quandle_polynomial(table) -> Polynomial:
    """Two-variable polynomial of a plain quandle given by its * table."""
    rows = _square_rows(table)
    verify_quandle(rows)
    return Polynomial(QP_VARS, [(fixed_points(rows, x), 1) for x in range(len(rows))])


class PolynomialMultiset:
    """Multiset of polynomials; the value of the coloring-image invariant.

    Rendered as k1*u^{P1} + k2*u^{P2} + ... with entries ordered by the
    canonical rendering of their exponent polynomials.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        counts: dict[Polynomial, int] = {}
        for poly, mult in entries:
            _check_ints((mult,), "multiplicity")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            counts[poly] = counts.get(poly, 0) + mult
        self.entries = counts

    @classmethod
    def from_polynomials(cls, polys) -> "PolynomialMultiset":
        return cls([(p, 1) for p in polys])

    def total(self) -> int:
        return sum(self.entries.values())

    def __eq__(self, other):
        return isinstance(other, PolynomialMultiset) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"<PolynomialMultiset {self.render()}>"

    def render(self) -> str:
        if not self.entries:
            return "0"
        rendered = sorted((p.render(), m) for p, m in self.entries.items())
        return " + ".join(f"{m}*u^{{{text}}}" for text, m in rendered)
