"""Exact sparse polynomials and the polynomial invariants of finite stuquandles.

The ten-variable polynomials live in s1,t1,...,s5,t5 where index i counts
trivial actions through the i-th operation (1 <-> *, 2 <-> R1, 3 <-> R2,
4 <-> R3, 5 <-> R4).  All arithmetic is exact integer arithmetic and every
polynomial has a canonical text rendering used as the interchange format.
"""

from __future__ import annotations

import re

from .algebra import (
    FiniteStuquandle,
    Subset,
    _closure_violation,
    _square_rows,
    fixed_points,
    verify_quandle,
)
from .errors import NotClosed

STU_VARS = ("s1", "t1", "s2", "t2", "s3", "t3", "s4", "t4", "s5", "t5")
QP_VARS = ("s", "t")


class Polynomial:
    """Sparse polynomial with integer coefficients in a fixed variable list.

    Terms map exponent tuples to nonzero coefficients; the canonical term
    order is lexicographic descending on the exponent tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=()):
        variables = tuple(variables)
        width = len(variables)
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            coeff = int(coeff)
            if len(exps) != width:
                raise ValueError(f"expected {width} exponents, got {len(exps)}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be non-negative")
            coeff += clean.pop(exps, 0)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, variables=STU_VARS) -> "Polynomial":
        return cls(variables)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def _combine(self, other, flip):
        if not isinstance(other, Polynomial) or other.variables != self.variables:
            return NotImplemented
        merged = list(self.terms.items())
        merged.extend((e, -c if flip else c) for e, c in other.terms.items())
        return Polynomial(self.variables, merged)

    def __add__(self, other):
        return self._combine(other, flip=False)

    def __sub__(self, other):
        return self._combine(other, flip=True)

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return Polynomial(self.variables, [(e, c * scalar) for e, c in self.terms.items()])

    __rmul__ = __mul__

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

    def evaluate(self, values: dict[str, int]) -> int:
        """Evaluate at integer values; every variable must be supplied."""
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for var, e in zip(self.variables, exps):
                prod *= values[var] ** e
            total += prod
        return total

    def render(self) -> str:
        """Canonical text form; equal strings iff equal polynomials."""
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
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
    """Parse the canonical rendering back into a polynomial."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    s = text.strip()
    if s == "0":
        return Polynomial.zero(variables)
    terms = []
    sign = 1
    first = True
    for token in s.split():
        if token == "+":
            sign = 1
            continue
        if token == "-":
            sign = -1
            continue
        chunk = token
        if first and chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        first = False
        coeff = sign
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
        sign = 1
    return Polynomial(variables, terms)


def element_profile(X: FiniteStuquandle, x: int) -> tuple[int, ...]:
    """The exponent tuple of x's monomial, X.profiles[x], range checked."""
    if not 0 <= x < X.n:
        raise ValueError(f"element {x} outside the carrier")
    return X.profiles[x]


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
    profiles = S.parent.profiles
    return Polynomial(STU_VARS, [(profiles[x], 1) for x in S.members])


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
        items = entries.items() if isinstance(entries, dict) else entries
        for poly, mult in items:
            mult = int(mult)
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
