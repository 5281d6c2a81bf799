"""Finite stuquandles: operation tables, axiom checking, element profiles,
parametric families.

A stuquandle is a quandle (X, *) together with four extra binary maps
R1..R4.  Everything here works on carriers {0..n-1} with the five
operations stored as n x n tables, row = first argument, column = second
argument.  The inverse operation x ~* y (the preimage of x under the
column-y bijection of *) is always derived, never user supplied.

A table is a tuple of row tuples, so T(a, b) is T[a][b]; the checks below
index those rows and their transposed columns directly.  The defining
operations are named once, in DEFINING, in the order of the polynomial
variable index (1 <-> *, 2 <-> R1, ..., 5 <-> R4).  The thirteen axioms are

    columns      every column map x -> x * y is a bijection
    quandle-i    (x * y) * z = (x * z) * (y * z)
    quandle-iii  x * x = x
    eq1   R1(x ~* y, z) * y = R1(x, z * y)
    eq2   R2(x ~* y, z) = R2(x, z * y) ~* y
    eq3   (y ~* R1(x, z)) * x = (y * R2(x, z)) ~* z
    eq4   R2(x, y) = R1(y, x * y)
    eq5   R1(x, y) * R2(x, y) = R2(y, x * y)
    eq6   R3(y, x) * R4(y, x) = R4(x * y, y)
    eq7   R4(y, x) = R3(x * y, y)
    eq8   R3(y * x, z) = R3(y, z ~* x) * x
    eq9   R4(y, z ~* x) = R4(y * x, z) ~* x
    eq10  (x * R4(y, z)) ~* y = (x ~* R3(y, z)) * z

and they are checked in exactly that order, each over its variables in
(x, y, z) lexicographic order.  The first failure is reported with its
witness, so the scan order is part of the output and must not change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import getitem

from .errors import AxiomViolation, NonBijectiveColumn, NonUnit

DEFINING = ("*", "R1", "R2", "R3", "R4")


def _square_rows(table, n=None):
    """table as a tuple of row tuples, checked to be a non-empty square
    table over {0..size-1} and, when n is given, to be n x n."""
    rows = tuple(tuple(int(v) for v in row) for row in table)
    size = len(rows)
    if size == 0:
        raise ValueError("operation table must be non-empty")
    for row in rows:
        if len(row) != size:
            raise ValueError("operation table must be square")
        for v in row:
            if not 0 <= v < size:
                raise ValueError(f"table entry {v} outside 0..{size - 1}")
    if n is not None and size != n:
        raise ValueError(f"expected a {n}x{n} table, got {size}x{size}")
    return rows


def column_inverse(rows):
    """Invert every column map x -> rows[x][y].

    Raises NonBijectiveColumn(y) on the first column that is not a
    permutation of the carrier.
    """
    n = len(rows)
    inv = [[0] * n for _ in range(n)]
    for y in range(n):
        seen = [False] * n
        for x in range(n):
            v = rows[x][y]
            if seen[v]:
                raise NonBijectiveColumn(y)
            seen[v] = True
            inv[v][y] = x
    return tuple(map(tuple, inv))


def table_from(n: int, fn):
    """Tabulate fn(x, y) mod n over the carrier {0..n-1} as row tuples."""
    return tuple(tuple(fn(x, y) % n for y in range(n)) for x in range(n))


def fixed_points(rows, x: int) -> tuple[int, int]:
    """The trivial actions at x of the table T given by rows: the number of
    y with T(x, y) = x and the number of y with T(y, x) = y."""
    return rows[x].count(x), sum(1 for y, row in enumerate(rows) if row[x] == y)


def _scan(n: int, axioms) -> None:
    """Raise AxiomViolation at the first failing (axiom, witness).

    Each axiom is (id, arity, sides): sides(*prefix) takes the first
    arity - 1 variables and returns both sides of the equation as
    sequences over the last variable, so the first index where they differ
    completes the witness.
    """
    for axiom, arity, sides in axioms:
        for prefix in itertools.product(range(n), repeat=arity - 1):
            lhs, rhs = map(tuple, sides(*prefix))
            if lhs != rhs:
                last = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                raise AxiomViolation(axiom, prefix + (last,))


def verify_quandle(S):
    """Check quandle axioms for the * rows S, returning the derived ~* rows.

    Column bijectivity is checked first (it is structural: ~* needs it),
    then right distributivity, then idempotency.
    """
    star_inv = column_inverse(S)
    elements = range(len(S))
    _scan(len(S), (
        ("quandle-i", 3, lambda x, y: (
            S[S[x][y]], map(getitem, map(S.__getitem__, S[x]), S[y]))),
        ("quandle-iii", 1, lambda: (map(getitem, S, elements), elements)),
    ))
    return star_inv


def _verify_stuquandle(S, SI, R1, R2, R3, R4):
    """Check eq1..eq10 in order; the sides are composed from rows (T[a])
    and columns (Tc[b]) so that T(a, b) = T[a][b] = Tc[b][a]."""
    Sc, SIc, R3c, R4c = (tuple(zip(*t)) for t in (S, SI, R3, R4))
    elements = range(len(S))
    _scan(len(S), (
        ("eq1", 3, lambda x, y: (
            map(Sc[y].__getitem__, R1[SI[x][y]]),
            map(R1[x].__getitem__, Sc[y]))),
        ("eq2", 3, lambda x, y: (
            R2[SI[x][y]],
            map(SIc[y].__getitem__, map(R2[x].__getitem__, Sc[y])))),
        ("eq3", 3, lambda x, y: (
            map(Sc[x].__getitem__, map(SI[y].__getitem__, R1[x])),
            map(getitem, map(SI.__getitem__, map(S[y].__getitem__, R2[x])), elements))),
        ("eq4", 2, lambda x: (R2[x], map(getitem, R1, S[x]))),
        ("eq5", 2, lambda x: (
            map(getitem, map(S.__getitem__, R1[x]), R2[x]),
            map(getitem, R2, S[x]))),
        ("eq6", 2, lambda x: (
            map(getitem, map(S.__getitem__, R3c[x]), R4c[x]),
            map(getitem, map(R4.__getitem__, S[x]), elements))),
        ("eq7", 2, lambda x: (R4c[x], map(getitem, map(R3.__getitem__, S[x]), elements))),
        ("eq8", 3, lambda x, y: (
            R3[S[y][x]],
            map(Sc[x].__getitem__, map(R3[y].__getitem__, SIc[x])))),
        ("eq9", 3, lambda x, y: (
            map(R4[y].__getitem__, SIc[x]),
            map(SIc[x].__getitem__, R4[S[y][x]]))),
        ("eq10", 3, lambda x, y: (
            map(SIc[y].__getitem__, map(S[x].__getitem__, R4[y])),
            map(getitem, map(S.__getitem__, map(SI[x].__getitem__, R3[y])), elements))),
    ))


@dataclass(frozen=True)
class FiniteStuquandle:
    """A validated finite stuquandle, built by build_stuquandle; immutable.

    Each table is a tuple of row tuples: x * y is star[x][y].
    """

    n: int
    star: tuple
    star_inv: tuple
    r1: tuple
    r2: tuple
    r3: tuple
    r4: tuple

    @property
    def defining(self) -> tuple:
        """The rows of the operations named in DEFINING, in that order.

        On a finite carrier a subset closed under * is closed under ~* (each
        column map of * is injective on it, hence onto it), so closure checks
        and closures need only these five.
        """
        return (self.star, self.r1, self.r2, self.r3, self.r4)

    @cached_property
    def profiles(self) -> tuple:
        """Each element's exponent tuple (s1, t1, ..., s5, t5): s_i and t_i
        are the fixed_points of the i-th operation in DEFINING at x.

        Computed once per structure; not a field, so equality, hashing and
        repr ignore it.
        """
        return tuple(
            tuple(itertools.chain.from_iterable(fixed_points(rows, x) for rows in self.defining))
            for x in range(self.n)
        )

    def operations(self) -> dict[str, tuple]:
        """Name -> rows of the five defining operations and the derived ~*."""
        return {**dict(zip(DEFINING, self.defining)), "~*": self.star_inv}

    def relabel(self, sigma) -> "FiniteStuquandle":
        """Transport the structure along a bijection of the carrier."""
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(self.n)):
            raise ValueError("relabeling must be a bijection of the carrier")

        def moved(rows) -> list[list[int]]:
            out = [[0] * self.n for _ in range(self.n)]
            for x, row in enumerate(rows):
                for y, v in enumerate(row):
                    out[sigma[x]][sigma[y]] = sigma[v]
            return out

        return build_stuquandle(self.n, *map(moved, self.defining))


def build_stuquandle(n: int, star, r1, r2, r3, r4) -> FiniteStuquandle:
    """Validate the five tables and return the structure.

    All thirteen axioms (quandle i-iii plus eq1..eq10) are checked
    exhaustively; the first failure is reported with its witness.
    """
    star, r1, r2, r3, r4 = (_square_rows(t, n) for t in (star, r1, r2, r3, r4))
    star_inv = verify_quandle(star)
    _verify_stuquandle(star, star_inv, r1, r2, r3, r4)
    return FiniteStuquandle(n, star, star_inv, r1, r2, r3, r4)


def affine_stuquandle(n: int, a: int, b: int, e: int) -> FiniteStuquandle:
    """The linear stuquandle on Z_n; a must be a unit:

        x * y   = a*x + (1-a)*y
        R1(x,y) = b*x + (1-b)*y
        R2(x,y) = a*(1-b)*x + (1 - a*(1-b))*y
        R3(x,y) = (1-e)*x + e*y
        R4(x,y) = (1 - a*(1-e))*x + a*(1-e)*y
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if gcd(a % n, n) != 1:
        raise NonUnit(a, n)
    return build_stuquandle(
        n,
        table_from(n, lambda x, y: a * x + (1 - a) * y),
        table_from(n, lambda x, y: b * x + (1 - b) * y),
        table_from(n, lambda x, y: a * (1 - b) * x + (1 - a * (1 - b)) * y),
        table_from(n, lambda x, y: (1 - e) * x + e * y),
        table_from(n, lambda x, y: (1 - a * (1 - e)) * x + a * (1 - e) * y),
    )


def alexander_stuquandle(n: int, t: int, v: int, a: int, b: int, c: int,
                         d: int, e: int, f: int) -> FiniteStuquandle:
    """The two-variable module family specialized to Z_n; t must be a unit.

    It is the linear family with a <- t and the weights a*t + b*v + c*t*v
    (for R1/R2) and d*t + f*v + e*t*v (for R3/R4) in the roles of b and e;
    the weights are left unreduced, as table_from reduces every entry mod n.
    """
    return affine_stuquandle(n, t, a * t + b * v + c * t * v, d * t + f * v + e * t * v)


@dataclass(frozen=True)
class Subset:
    """A subset of a stuquandle's carrier, kept sorted and duplicate free."""

    parent: FiniteStuquandle
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(int(m) for m in self.members)))
        for m in members:
            if not 0 <= m < self.parent.n:
                raise ValueError(f"element {m} outside the carrier")
        object.__setattr__(self, "members", members)


def _closure_violation(s: Subset):
    """First (op, x, y, result) escaping the subset, or None if closed."""
    inside = set(s.members)
    for name, rows in zip(DEFINING, s.parent.defining):
        for x in s.members:
            row = rows[x]
            if not inside.issuperset(map(row.__getitem__, s.members)):
                y = next(y for y in s.members if row[y] not in inside)
                return (name, x, y, row[y])
    return None


def is_substuquandle(s: Subset) -> bool:
    """True iff s is closed under *, ~*, R1, R2, R3 and R4."""
    return _closure_violation(s) is None


def substuquandle_closure(s: Subset) -> Subset:
    """Smallest superset of s closed under the five operations and ~*."""
    if not s.members:
        raise ValueError("closure of an empty subset is undefined")
    tables = s.parent.defining
    inside = set(s.members)
    frontier = inside
    while frontier:
        # every product with at least one factor new since the last round
        current = tuple(inside)
        grown = set(inside)
        for rows in tables:
            for x in current:
                grown.update(map(rows[x].__getitem__, frontier))
            for y in frontier:
                grown.update(map(rows[y].__getitem__, current))
        frontier = grown - inside
        inside = grown
    return Subset(s.parent, tuple(inside))


def _equations(X: FiniteStuquandle, Y: FiniteStuquandle):
    """(Y's rows of op, a, b, c) for each equation op(a, b) = c of X's
    defining tables."""
    for opx, opy in zip(X.defining, Y.defining):
        for a, row in enumerate(opx):
            for b, c in enumerate(row):
                yield opy, a, b, c


def is_homomorphism(f, X: FiniteStuquandle, Y: FiniteStuquandle) -> bool:
    """True iff f carries each of *, R1..R4 on X to its counterpart on Y."""
    f = tuple(f)
    if len(f) != X.n or any(not 0 <= v < Y.n for v in f):
        return False
    return all(f[c] == opy[f[a]][f[b]] for opy, a, b, c in _equations(X, Y))


def is_isomorphic(X: FiniteStuquandle, Y: FiniteStuquandle):
    """The lexicographically first isomorphism X -> Y as a tuple, or None.

    Elements 0, 1, ... are mapped in turn, each to an unused element of Y
    with the same profile (isomorphisms preserve profiles), smallest first.
    Each equation op(a, b) = c of X is checked exactly once, when element
    max(a, b, c) is mapped, so every complete map is an isomorphism.
    """
    if X.n != Y.n:
        return None
    px, py = X.profiles, Y.profiles
    if sorted(px) != sorted(py):
        return None
    candidates = [
        tuple(y for y in range(Y.n) if py[y] == px[x]) for x in range(X.n)
    ]
    due = [[] for _ in range(X.n)]
    for opy, a, b, c in _equations(X, Y):
        due[max(a, b, c)].append((opy, a, b, c))

    def search(f: tuple):
        i = len(f)
        if i == X.n:
            return f
        for y in candidates[i]:
            if y in f:
                continue
            g = f + (y,)
            if all(g[c] == opy[g[a]][g[b]] for opy, a, b, c in due[i]):
                found = search(g)
                if found is not None:
                    return found
        return None

    return search(())
