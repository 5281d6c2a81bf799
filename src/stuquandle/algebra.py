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

and they are checked in exactly that order.  The first failure is reported
with its witness, the first failing (x, y, z) in lexicographic order, so
the scan order is part of the output and must not change.

Each three-variable axiom is checked over one free variable, with both
sides written as compositions of whole rows and columns: write S, SI and
R1..R4 for the rows of *, ~* and R1..R4, a trailing c for columns (Sc[z]
is the map x -> x * z), and A∘B for the map j -> B[A[j]].

    quandle-i over y   S[x]∘Sc[z]             vs  Sc[z]∘S[S[x][z]]
    eq1  over z        R1[SI[x][y]]∘Sc[y]     vs  Sc[y]∘R1[x]
    eq2  over z        R2[SI[x][y]]∘Sc[y]     vs  Sc[y]∘R2[x]
    eq3  over y        SIc[R1[x][z]]∘Sc[x]    vs  Sc[R2[x][z]]∘SIc[z]
    eq8  over z        R3[S[y][x]]∘SIc[x]     vs  SIc[x]∘R3[y]
    eq9  over z        SIc[x]∘R4[y]           vs  R4[S[y][x]]∘SIc[x]
    eq10 over x        Sc[R4[y][z]]∘SIc[y]    vs  SIc[R3[y][z]]∘Sc[z]

eq2 has both sides followed by * y and eq8 by ~* x.  Those column maps are
bijections, so they keep the set of failing (x, y, z) and with it the
first one.  A structure has at most MAX_ELEMENTS = 256 elements, so every
row is bytes and A∘B is A.translate(B), one C call per composition.  The
pair axioms eq4..eq7 and quandle-iii are compared over their last variable
as written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import getitem

from .errors import AxiomViolation, NonBijectiveColumn, NonUnit

DEFINING = ("*", "R1", "R2", "R3", "R4")
# an element is a byte, so bytes.translate composes rows (module docstring)
MAX_ELEMENTS = 256


def _flatten(parts):
    return tuple(itertools.chain.from_iterable(parts))


def _check_ints(values, what: str) -> None:
    """Raise ValueError naming the first of values, a sequence, that is not
    an exact int; a bool is not one.  The type test runs in C, and a record
    is a tuple of its fields, so a container checks _flatten(records) in one
    call."""
    if list(map(type, values)).count(int) != len(values):
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")


def _check_range(values, size: int, what: str) -> None:
    """Raise ValueError naming the first of values, exact ints, outside
    0..size-1.  min and max run in C; only a failure scans again."""
    if values and (min(values) < 0 or max(values) >= size):
        bad = next(v for v in values if not 0 <= v < size)
        raise ValueError(f"{what} {bad} outside 0..{size - 1}")


def _check_size(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise ValueError(f"a structure has at most {MAX_ELEMENTS} elements, got {n}")


def _square_rows(table, n=None):
    """table as a tuple of row tuples, checked to be a non-empty square
    table of exact ints over {0..size-1}, size <= MAX_ELEMENTS, and, when n
    is given, to be n x n."""
    rows = tuple(table)
    size = len(rows)
    if size == 0:
        raise ValueError("operation table must be non-empty")
    _check_size(size)
    if set(map(type, rows)) - {list, tuple}:
        raise ValueError("operation table rows must be lists or tuples")
    rows = tuple(map(tuple, rows))
    if set(map(len, rows)) != {size}:
        raise ValueError("operation table must be square")
    entries = _flatten(rows)
    _check_ints(entries, "table entry")
    _check_range(entries, size, "table entry")
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


def _bytes_rows(rows):
    """rows as bytes, plain to be composed and padded to the 256-byte table
    that bytes.translate composes with."""
    plain = tuple(map(bytes, rows))
    return plain, tuple(row.ljust(256, b"\0") for row in plain)


def _scan(n: int, axioms) -> None:
    """Raise AxiomViolation at the first failing (axiom, witness).

    Each axiom is (id, arity, free, sides), free being the position of the
    free variable.  Of the other variables the last one indexes groups and
    the ones before it form the head: sides(*head) returns both sides, each
    one flat sequence of n values of the free variable per group.  The
    witness is the least failing (x, y, z), so the scan ends an axiom at its
    first failing head only when every head variable precedes the free one.
    """
    for axiom, arity, free, sides in axioms:
        found = []
        for head in itertools.product(range(n), repeat=max(arity - 2, 0)):
            lhs, rhs = sides(*head)
            if lhs == rhs:
                continue
            for i, (a, b) in enumerate(zip(lhs, rhs)):
                if a != b:
                    group, value = divmod(i, n)
                    # an arity-1 axiom has a single group and no group variable
                    others = (*head, group)[:arity - 1]
                    found.append(others[:free] + (value,) + others[free:])
            if free >= len(head):
                break
        if found:
            raise AxiomViolation(axiom, min(found))


def _quandle_axioms(S):
    """quandle-i in its composed form and quandle-iii as written; Ta and Tb
    are the plain and padded forms of a table T's rows (_bytes_rows)."""
    (Sa, Sb), (Sca, Scb) = _bytes_rows(S), _bytes_rows(tuple(zip(*S)))
    elements = tuple(range(len(S)))
    return (
        ("quandle-i", 3, 1, lambda x: (
            b"".join(map(Sa[x].translate, Scb)),
            b"".join(map(bytes.translate, Sca, map(Sb.__getitem__, S[x]))))),
        ("quandle-iii", 1, 0, lambda: (tuple(map(getitem, S, elements)), elements)),
    )


def verify_quandle(S):
    """Check quandle axioms for the * rows S, returning the derived ~* rows.

    Column bijectivity is checked first (it is structural: ~* needs it),
    then right distributivity, then idempotency.
    """
    star_inv = column_inverse(S)
    _scan(len(S), _quandle_axioms(S))
    return star_inv


def _stuquandle_axioms(S, SI, R1, R2, R3, R4):
    """eq1..eq10 in order: the composed forms of the module docstring, and
    the pair axioms from rows (T[a]) and columns (Tc[b]), T(a, b) = Tc[b][a].
    Ta and Tb are plain and padded forms; a side with one padded form per
    head is joined first and composed once."""
    Sc, SIc, R3c, R4c = (tuple(zip(*t)) for t in (S, SI, R3, R4))
    (Sca, Scb), (SIca, SIcb), (R1a, R1b), (R2a, R2b), (R3a, R3b), (R4a, R4b) = map(
        _bytes_rows, (Sc, SIc, R1, R2, R3, R4))
    Sc_all = b"".join(Sca)
    elements = range(len(S))
    return (
        ("eq1", 3, 2, lambda x: (
            b"".join(map(bytes.translate, map(R1a.__getitem__, SI[x]), Scb)),
            Sc_all.translate(R1b[x]))),
        ("eq2", 3, 2, lambda x: (
            b"".join(map(bytes.translate, map(R2a.__getitem__, SI[x]), Scb)),
            Sc_all.translate(R2b[x]))),
        ("eq3", 3, 1, lambda x: (
            b"".join(map(SIca.__getitem__, R1[x])).translate(Scb[x]),
            b"".join(map(bytes.translate, map(Sca.__getitem__, R2[x]), SIcb)))),
        ("eq4", 2, 1, lambda: (
            _flatten(R2), _flatten(map(getitem, R1, row) for row in S))),
        ("eq5", 2, 1, lambda: (
            _flatten(map(getitem, map(S.__getitem__, a), b) for a, b in zip(R1, R2)),
            _flatten(map(getitem, R2, row) for row in S))),
        ("eq6", 2, 1, lambda: (
            _flatten(map(getitem, map(S.__getitem__, a), b) for a, b in zip(R3c, R4c)),
            _flatten(map(getitem, map(R4.__getitem__, row), elements) for row in S))),
        ("eq7", 2, 1, lambda: (
            _flatten(R4c), _flatten(map(getitem, map(R3.__getitem__, row), elements) for row in S))),
        ("eq8", 3, 2, lambda x: (
            b"".join(map(R3a.__getitem__, Sc[x])).translate(SIcb[x]),
            b"".join(map(SIca[x].translate, R3b)))),
        ("eq9", 3, 2, lambda x: (
            b"".join(map(SIca[x].translate, R4b)),
            b"".join(map(R4a.__getitem__, Sc[x])).translate(SIcb[x]))),
        ("eq10", 3, 0, lambda y: (
            b"".join(map(Sca.__getitem__, R4[y])).translate(SIcb[y]),
            b"".join(map(bytes.translate, map(SIca.__getitem__, R3[y]), Scb)))),
    )


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
        _check_ints(sigma, "relabeling value")
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
    _check_ints((n,), "carrier size")
    star, r1, r2, r3, r4 = (_square_rows(t, n) for t in (star, r1, r2, r3, r4))
    star_inv = verify_quandle(star)
    _scan(n, _stuquandle_axioms(star, star_inv, r1, r2, r3, r4))
    return FiniteStuquandle(n, star, star_inv, r1, r2, r3, r4)


def affine_stuquandle(n: int, a: int, b: int, e: int) -> FiniteStuquandle:
    """The linear stuquandle on Z_n; a must be a unit:

        x * y   = a*x + (1-a)*y
        R1(x,y) = b*x + (1-b)*y
        R2(x,y) = a*(1-b)*x + (1 - a*(1-b))*y
        R3(x,y) = (1-e)*x + e*y
        R4(x,y) = (1 - a*(1-e))*x + a*(1-e)*y
    """
    _check_ints((n, a, b, e), "parameter")
    if n < 1:
        raise ValueError("modulus must be positive")
    _check_size(n)
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
    _check_ints((n, t, v, a, b, c, d, e, f), "parameter")
    return affine_stuquandle(n, t, a * t + b * v + c * t * v, d * t + f * v + e * t * v)


@dataclass(frozen=True)
class Subset:
    """A subset of a stuquandle's carrier, kept sorted and duplicate free."""

    parent: FiniteStuquandle
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(self.members)
        _check_ints(members, "element")
        members = tuple(sorted(set(members)))
        _check_range(members, self.parent.n, "element")
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
    for opx, opy in zip(X.defining, Y.defining):
        for a, row in enumerate(opx):
            for b, c in enumerate(row):
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
