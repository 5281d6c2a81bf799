"""Stuck-link diagrams as finite presentations, and their coloring invariants.

A presentation lists relations out = op(lhs, rhs) over a set of generators
(the diagram arcs).  Crossing diagrams are a thin convenience layer that
compiles to presentations.  Colorings by a finite stuquandle come from one
engine, a generator that enumerate_colorings lists and the invariants
stream: preimage lists of each operation table the presentation uses,
watch lists that send a newly fixed generator to just the relations it
appears in, and a depth-first search over one assignment list, whose trial
assignments a trail undoes.  The search branches on the lowest undecided
generator in increasing value order, so the colorings come out in
lexicographic order.

Where x -> x+1 mod n is an automorphism of the target, as on every affine
and Alexander stuquandle on Z_n, shifting a coloring by t shifts its image,
which keeps its polynomial, so counting_invariant and phi_invariant search
only generator 0 = 0 and count each coloring found n times.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .algebra import (DEFINING, FiniteStuquandle, Subset, _check_ints, _check_range,
                      _flatten, substuquandle_closure)
from .polynomial import PolynomialMultiset, _profile_polynomial

STAR, R1, R2, R3, R4 = DEFINING
STAR_INV = "~*"
OPS = (STAR, STAR_INV, R1, R2, R3, R4)
# The most generators a presentation has, and so the most strands an arc
# diagram has: each strand closes to at least one arc, a generator.  Both
# constructors check it before anything is sized by the count.
MAX_GENERATORS = 2**20
# The most arcs a crossing diagram has.  An open diagram has up to one arc
# more per strand than its closure, whose arcs are generators, so twice the
# generator cap rejects no diagram whose closure compiles.
MAX_ARCS = 2 * MAX_GENERATORS


class Relation(NamedTuple):
    """out = op(lhs, rhs) over generator indices; Presentation checks it."""

    out: int
    op: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relations: tuple[Relation, ...] = ()
    name: str = ""
    generator_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "generator_names", tuple(self.generator_names))
        # ops first, in relation order; tuple membership, as a JSON op may be unhashable
        for r in self.relations:
            if r.op not in OPS:
                raise ValueError(f"unknown operation {r.op!r}")
        indices = _flatten(map(attrgetter("out", "lhs", "rhs"), self.relations))
        _check_ints((self.generator_count, *indices), "presentation field")
        if not isinstance(self.name, str) or set(map(type, self.generator_names)) - {str}:
            raise ValueError("presentation name and generator_names must be strings")
        if self.generator_count < 1:
            raise ValueError("a presentation needs at least one generator")
        if self.generator_count > MAX_GENERATORS:
            raise ValueError(f"a presentation has at most {MAX_GENERATORS} generators, "
                             f"got {self.generator_count}")
        if self.generator_names and len(self.generator_names) != self.generator_count:
            raise ValueError("generator_names length mismatch")
        _check_range(indices, self.generator_count, "generator index")

    def generator_label(self, i: int) -> str:
        if self.generator_names:
            return self.generator_names[i]
        if self.generator_count <= 26:
            return string.ascii_lowercase[i]
        return f"g{i}"

    def to_text(self) -> str:
        """One relation per line; infix for * and ~*, prefix for R1..R4."""
        lines = []
        for rel in self.relations:
            out = self.generator_label(rel.out)
            lhs = self.generator_label(rel.lhs)
            rhs = self.generator_label(rel.rhs)
            if rel.op in (STAR, STAR_INV):
                lines.append(f"{out} = {lhs} {rel.op} {rhs}")
            else:
                lines.append(f"{out} = {rel.op}({lhs}, {rhs})")
        return "\n".join(lines)


# A crossing is its file row after the kind tag: sign, then the arc slots in
# arcs() order, so type(c)(c.sign, *slots) rebuilds it, and self-closure
# numbers arcs by first use in that order.  kind is the file tag, a class
# attribute, not a field.  CrossingDiagram checks the values of both types.


class Classical(NamedTuple):
    """Classical crossing: the under strand runs under_in -> under_out."""

    kind = "classical"
    sign: int
    over: int
    under_in: int
    under_out: int

    def arcs(self):
        return self[1:]

    def relations(self) -> tuple[Relation, ...]:
        """Positive: under_out = under_in * over.
        Negative: under_out = under_in ~* over."""
        op = STAR if self.sign > 0 else STAR_INV
        return (Relation(self.under_out, op, self.under_in, self.over),)


class Stuck(NamedTuple):
    """Stuck crossing: strand one runs in1 -> out1, strand two in2 -> out2."""

    kind = "stuck"
    sign: int
    in1: int
    in2: int
    out1: int
    out2: int

    def arcs(self):
        return self[1:]

    def relations(self) -> tuple[Relation, ...]:
        """Positive: out1 = R1(in1, in2), out2 = R2(in1, in2).
        Negative: out1 = R3(in1, in2), out2 = R4(in1, in2)."""
        first, second = (R1, R2) if self.sign > 0 else (R3, R4)
        return (Relation(self.out1, first, self.in1, self.in2),
                Relation(self.out2, second, self.in1, self.in2))


@dataclass(frozen=True)
class CrossingDiagram:
    """Arcs 0..arc_count-1 plus crossings; open_ends lists, per open strand,
    the (first_arc, last_arc) pair that self-closure will identify."""

    arc_count: int
    crossings: tuple = ()
    open_ends: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        object.__setattr__(self, "open_ends", tuple(self.open_ends))
        ends = tuple(a for first, last in self.open_ends for a in (first, last))
        _check_ints((self.arc_count, *_flatten(self.crossings), *ends),
                    "crossing diagram field")
        if self.arc_count < 1:
            raise ValueError("a diagram needs at least one arc")
        if self.arc_count > MAX_ARCS:
            raise ValueError(f"a diagram has at most {MAX_ARCS} arcs, got {self.arc_count}")
        signs = tuple(map(attrgetter("sign"), self.crossings))
        if set(signs) - {1, -1}:
            sign = next(s for s in signs if s not in (1, -1))
            raise ValueError(f"crossing sign must be +1 or -1, got {sign}")
        arcs = (*_flatten(c.arcs() for c in self.crossings), *ends)
        _check_range(arcs, self.arc_count, "arc index")


def compile_diagram(d: CrossingDiagram, name: str = "") -> Presentation:
    """Each crossing's relations, in crossing order."""
    relations = tuple(r for c in d.crossings for r in c.relations())
    return Presentation(d.arc_count, relations, name=name)


def enumerate_colorings(P: Presentation, X: FiniteStuquandle) -> list[tuple[int, ...]]:
    """All relation-satisfying assignments, in lexicographic order."""
    return list(_colorings(P, X))


def _colorings(P: Presentation, X: FiniteStuquandle, roots=None):
    """Yield each relation-satisfying assignment, in lexicographic order;
    with roots given, only those whose generator 0 takes one of its values.

    Each table T the presentation uses gets two preimage lists, built once:
    by_lhs[x][z] holds the y with T[x][y] == z, and by_rhs[y][z] the x with
    T[x][y] == z, each in increasing order.  A watch list maps every
    generator to the relations it appears in.  When a generator is fixed it
    joins a queue, and only its relations are looked at again: with lhs and
    rhs decided the relation fixes or checks out; with out and one operand
    decided the preimage list of the other operand fails the branch if it
    is empty and fixes that operand if it has one element.

    The search is depth first over one assignment list, with no recursion.
    Every fixed generator goes on a trail, and a trial is undone by
    resetting the generators on the trail past its mark.  It branches on
    the lowest undecided generator i, trying in increasing order only the
    values in every preimage list that applies to i.  All generators below
    i are decided at that point, so each trial's colorings share their
    prefix below i and differ from a later trial's at i: the colorings come
    out in lexicographic order with no sort.
    """
    n, ops = X.n, X.operations()
    preimages = {}
    for op in {r.op for r in P.relations}:
        by_lhs = [[[] for _ in range(n)] for _ in range(n)]
        by_rhs = [[[] for _ in range(n)] for _ in range(n)]
        for x, row in enumerate(ops[op]):
            for y, z in enumerate(row):
                by_lhs[x][z].append(y)
                by_rhs[y][z].append(x)
        preimages[op] = (ops[op], by_lhs, by_rhs)
    watch: list[list[tuple]] = [[] for _ in range(P.generator_count)]
    for r in P.relations:
        rel = (r.out, r.lhs, r.rhs, *preimages[r.op])
        for g in {r.out, r.lhs, r.rhs}:
            watch[g].append(rel)
    assign = [-1] * P.generator_count
    trail: list[int] = []

    def fix(i: int, v: int) -> bool:
        """Set generator i to v and propagate; False on a contradiction."""
        assign[i] = v
        trail.append(i)
        queue = [i]
        for g in queue:
            for out, lhs, rhs, rows, by_lhs, by_rhs in watch[g]:
                lv, rv, ov = assign[lhs], assign[rhs], assign[out]
                if lv >= 0 and rv >= 0:
                    z = rows[lv][rv]
                    if ov < 0:
                        assign[out] = z
                        trail.append(out)
                        queue.append(out)
                    elif ov != z:
                        return False
                    continue
                if ov < 0:
                    continue
                if lv >= 0:
                    only, free = by_lhs[lv][ov], rhs
                elif rv >= 0:
                    only, free = by_rhs[rv][ov], lhs
                else:
                    continue
                if len(only) == 1:
                    assign[free] = only[0]
                    trail.append(free)
                    queue.append(free)
                elif not only:
                    return False
        return True

    def candidates(i: int):
        """Values of the undecided generator i allowed by every preimage
        list that applies to it, in increasing order."""
        values = None
        for out, lhs, rhs, rows, by_lhs, by_rhs in watch[i]:
            ov = assign[out]
            if ov < 0:
                continue
            if lhs == i and assign[rhs] >= 0:
                allowed = by_rhs[assign[rhs]][ov]
            elif rhs == i and assign[lhs] >= 0:
                allowed = by_lhs[assign[lhs]][ov]
            else:
                continue
            values = allowed if values is None else [v for v in values if v in allowed]
        return range(n) if values is None else values

    frames = [(0, iter(candidates(0) if roots is None else roots), 0)]  # (generator, values, mark)
    while frames:
        i, values, mark = frames[-1]
        for v in values:
            for g in trail[mark:]:
                assign[g] = -1
            del trail[mark:]
            if fix(i, v):
                break
        else:
            frames.pop()  # the frame below undoes to its own, earlier mark
            continue
        try:
            i = assign.index(-1, i + 1)
        except ValueError:
            yield tuple(assign)
            continue
        frames.append((i, iter(candidates(i)), len(trail)))


def _shift_roots(X: FiniteStuquandle):
    """(roots for _colorings, weight of each coloring): ((0,), n) if every
    defining table has rows[x+1][y+1] == rows[x][y] + 1 mod n, which makes
    x -> x+1 an automorphism (~* follows from *), else (None, 1)."""
    succ = (*range(1, X.n), 0)
    shifts = all(rows[(x + 1) % X.n] == tuple(map(succ.__getitem__, row[-1:] + row[:-1]))
                 for rows in X.defining for x, row in enumerate(rows))
    return ((0,), X.n) if shifts else (None, 1)


def counting_invariant(P: Presentation, X: FiniteStuquandle) -> int:
    """The number of colorings, counted as they stream past, with generator
    0 = 0 alone where the shift is an automorphism of X (module docstring)."""
    roots, weight = _shift_roots(X)
    return weight * sum(1 for _ in _colorings(P, X, roots))


def coloring_image(coloring, X: FiniteStuquandle) -> Subset:
    """Closure of the assigned values.

    The closure matters: the image of the full homomorphism contains every
    operation word in the generator images, not just the images themselves.
    """
    return substuquandle_closure(Subset(X, tuple(coloring)))


def phi_invariant(P: Presentation, X: FiniteStuquandle) -> PolynomialMultiset:
    """Multiset of image polynomials, one entry per coloring.

    The image depends only on the set of values a coloring takes, so each
    distinct value set is closed and profiled once, and only the distinct
    value sets are held while the colorings stream past.  Where the shift
    is an automorphism of X, generator 0 = 0 alone is searched, each
    coloring counting n times (module docstring).
    """
    roots, weight = _shift_roots(X)
    value_sets = Counter(map(frozenset, _colorings(P, X, roots)))
    return PolynomialMultiset(
        (_profile_polynomial(X, coloring_image(values, X).members), weight * count)
        for values, count in value_sets.items()
    )


def add_kink(d: CrossingDiagram, arc: int, sign: int) -> CrossingDiagram:
    """Insert a classical self-crossing on the given arc.

    The new boundary arc x' satisfies x' = x * x (positive) or x' = x ~* x
    (negative), so every coloring forces x' = x.
    """
    _check_range((arc,), d.arc_count, "arc index")
    new_arc = d.arc_count
    kink = Classical(sign, over=arc, under_in=arc, under_out=new_arc)
    return CrossingDiagram(d.arc_count + 1, d.crossings + (kink,), d.open_ends)


def compare_invariants(P1: Presentation, P2: Presentation, X: FiniteStuquandle) -> dict:
    """The comparison document: per side its name, counting invariant and
    rendered phi, then DISTINGUISHED if the phi multisets differ, else
    INCONCLUSIVE."""
    phis = (phi_invariant(P1, X), phi_invariant(P2, X))
    doc: dict = {
        side: {"name": P.name or side, "counting": phi.total(), "phi": phi.render()}
        for side, P, phi in zip(("left", "right"), (P1, P2), phis)
    }
    doc["verdict"] = "DISTINGUISHED" if phis[0] != phis[1] else "INCONCLUSIVE"
    return doc
