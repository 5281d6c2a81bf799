"""Arc diagrams of strand foldings and their conversion to stuck-link diagrams.

An arc diagram is a set of open strands with gray stripes pairing bond
sites.  Conversion replaces each stripe with one stuck crossing (the
stripe's sign decides which); classical crossings come only from strand
geometry supplied in the input.  Self-closure then joins each strand's two
loose ends, yielding a closed diagram ready for coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import FiniteStuquandle, _check_ints, _flatten
from .polynomial import PolynomialMultiset
from .presentation import (
    MAX_GENERATORS,
    Classical,
    CrossingDiagram,
    Presentation,
    Stuck,
    compile_diagram,
    phi_invariant,
)


class Stripe(NamedTuple):
    """Gray stripe bonding (strand_a, position_a) to (strand_b, position_b)."""

    strand_a: int
    strand_b: int
    position_a: int
    position_b: int
    sign: int


class StrandCrossing(NamedTuple):
    """A classical crossing drawn between strand points: one passage over,
    one under, located by (strand, position)."""

    over_strand: int
    over_position: int
    under_strand: int
    under_position: int
    sign: int


@dataclass(frozen=True)
class ArcDiagram:
    strand_count: int
    stripes: tuple[Stripe, ...] = ()
    classicals: tuple[StrandCrossing, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stripes", tuple(self.stripes))
        object.__setattr__(self, "classicals", tuple(self.classicals))
        _check_ints((self.strand_count, *_flatten(self.stripes), *_flatten(self.classicals)),
                    "arc diagram field")
        if self.strand_count < 1:
            raise ValueError("an arc diagram needs at least one strand")
        if self.strand_count > MAX_GENERATORS:
            raise ValueError(f"an arc diagram has at most {MAX_GENERATORS} strands, "
                             f"got {self.strand_count}")
        occupied = set()

        def claim(strand: int, position: int, what: str):
            if not 0 <= strand < self.strand_count:
                raise ValueError(f"{what} references missing strand {strand}")
            if (strand, position) in occupied:
                raise ValueError(f"duplicate site at strand {strand}, position {position}")
            occupied.add((strand, position))

        for st in self.stripes:
            if st.sign not in (1, -1):
                raise ValueError(f"stripe sign must be +1 or -1, got {st.sign}")
            claim(st.strand_a, st.position_a, "stripe")
            claim(st.strand_b, st.position_b, "stripe")
        for c in self.classicals:
            if c.sign not in (1, -1):
                raise ValueError(f"crossing sign must be +1 or -1, got {c.sign}")
            claim(c.over_strand, c.over_position, "crossing")
            claim(c.under_strand, c.under_position, "crossing")


def to_crossing_diagram(a: ArcDiagram) -> CrossingDiagram:
    """Replace each stripe by one stuck crossing; strands stay open.

    Strand segments between cut points become arcs.  Stripe endpoints and
    classical under-passages cut the strand; over-passages do not.
    """
    # per strand, (position, cuts) for every site on it
    sites: list[list[tuple[int, bool]]] = [[] for _ in range(a.strand_count)]
    for st in a.stripes:
        sites[st.strand_a].append((st.position_a, True))
        sites[st.strand_b].append((st.position_b, True))
    for c in a.classicals:
        sites[c.under_strand].append((c.under_position, True))
        sites[c.over_strand].append((c.over_position, False))

    # (strand, position) -> (incoming, outgoing) arcs at a cut, the current arc
    # at an over-passage
    at: dict = {}
    open_ends = []
    arc_count = 0
    for strand, strand_sites in enumerate(sites):
        first = current = arc_count
        arc_count += 1
        for position, cuts in sorted(strand_sites):
            if cuts:
                at[strand, position] = (current, arc_count)
                current = arc_count
                arc_count += 1
            else:
                at[strand, position] = current
        open_ends.append((first, current))

    crossings: list = []
    for st in a.stripes:
        in1, out1 = at[st.strand_a, st.position_a]
        in2, out2 = at[st.strand_b, st.position_b]
        crossings.append(Stuck(st.sign, in1, in2, out1, out2))
    for c in a.classicals:
        over = at[c.over_strand, c.over_position]
        under_in, under_out = at[c.under_strand, c.under_position]
        crossings.append(Classical(c.sign, over, under_in, under_out))
    return CrossingDiagram(arc_count, tuple(crossings), tuple(open_ends))


def self_closure(d: CrossingDiagram) -> CrossingDiagram:
    """Join the two ends of every open strand, identifying their boundary
    arcs, and renumber the surviving arcs by first appearance in the
    crossing slots (stuck: in1, in2, out1, out2; classical: over, under_in,
    under_out), then untouched arcs in their old order."""
    if not d.open_ends:
        raise ValueError("no open strand ends to close")

    remap = list(range(d.arc_count))

    def root(x: int) -> int:
        while remap[x] != x:
            x = remap[x]
        return x

    for first, last in d.open_ends:
        a, b = root(first), root(last)
        if a != b:
            remap[max(a, b)] = min(a, b)
    resolved = [root(x) for x in range(d.arc_count)]
    number: dict[int, int] = {}
    for c in d.crossings:
        for a in c.arcs():
            number.setdefault(resolved[a], len(number))
    new = [number.setdefault(r, len(number)) for r in resolved]
    crossings = tuple(type(c)(c.sign, *(new[a] for a in c.arcs())) for c in d.crossings)
    return CrossingDiagram(len(number), crossings, ())


def arc_presentation(a: ArcDiagram) -> Presentation:
    """The presentation of a folding: convert, close, then compile."""
    return compile_diagram(self_closure(to_crossing_diagram(a)))


def folding_invariant(a: ArcDiagram, X: FiniteStuquandle) -> PolynomialMultiset:
    """phi of the folding's presentation over X."""
    return phi_invariant(arc_presentation(a), X)
