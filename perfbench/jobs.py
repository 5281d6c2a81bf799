"""Seeded job generators for the four benchmark workloads.

Each workload is an endless sequence of cycles. A cycle holds one job per
cost class, so every run, whatever its seed, runs the same mix of job
sizes and its medians and percentiles stay put. The parameters come from
frozen lists (`pools.py`) that were screened once, offline, for bounded
cost; nothing is screened at run time. Within a run no input repeats.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import oracle
import pools


# ------------------------------------------------------------- structures

def tabulate(n: int, fn) -> list[list[int]]:
    return [[fn(x, y) % n for y in range(n)] for x in range(n)]


def _doc(n, *fns) -> dict:
    return {"n": n, **{k: tabulate(n, f) for k, f in zip(oracle.TABLE_KEYS, fns)}}


# The paper's example structures (examples 6.3, 7.1, 7.2 and 7.4).
FACTORS = {
    "X1_ex63": _doc(4, lambda x, y: 3 * x + 2 * y, lambda x, y: 2 * x + 3 * y,
                    lambda x, y: x, lambda x, y: 3 * x + 2 * y, lambda x, y: y),
    "X2_ex63": _doc(4, lambda x, y: x, lambda x, y: y, lambda x, y: x,
                    lambda x, y: y, lambda x, y: x),
    "X_ex71": _doc(4, lambda x, y: 3 * x + 2 * y, lambda x, y: x + 2 * y * y,
                   lambda x, y: 2 * x * x + y, lambda x, y: 3 * x, lambda x, y: 2 * x + y),
    "X_ex72": _doc(3, lambda x, y: x, lambda x, y: 2 * y * y, lambda x, y: 2 * x * x,
                   lambda x, y: 2 * x + 2 * x * x, lambda x, y: 2 * y + 2 * y * y),
    "X_ex74": _doc(4, lambda x, y: x, lambda x, y: 3 * x + y, lambda x, y: x + 3 * y,
                   lambda x, y: x + 2 * y, lambda x, y: 2 * x + y),
}


def affine_doc(n: int, a: int, b: int, e: int) -> dict:
    """The linear family over Z_n (a a unit)."""
    return _doc(n, lambda x, y: a * x + (1 - a) * y,
                lambda x, y: b * x + (1 - b) * y,
                lambda x, y: a * (1 - b) * x + (1 - a * (1 - b)) * y,
                lambda x, y: (1 - e) * x + e * y,
                lambda x, y: (1 - a * (1 - e)) * x + a * (1 - e) * y)


def product_doc(left: dict, right: dict, sigma) -> dict:
    """Direct product, element (u, v) coded as u*|right| + v, then moved
    along the bijection sigma of the carrier."""
    m = right["n"]
    n = left["n"] * m
    doc = {"n": n}
    for key in oracle.TABLE_KEYS:
        L, R = left[key], right[key]
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                rows[sigma[x]][sigma[y]] = sigma[L[x // m][y // m] * m + R[x % m][y % m]]
        doc[key] = rows
    return doc


def _units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


# ------------------------------------------------------------------- jobs

@dataclass
class Job:
    """One CLI invocation: `argv` names files by key of `files`."""

    argv: list[str]
    # file name -> JSON document; after write(), the path it was written to
    files: dict[str, dict | str]
    # True when the structure is valid by construction (family or product
    # of valid structures); None when a tampered copy must be scanned.
    valid: bool | None = None
    # color jobs: (left factor, right factor, sigma) of the product target
    factors: tuple | None = None
    _violation: tuple | None = field(default=None, repr=False)

    def write(self, folder: Path, tag: str) -> list[str]:
        """Write the documents, keep only their paths (so a run does not
        hold every input in memory), and return argv with real paths."""
        for name, doc in self.files.items():
            path = folder / f"{tag}-{name}"
            path.write_text(json.dumps(doc))
            self.files[name] = str(path)
        return [self.files.get(a, a) for a in self.argv]

    def doc(self, key: str) -> dict:
        return json.loads(Path(self.files[key]).read_text())

    def violation(self):
        """(message or None, axiom instances the documented scan visits)."""
        if self._violation is None:
            X = self.doc("X.json")
            if self.valid:
                self._violation = (None, oracle.full_scan_evals(X["n"]))
            else:
                self._violation = oracle.first_violation(X)
        return self._violation

    def check(self, code, out, out_sha, err) -> str | None:
        """None if the output is right, else a one-line reason."""
        cmd = self.argv[0]
        if cmd in ("verify", "poly"):
            message, _ = self.violation()
            X = self.doc("X.json")
            if message is not None:
                want = (2, "", f"error: {message}\n")
            elif cmd == "verify":
                want = (0, f"valid stuquandle: n={X['n']}, 13 axioms hold\n", "")
            else:
                want = (0, oracle.poly_text(X) + "\n", "")
            got = (code, out, err)
            return None if got == want else f"got {got!r:.200}, want {want!r:.200}"
        if (code, err) != (0, ""):
            return f"exit {code}, stderr {err!r:.200}"
        if cmd == "rna":
            want = oracle.convert_output(self.doc("arc.json"))
            return None if sha(want) == out_sha else "converted presentation differs"
        P, X = self.doc("P.json"), self.doc("X.json")
        if cmd == "phi":
            total, count = oracle.phi_total(out), oracle.linear_coloring_count(P, X)
            return None if total == count else f"phi total {total}, {count} colorings"
        left, right, sigma = self.factors
        pairs = [(u, v) for u in oracle.backtrack_colorings(P, left)
                 for v in oracle.backtrack_colorings(P, right)]
        m = right["n"]
        want = sorted(tuple(sigma[a * m + b] for a, b in zip(u, v)) for u, v in pairs)
        tables = oracle.op_tables(X)
        if not all(oracle.satisfies(c, P["relations"], tables) for c in want):
            return "reference coloring breaks a relation"
        return None if out == oracle.color_text(want) else "coloring list differs"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Fresh:
    """Remembers inputs already handed out in this run."""

    def __init__(self):
        self.seen: set[str] = set()

    def __call__(self, *docs) -> bool:
        key = sha(json.dumps(docs, sort_keys=True))
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


# ------------------------------------------------------------- workloads

VERIFY_SLOTS = (
    ("tamper", 12), ("tamper", 16), ("tamper", 12), ("tamper", 16),
    ("affine", 12), ("product", 12),
    ("affine", 16), ("affine", 16), ("affine", 16),
    ("product", 16), ("product", 16), ("product", 16),
    ("affine", 24), ("affine", 24), ("affine", 24), ("affine", 24),
    ("affine", 32), ("affine", 32), ("affine", 32),
    ("affine", 48),
)
PRODUCTS = {
    12: (("X_ex71", "X_ex72"), ("X_ex72", "X_ex71"), ("X_ex72", "X_ex74"),
         ("X_ex74", "X_ex72"), ("X_ex72", "X1_ex63"), ("X1_ex63", "X_ex72")),
    16: (("X_ex71", "X_ex74"), ("X_ex74", "X_ex71"), ("X_ex71", "X_ex71"),
         ("X_ex71", "X1_ex63"), ("X1_ex63", "X_ex71"), ("X_ex71", "X2_ex63")),
}


def _structure(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "product":
        left, right = rng.choice(PRODUCTS[n])
        sigma = list(range(n))
        rng.shuffle(sigma)
        return product_doc(FACTORS[left], FACTORS[right], sigma)
    return affine_doc(n, rng.choice(_units(n)), rng.randrange(n), rng.randrange(n))


def verify_family(rng: random.Random):
    fresh = _Fresh()
    cycle = 0
    while True:
        batch = []
        for slot, (kind, n) in enumerate(VERIFY_SLOTS):
            cmd = ("verify", "poly")[(slot + cycle) % 2]
            while True:
                if kind == "tamper":
                    doc = _structure(rng, rng.choice(("affine", "product")), n)
                    key = rng.choice(oracle.TABLE_KEYS)
                    x, y = rng.randrange(n), rng.randrange(n)
                    doc[key][x][y] = (doc[key][x][y] + rng.randrange(1, n)) % n
                else:
                    doc = _structure(rng, kind, n)
                if fresh(doc):
                    break
            batch.append(Job([cmd, "X.json"], {"X.json": doc},
                             valid=None if kind == "tamper" else True))
        yield batch
        cycle += 1


def strand_diagram(strands: int, layout: str, signs: str) -> dict:
    """k = len(signs) stripes on one strand (nested: i with 2k-1-i;
    interleaved: i with i+k) or between two strands (nested: i with k-1-i;
    interleaved: i with i)."""
    k = len(signs)
    sign = [1 if s == "+" else -1 for s in signs]
    if strands == 1:
        ends = [(i, 2 * k - 1 - i) if layout == "nested" else (i, i + k) for i in range(k)]
        stripes = [[0, 0, 10 * p, 10 * q, s] for (p, q), s in zip(ends, sign)]
    else:
        ends = [(i, k - 1 - i) if layout == "nested" else (i, i) for i in range(k)]
        stripes = [[0, 1, 10 * p, 10 * q, s] for (p, q), s in zip(ends, sign)]
    return {"strands": strands, "stripes": stripes}


def _stratified(rng: random.Random, pool, classes: int):
    """Endless cycles taking one random entry from each of `classes`
    equal slices of the pool sorted by screened cost. Without replacement
    until a slice runs dry, then the cycles stop."""
    ranked = sorted(pool, key=lambda entry: entry[-1])
    size = len(ranked) // classes
    slices = [ranked[i * size:(i + 1) * size] for i in range(classes)]
    for s in slices:
        rng.shuffle(s)
    while all(slices):
        yield [s.pop() for s in slices]


def phi_affine(rng: random.Random):
    for entries in _stratified(rng, pools.PHI, pools.PHI_CLASSES):
        batch = []
        for strands, layout, signs, n, a, b, e, _ms in entries:
            pres = oracle.convert_arc(strand_diagram(strands, layout, signs))
            batch.append(Job(["phi", "P.json", "X.json"],
                             {"P.json": pres, "X.json": affine_doc(n, a, b, e)}, valid=True))
        yield batch


def color_nonlinear(rng: random.Random):
    fresh = _Fresh()
    while True:
        for entries in _stratified(rng, pools.COLOR, pools.COLOR_CLASSES):
            batch = []
            for arc, left, right, _ms in entries:
                pres = oracle.convert_arc(arc)
                n = FACTORS[left]["n"] * FACTORS[right]["n"]
                while True:
                    sigma = list(range(n))
                    rng.shuffle(sigma)
                    X = product_doc(FACTORS[left], FACTORS[right], sigma)
                    if fresh(pres, X):
                        break
                batch.append(Job(["color", "P.json", "X.json"], {"P.json": pres, "X.json": X},
                                 valid=True, factors=(FACTORS[left], FACTORS[right], sigma)))
            yield batch


# Strand counts: each cycle draws one from each of RNA_CLASSES equal
# slices of this range, so the sizes a run sees are spread evenly and no
# percentile sits on a jump between two fixed sizes.
RNA_STRANDS = (200, 1500)
RNA_CLASSES = 10


def random_arc_diagram(rng: random.Random, strands: int) -> dict:
    """Six bond sites per strand: 2 stripes and 1 classical crossing per
    strand on average, joining sites of random strands."""
    sites = [(s, p) for s in range(strands) for p in rng.sample(range(100), 6)]
    rng.shuffle(sites)
    pairs = [sites[i] + sites[i + 1] for i in range(0, len(sites), 2)]
    cut = 2 * strands
    stripes = [[sa, sb, pa, pb, rng.choice((1, -1))] for sa, pa, sb, pb in pairs[:cut]]
    classicals = [[so, po, su, pu, rng.choice((1, -1))] for so, po, su, pu in pairs[cut:]]
    return {"strands": strands, "stripes": stripes, "classicals": classicals}


def rna_convert(rng: random.Random):
    lo, hi = RNA_STRANDS
    width = (hi - lo) / RNA_CLASSES
    while True:
        yield [Job(["rna", "convert", "arc.json"],
                   {"arc.json": random_arc_diagram(rng, lo + int(width * (i + rng.random())))})
               for i in range(RNA_CLASSES)]


WORKLOADS = {
    "verify_family": verify_family,
    "phi_affine": phi_affine,
    "color_nonlinear": color_nonlinear,
    "rna_convert": rna_convert,
}
