"""Reference computations that check the CLI's outputs.

Everything here works on the raw JSON documents that the benchmark hands
to the program (lists of table rows, lists of relations, arc-diagram
entries) with plain loops. None of it imports the package under test, so a
change to `src/` cannot change what these functions expect.
"""

from __future__ import annotations

import itertools
import json
import re

TABLE_KEYS = ("star", "r1", "r2", "r3", "r4")
OP_KEYS = {"*": "star", "R1": "r1", "R2": "r2", "R3": "r3", "R4": "r4"}
STU_VARS = ("s1", "t1", "s2", "t2", "s3", "t3", "s4", "t4", "s5", "t5")


# ---------------------------------------------------------------- structures

def column_inverse(star: list[list[int]]) -> list[list[int]]:
    """The ~* table: inv[v][y] is the x with star[x][y] == v."""
    n = len(star)
    inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            inv[star[x][y]][y] = x
    return inv


def op_tables(doc: dict) -> dict[str, list[list[int]]]:
    """Rows of all six relation operations, ~* derived from *."""
    tables = {op: doc[key] for op, key in OP_KEYS.items()}
    tables["~*"] = column_inverse(doc["star"])
    return tables


def full_scan_evals(n: int) -> int:
    """Axiom instances a passing structure needs: n^2 column cells,
    n^3 + n quandle instances, 4 pair axioms and 6 triple axioms."""
    return n * n + n ** 3 + n + 4 * n * n + 6 * n ** 3


def first_violation(doc: dict):
    """(error message, instances evaluated) for the first failing axiom
    instance, or (None, full count) when all thirteen axioms hold.

    Scan order: the columns of *, then quandle-i, quandle-iii, eq1..eq10,
    each over its variables in itertools.product order.
    """
    n = doc["n"]
    S, R1, R2, R3, R4 = (doc[k] for k in TABLE_KEYS)
    evals = 0
    for y in range(n):
        seen = set()
        for x in range(n):
            evals += 1
            if S[x][y] in seen:
                return f"column {y} of the * table is not a bijection", evals
            seen.add(S[x][y])
    I = column_inverse(S)
    pair = {
        "eq4": lambda x, y: R2[x][y] == R1[y][S[x][y]],
        "eq5": lambda x, y: S[R1[x][y]][R2[x][y]] == R2[y][S[x][y]],
        "eq6": lambda x, y: S[R3[y][x]][R4[y][x]] == R4[S[x][y]][y],
        "eq7": lambda x, y: R4[y][x] == R3[S[x][y]][y],
    }
    triple = {
        "quandle-i": lambda x, y, z: S[S[x][y]][z] == S[S[x][z]][S[y][z]],
        "eq1": lambda x, y, z: S[R1[I[x][y]][z]][y] == R1[x][S[z][y]],
        "eq2": lambda x, y, z: R2[I[x][y]][z] == I[R2[x][S[z][y]]][y],
        "eq3": lambda x, y, z: S[I[y][R1[x][z]]][x] == I[S[y][R2[x][z]]][z],
        "eq8": lambda x, y, z: R3[S[y][x]][z] == S[R3[y][I[z][x]]][x],
        "eq9": lambda x, y, z: R4[y][I[z][x]] == I[R4[S[y][x]][z]][x],
        "eq10": lambda x, y, z: I[S[x][R4[y][z]]][y] == S[I[x][R3[y][z]]][z],
    }
    order = ("quandle-i", "quandle-iii", "eq1", "eq2", "eq3", "eq4", "eq5",
             "eq6", "eq7", "eq8", "eq9", "eq10")
    for axiom in order:
        if axiom == "quandle-iii":
            ok, arity = (lambda x: S[x][x] == x), 1
        elif axiom in pair:
            ok, arity = pair[axiom], 2
        else:
            ok, arity = triple[axiom], 3
        for point in itertools.product(range(n), repeat=arity):
            evals += 1
            if not ok(*point):
                spot = ", ".join(f"{v}={w}" for v, w in zip("xyz", point))
                return f"axiom {axiom} fails at {spot}", evals
    return None, evals


def profile_monomial(doc: dict, x: int) -> tuple[int, ...]:
    """(r1, c1, ..., r5, c5): r counts y with op(x, y) == x, c counts y
    with op(y, x) == y, over *, R1, R2, R3, R4."""
    n = doc["n"]
    exps = []
    for key in TABLE_KEYS:
        rows = doc[key]
        exps.append(sum(1 for y in range(n) if rows[x][y] == x))
        exps.append(sum(1 for y in range(n) if rows[y][x] == y))
    return tuple(exps)


def render_polynomial(terms: dict[tuple[int, ...], int]) -> str:
    """Canonical text of a polynomial with positive coefficients."""
    chunks = []
    for exps, coeff in sorted(terms.items(), reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(STU_VARS, exps) if e)
        body = str(coeff) if not mono else mono if coeff == 1 else f"{coeff}*{mono}"
        chunks.append(body if not chunks else f"+ {body}")
    return " ".join(chunks) or "0"


def poly_text(doc: dict) -> str:
    """The ten-variable polynomial of a valid structure, rendered."""
    terms: dict[tuple[int, ...], int] = {}
    for x in range(doc["n"]):
        mono = profile_monomial(doc, x)
        terms[mono] = terms.get(mono, 0) + 1
    return render_polynomial(terms)


# -------------------------------------------------------------- colorings

def satisfies(coloring, relations, tables) -> bool:
    return all(coloring[r["out"]] == tables[r["op"]][coloring[r["lhs"]]][coloring[r["rhs"]]]
               for r in relations)


def backtrack_colorings(pres: dict, doc: dict) -> list[tuple[int, ...]]:
    """Every coloring of a presentation, by depth-first search over the
    generators in index order; a relation is tested once its last
    generator is assigned. Meant for carriers of three or four elements."""
    tables = op_tables(doc)
    g = pres["generators"]
    due = [[] for _ in range(g)]
    for r in pres["relations"]:
        due[max(r["out"], r["lhs"], r["rhs"])].append(
            (r["out"], tables[r["op"]], r["lhs"], r["rhs"]))
    assign = [0] * g
    found = []

    def extend(i):
        if i == g:
            found.append(tuple(assign))
            return
        for v in range(doc["n"]):
            assign[i] = v
            if all(assign[o] == rows[assign[a]][assign[b]] for o, rows, a, b in due[i]):
                extend(i + 1)

    extend(0)
    return found


def color_text(colorings) -> str:
    lines = [" ".join(map(str, c)) for c in colorings]
    lines.append(f"count {len(colorings)}")
    return "\n".join(lines) + "\n"


def linear_coefficients(rows: list[list[int]]):
    """(p, q) with rows[x][y] == p*x + q*y mod n everywhere, else None."""
    n = len(rows)
    p, q = rows[1 % n][0] % n, rows[0][1 % n] % n
    for x in range(n):
        for y in range(n):
            if rows[x][y] != (p * x + q * y) % n:
                return None
    return p, q


def _prime_powers(n: int):
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
        p += 1


def _local_solution_count(rows, width: int, p: int, e: int) -> int:
    """Solutions of rows . x == 0 over Z/p^e: eliminate on the entry of
    least p-adic valuation, which divides every other entry."""
    mod = p ** e
    rows = [[v % mod for v in r] for r in rows]
    rows = [r for r in rows if any(r)]
    free = set(range(width))
    count = 1
    while rows:
        best = None
        for i, r in enumerate(rows):
            for j in free:
                if r[j]:
                    v, val = r[j], 0
                    while v % p == 0:
                        v //= p
                        val += 1
                    if best is None or val < best[0]:
                        best = (val, i, j)
        val, i, j = best
        pivot = rows.pop(i)
        unit = pow(pivot[j] // p ** val, -1, mod)
        pivot = [v * unit % mod for v in pivot]
        for r in rows:
            m = r[j] // p ** val
            if m:
                for k in range(width):
                    r[k] = (r[k] - m * pivot[k]) % mod
        free.discard(j)
        count *= p ** val
        rows = [r for r in rows if any(r)]
    return count * mod ** len(free)


def linear_coloring_count(pres: dict, doc: dict) -> int:
    """Number of colorings by a structure whose six tables are all
    homogeneous linear maps mod n: the size of the kernel of the
    relation matrix, counted prime power by prime power."""
    n = doc["n"]
    coeffs = {op: linear_coefficients(rows) for op, rows in op_tables(doc).items()}
    if None in coeffs.values():
        raise ValueError("structure is not linear")
    g = pres["generators"]
    matrix = []
    for r in pres["relations"]:
        p, q = coeffs[r["op"]]
        row = [0] * g
        row[r["out"]] += 1
        row[r["lhs"]] -= p
        row[r["rhs"]] -= q
        matrix.append(row)
    count = 1
    for p, e in _prime_powers(n):
        count *= _local_solution_count(matrix, g, p, e)
    return count


_PHI_TERM = re.compile(r"(\d+)\*u\^\{([^{}]*)\}")


def phi_total(text: str):
    """Sum of the multiplicities of a rendered multiset, or None when the
    text is not a sorted sum of distinct k*u^{...} terms."""
    text = text.rstrip("\n")
    if text == "0":
        return 0
    terms = [(body, int(k)) for k, body in _PHI_TERM.findall(text)]
    rebuilt = " + ".join(f"{k}*u^{{{body}}}" for body, k in terms)
    bodies = [body for body, _ in terms]
    if rebuilt != text or bodies != sorted(set(bodies)):
        return None
    return sum(k for _, k in terms)


# ------------------------------------------------------------- arc diagrams

def convert_arc(doc: dict) -> dict:
    """Presentation of an arc diagram, as documented: each stripe becomes a
    stuck crossing, stripe ends and under-passages cut a strand into arcs,
    each strand's last arc is joined to its first, and the surviving arcs
    are numbered by first appearance in the crossing slots (stuck:
    in1 in2 out1 out2; classical: over under_in under_out), then any arc
    no crossing touches."""
    strands, stripes = doc["strands"], doc["stripes"]
    classicals = doc.get("classicals", [])
    events = [[] for _ in range(strands)]
    for i, (sa, sb, pa, pb, _sign) in enumerate(stripes):
        events[sa].append((pa, "end", (i, 0)))
        events[sb].append((pb, "end", (i, 1)))
    for i, (os_, op_, us, up, _sign) in enumerate(classicals):
        events[us].append((up, "under", i))
        events[os_].append((op_, "over", i))
    cut: dict = {}
    over: dict = {}
    joined: dict[int, int] = {}
    arcs = 0
    for s in range(strands):
        first = current = arcs
        arcs += 1
        for _pos, kind, key in sorted(events[s], key=lambda ev: ev[0]):
            if kind == "over":
                over[key] = current
                continue
            cut[(kind, key)] = (current, arcs)
            current = arcs
            arcs += 1
        if current != first:
            joined[current] = first
    crossings = []
    for i, st in enumerate(stripes):
        (in1, out1), (in2, out2) = cut[("end", (i, 0))], cut[("end", (i, 1))]
        crossings.append((st[4], (in1, in2, out1, out2)))
    for i, c in enumerate(classicals):
        under_in, under_out = cut[("under", i)]
        crossings.append((c[4], (over[i], under_in, under_out)))
    number: dict[int, int] = {}
    for arc in [a for _, slots in crossings for a in slots] + list(range(arcs)):
        number.setdefault(joined.get(arc, arc), len(number))

    def gen(arc):
        return number[joined.get(arc, arc)]

    relations = []
    for sign, slots in crossings:
        if len(slots) == 4:
            in1, in2, out1, out2 = map(gen, slots)
            ops = ("R1", "R2") if sign > 0 else ("R3", "R4")
            relations.append({"out": out1, "op": ops[0], "lhs": in1, "rhs": in2})
            relations.append({"out": out2, "op": ops[1], "lhs": in1, "rhs": in2})
        else:
            over_arc, under_in, under_out = map(gen, slots)
            relations.append({"out": under_out, "op": "*" if sign > 0 else "~*",
                              "lhs": under_in, "rhs": over_arc})
    return {"generators": len(number), "relations": relations}


def convert_output(doc: dict) -> str:
    """Expected stdout of `rna convert` on this arc diagram."""
    return json.dumps(convert_arc(doc), indent=2) + "\n"
