"""Reference implementations used as independent oracles by the tests.

Everything here works straight off the raw operation tables with plain
loops, sharing no code path with the module under test.
"""

import itertools

OP_TABLES = {
    "*": lambda X: X.star,
    "~*": lambda X: X.star_inv,
    "R1": lambda X: X.r1,
    "R2": lambda X: X.r2,
    "R3": lambda X: X.r3,
    "R4": lambda X: X.r4,
}


def sweep_colorings(pres, X):
    """Full |X|^g sweep, keeping assignments that satisfy every relation."""
    rels = [(r.out, OP_TABLES[r.op](X), r.lhs, r.rhs) for r in pres.relations]
    found = []
    for assign in itertools.product(range(X.n), repeat=pres.generator_count):
        if all(assign[out] == rows[assign[lhs]][assign[rhs]] for out, rows, lhs, rhs in rels):
            found.append(assign)
    return found


def closure_by_iteration(X, seed):
    """Grow a subset to a fixpoint under all six operations."""
    members = set(seed)
    tables = [fn(X) for fn in OP_TABLES.values()]
    while True:
        grown = set(members)
        for rows in tables:
            for x in members:
                for y in members:
                    grown.add(rows[x][y])
        if grown == members:
            return tuple(sorted(members))
        members = grown


def is_closed(X, members):
    members = set(members)
    for fn in OP_TABLES.values():
        rows = fn(X)
        for x in members:
            for y in members:
                if rows[x][y] not in members:
                    return False
    return True


def count_profile(X, x):
    """(r, c) count vectors straight from the five tables."""
    tables = [X.star, X.r1, X.r2, X.r3, X.r4]
    r = tuple(sum(1 for y in range(X.n) if rows[x][y] == x) for rows in tables)
    c = tuple(sum(1 for y in range(X.n) if rows[y][x] == y) for rows in tables)
    return r, c


def equations(n, star, r1, r2, r3, r4):
    """The twelve equations in the verifier's order, as (axiom id, arity,
    holds) with holds(*witness) true where the equation holds.

    ~* is inverted here column by column, so the columns of star must be
    bijections.
    """
    sinv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            sinv[star[x][y]][y] = x
    s, si = star, sinv
    return (
        # (x * y) * z = (x * z) * (y * z)
        ("quandle-i", 3, lambda x, y, z: s[s[x][y]][z] == s[s[x][z]][s[y][z]]),
        # x * x = x
        ("quandle-iii", 1, lambda x: s[x][x] == x),
        # R1(x ~* y, z) * y = R1(x, z * y)
        ("eq1", 3, lambda x, y, z: s[r1[si[x][y]][z]][y] == r1[x][s[z][y]]),
        # R2(x ~* y, z) = R2(x, z * y) ~* y
        ("eq2", 3, lambda x, y, z: r2[si[x][y]][z] == si[r2[x][s[z][y]]][y]),
        # (y ~* R1(x, z)) * x = (y * R2(x, z)) ~* z
        ("eq3", 3, lambda x, y, z: s[si[y][r1[x][z]]][x] == si[s[y][r2[x][z]]][z]),
        # R2(x, y) = R1(y, x * y)
        ("eq4", 2, lambda x, y: r2[x][y] == r1[y][s[x][y]]),
        # R1(x, y) * R2(x, y) = R2(y, x * y)
        ("eq5", 2, lambda x, y: s[r1[x][y]][r2[x][y]] == r2[y][s[x][y]]),
        # R3(y, x) * R4(y, x) = R4(x * y, y)
        ("eq6", 2, lambda x, y: s[r3[y][x]][r4[y][x]] == r4[s[x][y]][y]),
        # R4(y, x) = R3(x * y, y)
        ("eq7", 2, lambda x, y: r4[y][x] == r3[s[x][y]][y]),
        # R3(y * x, z) = R3(y, z ~* x) * x
        ("eq8", 3, lambda x, y, z: r3[s[y][x]][z] == s[r3[y][si[z][x]]][x]),
        # R4(y, z ~* x) = R4(y * x, z) ~* x
        ("eq9", 3, lambda x, y, z: r4[y][si[z][x]] == si[r4[s[y][x]][z]][x]),
        # (x * R4(y, z)) ~* y = (x ~* R3(y, z)) * z
        ("eq10", 3, lambda x, y, z: si[s[x][r4[y][z]]][y] == s[si[x][r3[y][z]]][z]),
    )


def first_failure(n, arity, holds):
    """The first witness in product order where holds is false, or None."""
    for witness in itertools.product(range(n), repeat=arity):
        if not holds(*witness):
            return witness
    return None


def first_violation(n, star, r1, r2, r3, r4):
    """The first failing check in the verifier's order, from raw row lists.

    Returns ("column", (y,)) for the first non-bijective column of *,
    (axiom id, witness) for the first failing axiom, or None when all
    thirteen hold.
    """
    for y in range(n):
        if sorted(star[x][y] for x in range(n)) != list(range(n)):
            return ("column", (y,))
    for axiom, arity, holds in equations(n, star, r1, r2, r3, r4):
        witness = first_failure(n, arity, holds)
        if witness is not None:
            return (axiom, witness)
    return None


def carries_tables(f, X, Y):
    """True iff f(op_X(a, b)) == op_Y(f(a), f(b)) for the five defining
    tables and every a, b of X."""
    tables = [(X.star, Y.star), (X.r1, Y.r1), (X.r2, Y.r2), (X.r3, Y.r3), (X.r4, Y.r4)]
    for tx, ty in tables:
        for a in range(X.n):
            for b in range(X.n):
                if f[tx[a][b]] != ty[f[a]][f[b]]:
                    return False
    return True


def first_isomorphism(X, Y):
    """The lexicographically first bijection X -> Y that carries every
    defining table, trying all permutations in order; None if none does."""
    if X.n != Y.n:
        return None
    for f in itertools.permutations(range(Y.n)):
        if carries_tables(f, X, Y):
            return f
    return None
