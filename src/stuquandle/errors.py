"""Exception types shared across the package.

Malformed input of any kind (a bad document, value, index or command line)
raises a plain ValueError, which the CLI ends with exit 1.  The classes
here are the errors that carry a witness or another exit code.
"""


class StuquandleError(Exception):
    """Base class of the package's own errors.

    exit_code is the CLI's exit status for the error: 2 for an axiom or
    closure violation, 3 for an unknown fixture, and for this base 1, the
    status of malformed input.
    """

    exit_code = 1


class NonBijectiveColumn(StuquandleError):
    """Some column of the * table is not a permutation of the carrier."""

    exit_code = 2

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} of the * table is not a bijection")


class AxiomViolation(StuquandleError):
    """An axiom fails; carries the axiom id and the first witness found.

    The witness tuple lists the quantified elements in order, so it has
    length 1 for idempotency, 2 for the pair axioms and 3 otherwise.
    """

    exit_code = 2

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = tuple(witness)
        spot = ", ".join(f"{n}={v}" for n, v in zip("xyz", self.witness))
        super().__init__(f"axiom {axiom} fails at {spot}")


class NonUnit(StuquandleError):
    """A coefficient that must be invertible mod n is not."""

    exit_code = 2

    def __init__(self, value: int, modulus: int):
        self.value = value
        self.modulus = modulus
        super().__init__(f"{value} is not invertible mod {modulus}")


class NotClosed(StuquandleError):
    """A subset is not closed under the five operations."""

    exit_code = 2

    def __init__(self, members, op: str, x: int, y: int, result: int):
        self.members = tuple(members)
        self.op = op
        self.witness = (x, y, result)
        super().__init__(
            f"subset {set(members)} is not closed: {op}({x}, {y}) = {result}"
        )


class UnknownFixture(StuquandleError):
    """No catalog entry with the requested id."""

    exit_code = 3

    def __init__(self, fixture_id: str):
        self.fixture_id = fixture_id
        super().__init__(f"unknown fixture: {fixture_id!r}")

