"""Finite stuquandles, stuck-link coloring invariants, and arc-diagram tools."""

from .algebra import (
    DEFINING,
    FiniteStuquandle,
    Subset,
    affine_stuquandle,
    alexander_stuquandle,
    build_stuquandle,
    is_isomorphic,
    substuquandle_closure,
    table_from,
)
from .errors import (
    AxiomViolation,
    NonBijectiveColumn,
    NonUnit,
    NotClosed,
    StuquandleError,
    UnknownFixture,
)
from .polynomial import (
    QP_VARS,
    STU_VARS,
    Polynomial,
    PolynomialMultiset,
    parse_polynomial,
    quandle_polynomial,
    stuquandle_polynomial,
    substuquandle_polynomial,
)
from .presentation import (
    OPS,
    R1,
    R2,
    R3,
    R4,
    STAR,
    STAR_INV,
    Classical,
    CrossingDiagram,
    Presentation,
    Relation,
    Stuck,
    add_kink,
    coloring_image,
    compare_invariants,
    compile_diagram,
    counting_invariant,
    enumerate_colorings,
    phi_invariant,
)
from .rna import (
    ArcDiagram,
    StrandCrossing,
    Stripe,
    arc_presentation,
    folding_invariant,
    self_closure,
    to_crossing_diagram,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
