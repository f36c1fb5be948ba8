"""Exact calculus of normal forms for ordinary differential operators.

Graded Weyl-algebra arithmetic over cyclotomic scalars, Schur conjugation
to normal forms, Newton-region analysis with weight filtrations, the
standard-form expansion of (D+L)^k, and a Burchnall-Chaundy commutativity
pipeline, all in exact rational arithmetic with explicit exactness windows.
"""

from .criterion import (
    BCResult,
    BivarPoly,
    HomogPiece,
    HsCheck,
    PairReport,
    bc_certificate,
    classify_pair,
    evaluate_poly,
    hs_coefficient_check,
    type_identity,
    weighted_decompose,
)
from .errors import (
    ContextMismatchError,
    DivisionByZeroError,
    NotAnHcpError,
    ParseError,
    PreconditionError,
    PropertyViolation,
    TruncationError,
    UndefinedOrderError,
    WeylnfError,
)
from .fixtures import generic_pair, kdv_pair, named_pair
from .gform import (
    AqkReport,
    Hcp,
    HcpSeries,
    check_Aqk,
    eigenvalues,
    fit_hcp,
    hcp_mul,
)
from .newton import (
    NewtonData,
    NewtonPoint,
    SupResult,
    TopLineClass,
    Weight,
    classify_top_line,
    convex_hull,
    e_set,
    filtration_H,
    filtration_HS,
    newton_report,
    render_svg,
    top_term,
    up_edge,
    weight_of,
)
from .operators import (
    GradedOp,
    XdMonomial,
    ad_pow,
    commutator,
    mono_mul,
    poly_from_pairs,
)
from .parsing import evaluate, parse, parse_operator, to_text
from .powerform import (
    StdFormExpansion,
    StdWord,
    expand_power,
    expand_power_oracle,
    g_value,
    specialize,
    t_block,
)
from .scalars import CycloScalar, cyclotomic_poly, xi_pow
from .schur import (
    NormalFormResult,
    SchurPair,
    invert_unit,
    normal_form,
    normal_form_report,
    schur_operator,
)
from .suites import SuiteResult, run_all, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
