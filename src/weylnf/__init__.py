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

# The public names: those imported above, and no submodule.
__all__ = [
    "AqkReport", "BCResult", "BivarPoly", "ContextMismatchError", "CycloScalar",
    "DivisionByZeroError", "GradedOp", "Hcp", "HcpSeries", "HomogPiece", "HsCheck",
    "NewtonData", "NewtonPoint", "NormalFormResult", "NotAnHcpError", "PairReport",
    "ParseError", "PreconditionError", "PropertyViolation", "SchurPair",
    "StdFormExpansion", "StdWord", "SuiteResult", "SupResult", "TopLineClass",
    "TruncationError", "UndefinedOrderError", "Weight", "WeylnfError", "XdMonomial",
    "ad_pow", "bc_certificate", "check_Aqk", "classify_pair", "classify_top_line",
    "commutator", "convex_hull", "cyclotomic_poly", "e_set", "eigenvalues", "evaluate",
    "evaluate_poly", "expand_power", "expand_power_oracle", "filtration_H",
    "filtration_HS", "fit_hcp", "g_value", "generic_pair", "hcp_mul",
    "hs_coefficient_check", "invert_unit", "kdv_pair", "mono_mul", "named_pair",
    "newton_report", "normal_form", "normal_form_report", "parse", "parse_operator",
    "poly_from_pairs", "render_svg", "run_all", "run_suite", "schur_operator",
    "specialize", "t_block", "to_text", "top_term", "type_identity", "up_edge",
    "weight_of", "weighted_decompose", "xi_pow",
]
