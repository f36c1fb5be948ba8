"""The package as a whole: its runtime imports nothing outside the standard
library, importing it starts no machinery for other processes, and it
exports a fixed public surface."""

import ast
import os
import subprocess
import sys

import weylnf

PACKAGE = os.path.dirname(os.path.abspath(weylnf.__file__))


def _imported_roots(path):
    """The top-level name of every absolute import in the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library_and_weylnf():
    modules = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert "scalars.py" in modules
    foreign = {(name, root) for name in modules
               for root in _imported_roots(os.path.join(PACKAGE, name))
               if root != "weylnf" and root not in sys.stdlib_module_names}
    assert foreign == set()


def test_import_loads_no_process_pool(cli_env):
    code = ("import sys, weylnf; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_surface_is_pinned():
    # A public name leaves, or joins, only by an edit here.
    assert sorted(weylnf.__all__) == [
        "AqkReport", "BCResult", "BivarPoly", "ContextMismatchError", "CycloScalar",
        "DivisionByZeroError", "GradedOp", "Hcp", "HcpSeries", "HomogPiece", "HsCheck",
        "NewtonData", "NewtonPoint", "NormalFormResult", "NotAnHcpError", "PairReport",
        "ParseError", "PreconditionError", "PropertyViolation", "SchurPair",
        "StdFormExpansion", "StdWord", "SuiteResult", "SupResult", "TopLineClass",
        "TruncationError", "UndefinedOrderError", "Weight", "WeylnfError", "XdMonomial",
        "ad_pow", "bc_certificate", "check_Aqk", "classify_pair", "classify_top_line",
        "commutator", "convex_hull", "cyclotomic_poly", "e_set", "eigenvalues",
        "evaluate", "evaluate_poly", "expand_power", "expand_power_oracle",
        "filtration_H", "filtration_HS", "fit_hcp", "g_value", "generic_pair",
        "hcp_mul", "hs_coefficient_check", "invert_unit", "kdv_pair", "mono_mul",
        "named_pair", "newton_report", "normal_form", "normal_form_report", "parse",
        "parse_operator", "poly_from_pairs", "render_svg", "run_all", "run_suite",
        "schur_operator", "specialize", "t_block", "to_text", "top_term",
        "type_identity", "up_edge", "weight_of", "weighted_decompose", "xi_pow",
    ]
