"""Parser round trips, CLI behavior, exit codes, golden files."""

from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
import io
import json
import os
import subprocess
import sys
import time

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
import pytest

from weylnf import cli, parsing
from weylnf.cli import main
from weylnf.errors import ParseError, PreconditionError
from weylnf.operators import GradedOp
from weylnf.parsing import (MAX_EXPONENT, Add, DSym, GFormLit, Mul, Neg, Num, Pow, Sub, Xi,
                            XSym, evaluate, parse, parse_operator, to_text)
from weylnf.scalars import CycloScalar
from weylnf.suites import SuiteResult

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CORPUS = [
    "d^2 + x",
    "d^3 + (3/2)*x*d + 3/4",
    "G{r=3; f[2,0]=1}",
    "G{r=0; f[1,0]=1/2; f[0,1]=2; g[2]=-1}",
    "x*d",
    "d*x",
    "(d + x)^4",
    "1/2",
    "7",
    "xi^2 + 1",
    "xi*x*d",
    "(x + d)*(x - d)",
    "d^2*x^3",
    "x^5 + d^5",
    "2*x - 3*d",
    "(1/3)*d + (2/7)*x",
    "G{r=1; f[0,0]=1}*d",
    "d*(d*(d*x))",
    "x - x",
    "0",
    "(d^2 + x)^2",
    "d^2 - 2*x*d + x^2",
    "G{r=2; g[1]=1; g[3]=1/2}",
    "x^2*d^2 + x*d + 1",
    "(d + 1)*(d - 1)",
    "3/4 + d",
    "-x",
    "-(d^2 + x)",
    "xi + xi^2",
    "G{r=0; f[0,1]=1+xi}",
    "G{r=0; f[2,1]=-1/2+2*xi^2}",
    "d^10",
    "-(d^2)",
    "(d^2)^3",
    "(-d)^2",
    "x*-d^2",
    "-(-x)^3",
]


@pytest.mark.parametrize("src", CORPUS)
def test_parse_print_round_trip(src):
    ast = parse(src)
    printed = to_text(ast)
    assert parse(printed) == ast


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_evaluates_identically(src):
    a = evaluate(parse(src), k=3, xcap=10)
    b = evaluate(parse(to_text(parse(src))), k=3, xcap=10)
    assert a == b


SCALAR_LEAVES = st.one_of(st.fractions(min_value=0, max_value=9, max_denominator=4).map(Num),
                          st.just(Xi()))


def _branches(children):
    pairs = st.tuples(children, children)
    return st.one_of(pairs.map(lambda ab: Add(*ab)), pairs.map(lambda ab: Sub(*ab)),
                     pairs.map(lambda ab: Mul(*ab)), children.map(Neg),
                     st.tuples(children, st.integers(0, 3)).map(lambda be: Pow(*be)))


SCALAR_ASTS = st.recursive(SCALAR_LEAVES, _branches, max_leaves=6)
GFORM_LITERALS = st.builds(
    GFormLit, st.integers(-2, 3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), SCALAR_ASTS), max_size=2).map(tuple),
    st.lists(st.tuples(st.integers(1, 3), SCALAR_ASTS), max_size=2).map(tuple))
ASTS = st.recursive(SCALAR_LEAVES | st.sampled_from([XSym(), DSym()]) | GFORM_LITERALS,
                    _branches, max_leaves=10)


@given(ASTS)
@settings(max_examples=300, deadline=None)
def test_printed_ast_parses_back(ast):
    # Nested powers past MAX_EXPONENT are refused by the parser, by design.
    assume(parsing._power_weight(ast) <= MAX_EXPONENT)
    assert parse(to_text(ast)) == ast


def test_minus_binds_looser_than_power():
    assert parse("-d^2") == Neg(Pow(DSym(), 2))
    assert parse_operator("-d^2") == -GradedOp.d_op(1, 2)
    assert parse_operator("-xi^2", k=3) == parse_operator("G{r=0; f[0,0]=-xi^2}", k=3)
    A = parse_operator("x - d^2")
    assert str(A) == "-d^2 + x" and parse_operator(str(A)) == A


@st.composite
def total_operators(draw):
    """A total operator over Q(xi_k), k in {1, 2, 3, 5}, whose leading
    monomial (d-degree 5 or 6) has a rational, often negative, coefficient."""
    k = draw(st.sampled_from([1, 2, 3, 5]))
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeff = st.lists(fracs, min_size=k, max_size=k).map(lambda c: CycloScalar(k, c))
    monos = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), coeff), max_size=4))
    lead = (draw(st.integers(0, 2)), draw(st.sampled_from([5, 6])),
            draw(st.sampled_from([-1, -2, Fraction(-1, 2), 1])))
    return GradedOp.from_monomials(k, monos + [lead])


@given(total_operators())
@settings(max_examples=200, deadline=None)
def test_printed_operator_parses_back(A):
    assert parse_operator(str(A), A.k) == A


def test_parse_examples():
    A = parse_operator("d^2 + x")
    assert A == GradedOp.from_monomials(1, [(0, 2, 1), (1, 0, 1)])
    B = parse_operator("d^3 + (3/2)*x*d + 3/4")
    assert B.ord() == 3 and B.is_monic()
    H = parse_operator("G{r=3; f[2,0]=1}", k=2)
    assert H.components[3][2].rational_value() == 1


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse("d^2 + @")
    assert err.value.col == 7


def test_xi_requires_k():
    with pytest.raises(PreconditionError):
        evaluate(parse("xi + d"), k=None)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_eval_and_errors(capsys):
    code, out = run_cli(["eval", "d^2 + x"], capsys)
    assert code == 0 and out.strip() == "d^2 + x"
    code, out = run_cli(["eval", "d^"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "ParseError"
    code, out = run_cli(["eval", "xi"], capsys)
    assert code == 3
    code, out = run_cli(["schur", "--q", "d^2 + d + x", "--depth", "3"], capsys)
    assert code == 3


@pytest.mark.parametrize("k", ["0", "-2"])
def test_cli_bad_cyclotomic_order(k, capsys):
    code, out = run_cli(["eval", "d", "--k", k], capsys)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "PreconditionError"


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "d^9", "--q", "9", "--depth", "4"],
    ["normal-form", "--p", "d^3", "--q", "x", "--depth", "4"],
])
def test_cli_q_of_order_below_one_exits_3(argv, capsys):
    code, out = run_cli(argv, capsys)
    err = json.loads(out)["error"]
    assert code == 3 and err["kind"] == "PreconditionError"
    assert err["message"] == "ord(Q) must be positive"


def test_cli_normal_form_of_a_pair_over_another_field_exits_3(capsys):
    # Q(xi_2) is neither Q nor Q(xi_3): the pair cannot be fitted over Q(xi_3).
    code, out = run_cli(["normal-form", "--k", "2", "--p", "d^5 + x^2*d",
                         "--q", "d^3 + x*d + x^2", "--depth", "4"], capsys)
    assert code == 3
    assert json.loads(out) == {"error": {
        "code": 3, "kind": "ContextMismatchError",
        "message": "can only lift from the rational context, not k=2"}}


def test_cli_failed_suite_ends_with_a_json_error(monkeypatch, capsys):
    def planted(name, cases, seed):
        return SuiteResult(name=name, cases=cases, failures=["case 0: planted violation"])

    monkeypatch.setattr(cli, "run_suite", planted)
    code, out = run_cli(["verify", "--suite", "filtration", "--cases", "1"], capsys)
    lines = out.splitlines()
    assert code == 5
    assert lines[:2] == ["suite filtration: 1 cases: FAILED (1 violations)",
                         "  case 0: planted violation"]
    err = json.loads(lines[-1])["error"]
    assert err["kind"] == "PropertyViolation" and err["code"] == 5
    assert "filtration" in err["message"]


def _newton_with_scalar(scalar, tmp_path, capsys):
    """Exit code and JSON error of ``newton`` on the golden normal form with
    its first G-form scalar replaced by ``scalar``."""
    with open(os.path.join(GOLDEN, "normal_form_generic.json")) as fh:
        data = json.load(fh)
    data["series"]["components"]["0"]["f"][0][2] = scalar
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(data))
    code, out = run_cli(["newton", "--input", str(inp)], capsys)
    return code, json.loads(out)["error"]


def test_cli_newton_bad_scalar_in_input(tmp_path, capsys):
    code, err = _newton_with_scalar("1/0", tmp_path, capsys)
    assert code == 2 and err["kind"] == "ParseError"


@pytest.mark.parametrize("scalar, code, message", [
    ("xi^99", 3, "exponent 99 at line 1, col 4 exceeds the maximum 64"),
    ("0.5", 2, "unexpected character '.' (line 1, col 2)"),
    ("+1", 2, "expected an atom, got '+' (line 1, col 1)"),
    ("2*x", 2, "expected a scalar, got 'x' (line 1, col 3)"),
], ids=["xi^99", "0.5", "+1", "2*x"])
def test_cli_newton_input_scalars_use_the_operator_grammar(scalar, code, message, tmp_path,
                                                           capsys):
    got, err = _newton_with_scalar(scalar, tmp_path, capsys)
    assert (got, err["message"]) == (code, message)


@pytest.mark.parametrize("argv, code, out", [
    (["eval", "--", "-d^2"], 0, "-d^2"),
    (["eval", "--", "-x^2*d + d"], 0, "d - x^2*d"),
    (["eval", "G{r=0; f[0,0]=xi}"], 3,
     {"kind": "PreconditionError", "message": "xi used without a cyclotomic order (--k)"}),
    (["eval", "G{r=0; f[0,0]=x}"], 2,
     {"kind": "ParseError", "message": "expected a scalar, got 'x' (line 1, col 15)"}),
    (["eval", "G{r=0; g[1]=G{r=0}}"], 2,
     {"kind": "ParseError", "message": "expected a scalar, got 'G' (line 1, col 13)"}),
], ids=["-d^2", "-x^2*d+d", "gform-xi", "gform-x", "gform-G"])
def test_cli_eval_one_grammar(argv, code, out, capsys):
    got, text = run_cli(argv, capsys)
    assert got == code
    if code:
        err = json.loads(text)["error"]
        assert {key: err[key] for key in out} == out
    else:
        assert text.strip() == out


def test_cli_eval_sum_with_a_negative_cap_on_an_empty_order(capsys):
    # d^5 * G{r=0; f[0,1]=1} at xcap 2 is nothing but negative caps on empty
    # orders; adding x to it once raised KeyError in GradedOp.__add__.
    argv = ["eval", "--k", "2", "--xcap", "2", "d^5*G{r=0; f[0,1]=1} + x"]
    assert run_cli(argv, capsys) == (0, "x\n")


def _newton_error(path, capsys):
    code, out = run_cli(["newton", "--input", str(path)], capsys)
    return code, json.loads(out)["error"]


def test_cli_newton_input_not_json(tmp_path, capsys):
    inp = tmp_path / "bad.json"
    inp.write_text('{"series": ')
    code, err = _newton_error(inp, capsys)
    assert code == 2 and err["kind"] == "ParseError"


@pytest.mark.parametrize("series", [{"k": 2, "floor": 0, "top": 3},
                                    {"k": 2, "components": {"0": 5}},
                                    {"k": 2, "components": {}, "floor": "a"},
                                    {"k": 2, "components": {"0": {"r": 0, "f": [[0, 0]]}}}])
def test_cli_newton_input_without_components(series, tmp_path, capsys):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps({"series": series}))
    code, err = _newton_error(inp, capsys)
    assert code == 2 and err["kind"] == "ParseError"


def test_cli_newton_input_order_over_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.HcpSeries, "from_dict", _no_work)
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps({"series": {"k": cli.MAX_K + 1, "components": {}}}))
    code, err = _newton_error(inp, capsys)
    assert code == 3 and err["kind"] == "PreconditionError"
    assert "exceeds the maximum" in err["message"]


def test_cli_newton_missing_input(tmp_path, capsys):
    code, err = _newton_error(tmp_path / "absent.json", capsys)
    assert code == 3 and err["kind"] == "PreconditionError"


def test_cli_schur_explicit_xcap_equal_to_default(capsys):
    argv = ["schur", "--q", "d^2 + x", "--depth", "2", "--format", "json"]
    assert json.loads(run_cli(argv, capsys)[1])["xcap"] == 26
    for xcap in (16, 17):
        code, out = run_cli(argv + ["--xcap", str(xcap)], capsys)
        assert code == 0 and json.loads(out)["xcap"] == xcap


@pytest.mark.parametrize("args, first", [
    (["schur", "--q", "d^3 + x*d + x^2", "--depth", "32", "--xcap", "128"],
     "S (verified=True, depth=32):"),
    (["eval", "--xcap", "256", "(d + x)^64"], "d^64 + 64*x*d^63 + 2016*d^62 + 2016*x^2*d^62 + "),
    (["normal-form", "--p", "d^7 + x^3*d^2 + x", "--q", "d^5 + x^2*d", "--depth", "64"], "{\n"),
    (["classify", "--fixture", "generic", "--depth", "64"], "commutes: False\n"),
    (["bc-find", "--fixture", "kdv48", "--wmax", "64", "--depth", "16"], "X^2 - Y^3 - 1/16\n"),
    # The non-commuting search that adds rows through _restrict.
    (["bc-find", "--fixture", "generic", "--wmax", "30", "--depth", "8"], "none\n"),
], ids=["schur", "eval", "normal-form", "classify", "bc-find", "bc-find-restrict"])
def test_cli_wide_corner_stays_fast(cli_env, args, first):
    # A guard against an order-of-magnitude slowdown of one command family,
    # not a benchmark: each run takes under 1 s on a 2-CPU host.
    argv = [sys.executable, "-m", "weylnf", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=cli_env, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0 and proc.stdout.startswith(first)
    assert elapsed < 15, f"{args[0]} corner took {elapsed:.1f} s"


def test_cli_mul_commutator(capsys):
    code, out = run_cli(["mul", "d", "x"], capsys)
    assert code == 0 and out.strip() == "x*d + 1"
    code, out = run_cli(["commutator", "d^2", "x"], capsys)
    assert code == 0 and out.strip() == "2*d"


@pytest.mark.parametrize("argv, last", [
    (["bc-find", "--wmax", "3", "--depth", "2"], "none"),
    (["bc-find", "--wmax", "6", "--depth", "2"], "X^2 - 2*X*Y + X + Y^2 - Y + 1"),
    (["classify", "--depth", "4"],
     "verdict: commuting pair; Burchnall-Chaundy certificate "
     "X^2 - 2*X*Y + X + Y^2 - Y + 1 (window-verified)"),
])
def test_cli_certificate_over_q_xi_is_rational(argv, last, capsys):
    code, out = run_cli(argv + ["--k", "3", "--p", "d^3 + xi", "--q", "d^3"], capsys)
    assert code == 0 and out.splitlines()[-1] == last


def test_cli_verify_small(capsys):
    code, out = run_cli(["verify", "--suite", "powerform", "--cases", "4", "--seed", "1"],
                        capsys)
    assert code == 0
    assert "suite powerform: 4 cases: ok" in out


@pytest.mark.parametrize("argv", [
    ["bc-find", "--fixture", "kdv24", "--wmax", "-2", "--depth", "4"],
    ["bc-find", "--fixture", "kdv24", "--wmax", "4", "--depth", "-1"],
    ["classify", "--fixture", "generic", "--wmax", "-1", "--depth", "4"],
    ["verify", "--suite", "filtration", "--cases", "-3"],
    ["schur", "--q", "d^2+x", "--depth", "2", "--xcap", "-1"],
    ["eval", "G{r=0; f[0,1]=1}", "--k", "2", "--xcap", "-1"],
    ["normal-form", "--depth", "3"],
    ["classify", "--p", "d^3 + x", "--depth", "3"],
    ["bc-find", "--p", "1", "--q", "d", "--wmax", "3", "--depth", "2"],
    ["bc-find", "--p", "d", "--q", "1", "--wmax", "3", "--depth", "2"],
    ["classify", "--p", "1", "--q", "d^2", "--depth", "3"],
    ["classify", "--p", "1 + x", "--q", "d^2", "--depth", "3"],
])
def test_cli_bad_arguments_exit_3(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "PreconditionError"


def _no_work(*args, **kwargs):
    raise AssertionError("work started on an over-limit value")


@pytest.mark.parametrize("argv", [
    ["eval", "d^99999999999999999999"],
    ["eval", f"x*d^{MAX_EXPONENT + 1}"],
    ["eval", "(d^8)^9"],
    ["eval", "((x + d)^2*d^9)^8"],
    ["eval", f"xi^{MAX_EXPONENT + 1}", "--k", "3"],
    ["eval", f"G{{r=0; f[{MAX_EXPONENT + 1},0]=1}}"],
    ["eval", "x", "--xcap", str(cli.MAX_XCAP + 1)],
    ["schur", "--q", "d^2 + x", "--depth", str(cli.MAX_DEPTH + 1)],
    ["schur", "--q", "d^2 + x", "--depth", "4", "--xcap", "10" * 12],
    ["normal-form", "--fixture", "generic", "--depth", str(cli.MAX_DEPTH + 1)],
    ["classify", "--fixture", "generic", "--depth", "9" * 20],
    ["bc-find", "--fixture", "kdv24", "--wmax", "4", "--depth", str(cli.MAX_DEPTH + 1)],
    ["bc-find", "--fixture", "kdv24", "--wmax", str(cli.MAX_WMAX + 1), "--depth", "4"],
    ["classify", "--fixture", "generic", "--wmax", str(cli.MAX_WMAX + 1), "--depth", "4"],
    ["eval", "x", "--k", str(cli.MAX_K + 1)],
    ["normal-form", "--p", "d^3", "--q", "d^2", "--depth", "4", "--k", str(cli.MAX_K + 1)],
    ["expand-power", "--k", str(cli.MAX_POWER + 1)],
    ["expand-power", "--k", str(cli.MAX_POWER + 1), "--oracle"],
])
def test_cli_over_limit_values_exit_3(argv, monkeypatch, capsys):
    for name in ("schur_operator", "normal_form_report", "classify_pair", "bc_certificate",
                 "named_pair", "expand_power", "expand_power_oracle"):
        monkeypatch.setattr(cli, name, _no_work)
    monkeypatch.setattr(parsing, "evaluate", _no_work)
    code, out = run_cli(argv, capsys)
    err = json.loads(out)["error"]
    assert code == 3 and err["kind"] == "PreconditionError"
    assert "exceeds the maximum" in err["message"]


# A shortest valid command line of each subcommand, and the shared options it
# takes; any other of those options exits 2.
MINIMAL_ARGV = {
    "eval": (["x"], {"--k", "--xcap", "--format"}),
    "mul": (["d", "x"], {"--k", "--xcap", "--format"}),
    "commutator": (["d", "x"], {"--k", "--xcap", "--format"}),
    "schur": (["--q", "d^2", "--depth", "2"], {"--k", "--xcap", "--format"}),
    "normal-form": (["--fixture", "generic", "--depth", "2"], {"--k", "--xcap"}),
    "newton": (["--input", os.path.join(GOLDEN, "normal_form_generic.json")], set()),
    "classify": (["--fixture", "generic", "--depth", "2"], {"--k", "--xcap", "--format"}),
    "bc-find": (["--fixture", "generic", "--wmax", "2", "--depth", "2"],
                {"--k", "--xcap", "--format"}),
    "expand-power": (["--k", "2"], {"--k"}),
    "verify": (["--suite", "powerform", "--cases", "1"], {"--seed"}),
}
SHARED_OPTIONS = {"--k": "3", "--xcap": "12", "--format": "json", "--seed": "3",
                  "--workers": "2"}


@pytest.mark.parametrize("cmd", sorted(MINIMAL_ARGV))
def test_cli_subcommand_takes_only_the_options_it_reads(cmd, capsys):
    argv, takes = MINIMAL_ARGV[cmd]
    parser = cli.build_parser()
    for option, value in SHARED_OPTIONS.items():
        full = [cmd, *argv, option, value]
        if option in takes:
            parser.parse_args(full)
        else:
            code, out = run_cli(full, capsys)
            assert (code, json.loads(out)["error"]["kind"]) == (2, "UsageError"), full


def test_limits_admit_their_own_value():
    assert parse_operator(f"d^{MAX_EXPONENT}") == GradedOp.d_op(1, MAX_EXPONENT)
    assert parse_operator("(d^8)^8") == GradedOp.d_op(1, 64)
    assert parse(f"(d^{MAX_EXPONENT})^1 + (x^0)^{MAX_EXPONENT} + (1^0)^0")
    parser = cli.build_parser()
    for argv in (["schur", "--q", "d^2", "--depth", str(cli.MAX_DEPTH),
                  "--xcap", str(cli.MAX_XCAP), "--k", str(cli.MAX_K)],
                 ["bc-find", "--fixture", "kdv24", "--wmax", str(cli.MAX_WMAX), "--depth", "4"],
                 ["classify", "--fixture", "generic", "--wmax", str(cli.MAX_WMAX),
                  "--depth", "4"],
                 ["expand-power", "--k", str(cli.MAX_POWER)],
                 # Elsewhere --k is the cyclotomic order, with its own limit.
                 ["eval", "x", "--k", str(cli.MAX_POWER + 1)]):
        cli._check_limits(parser.parse_args(argv))


@pytest.mark.parametrize("argv, code, kind", [
    (["eval", "-x"], 2, "UsageError"),
    (["bogus"], 2, "UsageError"),
    (["eval", "x", "--k", "3a"], 2, "UsageError"),
    (["eval", "9" * 5000], 2, "ParseError"),
    (["eval", "(" * 2000 + "x" + ")" * 2000], 3, "PreconditionError"),
    (["eval", "x*(" * 2000 + "x" + ")" * 2000], 3, "PreconditionError"),
    # A subcommand takes only the options it reads: expand-power prints text
    # only, newton reads a file, verify runs no operator and has no window.
    (["expand-power", "--k", "2", "--format", "json"], 2, "UsageError"),
    (["verify", "--suite", "powerform", "--cases", "1", "--workers", "2"], 2, "UsageError"),
    (["classify", "--fixture", "generic", "--depth", "4", "--seed", "3"], 2, "UsageError"),
    (["newton", "--input", os.path.join(GOLDEN, "normal_form_generic.json"),
      "--format", "json"], 2, "UsageError"),
    (["verify", "--suite", "powerform", "--cases", "1", "--k", "3"], 2, "UsageError"),
])
def test_cli_malformed_input_is_a_json_error(argv, code, kind, capsys):
    got, out = run_cli(argv, capsys)
    err = json.loads(out)["error"]
    assert (got, err["code"], err["kind"]) == (code, code, kind) and err["message"]


def test_flat_chains_evaluate_and_round_trip(capsys):
    # A flat chain parses to a left-nested tree as deep as the chain is long.
    src = "+".join(["x"] * 2001)
    assert parse_operator(src) == parse_operator("2001*x")
    text = to_text(parse(src))
    assert text == " + ".join(["x"] * 2001)
    assert to_text(parse(text)) == text
    mixed = "x" + " - d + x*d" * 1000
    assert parse_operator(mixed) == parse_operator("x - 1000*d + 1000*x*d")
    assert to_text(parse(mixed)) == mixed
    assert parse_operator("(" + src + ")^2") == parse_operator("4004001*x^2")
    assert parse_operator("G{r=0; f[0,0]=" + "+".join(["1"] * 2001) + "}") == \
        parse_operator("2001")
    code, out = run_cli(["eval", "x*" * 2000 + "x"], capsys)
    assert (code, out.strip()) == (0, "x^2001")


# The parser's tokens. MAX_EXPONENT bounds nested powers, so the costliest
# strings of at most 14 of them, such as "(x+xi+d)^64", take about 2 s.
GRAMMAR_TOKENS = [*"0123456789", "x", "d", "xi", "^", "*", "/", "+", "-", "(", ")", " "]


@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=14).map("".join),
       st.sampled_from([None, 1, 3]))
@settings(max_examples=300, deadline=None)
def test_cli_eval_fuzz_ends_in_a_documented_code(expr, k):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["eval", expr] + ([] if k is None else ["--k", str(k)]))
    assert code in (0, 2, 3)
    if code:
        err = json.loads(out.getvalue())["error"]
        assert err["code"] == code and err["message"]


def _frag(*choices):
    """One of ``choices``, each an argv fragment written as one space-separated string."""
    return st.sampled_from([c.split() for c in choices])


def _out(flag, suffix):
    # "{tmp}" stands for the test's directory, in which "absent" does not exist.
    return _frag("", f"{flag} {{tmp}}/out{suffix}", f"{flag} {{tmp}}/absent/out{suffix}")


FUZZ_OPERATOR = st.one_of(
    st.sampled_from(["d^2 + x", "d^3 + x*d + x^2", "d^3 + x", "x*d", "d", "xi*d + x",
                     "d^3 + xi", "d^3", "G{r=1; f[0,1]=1}", "G{r=0; g[2]=1}", "d^", "",
                     "x - x", "1"]),
    st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=6).map("".join))
FUZZ_OPERAND = FUZZ_OPERATOR.map(lambda a: [a])
FUZZ_PAIR = st.one_of(
    st.tuples(FUZZ_OPERATOR, FUZZ_OPERATOR).map(lambda pq: ["--p", pq[0], "--q", pq[1]]),
    _frag("--fixture generic", "--fixture powers", "--fixture airy-like", "--fixture kdv24",
          "--fixture nope"))
FUZZ_DEPTH = _frag("--depth 2", "--depth 4", "--depth 0", "--depth -1")
FUZZ_WMAX = ("--wmax 4", "--wmax 2", "--wmax 0", "--wmax -1")
# Contents of the newton input files, by name; None is the normal-form golden file.
NEWTON_INPUTS = {"golden": None, "not-json": "{", "empty": "{}",
                 "no-components": '{"k": 2, "floor": null, "top": 0}',
                 "zero-series": '{"k": 2, "floor": null, "top": 0, "components": {}}'}
# Per subcommand, the argv fragments drawn in order. Sizes stay small: depth
# and wmax at most 4, at most 2 verify cases.
FUZZ_ARGV = {
    "eval": [FUZZ_OPERAND],
    "mul": [FUZZ_OPERAND, FUZZ_OPERAND],
    "commutator": [FUZZ_OPERAND, FUZZ_OPERAND],
    "schur": [FUZZ_OPERATOR.map(lambda q: ["--q", q]), FUZZ_DEPTH],
    "normal-form": [FUZZ_PAIR, FUZZ_DEPTH, _out("--out", ".json")],
    "newton": [st.sampled_from([*NEWTON_INPUTS, "missing"]).map(
                   lambda name: ["--input", "{tmp}/" + name + ".json"]),
               _out("--svg", ".svg"), _out("--json", ".json")],
    "classify": [FUZZ_PAIR, FUZZ_DEPTH, _frag("", *FUZZ_WMAX),
                 _frag("", "--candidate [[2,0,1],[0,3,-1]]", "--candidate [[", "--candidate {}")],
    "bc-find": [FUZZ_PAIR, _frag(*FUZZ_WMAX), FUZZ_DEPTH],
    "expand-power": [_frag("--k 3", "--k 1", "--k 4", "--k 0", "--k -1", "--k 17"),
                     _frag("", "--oracle"), _frag("", "--format json")],
    "verify": [_frag("--suite filtration", "--suite appendix", "--suite powerform",
                     "--suite all", "--suite nope"),
               _frag("--cases 2", "--cases 1", "--cases 0", "--cases -1"),
               _frag("", "--seed 3")],
}
FUZZ_WINDOW = [_frag("", "--k 1", "--k 3", "--k 0"),
               _frag("", "--xcap 12", "--xcap 6", "--xcap -1")]
FUZZ_FORMAT = [_frag("", "--format json", "--format text")]
# Per subcommand, the shared options it takes (verify's --seed is its own).
FUZZ_SHARED = {cmd: FUZZ_WINDOW + FUZZ_FORMAT
               for cmd in ("eval", "mul", "commutator", "schur", "classify", "bc-find")}
FUZZ_SHARED["normal-form"] = FUZZ_WINDOW


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(sorted(FUZZ_ARGV)))
    return [cmd] + [arg for part in [*FUZZ_ARGV[cmd], *FUZZ_SHARED.get(cmd, [])]
                    for arg in draw(part)]


@given(argv=cli_argv())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_argv_fuzz_ends_in_a_documented_code(argv, tmp_path):
    for name, text in NEWTON_INPUTS.items():
        if text is None:
            with open(os.path.join(GOLDEN, "normal_form_generic.json"), encoding="utf-8") as fh:
                text = fh.read()
        (tmp_path / f"{name}.json").write_text(text)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code:
        err = json.loads(out.getvalue().splitlines()[-1])["error"]
        assert err["code"] == code and err["message"]


def test_cli_expand_power_oracle_mismatch_exits_5(monkeypatch, capsys):
    oracle = cli.expand_power_oracle
    monkeypatch.setattr(cli, "expand_power_oracle", lambda k: oracle(k - 1))
    code, out = run_cli(["expand-power", "--k", "2", "--oracle"], capsys)
    assert code == 5
    assert "match: False" in out
    assert json.loads(out.splitlines()[-1])["error"]["kind"] == "PropertyViolation"


def test_cli_verify_worker_fanout(capsys):
    code, out = run_cli(["verify", "--suite", "appendix", "--cases", "6",
                         "--seed", "9"], capsys)
    assert code == 0
    assert "suite appendix: 6 cases: ok" in out


def test_cli_classify_candidate_table(capsys):
    cand = json.dumps([[2, 0, "1"], [0, 3, "-1"]])
    code, out = run_cli(["classify", "--fixture", "generic", "--depth", "6",
                         "--candidate", cand, "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["typeIdentities"][:3] == [[0, "0"], [1, "2"], [2, "1"]]


def test_cli_classify_candidate_repeated_rows_add_up(capsys):
    def table(rows):
        code, out = run_cli(["classify", "--fixture", "generic", "--depth", "6",
                             "--candidate", json.dumps(rows), "--format", "json"], capsys)
        assert code == 0
        return json.loads(out)["typeIdentities"]

    doubled = table([[2, 0, 1], [2, 0, 1], [0, 3, -1]])
    assert doubled == table([[2, 0, 2], [0, 3, -1]])
    assert doubled != table([[2, 0, 1], [0, 3, -1]])
    assert table([[2, 0, 1], [0, 3, -1], [1, 0, 5], [1, 0, -5]]) == table([[2, 0, 1], [0, 3, -1]])


@pytest.mark.parametrize("cand, code, kind", [
    ("notjson", 2, "ParseError"),
    ("[[1,2]]", 2, "ParseError"),
    ('[[0,0,"1/0"]]', 2, "ParseError"),
    ("[[1.5,0,1]]", 2, "ParseError"),
    ("[[true,0,1]]", 2, "ParseError"),
    ('{"u": 1}', 2, "ParseError"),
    ("[[-1,0,1]]", 3, "PreconditionError"),
])
def test_cli_classify_bad_candidate(cand, code, kind, capsys):
    got, out = run_cli(["classify", "--fixture", "generic", "--depth", "4",
                        "--candidate", cand], capsys)
    assert got == code
    assert json.loads(out)["error"]["kind"] == kind


@pytest.mark.parametrize("argv", [
    ["normal-form", "--fixture", "generic", "--depth", "3", "--out"],
    ["newton", "--input", os.path.join(GOLDEN, "normal_form_generic.json"), "--json"],
    ["newton", "--input", os.path.join(GOLDEN, "normal_form_generic.json"), "--svg"],
])
def test_cli_unwritable_output_exits_3(argv, tmp_path, capsys):
    code, out = run_cli(argv + [str(tmp_path / "missing" / "x")], capsys)
    err = json.loads(out)["error"]
    assert code == 3 and err["kind"] == "PreconditionError"
    assert err["message"].startswith("cannot write ")


def _golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def test_golden_expand_power(capsys):
    code, out = run_cli(["expand-power", "--k", "3"], capsys)
    assert code == 0
    assert out.encode() == _golden("expand_power_k3.txt")


def test_golden_newton_svg(tmp_path, capsys):
    inp = os.path.join(GOLDEN, "normal_form_generic.json")
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    code, _ = run_cli(["newton", "--input", inp, "--svg", str(svg1)], capsys)
    assert code == 0
    code, _ = run_cli(["newton", "--input", inp, "--svg", str(svg2)], capsys)
    assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes() == _golden("newton_generic.svg")


def test_golden_normal_form_fixture_regenerates(tmp_path, capsys):
    out = tmp_path / "nf.json"
    code, _ = run_cli(["normal-form", "--fixture", "generic", "--depth", "8",
                       "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == _golden("normal_form_generic.json")


def test_golden_classify_kdv(capsys):
    code, out = run_cli(["classify", "--fixture", "kdv24", "--depth", "8",
                         "--wmax", "6", "--format", "json"], capsys)
    assert code == 0
    assert out.encode() == _golden("classify_kdv.json")


def test_golden_classify_generic(capsys):
    code, out1 = run_cli(["classify", "--fixture", "generic", "--depth", "10",
                          "--format", "json"], capsys)
    assert code == 0
    code, out2 = run_cli(["classify", "--fixture", "generic", "--depth", "10",
                          "--format", "json"], capsys)
    assert out1 == out2
    assert out1.encode() == _golden("classify_generic.json")


PAIR_REPORT_SCHEMA = {
    "type": "object",
    "required": ["commutes", "classification", "certificate", "typeIdentities",
                 "windows", "verdict", "tentative", "p", "q", "stability"],
    "properties": {
        "commutes": {"type": "boolean"},
        "tentative": {"type": "boolean"},
        "verdict": {"type": "string"},
        "p": {"type": "integer"},
        "q": {"type": "integer"},
        "classification": {
            "type": "object",
            "required": ["variant", "sigma", "vertices", "tentative"],
            "properties": {
                "variant": {"enum": ["sdeg_zero", "restriction", "asymptotic",
                                     "undetermined"]},
                "sigma": {"type": ["string", "null"]},
                "tentative": {"type": "boolean"},
                "vertices": {"type": "array"},
            },
        },
        "certificate": {"type": ["object", "null"]},
        "typeIdentities": {"type": "array",
                           "items": {"type": "array", "minItems": 2, "maxItems": 2}},
        "windows": {"type": "object"},
    },
}


def test_cli_json_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    for argv in (["classify", "--fixture", "powers", "--depth", "4", "--format", "json"],
                 ["classify", "--fixture", "generic", "--depth", "6", "--format", "json"]):
        code, out = run_cli(argv, capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), PAIR_REPORT_SCHEMA)


def test_cli_json_schema_shape(capsys):
    code, out = run_cli(["classify", "--fixture", "powers", "--depth", "4",
                         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    for key in ("commutes", "classification", "certificate", "typeIdentities",
                "windows", "verdict", "tentative"):
        assert key in data
    assert data["certificate"]["text"] == "X^2 - Y^3"


def test_console_entry_point(cli_env):
    proc = subprocess.run([sys.executable, "-m", "weylnf.cli", "eval", "x*d"],
                          capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x*d"


def test_package_runs_as_a_module(cli_env):
    proc = subprocess.run([sys.executable, "-m", "weylnf", "eval", "d"],
                          capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "d"


@pytest.mark.parametrize("argv", [
    ["schur", "--q", "d^2 + x", "--depth", "30", "--format", "json"],  # fails in print
    ["eval", "d"],  # buffered until the flush at the end
], ids=["large", "small"])
def test_cli_closed_pipe_ends_quietly(argv, cli_env):
    # The read end is closed before the command writes, as "| head -1" may
    # leave it: the output fails with EPIPE, which must end in no traceback.
    # stdout stays block-buffered, as it is on a pipe by default.
    env = {name: value for name, value in cli_env.items() if name != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "weylnf", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_console_verify_filtration_suite(cli_env):
    proc = subprocess.run([sys.executable, "-m", "weylnf.cli", "verify", "--suite",
                           "filtration", "--cases", "8"],
                          capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "suite filtration: 8 cases: ok"
