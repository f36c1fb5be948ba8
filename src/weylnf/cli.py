"""Command line driver.

Exit codes: 0 success, 2 parse or usage error, 3 precondition error, 4 the
window was too small, 5 a verified property failed. Failures print a
machine-readable JSON error object. A reader that closes the pipe early ends
the command quietly with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .criterion import BivarPoly, bc_certificate, classify_pair
from .errors import ParseError, PreconditionError, PropertyViolation, UsageError, WeylnfError
from .fixtures import named_pair
from .gform import EXPANSION_XCAP, HcpSeries, check_Aqk
from .newton import classify_top_line, e_set, newton_report, render_svg
from .operators import GradedOp, commutator
from .parsing import parse_operator
from .powerform import expand_power, expand_power_oracle, pretty
from .schur import normal_form_report, schur_operator
from .suites import run_all, run_suite


MAX_XCAP = 256  # largest --xcap
MAX_DEPTH = 64  # largest --depth
MAX_WMAX = 64  # largest --wmax of classify and bc-find
MAX_K = 64  # largest cyclotomic order --k
MAX_POWER = 16  # largest expand-power --k, the exponent of (D+L)^k


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command line it rejects as a :class:`UsageError`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _check_limits(args):
    k_limit = MAX_POWER if args.command == "expand-power" else MAX_K
    for name, limit in (("xcap", MAX_XCAP), ("depth", MAX_DEPTH), ("wmax", MAX_WMAX),
                        ("k", k_limit)):
        value = getattr(args, name, None)
        if value is not None and value > limit:
            raise PreconditionError(f"--{name} {value} exceeds the maximum {limit}")


def _parse(src: str, args) -> GradedOp:
    return parse_operator(src, args.k, EXPANSION_XCAP if args.xcap is None else args.xcap)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror}") from exc


def _emit_op(A: GradedOp, fmt: str):
    if fmt == "json":
        print(_dump(A.to_dict()))
    else:
        print(str(A))


def _pair_from_args(args):
    if args.fixture:
        return named_pair(args.fixture)
    if not args.p or not args.q:
        raise PreconditionError("either --fixture or both --p and --q are required")
    return _parse(args.p, args), _parse(args.q, args)


def cmd_eval(args) -> int:
    _emit_op(_parse(args.expr, args), args.format)
    return 0


def cmd_product(args) -> int:
    A, B = _parse(args.a, args), _parse(args.b, args)
    _emit_op(A * B if args.command == "mul" else commutator(A, B), args.format)
    return 0


def cmd_schur(args) -> int:
    Q = _parse(args.q, args)
    sp = schur_operator(Q, depth=args.depth, xcap=args.xcap)
    data = {
        "q": sp.q,
        "depth": sp.depth,
        "xcap": sp.xcap,
        "verified": sp.verified,
        "S": sp.S.to_dict(),
        "Sinv": sp.Sinv.to_dict(),
    }
    print(_dump(data) if args.format == "json" else
          f"S (verified={sp.verified}, depth={sp.depth}):\n{sp.S}")
    return 0


def cmd_normal_form(args) -> int:
    P, Q = _pair_from_args(args)
    res = normal_form_report(P, Q, depth=args.depth)
    data = {
        "k": res.series.k,
        "p": res.series.top_order(),
        "series": res.series.to_dict(),
        "aqk": {"ok": res.aqk.ok, "clause": res.aqk.clause, "detail": res.aqk.detail},
        "belowWindowNonzero": res.below_window_nonzero,
        "schur": {"depth": res.schur.depth, "xcap": res.schur.xcap,
                  "verified": res.schur.verified},
    }
    text = _dump(data)
    if args.out:
        _write(args.out, text + "\n")
    else:
        print(text)
    return 0


def cmd_newton(args) -> int:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read {args.input}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{args.input} is not JSON: {getattr(exc, 'msg', exc)}",
                         getattr(exc, "lineno", 1), getattr(exc, "colno", 1)) from exc
    data = data["series"] if isinstance(data, dict) and "series" in data else data
    k = data.get("k") if isinstance(data, dict) else None
    if isinstance(k, int) and k > MAX_K:
        raise PreconditionError(f"series cyclotomic order {k} exceeds the maximum {MAX_K}")
    series = HcpSeries.from_dict(data)
    nd = e_set(series)
    cls = classify_top_line(series) if check_Aqk(
        series, 0, enforce_growth=series.floor is not None).ok else None
    report = newton_report(nd, cls)
    if args.json_out:
        _write(args.json_out, _dump(report) + "\n")
    if args.svg:
        _write(args.svg, render_svg(nd, cls))
    if not args.json_out and not args.svg:
        print(_dump(report))
    return 0


def cmd_classify(args) -> int:
    P, Q = _pair_from_args(args)
    candidate = None
    if args.candidate:
        try:
            candidate = BivarPoly.from_list(json.loads(args.candidate))
        except json.JSONDecodeError as exc:
            raise ParseError(f"--candidate is not JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    rep = classify_pair(P, Q, depth=args.depth, wmax=args.wmax, candidate_F=candidate)
    if args.format == "json":
        print(_dump(rep.to_dict()))
    else:
        print(f"commutes: {rep.commutes}")
        print(f"classification: {rep.classification.variant} "
              f"(sigma={rep.classification.sigma}, tentative={rep.classification.tentative})")
        if rep.certificate:
            print(f"certificate: {rep.certificate.poly}")
        print(f"verdict: {rep.verdict}")
    return 0


def cmd_bc_find(args) -> int:
    P, Q = _pair_from_args(args)
    res = bc_certificate(P, Q, wmax=args.wmax, depth=args.depth)
    if args.format == "json":
        if res is None:
            print(_dump({"certificate": None,
                         "note": "no certificate within bounds (bounded evidence only)"}))
        else:
            print(_dump({"certificate": res.to_dict()}))
    else:
        print("none" if res is None else str(res.poly))
    return 0


def cmd_expand_power(args) -> int:
    e = expand_power(args.k)
    if args.oracle:
        o = expand_power_oracle(args.k)
        match = e == o
        print(f"(D+L)^{args.k} closed form: {pretty(e)}")
        print(f"(D+L)^{args.k} oracle:      {pretty(o)}")
        print(f"match: {match}")
        if not match:
            raise PropertyViolation("closed form and oracle disagree")
    else:
        print(f"(D+L)^{args.k} = {pretty(e)}")
    return 0


def cmd_verify(args) -> int:
    results = (run_all(args.cases, args.seed) if args.suite == "all"
               else [run_suite(args.suite, args.cases, args.seed)])
    for r in results:
        status = "ok" if r.passed else f"FAILED ({len(r.failures)} violations)"
        print(f"suite {r.name}: {r.cases} cases: {status}")
        for f in r.failures[:20]:
            print(f"  {f}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise PropertyViolation(f"property suites failed: {', '.join(failed)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="weylnf",
                         description="exact normal-form calculus for "
                                     "ordinary differential operators")
    # Each subcommand takes only the shared options it reads.
    window = _ArgumentParser(add_help=False)
    window.add_argument("--k", type=int, default=None,
                        help="cyclotomic order for xi and G-form literals")
    window.add_argument("--xcap", type=int, default=None,
                        help=f"x-degree window for infinite expansions (default "
                             f"{EXPANSION_XCAP}; schur solves S to 24 + ord Q by default)")
    fmt = _ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    both = [window, fmt]
    pair = _ArgumentParser(add_help=False)
    pair.add_argument("--p")
    pair.add_argument("--q")
    pair.add_argument("--fixture")
    pair.add_argument("--depth", type=int, required=True)

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=both, help="evaluate and print an operator")
    p.add_argument("expr")
    p.set_defaults(func=cmd_eval)

    for name, text in (("mul", "product of two operators"), ("commutator", "[A, B]")):
        p = sub.add_parser(name, parents=both, help=text)
        p.add_argument("a")
        p.add_argument("b")
        p.set_defaults(func=cmd_product)

    p = sub.add_parser("schur", parents=both, help="Schur operator for Q")
    p.add_argument("--q", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("normal-form", parents=[window, pair],
                       help="normal form of P with respect to Q")
    p.add_argument("--out", help="write the JSON result to a file")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("newton",
                       help="Newton region report from a normal-form JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--svg")
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("classify", parents=both + [pair], help="full pipeline on a pair")
    p.add_argument("--wmax", type=int, default=None)
    p.add_argument("--candidate", help="JSON [[u,v,coeff],...] to tabulate identities")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bc-find", parents=both + [pair],
                       help="search for a Burchnall-Chaundy certificate")
    p.add_argument("--wmax", type=int, required=True)
    p.set_defaults(func=cmd_bc_find)

    p = sub.add_parser("expand-power", help="standard form of (D+L)^k")
    p.add_argument("--k", type=int, required=True,
                   help="the power (this subcommand's --k is the exponent)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the rewriting oracle and compare")
    p.set_defaults(func=cmd_expand_power)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("appendix", "filtration", "powerform", "all"),
                   required=True)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    return ap


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_limits(args)
        return args.func(args) or 0
    except WeylnfError as exc:
        payload = {"error": {"kind": type(exc).__name__,
                             "message": str(exc),
                             "code": exc.exit_code}}
        if hasattr(exc, "required") and exc.required:
            payload["error"]["required"] = exc.required
        print(json.dumps(payload, sort_keys=True))
        return exc.exit_code


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a short output is still buffered: write it inside the try
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``). Point stdout at devnull
        # so the flush at exit cannot fail again, and stop without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
