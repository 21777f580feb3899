"""Command-line interface.

Each subcommand returns ``(exit code, data, lines)``: ``data`` is what
``--format json`` prints as canonical JSON, ``lines`` the text form.
``main`` alone writes the result, to stdout or ``--output``.

Exit status: 0 when every requested verification passes, 1 when some
check fails, 2 for argument or eligibility errors (a diagnostic naming
the violated precondition goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import congruence, counting, qfunctions, suite
from .series import EtaQuotient

FAIL_EXIT = 1
USAGE_EXIT = 2

_KIND_ALIASES = {"rstar": "nonoverlined-l-regular"}

# largest count --upto: the oracles' DP is quadratic in it, so plain
# partitions to 10^4 take 5.7-6.3 s and to 2*10^4 25 s, overpartitions
# to 10^4 9.4-12 s (2-vCPU Xeon VM, CPython 3.11); the suite counts to 3306
COUNT_LIMIT = 10_000

# largest |exponent| expand accepts: f^e takes about log2|e| products
# whose slots widen with log|e|, so 1:-1000 at order 500 takes 0.3 s,
# 1:-100000 1.3 s and 1:-10000000 7.7 s
EXPONENT_LIMIT = 1000

# largest expand --modulus: coefficient slots widen with its bits, so
# 1:-1 mod 10^4000+1 takes 15 s at order 2000, and mod 2^64 3.5 s at
# order 200000 (2-vCPU Xeon VM, CPython 3.11)
MODULUS_LIMIT = 2 ** 64


def bounded(flag: str, low: int, high: Optional[int] = None):
    """argparse type for an int option ``flag`` that is at least ``low``
    and, when ``high`` is given, at most that size guard."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"{value} exceeds the size guard {high}")
        return value

    parse.__name__ = "int"   # argparse names it in "invalid int value"
    return parse


def eta_spec(text: str) -> str:
    """argparse type for expand's --eta: every |exponent| is capped.  A
    malformed spec passes through, for _cmd_expand to report."""
    try:
        factors = EtaQuotient.parse(text).factors
    except ValueError:
        return text
    for h, e in factors:
        if abs(e) > EXPONENT_LIMIT:
            raise argparse.ArgumentTypeError(
                f"exponent {e} of f{h} exceeds the size guard "
                f"{EXPONENT_LIMIT}")
    return text


def _coefficient_lines(values, sparse: bool):
    """"index value" lines, zeros omitted when sparse."""
    return (f"{i} {c}" for i, c in enumerate(values) if c or not sparse)


def _report_lines(reports):
    for r in reports:
        yield f"{r.status.upper()} {r.describe()} ({r.terms_checked} terms)"
        for idx, found, expected in r.counterexamples[:3]:
            yield f"     n={idx}: found {found}, expected {expected}"


def _verdict(items, lines):
    """The result of a list of reports or criterion results: exit 1
    unless every one passed."""
    return (0 if all(it.passed for it in items) else FAIL_EXIT,
            [it.to_json_dict() for it in items], lines)


def _cmd_expand(args):
    try:
        eq = EtaQuotient.parse(args.eta)
    except ValueError as exc:
        raise ValueError(f"bad --eta value: {exc}") from None
    # exact coefficients widen with both the order and the exponents
    size = args.order * sum(abs(e) for _, e in eq.factors)
    if args.modulus is None and size > congruence.DEFAULT_MAX_ORDER:
        raise ValueError(
            f"--order {args.order} times the sum of |exponents| is {size}, "
            f"which exceeds the size guard {congruence.DEFAULT_MAX_ORDER} "
            f"for an exact expansion (give --modulus or a smaller --order)")
    series = qfunctions.eta_quotient(eq, args.order, args.modulus)
    return (0, list(series.coeffs),
            _coefficient_lines(series.coeffs, sparse=not args.dense))


def _cmd_count(args):
    family = _KIND_ALIASES.get(args.kind, args.kind)
    if counting.KINDS[family] and args.ell is None:
        raise ValueError(f"--kind {args.kind} requires --ell")
    table = counting.count(counting.PartitionKind(family, args.ell),
                           args.upto)
    return 0, list(table), _coefficient_lines(table, sparse=False)


def _cmd_verify_lemma(args):
    params = {k: v for k, v in (("p", args.p), ("n", args.n))
              if v is not None}
    if args.all:
        if params:
            raise ValueError("--all takes no --p or --n: it runs every "
                             "identity at its default parameters")
        reports = qfunctions.run_catalog(args.order)
    elif args.id:
        reports = [qfunctions.verify_identity(args.id, args.order, **params)]
    else:
        raise ValueError("give --id TAG or --all")
    return _verdict(reports, _report_lines(reports))


def _cmd_verify_theorem(args):
    params = {k: v for k, v in
              (("p", args.p), ("alpha", args.alpha), ("k", args.k),
               ("ell", args.ell)) if v is not None}
    claims = congruence.instantiate(args.family, **params)
    reports = congruence.verify_many(claims, terms=args.terms)
    return _verdict(reports, _report_lines(reports))


def _cmd_verify_all(args):
    results = suite.run_all()
    return _verdict(results, suite.format_results(results))


def _cmd_search(args):
    found = congruence.search(args.ell, args.max_step, args.max_modulus,
                              terms=args.terms)
    data = [{"ell": c.ell, "step": c.step, "offset": c.offset,
             "modulus": c.modulus, "evidence": c.evidence,
             "rediscovers": list(c.rediscovers)} for c in found]
    return 0, data, [c.describe() for c in found] or ["no candidates"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-series expansion and congruence verification "
                    "for overpartitions with regular non-overlined parts.")
    subs = parser.add_subparsers(dest="command", required=True)
    guard = congruence.DEFAULT_MAX_ORDER

    p = subs.add_parser("expand", help="expand an eta quotient")
    p.add_argument("--eta", type=eta_spec, required=True, metavar="SPEC",
                   help='factor list like "2:1,5:1,1:-2" (f2*f5/f1^2), with '
                        f"exponents at most {EXPONENT_LIMIT} in size")
    p.add_argument("--order", type=bounded("--order", 1, guard), default=500,
                   help="number of coefficients (default 500)")
    p.add_argument("--modulus", type=bounded("--modulus", 1, MODULUS_LIMIT),
                   default=None,
                   help=f"reduce coefficients mod this (at most {MODULUS_LIMIT})")
    p.add_argument("--dense", action="store_true",
                   help="print zero coefficients too (text format)")
    p.set_defaults(func=_cmd_expand)

    p = subs.add_parser("count", help="run a combinatorial counting oracle")
    p.add_argument("--kind", required=True,
                   choices=sorted([*counting.KINDS, *_KIND_ALIASES]))
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--upto", type=bounded("--upto", 0, COUNT_LIMIT),
                   required=True, metavar="N",
                   help=f"largest n (at most {COUNT_LIMIT})")
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("verify-lemma",
                        help="verify catalog identities (dissections etc.)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--id", metavar="TAG",
                       help="identity tag; see error message for the full list")
    which.add_argument("--all", action="store_true",
                       help="run the whole catalog at default parameters")
    limit = qfunctions.DISSECTION_LIMIT
    p.add_argument("--p", type=bounded("--p", 2, limit), default=None,
                   help=f"prime parameter (at most {limit})")
    p.add_argument("--n", type=bounded("--n", 2, limit), default=None,
                   help=f"square-dissection n (at most {limit})")
    p.add_argument("--order", type=bounded("--order", 1, guard), default=None,
                   help="override the identity's default order")
    p.set_defaults(func=_cmd_verify_lemma)

    p = subs.add_parser("verify-theorem",
                        help="instantiate and verify one congruence family")
    p.add_argument("--family", required=True,
                   choices=list(congruence.FAMILIES))
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--terms", type=bounded("--terms", 1, guard), default=500,
                   help=f"progression indices (default 500, at most {guard})")
    p.set_defaults(func=_cmd_verify_theorem)

    p = subs.add_parser("verify-all",
                        help="run the full twelve-criterion suite")
    p.set_defaults(func=_cmd_verify_all)

    p = subs.add_parser("search", help="scan progressions for congruences")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-step", type=bounded("--max-step", 1, guard),
                   default=8)
    p.add_argument("--max-modulus", type=int, default=8)
    p.add_argument("--terms", type=bounded("--terms", 1, guard), default=500)
    p.set_defaults(func=_cmd_search)

    for p in subs.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", metavar="PATH",
                       help="write to a file instead of stdout")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, data, lines = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.format == "json":
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join(lines)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: the verdict stands, and the final flush
        # at exit must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print(f"error: cannot write {args.output or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return USAGE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
