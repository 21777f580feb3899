"""Command-line interface.

Exit status: 0 when every requested verification passes, 1 when some
check fails, 2 for argument or eligibility errors (a diagnostic naming
the violated precondition goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import congruence, counting, qfunctions, suite
from .congruence import ClaimError
from .report import VerificationReport, reports_to_json
from .series import EtaQuotient

FAIL_EXIT = 1
USAGE_EXIT = 2

_ELL_KINDS = ("l-regular", "overlined-l-regular", "nonoverlined-l-regular",
              "rstar")
_KINDS = ("plain", "overpartition", "distinct-two-copies") + _ELL_KINDS
_KIND_ALIASES = {"rstar": "nonoverlined-l-regular"}


def _capped(text: str, limit: int) -> int:
    value = int(text)
    if value > limit:
        raise argparse.ArgumentTypeError(
            f"{value} exceeds the size guard {limit}")
    return value


def size(text: str) -> int:
    """argparse type for a count that sizes a series: capped by the same
    guard as verify-theorem's default --max-order."""
    return _capped(text, congruence.DEFAULT_MAX_ORDER)


# largest count --upto: the oracles' DP is quadratic in it, so plain
# partitions to 10^4 take 5.7-6.3 s and to 2*10^4 25 s, overpartitions
# to 10^4 9.4-12 s (2-vCPU Xeon VM, CPython 3.11); the suite counts to 3306
COUNT_LIMIT = 10_000


def count_size(text: str) -> int:
    """argparse type for count's --upto, capped at COUNT_LIMIT."""
    return _capped(text, COUNT_LIMIT)


# largest |exponent| expand accepts: f^e takes about log2|e| products
# whose slots widen with log|e|, so 1:-1000 at order 500 takes 0.3 s,
# 1:-100000 1.3 s and 1:-10000000 7.7 s
EXPONENT_LIMIT = 1000


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


def dissection(text: str) -> int:
    """argparse type for verify-lemma's --p and --n: a dissection adds one
    theta block per residue, so the parameter is capped."""
    return _capped(text, qfunctions.DISSECTION_LIMIT)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report_lines(reports: list[VerificationReport]) -> list[str]:
    lines = []
    for r in reports:
        lines.append(f"{r.status.upper()} {r.describe()} "
                     f"({r.terms_checked} terms)")
        for idx, found, expected in r.counterexamples[:3]:
            lines.append(f"     n={idx}: found {found}, expected {expected}")
    return lines


def _finish(reports: list[VerificationReport], args) -> int:
    if args.format == "json":
        _emit(reports_to_json(reports), args.output)
    else:
        _emit("\n".join(_report_lines(reports)), args.output)
    return 0 if all(r.passed for r in reports) else FAIL_EXIT


def _cmd_expand(args) -> int:
    try:
        eq = EtaQuotient.parse(args.eta)
    except ValueError as exc:
        print(f"error: bad --eta value: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return USAGE_EXIT
    if args.modulus is not None and args.modulus < 1:
        print("error: --modulus must be >= 1", file=sys.stderr)
        return USAGE_EXIT
    series = qfunctions.eta_quotient(eq, args.order, args.modulus)
    if args.format == "json":
        _emit(series.json_array(), args.output)
    else:
        _emit("\n".join(series.text_lines(sparse=not args.dense)), args.output)
    return 0


def _cmd_count(args) -> int:
    if args.kind in _ELL_KINDS and args.ell is None:
        print(f"error: --kind {args.kind} requires --ell", file=sys.stderr)
        return USAGE_EXIT
    try:
        kind = counting.PartitionKind(_KIND_ALIASES.get(args.kind, args.kind),
                                      args.ell)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.upto < 0:
        print("error: --upto must be >= 0", file=sys.stderr)
        return USAGE_EXIT
    table = counting.count(kind, args.upto)
    if args.format == "json":
        _emit(json.dumps(list(table.values), separators=(",", ":")),
              args.output)
    else:
        _emit("\n".join(f"{n} {v}" for n, v in enumerate(table.values)),
              args.output)
    return 0


def _cmd_verify_lemma(args) -> int:
    try:
        if args.all:
            reports = qfunctions.run_catalog(args.order)
        else:
            if not args.id:
                print("error: give --id TAG or --all", file=sys.stderr)
                return USAGE_EXIT
            params = {}
            if args.p is not None:
                params["p"] = args.p
            if args.n is not None:
                params["n"] = args.n
            reports = [qfunctions.verify_identity(args.id, args.order,
                                                  **params)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return _finish(reports, args)


def _cmd_verify_theorem(args) -> int:
    params = {k: v for k, v in
              (("p", args.p), ("alpha", args.alpha), ("k", args.k),
               ("ell", args.ell)) if v is not None}
    try:
        claims = congruence.instantiate(args.family, **params)
        reports = congruence.verify_many(claims, terms=args.terms,
                                         max_order=args.max_order)
    except ClaimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return _finish(reports, args)


def _cmd_verify_all(args) -> int:
    results = suite.run_all()
    if args.format == "json":
        payload = json.dumps([res.to_json_dict() for res in results],
                             sort_keys=True, separators=(",", ":"))
        _emit(payload, args.output)
    else:
        _emit("\n".join(suite.format_results(results)), args.output)
    return 0 if all(res.passed for res in results) else FAIL_EXIT


def _cmd_search(args) -> int:
    try:
        found = congruence.search(args.ell, args.max_step, args.max_modulus,
                                  terms=args.terms)
    except (ClaimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.format == "json":
        payload = json.dumps(
            [{"ell": c.ell, "step": c.step, "offset": c.offset,
              "modulus": c.modulus, "evidence": c.evidence,
              "rediscovers": list(c.rediscovers)} for c in found],
            sort_keys=True, separators=(",", ":"))
        _emit(payload, args.output)
    else:
        lines = [c.describe() for c in found] or ["no candidates"]
        _emit("\n".join(lines), args.output)
    return 0


def _add_output_options(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", metavar="PATH",
                     help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact q-series expansion and congruence verification "
                    "for overpartitions with regular non-overlined parts.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", help="expand an eta quotient")
    p.add_argument("--eta", type=eta_spec, required=True, metavar="SPEC",
                   help='factor list like "2:1,5:1,1:-2" (f2*f5/f1^2), with '
                        f"exponents at most {EXPONENT_LIMIT} in size")
    p.add_argument("--order", type=size, default=500,
                   help="number of coefficients (default 500)")
    p.add_argument("--modulus", type=int, default=None,
                   help="reduce coefficients mod this")
    p.add_argument("--dense", action="store_true",
                   help="print zero coefficients too (text format)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_expand)

    p = subs.add_parser("count", help="run a combinatorial counting oracle")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--upto", type=count_size, required=True, metavar="N",
                   help=f"largest n (at most {COUNT_LIMIT})")
    _add_output_options(p)
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("verify-lemma",
                        help="verify catalog identities (dissections etc.)")
    p.add_argument("--id", metavar="TAG",
                   help="identity tag; see error message for the full list")
    p.add_argument("--all", action="store_true",
                   help="run the whole catalog at default parameters")
    limit = qfunctions.DISSECTION_LIMIT
    p.add_argument("--p", type=dissection, default=None,
                   help=f"prime parameter (at most {limit})")
    p.add_argument("--n", type=dissection, default=None,
                   help=f"square-dissection n (at most {limit})")
    p.add_argument("--order", type=size, default=None,
                   help="override the identity's default order")
    _add_output_options(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = subs.add_parser("verify-theorem",
                        help="instantiate and verify one congruence family")
    p.add_argument("--family", required=True,
                   choices=list(congruence.FAMILIES))
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--terms", type=int, default=500,
                   help="progression indices to check (default 500)")
    p.add_argument("--max-order", type=int,
                   default=congruence.DEFAULT_MAX_ORDER,
                   help="refuse claims needing a longer base expansion")
    _add_output_options(p)
    p.set_defaults(func=_cmd_verify_theorem)

    p = subs.add_parser("verify-all",
                        help="run the full twelve-criterion suite")
    _add_output_options(p)
    p.set_defaults(func=_cmd_verify_all)

    p = subs.add_parser("search", help="scan progressions for congruences")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-step", type=size, default=8)
    p.add_argument("--max-modulus", type=int, default=8)
    p.add_argument("--terms", type=size, default=500)
    _add_output_options(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
