"""The full verification suite: every claim the package makes, bundled
into twelve numbered criteria with exact pass conditions.

This is what `qcong verify-all` runs and what the acceptance test
asserts, criterion by criterion.  All arithmetic is exact; "pass" means
zero counterexamples at the stated number of terms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import congruence, counting, qfunctions
from .report import VerificationReport, check
from .series import EtaQuotient


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    reports: list[VerificationReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_json_dict(self) -> dict:
        d = {
            "number": self.number,
            "title": self.title,
            "passed": self.passed,
            "reports": [r.to_json_dict() for r in self.reports],
            "seconds": round(self.seconds, 3),
        }
        if self.notes:
            d["notes"] = self.notes
        return d


def _quotient_for(kind: counting.PartitionKind) -> EtaQuotient:
    f = kind.family
    ell = kind.ell
    if f == "plain":
        return EtaQuotient([(1, -1)])
    if f == "overpartition":
        return EtaQuotient([(2, 1), (1, -2)])
    if f == "l-regular":
        return EtaQuotient([(ell, 1), (1, -1)])
    if f == "overlined-l-regular":
        return EtaQuotient([(2, 1), (ell, 1), (1, -2), (2 * ell, -1)])
    if f == "nonoverlined-l-regular":
        return EtaQuotient.rstar(ell)
    if f == "distinct-two-copies":
        return EtaQuotient([(2, 2), (1, -2)])
    raise ValueError(f"no quotient for kind {kind}")


def _oracle_vs_series(kind: counting.PartitionKind, upto: int) -> VerificationReport:
    t0 = time.perf_counter()
    table = counting.count(kind, upto)
    series = qfunctions.eta_quotient(_quotient_for(kind), upto + 1)
    params = {"kind": kind.family}
    if kind.ell is not None:
        params["ell"] = kind.ell
    return check("oracle-vs-series", table, series.coeffs, upto + 1,
                 None, started=t0, params=params)


def _verify_rows(rows) -> list[VerificationReport]:
    # one verify_many call per (family, params, terms) row: each row's
    # reports stay in their own canonical order; the base series of all
    # rows are expanded first, each once at the longest order they need
    batches = [(congruence.instantiate(family, **params), terms)
               for family, params, terms in rows]
    congruence.expand_for([(claim, terms) for claims, terms in batches
                           for claim in claims])
    reports = []
    for claims, terms in batches:
        reports += congruence.verify_many(claims, terms=terms)
    return reports


def _rows_criterion(number: int, title: str, rows):
    """A criterion that passes when every claim of every row passes."""
    def run() -> CriterionResult:
        reports = _verify_rows(rows)
        return CriterionResult(number, title, all(r.passed for r in reports),
                               reports)
    return run


ELLS = (2, 3, 4, 5, 6, 8, 10, 15)


def criterion_1() -> CriterionResult:
    """Every counting oracle equals its generating function, n <= 300."""
    kinds = [counting.PLAIN_P, counting.OVERPARTITION,
             counting.DISTINCT_TWO_COPIES]
    for ell in ELLS:
        kinds += [counting.L_REGULAR(ell),
                  counting.OVERLINED_L_REGULAR(ell),
                  counting.NONOVERLINED_L_REGULAR(ell)]
    reports = [_oracle_vs_series(kind, 300) for kind in kinds]
    return CriterionResult(1, "oracle vs series, six kinds, n <= 300",
                           all(r.passed for r in reports), reports)


def criterion_2() -> CriterionResult:
    """Worked-example anchors and the classical p(n) congruences."""
    reports = []
    anchors = [
        ("overpartitions of 3", counting.OVERPARTITION, 8),
        ("2-regular non-overlined count at 3",
         counting.NONOVERLINED_L_REGULAR(2), 6),
        ("2-regular overlined count at 3",
         counting.OVERLINED_L_REGULAR(2), 6),
    ]
    for label, kind, expected in anchors:
        got = counting.count(kind, 3)[3]
        reports.append(VerificationReport(
            name="anchor", params={"value": label}, terms_checked=1,
            status="pass" if got == expected else "fail",
            counterexamples=[] if got == expected else [(3, got, expected)]))
    # p(5n+4) == 0 mod 5, p(7n+5) == 0 mod 7, p(11n+6) == 0 mod 11
    table = counting.count(counting.PLAIN_P, 11 * 300 + 6)
    for step, off, m in ((5, 4, 5), (7, 5, 7), (11, 6, 11)):
        reports.append(check(
            "plain-partition-congruence", table[off::step], [0] * 301,
            301, m, params={"step": step, "offset": off},
            progression=(step, off)))
    return CriterionResult(2, "worked anchors and p(n) congruences to n <= 300",
                           all(r.passed for r in reports), reports)


def criterion_3() -> CriterionResult:
    """The whole identity catalog at its default orders."""
    reports = qfunctions.run_catalog()
    return CriterionResult(3, "identity catalog (dissections, binomial congruences)",
                           all(r.passed for r in reports), reports)


def criterion_6() -> CriterionResult:
    """ell=6 9-adic families, plus the documented offset-variant failure."""
    reports = _verify_rows(
        [("r6-iterated", {"alpha": 1}, 1001), ("r6-iterated", {"alpha": 2}, 201)]
        + [(family, {"alpha": alpha}, 201) for alpha in (0, 1, 2)
           for family in ("r6-vanish-a", "r6-vanish-b")])
    official_ok = all(r.passed for r in reports)
    alt = congruence.verify(congruence.instantiate("r6-iterated-alt", alpha=1)[0],
                            terms=201)
    notes = [
        "offset variant (9^a-1)/2 checked at alpha=1: status "
        f"{alt.status} (expected fail; first counterexamples "
        f"{alt.counterexamples[:3]})"
    ]
    reports.append(alt)
    passed = official_ok and not alt.passed
    return CriterionResult(6, "ell=6 9-adic families; offset variant documented",
                           passed, reports, notes)


def criterion_9() -> CriterionResult:
    """ell=8 prime family at p=5, plus the halved convolution claim."""
    reports = _verify_rows([("r8-prime-series", {"p": 5, "alpha": 0}, 500),
                            ("r8-prime-vanish", {"p": 5, "alpha": 0}, 51)])
    halved = {r.modulus: r
              for r in congruence.verify_many(congruence.instantiate("r8-halved"),
                                              terms=500)}
    notes = [
        f"halved claim mod 2: {halved[2].status} (must pass)",
        f"halved claim mod 4: {halved[4].status} (recorded either way; the "
        "derivation only forces mod 2)",
    ]
    passed = (all(r.passed for r in reports) and halved[2].passed)
    reports += [halved[2], halved[4]]
    return CriterionResult(9, "ell=8 prime family (p=5) and halved claim",
                           passed, reports, notes)


def criterion_12() -> CriterionResult:
    """Progression search rediscovers the known fixed claims, exactly."""
    reports = []
    notes = []
    ok = True
    for ell, max_step, max_mod in ((4, 4, 4), (8, 8, 8)):
        t0 = time.perf_counter()
        # the recorded candidates come from a(0)..a(1000); the report's
        # terms_checked keeps its recorded 500
        found = congruence.search(ell, max_step, max_mod, terms=1001)
        labeled = {(c.step, c.offset): c for c in found if c.rediscovers}
        expected = {}
        for _, step, off, m in congruence._known_progressions(ell):
            if step <= max_step:
                expected[(step, off)] = max(m, expected.get((step, off), 0))
        good = (set(labeled) == set(expected)
                and all(labeled[k].modulus % expected[k] == 0 for k in expected))
        ok = ok and good
        notes.append(
            f"ell={ell}: {len(found)} candidates, rediscovered "
            + ", ".join(f"{a}n+{b} mod {labeled[(a, b)].modulus}"
                        for a, b in sorted(labeled)))
        reports.append(VerificationReport(
            name="search-rediscovery", params={"ell": ell},
            status="pass" if good else "fail", terms_checked=500,
            detail={"candidates": [c.describe() for c in found]},
            seconds=time.perf_counter() - t0))
    return CriterionResult(12, "search rediscovers the fixed progressions",
                           ok, reports, notes)


_CRITERIA = (
    criterion_1, criterion_2, criterion_3,
    # ell=4: fixed mod-4 vanishing to n <= 2000; prime family at p=13
    _rows_criterion(4, "ell=4 fixed and p=13 prime-family claims", [
        ("r4-fixed", {}, 2001),
        ("r4-prime-series", {"p": 13, "alpha": 0}, 500),
        ("r4-prime-vanish", {"p": 13, "alpha": 0}, 11)]),
    _rows_criterion(5, "ell=5k (k=1,2,3) fixed progressions, n <= 2000", [
        ("r5k-fixed", {"k": k}, 2001) for k in (1, 2, 3)]),
    criterion_6,
    _rows_criterion(7, "ell=6 prime family (p=3,7; alpha=0,1)", [
        row for p in (3, 7)
        for row in [("r6-prime-series", {"p": p, "alpha": 0}, 500),
                    ("r6-prime-vanish", {"p": p, "alpha": 0}, 21),
                    ("r6-prime-vanish", {"p": p, "alpha": 1}, 21)]]),
    _rows_criterion(8, "ell=8 fixed mod-4 and mod-8 progressions, n <= 2000", [
        ("r8-fixed-mod4", {}, 2001), ("r8-fixed-mod8", {}, 2001)]),
    criterion_9,
    # exact convolution against pbar(n), and the D2 equality, n <= 1000
    _rows_criterion(10, "exact convolution and D2 identities, n <= 1000", [
        ("conv-overpartition", {"ell": ell}, 1001) for ell in (2, 3, 4, 5, 6, 8)
    ] + [("r2-distinct", {}, 1001)]),
    _rows_criterion(11, "proof-internal congruences, 300 terms", [
        (ident, {}, 300) for ident in (
            "r4-4n1-mod4", "r6-2n1-mod3", "r6-3n2-mod3", "r6-all-mod3",
            "r8-16n1-mod4", "r8-2n1-exact", "r8-2n1-mod8", "r8-4n1-mod4")]),
    criterion_12,
)


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(_CRITERIA):
        raise ValueError(f"criterion number must be 1..{len(_CRITERIA)}")
    fn = _CRITERIA[number - 1]
    t0 = time.perf_counter()
    result = fn()
    result.seconds = time.perf_counter() - t0
    return result


def run_all() -> list[CriterionResult]:
    """Run the twelve criteria in order (order matters only for speed:
    later criteria read base series that earlier ones left cached)."""
    return [run_criterion(i) for i in range(1, len(_CRITERIA) + 1)]


def format_results(results: list[CriterionResult]) -> list[str]:
    lines = []
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        lines.append(f"{mark} criterion {res.number:2d}: {res.title} "
                     f"({len(res.reports)} checks, {res.seconds:.1f}s)")
        for note in res.notes:
            lines.append(f"       note: {note}")
        if not res.passed:
            for r in res.reports:
                if not r.passed:
                    lines.append(f"       FAIL {r.describe()}: "
                                 f"counterexamples {r.counterexamples[:3]}")
    overall = all(r.passed for r in results)
    lines.append("OVERALL " + ("PASS" if overall else "FAIL"))
    return lines
