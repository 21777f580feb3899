"""Verification reports shared by the identity and congruence checkers,
and `check`, through which every coefficient comparison becomes one."""

from __future__ import annotations

import time
from collections import namedtuple

MAX_RECORDED_COUNTEREXAMPLES = 5


class VerificationReport(namedtuple(
        "VerificationReport", "name params status terms_checked "
        "counterexamples progression modulus detail seconds")):
    """Outcome of one verification: an identity, a congruence claim, or
    an adjudication between candidate statements.

    status is "pass" or "fail"; counterexamples are (index, found,
    expected); progression is (step, offset) or None; modulus None means
    exact equality.  params, counterexamples and detail default to a new
    dict, list and dict.
    """

    __slots__ = ()

    def __new__(cls, name, params=None, status="pass", terms_checked=0,
                counterexamples=None, progression=None, modulus=None,
                detail=None, seconds=0.0):
        return super().__new__(
            cls, name, {} if params is None else params, status,
            terms_checked, [] if counterexamples is None else counterexamples,
            progression, modulus, {} if detail is None else detail, seconds)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def describe(self) -> str:
        bits = [self.name]
        if self.params:
            bits.append("[" + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())) + "]")
        if self.progression is not None:
            a, b = self.progression
            bits.append(f"({a}n+{b})")
        bits.append("exact" if self.modulus is None else f"mod {self.modulus}")
        return " ".join(bits)

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "status": self.status,
            "terms_checked": self.terms_checked,
            "counterexamples": [list(c) for c in self.counterexamples],
            "modulus": self.modulus,
            "seconds": round(self.seconds, 3),
        }
        if self.progression is not None:
            d["progression"] = {"step": self.progression[0], "offset": self.progression[1]}
        if self.detail:
            d["detail"] = self.detail
        return d


def compare_coefficients(lhs, rhs, terms: int, modulus: int | None):
    """Coefficientwise comparison of exponents 0..terms-1, exactly when
    modulus is None and mod modulus otherwise.

    Returns (counterexamples, total) where counterexamples holds at most
    MAX_RECORDED_COUNTEREXAMPLES (index, found, expected) triples and
    total counts every disagreement.  Raises ValueError when either side
    is shorter than ``terms``: a comparison is never silently truncated.
    """
    if len(lhs) < terms or len(rhs) < terms:
        raise ValueError(
            f"series too short for comparison to {terms} terms "
            f"(orders {len(lhs)}, {len(rhs)})")
    bad = []
    total_bad = 0
    for i in range(terms):
        a, b = lhs[i], rhs[i]
        differs = (a - b) % modulus != 0 if modulus is not None else a != b
        if differs:
            total_bad += 1
            if len(bad) < MAX_RECORDED_COUNTEREXAMPLES:
                if modulus is not None:
                    bad.append((i, a % modulus, b % modulus))
                else:
                    bad.append((i, a, b))
    return bad, total_bad


def check(name: str, found, expected, terms: int, cmp_mod: int | None,
          detail: dict | None = None, ok: bool = True,
          started: float | None = None, **fields) -> VerificationReport:
    """The report of comparing ``found`` with ``expected`` on exponents
    0..terms-1, exactly when cmp_mod is None and mod cmp_mod otherwise.

    It passes when no coefficient disagrees and ``ok`` holds (a side
    condition the comparison cannot see).  The first disagreements are
    kept as counterexamples; when there are more, detail records
    ``counterexample_total``.  ``started`` is the perf_counter reading
    the report's seconds run from.  ``fields`` set the report's other
    attributes; the reported modulus is cmp_mod unless a ``modulus``
    among them overrides it, for claims compared at another modulus than
    they state.
    """
    bad, total = compare_coefficients(found, expected, terms, cmp_mod)
    detail = dict(detail or {})
    if total > len(bad):
        detail["counterexample_total"] = total
    fields.setdefault("modulus", cmp_mod)
    return VerificationReport(
        name=name, status="pass" if ok and not total else "fail",
        terms_checked=terms, counterexamples=bad, detail=detail,
        seconds=0.0 if started is None else time.perf_counter() - started,
        **fields)
