"""Congruence claims on coefficients of f2 f_ell / f1^2 along arithmetic
progressions: instantiation from a family catalog, verification against
the series engine and the counting oracles, and a brute-force search
for vanishing progressions.

A claim is data (family, parameters, progression, modulus, right-hand
side tag); it reads one base series, the (quotient, order, modulus)
given by `_base`.  A batch is a list of (family, params, terms) rows:
`verify_rows` size-checks every claim of every row, expands each
(quotient, modulus) they read once, at the largest order any of them
needs, then slices every progression out of that one series.
"""

from __future__ import annotations

import math
import operator
import time
from collections import namedtuple

from . import counting
from .qfunctions import (_require_prime, afford, eta_quotient, eta_terms,
                         expand_terms)
from .report import VerificationReport, check
from .series import EtaQuotient, Series

DEFAULT_TERMS = 500
DEFAULT_MAX_ORDER = 200_000


class ClaimError(ValueError):
    """Base for claim construction/verification argument errors."""


class EligibilityError(ClaimError):
    """A family hypothesis (prime bound or Legendre condition) fails."""


class IntegralityError(ClaimError):
    """A theorem offset formula does not produce an integer."""


class OrderShortfallError(ClaimError):
    """The requested check needs a longer series than the guard allows."""


class Progression(namedtuple("Progression", "step offset")):
    """Indices {step*n + offset : n >= 0}.  Offsets keep their natural
    theorem form and may exceed the step."""

    __slots__ = ()

    def __new__(cls, step, offset):
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        return super().__new__(cls, step, offset)

    def index(self, n: int) -> int:
        return self.step * n + self.offset

    def __str__(self) -> str:
        return f"{self.step}n+{self.offset}"


class CongruenceClaim(namedtuple(
        "CongruenceClaim", "family params ell progression modulus rhs")):
    """A claim on the coefficients of f2 f_ell / f1^2 along a
    Progression: params are (name, value) pairs, modulus None means exact
    equality, and rhs names a right-hand side in _RHS."""

    __slots__ = ()

    @property
    def source_series(self) -> EtaQuotient:
        return EtaQuotient.rstar(self.ell)

    def describe(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        head = f"{self.family}[{ps}]" if ps else self.family
        val = f"a({self.progression})"
        if self.rhs == "P_CONVOLUTION":   # a claim on value/2
            val = f"(1/2) {val}"
        rel = f"== {self.rhs} (mod {self.modulus})"
        if self.modulus is None:
            rel = f"= {self.rhs}"
        return f"{head}: {val} {rel}  [ell={self.ell}]"


# -- shared base-series cache ------------------------------------------------------

_CACHE: dict[tuple, Series] = {}


def expand_quotient(eq: EtaQuotient, order: int,
                    modulus: int | None = None) -> Series:
    """The expansion of ``eq`` to exactly ``order`` terms.

    The cache keeps the longest series built so far per (quotient,
    modulus) and serves shorter requests as prefixes of it; a longer
    request builds at exactly that order and replaces the entry.
    """
    key = (eq.factors, modulus)
    cached = _CACHE.get(key)
    if cached is None or cached.order < order:
        cached = _CACHE[key] = eta_quotient(eq, order, modulus)
    return cached if cached.order == order else cached.truncate(order)


def clear_cache() -> None:
    _CACHE.clear()


# -- family catalog ----------------------------------------------------------------


# Claims on a(b p^(2 alpha + d) n + b p^(2 alpha + 1) r
# + (mult p^(2 alpha + d) - 1) / div) on ell, mod ``modulus``.
#
# d = 0 (r = 0) is one claim against the ``rhs`` series; d = 2 is one
# vanishing claim per r in ``rs``.  With ``p`` None the prime is a
# parameter, eligible from ``min_p`` when (witness/p) = -1 (the default
# witness 0 admits none), and r, a claim parameter, runs over 1..p-1
# (``rs`` None); with a fixed ``p`` the claims take alpha alone.
_Progressions = namedtuple(
    "_Progressions", "ell modulus rhs b mult div d rs p min_p witness",
    defaults=(0, (0,), None, 0, 0))


# the 9-adic ell = 6 families are the formula at p = 3
_R6 = _Progressions(ell=6, modulus=3, rhs="SELF", b=1, mult=1, div=4, p=3)
_PROGRESSIONS = {
    "r6-iterated": _R6,
    "r6-iterated-alt": _R6._replace(div=2),   # kept to document its failure
    "r6-vanish-a": _R6._replace(rhs="ZERO", d=2, rs=(1,)),
    "r6-vanish-b": _R6._replace(rhs="ZERO", d=2, rs=(2,)),
}
# each prime family is a series row and its vanishing (d = 2) twin
for _name, _row in (
        ("r4-prime", _Progressions(ell=4, modulus=4, rhs="TWO_F1_PSI_Q2",
                                   b=4, mult=7, div=6, min_p=13, witness=-6)),
        ("r6-prime", _Progressions(ell=6, modulus=3, rhs="TWO_PSI_PSI4",
                                   b=2, mult=5, div=4, min_p=3, witness=-1)),
        ("r8-prime", _Progressions(ell=8, modulus=8, rhs="TWO_F1_PSI",
                                   b=8, mult=4, div=3, min_p=5, witness=-3))):
    _PROGRESSIONS[_name + "-series"] = _row
    _PROGRESSIONS[_name + "-vanish"] = _row._replace(rhs="ZERO", d=2, rs=None)

# families without a progression parameter: family -> (its one
# parameter or None, claims as (params, ell, step, offset, modulus (None
# = exact), rhs tag)); a parameter v multiplies each ell by v
# and leads the claims' params; f_ell is 1 below order ell, so a large
# ell costs nothing
_FIXED = {
    "r4-fixed": (None, [((("xi", xi),), 4, 4, xi, 4, "ZERO") for xi in (2, 3)]),
    "r5k-fixed": ("k", [((("xi", xi),), 5, 5, xi, m, "ZERO")
                        for xi, m in ((2, 4), (3, 4), (1, 2))]),
    "r8-fixed-mod4": (None, [((), 8, a, b, 4, "ZERO") for a, b in
                             ((4, 2), (4, 3), (16, 5), (16, 9), (16, 13))]),
    "r8-fixed-mod8": (None, [((), 8, a, b, 8, "ZERO") for a, b in
                             ((4, 3), (8, 3), (8, 5), (8, 7))]),
    "r8-halved": (None, [((), 8, 16, 1, m, "P_CONVOLUTION") for m in (2, 4)]),
    "conv-overpartition": ("ell", [((), 1, 1, 0, None, "OVERPARTITION_CONV")]),
    "r2-distinct": (None, [((), 2, 1, 0, None, "D2")]),
    # proof-internal congruences, which catch transcription slips before
    # the headline claims run; each id spells ell, progression, modulus
    "r4-4n1-mod4": (None, [((), 4, 4, 1, 4, "TWO_F1_PSI_Q2")]),
    "r6-2n1-mod3": (None, [((), 6, 2, 1, 3, "TWO_PSI_PSI4")]),
    "r6-3n2-mod3": (None, [((), 6, 3, 2, 3, "PSI_SQ_Q3")]),
    "r6-all-mod3": (None, [((), 6, 1, 0, 3, "PSI_SQ")]),
    "r8-2n1-exact": (None, [((), 8, 2, 1, None, "R8_ODD_EXACT")]),
    "r8-2n1-mod8": (None, [((), 8, 2, 1, 8, "TWO_F8_SQ")]),
    "r8-4n1-mod4": (None, [((), 8, 4, 1, 4, "TWO_F4_SQ")]),
    "r8-16n1-mod4": (None, [((), 8, 16, 1, 4, "TWO_F1_SQ")]),
}

FAMILIES = tuple(sorted({*_PROGRESSIONS, *_FIXED}))


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion, for an odd prime p."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _take(params: dict, family: str, required: tuple[str, ...],
          optional: tuple[str, ...] = ()) -> None:
    missing = [k for k in required if k not in params]
    unknown = [k for k in params if k not in required + optional]
    if missing or unknown:
        raise ClaimError(
            f"{family}: takes parameters {list(required + optional)}; "
            f"missing {missing}, unknown {unknown}")


def _progression_claims(family: str, row: _Progressions,
                        params: dict) -> list[CongruenceClaim]:
    if row.p is None:
        _take(params, family, ("p",), ("alpha",))
        p, alpha = params["p"], params.get("alpha", 0)
        head = (("p", p), ("alpha", alpha))
        try:    # the bound comes first, so trial division runs on small p
            _require_prime(p)
        except ValueError as exc:
            raise EligibilityError(f"{family}: {exc}") from None
        if p < row.min_p:
            raise EligibilityError(
                f"{family}: hypothesis requires p >= {row.min_p}, got {p}")
        sym = _legendre(row.witness, p)
        if sym != -1:
            raise EligibilityError(
                f"{family}: hypothesis requires ({row.witness}/p) = -1, "
                f"but ({row.witness}/{p}) = {sym}")
    else:
        _take(params, family, ("alpha",))
        p, alpha = row.p, params["alpha"]
        head = (("alpha", alpha),)
    if not isinstance(alpha, int) or alpha < 0:
        raise ClaimError(f"{family}: alpha must be an integer >= 0, got {alpha!r}")
    e = 2 * alpha + row.d
    # p^e >= 2^e, so e is bounded before p ** e is formed; mult p^e - 1
    # >= div DEFAULT_MAX_ORDER puts every offset past the order guard
    num = (row.mult * p ** e - 1
           if e < (row.div * DEFAULT_MAX_ORDER).bit_length() else None)
    if num is None or num >= row.div * DEFAULT_MAX_ORDER:
        raise OrderShortfallError(
            f"{family}: alpha = {alpha} puts every offset past the max-order "
            f"guard {DEFAULT_MAX_ORDER}")
    if num % row.div:
        raise IntegralityError(
            f"{family}: offset ({row.mult}*p^{e}-1)/{row.div} is not an "
            f"integer for p = {p}")
    return [CongruenceClaim(
                family, head + ((("r", r),) if row.rs is None else ()),
                row.ell, Progression(row.b * p ** e,
                                     row.b * p ** (2 * alpha + 1) * r
                                     + num // row.div),
                row.modulus, row.rhs)
            for r in row.rs or range(1, p)]


def instantiate(family: str, **params) -> list[CongruenceClaim]:
    """Turn a claim family plus parameters into concrete claims.

    Families (descriptive tags; full statements in each claim's
    describe()):

    - r{4,6,8}-prime-series / -vanish: prime families on ell=4, 6, 8
      (p, alpha), rows of one progression formula (`_Progressions`)
    - r6-iterated: a(9^a n + (9^a-1)/4) == a(n) mod 3
    - r6-iterated-alt: offset variant (9^a-1)/2, kept to document its failure
    - r6-vanish-a / r6-vanish-b: a(9^{a+1} n + (21*9^a-1)/4 | (33*9^a-1)/4) == 0 mod 3
      (the 9-adic families are that formula at p = 3)
    - r4-fixed: a(4n+xi) == 0 mod 4, xi in {2, 3}
    - r5k-fixed: ell=5k; a(5n+2), a(5n+3) == 0 mod 4, a(5n+1) == 0 mod 2
    - r8-fixed-mod4 / r8-fixed-mod8: five mod-4 and four mod-8 vanishing
      progressions on ell=8
    - r8-halved: (1/2) a(16n+1) vs the p(n) triangular convolution,
      at modulus 2 and modulus 4 (both recorded)
    - conv-overpartition: exact convolution against pbar(n) (param ell)
    - r2-distinct: a(n) = D2(n) exactly on ell=2
    - r4-4n1-mod4, r6-2n1-mod3, r6-3n2-mod3, r6-all-mod3, r8-2n1-exact,
      r8-2n1-mod8, r8-4n1-mod4, r8-16n1-mod4: the proof-internal
      progression congruences (ell, progression and modulus as spelled)
    """
    params = dict(params)
    if family in _PROGRESSIONS:
        return _progression_claims(family, _PROGRESSIONS[family], params)
    if family not in _FIXED:
        raise ClaimError(
            f"unknown family {family!r}; known: " + ", ".join(FAMILIES))
    name, rows = _FIXED[family]
    _take(params, family, (name,) if name else ())
    v = params.get(name, 1)
    if not isinstance(v, int) or v < 1:
        raise ClaimError(
            f"{family}: {name} must be a positive integer, got {v!r}")
    head = ((name, v),) if name else ()
    return [CongruenceClaim(family, head + ps, v * ell, Progression(step, off),
                            m, rhs)
            for ps, ell, step, off, m, rhs in rows]


# -- verification -------------------------------------------------------------------


def _base(claim: CongruenceClaim, terms: int
          ) -> tuple[EtaQuotient, int, int | None]:
    """The (quotient, order, modulus) whose expansion holds a claim's
    first ``terms`` progression values; halved claims, those against
    P_CONVOLUTION, read it mod 2m."""
    modulus = claim.modulus
    if claim.rhs == "P_CONVOLUTION":
        modulus *= 2
    return (claim.source_series, claim.progression.index(terms - 1) + 1,
            modulus)


def _values(claim: CongruenceClaim, terms: int) -> tuple:
    """a(step n + offset) for n < terms, mod 2m for halved claims."""
    base, prog = expand_quotient(*_base(claim, terms)), claim.progression
    return base.coeffs[prog.offset::prog.step]


# -- right-hand sides ------------------------------------------------------------
# A right-hand side is term data, (c, s, EtaQuotient, blocks) terms as
# `eta_terms` builds them, expanded exactly and reduced at compare time,
# or a function that reads the counting oracles and returns (found,
# expected, compare modulus, detail) for the first ``terms``
# progression indices of a claim.


def _p_convolution_rhs(claim, terms):
    # (1/2) a(step n + offset) == sum_{nu>=0} p(n - nu(nu+1)/2) mod m,
    # compared in doubled form mod 2m so odd values fail honestly.  The
    # expected side is the oracle table added onto itself once per
    # triangular number T_nu, shifted by T_nu: that is p times psi(q),
    # but summed from the oracle's integers by list slices, with no
    # Series and no product, so no fault in series arithmetic reaches
    # the side that checks the series
    vals = _values(claim, terms)
    ptab = counting.count(counting.PLAIN_P, terms - 1)
    total = [0] * terms
    tri = nu = 0
    while tri < terms:
        total[tri:] = map(operator.add, total[tri:], ptab)
        nu += 1
        tri += nu
    expected = [2 * t for t in total]
    cmp_mod = 2 * claim.modulus
    return vals, expected, cmp_mod, {"comparison": f"doubled congruence mod {cmp_mod}"}


def _overpartition_conv_rhs(claim, terms):
    # sum_{nu>=0} a(n - ell nu) p(nu) = pbar(n), exactly: the first terms
    # coefficients of the product of a with p(nu) spread to q^(ell nu).
    # a is built by division, with no product, and p and pbar are oracle
    # tables, so a fault in the product can only fail the check
    a = _values(claim, terms)
    ptab = counting.count(counting.PLAIN_P, (terms - 1) // claim.ell)
    pbar = counting.count(counting.OVERPARTITION, terms - 1)
    spread = [0] * terms
    spread[::claim.ell] = ptab
    lhs = (Series(a) * Series(spread)).coeffs
    return lhs, pbar, None, {"sources": "series+oracle convolution vs oracle"}


def _d2_rhs(claim, terms):
    lhs = counting.count(counting.NONOVERLINED_L_REGULAR(2), terms - 1)
    rhs = counting.count(counting.DISTINCT_TWO_COPIES, terms - 1)
    return lhs, rhs, None, {"sources": "oracle vs oracle"}


# f1 psi(q^2) = f1 f4^2/f2, psi(q) = f2^2/f1, f1 psi(q) = f2^2; SELF
# is the generating function f2 f6/f1^2 of the ell = 6 claims that use it.
# psi(q)^2 is spelled phi(q) psi(q^2): r6-all-mod3's left side, f2 f6/f1^2
# mod 3, is expanded as psi(q)^2 itself, and a right side built the same
# way would only check the fold f6 = f2^3
_RHS = {
    "ZERO": (),
    "TWO_F1_PSI_Q2": eta_terms((2, 0, "1:1,4:2,2:-1")),
    "TWO_PSI_PSI4": eta_terms((2, 0, "2:2,8:2,1:-1,4:-1")),
    "TWO_F1_PSI": eta_terms((2, 0, "2:2")),
    "PSI_SQ": eta_terms((1, 0, "1", (1, 1, 1, 1), (2, 6, 1, 1))),
    "PSI_SQ_Q3": eta_terms((1, 0, "6:4,3:-2")),
    "TWO_F8_SQ": eta_terms((2, 0, "8:2")),
    "TWO_F4_SQ": eta_terms((2, 0, "4:2")),
    "TWO_F1_SQ": eta_terms((2, 0, "1:2")),
    "R8_ODD_EXACT": eta_terms((2, 0, "2:2,8:2,1:-4")),
    "SELF": eta_terms((1, 0, "2:1,6:1,1:-2")),
    "P_CONVOLUTION": _p_convolution_rhs,
    "OVERPARTITION_CONV": _overpartition_conv_rhs,
    "D2": _d2_rhs,
}


def _check_size(claim: CongruenceClaim, terms: int) -> None:
    """Refuse a check of fewer than one term, one whose base series would
    pass `DEFAULT_MAX_ORDER` or whose oracle tables would pass
    `counting.COUNT_LIMIT`, or one whose base and right side together
    would pass the build budget, before anything is built."""
    if terms < 1:
        raise ClaimError(f"terms must be >= 1, got {terms}")
    eq, need, modulus = _base(claim, terms)
    if need > DEFAULT_MAX_ORDER:
        raise OrderShortfallError(
            f"{claim.describe()}: needs base series order {need}, above the "
            f"max-order guard {DEFAULT_MAX_ORDER}; lower terms")
    rhs = _RHS.get(claim.rhs, ())
    if callable(rhs) and terms - 1 > counting.COUNT_LIMIT:
        raise OrderShortfallError(
            f"{claim.describe()}: reads the counting oracles to n = "
            f"{terms - 1}, above the oracle size guard "
            f"{counting.COUNT_LIMIT}; lower terms")
    afford((((1, 0, eq, ()),), need, modulus),    # an oracle side: no series
           (() if callable(rhs) else rhs, terms, None),
           error=OrderShortfallError, prefix=f"{claim.describe()}: ")


def verify(claim: CongruenceClaim,
           terms: int = DEFAULT_TERMS) -> VerificationReport:
    """Check the first ``terms`` progression coefficients of a claim.

    The base series is expanded to the needed order (refusing past
    `DEFAULT_MAX_ORDER`, or oracle tables past `counting.COUNT_LIMIT`);
    counterexample indices are in the progression variable n, so index
    i means coefficient step*i + offset.
    """
    _check_size(claim, terms)
    return _verify(claim, terms)


def _verify(claim: CongruenceClaim, terms: int) -> VerificationReport:
    """`verify` for a claim that has met `_check_size`."""
    t0 = time.perf_counter()
    try:
        rhs = _RHS[claim.rhs]
    except KeyError:
        raise ClaimError(f"unknown rhs tag {claim.rhs!r}") from None
    if callable(rhs):
        found, expected, cmp_mod, detail = rhs(claim, terms)
    else:
        found, cmp_mod, detail = _values(claim, terms), claim.modulus, {}
        expected = expand_terms(rhs, terms).coeffs
    return check(claim.family, found, expected, terms, cmp_mod, detail,
                 started=t0, params=dict(claim.params), modulus=claim.modulus,
                 progression=(claim.progression.step, claim.progression.offset))


def verify_rows(rows) -> list[VerificationReport]:
    """Verify ``(family, params, terms)`` rows: the reports of each row in
    the order given, a row's claims sorted canonically (params,
    progression, modulus).  Every claim meets the size guards before any
    series is built; each base series is then expanded once, at the
    largest order any claim of any row needs."""
    batch = [(claim, terms) for family, params, terms in rows
             for claim in sorted(
                 instantiate(family, **params),
                 key=lambda c: (c.params, c.progression.step,
                                c.progression.offset, c.modulus or 0))]
    orders: dict[tuple, int] = {}
    for claim, terms in batch:
        _check_size(claim, terms)
        eq, order, modulus = _base(claim, terms)
        orders[eq, modulus] = max(order, orders.get((eq, modulus), 0))
    for (eq, modulus), order in orders.items():
        expand_quotient(eq, order, modulus)
    return [_verify(claim, terms) for claim, terms in batch]


# -- search --------------------------------------------------------------------------


class Candidate(namedtuple(
        "Candidate", "ell step offset modulus evidence rediscovers")):
    """A progression step*n + offset on which every checked coefficient
    of f2 f_ell / f1^2 vanishes mod modulus (maximal such <= bound), on
    ``evidence`` coefficients; ``rediscovers`` holds the labels of the
    known claims it matches."""

    __slots__ = ()

    def describe(self) -> str:
        tag = f"a({self.step}n+{self.offset}) == 0 mod {self.modulus}"
        known = f"  [{'; '.join(self.rediscovers)}]" if self.rediscovers else ""
        return f"ell={self.ell}: {tag} ({self.evidence} terms){known}"


MIN_EVIDENCE = 50


def _known_progressions(ell: int) -> list[tuple[str, int, int, int]]:
    """(label, step, offset, modulus) of every claim of each fixed family
    that takes no parameter and claims only vanishing on ``ell``."""
    fixed = {family: instantiate(family)
             for family, (name, _) in _FIXED.items() if name is None}
    return [(f"{family}({c.progression} mod {c.modulus})",
             c.progression.step, c.progression.offset, c.modulus)
            for family, claims in fixed.items()
            if all(c.ell == ell and c.rhs == "ZERO" for c in claims)
            for c in claims]


# search scans residues mod L = lcm(2..max_modulus) while L is at most
# this, so that residues are machine words (a C long) for sum() in
# series._divide: max_modulus <= 42, L = lcm(2..42) < 2^58, while
# lcm(2..43) > 2^63.  That is where ring and exact scans cross at small
# orders.  R*_8, max_step 16, ring against exact (2-vCPU Xeon VM,
# CPython 3.11, medians of alternating runs): max_modulus 42 even at
# 1001 terms, 32 against 46 ms at 8000, 166 against 341 ms at 40000 and
# 3.7 against 6.8 s at 200000; max_modulus 43 to 128 (64 to 184 bits)
# 5-18% slower at 1001 to 4000 terms and even at 8000.  Past 8000 terms
# a wider ring wins too, its base divided by the recurrence as every
# base mod a wide ring is (series._quotient).  Ring over exact time for
# max_modulus past 42, medians of five alternating runs: 1.12-1.27 at
# 1001 terms and 0.92-1.24 at 8000 (max_modulus 43, 64, 128 and 300),
# 0.79-0.85 at 40000 (43, 64 and 128; the build price refuses the ring
# at 300) and 0.62-0.63 at 100000 (0.95-1.08 against 1.53-1.71 s at
# max_modulus 43 and 100).
_RING_BOUND = 2 ** 63


def _search_ring(max_modulus: int) -> int | None:
    """lcm(2..max_modulus), or None when it passes _RING_BOUND."""
    ring = 1
    for m in range(2, max_modulus + 1):
        ring = math.lcm(ring, m)
        if ring > _RING_BOUND:
            return None
    return ring


def search(ell: int, max_step: int, max_modulus: int,
           terms: int = DEFAULT_TERMS) -> list[Candidate]:
    """Scan all progressions with step <= max_step for total vanishing
    mod some m in 2..max_modulus, over the first ``terms`` coefficients.

    The coefficients are read mod L = lcm(2..max_modulus), or over Z
    once L passes _RING_BOUND, and a progression's values a(n) mod L give
    g = gcd(L, a(n), ...): every m <= max_modulus divides L, so it
    divides g exactly when it divides every a(n), and a(n) >= 1 (the
    overpartition of n into the one overlined part n), so g is never 0.
    The candidates are those of the exact scan.

    Only progressions with at least MIN_EVIDENCE supporting values are
    reported; each hit carries the maximal modulus and any matching
    known claims.
    """
    if ell < 1 or max_step < 1 or max_modulus < 2 or terms < 1:
        raise ValueError(
            "need ell >= 1, max_step >= 1, max_modulus >= 2, terms >= 1")
    ring = _search_ring(max_modulus)
    afford((((1, 0, EtaQuotient.rstar(ell), ()),), terms, ring),
           prefix="search: ")
    coeffs = expand_quotient(EtaQuotient.rstar(ell), terms, ring).coeffs
    known = _known_progressions(ell)
    out = []
    # coeffs[offset::step] has at least MIN_EVIDENCE values exactly when
    # offset < len(coeffs) - (MIN_EVIDENCE - 1) * step; past the last
    # step with such an offset no progression can be reported
    n = len(coeffs)
    need = MIN_EVIDENCE - 1
    top = min(max_step, (n - 1) // need)
    gcds = {}   # step -> the gcd of each offset's values, with ring
    for step in range(top, 0, -1):
        # offset B of step A is offsets B and B + A of step 2A, so only
        # the steps above top / 2 slice the coefficients; a step's row
        # covers every offset, reported or not, for its half to read
        if 2 * step <= top:
            wide = gcds.pop(2 * step)
            row = [math.gcd(wide[b], wide[b + step]) for b in range(step)]
        else:
            row = [math.gcd(ring or 0, *coeffs[b::step]) for b in range(step)]
        gcds[step] = row
        for offset in range(min(step, n - need * step)):
            g = row[offset]
            # the largest modulus dividing g, which is at most g
            best = next((m for m in range(min(max_modulus, g), 1, -1)
                         if g % m == 0), 0)
            if not best:
                continue
            labels = tuple(sorted(
                label for label, ka, kb, km in known
                if ka == step and kb == offset and best % km == 0))
            out.append(Candidate(ell, step, offset, best,
                                 (n - offset + step - 1) // step, labels))
    out.sort(key=lambda c: (-c.evidence, c.step, c.offset, -c.modulus))
    return out
