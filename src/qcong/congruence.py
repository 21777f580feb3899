"""Congruence claims on coefficients of f2 f_ell / f1^2 along arithmetic
progressions: instantiation from a family catalog, verification against
the series engine and the counting oracles, and a brute-force search
for vanishing progressions.

A claim is data (family, parameters, progression, modulus, right-hand
side tag); it reads one base series, the (quotient, order, modulus)
given by `_base`.  `verify_many` first expands each (quotient,
modulus) its claims read once, at the largest order any of them needs
(`expand_for`), then slices every progression out of that one series.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Optional

from . import counting
from .qfunctions import _is_prime, eta_quotient, euler_product, psi
from .report import VerificationReport, check
from .series import EtaQuotient, Series

DEFAULT_TERMS = 500
DEFAULT_MAX_ORDER = 200_000
PRIME_LIMIT = 31   # progression indices grow like p^(2 alpha + 2)
ALPHA_LIMIT = 2
ELL_LIMIT = 40     # largest ell a parametrized fixed family reaches


class ClaimError(ValueError):
    """Base for claim construction/verification argument errors."""


class EligibilityError(ClaimError):
    """A family hypothesis (prime bound or Legendre condition) fails."""


class IntegralityError(ClaimError):
    """A theorem offset formula does not produce an integer."""


class OrderShortfallError(ClaimError):
    """The requested check needs a longer series than the guard allows."""


@dataclass(frozen=True)
class Progression:
    """Indices {step*n + offset : n >= 0}.  Offsets keep their natural
    theorem form and may exceed the step."""

    step: int
    offset: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")

    def index(self, n: int) -> int:
        return self.step * n + self.offset

    def __str__(self) -> str:
        return f"{self.step}n+{self.offset}"


@dataclass(frozen=True)
class CongruenceClaim:
    family: str
    params: tuple[tuple[str, int], ...]
    ell: int
    progression: Progression
    modulus: Optional[int]        # None: exact equality
    rhs: str                      # tag into _RHS
    halve: bool = False           # claim is about value/2 (doubled comparison)

    @property
    def source_series(self) -> EtaQuotient:
        return EtaQuotient.rstar(self.ell)

    def describe(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        head = f"{self.family}[{ps}]" if ps else self.family
        val = f"a({self.progression})"
        if self.halve:
            val = f"(1/2) {val}"
        rel = f"== {self.rhs} (mod {self.modulus})"
        if self.modulus is None:
            rel = f"= {self.rhs}"
        return f"{head}: {val} {rel}  [ell={self.ell}]"


# -- shared base-series cache ------------------------------------------------------

_CACHE: dict[tuple, Series] = {}


def expand_quotient(eq: EtaQuotient, order: int,
                    modulus: Optional[int] = None) -> Series:
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


@dataclass(frozen=True)
class _Progressions:
    """Claims on a(b p^(2 alpha + d) n + b p^(2 alpha + 1) r
    + (mult p^(2 alpha + d) - 1) / div) on ell, mod ``modulus``.

    d = 0 (r = 0) is one claim against the ``rhs`` series; d = 2 is one
    vanishing claim per r in ``rs``.  With ``p`` None the prime is a
    parameter, eligible from ``min_p`` when (witness/p) = -1 (the
    default witness 0 admits none), and r, a claim parameter, runs over
    1..p-1 (``rs`` None); with a fixed ``p`` the claims take alpha alone.
    """

    ell: int
    modulus: int
    rhs: str
    b: int
    mult: int
    div: int
    d: int = 0
    rs: Optional[tuple[int, ...]] = (0,)
    p: Optional[int] = None
    min_p: int = 0
    witness: int = 0


# the 9-adic ell = 6 families are the formula at p = 3
_R6 = _Progressions(ell=6, modulus=3, rhs="SELF", b=1, mult=1, div=4, p=3)
_PROGRESSIONS = {
    "r6-iterated": _R6,
    "r6-iterated-alt": replace(_R6, div=2),   # kept to document its failure
    "r6-vanish-a": replace(_R6, rhs="ZERO", d=2, rs=(1,)),
    "r6-vanish-b": replace(_R6, rhs="ZERO", d=2, rs=(2,)),
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
    _PROGRESSIONS[_name + "-vanish"] = replace(_row, rhs="ZERO", d=2, rs=None)

# families without a progression parameter: family -> (its one
# parameter or None, claims as (params, ell, step, offset, modulus (None
# = exact), rhs tag, halve)); a parameter v multiplies each ell by v,
# up to ELL_LIMIT, and leads the claims' params
_FIXED = {
    "r4-fixed": (None, [((("xi", xi),), 4, 4, xi, 4, "ZERO", False)
                        for xi in (2, 3)]),
    "r5k-fixed": ("k", [((("xi", xi),), 5, 5, xi, m, "ZERO", False)
                        for xi, m in ((2, 4), (3, 4), (1, 2))]),
    "r8-fixed-mod4": (None, [((), 8, a, b, 4, "ZERO", False) for a, b in
                             ((4, 2), (4, 3), (16, 5), (16, 9), (16, 13))]),
    "r8-fixed-mod8": (None, [((), 8, a, b, 8, "ZERO", False) for a, b in
                             ((4, 3), (8, 3), (8, 5), (8, 7))]),
    "r8-halved": (None, [((), 8, 16, 1, m, "P_CONVOLUTION", True)
                         for m in (2, 4)]),
    "conv-overpartition": ("ell", [((), 1, 1, 0, None, "OVERPARTITION_CONV",
                                    False)]),
    "r2-distinct": (None, [((), 2, 1, 0, None, "D2", False)]),
    # proof-internal congruences, which catch transcription slips before
    # the headline claims run; each id spells ell, progression, modulus
    "r4-4n1-mod4": (None, [((), 4, 4, 1, 4, "TWO_F1_PSI_Q2", False)]),
    "r6-2n1-mod3": (None, [((), 6, 2, 1, 3, "TWO_PSI_PSI4", False)]),
    "r6-3n2-mod3": (None, [((), 6, 3, 2, 3, "PSI_SQ_Q3", False)]),
    "r6-all-mod3": (None, [((), 6, 1, 0, 3, "PSI_SQ", False)]),
    "r8-2n1-exact": (None, [((), 8, 2, 1, None, "R8_ODD_EXACT", False)]),
    "r8-2n1-mod8": (None, [((), 8, 2, 1, 8, "TWO_F8_SQ", False)]),
    "r8-4n1-mod4": (None, [((), 8, 4, 1, 4, "TWO_F4_SQ", False)]),
    "r8-16n1-mod4": (None, [((), 8, 16, 1, 4, "TWO_F1_SQ", False)]),
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
        # the bound comes first, so primality is only tested on small p
        if isinstance(p, int) and p > PRIME_LIMIT:
            raise EligibilityError(
                f"{family}: p = {p} exceeds the supported bound {PRIME_LIMIT} "
                "(indices grow like p^(2a+2))")
        if not isinstance(p, int) or not _is_prime(p):
            raise EligibilityError(f"{family}: p = {p!r} is not prime")
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
    if alpha > ALPHA_LIMIT:
        raise ClaimError(
            f"{family}: alpha = {alpha} exceeds the supported bound {ALPHA_LIMIT}")
    e = 2 * alpha + row.d
    num = row.mult * p ** e - 1
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
    top = v * max(row[1] for row in rows)
    if top > ELL_LIMIT:
        raise ClaimError(
            f"{family}: ell = {top} exceeds the supported bound {ELL_LIMIT}")
    head = ((name, v),) if name else ()
    return [CongruenceClaim(family, head + ps, v * ell, Progression(step, off),
                            m, rhs, halve)
            for ps, ell, step, off, m, rhs, halve in rows]


# -- verification -------------------------------------------------------------------


def _base(claim: CongruenceClaim, terms: int
          ) -> tuple[EtaQuotient, int, Optional[int]]:
    """The (quotient, order, modulus) whose expansion holds a claim's
    first ``terms`` progression values; halved claims read it mod 2m."""
    modulus = 2 * claim.modulus if claim.halve else claim.modulus
    return (claim.source_series, claim.progression.index(terms - 1) + 1,
            modulus)


def expand_for(pairs, max_order: int = DEFAULT_MAX_ORDER) -> None:
    """Expand each base series the ``(claim, terms)`` pairs read once, at
    the largest order any of them needs; pairs past ``max_order`` are
    left for `verify` to refuse."""
    orders: dict[tuple, int] = {}
    for claim, terms in pairs:
        eq, order, modulus = _base(claim, terms)
        if terms >= 1 and order <= max_order:
            orders[eq, modulus] = max(order, orders.get((eq, modulus), 0))
    for (eq, modulus), order in orders.items():
        expand_quotient(eq, order, modulus)


def _values(claim: CongruenceClaim, terms: int) -> tuple[tuple, Series]:
    """a(step n + offset) for n < terms (mod 2m for halved claims), and
    the base series they were sliced from."""
    base = expand_quotient(*_base(claim, terms))
    prog = claim.progression
    return base.coeffs[prog.offset::prog.step], base


# -- right-hand sides ------------------------------------------------------------
# Each returns (found, expected, compare modulus, detail) for the first
# ``terms`` progression indices of a claim.


def _against(build):
    # compare with an exact series; reduction happens at compare time,
    # so one builder serves every modulus
    return lambda claim, terms: (_values(claim, terms)[0], build(terms).coeffs,
                                 claim.modulus, {})


def _self_rhs(claim, terms):
    vals, base = _values(claim, terms)
    return vals, base.coeffs[:terms], claim.modulus, {}


def _p_convolution_rhs(claim, terms):
    # (1/2) a(step n + offset) == sum_{nu>=0} p(n - nu(nu+1)/2) mod m,
    # compared in doubled form mod 2m so odd values fail honestly
    vals, _ = _values(claim, terms)
    ptab = counting.count(counting.PLAIN_P, terms - 1)
    expected = []
    for n in range(terms):
        total = 0
        nu = 0
        while nu * (nu + 1) // 2 <= n:
            total += ptab[n - nu * (nu + 1) // 2]
            nu += 1
        expected.append(2 * total)
    cmp_mod = 2 * claim.modulus
    return vals, expected, cmp_mod, {"comparison": f"doubled congruence mod {cmp_mod}"}


def _overpartition_conv_rhs(claim, terms):
    # sum_{nu>=0} a(n - ell nu) p(nu) = pbar(n), exactly
    a, _ = _values(claim, terms)
    ptab = counting.count(counting.PLAIN_P, (terms - 1) // claim.ell)
    pbar = counting.count(counting.OVERPARTITION, terms - 1)
    # a[n::-ell] is a(n), a(n - ell), ...; ptab[0] = p(0) = 1
    lhs = [sum(map(operator.mul, a[n::-claim.ell], ptab))
           for n in range(terms)]
    return lhs, pbar, None, {"sources": "series+oracle convolution vs oracle"}


def _d2_rhs(claim, terms):
    lhs = counting.count(counting.NONOVERLINED_L_REGULAR(2), terms - 1)
    rhs = counting.count(counting.DISTINCT_TWO_COPIES, terms - 1)
    return lhs, rhs, None, {"sources": "oracle vs oracle"}


_RHS = {
    "ZERO": _against(Series.zero),
    "TWO_F1_PSI_Q2": _against(lambda n: 2 * (euler_product(1, n) * psi(n, 2))),
    "TWO_PSI_PSI4": _against(lambda n: 2 * (psi(n) * psi(n, 4))),
    "TWO_F1_PSI": _against(lambda n: 2 * (euler_product(1, n) * psi(n))),
    "PSI_SQ": _against(lambda n: psi(n) ** 2),
    "PSI_SQ_Q3": _against(lambda n: psi(n, 3) ** 2),
    "TWO_F8_SQ": _against(lambda n: 2 * euler_product(8, n) ** 2),
    "TWO_F4_SQ": _against(lambda n: 2 * euler_product(4, n) ** 2),
    "TWO_F1_SQ": _against(lambda n: 2 * euler_product(1, n) ** 2),
    "R8_ODD_EXACT": _against(
        lambda n: 2 * eta_quotient([(2, 2), (8, 2), (1, -4)], n)),
    "SELF": _self_rhs,
    "P_CONVOLUTION": _p_convolution_rhs,
    "OVERPARTITION_CONV": _overpartition_conv_rhs,
    "D2": _d2_rhs,
}


def verify(claim: CongruenceClaim, terms: int = DEFAULT_TERMS,
           max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Check the first ``terms`` progression coefficients of a claim.

    The base series is expanded to the needed order (refusing past
    ``max_order``); counterexample indices are in the progression
    variable n, so index i means coefficient step*i + offset.
    """
    if terms < 1:
        raise ClaimError(f"terms must be >= 1, got {terms}")
    t0 = time.perf_counter()
    need = _base(claim, terms)[1]
    if need > max_order:
        raise OrderShortfallError(
            f"{claim.describe()}: needs base series order {need}, above the "
            f"max-order guard {max_order}; lower terms")
    try:
        rhs = _RHS[claim.rhs]
    except KeyError:
        raise ClaimError(f"unknown rhs tag {claim.rhs!r}") from None
    found, expected, cmp_mod, detail = rhs(claim, terms)
    return check(claim.family, found, expected, terms, cmp_mod, detail,
                 started=t0, params=dict(claim.params), modulus=claim.modulus,
                 progression=(claim.progression.step, claim.progression.offset))


def verify_many(claims: list[CongruenceClaim], terms: int = DEFAULT_TERMS,
                max_order: int = DEFAULT_MAX_ORDER) -> list[VerificationReport]:
    """Verify a batch; output is sorted canonically (family, params,
    progression)."""
    ordered = sorted(
        claims, key=lambda c: (c.family, c.params, c.progression.step,
                               c.progression.offset, c.modulus or 0))
    expand_for([(c, terms) for c in ordered], max_order)
    return [verify(c, terms, max_order) for c in ordered]


# -- search --------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """A progression step*n + offset on which every checked coefficient
    of f2 f_ell / f1^2 vanishes mod modulus (maximal such <= bound)."""

    ell: int
    step: int
    offset: int
    modulus: int
    evidence: int                  # number of supporting coefficients
    rediscovers: tuple[str, ...]   # matching known-claim labels

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


def search(ell: int, max_step: int, max_modulus: int,
           terms: int = DEFAULT_TERMS) -> list[Candidate]:
    """Scan all progressions with step <= max_step for total vanishing
    mod some m in 2..max_modulus, over the first ``terms`` coefficients.

    Only progressions with at least MIN_EVIDENCE supporting values are
    reported; each hit carries the maximal modulus and any matching
    known claims.
    """
    if ell < 1 or max_step < 1 or max_modulus < 2 or terms < 1:
        raise ValueError(
            "need ell >= 1, max_step >= 1, max_modulus >= 2, terms >= 1")
    coeffs = expand_quotient(EtaQuotient.rstar(ell), terms, None).coeffs
    known = _known_progressions(ell)
    out = []
    # coeffs[offset::step] has at least MIN_EVIDENCE values exactly when
    # offset < len(coeffs) - (MIN_EVIDENCE - 1) * step; past the last
    # step with such an offset no progression can be reported
    need = MIN_EVIDENCE - 1
    for step in range(1, min(max_step, (len(coeffs) - 1) // need) + 1):
        for offset in range(min(step, len(coeffs) - need * step)):
            vals = coeffs[offset::step]
            g = 0
            for v in vals:
                g = math.gcd(g, v)
                if g == 1:
                    break
            if g == 1 or g == 0:
                continue
            # the largest modulus dividing g, which is at most g
            best = next((m for m in range(min(max_modulus, g), 1, -1)
                         if g % m == 0), 0)
            if not best:
                continue
            labels = tuple(sorted(
                label for label, ka, kb, km in known
                if ka == step and kb == offset and best % km == 0))
            out.append(Candidate(ell, step, offset, best, len(vals), labels))
    out.sort(key=lambda c: (-c.evidence, c.step, c.offset, -c.modulus))
    return out
