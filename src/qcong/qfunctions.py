"""Theta-function and Euler-product constructors, plus a catalog of
dissection identities checked as exact statements about truncated series.

The catalog is the ground layer: every congruence verified elsewhere
leans on one or more of these identities, so each is checkable on its
own, to any order, and reports counterexamples rather than asserting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Optional

from .report import VerificationReport, compare_coefficients
from .series import EtaQuotient, Series


# -- basic constructors --------------------------------------------------------


def euler_product(h: int, order: int) -> Series:
    """(q^h; q^h)_infinity truncated below ``order``.

    Pentagonal number theorem: f(-q) = F(-q, -q^2), so this is the sum
    over nu in Z of (-1)^nu q^{h nu(3nu+1)/2}.  The result is sparse:
    O(sqrt(order/h)) nonzero terms.
    """
    return EULER_SPEC.expand(order, h)


def eta_quotient(factors, order: int, modulus: Optional[int] = None) -> Series:
    """Expand a product of Euler factors prod_h f_h^{e_h}.

    ``factors`` may be an EtaQuotient, a list of (scale, exponent)
    pairs, or a string like "2:1,5:1,1:-2".  Scales are taken in
    ascending order, and each f_{2h}/f_h^2 (or f_h^2/f_{2h}) the
    exponents hold is taken out as phi(-q^h)^-1 (or phi(-q^h)), since
    f_h^2/f_{2h} = phi(-q^h) is a theta series with O(sqrt(order))
    terms.  So f_2 f_ell/f_1^2 costs one sparse inversion of phi(-q) and
    one product.  Every other factor is an Euler product, inverted
    while still sparse when its exponent is negative.
    """
    if isinstance(factors, str):
        factors = EtaQuotient.parse(factors)
    elif not isinstance(factors, EtaQuotient):
        factors = EtaQuotient(factors)
    exps = dict(factors.factors)   # scales ascending, as normalized
    phis = []
    for h in exps:
        e, e2 = exps[h], exps.get(2 * h, 0)
        if e <= -2 and e2 >= 1:
            k = -min(-e // 2, e2)
        elif e >= 2 and e2 <= -1:
            k = min(e // 2, -e2)
        else:
            continue
        phis.append((h, k))        # phi(-q^h)^k = f_h^{2k} f_{2h}^{-k}
        exps[h] = e - 2 * k
        exps[2 * h] = e2 + k

    def bases():
        for h, k in phis:
            yield general_theta(PHI_NEG_SPEC, order, h), k
        for h, e in exps.items():
            if e:
                yield euler_product(h, order), e

    out = None
    for base, e in bases():
        if modulus is not None:
            base = base.reduce_mod(modulus)
        term = base ** e
        out = term if out is None else out * term
    return Series.one(order, modulus) if out is None else out


@dataclass(frozen=True)
class ThetaSpec:
    """Bilateral theta series F(x, y) = sum over t in Z of
    x^{t(t+1)/2} y^{t(t-1)/2}, specialized at x = sign_x q^a,
    y = sign_y q^b.  Requires a, b >= 0 and a + b > 0 (convergence of
    the formal sum: exponents grow like (a+b) t^2 / 2)."""

    a: int
    b: int
    sign_x: int = 1
    sign_y: int = 1

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError(f"theta exponents must be >= 0, got ({self.a}, {self.b})")
        if self.a + self.b == 0:
            raise ValueError("divergent theta: needs a + b > 0")
        if self.sign_x not in (1, -1) or self.sign_y not in (1, -1):
            raise ValueError("signs must be +1 or -1")

    def expand(self, order: int, scale: int = 1) -> Series:
        """F(sign_x q^(scale a), sign_y q^(scale b)) truncated below ``order``."""
        return _theta_block(self.a, self.b, order, scale=scale,
                            sign_x=self.sign_x, sign_y=self.sign_y)


PHI_SPEC = ThetaSpec(1, 1)            # phi(q)  = F(q, q)
PSI_SPEC = ThetaSpec(1, 3)            # psi(q)  = F(q, q^3)
EULER_SPEC = ThetaSpec(1, 2, -1, -1)  # f(-q)   = F(-q, -q^2)
PHI_NEG_SPEC = ThetaSpec(1, 1, -1, -1)
X_SPEC = ThetaSpec(7, 3)              # X(q)    = F(q^7, q^3)
Y_SPEC = ThetaSpec(9, 1)              # Y(q)    = F(q^9, q)


def _theta_block(a: int, b: int, order: int, scale: int = 1, shift: int = 0,
                 sign_x: int = 1, sign_y: int = 1) -> Series:
    # q^shift * F(sign_x q^(scale a), sign_y q^(scale b)) as a power
    # series.  Unlike ThetaSpec this admits a < 0, which dissection
    # summands need; any term with a negative net exponent raises.
    if a + b <= 0:
        raise ValueError(f"divergent theta block: a + b = {a + b} <= 0")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    terms = []

    def visit(t: int) -> bool:
        tp = t * (t + 1) // 2
        tm = t * (t - 1) // 2
        e = shift + scale * (a * tp + b * tm)
        if e < 0:
            raise ValueError(
                f"theta term q^{e} at t={t}: not a power series")
        if e >= order:
            return False
        s = 1
        if sign_x == -1 and tp % 2:
            s = -s
        if sign_y == -1 and tm % 2:
            s = -s
        terms.append((e, s))
        return True

    # exponent is a parabola in t with vertex at t = (b-a)/(2(a+b));
    # stop each direction only once out of range AND past the vertex
    t = 0
    while visit(t) or 2 * (a + b) * t < (b - a):
        t += 1
    t = -1
    while visit(t) or 2 * (a + b) * t > (b - a):
        t -= 1
    return Series.from_terms(terms, order)


def general_theta(spec: ThetaSpec, order: int, scale: int = 1) -> Series:
    """Expand the bilateral theta series given by ``spec`` in q^scale."""
    return spec.expand(order, scale)


def phi(order: int, scale: int = 1) -> Series:
    """phi(q^scale) = 1 + 2 sum_{nu>=1} q^{scale nu^2}."""
    return PHI_SPEC.expand(order, scale)


def psi(order: int, scale: int = 1) -> Series:
    """psi(q^scale) = sum_{nu>=0} q^{scale nu(nu+1)/2}."""
    return PSI_SPEC.expand(order, scale)


def phi_neg(order: int, scale: int = 1) -> Series:
    """phi(-q^scale), computed two independent ways and cross-checked:
    the alternating square sum and the quotient f_s^2 / f_{2s}."""
    direct = PHI_NEG_SPEC.expand(order, scale)
    # eta_quotient would expand this quotient from PHI_NEG_SPEC itself
    quotient = (euler_product(scale, order) ** 2
                * euler_product(2 * scale, order).invert())
    if direct != quotient:
        raise AssertionError(
            "internal inconsistency expanding phi(-q^%d)" % scale)
    return direct


def x_series(order: int, scale: int = 1) -> Series:
    """X(q^scale) = sum over r in Z of q^{scale (5r^2+2r)}."""
    return X_SPEC.expand(order, scale)


def y_series(order: int, scale: int = 1) -> Series:
    """Y(q^scale) = sum over r in Z of q^{scale (5r^2+4r)}."""
    return Y_SPEC.expand(order, scale)


# -- identity catalog ------------------------------------------------------------
#
# Each builder returns (lhs, rhs, modulus, detail): two series to compare
# coefficientwise (exactly when modulus is None), plus any structural
# side conditions already evaluated into detail.  Identities with a
# denominator are stated in cleared form so both sides are plain
# products; equality of truncations then proves the quoted form to the
# same order.


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _require_prime(p, minimum=2, odd=False):
    # the bound comes first: trial division is only run on small p
    if isinstance(p, int) and p > DISSECTION_LIMIT:
        raise ValueError(
            f"parameter p = {p} exceeds the size guard {DISSECTION_LIMIT}")
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"parameter p must be prime, got {p!r}")
    if p < minimum:
        raise ValueError(f"parameter p must be >= {minimum}, got {p}")
    if odd and p == 2:
        raise ValueError("parameter p must be an odd prime")


def _build_f1sq_2diss(order):
    lhs = euler_product(1, order) ** 2
    rhs = (eta_quotient([(2, 1), (8, 5), (4, -2), (16, -2)], order)
           - 2 * eta_quotient([(2, 1), (16, 2), (8, -1)], order).shift(1))
    return lhs, rhs, None, {}


def _build_inv_f1sq_2diss(order):
    lhs = eta_quotient([(1, -2)], order)
    rhs = (eta_quotient([(8, 5), (2, -5), (16, -2)], order)
           + 2 * eta_quotient([(4, 2), (16, 2), (2, -5), (8, -1)], order).shift(1))
    return lhs, rhs, None, {}


def _build_inv_f1_quad_2diss(order):
    lhs = eta_quotient([(1, -4)], order)
    rhs = (eta_quotient([(4, 14), (2, -14), (8, -4)], order)
           + 4 * eta_quotient([(4, 2), (8, 4), (2, -10)], order).shift(1))
    return lhs, rhs, None, {}


def _build_f1_quad_2diss(order):
    lhs = euler_product(1, order) ** 4
    rhs = (eta_quotient([(4, 10), (2, -2), (8, -4)], order)
           - 4 * eta_quotient([(2, 2), (8, 4), (4, -2)], order).shift(1))
    return lhs, rhs, None, {}


def _build_inv_phineg_4diss(order):
    # 1/phi(-q) = (phi(q^4)^3 + 2q phi(q^4)^2 psi(q^8) + 4q^2 phi(q^4) psi(q^8)^2
    #              + 8q^3 psi(q^8)^3) / phi(-q^4)^4, cleared of the denominator
    p4 = phi(order, 4)
    s8 = psi(order, 8)
    bracket = (p4 ** 3
               + 2 * (p4 ** 2 * s8).shift(1)
               + 4 * (p4 * s8 ** 2).shift(2)
               + 8 * (s8 ** 3).shift(3))
    lhs = phi_neg(order, 4) ** 4
    rhs = phi_neg(order) * bracket
    return lhs, rhs, None, {}


def _build_inv_phi_5diss(order):
    # 1/phi(q) = phi(q^25)/phi(q^5)^6 * [14-term bracket in phi(q^25),
    # X(q^5), Y(q^5)], cleared to: phi(q^5)^6 = phi(q) phi(q^25) bracket
    P = phi(order, 25)
    X = x_series(order, 5)
    Y = y_series(order, 5)
    bracket = (P ** 4
               - 2 * (P ** 3 * X).shift(1)
               + 4 * (P ** 2 * X ** 2).shift(2)
               - 8 * (P * X ** 3).shift(3)
               + (16 * X ** 4 - 2 * P ** 3 * Y).shift(4)
               - 12 * (P ** 2 * X * Y).shift(5)
               + 16 * (P * X ** 2 * Y).shift(6)
               - 16 * (X ** 3 * Y).shift(7)
               + 4 * (P ** 2 * Y ** 2).shift(8)
               + 16 * (P * X * Y ** 2).shift(9)
               + 16 * (X ** 2 * Y ** 2).shift(10)
               - 8 * (P * Y ** 3).shift(12)
               - 16 * (X * Y ** 3).shift(13)
               + 16 * (Y ** 4).shift(16))
    lhs = phi(order, 5) ** 6
    rhs = phi(order) * P * bracket
    return lhs, rhs, None, {}


def _build_psi_3diss(order):
    lhs = psi(order)
    rhs = _theta_block(1, 2, order, scale=3) + psi(order, 9).shift(1)
    return lhs, rhs, None, {}


def _build_psi_pdiss(order, p):
    # psi(q) = sum_{j=0}^{(p-3)/2} q^{(j^2+j)/2} F(q^{(p^2+(2j+1)p)/2},
    #          q^{(p^2-(2j+1)p)/2}) + q^{(p^2-1)/8} psi(q^{p^2}),
    # and no summand exponent collides with the tail's mod p
    _require_prime(p, minimum=3, odd=True)
    lhs = psi(order)
    rhs = psi(order, p * p).shift((p * p - 1) // 8)
    tail_residue = ((p * p - 1) // 8) % p
    side_ok = True
    collisions = []
    for j in range((p - 1) // 2):
        a = (p * p + (2 * j + 1) * p) // 2
        b = (p * p - (2 * j + 1) * p) // 2
        off = (j * j + j) // 2
        rhs = rhs + _theta_block(a, b, order, shift=off)
        if off % p == tail_residue:
            side_ok = False
            collisions.append(j)
    detail = {"side_condition_ok": side_ok}
    if collisions:
        detail["colliding_indices"] = collisions
    return lhs, rhs, None, detail


def _build_f1_pdiss(order, p):
    # f_1 as a sum of (p-1) signed theta blocks plus a signed tail
    # (-1)^{k*} q^{(p^2-1)/24} f_{p^2}, k* = (p-1)/6 or -(p+1)/6
    _require_prime(p, minimum=5)
    kstar = (p - 1) // 6 if p % 6 == 1 else -((p + 1) // 6)
    lhs = euler_product(1, order)
    rhs = Series.zero(order)
    tail_residue = ((p * p - 1) // 24) % p
    side_ok = True
    collisions = []
    for k in range(-(p - 1) // 2, (p - 1) // 2 + 1):
        if k == kstar:
            continue
        a = (3 * p * p + (6 * k + 1) * p) // 2
        b = (3 * p * p - (6 * k + 1) * p) // 2
        off = (3 * k * k + k) // 2
        blk = _theta_block(a, b, order, shift=off, sign_x=-1, sign_y=-1)
        rhs = rhs + (blk if k % 2 == 0 else -blk)
        if off % p == tail_residue:
            side_ok = False
            collisions.append(k)
    tail = euler_product(p * p, order).shift((p * p - 1) // 24)
    rhs = rhs + (tail if kstar % 2 == 0 else -tail)
    detail = {"side_condition_ok": side_ok, "tail_index": kstar}
    if collisions:
        detail["colliding_indices"] = collisions
    return lhs, rhs, None, detail


def _build_phi_sqdiss(order, n):
    # phi(q) = phi(q^{n^2}) + sum_{r=1}^{n-1} q^{r^2} F(q^{n(n-2r)}, q^{n(n+2r)});
    # summand exponents are (n t - r)^2, so blocks with n(n-2r) < 0 are
    # still power series
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"parameter n must be an integer >= 2, got {n!r}")
    lhs = phi(order)
    rhs = phi(order, n * n)
    for r in range(1, n):
        rhs = rhs + _theta_block(n * (n - 2 * r), n * (n + 2 * r), order,
                                 shift=r * r)
    return lhs, rhs, None, {}


def _build_phi_sqdiss_n2(order):
    # adjudication: at n=2 the dissection reads phi(q) = phi(q^4) + c q psi(q^8);
    # decide c in {1, 2} by expansion (F(1, y) = 2 psi(y) forces c = 2)
    lhs = phi(order)
    base = phi(order, 4)
    tail = psi(order, 8).shift(1)
    single = base + tail
    double = base + 2 * tail
    bad1, _, n1 = compare_coefficients(lhs, single, order, None)
    bad2, _, n2 = compare_coefficients(lhs, double, order, None)
    detail = {
        "coefficient_1_matches": n1 == 0,
        "coefficient_2_matches": n2 == 0,
        "adopted": "phi(q^4) + 2q psi(q^8)",
    }
    if bad1:
        detail["coefficient_1_first_counterexample"] = list(bad1[0])
    status = "pass" if (n2 == 0 and n1 != 0) else "fail"
    return VerificationReport(
        name="phi-sqdiss-n2", status=status, terms_checked=order,
        counterexamples=bad2, modulus=None, detail=detail)


def _build_fp_binom(order, p):
    # f_p == f_1^p mod p (freshman's dream on the Euler product)
    _require_prime(p)
    lhs = euler_product(p, order).reduce_mod(p)
    rhs = euler_product(1, order).reduce_mod(p) ** p
    return lhs, rhs, p, {}


def _build_fp2_binom(order, p):
    # f_1^{p^2} == f_p^p mod p^2
    _require_prime(p)
    m = p * p
    lhs = euler_product(1, order).reduce_mod(m) ** m
    rhs = euler_product(p, order).reduce_mod(m) ** p
    return lhs, rhs, m, {}


@dataclass(frozen=True)
class Identity:
    tag: str
    summary: str
    build: Callable
    order: int
    param: Optional[str] = None         # "p" (prime) or "n" (integer >= 2)
    defaults: tuple = field(default=())


_CATALOG = (
    Identity("f1sq-2diss",
             "f1^2 = f2 f8^5 / (f4^2 f16^2) - 2q f2 f16^2 / f8",
             _build_f1sq_2diss, 1000),
    Identity("inv-f1sq-2diss",
             "1/f1^2 = f8^5 / (f2^5 f16^2) + 2q f4^2 f16^2 / (f2^5 f8)",
             _build_inv_f1sq_2diss, 1000),
    Identity("inv-f1-quad-2diss",
             "1/f1^4 = f4^14 / (f2^14 f8^4) + 4q f4^2 f8^4 / f2^10",
             _build_inv_f1_quad_2diss, 1000),
    Identity("f1-quad-2diss",
             "f1^4 = f4^10 / (f2^2 f8^4) - 4q f2^2 f8^4 / f4^2",
             _build_f1_quad_2diss, 1000),
    Identity("inv-phineg-4diss",
             "phi(-q^4)^4 / phi(-q) expanded in phi(q^4), psi(q^8) (cleared form)",
             _build_inv_phineg_4diss, 500),
    Identity("inv-phi-5diss",
             "phi(q^5)^6 = phi(q) phi(q^25) [bracket in phi(q^25), X(q^5), Y(q^5)]",
             _build_inv_phi_5diss, 300),
    Identity("psi-3diss",
             "psi(q) = F(q^3, q^6) + q psi(q^9)",
             _build_psi_3diss, 1000),
    Identity("psi-pdiss",
             "p-dissection of psi(q) into theta blocks plus q^{(p^2-1)/8} psi(q^{p^2})",
             _build_psi_pdiss, 300, param="p", defaults=(3, 5, 7, 11, 13)),
    Identity("f1-pdiss",
             "p-dissection of f1 into signed theta blocks plus the f_{p^2} tail",
             _build_f1_pdiss, 300, param="p", defaults=(5, 7, 11, 13)),
    Identity("phi-sqdiss",
             "phi(q) = phi(q^{n^2}) + sum_r q^{r^2} F(q^{n(n-2r)}, q^{n(n+2r)})",
             _build_phi_sqdiss, 300, param="n", defaults=(2, 3)),
    Identity("phi-sqdiss-n2",
             "adjudicate phi(q) = phi(q^4) + c q psi(q^8): c = 1 (as printed) vs 2",
             _build_phi_sqdiss_n2, 300),
    Identity("fp-binom",
             "f_p == f_1^p (mod p)",
             _build_fp_binom, 500, param="p", defaults=(2, 3, 5, 7)),
    Identity("fp2-binom",
             "f_1^{p^2} == f_p^p (mod p^2)",
             _build_fp2_binom, 300, param="p", defaults=(2, 3, 5)),
)

IDENTITIES = {ident.tag: ident for ident in _CATALOG}

# largest p or n the CLI accepts, and the largest p any identity takes:
# the p- and n^2-dissections build one theta block per residue, so their
# time grows linearly in the parameter
DISSECTION_LIMIT = 1000


def verify_identity(tag: str, order: Optional[int] = None,
                    **params) -> VerificationReport:
    """Check one catalog identity to the given order (default per entry).

    Parametrized identities take their parameter as a keyword, e.g.
    verify_identity("psi-pdiss", p=5).
    """
    try:
        ident = IDENTITIES[tag]
    except KeyError:
        raise ValueError(
            f"unknown identity {tag!r}; known tags: "
            + ", ".join(sorted(IDENTITIES))) from None
    wanted = {ident.param} if ident.param else set()
    if set(params) != wanted:
        raise ValueError(
            f"identity {tag!r} takes parameters {sorted(wanted)}, "
            f"got {sorted(params)}")
    n = ident.order if order is None else order
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    t0 = time.perf_counter()
    built = ident.build(n, **params)
    if isinstance(built, VerificationReport):
        built.params = dict(params)
        built.seconds = time.perf_counter() - t0
        return built
    lhs, rhs, modulus, detail = built
    upto = min(lhs.order, rhs.order)
    bad, checked, total_bad = compare_coefficients(lhs, rhs, upto, modulus)
    status = "pass" if total_bad == 0 else "fail"
    if detail.get("side_condition_ok") is False:
        status = "fail"
    if total_bad > len(bad):
        detail = dict(detail)
        detail["counterexample_total"] = total_bad
    return VerificationReport(
        name=tag, params=dict(params), status=status, terms_checked=checked,
        counterexamples=bad, modulus=modulus, detail=detail,
        seconds=time.perf_counter() - t0)


def run_catalog(order: Optional[int] = None) -> list[VerificationReport]:
    """Verify every catalog identity at its default parameters.

    ``order`` overrides each entry's default order (mostly for quick
    smoke runs; acceptance uses the defaults).
    """
    reports = []
    for ident in _CATALOG:
        if ident.param is None:
            reports.append(verify_identity(ident.tag, order))
        else:
            for value in ident.defaults:
                reports.append(
                    verify_identity(ident.tag, order, **{ident.param: value}))
    return reports
