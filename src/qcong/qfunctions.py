"""Theta-function and Euler-product constructors, plus a catalog of
dissection identities checked as exact statements about truncated series.

The catalog is the ground layer: every congruence verified elsewhere
leans on one or more of these identities, so each is checkable on its
own, to any order, and reports counterexamples rather than asserting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional, Union

from .report import VerificationReport, check, compare_coefficients
from .series import EtaQuotient, Series


# -- basic constructors --------------------------------------------------------


def euler_product(h: int, order: int) -> Series:
    """(q^h; q^h)_infinity truncated below ``order``.

    Pentagonal number theorem: f(-q) = F(-q, -q^2), so this is the sum
    over nu in Z of (-1)^nu q^{h nu(3nu+1)/2}.  The result is sparse:
    O(sqrt(order/h)) nonzero terms.
    """
    return general_theta(1, 2, order, h, sign_x=-1, sign_y=-1)


def eta_quotient(eq: EtaQuotient, order: int,
                 modulus: Optional[int] = None) -> Series:
    """Expand a product of Euler factors prod_h f_h^{e_h}.

    Scales are taken in ascending order, and each f_{2h}/f_h^2 (or
    f_h^2/f_{2h}) the exponents hold is taken out as phi(-q^h)^-1 (or
    phi(-q^h)), since f_h^2/f_{2h} = phi(-q^h) is a theta series with
    O(sqrt(order)) terms.  The ring decides the rest.  Over Z the
    positive powers are multiplied into a numerator, which is then
    divided by each sparse base with a negative exponent, once per unit
    of the exponent, so exact f_2 f_ell/f_1^2 = f_ell/phi(-q) costs one
    sparse division and no product.  Over Z/mZ every base is inverted and raised to its
    power: the slots stay narrow, and no numerator built first is kept
    alive through a long Newton inverse.
    """
    exps = dict(eq.factors)   # scales ascending, as normalized
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
            yield general_theta(1, 1, order, h, sign_x=-1, sign_y=-1), k
        for h, e in exps.items():
            if e:
                yield euler_product(h, order), e

    out = None
    divisors = []
    for base, e in bases():
        if modulus is not None:
            base = base.reduce_mod(modulus)
        elif e < 0:
            divisors += [base] * -e
            continue
        term = base ** e
        out = term if out is None else out * term
    for base in divisors:
        out = base.invert() if out is None else out / base
    return Series.one(order, modulus) if out is None else out


def eta_terms(*terms) -> tuple:
    """The terms (c, s, "h:e,...") as (c, s, EtaQuotient): each stands
    for c q^s prod f_h^e, and a tuple of them for their sum."""
    return tuple((c, s, EtaQuotient.parse(f)) for c, s, f in terms)


def expand_terms(terms, order: int, modulus: Optional[int] = None) -> Series:
    """The sum of c q^s prod f_h^e over (c, s, EtaQuotient) ``terms``,
    truncated below ``order``, over Z/modulus Z when one is given; the
    empty sum is zero."""
    return sum((c * eta_quotient(eq, order, modulus).shift(s)
                for c, s, eq in terms), Series.zero(order, modulus))


def general_theta(a: int, b: int, order: int, scale: int = 1, shift: int = 0,
                  sign_x: int = 1, sign_y: int = 1) -> Series:
    """q^shift F(sign_x q^(scale a), sign_y q^(scale b)) truncated below
    ``order``, where F(x, y) = sum over t in Z of x^{t(t+1)/2} y^{t(t-1)/2}
    is the bilateral theta series.

    Needs a + b > 0 (exponents then grow like (a+b) t^2 / 2).  Either of
    a and b may be negative, as dissection summands need, but any term
    with a negative net exponent raises: the result is a power series.
    """
    if a + b <= 0:
        raise ValueError(f"divergent theta block: a + b = {a + b} <= 0")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if sign_x not in (1, -1) or sign_y not in (1, -1):
        raise ValueError(f"signs must be +1 or -1, got ({sign_x}, {sign_y})")
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


def phi(order: int, scale: int = 1) -> Series:
    """phi(q^scale) = F(q^scale, q^scale) = 1 + 2 sum_{nu>=1} q^{scale nu^2}."""
    return general_theta(1, 1, order, scale)


def psi(order: int, scale: int = 1) -> Series:
    """psi(q^scale) = F(q^scale, q^(3 scale)) = sum_{nu>=0} q^{scale nu(nu+1)/2}."""
    return general_theta(1, 3, order, scale)


def phi_neg(order: int, scale: int = 1) -> Series:
    """phi(-q^scale), computed two independent ways and cross-checked:
    the alternating square sum times f_{2s} against f_s^2, two sparse
    products in place of the exact quotient f_s^2 / f_{2s}."""
    direct = general_theta(1, 1, order, scale, sign_x=-1, sign_y=-1)
    # eta_quotient would expand f_s^2 / f_{2s} from the same theta series
    f_s, f_2s = euler_product(scale, order), euler_product(2 * scale, order)
    if direct * f_2s != f_s ** 2:
        raise AssertionError(
            "internal inconsistency expanding phi(-q^%d)" % scale)
    return direct


def x_series(order: int, scale: int = 1) -> Series:
    """X(q^scale) = F(q^(7 scale), q^(3 scale)) = sum over r in Z of
    q^{scale (5r^2+2r)}."""
    return general_theta(7, 3, order, scale)


def y_series(order: int, scale: int = 1) -> Series:
    """Y(q^scale) = F(q^(9 scale), q^(scale)) = sum over r in Z of
    q^{scale (5r^2+4r)}."""
    return general_theta(9, 1, order, scale)


# -- identity catalog ------------------------------------------------------------
#
# A row whose sides are sums of eta-quotient terms is data, (lhs terms,
# rhs terms, modulus), compared exactly when modulus is None.  A row
# with a side that is no eta quotient (one theta block per residue, X
# and Y, or the phi-sqdiss-n2 adjudication) has a builder that returns
# (lhs, rhs, detail, ok): two series to compare exactly, what to record
# beside them, and whether the identity's side condition holds.
# Rows whose left side is an inverse power (inv-f1sq-2diss,
# inv-f1-quad-2diss, inv-phineg-4diss, inv-phi-5diss) are cleared of
# denominators, which expands faster; the other rows keep any they
# quote and divide exactly.  Equal truncations prove the quoted form.


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _require_guarded(name, value):
    if isinstance(value, int) and value > DISSECTION_LIMIT:
        raise ValueError(f"parameter {name} = {value} exceeds the size "
                         f"guard {DISSECTION_LIMIT}")


def _require_prime(p, minimum=2, odd=False):
    # the bound comes first: trial division is only run on small p
    _require_guarded("p", p)
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"parameter p must be prime, got {p!r}")
    if p < minimum:
        raise ValueError(f"parameter p must be >= {minimum}, got {p}")
    if odd and p == 2:
        raise ValueError("parameter p must be an odd prime")


def _fp_binom(p):
    # f_p == f_1^p mod p (freshman's dream on the Euler product)
    _require_prime(p)
    return eta_terms((1, 0, f"{p}:1")), eta_terms((1, 0, f"1:{p}")), p


def _fp2_binom(p):
    # f_1^{p^2} == f_p^p mod p^2
    _require_prime(p)
    return (eta_terms((1, 0, f"1:{p * p}")), eta_terms((1, 0, f"{p}:{p}")),
            p * p)


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
    return lhs, rhs, {}, True


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
        rhs = rhs + general_theta(a, b, order, shift=off)
        if off % p == tail_residue:
            side_ok = False
            collisions.append(j)
    detail = {"side_condition_ok": side_ok}
    if collisions:
        detail["colliding_indices"] = collisions
    return lhs, rhs, detail, side_ok


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
        blk = general_theta(a, b, order, shift=off, sign_x=-1, sign_y=-1)
        rhs = rhs + (blk if k % 2 == 0 else -blk)
        if off % p == tail_residue:
            side_ok = False
            collisions.append(k)
    tail = euler_product(p * p, order).shift((p * p - 1) // 24)
    rhs = rhs + (tail if kstar % 2 == 0 else -tail)
    detail = {"side_condition_ok": side_ok, "tail_index": kstar}
    if collisions:
        detail["colliding_indices"] = collisions
    return lhs, rhs, detail, side_ok


def _build_phi_sqdiss(order, n):
    # phi(q) = phi(q^{n^2}) + sum_{r=1}^{n-1} q^{r^2} F(q^{n(n-2r)}, q^{n(n+2r)});
    # summand exponents are (n t - r)^2, so blocks with n(n-2r) < 0 are
    # still power series
    _require_guarded("n", n)
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"parameter n must be an integer >= 2, got {n!r}")
    lhs = phi(order)
    rhs = phi(order, n * n)
    for r in range(1, n):
        rhs = rhs + general_theta(n * (n - 2 * r), n * (n + 2 * r), order,
                                 shift=r * r)
    return lhs, rhs, {}, True


def _build_phi_sqdiss_n2(order):
    # adjudication: at n=2 the dissection reads phi(q) = phi(q^4) + c q psi(q^8);
    # decide c in {1, 2} by expansion (F(1, y) = 2 psi(y) forces c = 2):
    # c = 2 must hold and the printed c = 1 must be refuted
    lhs = phi(order)
    base = phi(order, 4)
    tail = psi(order, 8).shift(1)
    double = base + 2 * tail
    bad1, n1 = compare_coefficients(lhs, base + tail, order, None)
    detail = {
        "coefficient_1_matches": n1 == 0,
        "coefficient_2_matches": lhs == double,
        "adopted": "phi(q^4) + 2q psi(q^8)",
    }
    if bad1:
        detail["coefficient_1_first_counterexample"] = list(bad1[0])
    return lhs, double, detail, n1 != 0


@dataclass(frozen=True)
class Identity:
    tag: str
    summary: str
    order: int
    # (lhs terms, rhs terms, modulus), or for a parametrized row a
    # function of the parameter that validates it and returns them
    sides: Union[tuple, Callable, None] = None
    build: Optional[Callable] = None    # for a side that is no eta quotient
    param: Optional[str] = None         # "p" (prime) or "n" (integer >= 2)
    defaults: tuple = ()


_CATALOG = (
    Identity("f1sq-2diss",
             "f1^2 = f2 f8^5 / (f4^2 f16^2) - 2q f2 f16^2 / f8", 1000,
             (eta_terms((1, 0, "1:2")),
              eta_terms((1, 0, "2:1,8:5,4:-2,16:-2"), (-2, 1, "2:1,16:2,8:-1")),
              None)),
    Identity("inv-f1sq-2diss",
             "1/f1^2 = f8^5 / (f2^5 f16^2) + 2q f4^2 f16^2 / (f2^5 f8)", 1000,
             # cleared: f2^5 f8 f16^2 = f1^2 f8^6 + 2q f1^2 f4^2 f16^4
             (eta_terms((1, 0, "2:5,8:1,16:2")),
              eta_terms((1, 0, "1:2,8:6"), (2, 1, "1:2,4:2,16:4")), None)),
    Identity("inv-f1-quad-2diss",
             "1/f1^4 = f4^14 / (f2^14 f8^4) + 4q f4^2 f8^4 / f2^10", 1000,
             # cleared: f2^14 f8^4 = f1^4 f4^14 + 4q f1^4 f2^4 f4^2 f8^8
             (eta_terms((1, 0, "2:14,8:4")),
              eta_terms((1, 0, "1:4,4:14"), (4, 1, "1:4,2:4,4:2,8:8")), None)),
    Identity("f1-quad-2diss",
             "f1^4 = f4^10 / (f2^2 f8^4) - 4q f2^2 f8^4 / f4^2", 1000,
             (eta_terms((1, 0, "1:4")),
              eta_terms((1, 0, "4:10,2:-2,8:-4"), (-4, 1, "2:2,8:4,4:-2")),
              None)),
    # 1/phi(-q) = (phi(q^4)^3 + 2q phi(q^4)^2 psi(q^8) + 4q^2 phi(q^4)
    # psi(q^8)^2 + 8q^3 psi(q^8)^3) / phi(-q^4)^4, cleared, with phi(-q) =
    # f1^2/f2, phi(q^4) = f8^5/(f4^2 f16^2) and psi(q^8) = f16^2/f8
    Identity("inv-phineg-4diss",
             "phi(-q^4)^4 / phi(-q) expanded in phi(q^4), psi(q^8) (cleared form)",
             500, (eta_terms((1, 0, "4:8,8:-4")),
                   eta_terms((1, 0, "1:2,2:-1,4:-6,8:15,16:-6"),
                             (2, 1, "1:2,2:-1,4:-4,8:9,16:-2"),
                             (4, 2, "1:2,2:-1,4:-2,8:3,16:2"),
                             (8, 3, "1:2,2:-1,8:-3,16:6")), None)),
    Identity("inv-phi-5diss",
             "phi(q^5)^6 = phi(q) phi(q^25) [bracket in phi(q^25), X(q^5), Y(q^5)]",
             300, build=_build_inv_phi_5diss),
    # psi(q) = f2^2/f1, F(q^3, q^6) = f6 f9^2/(f3 f18), psi(q^9) = f18^2/f9
    Identity("psi-3diss", "psi(q) = F(q^3, q^6) + q psi(q^9)", 1000,
             (eta_terms((1, 0, "2:2,1:-1")),
              eta_terms((1, 0, "6:1,9:2,3:-1,18:-1"), (1, 1, "18:2,9:-1")),
              None)),
    Identity("psi-pdiss",
             "p-dissection of psi(q) into theta blocks plus q^{(p^2-1)/8} psi(q^{p^2})",
             300, build=_build_psi_pdiss, param="p", defaults=(3, 5, 7, 11, 13)),
    Identity("f1-pdiss",
             "p-dissection of f1 into signed theta blocks plus the f_{p^2} tail",
             300, build=_build_f1_pdiss, param="p", defaults=(5, 7, 11, 13)),
    Identity("phi-sqdiss",
             "phi(q) = phi(q^{n^2}) + sum_r q^{r^2} F(q^{n(n-2r)}, q^{n(n+2r)})",
             300, build=_build_phi_sqdiss, param="n", defaults=(2, 3)),
    Identity("phi-sqdiss-n2",
             "adjudicate phi(q) = phi(q^4) + c q psi(q^8): c = 1 (as printed) vs 2",
             300, build=_build_phi_sqdiss_n2),
    Identity("fp-binom", "f_p == f_1^p (mod p)", 500, _fp_binom,
             param="p", defaults=(2, 3, 5, 7)),
    Identity("fp2-binom", "f_1^{p^2} == f_p^p (mod p^2)", 300, _fp2_binom,
             param="p", defaults=(2, 3, 5)),
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
    if ident.build is None:
        sides = ident.sides(**params) if callable(ident.sides) else ident.sides
        *terms, modulus = sides
        lhs, rhs = (expand_terms(t, n, modulus) for t in terms)
        detail, ok = {}, True
    else:
        lhs, rhs, detail, ok = ident.build(n, **params)
        modulus = None
    return check(tag, lhs, rhs, min(lhs.order, rhs.order), modulus, detail,
                 ok, started=t0, params=dict(params))


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
