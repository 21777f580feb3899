"""Theta-function and Euler-product constructors, plus a catalog of
dissection identities checked as exact statements about truncated series.

The catalog is the ground layer: every congruence verified elsewhere
leans on one or more of these identities, so each is checkable on its
own, to any order, and reports counterexamples rather than asserting.
"""

from __future__ import annotations

import math
import sys
import time
from collections import namedtuple
from functools import cache, lru_cache
from math import isqrt

from .report import VerificationReport, check, compare_coefficients
from .series import EtaQuotient, Series


# -- basic constructors --------------------------------------------------------


def euler_product(h: int, order: int, modulus: int | None = None) -> Series:
    """(q^h; q^h)_infinity truncated below ``order``, over Z or, when a
    modulus is given, over Z/mZ (built there, as ``general_theta``).

    Pentagonal number theorem: f(-q) = F(-q, -q^2), so this is the sum
    over nu in Z of (-1)^nu q^{h nu(3nu+1)/2}.  The result is sparse:
    O(sqrt(order/h)) nonzero terms.
    """
    return general_theta(h, 2 * h, order, -1, modulus=modulus)


# theta pairs a plan takes out, each (a, b, sign, u, v): the block
# F(sign q^{a h}, sign q^{b h}) is f_h^u f_{2h}^v, a theta series with
# O(sqrt(order)) terms
_PHI = (1, 1, -1, 2, -1)    # phi(-q^h) = f_h^2 / f_{2h}
_PSI = (1, 3, 1, -1, 2)     # psi(q^h) = f_{2h}^2 / f_h


def _pairs_out(exps: dict, pairs) -> dict:
    """The quotient {h: e} as a plan {(a, b, sign): k}: for each kind of
    pair in turn, scales ascending, the largest power f_h^{uk} f_{2h}^{vk}
    the exponents hold becomes the theta block (a, b, sign) to the k; each
    Euler factor f_h^e left is the block (h, 2h, -1) to the e, as
    ``euler_product`` builds it."""
    exps = dict(sorted(exps.items()))
    plan = {}
    for a, b, sign, u, v in pairs:
        for h in exps:
            e, e2 = exps[h], exps.get(2 * h, 0)
            k = min(abs(e) // abs(u), abs(e2) // abs(v))
            if e * u < 0:
                k = -k
            if k * e2 * v <= 0:     # none, or e2 of the other sign
                continue
            plan[a * h, b * h, sign] = k
            exps[h], exps[2 * h] = e - u * k, e2 - v * k
    plan.update(((h, 2 * h, -1), e) for h, e in exps.items() if e)
    return plan


def _folded(exps: dict, p: int, order: int) -> dict:
    """{h: e} with each f_{p^v h}^e below ``order`` as f_h^{e p^v}, its
    residue mod the prime p (f_{ph} = f_h^p mod p)."""
    out = {}
    for h, e in exps.items():
        while h < order and h % p == 0:
            h, e = h // p, e * p
        out[h] = out.get(h, 0) + e
    return out


# The build price estimates a series as (log10 of its widest coefficient,
# its nonzero terms, its growth weight w): below order N, 1/f_h^k has
# coefficients up to exp(pi sqrt(2 w N / 3)) at w = k/h, and a theta
# block with a + b = S counts w = 3/S.  Work is counted in slot digits,
# about 100 ns each: a product costs N times the digits _convolve sizes
# its slots by, an inverse over Z/mZ _DIVISION dense products, a big-int
# addition of d digits (d + _CALL) / _ADDITION (about 50 ns and 0.06 ns
# a digit, fit on exact 1/f1, 1/f1^1000 and f2 f8/f1^2 at 200 to 50000
# terms), and a term of a sum _PASS additions a coefficient.
_GROWTH = math.pi * math.sqrt(2 / 3) / math.log(10)
_DIVISION, _ADDITION, _CALL, _PASS = 2, 2048, 1024, 3


def _price(plans, order: int, modulus: int | None, coefficients=(1,),
           shared=None) -> int:
    """The work of expand_terms in slot digits, from the plans of its
    terms, their coefficients and the plan they share; nothing is built."""
    ring = None if modulus is None else math.log10(modulus)
    # int <-> str conversion, which reads slots back, is quadratic past
    # CPython's limit on it (4300 digits by default)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    cost, built = 0, {}

    def work(times, digits):
        nonlocal cost
        d = int(digits) + 1
        cost += int(times * order * (d if d <= limit else d * d))

    def grown(weight):
        return _GROWTH * math.sqrt(weight * order)

    def mul(x, y):
        (wx, nx, gx), (wy, ny, gy) = x, y
        w = math.log10(min(nx, ny)) + wx + wy
        if ring is not None:
            work(1, w)
            return ring, min(order, nx * ny), gx + gy
        work(1, w + 0.3)    # signed slots hold c + X/2
        return min(w, grown(gx + gy)), min(order, nx * ny), gx + gy

    def power(key, k):      # as expand_terms raises a base; a divisor as is
        a, b, _ = key
        # exponents ((a + b) t^2 +- (a - b) t) / 2 < order, one per t in Z
        # or per |t| when a = b; coefficients at most 2 (log10 2 = 0.3)
        halves = 1 if a == b else 2
        x = (0.3 if ring is None else ring,
             min(order, halves * isqrt(2 * order // (a + b)) + 1), 3 / (a + b))
        if (k < 0 and ring is None) or (key, k) in built:
            return built.get((key, k), x)
        e, result = abs(k), None
        if k < 0:   # 1/phi(-q^h) is 2 - phi(-q^h) mod 2 and 4, no product
            if not (4 % modulus == 0 and halves == 1):
                work(_DIVISION, math.log10(order) + 2 * ring)
            x = ring, order, x[2]
        while e:    # square-and-multiply, as Series.__pow__
            if e & 1:
                result = x if result is None else mul(result, x)
            e >>= 1
            if e:
                x = mul(x, x)
        built[key, k] = result
        return result

    def product(plan, out=None):    # then over Z, -k divisions by a base
        for key, k in plan.items():
            if k > 0 or k and ring is not None:
                x = power(key, k)
                out = x if out is None else mul(out, x)
        for key, k in plan.items():
            if k < 0 and ring is None:
                _, terms, g = power(key, k)
                w, _, weight = out or (0, 1, 0)
                weight -= k * g
                w = min(w + grown(-k * g) + math.log10(order), grown(weight))
                work(-k * terms / _ADDITION, w + _CALL)
                out = w, order, weight
        return out or (ring or 0, 1, 0)

    widest = (0, 0)     # the sum's estimate: the widest term's, plus carries
    for c, plan in zip(coefficients, plans):
        w, _, g = product(plan)
        w += math.log10(abs(c) or 1)
        work(_PASS / _ADDITION, (w if ring is None else ring) + _CALL)
        widest = max(widest, (w + math.log10(len(plans)), g))
    product(shared or {}, (widest[0], order, widest[1]))
    return cost


# verify-all asks 416 times for 160 plans, a plan priced for several
# claims and then built: the misses take 6-9 ms, where 416 uncached
# calls took 10-11 ms (2-vCPU Xeon VM, CPython 3.11)
@lru_cache(maxsize=1024)
def _plan(eq: EtaQuotient, order: int, modulus: int | None) -> dict:
    """The plan {base: k} for ``eq`` with the lowest price (``_price``):
    the quotient as given or, when the modulus is a prime p dividing a
    scale below the order, folded (f_{p^v h}^e as f_h^{e p^v}, congruent
    mod p), each with phi pairs alone or psi pairs and then phi pairs
    taken out, scales ascending.  So R*_6 = f2 f6/f1^2 is psi(q)^2 mod 3
    and R*_5 is f5 mod 2, while R*_4 mod 2 keeps f4 times 2 - phi(-q) and
    f_p mod p stays an Euler product."""
    exps = dict(eq.factors)
    forms = [exps]
    # the scale test first: trial division runs only on a modulus that
    # divides a scale below the order, never on a wide one such as 2^64
    if (modulus is not None and any(h < order and h % modulus == 0
                                    for h in exps) and _is_prime(modulus)):
        forms.append(_folded(exps, modulus, order))
    # min keeps the first of equals: the given form with phi pairs alone
    return min((_pairs_out(form, pairs) for form in forms
                for pairs in ((_PHI,), (_PSI, _PHI))),
               key=lambda plan: _price([plan], order, modulus))


def eta_quotient(eq: EtaQuotient, order: int,
                 modulus: int | None = None) -> Series:
    """Expand a product of Euler factors prod_h f_h^{e_h}: the sum of
    the one term (1, 0, eq, ())."""
    return expand_terms(((1, 0, eq, ()),), order, modulus)


def eta_terms(*terms) -> tuple:
    """The terms (c, s, "h:e,...", *blocks) as (c, s, EtaQuotient, blocks):
    each stands for c q^s prod f_h^e prod F(sign q^a, sign q^b)^k over its
    blocks (a, b, sign, k), k >= 1, and a tuple of them for their sum;
    the quotient "1" has no factor."""
    return tuple((c, s, EtaQuotient.parse(f), tuple(blocks))
                 for c, s, f, *blocks in terms)


def expand_terms(terms, order: int, modulus: int | None = None) -> Series:
    """The sum of (c, s, EtaQuotient, blocks) ``terms`` below ``order``,
    over Z/modulus Z when one is given; the empty sum is zero.  Each term
    is one plan {base: k} (``_plans``), whose bases are theta blocks
    (a, b, sign), an Euler factor f_h being (h, 2h, -1); a sum expands
    each distinct power once.  Over Z the positive powers are multiplied
    into a numerator, which is then divided by each sparse base with a
    negative exponent, once per unit of the exponent: exact f_2 f_ell /
    f_1^2 = f_ell/phi(-q) costs one sparse division and no product.  Over
    Z/mZ a base of exponent -1 divides the numerator too, which costs no
    product where the division is the recurrence and the one product
    with the inverse where it is the closed-form lift or Newton (every
    divisor mod m <= 256, as the price assumes); every other
    negative power is inverted and then raised, so the slots stay
    narrow.
    """
    def power(key, k=1):    # key: a theta block (a, b, sign)
        a, b, sign = key    # each base is built in its ring, then raised
        return general_theta(a, b, order, sign, modulus=modulus) ** k

    def product(plan, out=None):
        divisors = []
        for key, k in plan.items():
            if k < 0 and (modulus is None or k == -1):
                divisors.append((power(key), -k))
            elif k:
                term = power(key, k)
                out = term if out is None else out * term
        for divisor, k in divisors:
            for _ in range(k):
                out = divisor.invert() if out is None else out / divisor
        return Series.one(order, modulus) if out is None else out

    plans, shared = _plans(terms, order, modulus)
    if len(terms) == 1 and terms[0][:2] == (1, 0):
        return product(plans[0])
    if len(terms) > 1:      # only then can a base repeat, so only then cache
        power = cache(power)
    total = sum((c * product(plan).shift(s)
                 for (c, s, _, _), plan in zip(terms, plans)),
                Series.zero(order, modulus))
    return product(shared, total)


def _plans(terms, order: int, modulus: int | None) -> tuple[list, dict]:
    """Each term's plan {base: k}, its quotient's ``_plan`` with its
    blocks merged in, less the plan that every term of a longer sum
    shares: its bases with exponents of one sign, at the exponent nearest
    zero.  Returns the term plans and the shared plan."""
    plans = []
    for _, _, eq, blocks in terms:
        plan = dict(_plan(eq, order, modulus))    # a copy: the cache keeps its own
        for a, b, sign, k in blocks:
            plan[a, b, sign] = plan.get((a, b, sign), 0) + k
        plans.append(plan)
    shared = plans[0] if len(plans) > 1 else {}
    for plan in plans[1:]:
        shared = {key: min(k, plan[key], key=abs)
                  for key, k in shared.items() if k * plan.get(key, 0) > 0}
    return ([{key: k - shared.get(key, 0) for key, k in plan.items()}
             for plan in plans], shared)


def price(terms, order: int, modulus: int | None = None) -> int:
    """The predicted work of expand_terms(terms, order, modulus), in slot
    digits, read from its plans: no series is built."""
    plans, shared = _plans(terms, order, modulus)
    return _price(plans, order, modulus, [c for c, *_ in terms], shared)


# the largest price a command builds, 2-7 s at the 4-19 * 10^6 slot
# digits a second measured: inv-phineg-4diss at order 40000 prices
# 2.1 * 10^7, and the builds of 15-28 s it refuses 7 * 10^7 and more.
# An inverse mod m > 256 is priced as Newton's two dense products,
# though the recurrence divides there: 1/f1, 1/phi(-q) and f8/f1 mod
# 720720, 2^61 - 1 and 2^64 at orders 50000 to 200000 divide at
# 3.2-7.3 * 10^6 slot digits of their price a second
BUILD_BUDGET = 3 * 10 ** 7


def afford(*builds, error=ValueError, prefix="") -> None:
    """Raise ``error`` before anything is built unless the expansions
    ``builds``, each (terms, order, modulus), together price within
    BUILD_BUDGET."""
    cost = sum(price(*build) for build in builds)
    if cost > BUILD_BUDGET:
        raise error(f"{prefix}predicted cost {cost} exceeds the build "
                    f"budget {BUILD_BUDGET}")


def general_theta(a: int, b: int, order: int, sign: int = 1,
                  shift: int = 0, modulus: int | None = None) -> Series:
    """q^shift F(sign q^a, sign q^b) truncated below ``order``, where
    F(x, y) = sum over t in Z of x^{t(t+1)/2} y^{t(t-1)/2} is the
    bilateral theta series; term t has sign ``sign`` when t is odd and
    1 when even, as t(t+1)/2 + t(t-1)/2 = t^2.

    Over Z, or over Z/mZ when a modulus is given: the residues of its
    O(sqrt(order)) terms are placed straight into their storage
    (``Series.from_terms``), with no exact series reduced afterwards.

    Needs a + b > 0 (exponents then grow like (a+b) t^2 / 2).  Either of
    a and b may be negative, as dissection summands need, but any term
    with a negative net exponent raises: the result is a power series.
    """
    if a + b <= 0:
        raise ValueError(f"divergent theta block: a + b = {a + b} <= 0")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    terms = []

    def visit(t: int) -> bool:
        e = shift + a * (t * (t + 1) // 2) + b * (t * (t - 1) // 2)
        if e < 0:
            raise ValueError(
                f"theta term q^{e} at t={t}: not a power series")
        if e >= order:
            return False
        terms.append((e, sign if t % 2 else 1))
        return True

    # exponent is a parabola in t with vertex at t = (b-a)/(2(a+b));
    # stop each direction only once out of range AND past the vertex
    t = 0
    while visit(t) or 2 * (a + b) * t < (b - a):
        t += 1
    t = -1
    while visit(t) or 2 * (a + b) * t > (b - a):
        t -= 1
    return Series.from_terms(terms, order, modulus)


def phi(order: int, scale: int = 1) -> Series:
    """phi(q^scale) = F(q^scale, q^scale) = 1 + 2 sum_{nu>=1} q^{scale nu^2}."""
    return general_theta(scale, scale, order)


def psi(order: int, scale: int = 1) -> Series:
    """psi(q^scale) = F(q^scale, q^(3 scale)) = sum_{nu>=0} q^{scale nu(nu+1)/2}."""
    return general_theta(scale, 3 * scale, order)


def phi_neg(order: int, scale: int = 1) -> Series:
    """phi(-q^scale), computed two independent ways and cross-checked:
    the alternating square sum times f_{2s} against f_s^2, two sparse
    products in place of the exact quotient f_s^2 / f_{2s}."""
    direct = general_theta(scale, scale, order, -1)
    # eta_quotient would expand f_s^2 / f_{2s} from the same theta series
    f_s, f_2s = euler_product(scale, order), euler_product(2 * scale, order)
    if direct * f_2s != f_s ** 2:
        raise AssertionError(
            "internal inconsistency expanding phi(-q^%d)" % scale)
    return direct


def x_series(order: int, scale: int = 1) -> Series:
    """X(q^scale) = F(q^(7 scale), q^(3 scale)) = sum over r in Z of
    q^{scale (5r^2+2r)}."""
    return general_theta(7 * scale, 3 * scale, order)


def y_series(order: int, scale: int = 1) -> Series:
    """Y(q^scale) = F(q^(9 scale), q^(scale)) = sum over r in Z of
    q^{scale (5r^2+4r)}."""
    return general_theta(9 * scale, scale, order)


# -- identity catalog ------------------------------------------------------------
#
# Every row is term data, (lhs terms, rhs terms, modulus) compared
# exactly when modulus is None, or a function of its parameter that
# checks it and returns them.  Sides that are no eta quotient are theta
# blocks: one per residue in the p- and n^2-dissections, X(q^5) and
# Y(q^5) in inv-phi-5diss.  The p-dissections add the detail of a side
# condition and pass only where it holds; phi-sqdiss-n2 has a judge.
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


def _require_prime(p, minimum=2):
    # the bound comes first: trial division is only run on small p
    _require_guarded("p", p)
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"parameter p = {p!r} is not prime")
    if p < minimum:
        raise ValueError(f"parameter p must be >= {minimum}, got {p}")


def _fp_binom(p):
    # f_p == f_1^p mod p (freshman's dream on the Euler product)
    _require_prime(p)
    return eta_terms((1, 0, f"{p}:1")), eta_terms((1, 0, f"1:{p}")), p


def _fp2_binom(p):
    # f_1^{p^2} == f_p^p mod p^2
    _require_prime(p)
    return (eta_terms((1, 0, f"1:{p * p}")), eta_terms((1, 0, f"{p}:{p}")),
            p * p)


def _side_condition(p, offsets, tail, **detail):
    # no summand's offset {index: s} may share the tail's residue mod p
    collisions = [i for i, s in offsets.items() if s % p == tail % p]
    detail = {"side_condition_ok": not collisions, **detail}
    return {**detail, "colliding_indices": collisions} if collisions else detail


def _psi_pdiss(p):
    # psi(q) = sum_{j=0}^{(p-3)/2} q^{(j^2+j)/2} F(q^{(p^2+(2j+1)p)/2},
    #          q^{(p^2-(2j+1)p)/2}) + q^{(p^2-1)/8} psi(q^{p^2})
    _require_prime(p, minimum=3)
    offsets = {j: (j * j + j) // 2 for j in range((p - 1) // 2)}
    tail = (p * p - 1) // 8
    rhs = eta_terms(*((1, s, "1", ((p * p + (2 * j + 1) * p) // 2,
                                   (p * p - (2 * j + 1) * p) // 2, 1, 1))
                      for j, s in offsets.items()),
                    (1, tail, "1", (p * p, 3 * p * p, 1, 1)))
    return (eta_terms((1, 0, "1", (1, 3, 1, 1))), rhs, None,
            _side_condition(p, offsets, tail))


def _f1_pdiss(p):
    # f_1 as a sum of (p-1) signed theta blocks plus a signed tail
    # (-1)^{k*} q^{(p^2-1)/24} f_{p^2}, k* = (p-1)/6 or -(p+1)/6
    _require_prime(p, minimum=5)
    kstar = (p - 1) // 6 if p % 6 == 1 else -((p + 1) // 6)
    offsets = {k: (3 * k * k + k) // 2
               for k in range(-(p - 1) // 2, (p - 1) // 2 + 1) if k != kstar}
    tail = (p * p - 1) // 24
    rhs = eta_terms(*((1 - 2 * (k % 2), s, "1",
                       ((3 * p * p + (6 * k + 1) * p) // 2,
                        (3 * p * p - (6 * k + 1) * p) // 2, -1, 1))
                      for k, s in offsets.items()),
                    (1 - 2 * (kstar % 2), tail, f"{p * p}:1"))
    return (eta_terms((1, 0, "1:1")), rhs, None,
            _side_condition(p, offsets, tail, tail_index=kstar))


def _phi_sqdiss(n):
    # phi(q) = phi(q^{n^2}) + sum_{r=1}^{n-1} q^{r^2} F(q^{n(n-2r)}, q^{n(n+2r)});
    # summand r is the sum over t of q^{(n t - r)^2}, as is summand n - r,
    # so each r > n/2 is written as n - r and no block has a < 0
    _require_guarded("n", n)
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"parameter n must be an integer >= 2, got {n!r}")
    rs = [min(r, n - r) for r in range(1, n)]
    return (eta_terms((1, 0, "1", (1, 1, 1, 1))),
            eta_terms((1, 0, "1", (n * n, n * n, 1, 1)),
                      *((1, r * r, "1", (n * (n - 2 * r), n * (n + 2 * r), 1, 1))
                        for r in rs)), None)


# 1/phi(q) = phi(q^25)/phi(q^5)^6 * [bracket], cleared to phi(q^5)^6 =
# phi(q) phi(q^25) [bracket]; the bracket is the sum of c q^s P^i X^j Y^k
# over (c, s, i, j, k), with P = phi(q^25), X = X(q^5) and Y = Y(q^5)
_PHI_5_BRACKET = (
    (1, 0, 4, 0, 0), (-2, 1, 3, 1, 0), (4, 2, 2, 2, 0), (-8, 3, 1, 3, 0),
    (16, 4, 0, 4, 0), (-2, 4, 3, 0, 1), (-12, 5, 2, 1, 1), (16, 6, 1, 2, 1),
    (-16, 7, 0, 3, 1), (4, 8, 2, 0, 2), (16, 9, 1, 1, 2), (16, 10, 0, 2, 2),
    (-8, 12, 1, 0, 3), (-16, 13, 0, 1, 3), (16, 16, 0, 0, 4))


def _phi_5_term(c, s, i, j, k):
    blocks = ((25, 25, 1, i + 1), (35, 15, 1, j), (45, 5, 1, k))
    return (c, s, "1", (1, 1, 1, 1), *(b for b in blocks if b[3]))


def _phi_4_psi_8(c):    # phi(q^4) + c q psi(q^8)
    return eta_terms((1, 0, "1", (4, 4, 1, 1)), (c, 1, "1", (8, 24, 1, 1)))


def _judge_phi_sqdiss_n2(lhs, rhs, order):
    # phi(q) = phi(q^4) + c q psi(q^8) has c = 2, as F(1, y) = 2 psi(y):
    # the rhs (c = 2) must hold and the printed c = 1 must be refuted
    bad1, n1 = compare_coefficients(
        lhs, expand_terms(_phi_4_psi_8(1), order), order, None)
    detail = {"coefficient_1_matches": n1 == 0,
              "coefficient_2_matches": lhs == rhs,
              "adopted": "phi(q^4) + 2q psi(q^8)"}
    if bad1:
        detail["coefficient_1_first_counterexample"] = list(bad1[0])
    return detail, n1 != 0


# sides: (lhs terms, rhs terms, modulus[, detail]), or for a parametrized
# row a function of the parameter that validates it and returns them;
# param: None, "p" (prime) or "n" (integer >= 2); judge: None or
# (lhs, rhs, order) -> (detail, ok)
Identity = namedtuple("Identity",
                      "tag summary order sides param defaults judge",
                      defaults=(None, (), None))


IDENTITIES = {ident.tag: ident for ident in (
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
             300, (eta_terms((1, 0, "1", (5, 5, 1, 6))),
                   eta_terms(*(_phi_5_term(*t) for t in _PHI_5_BRACKET)), None)),
    # psi(q) = f2^2/f1, F(q^3, q^6) = f6 f9^2/(f3 f18), psi(q^9) = f18^2/f9
    Identity("psi-3diss", "psi(q) = F(q^3, q^6) + q psi(q^9)", 1000,
             (eta_terms((1, 0, "2:2,1:-1")),
              eta_terms((1, 0, "6:1,9:2,3:-1,18:-1"), (1, 1, "18:2,9:-1")),
              None)),
    Identity("psi-pdiss",
             "p-dissection of psi(q) into theta blocks plus q^{(p^2-1)/8} psi(q^{p^2})",
             300, _psi_pdiss, param="p", defaults=(3, 5, 7, 11, 13)),
    Identity("f1-pdiss",
             "p-dissection of f1 into signed theta blocks plus the f_{p^2} tail",
             300, _f1_pdiss, param="p", defaults=(5, 7, 11, 13)),
    Identity("phi-sqdiss",
             "phi(q) = phi(q^{n^2}) + sum_r q^{r^2} F(q^{n(n-2r)}, q^{n(n+2r)})",
             300, _phi_sqdiss, param="n", defaults=(2, 3)),
    Identity("phi-sqdiss-n2",
             "adjudicate phi(q) = phi(q^4) + c q psi(q^8): c = 1 (as printed) vs 2",
             300, (eta_terms((1, 0, "1", (1, 1, 1, 1))), _phi_4_psi_8(2), None),
             judge=_judge_phi_sqdiss_n2),
    Identity("fp-binom", "f_p == f_1^p (mod p)", 500, _fp_binom,
             param="p", defaults=(2, 3, 5, 7)),
    Identity("fp2-binom", "f_1^{p^2} == f_p^p (mod p^2)", 300, _fp2_binom,
             param="p", defaults=(2, 3, 5)),
)}

# largest p or n the CLI accepts, and the largest p any identity takes:
# the p- and n^2-dissections build one theta block per residue, so their
# time grows linearly in the parameter
DISSECTION_LIMIT = 1000


def verify_identity(tag: str, order: int | None = None,
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
    sides = ident.sides(**params) if callable(ident.sides) else ident.sides
    lhs_terms, rhs_terms, modulus, *detail = sides
    afford((lhs_terms, n, modulus), (rhs_terms, n, modulus), prefix=f"{tag}: ")
    lhs, rhs = (expand_terms(t, n, modulus) for t in (lhs_terms, rhs_terms))
    detail = detail[0] if detail else {}
    ok = detail.get("side_condition_ok", True)
    if ident.judge is not None:
        detail, ok = ident.judge(lhs, rhs, n)
    return check(tag, lhs, rhs, n, modulus, detail, ok, started=t0,
                 params=dict(params))


def run_catalog(order: int | None = None) -> list[VerificationReport]:
    """Verify every catalog identity at its default parameters.

    ``order`` overrides each entry's default order (mostly for quick
    smoke runs; acceptance uses the defaults).
    """
    reports = []
    for ident in IDENTITIES.values():
        if ident.param is None:
            reports.append(verify_identity(ident.tag, order))
        else:
            for value in ident.defaults:
                reports.append(
                    verify_identity(ident.tag, order, **{ident.param: value}))
    return reports
