"""Theta functions, eta quotients, and the identity catalog."""

import math
import tracemalloc

import pytest

from qcong import qfunctions as qf
from qcong import series
from qcong.report import compare_coefficients
from qcong.series import EtaQuotient, Series


def test_phi_expansion():
    # 1 + 2q + 2q^4 + 2q^9 + ...
    assert list(qf.phi(12).coeffs) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0]


def test_psi_expansion():
    # triangular-number exponents, all coefficients 1
    assert list(qf.psi(12).coeffs) == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0]


def test_phi_neg_expansion():
    assert list(qf.phi_neg(10).coeffs) == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_scaled_arguments():
    # q -> q^s spreads an order-n series over order (n - 1) s + 1
    phi3 = [0] * 28
    phi3[::3] = qf.phi(10).coeffs
    assert qf.phi(28, 3) == Series(phi3)
    psi2 = [0] * 21
    psi2[::2] = qf.psi(11).coeffs
    assert qf.psi(21, 2) == Series(psi2)


# orders the claims really reach (about 1.5 * 10^5), plus the edges
THETA_ORDERS = (1, 2, 4096, 147456)
THETA_SCALES = (1, 2, 5, 25)


def _closed_form(term, order, scale):
    # coefficients of sum over r in Z of sign q^(scale e), (e, sign) =
    # term(r); each exponent here is >= r^2, so |r| <= isqrt(order) + 1
    # reaches every term below order
    cs = [0] * order
    bound = math.isqrt(order) + 1
    for r in range(-bound, bound + 1):
        e, sign = term(r)
        if scale * e < order:
            cs[scale * e] += sign
    return tuple(cs)


def test_quintic_theta_pieces():
    # X: exponents 5r^2 + 2r; Y: exponents 5r^2 + 4r
    assert list(qf.x_series(10).coeffs) == [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert list(qf.y_series(10).coeffs) == [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]
    for order in THETA_ORDERS:
        for scale in THETA_SCALES:
            assert qf.x_series(order, scale).coeffs == _closed_form(
                lambda r: (5 * r * r + 2 * r, 1), order, scale)
            assert qf.y_series(order, scale).coeffs == _closed_form(
                lambda r: (5 * r * r + 4 * r, 1), order, scale)


def test_general_theta_euler_specialization():
    # F(-q, -q^2) is the pentagonal-number series
    assert qf.general_theta(1, 2, 500, -1) == qf.euler_product(1, 500)
    for order in THETA_ORDERS:
        for scale in THETA_SCALES:
            want = _closed_form(
                lambda nu: (nu * (3 * nu + 1) // 2, -1 if nu % 2 else 1),
                order, scale)
            assert qf.euler_product(scale, order).coeffs == want
            assert qf.general_theta(scale, 2 * scale, order,
                                    -1).coeffs == want


def test_theta_eta_dualities():
    n = 500
    f1 = qf.euler_product(1, n)
    f2 = qf.euler_product(2, n)
    f4 = qf.euler_product(4, n)
    assert qf.psi(n) == f2 * f2 * f1.invert()
    assert qf.phi(n) == f2**5 * (f1**2 * f4**2).invert()
    assert qf.phi_neg(n) == f1**2 * f2.invert()


def test_eta_quotient_matches_manual_build():
    n = 200
    got = qf.eta_quotient(EtaQuotient([(2, 1), (5, 1), (1, -2)]), n)
    manual = (qf.euler_product(2, n) * qf.euler_product(5, n)
              * qf.euler_product(1, n).invert() ** 2)
    assert got == manual
    assert qf.eta_quotient(EtaQuotient.parse("2:1,5:1,1:-2"), n) == got
    assert qf.eta_quotient(EtaQuotient.rstar(5), n) == got


def test_eta_quotient_modular_matches_exact_reduction():
    n = 300
    eq = EtaQuotient([(2, 1), (6, 1), (1, -2)])
    exact = qf.eta_quotient(eq, n)
    modular = qf.eta_quotient(eq, n, 3)
    assert modular == exact.reduce_mod(3)
    assert modular.modulus == 3


@pytest.mark.parametrize("m", [2, 3, 4, 8, 9, 16, 256, 257, 720720, 2**64])
def test_ring_built_bases_match_exact_then_reduced(m):
    # theta and Euler series built mod m place each term's residue: they
    # must equal the exact series reduced mod m, stored as reduce_mod
    # stores it (bytes mod m <= 256, a tuple above)
    storage = bytes if m <= 256 else tuple
    blocks = [((1, 1, -1, 0), 400),     # phi(-q): t and -t share q^(t^2)
              ((1, 3, 1, 0), 400),      # psi(q)
              ((3, 6, -1, 0), 400),     # f_3
              ((25, 25, 1, 0), 400),
              ((140, 7, -1, 15), 400),  # a shifted dissection summand
              ((-2, 6, 1, 2), 400),     # negative a: q^2 F(q^-2, q^6)
              ((7, -3, -1, 3), 400)]    # negative b
    if m == 3:      # psi(q) mod 3 at criterion 6's order
        blocks.append(((1, 3, 1, 0), 146469))
    for (a, b, sign, shift), order in blocks:
        exact = qf.general_theta(a, b, order, sign, shift)
        ring = qf.general_theta(a, b, order, sign, shift, modulus=m)
        assert ring.modulus == m and type(ring.coeffs) is storage
        assert ring.coeffs == exact.reduce_mod(m).coeffs, (a, b, sign, shift)
    for h in (1, 2, 7):
        ring = qf.euler_product(h, 500, m)
        assert ring.modulus == m and type(ring.coeffs) is storage
        assert ring.coeffs == qf.euler_product(h, 500).reduce_mod(m).coeffs


def plain_eta_quotient(factors, order, modulus=None):
    """prod_h f_h^{e_h} one Euler factor at a time, with no phi(-q)
    rewriting: the reference eta_quotient must agree with bit for bit."""
    out = Series.one(order, modulus)
    for h, e in EtaQuotient(factors).factors:
        base = qf.euler_product(h, order)
        if modulus is not None:
            base = base.reduce_mod(modulus)
        out = out * base ** e
    return out


def test_eta_quotient_takes_out_phi_pairs():
    # f_h^2/f_2h and its inverse, alone, repeated, mixed with other factors
    for factors in ([(1, 2), (2, -1)], [(3, -2), (6, 1)], [(1, -4), (2, 2)],
                    [(1, -5), (2, 1), (4, -1)], [(1, -2), (2, 3), (4, -3)],
                    [(1, 3), (2, -2)], [(2, -2), (4, 1), (1, -2)]):
        for m in (None, 2, 4, 9):
            assert (qf.eta_quotient(EtaQuotient(factors), 300, m)
                    == plain_eta_quotient(factors, 300, m)), (factors, m)


# (ell, order, modulus) of the rstar(ell) bases criteria 6 and 8 build,
# and rstar(3) mod 3, which folds to f1 f2
SUITE_BASES = ((6, 146469, 3), (8, 32014, 4), (8, 16008, 8), (3, 146469, 3))


@pytest.mark.parametrize("ell, order, m", SUITE_BASES)
def test_eta_quotient_matches_plain_product_at_suite_orders(ell, order, m):
    eq = EtaQuotient.rstar(ell)
    assert (qf.eta_quotient(eq, order, m)
            == plain_eta_quotient(eq.factors, order, m))


@pytest.mark.parametrize("order", [8000, 10000])
@pytest.mark.parametrize("ell", [6, 8, 16])
def test_exact_rstar_matches_plain_product(ell, order):
    # the search workload's exact bases, built by one sparse division
    eq = EtaQuotient.rstar(ell)
    assert (qf.eta_quotient(eq, order)
            == plain_eta_quotient(eq.factors, order))


def spy_divisions(monkeypatch):
    divided = []
    real = Series.__truediv__
    monkeypatch.setattr(Series, "__truediv__",
                        lambda a, b: divided.append(b) or real(a, b))
    return divided


@pytest.mark.parametrize("e", [25, 100])
def test_exact_exponents_divide_once_per_unit(e, monkeypatch):
    divided = spy_divisions(monkeypatch)
    factors = [(1, -e), (3, 2)]
    assert (qf.eta_quotient(EtaQuotient(factors), 400)
            == plain_eta_quotient(factors, 400))
    assert len(divided) == e


def test_exact_exponent_divides_without_a_list_of_its_units():
    # f1^-e over Z divides e times by its one f1, so the traced peak does
    # not grow with |e|: a list of e references to f1 grew it 8 bytes a unit
    peaks = []
    for e in (400, 4000):
        tracemalloc.start()
        try:
            qf.eta_quotient(EtaQuotient([(1, -e)]), 10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 8 * 2**10, peaks


def test_modular_bases_are_inverted_then_raised(monkeypatch):
    # mod 4, f3^2 / f1 divides the square of f3, its one product of
    # series, by f1, whose Newton inverse and product with the numerator
    # stay inside the division.  Past exponent -1 the base is inverted
    # once and then raised
    divided = spy_divisions(monkeypatch)
    inverted, products = [], []
    invert, multiply = Series.invert, Series.__mul__
    monkeypatch.setattr(Series, "invert",
                        lambda a: inverted.append(a) or invert(a))
    monkeypatch.setattr(Series, "__mul__",
                        lambda a, b: products.append(b) or multiply(a, b))
    f1 = qf.euler_product(1, 400).reduce_mod(4)
    for e in (1, 2, 25):
        factors = [(1, -e), (3, 2)]
        divided.clear()
        inverted.clear()
        products.clear()
        built = qf.eta_quotient(EtaQuotient(factors), 400, 4)
        if e == 1:
            assert (divided, inverted, len(products)) == ([f1], [], 1)
        else:
            assert (divided, inverted) == ([], [f1])
        assert built == plain_eta_quotient(factors, 400, 4)


def test_primality_is_tested_only_for_a_modulus_dividing_a_scale(
        monkeypatch):
    # a modulus is tried as a prime only when it divides a scale below
    # the order, so a wide modulus never runs trial division
    tested = []
    real = qf._is_prime
    qf._plan.cache_clear()  # plans are cached: choose them afresh
    monkeypatch.setattr(qf, "_is_prime",
                        lambda n: tested.append(n) or real(n))
    for factors, m in (([(1, -1)], 2**64), ([(1, -2), (2, 1), (6, 1)], 4),
                       ([(2**61 - 1, 1), (1, -1)], 2**61 - 1)):
        qf.eta_quotient(EtaQuotient(factors), 100, m)
    assert tested == []
    qf.eta_quotient(EtaQuotient.rstar(6), 100, 3)
    assert tested == [3]


def test_one_term_builds_hold_no_more_than_their_product():
    # eta_quotient is a one-term sum: it returns its product as built,
    # with no scalar multiple, shift or sum, and caches no base.  The
    # traced peaks of R*_6 mod 3 and R*_8 mod 4 at criterion 6's order
    # are 3.5 and 5.0 MiB; sent through the sum they were 4.6 and 6.1
    # MiB, and with every base cached as well 5.7 and 6.8 MiB
    n = 146469
    qf.eta_quotient(EtaQuotient.rstar(6), 50, 3)    # imports decimal untraced
    for ell, m, bound in ((6, 3, 4.5), (8, 4, 6)):
        tracemalloc.start()
        try:
            qf.eta_quotient(EtaQuotient.rstar(ell), n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (ell, m, peak)


def test_rstar6_times_f1_squared_at_criterion_6_order():
    n, m = 146469, 3
    f1, f2, f6 = (qf.euler_product(h, n).reduce_mod(m) for h in (1, 2, 6))
    assert qf.eta_quotient(EtaQuotient.rstar(6), n, m) * f1 ** 2 == f2 * f6


def test_phi_neg_cross_check_catches_a_corrupt_spec(monkeypatch):
    # the check compares the theta series with Euler products, not with
    # itself: corrupt only the (1, 1) theta, so the Euler side stays right
    real = qf.general_theta

    def corrupt(a, b, order, sign=1, shift=0, modulus=None):
        if (a, b) == (1, 1):
            sign = -sign
        return real(a, b, order, sign, shift, modulus)

    monkeypatch.setattr(qf, "general_theta", corrupt)
    assert qf.euler_product(1, 50) == real(1, 2, 50, -1)
    with pytest.raises(AssertionError, match="phi"):
        qf.phi_neg(50)


def test_theta_rejects_negative_exponents():
    with pytest.raises(ValueError, match="divergent"):
        qf.general_theta(0, 0, 10)
    with pytest.raises(ValueError, match="not a power series"):
        qf.general_theta(-1, 2, 10)
    with pytest.raises(ValueError, match="sign"):
        qf.general_theta(1, 1, 10, 2)
    with pytest.raises(ValueError, match="order"):
        qf.general_theta(1, 1, 0)
    with pytest.raises(ValueError):
        qf.x_series(10, scale=0)


def test_catalog_all_pass():
    reports = qf.run_catalog(order=120)
    assert reports, "catalog must not be empty"
    for r in reports:
        assert r.passed, f"{r.describe()}: {r.counterexamples}"


def _sides(ident, params):
    return ident.sides(**params) if callable(ident.sides) else ident.sides


def _default_params(ident):
    return [{ident.param: v} for v in ident.defaults] or [{}]


# theta and Euler-product constructions of both sides of each row, as
# the rows were built before they were term data: each returns (lhs,
# rhs) or, for a row that records a verdict beside them, (lhs, rhs,
# detail, ok)


def _old_inv_phineg_4diss(order):
    p4 = qf.phi(order, 4)
    s8 = qf.psi(order, 8)
    bracket = (p4 ** 3
               + 2 * (p4 ** 2 * s8).shift(1)
               + 4 * (p4 * s8 ** 2).shift(2)
               + 8 * (s8 ** 3).shift(3))
    lhs = qf.phi_neg(order, 4) ** 4
    rhs = qf.phi_neg(order) * bracket
    return lhs, rhs


def _old_psi_3diss(order):
    lhs = qf.psi(order)
    rhs = qf.general_theta(3, 6, order) + qf.psi(order, 9).shift(1)
    return lhs, rhs


def _old_fp_binom(order, p):
    lhs = qf.euler_product(p, order).reduce_mod(p)
    rhs = qf.euler_product(1, order).reduce_mod(p) ** p
    return lhs, rhs


def _old_fp2_binom(order, p):
    m = p * p
    lhs = qf.euler_product(1, order).reduce_mod(m) ** m
    rhs = qf.euler_product(p, order).reduce_mod(m) ** p
    return lhs, rhs


def _old_inv_phi_5diss(order):
    P = qf.phi(order, 25)
    X = qf.x_series(order, 5)
    Y = qf.y_series(order, 5)
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
    lhs = qf.phi(order, 5) ** 6
    rhs = qf.phi(order) * P * bracket
    return lhs, rhs, {}, True


def _old_psi_pdiss(order, p):
    lhs = qf.psi(order)
    rhs = qf.psi(order, p * p).shift((p * p - 1) // 8)
    tail_residue = ((p * p - 1) // 8) % p
    side_ok = True
    collisions = []
    for j in range((p - 1) // 2):
        a = (p * p + (2 * j + 1) * p) // 2
        b = (p * p - (2 * j + 1) * p) // 2
        off = (j * j + j) // 2
        rhs = rhs + qf.general_theta(a, b, order, shift=off)
        if off % p == tail_residue:
            side_ok = False
            collisions.append(j)
    detail = {"side_condition_ok": side_ok}
    if collisions:
        detail["colliding_indices"] = collisions
    return lhs, rhs, detail, side_ok


def _old_f1_pdiss(order, p):
    kstar = (p - 1) // 6 if p % 6 == 1 else -((p + 1) // 6)
    lhs = qf.euler_product(1, order)
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
        blk = qf.general_theta(a, b, order, -1, shift=off)
        rhs = rhs + (blk if k % 2 == 0 else -blk)
        if off % p == tail_residue:
            side_ok = False
            collisions.append(k)
    tail = qf.euler_product(p * p, order).shift((p * p - 1) // 24)
    rhs = rhs + (tail if kstar % 2 == 0 else -tail)
    detail = {"side_condition_ok": side_ok, "tail_index": kstar}
    if collisions:
        detail["colliding_indices"] = collisions
    return lhs, rhs, detail, side_ok


def _old_phi_sqdiss(order, n):
    lhs = qf.phi(order)
    rhs = qf.phi(order, n * n)
    for r in range(1, n):
        rhs = rhs + qf.general_theta(n * (n - 2 * r), n * (n + 2 * r), order,
                                     shift=r * r)
    return lhs, rhs, {}, True


def _old_phi_sqdiss_n2(order):
    lhs = qf.phi(order)
    base = qf.phi(order, 4)
    tail = qf.psi(order, 8).shift(1)
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


OLD_BUILDERS = {"inv-phineg-4diss": _old_inv_phineg_4diss,
                "psi-3diss": _old_psi_3diss, "fp-binom": _old_fp_binom,
                "fp2-binom": _old_fp2_binom,
                "inv-phi-5diss": _old_inv_phi_5diss,
                "psi-pdiss": _old_psi_pdiss, "f1-pdiss": _old_f1_pdiss,
                "phi-sqdiss": _old_phi_sqdiss,
                "phi-sqdiss-n2": _old_phi_sqdiss_n2}
# the old builders that also returned (detail, ok)
OLD_VERDICTS = ("inv-phi-5diss", "psi-pdiss", "f1-pdiss", "phi-sqdiss",
                "phi-sqdiss-n2")


@pytest.mark.parametrize("tag", sorted(OLD_BUILDERS))
def test_migrated_rows_match_their_old_builders(tag):
    ident = qf.IDENTITIES[tag]
    for params in _default_params(ident):
        lhs, rhs, m, *_ = _sides(ident, params)
        for order in (ident.order, 3000):
            new = tuple(qf.expand_terms(t, order, m) for t in (lhs, rhs))
            old = OLD_BUILDERS[tag](order, **params)[:2]
            assert new == old, (params, order)


@pytest.mark.parametrize("tag", OLD_VERDICTS)
def test_migrated_rows_keep_their_old_verdicts(tag):
    # the detail and the verdict the old builder returned, report for
    # report; phi-sqdiss-n2 also where its c = 1 form is not refuted
    ident = qf.IDENTITIES[tag]
    orders = (1, 2, ident.order, 3000) if tag == "phi-sqdiss-n2" else (
        ident.order, 3000)
    for params in _default_params(ident):
        for order in orders:
            _, _, detail, ok = OLD_BUILDERS[tag](order, **params)
            r = qf.verify_identity(tag, order, **params)
            assert (r.detail, r.passed) == (detail, ok), (params, order)


def test_every_row_is_term_data():
    assert "build" not in qf.Identity._fields
    for ident in qf.IDENTITIES.values():
        for params in _default_params(ident):
            lhs, rhs, *_ = _sides(ident, params)
            for term in lhs + rhs:
                assert tuple(map(type, term)) == (int, int, EtaQuotient,
                                                  tuple), (ident.tag, term)
                for a, b, sign, k in term[3]:
                    assert sign in (1, -1) and k >= 1 and min(a, b) >= 0


def test_blocks_every_term_shares_are_multiplied_once(monkeypatch):
    # X = F(q, q) is in every term, at powers 1, 2 and 1 + 1 (repeated in
    # the third term); Y = F(-q^2, -q^3) only in two: only X^1 is taken
    # out of the sum, and the sum equals its terms expanded one by one
    X, Y = (1, 1, 1), (2, 3, -1)
    terms = qf.eta_terms((3, 0, "2:1", (*X, 1), (*Y, 2)), (-1, 2, "1", (*X, 2)),
                         (5, 1, "1:-1", (*X, 1), (*X, 1), (*Y, 1)))
    # Euler bases count too, where every term has them with exponents of
    # one sign: f1^-1 and f5^-1 are taken out of the sum below, f3 of
    # mixed signs is not; mod 3, f3 folds to f1^3 and only f5^-1 is
    eulers = qf.eta_terms((1, 0, "1:-2,3:2,5:-1"), (-2, 1, "1:-3,3:1,5:-1"),
                          (4, 3, "1:-1,3:-1,5:-2", (*X, 1)))
    for order, m in ((1, None), (60, None), (60, 3), (60, 4)):
        for sum_terms in (terms, eulers):
            by_term = sum((qf.expand_terms((t,), order, m)
                           for t in sum_terms), Series.zero(order, m))
            assert qf.expand_terms(sum_terms, order, m) == by_term
    calls = []
    real = series._convolve

    def spy(a, b, n, m):
        calls.append(n)
        return real(a, b, n, m)

    monkeypatch.setattr(series, "_convolve", spy)
    # right sides and their products: 53, 14 and 19 when the bases every
    # term has (phi(q) phi(q^25); phi(-q); f1^4 f4^2) were multiplied
    # term by term
    for tag, products in (("inv-phi-5diss", 32), ("inv-phineg-4diss", 11),
                          ("inv-f1-quad-2diss", 15)):
        calls.clear()
        ident = qf.IDENTITIES[tag]
        qf.expand_terms(ident.sides[1], ident.order)
        assert len(calls) == products, tag


@pytest.mark.parametrize("n", range(2, 13))
def test_square_dissection_block_of_r_is_the_block_of_n_minus_r(n):
    # summand r of phi-sqdiss is the sum over t of q^{(n t - r)^2}
    def summand(r):
        return qf.general_theta(n * (n - 2 * r), n * (n + 2 * r), 2000,
                                shift=r * r)

    for r in range(1, n):
        assert summand(r) == summand(n - r), r


# the rows stated with denominators cleared: (quoted lhs, quoted rhs,
# the denominators each side was multiplied by)
QUOTED = {
    "inv-f1sq-2diss": (qf.eta_terms((1, 0, "1:-2")), qf.eta_terms(
        (1, 0, "8:5,2:-5,16:-2"), (2, 1, "4:2,16:2,2:-5,8:-1")),
        "1:2,2:5,8:1,16:2"),
    "inv-f1-quad-2diss": (qf.eta_terms((1, 0, "1:-4")), qf.eta_terms(
        (1, 0, "4:14,2:-14,8:-4"), (4, 1, "4:2,8:4,2:-10")), "1:4,2:14,8:4"),
}


@pytest.mark.parametrize("tag", sorted(QUOTED))
def test_cleared_rows_are_their_quoted_form_times_its_denominators(tag):
    *quoted, cleared_by = QUOTED[tag]
    *sides, m = qf.IDENTITIES[tag].sides
    assert m is None
    for order in (qf.IDENTITIES[tag].order, 3000):
        d = qf.eta_quotient(EtaQuotient.parse(cleared_by), order)
        for side, quoted_side in zip(sides, quoted):
            assert (qf.expand_terms(side, order)
                    == qf.expand_terms(quoted_side, order) * d)


def _verify_with_term(tag, params, side, index, replace, monkeypatch):
    # verify_identity on the row with one term of one side replaced
    ident = qf.IDENTITIES[tag]
    sides = list(_sides(ident, params))
    terms = list(sides[side])
    terms[index] = replace(terms[index])
    sides[side] = tuple(terms)
    bad = ident._replace(sides=lambda **_: tuple(sides))
    monkeypatch.setitem(qf.IDENTITIES, tag, bad)
    return qf.verify_identity(tag, 50, **params)


# one wrong exponent in a data row: (tag, params, side, term, quotient)
CORRUPTIONS = [
    ("f1-quad-2diss", {}, 1, 1, "2:2,8:4,4:-1"),
    ("inv-f1-quad-2diss", {}, 1, 1, "1:4,2:4,4:2,8:7"),
    ("psi-3diss", {}, 1, 1, "18:2,9:-2"),
    ("inv-phineg-4diss", {}, 1, 3, "1:2,2:-1,8:-3,16:5"),
    ("fp-binom", {"p": 3}, 1, 0, "1:2"),
]


@pytest.mark.parametrize("tag, params, side, index, quotient", CORRUPTIONS,
                         ids=[row[0] for row in CORRUPTIONS])
def test_eta_sum_rows_catch_a_corrupt_exponent(tag, params, side, index,
                                               quotient, monkeypatch):
    # every eta-quotient row is (c, s, EtaQuotient, blocks) data: one
    # wrong exponent must fail the check, not pass silently
    def replace(term):
        c, s, _, blocks = term
        return c, s, EtaQuotient.parse(quotient), blocks

    report = _verify_with_term(tag, params, side, index, replace, monkeypatch)
    assert report.status == "fail" and report.counterexamples


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_binom_is_not_checked_against_itself(p, monkeypatch):
    # folding would make f_p and f_1^p one series: the left side stays an
    # Euler product at scale p, the block (p, 2p, -1), and a wrong power
    # of f_1 still fails
    scales = []
    real = qf.general_theta

    def spy(a, b, order, sign=1, shift=0, modulus=None):
        if b == 2 * a and sign == -1:
            scales.append(a)
        return real(a, b, order, sign, shift, modulus)

    monkeypatch.setattr(qf, "general_theta", spy)
    assert qf.verify_identity("fp-binom", p=p).passed
    assert scales == [p, 1]

    def replace(term):
        return 1, 0, EtaQuotient.parse(f"1:{p + 1}"), ()

    report = _verify_with_term("fp-binom", {"p": p}, 1, 0, replace,
                               monkeypatch)
    assert report.status == "fail" and report.counterexamples


# one wrong block or coefficient in a theta row: (tag, params, side,
# term, the term as the row states it, the corrupted term)
THETA_CORRUPTIONS = [
    ("psi-pdiss", {"p": 5}, 1, 0,      # a block exponent, b = 10 -> 11
     (1, 0, "1", (15, 10, 1, 1)), (1, 0, "1", (15, 11, 1, 1))),
    ("inv-phi-5diss", {}, 1, 6,        # a bracket coefficient, -12 -> -11
     (-12, 5, "1", (1, 1, 1, 1), (25, 25, 1, 3), (35, 15, 1, 1), (45, 5, 1, 1)),
     (-11, 5, "1", (1, 1, 1, 1), (25, 25, 1, 3), (35, 15, 1, 1), (45, 5, 1, 1))),
    ("f1-pdiss", {"p": 7}, 1, 5,       # a block sign, -1 -> +1
     (-1, 15, "1", (140, 7, -1, 1)), (-1, 15, "1", (140, 7, 1, 1))),
]


@pytest.mark.parametrize("tag, params, side, index, stated, corrupt",
                         THETA_CORRUPTIONS,
                         ids=[row[0] for row in THETA_CORRUPTIONS])
def test_theta_rows_catch_a_corrupt_block(tag, params, side, index, stated,
                                          corrupt, monkeypatch):
    (stated,), (corrupt,) = qf.eta_terms(stated), qf.eta_terms(corrupt)

    def replace(term):
        assert term == stated
        return corrupt

    report = _verify_with_term(tag, params, side, index, replace, monkeypatch)
    assert report.status == "fail" and report.counterexamples


def test_identity_default_orders_cover_acceptance():
    wanted = {
        "f1sq-2diss": 1000, "inv-f1sq-2diss": 1000, "inv-f1-quad-2diss": 1000,
        "f1-quad-2diss": 1000, "inv-phineg-4diss": 500, "inv-phi-5diss": 300,
        "psi-3diss": 1000, "psi-pdiss": 300, "f1-pdiss": 300,
        "phi-sqdiss": 300, "phi-sqdiss-n2": 300, "fp-binom": 500,
        "fp2-binom": 300,
    }
    assert {t: i.order for t, i in qf.IDENTITIES.items()} == wanted


def test_dissection_side_conditions_recorded():
    for tag, p in (("psi-pdiss", 7), ("f1-pdiss", 11)):
        r = qf.verify_identity(tag, 80, p=p)
        assert r.passed
        assert r.detail["side_condition_ok"] is True


def test_a_failed_side_condition_fails_the_row(monkeypatch):
    # no default prime has a collision, so make one: an offset on the
    # tail's residue mod p is recorded, and the row fails on equal sides
    detail = qf._side_condition(5, {0: 0, 1: 8}, 3)
    assert detail == {"side_condition_ok": False, "colliding_indices": [1]}
    ident = qf.IDENTITIES["psi-pdiss"]
    lhs, rhs, m, _ = ident.sides(5)
    monkeypatch.setitem(qf.IDENTITIES, "psi-pdiss", ident._replace(
        sides=lambda p: (lhs, rhs, m, detail)))
    r = qf.verify_identity("psi-pdiss", 50, p=5)
    assert r.status == "fail" and r.counterexamples == []
    assert r.detail == detail


def test_invalid_dissection_primes():
    with pytest.raises(ValueError, match="must be >= 3"):
        qf.verify_identity("psi-pdiss", 50, p=2)
    with pytest.raises(ValueError):
        qf.verify_identity("psi-pdiss", 50, p=9)
    with pytest.raises(ValueError):
        qf.verify_identity("f1-pdiss", 50, p=3)
    # a prime past the size guard is refused before any primality test
    with pytest.raises(ValueError, match="size guard"):
        qf.verify_identity("fp-binom", p=1009)
    # and an n past it before any theta block is built
    with pytest.raises(ValueError, match="n = 1001 exceeds the size guard"):
        qf.verify_identity("phi-sqdiss", n=1001)
    with pytest.raises(ValueError, match="size guard 1000"):
        qf.verify_identity("phi-sqdiss", n=10**9)


def test_identity_parameter_validation():
    with pytest.raises(ValueError):
        qf.verify_identity("no-such-identity")
    with pytest.raises(ValueError):
        qf.verify_identity("psi-3diss", 50, p=5)   # takes no parameter
    with pytest.raises(ValueError):
        qf.verify_identity("psi-pdiss", 50)        # missing its parameter


def test_square_dissection_adjudication():
    # the printed coefficient-1 form must fail and the doubled form pass
    r = qf.verify_identity("phi-sqdiss-n2", 200)
    assert r.passed
    assert r.detail["coefficient_1_matches"] is False
    assert r.detail["coefficient_2_matches"] is True
    assert "2q psi(q^8)" in r.detail["adopted"]
    n, found, expected = r.detail["coefficient_1_first_counterexample"]
    assert n == 1 and found == 2 and expected == 1
    # at order 1 both forms read 1: c = 2 holds, but c = 1 is not refuted
    r = qf.verify_identity("phi-sqdiss-n2", 1)
    assert r.status == "fail" and r.counterexamples == []
    assert r.detail["coefficient_1_matches"] is True


def test_square_dissection_n3():
    r = qf.verify_identity("phi-sqdiss", 300, n=3)
    assert r.passed and r.terms_checked == 300


def test_binomial_congruences_are_modular():
    r = qf.verify_identity("fp-binom", 100, p=3)
    assert r.passed and r.modulus == 3
    r = qf.verify_identity("fp2-binom", 100, p=5)
    assert r.passed and r.modulus == 25


# -- build price ---------------------------------------------------------------


def _quotient(e, h=1):
    return ((1, 0, EtaQuotient([(h, e)]), ()),)


def test_price_builds_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the price built a series")

    for name in ("general_theta", "euler_product"):
        monkeypatch.setattr(qf, name, refuse)
    monkeypatch.setattr(series, "_convolve", refuse)
    monkeypatch.setattr(series, "_divide", refuse)
    ident = qf.IDENTITIES["inv-phi-5diss"]
    for terms, order, m in ((_quotient(-1000), 200000, 2**64),
                            (_quotient(-1), 200000, None),
                            (ident.sides[0], 40000, None),
                            (ident.sides[1], 40000, None),
                            (qf._phi_sqdiss(1000)[1], 200000, None)):
        assert qf.price(terms, order, m) > 0


PRICE_ORDERS = (10, 100, 1000, 5000, 20000, 40000, 200000)
PRICE_EXPONENTS = (1, 10, 100, 1000)
PRICE_MODULI = (3, 2**16, 2**64, 2**256)


@pytest.mark.parametrize("m", (None, *PRICE_MODULI))
@pytest.mark.parametrize("sign", (1, -1))
def test_price_is_monotone_in_order_and_exponent(m, sign):
    grid = [[qf.price(_quotient(sign * e), n, m) for n in PRICE_ORDERS]
            for e in PRICE_EXPONENTS]
    for row in grid:
        assert row == sorted(row)
    for column in zip(*grid):
        assert list(column) == sorted(column)


@pytest.mark.parametrize("e", (-1, -10, -1000, 10))
def test_price_is_monotone_in_modulus_bits(e):
    prices = [qf.price(_quotient(e), 20000, m) for m in PRICE_MODULI]
    assert prices == sorted(prices)
    assert prices[0] < prices[-1]


@pytest.mark.parametrize("tag,params", [
    ("inv-phi-5diss", {}), ("inv-phineg-4diss", {}), ("phi-sqdiss", {"n": 7}),
    ("f1-pdiss", {"p": 13}), ("psi-pdiss", {"p": 13})])
def test_price_is_monotone_in_terms(tag, params):
    ident = qf.IDENTITIES[tag]
    _, rhs, m, *_ = ident.sides(**params) if params else ident.sides
    prices = [qf.price(rhs[:k], 5000, m) for k in range(len(rhs) + 1)]
    assert prices == sorted(prices)
    assert prices[-1] > prices[1]


def test_price_refuses_slots_past_the_digit_limit():
    # a slot of more digits than int() and str() read linearly is
    # priced as the quadratic conversion it is
    assert qf.price(_quotient(-1), 100, 2**50000 + 1) > qf.BUILD_BUDGET
    assert qf.price(_quotient(-1), 100, 10**2000 + 1) < qf.BUILD_BUDGET
    with pytest.raises(ValueError, match="exceeds the build budget"):
        qf.afford((_quotient(-1), 100, 10**3000 + 1))


def test_verify_identity_prices_both_sides(monkeypatch):
    seen = []
    monkeypatch.setattr(qf, "price", lambda *build: seen.append(build) or 0)
    qf.verify_identity("psi-3diss", 50)
    ident = qf.IDENTITIES["psi-3diss"]
    assert seen == [(ident.sides[0], 50, None), (ident.sides[1], 50, None)]
    monkeypatch.setattr(qf, "price", lambda *build: qf.BUILD_BUDGET)
    with pytest.raises(ValueError, match=r"psi-3diss: predicted cost 60000000 "
                                         r"exceeds the build budget 30000000"):
        qf.verify_identity("psi-3diss", 50)
