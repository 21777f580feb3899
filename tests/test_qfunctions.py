"""Theta functions, eta quotients, and the identity catalog."""

import dataclasses
import math

import pytest

from qcong import qfunctions as qf
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
    assert (qf.general_theta(1, 2, 500, sign_x=-1, sign_y=-1)
            == qf.euler_product(1, 500))
    for order in THETA_ORDERS:
        for scale in THETA_SCALES:
            want = _closed_form(
                lambda nu: (nu * (3 * nu + 1) // 2, -1 if nu % 2 else 1),
                order, scale)
            assert qf.euler_product(scale, order).coeffs == want
            assert qf.general_theta(1, 2, order, scale, sign_x=-1,
                                    sign_y=-1).coeffs == want


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
    got = qf.eta_quotient([(2, 1), (5, 1), (1, -2)], n)
    manual = (qf.euler_product(2, n) * qf.euler_product(5, n)
              * qf.euler_product(1, n).invert() ** 2)
    assert got == manual
    assert qf.eta_quotient("2:1,5:1,1:-2", n) == got
    assert qf.eta_quotient(EtaQuotient.rstar(5), n) == got


def test_eta_quotient_modular_matches_exact_reduction():
    n = 300
    exact = qf.eta_quotient([(2, 1), (6, 1), (1, -2)], n)
    modular = qf.eta_quotient([(2, 1), (6, 1), (1, -2)], n, 3)
    assert modular == exact.reduce_mod(3)
    assert modular.modulus == 3


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
            assert (qf.eta_quotient(factors, 300, m)
                    == plain_eta_quotient(factors, 300, m)), (factors, m)


# (ell, order, modulus) of the rstar(ell) bases criteria 6 and 8 build
SUITE_BASES = ((6, 146469, 3), (8, 32014, 4), (8, 16008, 8))


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


@pytest.mark.parametrize("m, divisions", [(None, qf._MAX_DIVISIONS), (4, 0)])
def test_large_exponents_are_inverted_then_raised(m, divisions, monkeypatch):
    # one more than the divisions a base may take, over either ring
    e = divisions + 1
    factors = [(1, -e), (3, 2)]
    divided = []
    real = Series.__truediv__
    monkeypatch.setattr(Series, "__truediv__",
                        lambda a, b: divided.append(b) or real(a, b))
    assert (qf.eta_quotient(factors, 400, m)
            == plain_eta_quotient(factors, 400, m))
    assert divided == []
    qf.eta_quotient([(1, 1 - e), (3, 2)], 400, m)
    assert len(divided) == e - 1


def test_rstar6_times_f1_squared_at_criterion_6_order():
    n, m = 146469, 3
    f1, f2, f6 = (qf.euler_product(h, n).reduce_mod(m) for h in (1, 2, 6))
    assert qf.eta_quotient(EtaQuotient.rstar(6), n, m) * f1 ** 2 == f2 * f6


def test_phi_neg_cross_check_catches_a_corrupt_spec(monkeypatch):
    # the check compares the theta series with Euler products, not with
    # itself: corrupt only the (1, 1) theta, so the Euler side stays right
    real = qf.general_theta

    def corrupt(a, b, order, scale=1, shift=0, sign_x=1, sign_y=1):
        if (a, b) == (1, 1):
            sign_x = -sign_x
        return real(a, b, order, scale, shift, sign_x, sign_y)

    monkeypatch.setattr(qf, "general_theta", corrupt)
    assert qf.euler_product(1, 50) == real(1, 2, 50, sign_x=-1, sign_y=-1)
    with pytest.raises(AssertionError, match="phi"):
        qf.phi_neg(50)


def test_theta_rejects_negative_exponents():
    with pytest.raises(ValueError, match="divergent"):
        qf.general_theta(0, 0, 10)
    with pytest.raises(ValueError, match="not a power series"):
        qf.general_theta(-1, 2, 10)
    with pytest.raises(ValueError, match="signs"):
        qf.general_theta(1, 1, 10, sign_x=2)
    with pytest.raises(ValueError, match="order"):
        qf.general_theta(1, 1, 0)
    with pytest.raises(ValueError):
        qf.x_series(10, scale=0)


def test_catalog_all_pass():
    reports = qf.run_catalog(order=120)
    assert reports, "catalog must not be empty"
    for r in reports:
        assert r.passed, f"{r.describe()}: {r.counterexamples}"


def test_eta_sum_rows_catch_a_corrupt_exponent(monkeypatch):
    # the 2-dissections of f1^2 and f1^4 are data rows of (c, s, factors)
    # terms: one wrong exponent must fail the check, not pass silently
    ident = qf.IDENTITIES["f1-quad-2diss"]
    lhs, (first, (c, s, _)) = ident.sums
    bad = dataclasses.replace(ident, sums=(lhs, (first, (c, s, "2:2,8:4,4:-1"))))
    monkeypatch.setitem(qf.IDENTITIES, "f1-quad-2diss", bad)
    report = qf.verify_identity("f1-quad-2diss", 50)
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


def test_invalid_dissection_primes():
    with pytest.raises(ValueError):
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
