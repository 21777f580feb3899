"""Theta functions, eta quotients, and the identity catalog."""

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
    # stretch of an order-10 series stops at order 28, so compare there
    assert qf.phi(28, 3) == qf.phi(10).stretch(3)
    assert qf.psi(21, 2) == qf.psi(11).stretch(2)


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
    assert qf.general_theta(qf.EULER_SPEC, 500) == qf.euler_product(1, 500)
    for order in THETA_ORDERS:
        for scale in THETA_SCALES:
            want = _closed_form(
                lambda nu: (nu * (3 * nu + 1) // 2, -1 if nu % 2 else 1),
                order, scale)
            assert qf.euler_product(scale, order).coeffs == want
            assert qf.general_theta(qf.EULER_SPEC, order, scale).coeffs == want


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


def test_rstar6_times_f1_squared_at_criterion_6_order():
    n, m = 146469, 3
    f1, f2, f6 = (qf.euler_product(h, n).reduce_mod(m) for h in (1, 2, 6))
    assert qf.eta_quotient(EtaQuotient.rstar(6), n, m) * f1 ** 2 == f2 * f6


def test_phi_neg_cross_check_catches_a_corrupt_spec(monkeypatch):
    # the check compares the spec with Euler products, not with itself
    monkeypatch.setattr(qf, "PHI_NEG_SPEC", qf.ThetaSpec(1, 1, 1, -1))
    with pytest.raises(AssertionError, match="phi"):
        qf.phi_neg(50)


def test_theta_rejects_negative_exponents():
    with pytest.raises(ValueError):
        qf.general_theta(qf.ThetaSpec(0, 0), 10)
    with pytest.raises(ValueError):
        qf.x_series(10, scale=0)


def test_catalog_all_pass():
    reports = qf.run_catalog(order=120)
    assert reports, "catalog must not be empty"
    for r in reports:
        assert r.passed, f"{r.describe()}: {r.counterexamples}"


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


def test_square_dissection_n3():
    r = qf.verify_identity("phi-sqdiss", 300, n=3)
    assert r.passed and r.terms_checked == 300


def test_binomial_congruences_are_modular():
    r = qf.verify_identity("fp-binom", 100, p=3)
    assert r.passed and r.modulus == 3
    r = qf.verify_identity("fp2-binom", 100, p=5)
    assert r.passed and r.modulus == 25
