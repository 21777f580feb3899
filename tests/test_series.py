"""Core series arithmetic, checked against a naive convolution and
against frozen small expansions."""

import math
import os
import random
import subprocess
import sys

import pytest

from qcong import series
from qcong.report import compare_coefficients
from qcong.series import (EtaQuotient, ModulusMismatchError,
                          NotInvertibleError, Series, congruent_mod)
from qcong.qfunctions import eta_quotient, euler_product


def naive_product(a, b, n, m=None):
    # schoolbook convolution, the oracle for the packed multiply
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b[:n]):
            if i + j >= n:
                break
            out[i + j] += x * y
    if m is not None:
        out = [c % m for c in out]
    return out


def naive_power(a, k, n):
    out = [1] + [0] * (n - 1)
    for _ in range(k):
        out = naive_product(out, a, n)
    return out


def random_series(rng, order, modulus=None, bound=10**6):
    cs = [rng.randint(-bound, bound) for _ in range(order)]
    if modulus is not None:
        cs = [c % modulus for c in cs]
    return Series(cs, modulus)


def test_multiplication_matches_naive_convolution():
    rng = random.Random(20240901)
    for _ in range(25):
        n = rng.randint(1, 80)
        a = random_series(rng, n)
        b = random_series(rng, n)
        assert list((a * b).coeffs) == naive_product(a.coeffs, b.coeffs, n)


def test_multiplication_matches_naive_convolution_modular():
    rng = random.Random(20240902)
    for m in (2, 3, 4, 8, 97, 2**31 - 1):
        n = rng.randint(1, 60)
        a = random_series(rng, n, m)
        b = random_series(rng, n, m)
        assert list((a * b).coeffs) == naive_product(a.coeffs, b.coeffs, n, m)


def test_multiplication_huge_coefficients():
    # coefficients far beyond machine words; packing must stay exact
    rng = random.Random(20240903)
    a = random_series(rng, 12, bound=10**40)
    b = random_series(rng, 12, bound=10**40)
    assert list((a * b).coeffs) == naive_product(a.coeffs, b.coeffs, 12)


def test_ring_axioms():
    rng = random.Random(64)
    a = random_series(rng, 64)
    b = random_series(rng, 64)
    c = random_series(rng, 64)
    one = Series.one(64)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert a - a == Series.zero(64)


def test_result_order_is_min_of_operands():
    a = Series([1] * 10)
    b = Series([1] * 4)
    assert (a * b).order == 4
    assert (a + b).order == 4


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    a = random_series(rng, 30)
    prod = Series.one(30)
    for k in range(5):
        assert a**k == prod
        prod = prod * a


def test_invert_random_units():
    rng = random.Random(20240904)
    one = Series.one(40)
    for _ in range(50):
        cs = [rng.choice([1, -1])] + [rng.randint(-50, 50) for _ in range(39)]
        a = Series(cs)
        assert a * a.invert() == one
    for _ in range(50):
        m = rng.choice([3, 5, 8, 9, 121])
        c0 = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        cs = [c0] + [rng.randrange(m) for _ in range(39)]
        a = Series(cs, m)
        assert a * a.invert() == Series.one(40, m)


def test_invert_needs_unit_constant():
    with pytest.raises(NotInvertibleError):
        Series([2, 1, 1]).invert()
    with pytest.raises(NotInvertibleError):
        Series([2, 1, 1], 4).invert()
    with pytest.raises(NotInvertibleError):
        Series((), None).invert()


def test_division_is_product_with_inverse():
    rng = random.Random(20261018)
    f1, f2 = euler_product(1, 60), euler_product(2, 40)
    assert f2 / f1 == f2 * f1.truncate(40).invert()      # shorter order wins
    assert (f2 / f1).order == 40
    num = random_series(rng, 60, bound=10**40)
    assert (num / f1) * f1 == num
    assert Series.one(60) / f1 == f1.invert()
    assert (num.reduce_mod(9) / f1.reduce_mod(9)
            == (num / f1).reduce_mod(9))
    with pytest.raises(NotInvertibleError):
        f1 / Series([2, 1, 1])
    with pytest.raises(NotInvertibleError):
        f1.reduce_mod(4) / Series([2, 1, 1], 4)
    with pytest.raises(ModulusMismatchError):
        f1 / f1.reduce_mod(3)
    with pytest.raises(TypeError):
        f1 / 2


def test_negative_power_is_inverse():
    f1 = euler_product(1, 20)
    assert f1**-1 == f1.invert()
    assert f1**-2 == f1.invert() * f1.invert()


def test_euler_product_frozen_values():
    assert list(euler_product(1, 8).coeffs) == [1, -1, -1, 0, 0, 1, 0, 1]
    # (q;q)_inf^2 starts 1 - 2q - q^2 + 2q^3 + q^4 + 2q^5
    assert list((euler_product(1, 6) ** 2).coeffs) == [1, -2, -1, 2, 1, 2]


def test_invert_euler_gives_partition_numbers():
    p = euler_product(1, 8).invert()
    assert list(p.coeffs) == [1, 1, 2, 3, 5, 7, 11, 15]


def test_reduce_mod_canonical_residues():
    a = Series([-1, 5, -7, 12])
    r = a.reduce_mod(4)
    assert list(r.coeffs) == [3, 1, 1, 0]
    assert r.modulus == 4
    # refining an already-reduced series only works along divisors
    assert list(r.reduce_mod(2).coeffs) == [1, 1, 1, 0]
    with pytest.raises(ModulusMismatchError):
        r.reduce_mod(3)


def test_modulus_mixing_is_rejected():
    with pytest.raises(ModulusMismatchError):
        Series([1, 2], 4) * Series([1, 2], 8)
    with pytest.raises(ModulusMismatchError):
        Series([1, 2]) + Series([1, 2], 4)


def test_shift():
    a = Series([1, 2, 3, 4])
    assert list(a.shift(2).coeffs) == [0, 0, 1, 2]
    assert a.shift(0) == a
    assert a.shift(9) == Series.zero(4)
    with pytest.raises(ValueError):
        a.shift(-1)


def test_truncate():
    a = Series([1, 2, 3, 4])
    assert list(a.truncate(2).coeffs) == [1, 2]
    with pytest.raises(ValueError):
        a.truncate(5)


def test_from_terms_accumulates_duplicates():
    a = Series.from_terms([(0, 1), (3, 2), (3, 5), (9, 1)], 6)
    assert list(a.coeffs) == [1, 0, 0, 7, 0, 0]
    with pytest.raises(ValueError):
        Series.from_terms([(-1, 1)], 6)


def test_congruent_mod_reports_first_mismatch():
    a = Series([1, 5, 3, 9])
    b = Series([1, 1, 3, 2])
    ok = congruent_mod(a, b, 4, 4)
    assert not ok.ok and ok.index == 3 and (ok.left, ok.right) == (1, 2)
    assert congruent_mod(a, b, 4, 3).ok


def test_compare_coefficients_refuses_short_input():
    # a check is never silently truncated to the shorter side
    short, full = Series([1, 5, 3]), Series([1, 5, 3, 9])
    with pytest.raises(ValueError, match="too short"):
        compare_coefficients(short, full, 4, None)
    with pytest.raises(ValueError, match="too short"):
        compare_coefficients([1, 5, 3, 9], [1, 5], 3, 4)
    with pytest.raises(ValueError, match="too short"):
        congruent_mod(full, short, 4, 4)
    assert compare_coefficients(short, full, 3, None) == ([], 0)


def test_eta_quotient_parse_roundtrip():
    eq = EtaQuotient.parse("2:1,5:1,1:-2")
    assert eq.factors == ((1, -2), (2, 1), (5, 1))
    assert EtaQuotient.parse(str(eq)) == eq
    assert EtaQuotient.parse("1").factors == ()
    assert EtaQuotient.rstar(8).factors == ((1, -2), (2, 1), (8, 1))
    with pytest.raises(ValueError):
        EtaQuotient([(0, 1)])


# -- the multiplication kernel and Newton inversion ---------------------------

BACKENDS = (series._int_product, series._decimal_product)


def test_kernel_slots_at_their_extremes():
    # operands whose extreme product slot, n * B^2, sits just under half
    # a slot's range in each backend (2^L bits or 10^L digits), both signs
    for n in (1, 3):
        for top in [2**L for L in (8, 16, 64, 128)] + [10**L for L in (3, 20, 41)]:
            big = math.isqrt((top - 1) // (2 * n))
            for a, b in (([big] * n, [big] * n), ([big] * n, [-big] * n),
                         ([-big] * n, [-big] * n)):
                for backend in BACKENDS:
                    assert (series._convolve(a, b, n, None, backend)
                            == naive_product(a, b, n))


def test_decimal_context_is_exact_or_raises():
    decimal, ctx = series._decimal()
    big = ctx.create_decimal("1" + "0" * 40)
    # 40 nines: the default 28-digit context would round this
    assert ctx.subtract(big, ctx.create_decimal(1)) == ctx.create_decimal("9" * 40)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        ctx.to_integral_exact(ctx.create_decimal("2.5"))
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        ctx.quantize(ctx.create_decimal("1.25"), ctx.create_decimal("0.1"))


def test_decimal_is_imported_lazily():
    code = ("import sys, qcong, qcong.cli, qcong.suite; "
            "from qcong.series import Series; "
            "Series(range(50), 7) * Series(range(50), 7); "
            "print('decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_newton_matches_division_at_32768_mod_4():
    f = euler_product(1, 32768).reduce_mod(4)
    assert series._newton_pays(f.coeffs, series._NEWTON_MIN_TERMS)
    newton = f.invert()
    assert list(newton.coeffs) == series._divide((1,), f.coeffs, 1, 4)
    # and a dense series, whose recurrence is quadratic
    rng = random.Random(20261017)
    g = Series([3] + [rng.randrange(8) for _ in range(2999)], 8)
    assert (list(g.invert().coeffs)
            == series._divide((1,), g.coeffs, 3, 8))


def test_inverse_times_series_is_one_at_147456_mod_3():
    f = euler_product(1, 147456).reduce_mod(3)
    assert f * f.invert() == Series.one(147456, 3)


def test_exact_square_at_8000_terms_matches_int_backend():
    # partition numbers to 8000 terms: the coefficients reach 316 bits
    p = euler_product(1, 8000).invert()
    assert max(p.coeffs).bit_length() >= 300
    square = p * p
    assert list(square.coeffs) == series._convolve(p.coeffs, p.coeffs, 8000,
                                                   None, series._int_product)
    mixed = p * euler_product(16, 8000)
    assert list(mixed.coeffs) == series._convolve(
        p.coeffs, euler_product(16, 8000).coeffs, 8000, None,
        series._int_product)


def test_large_products_take_the_decimal_backend(monkeypatch):
    calls = []
    real = series._decimal_product

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(series, "_decimal_product", spy)
    f = euler_product(1, 16384).reduce_mod(4)
    small = euler_product(1, 300)
    assert f * f == Series(series._convolve(f.coeffs, f.coeffs, 16384, 4,
                                            series._int_product), 4)
    small * small
    assert calls == [16384]


def test_no_product_is_spent_on_one(monkeypatch):
    calls = []
    real = series._convolve

    def spy(a, b, n, m, backend=None):
        calls.append(n)
        return real(a, b, n, m, backend)

    monkeypatch.setattr(series, "_convolve", spy)
    f = euler_product(1, 50)
    for k, products in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        calls.clear()
        power = f ** k
        assert len(calls) == products
        calls.clear()
        assert power == Series(naive_power(f.coeffs, k, 50))
    # an eta quotient starts from its first factor, and divides by its
    # sparse negative-power bases, f2/f1^2 being one phi(-q)
    for factors, products in (([(2, 1)], 0), ([(2, 1), (8, 1)], 1),
                              ([(1, -2)], 0), ([(1, -2), (2, 1), (6, 1)], 0),
                              ([(1, -2), (2, 2)], 0)):
        calls.clear()
        eta_quotient(factors, 50)
        assert len(calls) == products
