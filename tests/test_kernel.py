"""Property tests of the multiplication kernel against the schoolbook
convolution, with slots read back by int() and through Decimal, and of
the ring laws built on it."""

import math

import pytest

from qcong import qfunctions as qf
from qcong import series
from qcong.series import EtaQuotient, Series

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

from test_qfunctions import plain_eta_quotient  # noqa: E402
from test_series import int_max_str_digits, naive_product  # noqa: E402


@st.composite
def kernel_inputs(draw):
    """(n, modulus, a, b): operands of any length up to n + 3, signed and
    up to 10^40 or 10^330 over Z, canonical residues over Z/mZ (m up to
    10^20 or 10^330), sometimes all zero, sometimes sparse with every
    nonzero term at the extreme magnitude (+-bound, or m - 1), where
    slots sized by the nonzero count fill.  Two 10^330 operands make
    slots past 640 digits.  The small moduli straddle the byte lanes'
    d (m - 1) < 256: 16 to 37 fit them at 4 and 5 digits, 64 only at 4,
    256 never, and 257 has residues past one byte."""
    n = draw(st.integers(1, 40))
    m = draw(st.one_of(st.none(),
                       st.sampled_from([1, 2, 3, 4, 8, 16, 24, 29, 32, 37, 64,
                                        97, 256, 257]),
                       st.integers(1, 10**20), st.integers(1, 10**330)))

    def operand():
        bound = draw(st.sampled_from([0, 1, 3, 10**6, 10**40, 10**330]))
        if draw(st.booleans()):
            cs = draw(st.lists(st.integers(-bound, bound), max_size=n + 3))
        else:
            cs = [0] * draw(st.integers(0, n + 3))
            for i in draw(st.sets(st.integers(0, n + 2), max_size=4)):
                if i < len(cs):
                    cs[i] = draw(st.sampled_from([-bound, bound]))
            if m is not None:
                cs = [m - 1 if c else 0 for c in cs]
        return cs if m is None else [c % m for c in cs]

    return n, m, operand(), operand()


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_naive_product_on_every_backend(case):
    # at the default limit on int() digits and at 640, the lowest, under
    # which the widest slots are read back through Decimal; one operand
    # object twice is the squaring path
    n, m, a, b = case
    want = naive_product(a, b, n, m)
    square = naive_product(a, a, n, m)
    assert list(series._convolve(a, b, n, m)) == want
    assert list(series._convolve(a, a, n, m)) == square
    with int_max_str_digits(640):
        got = (list(series._convolve(a, b, n, m)),
               list(series._convolve(a, a, n, m)))
    assert got == (want, square)


@settings(max_examples=50, deadline=None)
@given(kernel_inputs())
def test_series_product_and_inverse_laws(case):
    n, m, a, b = case
    a = Series(a + [0] * n, m).truncate(n)
    assert a * Series.one(n, m) == a
    assert a * Series.zero(n, m) == Series.zero(n, m)
    unit = Series([1] + list(b[1:n]) + [0] * n, m).truncate(n)
    assert unit * unit.invert() == Series.one(n, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 700),
       st.sampled_from([2, 3, 4, 8, 9, 24, 97, 2**61 - 1]),
       st.floats(0.05, 1.0), st.randoms(use_true_random=False))
def test_newton_matches_division(n, m, density, rnd):
    units = [u for u in range(1, min(m, 50)) if math.gcd(u, m) == 1]
    cs = [rnd.choice(units)] + [rnd.randrange(m) if rnd.random() < density
                                else 0 for _ in range(n - 1)]
    f = Series(cs, m)
    inv0 = pow(cs[0], -1, m)
    want = series._divide((1,), f.coeffs, inv0, m)
    assert list(series._newton_inverse(f.coeffs, inv0, m)) == want
    assert list(f.invert().coeffs) == want


@st.composite
def lifted_inputs(draw):
    """(num, den, m): a divisor whose terms past the constant share
    d = gcd(m, den[1:]) with m.  Over m in 2, 4, 8, 16, 36 and 2^64 they
    are multiples of rad(m)^j, the closed-form lift's case once m | d^2,
    and otherwise Newton's, or the recurrence's mod 2^64; mod 12 and 3,
    of a step that misses a prime of m, which the lift leaves to Newton."""
    m = draw(st.sampled_from([2, 4, 8, 16, 36, 2**64, 12, 3]))
    rad = math.prod(p for p in (2, 3) if m % p == 0)
    if m in (12, 3):
        step = draw(st.sampled_from([1, 2, 4] if m == 12 else [1, 2]))
    else:
        step = rad ** draw(st.sampled_from([1, 2, 3, 8, 16, 40]))
    order = draw(st.one_of(st.integers(1, 60), st.integers(61, 2500)))
    terms = draw(st.integers(0, 100))
    rnd = draw(st.randoms(use_true_random=False))
    den = [rnd.choice([u for u in range(1, min(m, 50))
                       if math.gcd(u, m) == 1])] + [0] * (order - 1)
    for k in rnd.sample(range(1, order), min(terms, order - 1)):
        den[k] = step * rnd.randrange(1, m) % m
    num = [rnd.randrange(m) for _ in range(order)]
    return num, den, m


@settings(max_examples=60, deadline=None)
@given(lifted_inputs())
def test_quotient_matches_the_recurrence_on_lifted_divisors(case):
    num, den, m = case
    inv0 = pow(den[0], -1, m)
    assert (list(series._quotient((1,), den, m))
            == series._divide((1,), den, inv0, m))
    assert (list(series._quotient(num, den, m))
            == series._divide(num, den, inv0, m))


@st.composite
def division_inputs(draw):
    """(num, den): a sparse den with a unit constant term and up to 100
    nonzero terms, and a numerator with coefficients up to 10^40."""
    m = draw(st.sampled_from([None, 2, 3, 4, 8, 9, 10**9 + 7]))
    order = draw(st.one_of(st.integers(1, 60), st.integers(61, 2500)))
    terms = draw(st.integers(0, 100))
    small = draw(st.booleans())    # +-1, +-2 as in Euler and theta series
    rnd = draw(st.randoms(use_true_random=False))
    units = ([1, -1] if m is None else
             [u for u in range(1, min(m, 50)) if math.gcd(u, m) == 1])
    # over Z a divisor's coefficients set the quotient's growth: 9 at q^1
    # gives 8000-bit coefficients at order 2500
    wide = 9 if m is None else m
    den = [rnd.choice(units)] + [0] * (order - 1)
    for k in rnd.sample(range(1, order), min(terms, order - 1)):
        den[k] = rnd.choice([-2, -1, 1, 2]) if small else rnd.randint(
            -wide, wide)
    bound = draw(st.sampled_from([1, 10**6, 10**40]))
    num = [rnd.randint(-bound, bound) for _ in range(order)]
    return Series(num, m), Series(den, m)


@settings(max_examples=40, deadline=None)
@given(division_inputs())
def test_division_matches_product_with_inverse(case):
    num, den = case
    quotient = num / den
    assert quotient == num * den.invert()
    assert quotient * den == num


@st.composite
def eta_inputs(draw):
    """(factors, order, modulus): scales 1..8, exponents -4..4 or -25,
    which over Z is 25 sparse divisions, sometimes with an
    f_h^{-2k} f_{2h}^k (or its inverse) pair put in, sometimes a psi
    pair f_h^{-k} f_{2h}^{2k}, and sometimes a factor whose scale is a
    multiple of the modulus, which a prime modulus folds, at orders up to
    1500 over Z and 3000 mod m."""
    exponent = st.one_of(st.integers(-4, 4), st.just(-25))
    factors = draw(st.lists(st.tuples(st.integers(1, 8), exponent),
                            max_size=4))
    if draw(st.booleans()):
        h, k = draw(st.integers(1, 4)), draw(st.sampled_from([-2, -1, 1, 2]))
        factors += [(h, -2 * k), (2 * h, k)]
    if draw(st.booleans()):
        h, k = draw(st.integers(1, 4)), draw(st.sampled_from([-2, -1, 1, 2]))
        factors += [(h, -k), (2 * h, 2 * k)]
    m = draw(st.sampled_from([None, 2, 3, 4, 5, 7, 8, 9, 10**9 + 7]))
    if m is not None and draw(st.booleans()):
        factors.append((m * draw(st.integers(1, 4)), draw(exponent)))
    order = draw(st.one_of(st.integers(1, 200),
                           st.integers(700, 1500 if m is None else 3000)))
    return factors, order, m


@settings(max_examples=60, deadline=None)
@given(eta_inputs())
def test_eta_quotient_matches_plain_product(case):
    factors, order, m = case
    assert (qf.eta_quotient(EtaQuotient(factors), order, m)
            == plain_eta_quotient(factors, order, m))
