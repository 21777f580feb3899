"""Property tests of the multiplication kernel against the schoolbook
convolution, on every backend, and of the ring laws built on it."""

import math

import pytest

from qcong import qfunctions as qf
from qcong import series
from qcong.series import Series

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

from test_qfunctions import plain_eta_quotient  # noqa: E402
from test_series import BACKENDS, naive_product  # noqa: E402


@st.composite
def kernel_inputs(draw):
    """(n, modulus, a, b): operands of any length up to n + 3, signed and
    up to 10^40 over Z, canonical residues over Z/mZ, sometimes all zero."""
    n = draw(st.integers(1, 40))
    m = draw(st.one_of(st.none(), st.sampled_from([1, 2, 3, 4, 8, 24, 97]),
                       st.integers(1, 10**20)))

    def operand():
        bound = draw(st.sampled_from([0, 1, 3, 10**6, 10**40]))
        cs = draw(st.lists(st.integers(-bound, bound), max_size=n + 3))
        return cs if m is None else [c % m for c in cs]

    return n, m, operand(), operand()


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_naive_product_on_every_backend(case):
    n, m, a, b = case
    want = naive_product(a, b, n, m)
    assert series._convolve(a, b, n, m) == want
    for backend in BACKENDS:
        assert series._convolve(a, b, n, m, backend) == want
        # one operand object twice is the squaring path
        assert (series._convolve(a, a, n, m, backend)
                == naive_product(a, a, n, m))


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
@given(st.integers(series._NEWTON_BASE_ORDER + 1, 700),
       st.sampled_from([2, 3, 4, 8, 9, 24, 97, 2**61 - 1]),
       st.floats(0.05, 1.0), st.randoms(use_true_random=False))
def test_newton_matches_recurrence(n, m, density, rnd):
    units = [u for u in range(1, min(m, 50)) if math.gcd(u, m) == 1]
    cs = [rnd.choice(units)] + [rnd.randrange(m) if rnd.random() < density
                                else 0 for _ in range(n - 1)]
    f = Series(cs, m)
    inv0 = pow(cs[0], -1, m)
    want = series._recurrence_inverse(f.coeffs, n, inv0, m)
    assert series._newton_inverse(f.coeffs, inv0, m) == want
    assert list(f.invert().coeffs) == want


@st.composite
def eta_inputs(draw):
    """(factors, order, modulus): scales 1..8, exponents -4..4, sometimes
    with an f_h^{-2k} f_{2h}^k (or its inverse) pair put in, at orders up
    to past the Newton crossover."""
    factors = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(-4, 4)),
                            max_size=4))
    if draw(st.booleans()):
        h, k = draw(st.integers(1, 4)), draw(st.sampled_from([-2, -1, 1, 2]))
        factors += [(h, -2 * k), (2 * h, k)]
    m = draw(st.sampled_from([None, 2, 3, 4, 8, 9, 10**9 + 7]))
    order = draw(st.one_of(st.integers(1, 200),
                           st.integers(700, 1500 if m is None else 3000)))
    return factors, order, m


@settings(max_examples=60, deadline=None)
@given(eta_inputs())
def test_eta_quotient_matches_plain_product(case):
    factors, order, m = case
    assert (qf.eta_quotient(factors, order, m)
            == plain_eta_quotient(factors, order, m))
