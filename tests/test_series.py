"""Core series arithmetic, checked against a naive convolution and
against frozen small expansions."""

import contextlib
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from qcong import series
from qcong.report import compare_coefficients
from qcong.series import (EtaQuotient, ModulusMismatchError,
                          NotInvertibleError, Series, congruent_mod)
from qcong.qfunctions import eta_quotient, euler_product, general_theta


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


@pytest.mark.parametrize("m", [0, -3])
def test_reduce_mod_refuses_a_modulus_below_one(m):
    with pytest.raises(ValueError, match="positive integer"):
        Series([1, 2, 3]).reduce_mod(m)


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


@pytest.mark.parametrize("m", [None, 2, 3, 4, 255, 256, 257, 2**64])
def test_coefficients_are_bytes_exactly_mod_at_most_256(m):
    # residues mod m <= 256 are one bytes object, a byte a coefficient;
    # coefficients over Z and mod a wider m are a tuple.  A unit series
    # is inverted by Newton mod m <= 256 and otherwise by the recurrence,
    # but phi(-q) mod 2 and 4 by the closed-form lift
    rng = random.Random(m)
    n = 200
    a, b = (Series([1] + [rng.randrange(-9, 10) for _ in range(n - 1)], m)
            for _ in range(2))
    f1, phi = euler_product(1, n), general_theta(1, 1, n, -1)
    if m is not None:
        f1, phi = f1.reduce_mod(m), phi.reduce_mod(m)
    results = [a + b, a - b, -a, 3 * a, a * -5, a * b, a * a, a ** 3,
               a ** 0, a ** -2, a.invert(), f1.invert(), phi.invert(),
               a / b, a / f1, a.shift(3), a.shift(n), a.truncate(50),
               Series.zero(n, m), Series.one(n, m)]
    if m is not None:
        results += [a.reduce_mod(m), Series([-1, 5, 2**70]).reduce_mod(m)]
    kind = bytes if m is not None and m <= 256 else tuple
    for s in results:
        assert type(s.coeffs) is kind
    assert a * b == Series(naive_product(a.coeffs, b.coeffs, n, m), m)


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

@contextlib.contextmanager
def int_max_str_digits(limit):
    """Run a block under another limit on int()/str() digits, the limit
    the kernel reads to pick its slot conversions (before CPython 3.11,
    which has no such limit, under none)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_kernel_slots_at_their_extremes():
    # operands whose extreme product slot, n * B^2, sits just under a
    # power of two or of ten, both signs; the slots of exactly `limit`
    # digits are the widest int() reads back, those of limit + 1 digits
    # go through Decimal
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    tops = ([2**L for L in (8, 16, 64, 128)]
            + [10**L for L in (3, 20, 41, limit, limit + 1)])
    for n in (1, 3):
        for top in tops:
            big = math.isqrt((top - 1) // (2 * n))
            for a, b in (([big] * n, [big] * n), ([big] * n, [-big] * n),
                         ([-big] * n, [-big] * n)):
                assert (list(series._convolve(a, b, n, None))
                        == naive_product(a, b, n))
    # sparse operands: slots are sized by the nonzero count k, not the
    # length, so slot 3(k-1), which sums k products B^2, fills them
    for k in (1, 2, 3):
        n = 3 * k + 2
        for top in tops:
            big = math.isqrt((top - 1) // (2 * k))
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a = [sa * big if i % 3 == 0 and i < 3 * k else 0
                     for i in range(n)]
                b = [sb * abs(c) for c in a]
                want = naive_product(a, b, n)
                assert abs(want[3 * (k - 1)]) == k * big * big
                assert list(series._convolve(a, b, n, None)) == want
            # modular: the largest residue, with an unbiased slot
            m = math.isqrt((top - 1) // k) + 1
            a = [m - 1 if i % 3 == 0 and i < 3 * k else 0 for i in range(n)]
            want = naive_product(a, a, n, m)
            assert naive_product(a, a, n)[3 * (k - 1)] == k * (m - 1) ** 2
            assert list(series._convolve(a, a, n, m)) == want
            assert list(series._convolve(a, list(a), n, m)) == want


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit before CPython 3.11")
def test_slots_past_a_lowered_str_digit_limit():
    # under the lowest limit CPython allows, 640 digits, slots of 680 to
    # 910 digits are converted through Decimal; one of 596 digits still
    # takes int() and %d
    rng = random.Random(20261019)
    wide = (1 << 1200) + 7
    cases = [([wide, 3, -(1 << 1200)], [wide, 3, -(1 << 1200)], 3, None),
             ([10**340 - 1, 0, -10**340 + 3, 5], [-10**340, 7, 10**339], 4,
              None),
             ([10**295 + 1, -3], [-10**300, 10**299], 2, None)]
    for m in (10**400 + 1, 2**1500):
        cases.append(([rng.randrange(m) for _ in range(20)],
                      [rng.randrange(m) for _ in range(17)], 20, m))
    with int_max_str_digits(640):
        got = [list(series._convolve(a, b, n, m)) for a, b, n, m in cases]
        squares = [list(series._convolve(a, a, n, m))
                   for a, _, n, m in cases]
        power = Series(cases[0][0]) ** 2
    for (a, b, n, m), product, square in zip(cases, got, squares):
        assert product == naive_product(a, b, n, m)
        assert square == naive_product(a, a, n, m)
    assert list(power.coeffs) == naive_product(cases[0][0], cases[0][0], 3)


def test_product_reads_back_across_block_seams():
    # slots are read back _BLOCK at a time, whole blocks from the low
    # slots up and then a front block of n % _BLOCK; n on either side of
    # each seam.
    # a is sparse, which keeps the naive product fast, and b dense, so
    # every slot of the product is filled; a with itself is the square.
    # Under a 640-digit limit the 10^330 operands' 662-digit slots are
    # read through Decimal, the others by int().  The mod-3 case fits
    # byte lanes and takes no block; the exact and 2^61 - 1 cases cover
    # the seams
    B = series._BLOCK
    rng = random.Random(1024)
    cases = ((10**6, None), (10**330, None), (3, 3), (2**61 - 1, 2**61 - 1))
    for n in (1, B - 1, B, B + 1, 2 * B, 2 * B + 1):
        for bound, m in cases:
            a = [0] * n
            for i in {0, n - 1, *rng.sample(range(n), min(n, 10))}:
                a[i] = rng.randint(-bound, bound)
            b = [rng.randint(-bound, bound) for _ in range(n)]
            if m is not None:
                a, b = [c % m for c in a], [c % m for c in b]
            with int_max_str_digits(640):
                got = (list(series._convolve(a, b, n, m)),
                       list(series._convolve(a, a, n, m)))
            assert got == (naive_product(a, b, n, m), naive_product(a, a, n, m))


def test_dense_product_memory_stays_bounded():
    # a dense mod-3 product at the order of R*_6 in criterion 6: read back
    # one slot format of n fields and n bytes objects at once, it peaked
    # at 12.7 MB; read a block at a time, 3.9 MB.  It now takes the byte
    # path, and peaks at 4.2 MB in the multiply, with the operands' bytes
    # held through it.  _convolve cuts only an operand longer than n, so
    # list operands of n terms are packed as they are and peak as tuples
    # do; copied to their first n terms, they peaked at 6.2 MB
    n = 146469
    rng = random.Random(n)
    a = tuple(rng.randrange(3) for _ in range(n))
    b = tuple(rng.randrange(3) for _ in range(n))
    series._convolve(a[:8], b[:8], 8, 3)    # imports decimal untraced

    def peak(x, y):
        tracemalloc.start()
        try:
            series._convolve(x, y, n, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(a, b) < 8 * 10**6
    assert peak(list(a), list(b)) < 5 * 10**6


def test_residue_build_memory_stays_bounded():
    # R*_6 mod 3 at the order of criterion 6: held as a tuple of residues
    # the built series held 1.18 MB and the build peaked at 3.6 MB; as
    # bytes it holds 0.16 MB and peaks at 2.4 MB
    eq = EtaQuotient.rstar(6)
    eta_quotient(eq, 2000, 3)    # imports decimal and fills the tables
    tracemalloc.start()
    try:
        built = eta_quotient(eq, 146469, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.order == 146469
    assert held < 5 * 10**5
    assert peak < 3 * 10**6


@pytest.mark.parametrize("shape", ["dense", "sparse", "square", "short"])
def test_residue_products_match_the_exact_product_at_suite_order(shape):
    # the residue products of the suite's moduli at the order of R*_6 in
    # criterion 6, against the exact signed product reduced mod m.
    # Operands in 0..47 reduce to canonical residues mod each m, which
    # divides 48, so one exact product serves every modulus.  A tuple
    # times a list, the sparse signed phi(-q) times a dense list, a
    # tuple squared, and a list squared to n - 1000 of its n + 5 terms
    n = 146469
    rng = random.Random(n + 1)
    a = tuple(rng.randrange(48) for _ in range(n + 5))
    b = [rng.randrange(48) for _ in range(n + 5)]
    x, y, k = {"dense": (a, b, n),
               "sparse": (general_theta(1, 1, n, -1).coeffs, b, n),
               "square": (a, a, n),
               "short": (b, b, n - 1000)}[shape]
    exact = series._convolve(x, y, k, None)
    for m in (2, 3, 4, 8, 16):
        rx = type(x)(c % m for c in x)
        ry = rx if y is x else type(y)(c % m for c in y)
        assert list(series._convolve(rx, ry, k, m)) == [c % m for c in exact]


def test_byte_lanes_at_their_boundary(monkeypatch):
    # 30 dense terms of m - 1 make slots of 5 digits at m = 52 and 53:
    # d (m - 1) is 255 at 52, which byte lanes hold, and 260 at 53, which
    # is read back in blocks
    blocks = []
    real = series._block_reader
    monkeypatch.setattr(series, "_block_reader",
                        lambda d: blocks.append(d) or real(d))
    for m, lanes in ((52, True), (53, False)):
        a = [m - 1] * 30
        assert 10**4 <= 30 * (m - 1) ** 2 < 10**5
        blocks.clear()
        assert (list(series._convolve(a, a, 30, m))
                == naive_product(a, a, 30, m))
        assert (list(series._convolve(a, list(a), 30, m))
                == naive_product(a, a, 30, m))
        assert (not blocks) == lanes


def test_suite_moduli_take_byte_lanes(monkeypatch):
    # a mod-3 product at 146469, as criterion 6 takes, never falls back
    # to the block read-back
    n = 146469
    rng = random.Random(n + 2)
    a = [rng.randrange(3) for _ in range(n)]
    b = [rng.randrange(3) for _ in range(n)]
    exact = series._convolve(a, b, n, None)

    def refuse(d):
        raise AssertionError(f"block read-back of {d}-digit slots")

    monkeypatch.setattr(series, "_block_reader", refuse)
    assert list(series._convolve(a, b, n, 3)) == [c % 3 for c in exact]


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
    # every product takes decimal, so importing it is a product's cost,
    # not a start-up cost
    code = ("import sys, qcong, qcong.cli, qcong.suite; "
            "print('decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def plain_divide(num, den, inv0, m):
    """num/den to len(den) terms, one coefficient at a time over the
    nonzero den[k]: the reference series._divide must agree with."""
    terms = [(k, c) for k, c in enumerate(den) if k and c]
    out = []
    for n in range(len(den)):
        s = num[n] if n < len(num) else 0
        for k, c in terms:
            if k > n:
                break
            s -= c * out[n - k]
        out.append(inv0 * s if m is None else inv0 * s % m)
    return out


# the rings a division runs over: Z, where the constant term is +-1, the
# search's residues mod lcm(2..16) and a modulus past a machine word,
# each divisor times a unit u with inverse inv0
DIVISION_RINGS = [pytest.param(None, -1, -1, id="Z"),
                  pytest.param(720720, 17, pow(17, -1, 720720), id="720720"),
                  pytest.param(2**64, 3, pow(3, -1, 2**64), id="2^64")]


@pytest.mark.parametrize("m, u, inv0", DIVISION_RINGS)
@pytest.mark.parametrize("base", ["phi", "f1"])
def test_divide_matches_the_plain_recurrence(base, m, u, inv0):
    # 1/phi(-q) and 1/f1 to 40000 terms mod 720720, 200 and 327 nonzero
    # terms, and to 20000 over Z and mod 2^64, the recurrence that every
    # division over Z and mod a wide modulus takes; then f8 divided by
    # each at search's 8000 terms (R*_8 is f8/phi(-q))
    order = 40000 if m == 720720 else 20000
    den = (general_theta(1, 1, order, -1) if base == "phi"
           else euler_product(1, order)) * u
    num = euler_product(8, 8000)
    if m is not None:
        den, num = den.reduce_mod(m), num.reduce_mod(m)
    assert series._divide((1,), den.coeffs, inv0, m) == plain_divide(
        (1,), den.coeffs, inv0, m)
    den = den.coeffs[:8000]
    assert (series._divide(num.coeffs, den, inv0, m)
            == plain_divide(num.coeffs, den, inv0, m))


@pytest.mark.parametrize("m, u, inv0",
                         DIVISION_RINGS + [pytest.param(4, 3, 3, id="4")])
def test_divide_matches_the_plain_recurrence_on_edge_shapes(m, u, inv0):
    # numerators longer and shorter than the divisor, and divisors whose
    # first nonzero term past the constant comes late, at the last index,
    # or never; random values repeat, so value groups hold several k
    rng = random.Random(20261020)
    top = 10**12 if m is None else m
    order = 400
    for late in (1, 2, 200, order - 1, order):
        den = [u] + [0] * (late - 1) + [
            rng.choice([0, 0, 1, top - 1, rng.randrange(top)])
            for _ in range(order - late)]
        for length in (0, 1, 7, order - 1, order, order + 40):
            num = [rng.randrange(-top, top) for _ in range(length)]
            if m is not None:
                num = [c % m for c in num]
            assert (series._divide(num, den, inv0, m)
                    == plain_divide(num, den, inv0, m)), (late, length)


def test_newton_matches_division_at_32768_mod_4(monkeypatch):
    # 1/f1 mod 4 (d = 1) and a dense series mod 8, whose recurrence is
    # quadratic, take Newton
    calls = spy_inverses(monkeypatch)
    f = euler_product(1, 32768).reduce_mod(4)
    newton = f.invert()
    assert list(newton.coeffs) == series._divide((1,), f.coeffs, 1, 4)
    rng = random.Random(20261017)
    g = Series([3] + [rng.randrange(8) for _ in range(2999)], 8)
    assert (list(g.invert().coeffs)
            == series._divide((1,), g.coeffs, 3, 8))
    assert calls == ["_newton_inverse", "_divide"] * 2


def test_inverse_times_series_is_one_at_147456_mod_3():
    f = euler_product(1, 147456).reduce_mod(3)
    assert f * f.invert() == Series.one(147456, 3)


def phi_neg_mod(order, h, m):
    return general_theta(h, h, order, -1).reduce_mod(m)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_lifted_inverse_of_phi_matches_newton_at_suite_orders(h):
    # phi(-q^h) = 1 + 2(...), so modulo 2 and 4 its inverse is the
    # closed-form lift, and modulo 8 and 16 Newton; the suite builds it at
    # these orders, and r6 at 146469.  An inverse mod m is unique, so it
    # is the inverse mod every divisor of m: one recurrence mod 16 is the
    # reference for each modulus
    for order in (8004, 10004, 16008, 32014):
        f = phi_neg_mod(order, h, 16)
        want = series._divide((1,), f.coeffs, 1, 16)
        for m in (2, 4, 8, 16):
            assert (list(series._quotient((1,), f.reduce_mod(m).coeffs, m))
                    == [c % m for c in want]), (order, m)
    # at 146469 one Newton inverse mod 16 is reduced to each lifted modulus
    f = phi_neg_mod(146469, h, 16)
    newton = series._newton_inverse(f.coeffs, 1, 16)
    for m in (2, 4):
        assert (list(series._quotient((1,), f.reduce_mod(m).coeffs, m))
                == [c % m for c in newton])


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_lifted_quotient_by_phi_matches_the_recurrence(m):
    rng = random.Random(20261018 + m)
    for h in (1, 2, 3):
        for order in (1, 2, 129, 3000):
            f = phi_neg_mod(order, h, m)
            assert (list(series._quotient((1,), f.coeffs, m))
                    == series._divide((1,), f.coeffs, 1, m))
            num = [rng.randrange(m) for _ in range(order)]
            assert (list(series._quotient(num, f.coeffs, m))
                    == series._divide(num, f.coeffs, 1, m))


def sparse_divisors(order, m, rng):
    """Unit divisors mod m to ``order`` terms, of 1 to 50 nonzero terms:
    an Euler product f_h at a large scale h, a theta block, and a random
    sparse series with a unit constant term."""
    terms = rng.randint(1, min(order, 50))
    # f_h and theta blocks of scale h have about 2 sqrt(order / h) terms
    h = max(1, 4 * order // (terms * terms))
    a, b, sign = rng.choice([(h, h, -1), (h, 3 * h, 1), (2 * h, 3 * h, -1)])
    cs = [0] * order
    cs[0] = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
    for k in rng.sample(range(1, order), terms - 1):
        cs[k] = rng.randrange(1, m)
    return [euler_product(h, order).reduce_mod(m).coeffs,
            general_theta(a, b, order, sign, modulus=m).coeffs,
            Series(cs, m).coeffs]


@pytest.mark.parametrize(
    "m", [3, 5, 6, 7, 8, 9, 12, 16, 32, 60, 210, 255, 256])
def test_newton_matches_the_recurrence_on_sparse_byte_divisors(
        m, monkeypatch):
    # mod m <= 256 every divisor the lift does not serve takes Newton,
    # however few its nonzero terms; the inverse and a quotient by a
    # dense numerator agree with the recurrence.  The lift serves m | d^2
    # for d = gcd(m, terms past the constant), as a divisor with no such
    # term, d = m
    calls = spy_inverses(monkeypatch)
    rng = random.Random(20261021 + m)
    for order in (1, 2, 50, 1001, 16008):
        divisors = sparse_divisors(order, m, rng)
        if order == 16008:      # one shape a modulus keeps this test short
            divisors = [divisors[m % 3]]
        num = [rng.randrange(m) for _ in range(order)]
        for den in divisors:
            lifted = math.gcd(m, *den[1:]) ** 2 % m == 0
            path = "_hensel_inverse" if lifted else "_newton_inverse"
            calls.clear()
            inverse = series._quotient((1,), den, m)
            quotient = series._quotient(num, den, m)
            assert calls == [path, path], (order, den[:8])
            inv0 = pow(den[0], -1, m)
            assert list(inverse) == series._divide((1,), den, inv0, m)
            assert list(quotient) == series._divide(num, den, inv0, m)


def test_phi_times_its_inverse_is_one_at_146469_mod_8():
    f = phi_neg_mod(146469, 1, 8)
    assert f * f.invert() == Series.one(146469, 8)


def spy_inverses(monkeypatch):
    calls = []
    for name in ("_newton_inverse", "_hensel_inverse", "_divide"):
        real = getattr(series, name)
        monkeypatch.setattr(series, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    return calls


def test_hensel_lift_serves_exactly_the_moduli_dividing_d_squared(
        monkeypatch):
    # for d = gcd(m, terms past the constant), the closed-form lift takes
    # every m | d^2 and no other: 1/phi(-q) at 8004 (d = 2) is lifted mod
    # 2 and 4, and phi(-q)^2 (d = 4) mod 16, as is 1 + 2^32 q^7 mod 2^64.
    # Past d^2, residues mod m <= 256 take Newton: phi(-q) mod 8 and 32,
    # phi(-q)^2 mod 32, and mod 3 and 1/f1 mod 4 (d = 1).  Mod 720720
    # and 2^64 (d = 2) the recurrence, as every other divisor mod a wider
    # m: phi(-q)^2 mod 2^64 at 2000 (d = 4) too, with 619 nonzero terms
    calls = spy_inverses(monkeypatch)
    phi, f1 = general_theta(1, 1, 8004, -1), euler_product(1, 8004)
    square = general_theta(1, 1, 2000, -1) ** 2
    assert 2000 - square.reduce_mod(2**64).coeffs.count(0) == 619
    word = Series.from_terms([(0, 1), (7, 2**32)], 2000)
    for base, m, path in ((phi, 2, "_hensel_inverse"),
                          (phi, 4, "_hensel_inverse"),
                          (square, 16, "_hensel_inverse"),
                          (word, 2**64, "_hensel_inverse"),
                          (phi, 8, "_newton_inverse"),
                          (phi, 32, "_newton_inverse"),
                          (square, 32, "_newton_inverse"),
                          (phi, 3, "_newton_inverse"),
                          (f1, 4, "_newton_inverse"),
                          (phi, 720720, "_divide"),
                          (phi, 2**64, "_divide"),
                          (square, 2**64, "_divide")):
        calls.clear()
        f = base.reduce_mod(m)
        assert f * f.invert() == Series.one(f.order, m)
        assert calls == [path], (m, path)


def test_wide_divisions_take_the_recurrence_at_any_length(monkeypatch):
    # mod 720720 the inverse of, and a quotient by, a random divisor of
    # 500 or 700 nonzero terms, which mod m <= 256 would take Newton, are
    # the recurrence, with no product
    calls = spy_inverses(monkeypatch)
    rng, m = random.Random(20261020), 720720
    for order in (500, 700):
        den = Series([1] + [rng.randrange(1, m) for _ in range(order - 1)], m)
        num = Series([rng.randrange(m) for _ in range(order)], m)
        assert den.coeffs.count(0) == 0
        calls.clear()
        den.invert()
        assert calls == ["_divide"], order
        calls.clear()
        assert (num / den) * den == num
        assert calls == ["_divide"], order


def test_a_prime_modulus_folds_only_where_products_are_saved(monkeypatch):
    # mod 3, rstar(6) = f2 f6/f1^2 = f2^4/f1^2 = psi(q)^2, and mod 2,
    # rstar(5) = f5 and rstar(15) = f15: no inverse.  Mod 2, rstar(4),
    # rstar(8) and rstar(20) would fold to f1^4, f1^8 and f5^4, more
    # products than f_ell times 2 - phi(-q), the lift they keep, as does
    # rstar(10) = f5^2 on a tie.  f729/f1 mod 3 keeps its Newton inverse
    # over f1^728; mod 4 and 8, which are not prime, nothing folds, and
    # phi(-q) is lifted mod 4 and inverted by Newton mod 8
    calls = spy_inverses(monkeypatch)
    for eq, m, path in [(EtaQuotient.rstar(ell), m, []) for ell, m in
                        ((6, 3), (5, 2), (15, 2))] + [
            (EtaQuotient.rstar(ell), m,
             ["_newton_inverse" if m == 8 else "_hensel_inverse"])
            for ell in (4, 5, 8, 10, 15, 20) for m in (2, 4, 8)
            if (ell, m) not in ((5, 2), (15, 2))] + [
            (EtaQuotient([(1, -1), (729, 1)]), 3, ["_newton_inverse"])]:
        calls.clear()
        eta_quotient(eq, 8004, m)
        assert calls == path, (eq, m)


def test_exact_square_at_8000_terms_matches_division():
    # partition numbers to 8000 terms: the coefficients reach 316 bits;
    # the exact eta quotients divide by f1 and take no product
    p = euler_product(1, 8000).invert()
    assert max(p.coeffs).bit_length() >= 300
    assert p * p == eta_quotient(EtaQuotient.parse("1:-2"), 8000)
    assert p * euler_product(16, 8000) == eta_quotient(
        EtaQuotient.parse("16:1,1:-1"), 8000)


def test_no_product_is_spent_on_one(monkeypatch):
    calls = []
    real = series._convolve

    def spy(a, b, n, m):
        calls.append(n)
        return real(a, b, n, m)

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
        eta_quotient(EtaQuotient(factors), 50)
        assert len(calls) == products
