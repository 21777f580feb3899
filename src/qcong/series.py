"""Truncated formal power series over exact integers.

A Series keeps the first ``order`` coefficients of a power series in q,
either over Z (arbitrary precision) or over Z/mZ when a modulus is
attached.  Every binary operation truncates to the shorter operand; no
operation ever invents coefficients past known data.

Storage: residues mod m <= 256 are one ``bytes`` object, a byte per
coefficient; coefficients over Z and residues mod a wider m are a
``tuple`` of ints.  The kernels take and return residues in that form,
and sparse series are built in it (``from_terms``), so a modular build
is bytes from its theta and Euler bases to the cache.

Every product is one Kronecker substitution with one exact multiply in
the standard library's `decimal` (libmpdec), at any slot width; a slot
is as wide as the sparser operand's nonzero terms need.  Quotients and
inverses take a closed-form lift with no product for a modular divisor
that is its constant term modulo d = gcd(m, terms past it), with
m | d^2 (phi(-q) mod 2 and 4); else Newton iteration over the kernel
mod m <= 256; else, over Z and mod a wider m, one constant-term
recurrence over the nonzero terms of the divisor.

Values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .report import compare_coefficients


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class ModulusMismatchError(SeriesError):
    """Operands live over different coefficient rings."""


class NotInvertibleError(SeriesError):
    """Constant term is not a unit, so no power-series inverse exists."""


def _check_modulus(m) -> int | None:
    if m is None:
        return None
    m = int(m)
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    return m


def _bytewise(m: int | None) -> bool:
    """Are residues mod m stored a byte each?"""
    return m is not None and m <= 256


def _store(coeffs: Iterable[int], m: int | None) -> Sequence[int]:
    """Canonical coefficients as a Series stores them: bytes mod m <= 256,
    else a tuple.  bytes() of bytes and tuple() of a tuple return the
    object itself, so coefficients already stored are not copied."""
    return bytes(coeffs) if _bytewise(m) else tuple(coeffs)


class Series:
    """Truncated power series with exact integer coefficients.

    coeffs[i] is the coefficient of q^i for 0 <= i < order.  When a
    modulus m is attached, coefficients are stored canonically reduced
    to 0..m-1: as bytes, one a coefficient, when m <= 256, and otherwise
    (and over Z) as a tuple of ints.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Iterable[int], modulus: int | None = None):
        m = _check_modulus(modulus)
        cs = map(int, coeffs)
        if m is not None:
            cs = map(m.__rmod__, cs)
        object.__setattr__(self, "coeffs", _store(cs, m))
        object.__setattr__(self, "modulus", m)

    @classmethod
    def _canonical(cls, coeffs: Iterable[int],
                   modulus: int | None) -> "Series":
        """Wrap coefficients that are already canonical (ints, reduced to
        0..m-1 when a modulus is given, which is itself already checked),
        skipping the per-coefficient pass of __init__; coefficients
        already in their storage (`_store`) are kept, not copied."""
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", _store(coeffs, modulus))
        object.__setattr__(s, "modulus", modulus)
        return s

    @classmethod
    def _reduced(cls, coeffs: Iterable[int], modulus: int | None) -> "Series":
        """Wrap ints, reducing them when a (checked) modulus is given."""
        if modulus is not None:
            coeffs = map(modulus.__rmod__, coeffs)
        return cls._canonical(coeffs, modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int, modulus: int | None = None) -> "Series":
        m = _check_modulus(modulus)
        return cls._canonical(_store(bytes(order), m), m)

    @classmethod
    def one(cls, order: int, modulus: int | None = None) -> "Series":
        if order < 1:
            raise ValueError("order must be >= 1 for the unit series")
        return cls([1] + [0] * (order - 1), modulus)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]], order: int,
                   modulus: int | None = None) -> "Series":
        """Build from sparse (exponent, coefficient) pairs, over Z or, when
        a modulus is given, over Z/mZ; exponents at or past ``order`` are
        dropped, duplicates accumulate.  Residues accumulate straight into
        their storage (a bytearray mod m <= 256, else a list), so a sparse
        series mod m costs no Python-level pass over its zero coefficients
        and equals the series over Z reduced mod m."""
        m = _check_modulus(modulus)
        cs = bytearray(order) if _bytewise(m) else [0] * order
        for e, c in terms:
            if e < 0:
                raise ValueError(f"negative exponent {e} (no Laurent series)")
            if e < order:
                c = cs[e] + int(c)
                cs[e] = c if m is None else c % m
        return cls._canonical(cs, m)

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        mod = f", mod {self.modulus}" if self.modulus is not None else ""
        return f"Series([{head}{tail}], order={self.order}{mod})"

    # -- ring operations ----------------------------------------------------

    def _common(self, other: "Series") -> tuple[int, int | None]:
        if self.modulus != other.modulus:
            raise ModulusMismatchError(
                f"incompatible moduli: {self.modulus} vs {other.modulus}")
        return min(self.order, other.order), self.modulus

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        return Series._reduced(
            map(operator.add, self.coeffs[:n], other.coeffs[:n]), m)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        return Series._reduced(
            map(operator.sub, self.coeffs[:n], other.coeffs[:n]), m)

    def __neg__(self):
        return Series._reduced(map(operator.neg, self.coeffs), self.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            return Series._reduced(map(other.__mul__, self.coeffs),
                                   self.modulus)
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        return Series._canonical(_convolve(self.coeffs, other.coeffs, n, m), m)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            return Series.one(self.order, self.modulus)
        # square-and-multiply, starting from the first factor rather than
        # from one, so no product is spent multiplying by one
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def invert(self) -> "Series":
        """Multiplicative inverse: 1 / self, the quotient of 1 (see the
        division notes below for the recurrence, Newton and Hensel paths).
        """
        return Series._canonical(_quotient((1,), self.coeffs, self.modulus),
                                 self.modulus)

    def __truediv__(self, other):
        """Quotient self / other, truncated to the shorter operand: the
        constant-term recurrence over the nonzero terms of ``other``, or
        for a lifted or Newton modular inverse, that inverse times self.
        """
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        return Series._canonical(
            _quotient(self.coeffs, other.coeffs[:n], m), m)

    # -- structural operations ----------------------------------------------

    def reduce_mod(self, m: int) -> "Series":
        m = _check_modulus(m)
        if self.modulus is not None and self.modulus % m != 0:
            raise ModulusMismatchError(
                f"cannot reduce mod {m}: coefficients only known mod {self.modulus}")
        return Series._reduced(self.coeffs, m)

    def shift(self, k: int) -> "Series":
        """Multiply by q^k, keeping the same order."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if k >= self.order:
            return Series.zero(self.order, self.modulus)
        return Series._canonical(
            _store(bytes(k), self.modulus) + self.coeffs[: self.order - k],
            self.modulus)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series: have order {self.order}, asked {order}")
        return Series._canonical(self.coeffs[:order], self.modulus)


# ok, then the first disagreeing exponent and its residues on the left
# and on the right (all three None when ok)
CongruenceCheck = namedtuple("CongruenceCheck", "ok index left right")


def congruent_mod(a: Series, b: Series, m: int, upto: int) -> CongruenceCheck:
    """Do a and b agree coefficientwise mod m on exponents 0..upto-1?

    Raises on insufficient order: a verification is never silently
    truncated.
    """
    m = _check_modulus(m)
    for s in (a, b):
        if s.modulus is not None and s.modulus % m != 0:
            raise ModulusMismatchError(
                f"coefficients known only mod {s.modulus}, cannot compare mod {m}")
    bad, _ = compare_coefficients(a.coeffs, b.coeffs, upto, m)
    if bad:
        return CongruenceCheck(False, *bad[0])
    return CongruenceCheck(True, None, None, None)


# -- multiplication kernel ----------------------------------------------------
#
# Exact truncated Cauchy product by Kronecker substitution: coefficients
# become fixed-width decimal slots of one huge number, wide enough that
# no slot of the product carries into the next, the two numbers are
# multiplied once, and the low n slots are read back.  Signed (exact)
# operands are packed as pos - neg; the product then gets X/2 added to
# each of its low n slots, so every slot holds c + X/2 in [0, X) and
# unpacks as an unsigned digit string.
#
# `decimal` (libmpdec, a number-theoretic transform) does the multiply,
# not CPython ints (Karatsuba): the 171 products of `qcong verify-all`
# take 0.64 s on decimal against 1.85 s on ints.  Values of 256 and more
# are written by %d and read back by int(), or through Decimal past the
# interpreter's limit on digit strings (sys.get_int_max_str_digits).
#
# Byte columns.  Values below 256 (residues mod m <= 256, and the pos
# and neg parts of theta and Euler series) are packed a digit column at
# a time, one bytes.translate to ASCII digits written into every d-th
# byte.  A product over Z/mZ whose d-digit slots have d (m - 1) < 256,
# as for every modulus the suite and the benchmark take, is read back
# the same way: column j of the low n slots, raw[j::d], translated to
# digit * 10^(d-1-j) mod m is one byte a slot; the d columns summed by
# int.from_bytes carry nothing between slots, and one 256-entry table
# reduces each byte mod m, with no int() or % a slot.  The dense mod-3
# product at the 146469 slots of criterion 6 went from 123-178 ms (%d
# pack, int() read-back) to 86-111 ms, three quarters of it the multiply.
# Residues mod m <= 256 are stored as bytes (`_store`), so operands are
# packed and products returned as they are stored, with no copy: a
# build of R*_6 mod 3 at 146469 holds 0.16 MB and peaks at 2.4 MB
# (tracemalloc), where tuples of residues held 1.18 MB and peaked at 3.6.
#
# Other products read the low n slots back a block of _BLOCK = 1024 at
# a time from the end of the digit string, one cached struct format of
# 1024 fields per slot width; the front n % 1024 slots take a format of
# their own that is not cached (85 cached ones held 565 KiB).  One
# format of all n fields held 11.9 MB of a 146469-slot product's 12.7 MB
# traced peak; by blocks it peaks at 3.9 MB, at the same speed, and 1024
# keeps a block's bytes near 40 KB.  (2-vCPU Xeon VM, CPython 3.11.)


@functools.cache
def _decimal():
    """The decimal module, imported on first use, and the one context
    every Decimal op uses: maximum precision, and any result that would
    be rounded or overflow raises, so a product is exact or not returned.
    Decimal's operators use the thread's 28-digit default context, so
    only this context's methods are called on Decimals."""
    import decimal
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
               decimal.InvalidOperation, decimal.DivisionByZero])
    return decimal, ctx


_BLOCK = 1024    # slots per read-back block; see the kernel comment


@functools.cache
def _block_reader(d: int):
    """unpack_from for _BLOCK slots of d digits each."""
    return struct.Struct(f"{d}s" * _BLOCK).unpack_from


@functools.cache
def _digit_column(p: int) -> bytes:
    """translate table from a byte v to the ASCII digit of v at 10**p."""
    return bytes(48 + v // 10 ** p % 10 for v in range(256))


@functools.cache
def _column_residues(p: int, m: int) -> bytes:
    """translate table from an ASCII digit k at 10**p to k 10**p mod m."""
    return bytes(48) + bytes(k * 10 ** p % m for k in range(10)) + bytes(198)


@functools.cache
def _lane_residues(m: int) -> bytes:
    """translate table from a byte v to v mod m."""
    return bytes(v % m for v in range(256))


def _byte_digits(cs, d: int, top: int) -> str:
    """Slots of d digits holding cs, each 0 <= c <= top < 256, the last
    first: each digit column that top reaches is one translate of the
    values, written into every d-th byte."""
    values = bytes(cs)[::-1]
    digits = bytearray(b"0") * (d * len(values))
    for p in range(len(str(top))):
        digits[d - 1 - p::d] = values.translate(_digit_column(p))
    return digits.decode("ascii")


def _product(a, b, n: int, bound: int, top: int, m: int | None):
    """Low n slots of the product of a and b, through one exact libmpdec
    multiply: slots of d digits, 10**d > bound, hold coefficients of
    magnitude at most top.  Over Z (m None) they may be negative; over
    Z/mZ they are canonical and the slots come back reduced mod m."""
    decimal, ctx = _decimal()
    d = ctx.create_decimal(bound).adjusted() + 1
    # 0, or no such function before CPython 3.11, is no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or d
    if top < 256:
        def digits(cs):
            return _byte_digits(cs, d, top)
    else:
        if d <= limit:
            encode = f"%0{d}d".__mod__
        else:   # %d refuses slots this wide; Decimal converts them
            spec = f"0{d}"

            def encode(v):
                return format(ctx.create_decimal(v), spec)

        def digits(cs):
            return "".join(map(encode, reversed(cs)))

    def pack(cs):   # signed coefficients as pos - neg
        if m is not None:
            return ctx.create_decimal(digits(cs))
        return ctx.subtract(
            ctx.create_decimal(digits([c if c > 0 else 0 for c in cs])),
            ctx.create_decimal(digits([-c if c < 0 else 0 for c in cs])))

    # the same operand object twice lets libmpdec square, with fewer
    # transforms and less memory
    x = pack(a)
    prod = ctx.multiply(x, x if b is a else pack(b))
    del x
    half = 5 * 10 ** (d - 1) if m is None else 0
    if half:
        prod = ctx.add(prod, ctx.create_decimal(("5" + "0" * (d - 1)) * n))
    # only the low n slots are formatted: prod - floor(prod / X^n) X^n
    high = ctx.scaleb(prod, -d * n).to_integral_value(
        rounding=decimal.ROUND_FLOOR, context=ctx)
    low = ctx.subtract(prod, ctx.scaleb(high, d * n))
    del prod, high
    raw = str(low).encode("ascii").rjust(d * n, b"0")
    del low
    if m is not None and d * (m - 1) < 256:
        # column j of every slot is its digit at 10**(d-1-j); the residues
        # of the d columns sum to at most d (m - 1) < 256 a slot, so as
        # integers of one byte a slot they add without a carry.  Slot i is
        # byte n-1-i of the big-endian sum: little-endian bytes put slot 0
        # first
        lanes = sum(int.from_bytes(
            raw[j::d].translate(_column_residues(d - 1 - j, m)), "big")
            for j in range(d))
        return lanes.to_bytes(n, "little").translate(_lane_residues(m))
    if d <= limit:
        parse = int
    else:   # int() refuses slots this wide; Decimal converts them
        def parse(field):
            return int(ctx.create_decimal(field.decode()))
    # slot i is field n-1-i: whole blocks from the end, each reversed,
    # then the front n % _BLOCK fields with a format of their own, made
    # by struct.Struct, which unlike struct.unpack_from caches no format
    front, size = n % _BLOCK * d, _BLOCK * d
    blocks = map(_block_reader(d), itertools.repeat(raw),
                 range(len(raw) - size, front - 1, -size))
    fields = itertools.chain(
        itertools.chain.from_iterable(map(reversed, blocks)),
        reversed(struct.Struct(f"{d}s" * (n % _BLOCK)).unpack_from(raw)))
    values = map(parse, fields)
    if m is None:
        return map((-half).__add__, values)
    return map(m.__rmod__, values)


def _top_residue(values: bytes, m: int) -> int:
    """Largest residue mod m in values, by C-level membership tests from
    m - 1 down: for dense residues one test, where max() compares every
    byte."""
    return next((v for v in range(m - 1, 0, -1) if v in values), 0)


def _convolve(a: Sequence[int], b: Sequence[int], n: int,
              modulus: int | None) -> Sequence[int]:
    """First n coefficients of the product of a and b, stored as a Series
    stores them (`_store`).

    Operands may have any lengths; terms past n are ignored.  Over Z/mZ
    the operands must be canonical residues, as bytes mod m <= 256 to be
    scanned and packed without a copy.
    """
    # a square keeps one operand object, which _product squares; only an
    # operand longer than n is cut, since slicing copies it
    square = b is a
    if len(a) > n:
        a = a[:n]
    b = a if square else (b[:n] if len(b) > n else b)
    if _bytewise(modulus):
        amax, bmax = _top_residue(a, modulus), _top_residue(b, modulus)
    else:   # canonical residues are >= 0, so |c| bounds them as well
        amax = max(map(abs, a), default=0)
        bmax = max(map(abs, b), default=0)
    if amax == 0 or bmax == 0:
        return _store(bytes(n), modulus)
    # largest slot magnitude, doubled when the slot is biased by X/2: a
    # slot sums at most one product per nonzero term of either operand
    bound = (min(len(a) - a.count(0), len(b) - b.count(0))
             * amax * bmax)
    if modulus is None:
        bound *= 2
    return _store(_product(a, b, n, bound, max(amax, bmax), modulus), modulus)


# -- division -------------------------------------------------------------------
#
# A division takes one of three paths (2-vCPU Xeon VM, CPython 3.11).
#
# A modular divisor that is its constant term modulo d = gcd(m, terms
# past it), with m | d^2, has a closed-form inverse that takes no
# product (`_hensel_inverse`; phi(-q) mod 2 and 4): 1/phi(-q) at order
# 200000 takes 0.016 s mod 4 against Newton's 0.70 s, and the suite's
# six such inverses 3.5 ms against Newton's 48 ms.  One lift step more,
# to m | d^4, costs two products and saved only 10-20% of Newton's time
# (1/phi(-q) mod 8 at 16008, 9.9 against 12.5 ms), so it is not taken.
#
# Every other divisor mod m <= 256, where residues are bytes, takes
# Newton iteration over the kernel, whose products cost about the same
# per coefficient at every order and for any number of nonzero terms:
# 1/f1 mod 3 at order 200000 (730 terms) takes 0.21-0.39 s against
# 2.3-3.2 s by the recurrence.  Sparse divisors pay for the one rule:
# with 3 to 50 nonzero terms, Newton and its product take 0.7-2.1 times
# the recurrence's time mod m <= 16 at orders 1000 to 200000 and up to
# 4.3 times at order 100, and up to 5.7 times (11 at order 100) mod 255
# and 256, whose random residues fill the slots.  The workloads divide
# so only by phi(-q) mod 8 at 16008 and mod 12 at 1001, which cost a
# suite run 2-5 and 0.5-1.2 ms over the recurrence or a lift with two
# products, inside its run-to-run spread.  Newton starts from the
# constant term's inverse, as its first steps cost what the recurrence
# does there.
#
# Over Z and mod a wider m, whose slots are wider, it is the constant-
# term recurrence, about order * nonzero-terms / 2 additions: it sums
# F[n-k] over the k sharing one coefficient value, so the +-1 and +-2 of
# Euler products and theta series cost one addition a term.  Each value
# group's sum is one sum() of the tuple its itemgetter allocates, which
# adds residues in a C long while the sum stays below 2^63: 1/phi(-q)
# mod 720720 at 8000 terms takes 13-15 ms, and took 26 ms with a loop of
# += (26 against 32 ms over Z).  No workload divides there by more than
# 448 nonzero terms (phi(-q) at search's 200000 order guard), and below
# that guard Newton would gain at most about 2x: medians of three
# alternating runs, the recurrence over Newton, are 1.3 on 1/phi(-q)
# mod 720720 at 200000 (448 terms), 1.3 on f8/f1 and 2.2 on 1/f1 mod
# 720720 at 200000 (730 terms), 1.8 on 1/f1 mod 2^64 at 200000, and 0.7
# on 1/f1 mod 720720 at 50000 (365 terms), which Newton lost.


def _quotient(num: Sequence[int], den: Sequence[int],
              m: int | None) -> Sequence[int]:
    """First len(den) coefficients of num/den: the closed-form lift where
    m | d^2, else Newton mod m <= 256, else the recurrence (see the notes
    above).  A numerator of (1,) is an inverse, which the lift and Newton
    return without a further product; any other takes one product with
    that inverse."""
    if not den:
        raise NotInvertibleError("cannot invert an order-0 series")
    a0 = den[0]
    if m is None:
        if a0 not in (1, -1):
            raise NotInvertibleError(
                f"constant term {a0} is not a unit over Z")
        return _divide(num, den, a0, m)
    try:
        inv0 = pow(a0, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"constant term {a0} is not a unit mod {m}") from None
    if math.gcd(m, *set(den[1:])) ** 2 % m == 0:
        g = _hensel_inverse(den, inv0, m)
    elif _bytewise(m):
        g = _newton_inverse(den, inv0, m)
    else:
        return _divide(num, den, inv0, m)
    return g if num == (1,) else _convolve(num, g, len(den), m)


def _divide(num: Sequence[int], den: Sequence[int], inv0: int,
            m: int | None) -> list[int]:
    """First len(den) coefficients of num/den by the constant-term
    recurrence F[n] = inv0 (num[n] - sum_k den[k] F[n-k]), over the
    nonzero den[k] with 1 <= k <= n; inv0 is the inverse of den[0].

    F grows by append behind one leading 0, so F[n-k] is F[-k] while
    F[n] is made.  Each value v of den keeps one itemgetter of -k for its
    k <= n and of index 0, the leading 0, so that it returns a tuple even
    for one k.  So each group allocates one tuple of its F[n-k] a
    coefficient, which sum() then adds in C, residues in a C long while
    the sum stays below 2^63.  The getters change only at the k with
    den[k] != 0, so the n between two such k share one tuple of them."""
    N = len(den)
    nums = itertools.chain(itertools.islice(num, N), itertools.repeat(0))
    indices: dict[int, list[int]] = {}
    getters = {}
    F = [0]
    n = 0
    for k in itertools.chain(filter(den.__getitem__, range(1, N)), (N,)):
        groups = tuple(getters.items())
        for s in itertools.islice(nums, k - n):
            for v, get in groups:
                s -= v * sum(get(F))
            F.append(inv0 * s if m is None else inv0 * s % m)
        if k < N:   # den[k] joins its value's getter from F[k] on
            ks = indices.setdefault(den[k], [0])
            ks.append(-k)
            getters[den[k]] = operator.itemgetter(*ks)
        n = k
    del F[0]
    return F


def _hensel_inverse(coeffs: Sequence[int], inv0: int,
                    m: int) -> Sequence[int]:
    """1/f mod m to len(coeffs) terms, where m | d^2 for d = gcd(m,
    coeffs[1:]): f inv0 = 1 + d e, so g = inv0 (2 - inv0 f) has f g =
    1 - (d e)^2 = 1 mod m, a closed form with no product."""
    t = -inv0 * inv0 % m
    # inv0 (2 - inv0 f[0]) = inv0 (mod m)
    return _store(
        itertools.chain((inv0,), (t * c % m for c in coeffs[1:])), m)


def _newton_inverse(coeffs: Sequence[int], inv0: int,
                    m: int) -> Sequence[int]:
    """1/f mod m to len(coeffs) terms by Newton iteration from g = inv0:
    if f g = 1 + q^k e, then g - q^k (g e) is right to q^{2k}, and only
    the first k' - k terms of e and of g e are needed to reach k'."""
    orders = []
    n = len(coeffs)
    while n > 1:
        orders.append(n)
        n = (n + 1) // 2
    g, k = _store((inv0,), m), 1
    for k2 in reversed(orders):
        e = _convolve(coeffs, g, k2, m)[k:]
        g += _store(((-c) % m for c in _convolve(g, e, k2 - k, m)), m)
        k = k2
    return g


# -- eta quotients -------------------------------------------------------------


class EtaQuotient(namedtuple("EtaQuotient", "factors")):
    """A finite product of Euler factors: prod over (h, e) of f_h^e.

    Factors are normalized: scales ascending, duplicate scales merged,
    zero exponents dropped.  Always expandable since each f_h has
    constant term 1.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[tuple[int, int]]):
        merged: dict[int, int] = {}
        for h, e in factors:
            h, e = int(h), int(e)
            if h < 1:
                raise ValueError(f"scale must be positive, got {h}")
            merged[h] = merged.get(h, 0) + e
        return super().__new__(
            cls, tuple(sorted((h, e) for h, e in merged.items() if e != 0)))

    @classmethod
    def rstar(cls, ell: int) -> "EtaQuotient":
        """Generating function of overpartitions with ell-regular
        non-overlined parts: f2 * f_ell / f1^2."""
        if ell < 1:
            raise ValueError(f"ell must be positive, got {ell}")
        return cls([(2, 1), (ell, 1), (1, -2)])

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse "2:1,5:1,1:-2" style factor lists; "" and "1" are the
        empty product, and any other spec needs an h:e factor."""
        if text.strip() in ("", "1"):
            return cls([])
        pairs = []
        for item in filter(None, map(str.strip, text.split(","))):
            h, _, e = item.partition(":")
            try:
                pairs.append((int(h), int(e)))
            except ValueError:
                raise ValueError(
                    f"factor {item!r} is not of the form h:e") from None
        if not pairs:
            raise ValueError(f"{text!r} has no h:e factor")
        return cls(pairs)

    def __str__(self) -> str:
        return ",".join(f"{h}:{e}" for h, e in self.factors) or "1"
