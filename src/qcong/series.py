"""Truncated formal power series over exact integers.

A Series keeps the first ``order`` coefficients of a power series in q,
either over Z (arbitrary precision) or over Z/mZ when a modulus is
attached.  Every binary operation truncates to the shorter operand; no
operation ever invents coefficients past known data.

Products go through one Kronecker-substitution kernel with two exact
backends: CPython big ints for small operands, and the standard
library's `decimal` (libmpdec, whose multiply is a number-theoretic
transform) once the packed operand passes about 150000 bits.  Quotients
and inverses (a quotient with numerator 1) use one constant-term
recurrence over the nonzero terms of the divisor, over Z and for sparse
modular divisors, and Newton iteration over the kernel for modular
divisors with more nonzero terms.

Values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .report import compare_coefficients


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class ModulusMismatchError(SeriesError):
    """Operands live over different coefficient rings."""


class NotInvertibleError(SeriesError):
    """Constant term is not a unit, so no power-series inverse exists."""


def _check_modulus(m) -> Optional[int]:
    if m is None:
        return None
    m = int(m)
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    return m


class Series:
    """Truncated power series with exact integer coefficients.

    coeffs[i] is the coefficient of q^i for 0 <= i < order.  When a
    modulus m is attached, coefficients are stored canonically reduced
    to 0..m-1.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Iterable[int], modulus: Optional[int] = None):
        m = _check_modulus(modulus)
        if m is not None:
            cs = tuple(int(c) % m for c in coeffs)
        else:
            cs = tuple(int(c) for c in coeffs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "modulus", m)

    @classmethod
    def _canonical(cls, coeffs: Iterable[int],
                   modulus: Optional[int]) -> "Series":
        """Wrap coefficients that are already canonical (ints, reduced to
        0..m-1 when a modulus is given, which is itself already checked),
        skipping the per-coefficient pass of __init__."""
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", tuple(coeffs))
        object.__setattr__(s, "modulus", modulus)
        return s

    @classmethod
    def _reduced(cls, coeffs: Iterable[int], modulus: Optional[int]) -> "Series":
        """Wrap ints, reducing them when a (checked) modulus is given."""
        if modulus is not None:
            coeffs = [c % modulus for c in coeffs]
        return cls._canonical(coeffs, modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int, modulus: Optional[int] = None) -> "Series":
        return cls._canonical((0,) * order, _check_modulus(modulus))

    @classmethod
    def one(cls, order: int, modulus: Optional[int] = None) -> "Series":
        if order < 1:
            raise ValueError("order must be >= 1 for the unit series")
        return cls([1] + [0] * (order - 1), modulus)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]], order: int,
                   modulus: Optional[int] = None) -> "Series":
        """Build from sparse (exponent, coefficient) pairs; exponents
        at or past ``order`` are dropped, duplicates accumulate."""
        cs = [0] * order
        for e, c in terms:
            if e < 0:
                raise ValueError(f"negative exponent {e} (no Laurent series)")
            if e < order:
                cs[e] += int(c)
        return cls._reduced(cs, _check_modulus(modulus))

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

    def _common(self, other: "Series") -> tuple[int, Optional[int]]:
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
        """Multiplicative inverse: 1 / self.

        Over Z, and over Z/mZ while the recurrence is cheap, this is the
        constant-term recurrence of ``/`` with numerator 1.  Longer
        modular series use Newton iteration g <- g (2 - f g), which
        doubles the number of correct terms with two products each step,
        O(M(order)).
        """
        return Series._canonical(_quotient((1,), self.coeffs, self.modulus),
                                 self.modulus)

    def __truediv__(self, other):
        """Quotient self / other, truncated to the shorter operand.

        The constant-term recurrence F = (self - sum_k other[k] q^k F) /
        other[0] runs over the nonzero terms of ``other`` only, so a
        sparse divisor costs O(order * nonzero-terms) and no product.
        Longer modular divisors take a Newton inverse and one product.
        """
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        return Series._canonical(
            _quotient(self.coeffs, other.coeffs[:n], m), m)

    # -- structural operations ----------------------------------------------

    def reduce_mod(self, m: int) -> "Series":
        if m == 0:
            raise ValueError("modulus 0 is not allowed")
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
        return Series._canonical((0,) * k + self.coeffs[: self.order - k],
                                 self.modulus)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series: have order {self.order}, asked {order}")
        return Series._canonical(self.coeffs[:order], self.modulus)


class CongruenceCheck(NamedTuple):
    ok: bool
    index: Optional[int]  # first disagreeing exponent, if any
    left: Optional[int]   # its residue on the left
    right: Optional[int]  # its residue on the right


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
# become fixed-width slots of one huge number, wide enough that no slot
# of the product carries into the next, the two numbers are multiplied
# once, and the low n slots are read back.  Signed (exact) operands are
# packed as pos - neg; the product then gets X/2 added to each of its low
# n slots, so every slot holds c + X/2 in [0, X) and unpacks as an
# unsigned digit string.
#
# Two backends do the one big multiply.  CPython ints (Karatsuba) win on
# small operands; `decimal` (libmpdec, which multiplies with a
# number-theoretic transform) wins once the packed operand is large.  The
# switch is on the packed size in bits, as measured on a 2-vCPU Xeon VM
# with CPython 3.11: modular products with small moduli cross over
# between 8192 and 16384 terms (131000 to 330000 bits), exact ones with
# 60-bit coefficients near 2000 terms.  In `qcong verify-all` every exact
# product (95 of them, at most 1000 terms) stays on ints, and decimal
# serves 21 modular products, where at 147456 terms mod 3 a product takes
# 0.12 s against 0.85 s.  Exact products reach decimal from `expand` and
# `verify-lemma --order` at large orders: `expand --eta 1:2,2:1 --order
# 60000` makes two signed decimal products.

# packed operands of at least this many bits go through decimal
_DECIMAL_MIN_BITS = 150_000
# wider slots stay on ints: int() refuses strings of more than 4300
# digits by default (CPython 3.11+), and 13000 bits is 3914 digits
_DECIMAL_MAX_SLOT_BITS = 13_000


def _packer(empty, encode, top: int, count: int, to_number, subtract=None):
    """Function packing up to count coefficients of magnitude at most top
    into one number, slot i holding coefficient i.  Given ``subtract``,
    negative coefficients are allowed: the number is pack(pos) - pack(neg).
    """
    if top < count:   # a table of every slot costs less than one operand
        encode = [encode(v) for v in range(top + 1)].__getitem__

    def pack(cs):
        return to_number(empty.join(map(encode, reversed(cs))))

    if subtract is None:
        return pack
    return lambda cs: subtract(pack([c if c > 0 else 0 for c in cs]),
                               pack([-c if c < 0 else 0 for c in cs]))


def _unpack(raw: bytes, width: int, count: int, parse, half: int):
    """The count fixed-width slots of raw (most significant first) as
    ints, least significant first, each less the bias half."""
    fields = struct.Struct(f"{width}s" * count).unpack(raw)
    values = map(parse, reversed(fields))
    return map((-half).__add__, values) if half else values


def _int_product(a, b, n: int, bound: int, top: int, signed: bool):
    """Low n slots of the product, through a CPython big-int multiply."""
    w = (bound.bit_length() + 7) // 8      # bytes a slot: 256**w > bound
    pack = _packer(b"", functools.partial(int.to_bytes, length=w,
                                          byteorder="big"),
                   top, n, functools.partial(int.from_bytes, byteorder="big"),
                   operator.sub if signed else None)
    x = pack(a)
    prod = x * (x if b is a else pack(b))
    del x
    half = 1 << (8 * w - 1) if signed else 0
    if half:
        prod += int.from_bytes(half.to_bytes(w, "big") * n, "big")
    prod &= (1 << (8 * w * n)) - 1
    return _unpack(prod.to_bytes(w * n, "big"), w, n,
                   functools.partial(int.from_bytes, byteorder="big"), half)


@functools.cache
def _decimal():
    """The decimal module and the one context every Decimal op uses.

    Imported on first use.  Precision is the maximum, and any result
    that would be rounded or overflow raises, so a product is exact or
    is not returned at all.  Decimal's operators use the thread's
    default context (28 digits), so only this context's methods are
    called on Decimals.
    """
    import decimal
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
               decimal.InvalidOperation, decimal.DivisionByZero])
    return decimal, ctx


def _decimal_product(a, b, n: int, bound: int, top: int, signed: bool):
    """Low n slots of the product, through one exact libmpdec multiply."""
    decimal, ctx = _decimal()
    d = len(str(bound))                    # digits a slot: 10**d > bound
    fmt = f"%0{d}d".__mod__
    pack = _packer("", fmt, top, n, ctx.create_decimal,
                   ctx.subtract if signed else None)
    # the same operand object twice lets libmpdec square, with fewer
    # transforms and less memory
    x = pack(a)
    prod = ctx.multiply(x, x if b is a else pack(b))
    del x
    half = 5 * 10 ** (d - 1) if signed else 0
    if half:
        prod = ctx.add(prod, ctx.create_decimal(fmt(half) * n))
    # only the low n slots are formatted: prod - floor(prod / X^n) X^n
    high = ctx.scaleb(prod, -d * n).to_integral_value(
        rounding=decimal.ROUND_FLOOR, context=ctx)
    low = ctx.subtract(prod, ctx.scaleb(high, d * n))
    del prod, high
    raw = str(low).encode("ascii")
    del low
    return _unpack(b"0" * (d * n - len(raw)) + raw, d, n, int, half)


def _convolve(a: Sequence[int], b: Sequence[int], n: int,
              modulus: Optional[int], backend=None) -> list[int]:
    """First n coefficients of the product of a and b.

    Operands may have any lengths; terms past n are ignored.  Over Z/mZ
    the operands must be canonical residues.  ``backend`` forces
    _int_product or _decimal_product; by default the packed size picks.
    """
    # a square keeps one operand object, which the backends square
    square = b is a
    a = a[:n]
    b = a if square else b[:n]
    if modulus is None:
        amax = max(map(abs, a), default=0)
        bmax = max(map(abs, b), default=0)
    else:
        amax = max(a, default=0)
        bmax = max(b, default=0)
    if amax == 0 or bmax == 0:
        return [0] * n
    # largest slot magnitude, doubled when the slot is biased by X/2
    bound = min(len(a), len(b)) * amax * bmax
    if modulus is None:
        bound *= 2
    if backend is None:
        bits = bound.bit_length()
        backend = (_decimal_product
                   if bits * max(len(a), len(b)) >= _DECIMAL_MIN_BITS
                   and bits <= _DECIMAL_MAX_SLOT_BITS
                   else _int_product)
    values = backend(a, b, n, bound, max(amax, bmax), modulus is None)
    if modulus is not None:
        values = map(modulus.__rmod__, values)
    return list(values)


# -- division -------------------------------------------------------------------
#
# The recurrence costs about order * nonzero-terms / 2 additions: it sums
# F[n-k] over the k sharing one coefficient value, so the +-1 and +-2 of
# Euler products and theta series cost one addition a term.  Newton's
# products cost about the same per coefficient from order 2048 to 131072,
# so the crossover is a count of nonzero terms.  Recurrence time over
# Newton's, on phi(-q^h) mod 3 at orders 32768 and 131072 (2-vCPU Xeon VM,
# CPython 3.11): for an inverse 0.72-0.79 at 41 terms, 1.03-1.06 at 61;
# for a quotient, against a Newton inverse and one product, 0.93-0.94 at
# 91 terms, 1.40-1.44 at 128.  f1 mod 3 and mod 4 are even at 45 terms
# (order 768) for an inverse and at 74 (order 2048) for a quotient.

_NEWTON_MIN_TERMS = 50
_NEWTON_MIN_DIVISION_TERMS = 96
# Newton's first approximation comes from the recurrence at this order
_NEWTON_BASE_ORDER = 128


def _newton_pays(coeffs: Sequence[int], min_terms: int) -> bool:
    n = len(coeffs)
    return n > _NEWTON_BASE_ORDER and n - coeffs.count(0) > min_terms


def _quotient(num: Sequence[int], den: Sequence[int],
              m: Optional[int]) -> list[int]:
    """First len(den) coefficients of num/den.  A numerator of (1,) is
    an inverse, which Newton returns without a product."""
    if not den:
        raise NotInvertibleError("cannot invert an order-0 series")
    inv0 = a0 = den[0]
    if m is None:
        if a0 not in (1, -1):
            raise NotInvertibleError(
                f"constant term {a0} is not a unit over Z")
    else:
        try:
            inv0 = pow(a0, -1, m)
        except ValueError:
            raise NotInvertibleError(
                f"constant term {a0} is not a unit mod {m}") from None
    inverse = num == (1,)
    if m is None or not _newton_pays(den, _NEWTON_MIN_TERMS if inverse
                                     else _NEWTON_MIN_DIVISION_TERMS):
        return _divide(num, den, inv0, m)
    g = _newton_inverse(den, inv0, m)
    return g if inverse else _convolve(num, g, len(den), m)


def _divide(num: Sequence[int], den: Sequence[int], inv0: int,
            m: Optional[int]) -> list[int]:
    """First len(den) coefficients of num/den by the constant-term
    recurrence F[n] = inv0 (num[n] - sum_k den[k] F[n-k]), over the
    nonzero den[k] with 1 <= k <= n; inv0 is the inverse of den[0]."""
    N = len(den)
    by_value: dict[int, list[int]] = {}
    for k in range(1, N):
        if den[k]:
            by_value.setdefault(den[k], []).append(k)
    groups = list(by_value.items())
    F = list(num[:N])
    F += [0] * (N - len(F))
    for n in range(N):
        s = F[n]
        for v, ks in groups:
            t = 0
            for k in ks:
                if k > n:
                    break
                t += F[n - k]
            s -= v * t
        F[n] = inv0 * s if m is None else inv0 * s % m
    return F


def _newton_inverse(coeffs: Sequence[int], inv0: int, m: int) -> list[int]:
    """1/f mod m to len(coeffs) terms by Newton iteration.

    If f g = 1 + q^k e, then g' = g - q^k (g e) has f g' = 1 - q^{2k} e^2,
    so each step doubles the number of correct terms; only e's first
    k' - k terms and (g e)'s first k' - k terms are needed to reach k'.
    """
    orders = [len(coeffs)]
    while orders[-1] > _NEWTON_BASE_ORDER:
        orders.append((orders[-1] + 1) // 2)
    k = orders.pop()
    g = _divide((1,), coeffs[:k], inv0, m)
    for k2 in reversed(orders):
        e = _convolve(coeffs, g, k2, m)[k:]
        ge = _convolve(g, e, k2 - k, m)
        g += [(-c) % m for c in ge]
        k = k2
    return g


# -- eta quotients -------------------------------------------------------------


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product of Euler factors: prod over (h, e) of f_h^e.

    Factors are normalized: scales ascending, duplicate scales merged,
    zero exponents dropped.  Always expandable since each f_h has
    constant term 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: Iterable[tuple[int, int]]):
        merged: dict[int, int] = {}
        for h, e in factors:
            h, e = int(h), int(e)
            if h < 1:
                raise ValueError(f"scale must be positive, got {h}")
            merged[h] = merged.get(h, 0) + e
        norm = tuple(sorted((h, e) for h, e in merged.items() if e != 0))
        object.__setattr__(self, "factors", norm)

    @classmethod
    def rstar(cls, ell: int) -> "EtaQuotient":
        """Generating function of overpartitions with ell-regular
        non-overlined parts: f2 * f_ell / f1^2."""
        if ell < 1:
            raise ValueError(f"ell must be positive, got {ell}")
        return cls([(2, 1), (ell, 1), (1, -2)])

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse "2:1,5:1,1:-2" style factor lists."""
        if text.strip() in ("", "1"):
            return cls([])
        pairs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            h, _, e = item.partition(":")
            pairs.append((int(h), int(e)))
        return cls(pairs)

    def __str__(self) -> str:
        return ",".join(f"{h}:{e}" for h, e in self.factors) or "1"
