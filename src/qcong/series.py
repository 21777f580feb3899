"""Truncated formal power series over exact integers.

A Series keeps the first ``order`` coefficients of a power series in q,
either over Z (arbitrary precision) or over Z/mZ when a modulus is
attached.  Every binary operation truncates to the shorter operand; no
operation ever invents coefficients past known data.

Values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
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

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int, modulus: Optional[int] = None) -> "Series":
        return cls([0] * order, modulus)

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
                cs[e] += c
        return cls(cs, modulus)

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

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        mod = f", mod {self.modulus}" if self.modulus is not None else ""
        return f"Series([{head}{tail}], order={self.order}{mod})"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def nonzero_terms(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

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
        a, b = self.coeffs, other.coeffs
        return Series([a[i] + b[i] for i in range(n)], m)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] - b[i] for i in range(n)], m)

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            return Series([other * c for c in self.coeffs], self.modulus)
        if not isinstance(other, Series):
            return NotImplemented
        n, m = self._common(other)
        if n == 0:
            return Series((), m)
        cs = _convolve(self.coeffs[:n], other.coeffs[:n], n, m)
        return Series(cs, m)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            return Series.one(self.order, self.modulus)
        if k == 1:
            return self
        result = Series.one(self.order, self.modulus)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse, by the constant-term recurrence.

        Runs in O(order * number-of-nonzero-terms); eta products and
        theta series are sparse, which keeps this fast.
        """
        if self.order == 0:
            raise NotInvertibleError("cannot invert an order-0 series")
        a0 = self.coeffs[0]
        m = self.modulus
        if m is None:
            if a0 not in (1, -1):
                raise NotInvertibleError(
                    f"constant term {a0} is not a unit over Z")
            inv0 = a0
        else:
            try:
                inv0 = pow(a0, -1, m)
            except ValueError:
                raise NotInvertibleError(
                    f"constant term {a0} is not a unit mod {m}") from None
        N = self.order
        ks = []
        vs = []
        for k in range(1, N):
            if self.coeffs[k]:
                ks.append(k)
                vs.append(self.coeffs[k])
        b = [0] * N
        b[0] = inv0
        L = len(ks)
        lim = 0
        if m is not None:
            for n in range(1, N):
                while lim < L and ks[lim] <= n:
                    lim += 1
                s = 0
                for j in range(lim):
                    s += vs[j] * b[n - ks[j]]
                b[n] = (-inv0 * s) % m
        else:
            for n in range(1, N):
                while lim < L and ks[lim] <= n:
                    lim += 1
                s = 0
                for j in range(lim):
                    s += vs[j] * b[n - ks[j]]
                b[n] = -inv0 * s
        return Series(b, m)

    # -- structural operations ----------------------------------------------

    def dissect(self, step: int, residue: int) -> "Series":
        """Coefficients at exponents step*n + residue, reindexed by n."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if not 0 <= residue < step:
            raise ValueError(
                f"residue {residue} out of range 0..{step - 1}")
        return Series(self.coeffs[residue::step], self.modulus)

    def reduce_mod(self, m: int) -> "Series":
        if m == 0:
            raise ValueError("modulus 0 is not allowed")
        m = _check_modulus(m)
        if self.modulus is not None and self.modulus % m != 0:
            raise ModulusMismatchError(
                f"cannot reduce mod {m}: coefficients only known mod {self.modulus}")
        return Series(self.coeffs, m)

    def shift(self, k: int) -> "Series":
        """Multiply by q^k, keeping the same order."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if k >= self.order:
            return Series.zero(self.order, self.modulus)
        return Series((0,) * k + self.coeffs[: self.order - k], self.modulus)

    def stretch(self, s: int) -> "Series":
        """Substitute q -> q^s.  Result order (order-1)*s + 1."""
        if s < 1:
            raise ValueError("stretch factor must be >= 1")
        if s == 1 or self.order == 0:
            return self
        n = (self.order - 1) * s + 1
        cs = [0] * n
        for i, c in enumerate(self.coeffs):
            cs[i * s] = c
        return Series(cs, self.modulus)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series: have order {self.order}, asked {order}")
        return Series(self.coeffs[:order], self.modulus)

    # -- serialization -------------------------------------------------------

    def text_lines(self, sparse: bool = True) -> list[str]:
        """Line-oriented "index coefficient" form."""
        if sparse:
            return [f"{i} {c}" for i, c in enumerate(self.coeffs) if c]
        return [f"{i} {c}" for i, c in enumerate(self.coeffs)]

    def json_array(self) -> str:
        """Compact JSON array of all coefficients."""
        return json.dumps(list(self.coeffs), separators=(",", ":"))


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
    bad, _, _ = compare_coefficients(a.coeffs, b.coeffs, upto, m)
    if bad:
        return CongruenceCheck(False, *bad[0])
    return CongruenceCheck(True, None, None, None)


# -- multiplication kernel ----------------------------------------------------
#
# Exact truncated Cauchy product via big-integer packing (Kronecker
# substitution): coefficients are packed into one giant integer with a
# digit width large enough that convolution sums never carry, multiplied
# with CPython's native big-int multiply, and unpacked.  Exact, and far
# faster than a Python-level O(N^2) loop.


def _pack(coeffs: Sequence[int], w: int) -> int:
    return int.from_bytes(
        b"".join(c.to_bytes(w, "little") for c in coeffs), "little")


def _unpack(n: int, count: int, w: int) -> list[int]:
    raw = n.to_bytes(count * w, "little")
    return [int.from_bytes(raw[i * w:(i + 1) * w], "little")
            for i in range(count)]


def _width_bytes(bound: int) -> int:
    # smallest w with 256^w > bound
    return bound.bit_length() // 8 + 1


def _convolve(a: Sequence[int], b: Sequence[int], n: int,
              modulus: Optional[int]) -> list[int]:
    """First n coefficients of the product of a and b (len >= n each)."""
    if modulus is not None:
        amax = max(a, default=0)
        bmax = max(b, default=0)
        if amax == 0 or bmax == 0:
            return [0] * n
        w = _width_bytes(n * amax * bmax)
        prod = _pack(a, w) * _pack(b, w)
        prod &= (1 << (8 * w * n)) - 1
        return [c % modulus for c in _unpack(prod, n, w)]

    apos = [c if c > 0 else 0 for c in a]
    aneg = [-c if c < 0 else 0 for c in a]
    bpos = [c if c > 0 else 0 for c in b]
    bneg = [-c if c < 0 else 0 for c in b]
    amax = max(max(apos, default=0), max(aneg, default=0))
    bmax = max(max(bpos, default=0), max(bneg, default=0))
    if amax == 0 or bmax == 0:
        return [0] * n
    w = _width_bytes(2 * n * amax * bmax)
    mask = (1 << (8 * w * n)) - 1
    pap, pan = _pack(apos, w), _pack(aneg, w)
    pbp, pbn = _pack(bpos, w), _pack(bneg, w)
    upos = (pap * pbp + pan * pbn) & mask
    uneg = (pap * pbn + pan * pbp) & mask
    cp = _unpack(upos, n, w)
    cn = _unpack(uneg, n, w)
    return [p - q for p, q in zip(cp, cn)]


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
