"""Combinatorial oracles: partition counts computed straight from the
definitions by dynamic programming over part sizes.

The DP runs on one packed integer: the table for n = 0..upto sits in a
single Python int, slot j (the count of j) at bits (upto - j)*w, so
multiplying by q^s is a right shift by s*w that also drops every term
past upto.  Each part size then costs a few whole-table big-int
additions instead of upto element additions.  The slot width w comes
from a bound on the counts (see `count`), so no slot ever carries.

Deliberately independent of the series engine (no shared arithmetic):
these tables are what the generating-function expansions are checked
against, so any common code would defeat the cross-validation.  Only
`math` and ints are used here.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

ENUMERATION_LIMIT = 12

# largest upto `count` builds: the DP takes about 2*upto whole-table
# steps on upto*w bits, w ~ sqrt(upto), so plain partitions to 10^4 take
# 4.0-6.2 s and to 2*10^4 33 s, overpartitions to 10^4 9.4-13 s (2-vCPU
# Xeon VM, CPython 3.11); the suite counts to 1000
COUNT_LIMIT = 10_000


class PartitionKind(namedtuple("PartitionKind", "family ell")):
    """A family of decorated partitions.

    family selects the rule set; ell (default None) parametrizes the
    regularity constraint where one applies.  Use the module-level
    constructors rather than instantiating directly.
    """

    __slots__ = ()

    def __new__(cls, family, ell=None):
        if family not in KINDS:
            raise ValueError(f"unknown partition family {family!r}")
        needs_ell = KINDS[family]
        if needs_ell and (ell is None or ell < 1):
            raise ValueError(f"{family} needs a positive ell, got {ell}")
        if not needs_ell and ell is not None:
            raise ValueError(f"{family} takes no ell parameter")
        return super().__new__(cls, family, ell)

    # -- factor structure: which part sizes repeat freely, and which
    #    carry at-most-once decorated copies --------------------------------

    def unlimited(self, s: int) -> bool:
        if self.family in ("plain", "overpartition", "overlined-l-regular"):
            return True
        if self.family in ("l-regular", "nonoverlined-l-regular"):
            return s % self.ell != 0
        return False  # distinct-two-copies: nothing repeats freely

    def once_labels(self, s: int) -> tuple[str, ...]:
        if self.family in ("overpartition", "nonoverlined-l-regular"):
            return ("~",)
        if self.family == "overlined-l-regular":
            return ("~",) if s % self.ell != 0 else ()
        if self.family == "distinct-two-copies":
            return ("a", "b")
        return ()

    def __str__(self) -> str:
        return self.family if self.ell is None else f"{self.family}({self.ell})"


KINDS = {
    "plain": False,
    "overpartition": False,
    "l-regular": True,
    "overlined-l-regular": True,
    "nonoverlined-l-regular": True,
    "distinct-two-copies": False,
}

PLAIN_P = PartitionKind("plain")
OVERPARTITION = PartitionKind("overpartition")
DISTINCT_TWO_COPIES = PartitionKind("distinct-two-copies")


def L_REGULAR(ell: int) -> PartitionKind:
    """Partitions with no part divisible by ell."""
    return PartitionKind("l-regular", ell)


def OVERLINED_L_REGULAR(ell: int) -> PartitionKind:
    """Overpartitions whose overlined parts are ell-regular."""
    return PartitionKind("overlined-l-regular", ell)


def NONOVERLINED_L_REGULAR(ell: int) -> PartitionKind:
    """Overpartitions whose non-overlined parts are ell-regular
    (overlined parts unrestricted)."""
    return PartitionKind("nonoverlined-l-regular", ell)


def _slot_bytes(kind: PartitionKind, upto: int) -> int:
    """Bytes per slot of `count`'s packed table: every count of n <= upto
    is at most exp(pi sqrt(2k upto/3)), k the most factors one size has."""
    k = max((kind.unlimited(s) + len(kind.once_labels(s))
             for s in range(1, upto + 1)), default=0)
    bits = math.floor(math.pi * math.sqrt(2 * k * upto / 3) / math.log(2)) + 2
    return -(-bits // 8)


@functools.cache
def count(kind: PartitionKind, upto: int) -> tuple[int, ...]:
    """Exact counts for n = 0..upto, index n holding the count of n, by
    part-size DP, computed once per (kind, upto): tables are immutable.

    Each size s contributes its factors independently, each a step on
    the packed table v (slot j at bits (upto - j)*w, so v >> s*w is v
    times q^s truncated at upto):
    - an at-most-once decorated copy is 1 + q^s: v += v >> s*w, which
      reads the old values, as a descending element loop does;
    - a freely repeating size is 1/(1 - q^s) = (1 + q^s)(1 + q^2s)
      (1 + q^4s)...: v += v >> shift for shift = s*w, 2s*w, 4s*w, ...
      while shift <= upto*w.

    Width: the generating function is coefficientwise at most
    prod_s (1 - q^s)^-k, k the most factors any one size carries (k <= 2
    for every family here), so count(n) <= exp(pi sqrt(2kn/3)).  Proof:
    [q^n]F <= F(e^-t) e^(nt), where sum_s -log(1 - e^(-ts)) =
    sum_m 1/(m (e^(tm) - 1)) <= pi^2/(6t); take t = pi sqrt(k/(6n)) (cf.
    Apostol, Intro. to Analytic Number Theory, Thm 14.5).  Every factor
    has nonnegative coefficients and constant term 1, so every
    intermediate slot is at most its final count: w = floor(pi
    sqrt(2k upto/3)/ln 2) + 2 bits, rounded up to whole bytes, holds
    every slot with no carry.
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    if upto > COUNT_LIMIT:
        raise ValueError(f"upto {upto} exceeds the oracle size guard "
                         f"{COUNT_LIMIT}")
    nbytes = _slot_bytes(kind, upto)
    w = 8 * nbytes
    top = upto * w
    v = 1 << top
    for s in range(1, upto + 1):
        step = s * w
        if kind.unlimited(s):
            shift = step
            while shift <= top:
                v += v >> shift
                shift <<= 1
        for _ in kind.once_labels(s):
            v += v >> step
    packed = v.to_bytes((upto + 1) * nbytes, "big")
    return tuple(int.from_bytes(packed[i:i + nbytes], "big")
                 for i in range(0, len(packed), nbytes))


def enumerate_small(kind: PartitionKind, n: int) -> list[tuple]:
    """All decorated partitions of n, explicitly.

    A partition is a tuple of (size, label) parts, sizes descending;
    label "" marks an ordinary part, "~" an overlined one, "a"/"b" the
    two copies in the distinct-two-copies family.  Guarded to small n:
    these lists grow superpolynomially.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"refusing to enumerate beyond n = {ENUMERATION_LIMIT} (asked {n})")
    results: list[tuple] = []

    def extend(s: int, remaining: int, acc: list):
        if remaining == 0:
            results.append(tuple(acc))
            return
        if s == 0:
            return
        labels = kind.once_labels(s)
        max_plain = remaining // s if kind.unlimited(s) else 0
        for c in range(max_plain + 1):
            used = c * s
            base = acc + [(s, "")] * c
            # decorated copies: any subset of the at-most-once labels
            for mask in range(1 << len(labels)):
                picked = [(s, labels[i]) for i in range(len(labels))
                          if mask >> i & 1]
                total = used + s * len(picked)
                if total > remaining:
                    continue
                extend(s - 1, remaining - total, base + picked)

    extend(n, n, [])
    return sorted(results)
