"""Combinatorial oracles: partition counts computed straight from the
definitions by dynamic programming over part sizes.

Deliberately independent of the series engine (no shared arithmetic):
these tables are what the generating-function expansions are checked
against, so any common code would defeat the cross-validation.
"""

from __future__ import annotations

import functools
from collections import namedtuple

ENUMERATION_LIMIT = 12

# largest upto `count` builds: the DP is quadratic in it, so plain
# partitions to 10^4 take 5.7-6.3 s and to 2*10^4 25 s, overpartitions
# to 10^4 9.4-12 s (2-vCPU Xeon VM, CPython 3.11); the suite counts to 1000
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


@functools.cache
def count(kind: PartitionKind, upto: int) -> tuple[int, ...]:
    """Exact counts for n = 0..upto, index n holding the count of n, by
    part-size DP, computed once per (kind, upto): tables are immutable.

    Each size s contributes its factors independently: a freely
    repeating copy updates ascending (unbounded multiplicity), each
    at-most-once decorated copy updates descending.
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    if upto > COUNT_LIMIT:
        raise ValueError(f"upto {upto} exceeds the oracle size guard "
                         f"{COUNT_LIMIT}")
    v = [0] * (upto + 1)
    v[0] = 1
    for s in range(1, upto + 1):
        if kind.unlimited(s):
            for j in range(s, upto + 1):
                v[j] += v[j - s]
        for _ in kind.once_labels(s):
            for j in range(upto, s - 1, -1):
                v[j] += v[j - s]
    return tuple(v)


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
