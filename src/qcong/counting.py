"""Combinatorial oracles: partition counts computed straight from the
definitions by dynamic programming over part sizes.

The DP runs on one packed integer: the table for n = 0..upto sits in a
single Python int, slot j (the count of j) at bits (upto - j)*w, so
multiplying by q^s is a right shift by s*w that also drops every term
past upto.  Each part size then costs a few whole-table big-int
additions instead of upto element additions, and every factor 1 + q^e
with e > upto/2 waits for one late pass, where it costs upto - e slots
(no two such factors meet below upto).  The slot width w comes from a
bound on the counts, exp(pi sqrt(2kn/3)) with k = U + L/2 for U freely
repeating factors and L at-most-once labels per size (see `count`), so
no slot ever carries.

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

# largest upto `count` builds: the DP takes about upto whole-table steps
# (1.5*upto for overpartitions) and one late pass on upto*w bits, w ~
# sqrt(upto), so plain partitions to 10^4 take 2.6-2.8 s and to 2*10^4
# 14 s, overpartitions to 10^4 4.1-4.7 s, doubled distinct partitions
# 2.2-2.6 s (2-vCPU Xeon VM, CPython 3.11); the suite counts to 1000
COUNT_LIMIT = 10_000


# each family's rule per part size s, (repeats freely, labels of its
# at-most-once decorated copies): the first for every s that ell does
# not divide, the second, in an ell family only, for every s it divides
_RULES = {
    "plain": ((True, ()),),
    "overpartition": ((True, ("~",)),),
    "l-regular": ((True, ()), (False, ())),
    "overlined-l-regular": ((True, ("~",)), (True, ())),
    "nonoverlined-l-regular": ((True, ("~",)), (False, ("~",))),
    "distinct-two-copies": ((False, ("a", "b")),),
}

# family -> whether it takes an ell
KINDS = {family: len(rules) == 2 for family, rules in _RULES.items()}


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
        if needs_ell and not (isinstance(ell, int) and ell >= 1):
            raise ValueError(f"{family} needs a positive int ell, "
                             f"got {ell!r}")
        if not needs_ell and ell is not None:
            raise ValueError(f"{family} takes no ell parameter")
        return super().__new__(cls, family, ell)

    def rule(self, s: int) -> tuple[bool, tuple[str, ...]]:
        """Part size s's rule: whether s repeats freely, and the labels
        of its at-most-once decorated copies."""
        return _RULES[self.family][self.ell is not None and s % self.ell == 0]

    def __str__(self) -> str:
        return self.family if self.ell is None else f"{self.family}({self.ell})"


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
    is at most exp(pi sqrt(2k upto/3)), k = U + L/2 with U the most
    freely repeating factors and L the most at-most-once labels any one
    size has (proof in `count`).  Sizes 1 and ell meet every rule that
    occurs at sizes 1..upto: 1 has the rule off ell unless ell = 1."""
    rules = [kind.rule(s) for s in {1, kind.ell or 1} if s <= upto]
    repeat = max((r for r, _ in rules), default=0)
    labels = max((len(l) for _, l in rules), default=0)
    two_k = 2 * repeat + labels
    bits = math.floor(math.pi * math.sqrt(two_k * upto / 3) / math.log(2)) + 2
    return -(-bits // 8)


@functools.cache
def count(kind: PartitionKind, upto: int) -> tuple[int, ...]:
    """Exact counts for n = 0..upto, index n holding the count of n, by
    part-size DP, computed once per (kind, upto): tables are immutable.

    Each size s contributes factors 1 + q^e by its rule
    (`PartitionKind.rule`): e = s once per at-most-once label, and
    e = s, 2s, 4s, ... <= upto for a freely repeating size, as 1/(1 - q^s)
    = (1 + q^s)(1 + q^2s)(1 + q^4s)...; factors[e] counts them at e.
    They commute, so they are applied by e: one with 2e <= upto is a step
    v += v >> e*w on the packed table v (slot j at bits (upto - j)*w, so
    v >> e*w is v times q^e truncated at upto), which reads the old
    values, as a descending element loop does.

    Late factors: any two factors with e > upto/2 multiply past upto, so
    modulo q^(upto+1) their product is 1 + sum_e factors[e] q^e over
    e > upto/2 (a label of a size past upto/2, the last doubling of a
    freely repeating size).  It is applied once, after every other step,
    as v += sum_e factors[e] (v >> e*w), the sum taken from the largest
    e down so that each term costs upto - e slots, not a whole-table add.

    Width: the generating function is coefficientwise at most
    prod_s (1 - q^s)^-U (1 + q^s)^L, U the most freely repeating factors
    and L the most labels any one size carries, so with k = U + L/2
    (k <= 3/2 for every family here) count(n) <= exp(pi sqrt(2kn/3)).
    Proof: [q^n]F <= F(e^-t) e^(nt), where sum_s -log(1 - e^(-ts)) =
    sum_m 1/(m (e^(tm) - 1)) <= pi^2/(6t), and sum_s log(1 + e^(-ts))
    <= integral_0^inf log(1 + e^(-tx)) dx = pi^2/(12t), as the summand
    decreases in s; take t = pi sqrt(k/(6n)) (cf. Apostol, Intro. to
    Analytic Number Theory, Thm 14.5).  Every factor has nonnegative
    coefficients and constant term 1, so every intermediate slot, and
    every slot of the late sum, is at most its final count: w =
    floor(pi sqrt(2k upto/3)/ln 2) + 2 bits, rounded up to whole bytes,
    holds every slot with no carry.
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    if upto > COUNT_LIMIT:
        raise ValueError(f"upto {upto} exceeds the oracle size guard "
                         f"{COUNT_LIMIT}")
    nbytes = _slot_bytes(kind, upto)
    w = 8 * nbytes
    v = 1 << upto * w
    factors = [0] * (upto + 1)   # how many factors 1 + q^e at each e
    for s in range(1, upto + 1):
        repeats, labels = kind.rule(s)
        factors[s] += len(labels)
        if repeats:
            for i in range((upto // s).bit_length()):
                factors[s << i] += 1
    for e in range(1, upto // 2 + 1):
        for _ in range(factors[e]):
            v += v >> e * w
    tail = 0
    for e in range(upto, upto // 2, -1):
        if factors[e]:
            tail += factors[e] * (v >> e * w)
    v += tail
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
        repeats, labels = kind.rule(s)
        max_plain = remaining // s if repeats else 0
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
