"""Combinatorial oracles: anchors, small enumerations, DP properties."""

import functools

import pytest

from qcong import counting as ct
from qcong import qfunctions as qf
from qcong.series import EtaQuotient


def test_worked_anchors():
    assert ct.count(ct.OVERPARTITION, 3)[3] == 8
    assert ct.count(ct.NONOVERLINED_L_REGULAR(2), 3)[3] == 6
    assert ct.count(ct.OVERLINED_L_REGULAR(2), 3)[3] == 6
    assert ct.count(ct.PLAIN_P, 10)[10] == 42


def test_explicit_objects_at_three():
    # overlined parts of any size, non-overlined parts odd only
    got = ct.enumerate_small(ct.NONOVERLINED_L_REGULAR(2), 3)
    want = {
        ((1, ""), (1, ""), (1, "")),
        ((1, ""), (1, ""), (1, "~")),
        ((2, "~"), (1, "")),
        ((2, "~"), (1, "~")),
        ((3, ""),),
        ((3, "~"),),
    }
    assert set(got) == want
    assert len(got) == len(set(got)) == 6


def test_enumeration_matches_dp_counts():
    kinds = [ct.PLAIN_P, ct.OVERPARTITION, ct.DISTINCT_TWO_COPIES,
             ct.L_REGULAR(2), ct.L_REGULAR(3),
             ct.OVERLINED_L_REGULAR(3), ct.NONOVERLINED_L_REGULAR(3),
             ct.NONOVERLINED_L_REGULAR(4)]
    for kind in kinds:
        table = ct.count(kind, 8)
        for n in range(9):
            objs = ct.enumerate_small(kind, n)
            assert len(objs) == len(set(objs)) == table[n], (kind, n)


def test_enumeration_respects_definitions():
    for p in ct.enumerate_small(ct.L_REGULAR(3), 8):
        assert all(size % 3 != 0 and label == "" for size, label in p)
    for p in ct.enumerate_small(ct.NONOVERLINED_L_REGULAR(3), 8):
        for size, label in p:
            if label == "":
                assert size % 3 != 0           # regularity on plain parts
        labels = [(s, l) for s, l in p if l == "~"]
        assert len(labels) == len(set(labels))  # overline at most once per size
    for p in ct.enumerate_small(ct.DISTINCT_TWO_COPIES, 8):
        assert len(p) == len(set(p))           # two labeled copies, each once


def test_enumeration_guard():
    with pytest.raises(ValueError):
        ct.enumerate_small(ct.PLAIN_P, ct.ENUMERATION_LIMIT + 1)


def test_count_guard():
    # the DP is quadratic in upto, so every caller meets the same cap
    assert len(ct.count(ct.PLAIN_P, 0)) == 1
    with pytest.raises(ValueError, match="oracle size guard 10000"):
        ct.count(ct.OVERPARTITION, ct.COUNT_LIMIT + 1)


ELLS = (1, 2, 3, 4, 5, 6, 8, 10, 15)
FAMILIES = [ct.PLAIN_P, ct.OVERPARTITION, ct.DISTINCT_TWO_COPIES] + [
    family(ell) for ell in ELLS
    for family in (ct.L_REGULAR, ct.OVERLINED_L_REGULAR,
                   ct.NONOVERLINED_L_REGULAR)]
DEEP = (ct.OVERPARTITION, ct.DISTINCT_TWO_COPIES, ct.NONOVERLINED_L_REGULAR(2))


@functools.cache
def _element_dp(kind, upto):
    # the element-by-element part-size DP that `count` packs into one
    # integer: a freely repeating size updates ascending, each
    # at-most-once copy descending.  Index j reads only indices below it,
    # so the table to upto holds every shorter table as its prefix
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


def _deepest(kind):
    return 3000 if kind in DEEP else 1000


@pytest.mark.parametrize("kind", FAMILIES, ids=str)
def test_packed_dp_matches_element_dp(kind):
    reference = _element_dp(kind, _deepest(kind))
    for upto in (0, 1, 2, 3, 300, 1000, _deepest(kind)):
        assert ct.count(kind, upto) == reference[:upto + 1], upto


@pytest.mark.parametrize("kind", FAMILIES, ids=str)
def test_slot_width_holds_every_count(kind):
    # the width bound, swept to the deepest table the differential test
    # builds: every upto to 64, where the margin is a few bits, then every
    # 50th (a slot that held a larger count would carry into its neighbour)
    reference = _element_dp(kind, _deepest(kind))
    widest = 0
    for upto, value in enumerate(reference):
        widest = max(widest, value.bit_length())
        if upto <= 64 or upto % 50 == 0:
            assert 8 * ct._slot_bytes(kind, upto) > widest, upto


def test_oracle_vs_series_sample():
    upto = 60
    pairs = [
        (ct.PLAIN_P, [(1, -1)]),
        (ct.OVERPARTITION, [(2, 1), (1, -2)]),
        (ct.L_REGULAR(3), [(3, 1), (1, -1)]),
        (ct.OVERLINED_L_REGULAR(3), [(2, 1), (3, 1), (1, -2), (6, -1)]),
        (ct.NONOVERLINED_L_REGULAR(3), EtaQuotient.rstar(3).factors),
        (ct.DISTINCT_TWO_COPIES, [(2, 2), (1, -2)]),
    ]
    for kind, factors in pairs:
        table = ct.count(kind, upto)
        series = qf.eta_quotient(EtaQuotient(factors), upto + 1)
        assert list(table) == list(series.coeffs)[: upto + 1], kind


def test_plain_oracle_matches_series_at_suite_depth():
    # criterion 2 reads p(n) to n = 3306 from the 1/f1 series; the oracle
    # must agree with it there, coefficient for coefficient
    table = ct.count(ct.PLAIN_P, 11 * 300 + 6)
    series = qf.eta_quotient(EtaQuotient([(1, -1)]), 11 * 300 + 7)
    assert table == series.coeffs


def test_monotonicity_with_unit_parts():
    # any kind admitting a part of size 1 embeds level n into n+1
    for kind in (ct.PLAIN_P, ct.OVERPARTITION,
                 ct.NONOVERLINED_L_REGULAR(2), ct.L_REGULAR(2)):
        vals = ct.count(kind, 40)
        assert all(vals[n] <= vals[n + 1] for n in range(40))


def test_degenerate_ell_one():
    # 1-regular forbids every part; only the empty partition remains
    assert ct.count(ct.L_REGULAR(1), 5) == (1, 0, 0, 0, 0, 0)


def test_kind_validation():
    with pytest.raises(ValueError):
        ct.NONOVERLINED_L_REGULAR(0)
    with pytest.raises(ValueError):
        ct.PartitionKind("no-such-family", None)
    with pytest.raises(ValueError):
        ct.PartitionKind("plain", 3)   # plain takes no ell


def test_count_table_shape():
    table = ct.count(ct.OVERPARTITION, 12)
    assert len(table) == 13
    assert table[0] == 1
    with pytest.raises(IndexError):
        table[13]
