"""Congruence claims: eligibility, instantiation shapes, verification,
the shared series cache, and the progression search."""

import json
import math
import random

import pytest

from qcong import congruence as cg, suite
from qcong.qfunctions import eta_quotient
from qcong.report import reports_to_json
from qcong.series import EtaQuotient

# parameters that instantiate each parametrized family
FAMILY_DEFAULT_PARAMS = {
    "r4-prime-series": {"p": 13}, "r4-prime-vanish": {"p": 13},
    "r6-prime-series": {"p": 3}, "r6-prime-vanish": {"p": 3},
    "r8-prime-series": {"p": 5}, "r8-prime-vanish": {"p": 5},
    "r5k-fixed": {"k": 1},
    "r6-iterated": {"alpha": 1}, "r6-iterated-alt": {"alpha": 1},
    "r6-vanish-a": {"alpha": 0}, "r6-vanish-b": {"alpha": 0},
    "conv-overpartition": {"ell": 2},
}


# -- number-theoretic helpers ------------------------------------------------


def test_legendre_basics():
    assert cg._legendre(-1, 3) == -1
    assert cg._legendre(13, 13) == 0
    assert cg._legendre(4, 7) == 1
    assert cg._legendre(-6, 13) == -1
    assert cg._legendre(-6, 29) == 1
    # multiplicativity spot check
    assert cg._legendre(2, 31) * cg._legendre(3, 31) == cg._legendre(6, 31)


def _accepted_primes(family):
    accepted = []
    for p in range(2, cg.PRIME_LIMIT + 1):
        try:
            cg.instantiate(family, p=p, alpha=0)
        except cg.EligibilityError:
            continue
        accepted.append(p)
    return accepted


def test_eligible_primes_per_family():
    for family, bound, want in (("r6-prime", 20, [3, 7, 11, 19]),
                                ("r8-prime", 7, [5]),
                                ("r4-prime", 31, [13, 17, 19, 23])):
        series = _accepted_primes(family + "-series")
        # suffixed spellings name the same hypothesis
        assert series == _accepted_primes(family + "-vanish")
        assert [p for p in series if p <= bound] == want


def test_eligibility_errors():
    with pytest.raises(cg.EligibilityError, match="requires p >= 13"):
        cg.instantiate("r4-prime-series", p=11, alpha=0)
    with pytest.raises(cg.EligibilityError, match=r"\(-6/29\) = 1"):
        cg.instantiate("r4-prime-series", p=29, alpha=0)
    with pytest.raises(cg.EligibilityError, match="not prime"):
        cg.instantiate("r4-prime-vanish", p=15, alpha=0)
    with pytest.raises(cg.EligibilityError, match="exceeds the supported bound"):
        cg.instantiate("r4-prime-series", p=37, alpha=0)
    # the bound is checked before primality, so neither a composite nor a
    # huge prime past it reaches the primality test
    with pytest.raises(cg.EligibilityError, match="exceeds the supported bound"):
        cg.instantiate("r4-prime-series", p=35, alpha=0)
    with pytest.raises(cg.EligibilityError, match="exceeds the supported bound"):
        cg.instantiate("r4-prime-series", p=2**127 - 1)
    with pytest.raises(cg.EligibilityError, match=r"\(-1/5\) = 1"):
        cg.instantiate("r6-prime-series", p=5, alpha=0)
    with pytest.raises(cg.EligibilityError, match=r"\(-3/7\) = 1"):
        cg.instantiate("r8-prime-series", p=7, alpha=0)
    with pytest.raises(cg.ClaimError, match="alpha = 3"):
        cg.instantiate("r4-prime-series", p=13, alpha=3)
    with pytest.raises(cg.ClaimError, match="unknown"):
        cg.instantiate("no-such-family")
    with pytest.raises(cg.ClaimError):
        cg.instantiate("r4-fixed", p=13)   # family takes no parameters


def test_error_hierarchy():
    for exc in (cg.EligibilityError, cg.IntegralityError,
                cg.OrderShortfallError):
        assert issubclass(exc, cg.ClaimError)
    assert issubclass(cg.ClaimError, ValueError)


# -- instantiation shapes ------------------------------------------------------


def test_prime_vanish_offsets():
    claims = cg.instantiate("r4-prime-vanish", p=13, alpha=0)
    assert len(claims) == 12
    offsets = sorted(c.progression.offset for c in claims)
    assert offsets == [52 * r + 197 for r in range(1, 13)]
    assert all(c.progression.step == 4 * 13**2 for c in claims)
    assert all(c.modulus == 4 and c.rhs == "ZERO" for c in claims)
    # offsets all sit in the residue class (7 * 13^2 - 1)/6 shifted by
    # multiples of 52: the progressions tile one 13-adic layer
    assert all((off - 197) % 52 == 0 for off in offsets)


def test_prime_series_progression():
    (claim,) = cg.instantiate("r4-prime-series", p=13, alpha=1)
    assert claim.progression.step == 4 * 13**2
    assert claim.progression.offset == (7 * 13**2 - 1) // 6
    assert claim.rhs == "TWO_F1_PSI_Q2"
    (claim0,) = cg.instantiate("r6-prime-series", p=3, alpha=0)
    assert (claim0.progression.step, claim0.progression.offset) == (2, 1)
    assert claim0.modulus == 3


def test_fixed_family_shapes():
    shapes = {
        "r4-fixed": {(4, 2), (4, 3)},
        "r8-fixed-mod4": {(4, 2), (4, 3), (16, 5), (16, 9), (16, 13)},
        "r8-fixed-mod8": {(4, 3), (8, 3), (8, 5), (8, 7)},
    }
    for fam, want in shapes.items():
        claims = cg.instantiate(fam)
        got = {(c.progression.step, c.progression.offset) for c in claims}
        assert got == want, fam
    for k in (1, 2, 3):
        claims = cg.instantiate("r5k-fixed", k=k)
        got = {(c.progression.step, c.progression.offset, c.modulus)
               for c in claims}
        assert got == {(5, 2, 4), (5, 3, 4), (5, 1, 2)}
        assert all(c.ell == 5 * k for c in claims)


def test_offset_can_exceed_step():
    # 9-adic vanishing lives on classes like 9^{a+1} n + offset with
    # offset far beyond the step; extraction must not reduce it
    (claim,) = cg.instantiate("r6-vanish-b", alpha=0)
    assert claim.progression.step == 9
    assert claim.progression.offset == 8
    (claim,) = cg.instantiate("r6-vanish-b", alpha=1)
    assert (claim.progression.step, claim.progression.offset) == (81, 74)
    p = cg.Progression(4, 197)
    assert p.index(3) == 4 * 3 + 197
    assert str(p) == "4n+197"


def test_source_series_is_rstar():
    for fam in ("r4-fixed", "r6-iterated", "r8-fixed-mod8"):
        for claim in cg.instantiate(fam, **FAMILY_DEFAULT_PARAMS.get(fam, {})):
            assert claim.source_series == EtaQuotient.rstar(claim.ell)


# -- verification --------------------------------------------------------------


def test_fixed_claims_verify():
    reports = cg.verify_many(cg.instantiate("r4-fixed"), terms=200)
    assert all(r.passed for r in reports)
    assert all(r.terms_checked == 200 for r in reports)


def test_documented_offset_variant_fails():
    (alt,) = cg.instantiate("r6-iterated-alt", alpha=1)
    report = cg.verify(alt, terms=100)
    assert report.status == "fail"
    assert report.counterexamples[0] == (0, 2, 1)


def test_halved_claims():
    reports = {r.modulus: r
               for r in cg.verify_many(cg.instantiate("r8-halved"), terms=60)}
    assert set(reports) == {2, 4}
    assert reports[2].passed
    # comparison is doubled so that odd left-hand values cannot sneak
    # through an integer division
    assert "doubled" in reports[2].detail["comparison"]


def test_convolution_and_d2_exact():
    conv = cg.verify_many(cg.instantiate("conv-overpartition", ell=3),
                          terms=150)
    d2 = cg.verify_many(cg.instantiate("r2-distinct"), terms=150)
    for r in conv + d2:
        assert r.passed and r.modulus is None


def test_intermediates_all_pass():
    for ident in ("r4-4n1-mod4", "r6-2n1-mod3", "r6-3n2-mod3", "r6-all-mod3",
                  "r8-2n1-exact", "r8-2n1-mod8", "r8-4n1-mod4",
                  "r8-16n1-mod4"):
        (report,) = cg.verify_many(cg.instantiate(ident), 120)
        assert report.passed and report.name == ident, ident


def test_order_guard():
    (claim,) = cg.instantiate("r4-prime-series", p=13, alpha=0)
    with pytest.raises(cg.OrderShortfallError, match="max-order guard"):
        cg.verify(claim, terms=500, max_order=1000)
    # oracle-backed right-hand sides are sized by the same guard
    (claim,) = cg.instantiate("r2-distinct")
    with pytest.raises(cg.OrderShortfallError, match="max-order guard"):
        cg.verify(claim, terms=1001, max_order=1000)


def test_verify_many_canonical_order():
    claims = (cg.instantiate("r4-fixed")
              + cg.instantiate("r8-fixed-mod8")
              + cg.instantiate("r6-iterated", alpha=1))
    rng = random.Random(11)
    shuffled = claims[:]
    rng.shuffle(shuffled)
    reports = cg.verify_many(shuffled, terms=80)
    keys = [(r.name, tuple(sorted(r.params.items())), r.progression)
            for r in reports]
    assert keys == sorted(keys)


def test_report_json_roundtrip():
    reports = cg.verify_many(cg.instantiate("r4-fixed"), terms=50)
    blob = reports_to_json(reports)
    again = json.dumps(json.loads(blob), sort_keys=True,
                       separators=(",", ":"))
    assert blob == again


# -- the shared cache ----------------------------------------------------------


def test_cache_reuses_and_extends():
    cg.clear_cache()
    eq = EtaQuotient.rstar(4)
    first = cg.expand_quotient(eq, 100)
    assert first.order == 100
    assert cg.expand_quotient(eq, 100) is first
    again = cg.expand_quotient(eq, 60)   # a prefix of the cached series
    assert again.order == 60 and again.coeffs == first.coeffs[:60]
    longer = cg.expand_quotient(eq, 101)
    assert longer.order == 101 and longer.coeffs[:100] == first.coeffs
    # modular builds are exact-length too, not rounded up
    assert cg.expand_quotient(eq, 100, 4).order == 100


def _count_builds(monkeypatch):
    builds = []

    def counted(eq, order, modulus=None):
        builds.append((eq, modulus))
        return eta_quotient(eq, order, modulus)

    monkeypatch.setattr(cg, "eta_quotient", counted)
    return builds


def test_verify_many_expands_each_base_once(monkeypatch):
    # 4n+2 needs order 8003 and 16n+13 order 32014: one build serves both
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    reports = cg.verify_many(cg.instantiate("r8-fixed-mod4"), 2001)
    assert all(r.passed and r.terms_checked == 2001 for r in reports)
    assert builds == [(EtaQuotient.rstar(8), 4)]


def test_criterion_6_expands_its_base_once(monkeypatch):
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    assert suite.run_criterion(6).passed
    assert builds == [(EtaQuotient.rstar(6), 3)]


def test_expand_for_skips_claims_past_the_guard(monkeypatch):
    (claim,) = cg.instantiate("r4-prime-series", p=13, alpha=0)
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    with pytest.raises(cg.OrderShortfallError, match="max-order guard"):
        cg.verify_many([claim], terms=500, max_order=1000)
    cg.expand_for([(claim, 0)])
    assert builds == []


def test_cache_separates_moduli():
    cg.clear_cache()
    eq = EtaQuotient.rstar(6)
    exact = cg.expand_quotient(eq, 64)
    mod3 = cg.expand_quotient(eq, 64, 3)
    assert exact.modulus is None and mod3.modulus == 3
    assert [c % 3 for c in exact.coeffs[:64]] == list(mod3.coeffs[:64])


# -- search ---------------------------------------------------------------------


def test_search_rediscovers_ell4():
    hits = cg.search(4, 4, 4, terms=400)
    labeled = {(c.step, c.offset, c.modulus)
               for c in hits if c.rediscovers}
    assert labeled == {(4, 2, 4), (4, 3, 4)}
    assert all(c.evidence >= cg.MIN_EVIDENCE for c in hits)
    assert all(0 <= c.offset < c.step for c in hits)


def test_search_honours_terms_whatever_is_cached():
    cg.clear_cache()
    cold = cg.search(4, 4, 4, terms=400)
    cg.expand_quotient(EtaQuotient.rstar(4), 1000, None)
    warm = cg.search(4, 4, 4, terms=400)
    assert warm == cold
    evidence = {(c.step, c.offset): c.evidence for c in warm}
    assert evidence == {(2, 1): 200, (4, 1): 100, (4, 2): 100, (4, 3): 100}


@pytest.mark.parametrize("terms", [0, -3])
def test_search_rejects_terms_below_one(terms):
    cg.expand_quotient(EtaQuotient.rstar(4), 1000, None)
    with pytest.raises(ValueError, match="terms >= 1"):
        cg.search(4, 4, 4, terms=terms)


def test_search_is_sorted_by_evidence():
    hits = cg.search(8, 8, 8, terms=300)
    keys = [(-c.evidence, c.step, c.offset, -c.modulus) for c in hits]
    assert keys == sorted(keys)


def test_search_small_ell2_runs():
    hits = cg.search(2, 2, 2, terms=100)
    assert all(c.ell == 2 for c in hits)
    # nothing known to rediscover at ell = 2
    assert all(not c.rediscovers for c in hits)


def _search_every_progression(ell, max_step, max_modulus, terms):
    # the scan without any bound on step or offset, as the reference
    coeffs = cg.expand_quotient(EtaQuotient.rstar(ell), terms, None).coeffs
    out = set()
    for step in range(1, max_step + 1):
        for offset in range(step):
            vals = coeffs[offset::step]
            g = 0
            for v in vals:
                g = math.gcd(g, v)
            best = max((m for m in range(2, max_modulus + 1)
                        if g > 1 and g % m == 0), default=0)
            if len(vals) >= cg.MIN_EVIDENCE and best:
                out.add((step, offset, best, len(vals)))
    return out


@pytest.mark.parametrize("ell, terms, far", [(4, 500, 250), (8, 300, 200),
                                             (6, 400, 150)])
def test_search_bound_keeps_every_candidate(ell, terms, far):
    # max_step far past terms / MIN_EVIDENCE, where no step can report
    hits = cg.search(ell, far, 8, terms=terms)
    assert ({(c.step, c.offset, c.modulus, c.evidence) for c in hits}
            == _search_every_progression(ell, far, 8, terms))
    assert hits == cg.search(ell, terms // (cg.MIN_EVIDENCE - 1), 8, terms=terms)
