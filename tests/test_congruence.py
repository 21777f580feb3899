"""Congruence claims: eligibility, instantiation shapes, verification,
the shared series cache, and the progression search."""

import collections
import json
import math
import random
from pathlib import Path

import pytest

from qcong import (cli, congruence as cg, counting, qfunctions as qf, series,
                   suite)
from qcong.qfunctions import eta_quotient, eta_terms
from qcong.series import EtaQuotient, Series

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
    # every p up to the one bound primes share with the identity catalog;
    # the first prime past it is refused before any eligibility test
    with pytest.raises(cg.EligibilityError, match="p = 1009 exceeds the size "
                                                  "guard 1000"):
        cg.instantiate(family, p=1009, alpha=0)
    accepted = []
    for p in range(2, qf.DISSECTION_LIMIT + 1):
        try:
            cg.instantiate(family, p=p, alpha=0)
        except cg.EligibilityError:
            continue
        except cg.OrderShortfallError:  # eligible; its offsets pass the guard
            pass
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
    with pytest.raises(cg.EligibilityError, match="p = 35 is not prime"):
        cg.instantiate("r4-prime-series", p=35, alpha=0)
    with pytest.raises(cg.EligibilityError,
                       match="p = 1009 exceeds the size guard 1000"):
        cg.instantiate("r4-prime-series", p=1009, alpha=0)
    # the bound is checked before primality, so neither a composite nor a
    # huge prime past it reaches the primality test
    with pytest.raises(cg.EligibilityError, match="exceeds the size guard 1000"):
        cg.instantiate("r4-prime-series", p=1001, alpha=0)
    with pytest.raises(cg.EligibilityError, match="exceeds the size guard 1000"):
        cg.instantiate("r4-prime-series", p=2**127 - 1)
    with pytest.raises(cg.EligibilityError, match=r"\(-1/5\) = 1"):
        cg.instantiate("r6-prime-series", p=5, alpha=0)
    with pytest.raises(cg.EligibilityError, match=r"\(-3/7\) = 1"):
        cg.instantiate("r8-prime-series", p=7, alpha=0)
    # an alpha whose offsets all pass the max-order guard is refused at
    # instantiation, and a huge one before p ** (2 alpha) is formed
    with pytest.raises(cg.OrderShortfallError,
                       match="alpha = 3 puts every offset past the max-order "
                             "guard 200000"):
        cg.instantiate("r4-prime-series", p=13, alpha=3)
    with pytest.raises(cg.OrderShortfallError, match="alpha = 10{100}"):
        cg.instantiate("r6-iterated", alpha=10**100)


def test_alpha_is_bounded_by_the_order_guard_alone():
    # r6-iterated at alpha = 3 has offset 182 and step 729: 200 terms need
    # base order 145254, inside the guard, and the claim holds there
    (report,) = cg.verify_rows([("r6-iterated", {"alpha": 3}, 200)])
    assert report.passed and report.terms_checked == 200
    with pytest.raises(cg.OrderShortfallError, match="max-order guard"):
        cg.verify_rows([("r6-iterated", {"alpha": 3}, 300)])
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
    # every 9-adic family matches its printed closed form
    for alpha in (0, 1, 2):
        nine = 9**alpha
        forms = {"r6-iterated": (nine, (nine - 1) / 4, "SELF"),
                 "r6-iterated-alt": (nine, (nine - 1) / 2, "SELF"),
                 "r6-vanish-a": (9 * nine, (21 * nine - 1) / 4, "ZERO"),
                 "r6-vanish-b": (9 * nine, (33 * nine - 1) / 4, "ZERO")}
        for family, (step, offset, rhs) in forms.items():
            (claim,) = cg.instantiate(family, alpha=alpha)
            assert claim.params == (("alpha", alpha),)
            assert (claim.ell, claim.modulus, claim.rhs) == (6, 3, rhs)
            assert claim.progression.step == step
            assert claim.progression.offset == offset   # offset is whole
    p = cg.Progression(4, 197)
    assert p.index(3) == 4 * 3 + 197
    assert str(p) == "4n+197"


def test_source_series_is_rstar():
    for fam in ("r4-fixed", "r6-iterated", "r8-fixed-mod8"):
        for claim in cg.instantiate(fam, **FAMILY_DEFAULT_PARAMS.get(fam, {})):
            assert claim.source_series == EtaQuotient.rstar(claim.ell)


# -- verification --------------------------------------------------------------


def test_fixed_claims_verify():
    reports = cg.verify_rows([("r4-fixed", {}, 200)])
    assert all(r.passed for r in reports)
    assert all(r.terms_checked == 200 for r in reports)


def test_documented_offset_variant_fails():
    (alt,) = cg.instantiate("r6-iterated-alt", alpha=1)
    report = cg.verify(alt, terms=100)
    assert report.status == "fail"
    assert report.counterexamples[0] == (0, 2, 1)


def test_halved_claims():
    reports = {r.modulus: r for r in cg.verify_rows([("r8-halved", {}, 60)])}
    assert set(reports) == {2, 4}
    assert reports[2].passed
    # comparison is doubled so that odd left-hand values cannot sneak
    # through an integer division
    assert "doubled" in reports[2].detail["comparison"]


def test_convolution_and_d2_exact():
    reports = cg.verify_rows([("conv-overpartition", {"ell": 3}, 150),
                              ("r2-distinct", {}, 150)])
    assert [r.name for r in reports] == ["conv-overpartition", "r2-distinct"]
    for r in reports:
        assert r.passed and r.modulus is None


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6, 8])
def test_convolution_matches_the_double_sum(ell, monkeypatch):
    # the left side is one exact product; the plain double sum over
    # a(n - ell nu) p(nu) is the reference it must equal at every n
    terms = 1001
    (claim,) = cg.instantiate("conv-overpartition", ell=ell)
    a = cg._values(claim, terms)
    ptab = counting.count(counting.PLAIN_P, (terms - 1) // ell)
    lhs, pbar, cmp_mod, _ = cg._overpartition_conv_rhs(claim, terms)
    assert list(lhs) == [sum(a[n - ell * nu] * ptab[nu]
                             for nu in range(n // ell + 1))
                         for n in range(terms)]
    assert list(lhs) == list(pbar) and cmp_mod is None
    # one wrong a(i) first shows at index i, and the report fails there
    i = 377
    real = cg._values
    monkeypatch.setattr(cg, "_values", lambda c, t: tuple(
        v + 1 if k == i else v for k, v in enumerate(real(c, t))))
    report = cg.verify(claim, terms)
    assert report.status == "fail" and report.counterexamples[0][0] == i


def test_oracle_sides_make_no_series_product(monkeypatch):
    # the expected sides of P_CONVOLUTION and D2 come from the counting
    # oracles alone: with the bases built, no product may run
    claims = [(claim, 60) for claim in cg.instantiate("r8-halved")]
    claims += [(claim, 150) for claim in cg.instantiate("r2-distinct")]
    tables = {}
    for claim, terms in claims:
        cg._values(claim, terms)
        tables[claim] = cg._RHS[claim.rhs](claim, terms)

    def refuse(*args):
        raise AssertionError("series arithmetic on an oracle side")

    monkeypatch.setattr(series, "_convolve", refuse)
    monkeypatch.setattr(Series, "__mul__", refuse)
    monkeypatch.setattr(Series, "__rmul__", refuse)
    for claim, terms in claims:
        assert cg._RHS[claim.rhs](claim, terms) == tables[claim]
        assert cg.verify(claim, terms).passed


def test_intermediates_all_pass():
    for ident in ("r4-4n1-mod4", "r6-2n1-mod3", "r6-3n2-mod3", "r6-all-mod3",
                  "r8-2n1-exact", "r8-2n1-mod8", "r8-4n1-mod4",
                  "r8-16n1-mod4"):
        (report,) = cg.verify_rows([(ident, {}, 120)])
        assert report.passed and report.name == ident, ident


# each series right-hand side built from theta and Euler series, apart
# from its eta-quotient terms
THETA_RHS = {
    "ZERO": Series.zero,
    "TWO_F1_PSI_Q2": lambda n: 2 * (qf.euler_product(1, n) * qf.psi(n, 2)),
    "TWO_PSI_PSI4": lambda n: 2 * (qf.psi(n) * qf.psi(n, 4)),
    "TWO_F1_PSI": lambda n: 2 * (qf.euler_product(1, n) * qf.psi(n)),
    "PSI_SQ": lambda n: qf.psi(n) ** 2,
    "PSI_SQ_Q3": lambda n: qf.psi(n, 3) ** 2,
    "TWO_F8_SQ": lambda n: 2 * qf.euler_product(8, n) ** 2,
    "TWO_F4_SQ": lambda n: 2 * qf.euler_product(4, n) ** 2,
    "TWO_F1_SQ": lambda n: 2 * qf.euler_product(1, n) ** 2,
    # 2 f2^2 f8^2 / f1^4 = 2 f8^2 / phi(-q)^2
    "R8_ODD_EXACT": lambda n: 2 * (qf.euler_product(8, n) / qf.general_theta(
        1, 1, n, -1)) ** 2,
    # f2 f6 / f1^2 = f6 / phi(-q)
    "SELF": lambda n: qf.euler_product(6, n) / qf.phi_neg(n),
}


def test_every_series_rhs_has_a_theta_reference():
    assert set(THETA_RHS) == {tag for tag, rhs in cg._RHS.items()
                              if not callable(rhs)}


@pytest.mark.parametrize("tag", sorted(THETA_RHS))
def test_series_rhs_terms_match_their_theta_construction(tag):
    n = 3000
    assert qf.expand_terms(cg._RHS[tag], n) == THETA_RHS[tag](n)


@pytest.mark.parametrize("tag, family, params, corrupt", [
    # psi(q)^2 = f2^4/f1^2; f2^4/f1^3 must fail r6-all-mod3, not pass
    ("PSI_SQ", "r6-all-mod3", {}, "2:4,1:-3"),
    # SELF = f2 f6/f1^2; f2 f6/f1^3 must fail r6-iterated at alpha = 1
    ("SELF", "r6-iterated", {"alpha": 1}, "2:1,6:1,1:-3"),
], ids=["PSI_SQ", "SELF"])
def test_corrupt_rhs_exponent_fails_its_claims(monkeypatch, tag, family,
                                               params, corrupt):
    (claim,) = cg.instantiate(family, **params)
    assert cg.verify(claim, 300).passed
    monkeypatch.setitem(cg._RHS, tag, eta_terms((1, 0, corrupt)))
    report = cg.verify(claim, 300)
    assert report.status == "fail" and report.counterexamples


def test_r6_all_mod3_sides_share_no_construction(monkeypatch):
    # the left side, f2 f6/f1^2 mod 3, folds to psi(q)^2; the right side
    # must reach psi(q)^2 through theta blocks the left side does not use
    blocks = []
    real = qf.general_theta
    monkeypatch.setattr(qf, "general_theta",
                        lambda a, b, order, sign=1, shift=0, modulus=None:
                        blocks.append((a, b, sign))
                        or real(a, b, order, sign, shift, modulus))
    qf.eta_quotient(EtaQuotient.rstar(6), 300, 3)
    lhs = set(blocks)
    blocks.clear()
    qf.expand_terms(cg._RHS["PSI_SQ"], 300)
    assert lhs == {(1, 3, 1)} and not lhs & set(blocks)


def test_self_rhs_is_the_ell6_generating_function():
    # SELF is f2 f6/f1^2, so only claims on ell = 6 may compare with it
    ((_, _, eq, _),) = cg._RHS["SELF"]
    assert eq == EtaQuotient.rstar(6)
    rows = [row for row in cg._PROGRESSIONS.values() if row.rhs == "SELF"]
    assert rows and all(row.ell == 6 for row in rows)
    assert all(rhs != "SELF" for _, claims in cg._FIXED.values()
               for *_, rhs in claims)


def test_order_guard():
    # a(729n + 425) to n = 299 needs base series order 218397
    with pytest.raises(cg.OrderShortfallError,
                       match="order 218397, above the max-order guard"):
        cg.verify_rows([("r6-vanish-a", {"alpha": 2}, 300)])
    # oracle-backed right-hand sides are sized by the same guard, and
    # their tables by the oracle guard
    (claim,) = cg.instantiate("r2-distinct")
    with pytest.raises(cg.OrderShortfallError, match="max-order guard"):
        cg.verify(claim, terms=200001)
    with pytest.raises(cg.OrderShortfallError, match="oracle size guard"):
        cg.verify(claim, terms=10002)


def test_price_guard_refuses_before_any_build():
    # within the order guard but past the build budget: the exact base of
    # r8-2n1-exact at 100000 terms (order 200000) and its right side; and
    # search's exact base at 200000 terms, which it reads once
    # lcm(2..max_modulus) passes the ring bound
    cg.clear_cache()
    with pytest.raises(cg.OrderShortfallError,
                       match=r"r8-2n1-exact: .*predicted cost \d+ exceeds "
                             r"the build budget 30000000"):
        cg.verify_rows([("r8-2n1-exact", {}, 100000)])
    assert not cg._CACHE
    with pytest.raises(ValueError, match="search: predicted cost"):
        cg.search(8, 8, 64, terms=200000)
    assert not cg._CACHE
    # mod lcm(2..8) = 840 the same base is within the budget
    assert (qf.price(((1, 0, EtaQuotient.rstar(8), ()),), 200000, 840)
            <= qf.BUILD_BUDGET)


def test_check_size_prices_base_and_right_side(monkeypatch):
    seen = []
    monkeypatch.setattr(cg, "afford", lambda *builds, **kw: seen.append(builds))
    (claim,) = cg.instantiate("r8-2n1-mod8")
    cg._check_size(claim, 40)
    (base, rhs), = seen
    assert base == (((1, 0, EtaQuotient.rstar(8), ()),), 80, 8)
    assert rhs == (cg._RHS["TWO_F8_SQ"], 40, None)


def test_verify_rows_canonical_order():
    # rows come back in the order given, each row's claims canonically
    # sorted (r5k-fixed instantiates xi = 2, 3, 1)
    rows = [("r4-fixed", {}, 80), ("r8-fixed-mod8", {}, 80),
            ("r6-iterated", {"alpha": 1}, 80), ("r5k-fixed", {"k": 2}, 80)]
    random.Random(11).shuffle(rows)
    reports = iter(cg.verify_rows(rows))
    for family, params, _ in rows:
        got = [next(reports) for _ in cg.instantiate(family, **params)]
        assert {r.name for r in got} == {family}
        keys = [(tuple(r.params.values()), r.progression, r.modulus)
                for r in got]
        assert keys == sorted(keys)
    assert next(reports, None) is None


def test_report_json_roundtrip(capsys):
    assert cli.main(["verify-theorem", "--family", "r4-fixed",
                     "--terms", "50", "--format", "json"]) == 0
    blob = capsys.readouterr().out.rstrip("\n")
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


def test_verify_rows_expands_each_base_once(monkeypatch):
    # 4n+2 needs order 8003 and 16n+13 order 32014: one build serves both
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    reports = cg.verify_rows([("r8-fixed-mod4", {}, 2001)])
    assert all(r.passed and r.terms_checked == 2001 for r in reports)
    assert builds == [(EtaQuotient.rstar(8), 4)]


def test_criterion_6_expands_its_base_once(monkeypatch):
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    assert suite.run_criterion(6).passed
    assert builds == [(EtaQuotient.rstar(6), 3)]


def _count_divisions(monkeypatch):
    """Spy on the three division paths: (path, modulus, order) a call."""
    divisions = []
    for name in ("_hensel_inverse", "_newton_inverse", "_divide"):
        real = getattr(series, name)

        def counted(*args, real=real, name=name):
            den = args[1] if name == "_divide" else args[0]
            divisions.append((name, args[-1], len(den)))
            return real(*args)

        monkeypatch.setattr(series, name, counted)
    return divisions


def test_cold_suite_builds_each_base_once(monkeypatch):
    # the first criterion to read a base reads it deepest, so a cold run
    # builds each (quotient, modulus) once.  Each division path is reached:
    # the closed-form lift for phi(-q) mod 2 and 4, Newton for phi(-q)
    # mod 8 (r8 at 16008) and mod 12 (criterion 12's r4 at 1001), and the
    # recurrence over Z and mod 840 (criterion 12's r8)
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    divisions = _count_divisions(monkeypatch)
    assert all(result.passed for result in suite.run_all())
    assert builds and len(builds) == len(set(builds))
    paths = collections.Counter((name, m) for name, m, _ in divisions)
    assert paths == {("_hensel_inverse", 2): 1, ("_hensel_inverse", 4): 5,
                     ("_newton_inverse", 8): 1, ("_newton_inverse", 12): 1,
                     ("_divide", None): 56, ("_divide", 840): 1}
    assert sorted((m, n) for name, m, n in divisions
                  if name == "_newton_inverse") == [(8, 16008), (12, 1001)]


def test_benchmark_searches_divide_by_the_recurrence(monkeypatch):
    # search scans residues mod lcm(2..16) = 720720, wider than a byte, so
    # its one division, f_ell by phi(-q), is the recurrence
    divisions = _count_divisions(monkeypatch)
    for ell in (6, 8, 16):
        cg.clear_cache()
        cg.search(ell, 16, 16, terms=8000)
    assert divisions == [("_divide", 720720, 8000)] * 3


def test_verify_rows_refuses_a_batch_before_any_build(monkeypatch):
    cg.clear_cache()
    builds = _count_builds(monkeypatch)
    # the last row is past the guard: the first is not built either
    with pytest.raises(cg.OrderShortfallError, match="max-order guard"):
        cg.verify_rows([("r4-fixed", {}, 200),
                        ("r6-vanish-a", {"alpha": 2}, 300)])
    with pytest.raises(cg.ClaimError, match="terms must be >= 1"):
        cg.verify_rows([("r4-fixed", {}, 200), ("r8-fixed-mod8", {}, 0)])
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


def test_search_modulus_bound_past_every_gcd_changes_nothing():
    # a modulus dividing a progression's gcd is at most the gcd, so a huge
    # bound scans no further than a small one
    assert cg.search(8, 8, 10**12, terms=500) == cg.search(8, 8, 4096,
                                                           terms=500)


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


# the last max_modulus whose lcm(2..M) the ring bound admits
LAST_RING_M = max(M for M in range(2, 64)
                  if math.lcm(*range(2, M + 1)) <= cg._RING_BOUND)


def test_the_ring_bound_admits_max_modulus_up_to_42():
    # residues mod lcm(2..42) < 2^58 are machine words; lcm(2..43) > 2^63
    assert LAST_RING_M == 42
    assert cg._search_ring(2) == 2
    assert cg._search_ring(16) == 720720
    assert cg._search_ring(42) == math.lcm(*range(2, 43))
    assert cg._search_ring(43) is None
    assert cg._search_ring(10**9) is None   # stops at 43


@pytest.mark.parametrize("max_modulus", [2, 16, LAST_RING_M, LAST_RING_M + 1])
@pytest.mark.parametrize("ell", [4, 6, 8])
def test_ring_search_keeps_every_candidate_of_the_exact_scan(ell,
                                                             max_modulus):
    # mod lcm(2..M), or over Z past the ring bound, the same candidates as
    # the exact scan, read from the base the ring names
    cg.clear_cache()
    ring = cg._search_ring(max_modulus)
    hits = cg.search(ell, 24, max_modulus, terms=8000)
    assert list(cg._CACHE) == [(EtaQuotient.rstar(ell).factors, ring)]
    assert ({(c.step, c.offset, c.modulus, c.evidence) for c in hits}
            == _search_every_progression(ell, 24, max_modulus, 8000))


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench/expected"


@pytest.mark.parametrize("ell", [6, 8, 16])
def test_search_matches_the_recorded_benchmark_candidates(ell):
    # the search workload's input, mod lcm(2..16) = 720720
    hits = cg.search(ell, 16, 16, terms=8000)
    recorded = json.loads((EXPECTED / f"search-ell{ell}.json").read_text())
    assert [{"ell": c.ell, "step": c.step, "offset": c.offset,
             "modulus": c.modulus, "evidence": c.evidence,
             "rediscovers": list(c.rediscovers)}
            for c in hits] == recorded["candidates"]


@pytest.mark.parametrize("ell, terms, far", [(4, 500, 250), (8, 300, 200),
                                             (6, 400, 150), (4, 346, 7),
                                             (6, 2599, 53)])
def test_search_bound_keeps_every_candidate(ell, terms, far):
    # max_step far past terms / MIN_EVIDENCE, where no step can report.
    # The last two cases end on an odd step at the MIN_EVIDENCE edge: step
    # 7 of 346 terms reports offsets 0 to 2 only, and step 26 of 2599
    # terms reads offset 51 of step 52, which has 49 values
    hits = cg.search(ell, far, 8, terms=terms)
    assert ({(c.step, c.offset, c.modulus, c.evidence) for c in hits}
            == _search_every_progression(ell, far, 8, terms))
    assert hits == cg.search(ell, terms // (cg.MIN_EVIDENCE - 1), 8, terms=terms)
