"""Acceptance gate: the twelve-criterion suite, one test per criterion.

The suite is computed once per session (criterion order warms the
series cache, so the whole run stays fast).  Run with -s to see the
per-criterion summary lines; each test also fails loudly with the
offending reports.
"""

import json
import sys
from pathlib import Path

import pytest

from qcong import congruence, counting, qfunctions, suite
from qcong.series import EtaQuotient

RECORDED = Path(__file__).resolve().parent.parent / "perfbench/expected/suite.json"


@pytest.fixture(scope="module")
def suite_run():
    # the criteria and every base series they built, from a cold cache
    congruence.clear_cache()
    out = {res.number: res for res in suite.run_all()}
    assert sorted(out) == list(range(1, 13))
    return out, dict(congruence._CACHE)


@pytest.fixture(scope="module")
def results(suite_run):
    return suite_run[0]


def _check(results, number):
    res = results[number]
    verdict = "PASS" if res.passed else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {verdict} - {res.title}")
    for note in res.notes:
        print(f"    note: {note}")
    if not res.passed:
        failing = [f"{r.describe()}: {r.counterexamples[:3]}"
                   for r in res.reports if not r.passed]
        pytest.fail(f"criterion {number} ({res.title}) failed:\n"
                    + "\n".join(failing))


def test_criterion_01_oracle_vs_series(results):
    _check(results, 1)
    # 27 pairings: three unparametrized kinds + three ell kinds x eight ells
    assert len(results[1].reports) == 27
    assert all(r.terms_checked == 301 for r in results[1].reports)


def test_criterion_02_anchors_and_classical_congruences(results):
    _check(results, 2)


def test_criterion_02_builds_no_deep_oracle_table(monkeypatch):
    # the anchors read the oracles at n = 3; p(n) to 3306 comes from the
    # 1/f1 series, so the quadratic DP table must not come back
    seen = []
    real = counting.count

    def spy(kind, upto):
        seen.append(upto)
        return real(kind, upto)

    monkeypatch.setattr(counting, "count", spy)
    assert suite.criterion_2().passed
    assert seen and max(seen) <= 3


def test_criterion_03_identity_catalog(results):
    _check(results, 3)
    assert len(results[3].reports) == 26


def test_criterion_04_ell4_families(results):
    _check(results, 4)


def test_criterion_05_ell5k_families(results):
    _check(results, 5)


def test_criterion_06_ell6_nine_adic(results):
    _check(results, 6)
    # the misprinted offset variant must be present and failing
    alt = [r for r in results[6].reports if r.name == "r6-iterated-alt"]
    assert len(alt) == 1 and alt[0].status == "fail"


def test_criterion_07_ell6_prime_family(results):
    _check(results, 7)


def test_criterion_08_ell8_fixed(results):
    _check(results, 8)


def test_criterion_09_ell8_prime_and_halved(results):
    _check(results, 9)
    halved = {r.modulus: r for r in results[9].reports
              if r.name == "r8-halved"}
    assert halved[2].passed    # forced by the parity argument
    assert 4 in halved         # stronger printed form: outcome recorded


def test_criterion_10_exact_convolutions(results):
    _check(results, 10)


def test_criterion_11_proof_internal_congruences(results):
    _check(results, 11)
    assert len(results[11].reports) == 8


def test_criterion_12_search_rediscovery(results):
    _check(results, 12)


def test_modular_bases_times_phi_are_f_ell(suite_run):
    # rstar(ell) phi(-q) = f_ell: each modular base the suite built, at
    # its full built order, checked by a product, a path that did not
    # build it (the mod-4 bases and r10 mod 2 divide by the closed-form
    # lift of 1/phi(-q), the mod-8 base by its Newton inverse, r5 and
    # r15 mod 2 are f5 and f15 by folding f2 into f1^2, r6 mod 3 is
    # psi(q)^2, whose product with phi(-q) is f6 only mod 3, and
    # criterion 12's searches read r4 mod lcm(2..4) = 12, f4 times the
    # Newton inverse of phi(-q), and r8 mod lcm(2..8) = 840, f8 divided
    # by phi(-q) in the recurrence)
    built = {}
    for (factors, m), base in suite_run[1].items():
        if m is None:
            continue
        ell = factors[-1][0]
        assert EtaQuotient(factors) == EtaQuotient.rstar(ell)
        built[ell, m] = base.order
        # residues mod m <= 256 are held one byte a coefficient, and
        # residues mod a wider m in a tuple
        if m <= 256:
            assert (sys.getsizeof(base.coeffs) - sys.getsizeof(b"")
                    == base.order)
        else:
            assert type(base.coeffs) is tuple
        phi = qfunctions.general_theta(1, 1, base.order, -1).reduce_mod(m)
        assert (base * phi
                == qfunctions.euler_product(ell, base.order).reduce_mod(m))
    assert built == {(4, 4): 8004, (5, 2): 10002, (5, 4): 10004,
                     (10, 2): 10002, (10, 4): 10004, (15, 2): 10002,
                     (15, 4): 10004, (8, 4): 32014, (8, 8): 16008,
                     (6, 3): 146469, (4, 12): 1001, (8, 840): 1001}


def _without_seconds(value):
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items()
                if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


def test_suite_json_matches_recorded_verdicts(results):
    # the canonical JSON of verify-all may change only in its timings
    got = json.loads(json.dumps([results[n].to_json_dict()
                                 for n in sorted(results)]))
    recorded = json.loads(RECORDED.read_text())["criteria"]
    assert _without_seconds(got) == recorded


def test_criterion_12_alone_matches_the_suite(results):
    # search output must not depend on what earlier criteria cached
    congruence.clear_cache()
    alone = suite.run_criterion(12)
    assert (_without_seconds(alone.to_json_dict())
            == _without_seconds(results[12].to_json_dict()))
