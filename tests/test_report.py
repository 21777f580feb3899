"""The one verdict path: every comparison becomes a report via check."""

from qcong import counting, qfunctions, suite
from qcong.report import MAX_RECORDED_COUNTEREXAMPLES, check
from qcong.series import EtaQuotient, Series


def test_passing_report_has_no_total_and_no_reason():
    r = check("same", [1, 2, 3], (1, 2, 3), 3, None, params={"x": 1})
    assert r.passed and r.terms_checked == 3 and r.counterexamples == []
    d = r.to_json_dict()
    assert "reason" not in d and "detail" not in d
    r = suite._oracle_vs_series(counting.PLAIN_P, 40)
    assert r.passed and "counterexample_total" not in r.detail
    assert "reason" not in r.to_json_dict()


def test_check_keeps_the_first_disagreements_and_counts_all():
    r = check("off", [1] * 9, [0] * 9, 9, 4, progression=(2, 1))
    assert r.status == "fail"
    assert r.counterexamples == [(i, 1, 0) for i in range(5)]
    assert r.detail == {"counterexample_total": 9}
    # only the first few are kept, so a total is recorded only past them
    r = check("off", [1] * 5, [0] * 5, 5, 4)
    assert len(r.counterexamples) == 5 and r.detail == {}


def test_side_condition_fails_an_agreeing_comparison():
    r = check("side", [1, 2], [1, 2], 2, None, {"note": 1}, ok=False)
    assert r.status == "fail" and r.counterexamples == []
    assert r.detail == {"note": 1}


def test_reported_modulus_may_differ_from_the_compared_one():
    # halved claims compare mod 2m but state mod m: 3 and 1 agree mod 2
    r = check("halved", [2, 3], [2, 1], 2, 4, modulus=2)
    assert r.modulus == 2 and r.counterexamples == [(1, 3, 1)]


def test_failing_oracle_vs_series_records_the_total(monkeypatch):
    # p(n) against the coefficients of 1/f1^2: they differ for every n >= 1
    monkeypatch.setattr(suite, "_quotient_for",
                        lambda kind: EtaQuotient([(1, -2)]))
    r = suite._oracle_vs_series(counting.PLAIN_P, 30)
    assert r.status == "fail"
    assert len(r.counterexamples) == MAX_RECORDED_COUNTEREXAMPLES
    assert r.detail["counterexample_total"] == 30


def test_failing_partition_congruence_records_the_total(monkeypatch):
    real = qfunctions.eta_quotient

    def off_by_one(factors, order, modulus=None):
        series = real(factors, order, modulus)
        if factors != EtaQuotient([(1, -1)]):
            return series
        return Series([c + 1 for c in series.coeffs], modulus)

    monkeypatch.setattr(qfunctions, "eta_quotient", off_by_one)
    result = suite.criterion_2()
    progressions = [r for r in result.reports
                    if r.name == "plain-partition-congruence"]
    assert not result.passed and len(progressions) == 3
    for r in progressions:
        # p(step n + offset) + 1 == 1 mod m for every n
        assert r.status == "fail"
        assert r.counterexamples[0] == (0, 1, 0)
        assert len(r.counterexamples) == MAX_RECORDED_COUNTEREXAMPLES
        assert r.detail["counterexample_total"] == 301


def test_failing_oracle_fails_exactly_the_anchors(monkeypatch):
    real = counting.count

    def off_by_one(kind, upto):
        return tuple(v + 1 for v in real(kind, upto))

    monkeypatch.setattr(counting, "count", off_by_one)
    result = suite.criterion_2()
    failing = [r for r in result.reports if not r.passed]
    assert not result.passed and len(failing) == 3
    assert all(r.name == "anchor" for r in failing)
