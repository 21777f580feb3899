"""The package's value types: named tuples that keep their fields,
defaults, validation, immutability, equality, hash and repr, and an
import that loads only what runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcong import counting, qfunctions, suite
from qcong.congruence import (Candidate, CongruenceClaim, Progression,
                              _Progressions)
from qcong.report import VerificationReport
from qcong.series import EtaQuotient

SRC = Path(qfunctions.__file__).resolve().parent.parent


def test_import_loads_only_what_runs():
    # -S keeps site's own imports (typing among them, on some installs)
    # out of the check; module membership is deterministic, a timing is not
    code = ("import sys, qcong, qcong.cli, qcong.suite; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == ""


FROZEN = {
    "EtaQuotient": lambda: EtaQuotient([(1, -2), (2, 1), (6, 1)]),
    "PartitionKind": lambda: counting.PartitionKind("l-regular", 3),
    "Progression": lambda: Progression(9, 5),
    "CongruenceClaim": lambda: CongruenceClaim(
        "r6-iterated", (("alpha", 1),), 6, Progression(27, 20), 3, "SELF"),
    "_Progressions": lambda: _Progressions(
        ell=6, modulus=3, rhs="SELF", b=1, mult=1, div=4, p=3),
    "Candidate": lambda: Candidate(4, 4, 2, 4, 200, ("r4-fixed",)),
    "Identity": lambda: qfunctions.Identity(
        *qfunctions.IDENTITIES["f1sq-2diss"]),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_value_semantics(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    first = a._fields[0]
    assert a != a._replace(**{first: object()})
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == f"{name}(" + ", ".join(
        f"{f}={getattr(a, f)!r}" for f in a._fields) + ")"


def test_defaults_and_validation():
    for bad in ((0, 1), (1, -1)):
        with pytest.raises(ValueError):
            Progression(*bad)
    assert _Progressions(4, 4, "ZERO", 4, 7, 6)[6:] == (0, (0,), None, 0, 0)
    assert qfunctions.Identity("t", "s", 1, ()).judge is None
    # a new dict or list per instance, never one shared default
    r, s = VerificationReport("r"), VerificationReport("s")
    assert r.params == {} and r.counterexamples == [] and r.detail == {}
    assert r.params is not s.params and r.detail is not s.detail
    assert r.counterexamples is not s.counterexamples
    assert (r.status, r.terms_checked, r.seconds) == ("pass", 0, 0.0)
    c, d = suite.CriterionResult(1, "a", True), suite.CriterionResult(2, "b", True)
    assert c.reports == c.notes == [] and c.reports is not d.reports
