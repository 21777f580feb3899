"""CLI surface: argument handling, output formats, exit codes."""

import json

import pytest

from qcong import cli
from qcong.suite import CriterionResult


def run(argv):
    return cli.main(argv)


def test_expand_sparse_example(capsys):
    assert run(["expand", "--eta", "1:1", "--order", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 1", "1 -1", "2 -1", "5 1", "7 1"]


def test_expand_dense_and_modulus(capsys):
    assert run(["expand", "--eta", "1:1", "--order", "6", "--dense",
                "--modulus", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 1", "1 4", "2 4", "3 0", "4 0", "5 1"]


def test_expand_json_roundtrip(capsys):
    assert run(["expand", "--eta", "2:1,1:-2", "--order", "6",
                "--format", "json"]) == 0
    blob = capsys.readouterr().out.strip()
    assert blob == "[1,2,4,8,14,24]"
    assert json.dumps(json.loads(blob), separators=(",", ":")) == blob


def test_expand_bad_eta(capsys):
    assert run(["expand", "--eta", "not-a-spec", "--order", "8"]) == 2
    assert "bad --eta" in capsys.readouterr().err


@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_expand_bad_modulus(capsys, modulus):
    assert run(["expand", "--eta", "1:1", "--order", "8",
                "--modulus", modulus]) == 2
    assert "--modulus must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["expand", "--eta", "1:1", "--order", "1000000000"],
    ["count", "--kind", "plain", "--upto", "10001"],
    ["search", "--ell", "4", "--terms", "200001"],
    ["verify-lemma", "--id", "psi-3diss", "--order", "200001"],
    ["search", "--ell", "4", "--max-step", "200001"],
    ["verify-lemma", "--id", "psi-pdiss", "--p", "1000003"],
    ["verify-lemma", "--id", "phi-sqdiss", "--n", "1001"],
    ["expand", "--order", "500", "--eta", "2:1,1:-1000000000"],
])
def test_size_guard(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    # dissection parameters, exponents and count's quadratic DP have
    # their own, smaller guards
    guard = (1000 if argv[-2] in ("--p", "--n", "--eta")
             else 10000 if argv[0] == "count" else 200000)
    assert f"exceeds the size guard {guard}" in capsys.readouterr().err


def test_count_rstar_example(capsys):
    assert run(["count", "--kind", "rstar", "--ell", "2", "--upto", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 1", "1 2", "2 3", "3 6"]
    assert out[-1] == "3 6"


def test_count_alias_matches_full_name(capsys):
    assert run(["count", "--kind", "nonoverlined-l-regular", "--ell", "2",
                "--upto", "3"]) == 0
    full = capsys.readouterr().out
    assert run(["count", "--kind", "rstar", "--ell", "2", "--upto", "3"]) == 0
    assert capsys.readouterr().out == full


def test_count_requires_ell(capsys):
    assert run(["count", "--kind", "rstar", "--upto", "3"]) == 2
    assert "requires --ell" in capsys.readouterr().err


@pytest.mark.parametrize("kind,ell", [("plain", "5"), ("overpartition", "-3"),
                                      ("distinct-two-copies", "2")])
def test_count_refuses_an_ell_its_kind_ignores(capsys, kind, ell):
    assert run(["count", "--kind", kind, "--ell", ell, "--upto", "3"]) == 2
    assert f"{kind} takes no ell parameter" in capsys.readouterr().err


def test_count_json(capsys):
    assert run(["count", "--kind", "overpartition", "--upto", "3",
                "--format", "json"]) == 0
    assert capsys.readouterr().out.strip() == "[1,2,4,8]"


def test_verify_lemma_single(capsys):
    assert run(["verify-lemma", "--id", "psi-pdiss", "--p", "5",
                "--order", "80"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_lemma_all(capsys):
    assert run(["verify-lemma", "--all", "--order", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 26 and "FAIL" not in out


def test_verify_lemma_unknown_id(capsys):
    assert run(["verify-lemma", "--id", "nope"]) == 2
    assert "unknown identity" in capsys.readouterr().err


def test_verify_lemma_needs_id_or_all(capsys):
    assert run(["verify-lemma"]) == 2


def test_verify_theorem_pass_and_json(capsys):
    assert run(["verify-theorem", "--family", "r4-fixed",
                "--terms", "100", "--format", "json"]) == 0
    blob = capsys.readouterr().out.strip()
    parsed = json.loads(blob)
    assert len(parsed) == 2
    assert all(item["status"] == "pass" for item in parsed)
    # canonical form: parse + re-serialize is byte-identical
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == blob
    # proof-internal congruences are families like any other
    assert run(["verify-theorem", "--family", "r8-2n1-exact",
                "--terms", "100", "--format", "json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["name"] == "r8-2n1-exact" and report["status"] == "pass"


def test_verify_theorem_failure_exit(capsys):
    assert run(["verify-theorem", "--family", "r6-iterated-alt",
                "--alpha", "1", "--terms", "60"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_theorem_eligibility_exit(capsys):
    assert run(["verify-theorem", "--family", "r4-prime-series",
                "--p", "11", "--alpha", "0"]) == 2
    assert "requires p >= 13" in capsys.readouterr().err


def test_verify_theorem_order_guard_exit(capsys):
    assert run(["verify-theorem", "--family", "r4-prime-series",
                "--p", "13", "--alpha", "0", "--max-order", "1000"]) == 2
    assert "max-order guard" in capsys.readouterr().err


def test_search_text_output(capsys):
    assert run(["search", "--ell", "4", "--max-step", "4",
                "--max-modulus", "4", "--terms", "300"]) == 0
    out = capsys.readouterr().out
    assert "a(4n+2) == 0 mod 4" in out and "r4-fixed" in out


def test_search_json(capsys):
    assert run(["search", "--ell", "4", "--max-step", "4",
                "--max-modulus", "4", "--terms", "300",
                "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    found = {(c["step"], c["offset"]) for c in parsed if c["rediscovers"]}
    assert found == {(4, 2), (4, 3)}


def test_output_file(tmp_path):
    target = tmp_path / "coeffs.txt"
    assert run(["expand", "--eta", "1:1", "--order", "8",
                "--output", str(target)]) == 0
    assert target.read_text().splitlines() == ["0 1", "1 -1", "2 -1",
                                               "5 1", "7 1"]


def _fake_results(all_pass):
    return [CriterionResult(1, "stub a", True),
            CriterionResult(2, "stub b", all_pass)]


def test_verify_all_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(cli.suite, "run_all", lambda: _fake_results(True))
    assert run(["verify-all"]) == 0
    assert "OVERALL PASS" in capsys.readouterr().out
    monkeypatch.setattr(cli.suite, "run_all", lambda: _fake_results(False))
    assert run(["verify-all"]) == 1
    assert "OVERALL FAIL" in capsys.readouterr().out


def test_verify_all_json(monkeypatch, capsys):
    monkeypatch.setattr(cli.suite, "run_all", lambda: _fake_results(True))
    assert run(["verify-all", "--format", "json"]) == 0
    blob = capsys.readouterr().out.strip()
    parsed = json.loads(blob)
    assert [c["number"] for c in parsed] == [1, 2]
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == blob


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
