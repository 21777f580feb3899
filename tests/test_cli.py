"""CLI surface: argument handling, output formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcong import cli, congruence
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
    # canonical form for every command: parse + re-serialize is identical
    for argv in (["expand", "--eta", "2:1,1:-2", "--order", "6"],
                 ["count", "--kind", "overpartition", "--upto", "20"],
                 ["search", "--ell", "8", "--max-step", "8",
                  "--max-modulus", "8"]):
        assert run(argv + ["--format", "json"]) == 0
        blob = capsys.readouterr().out
        assert blob.endswith("\n") and blob.count("\n") == 1
        parsed = json.loads(blob)
        assert parsed
        assert json.dumps(parsed, sort_keys=True,
                          separators=(",", ":")) == blob[:-1]


def test_expand_serialization_forms(capsys):
    # sparse text drops the zero coefficients; dense text and JSON keep
    # them, and the negative ones, in place
    argv = ["expand", "--eta", "1:1", "--order", "8"]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 1", "1 -1", "2 -1", "5 1", "7 1"]
    assert run(argv + ["--dense"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 1", "1 -1", "2 -1", "3 0", "4 0", "5 1", "6 0", "7 1"]
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == "[1,-1,-1,0,0,1,0,1]\n"


def test_expand_bad_eta(capsys):
    assert run(["expand", "--eta", "not-a-spec", "--order", "8"]) == 2
    assert "bad --eta" in capsys.readouterr().err


@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_expand_bad_modulus(capsys, modulus):
    with pytest.raises(SystemExit) as exc:
        run(["expand", "--eta", "1:1", "--order", "8", "--modulus", modulus])
    assert exc.value.code == 2
    assert "--modulus must be >= 1" in capsys.readouterr().err


def test_expand_modulus_is_capped(capsys):
    # coefficient slots widen with the modulus's bits, so it has a size
    # guard like every other series-allocating option
    argv = ["expand", "--eta", "1:-1", "--order", "8", "--modulus"]
    assert run(argv + [str(2**64)]) == 0
    assert capsys.readouterr().out.startswith("0 1\n1 1\n2 2\n")
    with pytest.raises(SystemExit) as exc:
        run(argv + [str(2**64 + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the size guard {2**64}" in captured.err


def test_exact_expand_guards_order_times_exponents(capsys):
    # exact coefficients widen with order and exponents alike, so their
    # product is capped; a modulus keeps them small and lifts the cap
    argv = ["expand", "--eta", "2:1,1:-999", "--order"]
    assert run(argv + ["200"]) == 0
    assert capsys.readouterr().out.startswith("0 1\n1 999\n")
    assert run(argv + ["201"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the size guard 200000" in captured.err
    assert run(argv + ["5000", "--modulus", "7"]) == 0
    assert capsys.readouterr().out.startswith("0 1\n1 5\n")


@pytest.mark.parametrize("argv", [
    ["expand", "--eta", "1:1", "--order", "1000000000"],
    ["count", "--kind", "plain", "--upto", "10001"],
    ["search", "--ell", "4", "--terms", "200001"],
    ["verify-lemma", "--id", "psi-3diss", "--order", "200001"],
    ["search", "--ell", "4", "--max-step", "200001"],
    ["verify-lemma", "--id", "psi-pdiss", "--p", "1000003"],
    ["verify-lemma", "--id", "phi-sqdiss", "--n", "1001"],
    ["expand", "--order", "500", "--eta", "2:1,1:-1000000000"],
    ["verify-theorem", "--family", "r4-fixed", "--terms", "200001"],
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


@pytest.mark.parametrize("param", [["--p", "5"], ["--n", "3"]],
                         ids=["p", "n"])
def test_verify_lemma_all_refuses_a_parameter(capsys, param):
    # --all runs every identity at its default parameters, so a given
    # --p or --n would be ignored
    assert run(["verify-lemma", "--all", "--order", "30", *param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--all takes no --p or --n" in captured.err


def test_verify_lemma_all_refuses_id(capsys):
    # --all runs the whole catalog, so a given --id would be ignored
    with pytest.raises(SystemExit) as exc:
        run(["verify-lemma", "--all", "--id", "no-such-tag", "--order", "30"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --id: not allowed with argument --all" in captured.err


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
    # a(676n+197) needs base order 337522, refused before any build
    congruence.clear_cache()
    assert run(["verify-theorem", "--family", "r4-prime-series",
                "--p", "13", "--alpha", "1"]) == 2
    assert "max-order guard 200000" in capsys.readouterr().err
    assert not congruence._CACHE


def test_verify_theorem_guard_cannot_be_raised(capsys):
    # r6-iterated at alpha 2 and 10000 terms needs base order 809940
    congruence.clear_cache()
    argv = ["verify-theorem", "--family", "r6-iterated", "--alpha", "2",
            "--terms", "10000"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--max-order", "100000000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-order" in capsys.readouterr().err
    assert run(argv) == 2
    assert "max-order guard 200000" in capsys.readouterr().err
    assert not congruence._CACHE


def test_verify_theorem_terms_at_least_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-theorem", "--family", "r4-fixed", "--terms", "0"])
    assert exc.value.code == 2
    assert "--terms must be >= 1" in capsys.readouterr().err


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


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "coeffs.txt"
    assert run(["expand", "--eta", "1:1", "--order", "5",
                "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_closed_pipe_exits_quietly():
    # about 2 MB of output, more than a pipe holds: the reader takes one
    # line and closes, and the command still exits with its own verdict
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcong.cli", "expand", "--eta", "1:-1",
         "--order", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"0 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


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
