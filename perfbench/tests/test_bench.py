"""Tests of the benchmark itself, stdlib only:

    python3 -m unittest discover -s perfbench/tests -v

The smoke runs take about a minute: one iteration of each workload,
untraced and traced.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class SmokeTest(unittest.TestCase):
    """Each workload at the shortest run length: one iteration."""

    def test_every_workload_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench("--workload", workload, "--seed", "1",
                                        "--seconds", "1", "--trace", trace)
                    self.assertEqual(code, 0, lines[-5:])
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in CONFIG[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in [*want, "verdicts", "wrong_verdicts"]:
                        self.assertTrue(any(l.split()[0] == name for l in lines),
                                        name)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            code, lines = bench("--workload", "search", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class MetricNameTest(unittest.TestCase):

    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in CONFIG[key]]
        names += [w["name"] for w in CONFIG["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_config_matches_the_harness(self):
        self.assertEqual([(m["name"], m["unit"]) for m in CONFIG["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in CONFIG["per_layer"]], list(PER_LAYER))
        self.assertEqual([w["name"] for w in CONFIG["workloads"]],
                         list(run.WORKLOADS))


class VerdictTest(unittest.TestCase):

    def test_flipped_report_is_one_wrong_verdict(self):
        reference = run.load_reference("suite")
        output = copy.deepcopy(reference)
        output["criteria"][2]["reports"][0]["status"] = "fail"
        attempted, wrong = run.count_wrong(output, reference)
        self.assertEqual(wrong, 1)
        self.assertEqual(attempted, len(run.verdicts(reference)))

    def test_offset_variant_must_fail_even_if_recorded_passing(self):
        reference = run.load_reference("suite")
        for crit in reference["criteria"]:
            for report in crit["reports"]:
                if report["name"] == "r6-iterated-alt":
                    report["status"] = "pass"
        self.assertEqual(run.count_wrong(reference, reference)[1], 1)

    def test_corrupted_verdict_fails_the_run(self):
        name, _ = run.workload_params("search", 1)
        reference = run.load_reference(name)
        reference["candidates"][0]["modulus"] += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "search", "--seed", "1",
                             "--seconds", "0"], reference)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("wrong_verdicts", out.getvalue())


class HostSpeedTest(unittest.TestCase):

    def test_times_are_scaled_by_the_calibration(self):
        def slow_host():
            time.sleep(0.01)
            return 2 * run.REFERENCE_CALIBRATION_S

        original = run.calibrate
        run.calibrate = slow_host
        try:
            result, lines = run.measure("search", 1, 0, False)
        finally:
            run.calibrate = original
        host = next(l for l in lines if l.startswith("# host speed"))
        timed = dict(part.split()[:2]
                     for part in host.split("this host: ")[1].split(", "))
        for metric in ("verdict_s", "cpu_s", "setup_s"):
            self.assertAlmostEqual(result["metrics"][metric]["value"],
                                   float(timed[metric]) / 2, places=3)


class TracerTest(unittest.TestCase):

    def test_every_binding_is_wrapped(self):
        sys.path.insert(0, str(ROOT / "src"))
        import qcong.cli  # noqa: F401  (loads every module of the package)
        originals = []
        for module, path, _, _ in tracer.TARGETS:
            owner = importlib.import_module(f"qcong.{module}")
            for part in path.split("."):
                owner = getattr(owner, part)
            originals.append(owner)
        spans = tracer.Tracer()
        tracer.install(spans)
        left = [(getattr(space, "__name__", space), key)
                for space in tracer._namespaces()
                for key, value in vars(space).items()
                if any(value is o for o in originals)]
        self.assertEqual(left, [])

        from qcong.series import Series
        f = Series([1, -1, -1, 0, 0], None)
        self.assertEqual((2 * (f * f ** -1)).coeffs, (2, 0, 0, 0, 0))
        metrics = tracer.layer_metrics(spans.spans)
        self.assertEqual(metrics["series.invert.exact.small.calls"], 1)
        self.assertEqual(metrics["series.mul.exact.small.calls"], 1)


if __name__ == "__main__":
    unittest.main()
