"""The qcong benchmark: run one workload for a fixed time, check every
verdict, and report end-to-end metrics (untraced) or per-layer metrics
(traced).

    python3 perfbench/run.py --workload suite --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Each iteration is a fresh child process (see child.py), so the series
cache starts cold as it does for every `qcong` invocation.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit,
the verdict counts and the environment.  The exit status is 0 only when
every verdict matches the recorded reference.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

from tracer import PER_LAYER  # noqa: E402  (perfbench/ is on sys.path)

END_TO_END = (("verdict_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SEARCH_ELLS = (6, 8, 16)   # near-equal cost, so the seed does not move the time
SETUP_SPAWNS = 15          # import-only children per run, for setup_s
HARD_LIMIT_S = 170.0       # a run never outlives this, whatever --seconds says
REFERENCE_CALIBRATION_S = 0.1   # calibrate() at the reference host speed
CALIBRATION_SHARE = 0.15   # of each iteration's time, spent calibrating after it
OPTIONAL_PACKAGES = ("numpy", "gmpy2", "flint", "hypothesis", "pytest",
                     "pytest_benchmark")


def workload_params(workload: str, seed: int) -> tuple[str, dict]:
    """The reference name and the inputs of a workload for a seed."""
    if workload == "suite":
        return "suite", {}
    if workload == "search":
        ell = SEARCH_ELLS[seed % len(SEARCH_ELLS)]
        return f"search-ell{ell}", {"ell": ell, "max_step": 16,
                                    "max_modulus": 16, "terms": 8000}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("suite", "search")


def load_reference(name: str):
    return json.loads((EXPECTED / f"{name}.json").read_text())


# -- verdicts -------------------------------------------------------------------


def expected_status(report: dict, recorded: dict) -> str:
    """Every report passes, except the documented offset variant, which
    must fail, and the halved claim mod 4, which keeps its recorded status."""
    if report.get("name") == "r6-iterated-alt":
        return "fail"
    if report.get("name") == "r8-halved" and report.get("modulus") == 4:
        return recorded.get("status")
    return "pass"


def verdicts(output: dict) -> list[tuple[str, dict]]:
    """Flatten a canonical output into its verdicts, in order."""
    if "candidates" in output:
        return [("candidate", c) for c in output["candidates"]]
    items = [("exit", {"exit": output["exit"]})] if "exit" in output else []
    for crit in output["criteria"]:
        items.append(("criterion",
                      {k: v for k, v in crit.items() if k != "reports"}))
        items += [("report", r) for r in crit["reports"]]
    return items


def count_wrong(output: dict, reference: dict) -> tuple[int, int]:
    """(verdicts attempted, verdicts differing from the reference)."""
    got, want = verdicts(output), verdicts(reference)
    wrong = abs(len(got) - len(want))
    for (kind, g), (_, w) in zip(got, want):
        if g != w or (kind == "report"
                      and g.get("status") != expected_status(g, w)):
            wrong += 1
    return max(len(got), len(want)), wrong


# -- child processes ----------------------------------------------------------------


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong verdict)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCONG_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # import as installed code does
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, params: dict, traced: bool, deadline: float) -> dict:
    """Run one child to completion; returns its record plus setup_s."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before a {workload} iteration")
    cmd = [sys.executable, str(HERE / "child.py"), workload,
           json.dumps(params), "1" if traced else "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} iteration exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    return record


# -- host speed -------------------------------------------------------------------


def calibrate() -> float:
    """Wall seconds of a fixed stdlib computation the program never runs:
    an interpreter loop and wide integer products, the two kinds of work
    the workloads do.  A shared host's speed drifts by up to a third over
    tens of minutes, and this timing drifts with it, so the end-to-end
    times are scaled by REFERENCE_CALIBRATION_S over its median in the run
    (see README.md, "Host speed")."""
    a, b = 3 ** 40000 | 1, 7 ** 35000 | 1
    start = time.perf_counter()
    acc = 0
    for i in range(700_000):
        acc += i * i % 7
    for _ in range(28):
        acc ^= a * b
    return time.perf_counter() - start


def calibrate_for(seconds: float, out: list) -> None:
    """Append calibrate() timings to ``out`` for about ``seconds`` (at least one)."""
    stop = time.monotonic() + seconds
    out.append(calibrate())
    while time.monotonic() < stop:
        out.append(calibrate())


# -- one run --------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "optional_importable": {name: importlib.util.find_spec(name) is not None
                                for name in OPTIONAL_PACKAGES},
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            reference=None) -> tuple[dict, list[str]]:
    """Run one workload for about ``seconds``; returns the result object
    and the human-readable lines that precede it."""
    deadline = time.monotonic() + HARD_LIMIT_S
    name, params = workload_params(workload, seed)
    if reference is None:
        reference = load_reference(name)
    calibrations = []
    begin = time.monotonic()
    setup = [spawn("setup", {}, False, deadline)["setup_s"]
             for _ in range(SETUP_SPAWNS)]
    calibrate_for(CALIBRATION_SHARE * (time.monotonic() - begin), calibrations)
    plain, tracedruns = [], []
    begin = time.monotonic()
    longest = 0.0
    while not plain or time.monotonic() - begin + longest <= seconds:
        t = time.monotonic()
        plain.append(spawn(workload, params, False, deadline))
        if traced:
            tracedruns.append(spawn(workload, params, True, deadline))
        calibrate_for(CALIBRATION_SHARE * (time.monotonic() - t), calibrations)
        longest = max(longest, time.monotonic() - t)
    setup += [r["setup_s"] for r in plain + tracedruns]

    attempted = failed = 0
    for r in plain + tracedruns:
        n, bad = count_wrong(r["output"], reference)
        attempted += n
        failed += bad
    agree = all(r["output"] == plain[0]["output"] for r in plain + tracedruns)

    def med(key, runs=plain):
        return statistics.median(r[key] for r in runs)

    lines = [f"# workload {workload} ({name}), seed {seed}, "
             f"{len(plain)} untraced + {len(tracedruns)} traced iterations, "
             f"{len(setup)} set-ups",
             "# environment " + json.dumps(environment(), sort_keys=True)]
    if traced:
        metrics = {}
        for metric, unit, _ in PER_LAYER:
            if metric == "trace.overhead_s":
                value = med("verdict_s", tracedruns) - med("verdict_s")
            else:
                value = statistics.median(r["layers"][metric]
                                          for r in tracedruns)
            metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"traced verdict_s {med('verdict_s', tracedruns)} s, "
                     f"untraced {med('verdict_s')} s")
    else:
        raw = {"verdict_s": med("verdict_s"), "cpu_s": med("cpu_s"),
               "setup_s": statistics.median(setup)}
        host = statistics.median(calibrations)
        scale = REFERENCE_CALIBRATION_S / host
        values = {m: v * scale for m, v in raw.items()}
        values["peak_rss_mb"] = med("peak_rss_mb")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        lines.append(f"# host speed: calibrate() median {host:.4f} s over "
                     f"{len(calibrations)} samples, reference "
                     f"{REFERENCE_CALIBRATION_S} s; times below are scaled by "
                     f"{scale:.4f}; as timed on this host: "
                     + ", ".join(f"{m} {v:.4f} s" for m, v in raw.items()))
    width = max(len(m) for m in [*metrics, "wrong_verdicts"]) + 2
    lines += [f"{m:<{width}}{v['value']:<24} {v['unit']}"
              for m, v in metrics.items()]
    lines += [f"{'verdicts':<{width}}{attempted:<24} count",
              f"{'wrong_verdicts':<{width}}{failed:<24} count"]
    if not agree:
        lines.append("# outputs differ between iterations"
                     + (" (traced vs untraced)" if traced else ""))
    result = {"correct": failed == 0 and agree, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None, reference=None) -> int:
    """Command-line entry; ``reference`` replaces the recorded outputs
    (the benchmark's tests pass a corrupted one)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcong" / "__init__.py").is_file():
        print(f"error: no qcong sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
