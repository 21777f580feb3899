"""One measured iteration of a qcong benchmark workload, in a fresh process.

Usage: child.py WORKLOAD PARAMS_JSON TRACE

Imports the whole package, marks the moment it is ready for the first
call, runs the workload once through the package's public functions or
CLI, and prints one JSON line: the ready time on the monotonic clock
(comparable with the parent's), the wall and CPU seconds of the call, the
peak resident memory, the canonical output and, when TRACE is 1, the
per-layer metrics.  WORKLOAD "setup" stops after the ready mark.
"""

import sys
import time

import qcong
import qcong.cli
import qcong.suite

READY = time.monotonic()

import contextlib  # noqa: E402  (kept out of the set-up measurement)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def without_seconds(value):
    """Drop every "seconds" field: timings are the only part of the
    program's JSON allowed to change from run to run."""
    if isinstance(value, dict):
        return {k: without_seconds(v) for k, v in value.items()
                if k != "seconds"}
    if isinstance(value, list):
        return [without_seconds(v) for v in value]
    return value


def run_suite(params):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qcong.cli.main(["verify-all", "--format", "json"])
    return code, buf.getvalue()


def canon_suite(raw):
    code, text = raw
    return {"exit": code, "criteria": without_seconds(json.loads(text))}


def run_search(params):
    return qcong.congruence.search(params["ell"], params["max_step"],
                                   params["max_modulus"], terms=params["terms"])


def canon_search(raw):
    return {"candidates": [
        {"ell": c.ell, "step": c.step, "offset": c.offset,
         "modulus": c.modulus, "evidence": c.evidence,
         "rediscovers": list(c.rediscovers)} for c in raw]}


WORKLOADS = {
    "suite": (run_suite, canon_suite),
    "search": (run_search, canon_search),
}


def main(argv):
    workload, params, traced = argv[0], json.loads(argv[1]), argv[2] == "1"
    src = os.path.join(os.getcwd(), "src", "qcong")
    if os.path.dirname(os.path.abspath(qcong.__file__)) != src:
        print(f"qcong imported from {qcong.__file__}, expected {src}",
              file=sys.stderr)
        return 2
    if workload == "setup":
        print(json.dumps({"ready": READY}))
        return 0
    run, canon = WORKLOADS[workload]
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    c0 = time.process_time()
    t0 = time.perf_counter()
    raw = run(params)
    t1 = time.perf_counter()
    c1 = time.process_time()
    result = {
        "ready": READY,
        "verdict_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output": canon(raw),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
