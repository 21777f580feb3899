"""Record the reference outputs the benchmark checks verdicts against.

    python3 perfbench/record.py

Runs every workload input once (each `search` ell included) on the
current sources and writes expected/<name>.json.  Re-record only when a
change to the program's output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import time

from run import EXPECTED, HARD_LIMIT_S, SEARCH_ELLS, WORKLOADS, spawn, workload_params


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        seeds = range(len(SEARCH_ELLS)) if workload == "search" else (0,)
        for seed in seeds:
            name, params = workload_params(workload, seed)
            record = spawn(workload, params, False,
                           time.monotonic() + HARD_LIMIT_S)
            path = EXPECTED / f"{name}.json"
            path.write_text(json.dumps(record["output"], indent=1,
                                       sort_keys=True) + "\n")
            print(f"wrote {path.name} ({record['verdict_s']:.2f} s)")


if __name__ == "__main__":
    main()
