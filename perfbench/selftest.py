"""Self-test of the benchmark with short runs (about a minute).

Run from the repository root:  python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that every output check passes and no op fails, that one seed gives the same op list
twice and another seed a different one, and that the command line prints
the result object as its last line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[1]
failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_result(result: dict, declared: list[dict], label: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(result["correct"] is True and result["attempted"] >= 1,
          f"{label}: outputs correct, {result['attempted']} attempted")
    check(result["failed"] == 0, f"{label}: no op failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{label}: every declared metric present with its unit")
    check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
          f"{label}: every value is a float")


def main() -> int:
    run.import_program()
    import workloads as wls

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    check(sorted(names) == sorted(wls.WORKLOADS), "BENCHMARK.json lists every workload")

    for name in names:
        wl = wls.load_workload(name)
        n = len(wl.pool) + len(wl.lead) + 5

        def keys(seed):
            seq = wls.op_sequence(wl, seed)
            return [next(seq).key for _ in range(n)]

        check(keys(1) == keys(1), f"{name}: same seed, same op list")
        check(keys(1) != keys(2), f"{name}: other seed, other op list")

        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = run.measure(name, seed=1, seconds=0.01, trace=trace,
                              setup_runs=2, min_ops=1, write=False)
            check_result(out["result"], declared, f"{name} trace={trace}")

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    check(proc.returncode == 0, "command line exits with 0")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check_result(last, bench["end_to_end"], "command line")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
