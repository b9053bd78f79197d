"""Regenerate the golden outputs in perfbench/golden/ from the current program.

Run from the repository root:  python3 perfbench/make_golden.py [workload ...]

Run it only when a pool definition in workloads.py changes, or when a
change to the program is meant to change results; say why in the commit.
Key-door trials run at the raised recursion limit of their ops, so the
golden value is the answer the program should give.  Every
audit made through ppabt.verify (by learn, sweep and verify ops) is also
re-done with the independent reference evaluator.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as wls  # noqa: E402


def build(name: str) -> dict:
    build_pool, lead = wls.WORKLOADS[name]
    with wls.reference_checked_audits() as counts:
        items = [{"key": op.key, "out": op.run()} for op in build_pool()]
        lead_out = {op.key: op.run() for op in lead}
    if counts[1]:
        raise AssertionError(f"{name}: evaluate and evaluate_reference disagree "
                             f"on {counts[1]} of {counts[0]} audits")
    return {"workload": name, "lead": lead_out, "items": items}


def main(argv: list[str]) -> int:
    for name in argv or list(wls.WORKLOADS):
        t0 = time.perf_counter()
        data = build(name)
        path = wls.GOLDEN_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=0) + "\n")
        print(f"{name}: {len(data['items'])} ops in {time.perf_counter() - t0:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
