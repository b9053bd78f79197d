"""Benchmark of the mission-to-behavior-tree pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads (see BENCHMARK.json and workloads.py): ``learn``, ``verify``,
``sweep`` and ``keydoor_long``.  One process, one caller, closed loop: the
next op starts when the previous one has returned and been checked.
The process stays on whichever vCPU a short probe finds least loaded
(``CpuPicker``); the probes are not counted in the op loop's time.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs every op twice, traced and untraced, reports the
per-layer metrics from the traced runs and the tracing overhead from the
ratio of the two, counts node ticks in a pass of its own, re-audits every
successful verify trace with the reference evaluator, times the
memoized evaluator against the reference one, and re-runs the key-door ops
at the interpreter's default recursion limit to count the ones that fail
there (untraced ops run at a raised limit; see workloads.py).  Layers a workload never
calls are timed on one typical op of each other workload; the report file
lists those metrics under ``probed``, as they are not this workload's own.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run metadata, failure counts and all metrics are also written to
``perfbench/out/<workload>.trace<0|1>.json``, and spans of a traced run to
``perfbench/out/<workload>.spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 9      # fresh set-up processes per run, split around the op loop
MIN_OPS = 100       # so that at least 10 ops lie beyond op_p90_ms
PICK_EVERY_S = 0.5  # how often the op loop re-picks its vCPU
NODE_TICK_OPS = 20  # ops in the node-tick counting pass of a traced run


def import_program():
    """Import ppabt from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ppabt
    except ImportError as err:
        raise SystemExit(f"error: cannot import ppabt from {ROOT / 'src'}: {err}")
    if Path(ppabt.__file__).resolve().parent != ROOT / "src" / "ppabt":
        raise SystemExit(f"error: ppabt was imported from {ppabt.__file__}, "
                         f"not from {ROOT / 'src'}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print 'ready', exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Context: set-up time, calibration, metadata

def calibration_s(n: int = 300_000) -> float:
    """Time of a fixed pure-Python loop; shows host-speed drift in a run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class CpuPicker:
    """Keeps this process on the allowed vCPU that a short probe finds fastest.

    Load from outside the process slows each vCPU by up to 2x for seconds at
    a time, and the vCPUs slow down at different times.  Running on the
    faster one, re-probed every PICK_EVERY_S at op boundaries, halved the
    run-to-run spread of ops/s on sweep and keydoor_long on a 2-vCPU host.
    Child processes inherit the choice.  With one vCPU it does nothing.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -float("inf")
        self.probe_s = 0.0   # time spent probing, left out of the op loop's time
        self.probes = 0

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        t0 = time.perf_counter()
        timed = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timed.append((calibration_s(40_000), cpu))
        os.sched_setaffinity(0, {min(timed)[1]})
        self.last = time.perf_counter()
        self.probe_s += self.last - t0
        self.probes += 1

    def maybe_pick(self) -> None:
        if time.perf_counter() - self.last >= PICK_EVERY_S:
            self.pick()

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def setup_seconds(workload: str, seed: int, runs: int, cpu: CpuPicker) -> list[float]:
    """Process start to first op, for ``runs`` fresh processes in turn."""
    times = []
    for _ in range(runs):
        cpu.pick()
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up run exited with code {code}")
        times.append(elapsed)
    return times


def metadata(seed: int) -> dict:
    import numpy

    src = ROOT / "src" / "ppabt"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Op loop

class Tally:
    """Outcome of every op attempted in a loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ok = 0
        self.failures: Counter = Counter()   # exception type or "wrong output"
        self.wrong = 0
        self.keys: list[str] = []

    def add(self, key: str, seconds: float, outcome: str | None) -> None:
        self.keys.append(key)
        self.latencies.append(seconds)
        if outcome is None:
            self.ok += 1
        else:
            self.failures[outcome] += 1
            self.wrong += outcome == "wrong output"

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def run_checked(wl, op, call=None) -> tuple[float, str | None]:
    """Time one op; the output check runs after the clock stops."""
    t0 = time.perf_counter()
    try:
        out = call() if call is not None else op.run()
    except Exception as err:  # a failing op is counted by type, and the loop goes on
        return time.perf_counter() - t0, type(err).__name__
    elapsed = time.perf_counter() - t0
    return elapsed, None if wl.check(op, out) else "wrong output"


def untraced_loop(wl, seq, seconds: float, cpu: CpuPicker,
                  min_ops: int = MIN_OPS) -> tuple[Tally, float]:
    """Run the lead ops, then whole passes over the pool until at least
    ``min_ops`` ops are done, ending on the pass boundary nearest to
    ``seconds``, so that every run times the same ops in the same
    proportions.  The loop's time leaves out the vCPU probes."""
    tally = Tally()
    probe_s = cpu.probe_s
    t_start = time.perf_counter()
    while True:
        cpu.maybe_pick()
        op = next(seq)
        tally.add(op.key, *run_checked(wl, op))
        passes, rest = divmod(tally.attempted - len(wl.lead), len(wl.pool))
        if passes and not rest and tally.attempted >= min_ops:
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * elapsed / passes >= seconds:
                break
    return tally, time.perf_counter() - t_start - (cpu.probe_s - probe_s)


def percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) < 2:
        return 1e3 * latencies[0]
    return 1e3 * statistics.quantiles(latencies, n=100)[q - 1]


def end_to_end(tally: Tally, loop_s: float, setups: list[float],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    n = tally.attempted
    lat = tally.latencies
    p90 = percentile_ms(lat, 90)
    beyond = sum(1e3 * x > p90 for x in lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups, before and after the op loop"),
        "ops_per_s": (tally.ok / loop_s, "ops/s", f"{tally.ok} ok ops in {loop_s:.1f} s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms", f"n={n}"),
        "op_p90_ms": (p90, "ms", f"n={n}, {beyond} beyond"),
        "ok_frac": (tally.ok / n, "ratio", f"{tally.ok} of {n}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the op loop"),
    }
    lines = [f"{k:<14} {v:>12.6g} {u:<6} ({note})" for k, (v, u, note) in metrics.items()]
    lines.insert(5, f"{'fail_frac':<14} {tally.failed / n:>12.6g} {'ratio':<6} "
                    f"({tally.failed} of {n}: {dict(tally.failures)})")
    if beyond < 10:
        lines.append(f"warning: only {beyond} ops beyond op_p90_ms; run longer")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


# ---------------------------------------------------------------------------
# Traced run

def traced_loop(wl, seq, seconds: float, tracer, cpu: CpuPicker) -> tuple[Tally, float]:
    """Run every op twice back to back, traced and untraced, alternating
    which goes first.  Returns the tally and the tracing overhead as traced
    ops_per_s over untraced ops_per_s, both taken on the same ops."""
    tally = Tally()
    busy = {True: 0.0, False: 0.0}   # traced? -> seconds
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        cpu.maybe_pick()
        op = next(seq)
        for on in ((True, False) if n % 2 == 0 else (False, True)):
            if on:
                tracer.install()
                try:
                    seconds_, outcome = run_checked(
                        wl, op, lambda: tracer.run_op(n, op.run))
                finally:
                    tracer.uninstall()
            else:
                seconds_, outcome = run_checked(wl, op)
            tally.add(op.key, seconds_, outcome)
            busy[on] += seconds_
        n += 1
    return tally, busy[False] / busy[True]


def reference_audit(wl, keys: set[str]) -> tuple[int, int]:
    """Re-run the given verify ops with every audit also done by
    evaluate_reference; returns (traces re-audited, disagreements)."""
    import workloads as wls

    with wls.reference_checked_audits() as counts:
        wrong = sum(not wl.check(op, op.run())
                    for op in wl.pool + wl.lead if op.key in keys)
    return counts[0], counts[1] + wrong


def evaluator_speedup(n: int = 200, length: int = 50) -> float:
    """Memoized evaluate against evaluate_reference on random formulas of
    depth 7 over 50-state traces (the comparison in benchmarks/bench_eval.py)."""
    from random import Random

    from ppabt.ltlf import (And, Atom, Finally, Globally, Next, Not, Or, Trace,
                            Until, evaluate)
    from ppabt.verify import evaluate_reference

    rng = Random(0)
    names = ["a", "b", "c"]

    def formula(depth):
        if depth <= 0 or rng.random() < 0.3:
            return Atom(rng.choice(names))
        kind = rng.randrange(8)
        if kind < 4:
            return (Not, Next, Finally, Globally)[kind](formula(depth - 1))
        left, right = formula(depth - 1), formula(depth - 1)
        return (And, Or, Until, Until)[kind - 4](left, right)

    cases = []
    for _ in range(n):
        f = formula(7)
        states = [{x: rng.random() < 0.5 for x in names} for _ in range(length)]
        cases.append((f, Trace(states, frozenset(names))))
    t0 = time.perf_counter()
    memo = [evaluate(f, t, 0) for f, t in cases]
    t1 = time.perf_counter()
    ref = [evaluate_reference(f, t, 0) for f, t in cases]
    t2 = time.perf_counter()
    if memo != ref:
        raise AssertionError("evaluate and evaluate_reference disagree")
    return (t2 - t1) / (t1 - t0)


def default_limit_tally(wl, tally: Tally) -> Tally:
    """Outcomes of the traced run's ops at the interpreter's default recursion
    limit.  Only key-door ops raise the limit, so only they are run again."""
    import workloads as wls

    if wl.name != "keydoor_long":
        return tally
    ops = {op.key: op for op in wl.pool + wl.lead}
    again = Tally()
    with wls.default_recursion_limit():
        for key in dict.fromkeys(tally.keys):
            again.add(key, *run_checked(wl, ops[key]))
    return again


def probe_op(wl):
    """A typical op of the workload: its lead op, else one from the middle of the pool."""
    if wl.lead:
        return wl.lead[0]
    return wl.pool[len(wl.pool) // 2]


def per_layer(wl, seed: int, seconds: float, cpu: CpuPicker, write_spans: bool = True):
    import spans
    import workloads as wls

    tracer = spans.Tracer()
    tally, overhead = traced_loop(wl, wls.op_sequence(wl, seed), seconds, tracer, cpu)

    metrics = spans.layer_metrics(tracer)
    metrics["tracing.ops_per_s_ratio"] = overhead
    at_default = default_limit_tally(wl, tally)
    metrics["ltlf.evaluate.default_limit_ok_frac"] = at_default.ok / at_default.attempted

    # layers this workload never calls are timed on one typical op of each workload
    probe = spans.Tracer()
    probe.install()
    try:
        for name in wls.WORKLOADS:
            other = wl if name == wl.name else wls.load_workload(name)
            probe.run_op(0, probe_op(other).run)
    finally:
        probe.uninstall()
    probed = {k: v for k, v in spans.layer_metrics(probe).items() if k not in metrics}
    metrics.update(probed)

    sequence = wls.op_sequence(wl, seed)
    first = [next(sequence) for _ in range(NODE_TICK_OPS)]
    node_ticks, tree_ticks = spans.count_node_ticks(lambda: [op.run() for op in first])
    metrics["bt.node_ticks_per_tick"] = node_ticks / tree_ticks
    metrics["ltlf.evaluate.vs_reference_x"] = evaluator_speedup()

    extra = [f"tracing: {tally.attempted // 2} ops run traced and untraced, "
             f"traced/untraced ops_per_s = {overhead:.3f}",
             f"probed (from other workloads' ops, not this one's): {sorted(probed)}",
             f"at the default recursion limit: {at_default.failed} of "
             f"{at_default.attempted} ops fail {dict(at_default.failures)}"]
    mismatches = tally.wrong
    if wl.name == "verify":
        audited, disagreements = reference_audit(wl, set(tally.keys))
        mismatches += disagreements
        extra.append(f"reference re-audit: {audited} successful traces, "
                     f"{disagreements} disagreements")
    if write_spans:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{wl.name}.spans.npz")
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    result = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
    lines = [f"{k:<40} {v['value']:>12.6g} {v['unit']}" for k, v in result.items()] + extra
    notes = {"probed": sorted(probed),
             "default_limit_failures": dict(at_default.failures)}
    return tally, mismatches, result, lines, notes


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: int,
            setup_runs: int = SETUP_RUNS, min_ops: int = MIN_OPS,
            write: bool = True) -> dict:
    """One benchmark run; returns the result object and the report lines.

    The written report of a traced run also lists, as ``probed``, the
    per-layer metrics that were taken from other workloads' probe ops, not
    from this workload, and the failures by type at the default recursion
    limit."""
    import workloads as wls

    meta = metadata(seed)
    meta["calibration_start_s"] = calibration_s()
    wl = wls.load_workload(workload)
    notes = {}
    cpu = CpuPicker()
    try:
        if trace:
            tally, mismatches, metrics, lines, notes = per_layer(wl, seed, seconds, cpu,
                                                                 write)
        else:
            # set-ups before and after the loop, so that host-speed drift within
            # a run moves their median less
            before = (setup_runs + 1) // 2
            setups = setup_seconds(workload, seed, before, cpu)
            tally, loop_s = untraced_loop(wl, wls.op_sequence(wl, seed), seconds, cpu,
                                          min_ops)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups += setup_seconds(workload, seed, setup_runs - before, cpu)
            mismatches = tally.wrong
            metrics, lines = end_to_end(tally, loop_s, setups, peak_mb)
    finally:
        cpu.release()
    meta["cpu_probes"] = cpu.probes
    meta["calibration_end_s"] = calibration_s()
    result = {"correct": mismatches == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    meta.update(workload=workload, trace=trace, seconds=seconds,
                failures=dict(tally.failures))
    if write:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{workload}.trace{trace}.json").write_text(
            json.dumps({"meta": meta, **result, **notes}, indent=1) + "\n")
    lines = [f"# {workload} seed={seed} trace={trace} " + json.dumps(meta)] + lines
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads as wls

    if args.workload not in wls.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wls.WORKLOADS)}", file=sys.stderr)
        return 1
    if args.setup_only:
        next(wls.op_sequence(wls.load_workload(args.workload), args.seed))
        print("ready", flush=True)
        return 0
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in run["lines"]:
        print(line)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
