"""Workload pools, seeded op sequences and golden output checks.

Each workload is a fixed pool of ops whose expected outputs are stored in
``golden/<workload>.json`` (written by ``make_golden.py``).  The benchmark
seed only chooses the order in which the pool is run, so every op a run
executes has a stored answer to be checked against.

The sequence runs the lead ops once and then whole passes over the pool,
each pass in its own seeded order.  A run ends on a pass boundary, so every
run times the same ops the same number of times: the latency percentiles
move only with the program and the host, not with which ops a seed drew.

Every op calls the same library entry points as the matching ``ppabt``
subcommand, looked up through module attributes at call time so the
traced run can wrap them.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Iterator

from ppabt import cli, keydoor, mission, missions, planners, verify
from ppabt import gridworld as gw

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

LEARN_P_INS = (0.6, 0.8, 0.95)
LEARN_RUNS = 24
VERIFY_ATOMS = ("a", "b", "c")
VERIFY_POOL = 200
VERIFY_BOUND = 5
C2H_BOUND = 3
KEYDOOR_BLOCKS = 40     # of run_experiment's 25 trials each
KEYDOOR_NORMAL = 10
KEYDOOR_DISTURBED = 5   # per stage
# The key-door audit recurses once per trace state, so at the interpreter's
# default limit of 1000 the longest trials raise RecursionError (a known
# defect).  Ops run with this limit, so that every trial completes and its
# output is checked; run.py counts the trials that fail at the default limit.
KEYDOOR_RECURSION_LIMIT = 20_000
_keydoor_limit = [KEYDOOR_RECURSION_LIMIT]


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], list]


@dataclass
class Workload:
    name: str
    pool: list[Op]
    lead: list[Op]          # run once, before the first pass
    golden: dict[str, list]  # op key -> expected output

    def check(self, op: Op, out: list) -> bool:
        return out == self.golden[op.key]


def op_sequence(wl: Workload, seed: int) -> Iterator[Op]:
    """Endless seeded op order: the lead ops, then whole passes over the pool."""
    rng = Random(seed)
    yield from wl.lead
    while True:
        yield from rng.sample(wl.pool, len(wl.pool))


# ---------------------------------------------------------------------------
# Op bodies, mirroring the CLI subcommands

def learn_op(p_in: float, run_seed: int) -> list:
    """One ``ppabt learn`` run: 200 feedback episodes, then 50 inference trials."""
    grid = gw.GridConfig(p_in=p_in, start_cell=(4, 1), seed=run_seed)
    lcfg = planners.LearnerConfig(episodes=200, max_trace=50, mu=0.9, seed=run_seed)
    policy, curve = planners.learn(missions.build_c2h(grid), grid, lcfg)
    infer = planners.evaluate_policy(missions.build_c2h(grid), grid, policy,
                                     n_trials=50, randomize_start=True,
                                     seed=run_seed + 1, max_trace=50)
    learning = sum(r["status"] == "success" for r in curve) / len(curve)
    return [learning, infer["success_probability"]]


def verify_op(expr, theta: int) -> list:
    """One fuzz-corpus mission, checked as ``ppabt verify --missions`` does."""
    report = verify.check_mission(expr, set(VERIFY_ATOMS), VERIFY_BOUND, theta=theta)
    return [report.n_bt_success_traces, report.n_violations]


def c2h_verify_op() -> list:
    """``ppabt verify --mission missions/c2h.mission --bound 3``, inferred alphabet."""
    text = missions.C2H_TEXT
    alphabet = cli.infer_alphabet(text)
    expr = mission.parse_mission(text, alphabet)
    report = verify.check_mission(expr, alphabet, C2H_BOUND)
    return [report.n_bt_success_traces, report.n_violations]


def sweep_op(cell: int, r_other: float, r_good: float, r_fire: float,
             p_in: float) -> list:
    """One ``ppabt sweep --trials 5`` cell: plan both phases, then 5 trials."""
    grid = gw.GridConfig(p_in=p_in, r_other=r_other, r_good=r_good,
                         r_fire=r_fire, seed=cell)
    policy = planners.plan_grid_policies(grid, gamma=cli.SWEEP_DEFAULTS["gamma"])
    result = planners.evaluate_policy(missions.build_c2h(grid), grid, policy, 5,
                                      randomize_start=False, seed=cell,
                                      max_trace=50)
    return [result["success_probability"]]


def keydoor_op(script) -> list:
    """One BT-mode key-door trial, audited, at the raised recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, _keydoor_limit[0]))
    try:
        r = keydoor.run_bt_trial(script)
    finally:
        sys.setrecursionlimit(old)
    return [r["success"], r["ticks"], r["resets"], r["sound"]]


@contextmanager
def default_recursion_limit():
    """Inside the block key-door ops run at the interpreter's own limit."""
    _keydoor_limit[0] = 0
    try:
        yield
    finally:
        _keydoor_limit[0] = KEYDOOR_RECURSION_LIMIT


# ---------------------------------------------------------------------------
# Pools

def learn_pool() -> list[Op]:
    # the run seeds of ``ppabt learn --seed 0 --runs 24``
    return [Op(f"learn p_in={p} run={r}", lambda p=p, r=r: learn_op(p, r))
            for r in range(LEARN_RUNS) for p in LEARN_P_INS]


def verify_pool() -> list[Op]:
    # the corpus of ``ppabt verify --missions 200 --seed 0``
    rng = Random(0)
    ops = []
    for _ in range(VERIFY_POOL):
        expr = verify.random_sound_mission(rng, list(VERIFY_ATOMS))
        theta = rng.choice([0, 1, 2])
        ops.append(Op(f"theta={theta} {mission.render_mission(expr)}",
                      lambda e=expr, t=theta: verify_op(e, t)))
    return ops


C2H_OP = Op("c2h bound=3 inferred alphabet", c2h_verify_op)


def sweep_pool() -> list[Op]:
    """A fixed slice of SWEEP_DEFAULTS that spans all twelve p_in values."""
    d = cli.SWEEP_DEFAULTS
    others, goods, fires, p_ins = d["r_other"], d["r_good"], d["r_fire"], d["p_in"]
    ops = []
    for io in (0, 10, 15):
        for ig in (2, 5):
            for jf in (0, 3):
                for ip, p_in in enumerate(p_ins):
                    # cell index and seed as ``ppabt sweep --seed 0`` numbers them
                    cell = ((io * len(goods) + ig) * len(fires) + jf) * len(p_ins) + ip
                    args = (cell, others[io], goods[ig], fires[jf], p_in)
                    ops.append(Op(f"cell={cell}", lambda a=args: sweep_op(*a)))
    return ops


def keydoor_scripts() -> list:
    """Long key-door trials in the mix of ``keydoor.run_experiment``'s block
    (10 undisturbed trials, then 5 per stage with the perturbation at
    progress 1 or 2, reversible as ``ppabt keydoor`` has it by default), with
    each trial's stage durations drawn from 50..420 instead of the block's 3."""
    rng = Random(0)
    scripts = []
    for _ in range(KEYDOOR_BLOCKS):
        perts = [None] * KEYDOOR_NORMAL + [
            keydoor.Perturbation(stage, at_progress=1 + i % 2, reversible=True)
            for stage in keydoor.STAGES for i in range(KEYDOOR_DISTURBED)]
        for pert in perts:
            durations = {s: rng.randint(50, 420) for s in keydoor.STAGES}
            scripts.append(keydoor.ScenarioScript(durations=durations, perturbation=pert,
                                                  t_task_max=2000, max_trace=2000))
    return scripts


def keydoor_pool() -> list[Op]:
    ops = []
    for s in keydoor_scripts():
        p = s.perturbation
        pert = ("none" if p is None else
                f"{p.stage}@{p.at_progress}/{'rev' if p.reversible else 'irr'}")
        durations = ",".join(str(s.durations[stage]) for stage in keydoor.STAGES)
        ops.append(Op(f"durations={durations} pert={pert}", lambda s=s: keydoor_op(s)))
    return ops


# name -> (pool builder, lead ops)
WORKLOADS = {
    "learn": (learn_pool, []),
    "verify": (verify_pool, [C2H_OP]),
    "sweep": (sweep_pool, []),
    "keydoor_long": (keydoor_pool, []),
}


def load_workload(name: str) -> Workload:
    """Build the pool and attach its golden outputs; a pool that no longer
    matches the stored keys is an error, not a silent re-baseline."""
    build, lead = WORKLOADS[name]
    pool = build()
    data = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    items = data["items"]
    if [op.key for op in pool] != [it["key"] for it in items]:
        raise ValueError(f"{name}: pool differs from golden/{name}.json; "
                         "regenerate with make_golden.py")
    golden = {it["key"]: it["out"] for it in items}
    for op in lead:
        golden[op.key] = data["lead"][op.key]
    return Workload(name, pool, list(lead), golden)


@contextmanager
def reference_checked_audits():
    """Inside the block every audit in ppabt.verify is also done by the
    independent evaluate_reference.  Yields [audits, disagreements]."""
    evaluate = verify.evaluate
    counts = [0, 0]

    def both(formula, trace, index=0):
        value = evaluate(formula, trace, index)
        counts[0] += 1
        counts[1] += verify.evaluate_reference(formula, trace, index) != value
        return value

    verify.evaluate = both
    try:
        yield counts
    finally:
        verify.evaluate = evaluate
