"""The benchmark in perfbench/ reaches into ppabt by name; keep those names.

``perfbench/spans.py`` patches ``(owner, attribute)`` pairs when it traces
a run, and the other perfbench scripts call ppabt functions directly.  A
refactor that renames or moves one of them fails here instead of only in
the traced benchmark run.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def spans():
    return perfbench_module("spans")


def test_every_patched_name_resolves(spans):
    for owner, attr, _ in spans.PATCHES:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def ppabt_references(path):
    """(module, name) for every ppabt name the script imports or looks up
    as an attribute of an imported ppabt module."""
    tree = ast.parse(path.read_text())
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ppabt"):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "ppabt":
                    modules[local] = f"ppabt.{alias.name}"
                else:
                    refs.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return refs


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_every_called_name_exists(script):
    refs = ppabt_references(PERFBENCH / script)
    for module, name in refs:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_node_ticks_of_a_seeded_episode(spans):
    """Pins the engine's short-circuit order and the benchmark's
    ``bt.node_ticks_per_tick`` counter on one seeded c2h episode."""
    from ppabt.gridworld import GridConfig
    from ppabt.missions import build_c2h
    from ppabt.planners import C2hRuntime, Policy

    cfg = GridConfig(p_in=0.8)
    runtime = C2hRuntime(build_c2h(cfg), cfg, Policy(), 50)
    assert spans.count_node_ticks(lambda: runtime.run_episode(7)) == (379, 40)


def test_node_ticks_of_a_reset_keydoor_trial(spans):
    """The same counter on a second tree shape, with no seed: the key-door
    trial whose door stage is disturbed takes one Finally reset."""
    from ppabt.keydoor import Perturbation, ScenarioScript, run_bt_trial

    script = ScenarioScript(perturbation=Perturbation("door"))
    assert run_bt_trial(script)["resets"] == 1
    assert spans.count_node_ticks(lambda: run_bt_trial(script)) == (171, 12)


def test_tree_sizes_of_the_compiled_workloads():
    """Pins ``compiler.tree_nodes`` with no clock: the traced run averages
    it over the ops that fit in its time, so its mean alone moves with the
    host.  The verify pool is built as ``verify_pool`` builds it, each
    mission followed by its theta draw."""
    from random import Random

    from ppabt.bt import node_count
    from ppabt.compiler import compile_mission
    from ppabt.mission import MissionConfig
    from ppabt.missions import build_c2h, build_keydoor
    from ppabt.verify import random_sound_mission

    workloads = perfbench_module("workloads")
    rng = Random(0)
    total = 0
    for _ in range(workloads.VERIFY_POOL):
        expr = random_sound_mission(rng, list(workloads.VERIFY_ATOMS))
        cfg = MissionConfig(theta=rng.choice([0, 1, 2]))
        total += node_count(compile_mission(expr, cfg))
    assert total == 2538
    cfg = MissionConfig(theta=1)
    assert node_count(compile_mission(build_c2h(), cfg)) == 19
    assert node_count(compile_mission(build_keydoor(), cfg)) == 38


def test_traced_inclusion_check_ticks_and_snapshots(spans):
    """The traced run's per-layer verify numbers divide by the tree ticks
    and snapshots taken directly under ``verify.check_inclusion``: the c2h
    lead op must make both, or ``layer_metrics`` has nothing to report."""
    workloads = perfbench_module("workloads")
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = tracer.run_op(0, workloads.C2H_OP.run)
    finally:
        tracer.uninstall()
    summary = spans.span_summary(tracer)
    assert out == workloads.load_workload("verify").golden[workloads.C2H_OP.key]
    assert summary["_prefixes"] > 0
    assert summary["bt.snapshot"]["calls"] > 0
    assert summary["bt.restore"]["calls"] > 0
    metrics = spans.layer_metrics(tracer)
    assert {"verify.prefixes", "verify.us_per_prefix",
            "bt.snapshot_restore.us_per_call"} <= set(metrics)


def test_reference_checked_audits_see_verify_audits():
    """The golden build and the traced run re-audit every verify audit with
    the reference evaluator through ``verify.evaluate``; a verify op must
    still audit through that name."""
    workloads = perfbench_module("workloads")
    op = workloads.verify_pool()[0]
    with workloads.reference_checked_audits() as counts:
        op.run()
    assert counts[0] > 0
    assert counts[1] == 0


def test_tree_ticks_of_verifying_the_corpus(spans):
    """Pins the work of one pass over the verify pool with no clock: the
    layered search ticks each key once per valuation (the stream checker
    made 574,952 tree ticks here)."""
    workloads = perfbench_module("workloads")
    pool = workloads.verify_pool()
    node_ticks, tree_ticks = spans.count_node_ticks(lambda: [op.run() for op in pool])
    assert tree_ticks == 18_928
    lead_ticks = spans.count_node_ticks(workloads.C2H_OP.run)[1]
    assert lead_ticks == 480
