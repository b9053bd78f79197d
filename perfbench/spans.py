"""Spans around ppabt's public entry points, for the traced run only.

``Tracer.install`` replaces each entry point in ``PATCHES`` with a wrapper
that records a span (name, start, end, parent span, op id), patching the
name where its caller looks it up; ``uninstall`` puts the originals back.
A call made directly inside a span of the same name (``expand_mission``
recurses through its module global) records no span of its own.
Spans live in flat arrays while the run lasts and are written out once at
the end.  Nothing under ``src/`` is changed, and an untraced run installs
no wrapper at all.

A span's self time is its duration minus the time covered by its direct
child spans.  ``layer_metrics`` turns the spans and the per-call tallies
into the per-layer numbers that BENCHMARK.json lists.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from ppabt import bt, cli, compiler, gridworld, keydoor, ltlf, mission, missions
from ppabt import planners, verify
from ppabt.mission import ACTION_PREFIX

# (owner, attribute, span name): every place a caller looks the name up
PATCHES = [
    (verify, "evaluate", "ltlf.evaluate"),
    (keydoor, "evaluate", "ltlf.evaluate"),
    (missions, "parse_mission", "mission.parse_mission"),
    (mission, "parse_mission", "mission.parse_mission"),
    (mission, "expand_mission", "mission.expand_mission"),
    (planners, "expand_mission", "mission.expand_mission"),
    (keydoor, "expand_mission", "mission.expand_mission"),
    (verify, "compile_mission", "compiler.compile_mission"),
    (planners, "compile_mission", "compiler.compile_mission"),
    (keydoor, "compile_mission", "compiler.compile_mission"),
    (compiler.ActionRunner, "tick", "compiler.action_tick"),
    (bt.MissionRunner, "tick_once", "bt.tick"),
    (bt.MissionRunner, "snapshot", "bt.snapshot"),
    (bt.MissionRunner, "restore", "bt.restore"),
    (gridworld.GridEnv, "propositions", "gridworld.propositions"),
    (gridworld.GridEnv, "apply", "gridworld.apply"),
    (gridworld, "build_phase_mdp", "gridworld.build_phase_mdp"),
    (planners, "policy_iteration", "planners.policy_iteration"),
    (planners, "greedy_from_q", "planners.greedy_from_q"),
    (planners, "feedback_update", "planners.feedback_update"),
    (planners.C2hRuntime, "run_episode", "planners.episode"),
    (verify, "check_inclusion", "verify.check_inclusion"),
    (keydoor, "run_bt_trial", "keydoor.trial"),
    (keydoor.KeyDoorWorld, "apply", "keydoor.world_apply"),
    (cli, "infer_alphabet", "cli.infer_alphabet"),
]


# Tallies taken from a call's arguments and result, keyed by span name.
# The evaluate tally is taken before the call, so that calls which raise
# still count their states.
def _tally_evaluate(t, args):
    t["ltlf.evaluate.states"] += len(args[1])


def _tally_compile(t, args, result):
    t["compiler.nodes"] += bt.node_count(result)


def _tally_episode(t, args, result):
    t["planners.episode.successes"] += result[0] is bt.SUCCESS


def _tally_inclusion(t, args, result):
    t["verify.successes"] += result.n_bt_success_traces
    read = {a for a in ltlf.atoms_of(args[1])
            if a not in ("True", "False") and not a.startswith(ACTION_PREFIX)}
    if result.alphabet_size > t["verify.atoms_enumerated"]:
        t["verify.atoms_enumerated"] = result.alphabet_size
        t["verify.atoms_read"] = len(read)


def _tally_trial(t, args, result):
    t["keydoor.returned"] += 1
    t["keydoor.resets"] += result["resets"]


def _tally_infer(t, args, result):
    t["cli.infer_alphabet.atoms"] = len(result)


ARG_TALLIES = {"ltlf.evaluate": _tally_evaluate}

TALLIES = {
    "compiler.compile_mission": _tally_compile,
    "planners.episode": _tally_episode,
    "verify.check_inclusion": _tally_inclusion,
    "keydoor.trial": _tally_trial,
    "cli.infer_alphabet": _tally_infer,
}

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tallies: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op = [-1]
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        arg_tally = ARG_TALLIES.get(name)
        tally = TALLIES.get(name)
        tallies = self.tallies
        start, end, names, parent, ops = self.start, self.end, self.name, self.parent, self.op
        stack, op = self._stack, self._op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                # a recursive call made through the patched name: only the
                # outermost call is a span, so per-call times are per caller
                return fn(*args, **kwargs)
            if arg_tally is not None:
                arg_tally(tallies, args)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(op[0])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if tally is not None:
                tally(tallies, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn):
        """Run ``fn`` inside an op span; spans it causes carry ``op_id``."""
        self._op[0] = op_id
        try:
            return self._wrap(fn, OP_SPAN)()
        finally:
            self._op[0] = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def count_node_ticks(run_ops) -> tuple[int, int]:
    """(node ticks, tree ticks) over ``run_ops()``, in a pass of its own.

    Counting every node's tick would swamp the timed spans, so it is done
    here, with counters only, and never together with a Tracer.
    """
    counts = [0, 0]
    saved = []

    def counter(fn, slot):
        def counted(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)
        return counted

    classes, todo = [], [bt.BtNode]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "tick" in cls.__dict__ and cls is not bt.BtNode:
            classes.append(cls)
    for cls in classes:
        saved.append((cls, "tick", cls.__dict__["tick"]))
        cls.tick = counter(cls.__dict__["tick"], 0)
    saved.append((bt.MissionRunner, "tick_once", bt.MissionRunner.tick_once))
    bt.MissionRunner.tick_once = counter(bt.MissionRunner.tick_once, 1)
    try:
        run_ops()
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return counts[0], counts[1]


# (metric, unit, span whose calls it needs; None for a plain count per op)
LAYER_METRICS = [
    ("ltlf.evaluate.calls", "1/op", None),
    ("ltlf.evaluate.us_per_call", "us", "ltlf.evaluate"),
    ("ltlf.evaluate.ns_per_state", "ns", "ltlf.evaluate"),
    ("ltlf.evaluate.share", "ratio", None),
    ("ltlf.evaluate.vs_reference_x", "x", None),
    ("ltlf.evaluate.default_limit_ok_frac", "ratio", None),
    ("mission.parse_mission.us_per_call", "us", "mission.parse_mission"),
    ("mission.expand_mission.us_per_call", "us", "mission.expand_mission"),
    ("compiler.compile_mission.us_per_call", "us", "compiler.compile_mission"),
    ("compiler.tree_nodes", "count", "compiler.compile_mission"),
    ("compiler.action_tick.us_per_call", "us", "compiler.action_tick"),
    ("bt.tick.calls", "1/op", None),
    ("bt.tick.us_per_call", "us", "bt.tick"),
    ("bt.tick.share", "ratio", None),
    ("bt.node_ticks_per_tick", "count", None),
    ("bt.snapshot_restore.us_per_call", "us", "bt.snapshot"),
    ("gridworld.propositions.us_per_call", "us", "gridworld.propositions"),
    ("gridworld.apply.us_per_call", "us", "gridworld.apply"),
    ("gridworld.build_phase_mdp.us_per_call", "us", "gridworld.build_phase_mdp"),
    ("planners.policy_iteration.us_per_call", "us", "planners.policy_iteration"),
    ("planners.policy_iteration.sweeps", "count", "planners.policy_iteration"),
    ("planners.feedback_update.us_per_call", "us", "planners.feedback_update"),
    ("planners.episode.success_ratio", "ratio", "planners.episode"),
    ("verify.prefixes", "1/op", "verify.check_inclusion"),
    ("verify.us_per_prefix", "us", "verify.check_inclusion"),
    ("verify.success_ratio", "ratio", "verify.check_inclusion"),
    ("verify.atoms_enumerated", "count", "verify.check_inclusion"),
    ("verify.atoms_read", "count", "verify.check_inclusion"),
    ("keydoor.trial.ms", "ms", "keydoor.trial"),
    ("keydoor.trace_states", "count", "keydoor.trial"),
    ("keydoor.resets", "count", "keydoor.trial"),
    ("keydoor.world_apply.us_per_call", "us", "keydoor.world_apply"),
    ("cli.infer_alphabet.atoms", "count", "cli.infer_alphabet"),
    ("tracing.ops_per_s_ratio", "ratio", None),
]


def span_summary(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds; plus op and
    parent-name counts that some metrics need."""
    a = tracer.arrays()
    n_names = len(tracer.names)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(a["name"], minlength=n_names)
    total = np.bincount(a["name"], weights=dur, minlength=n_names)
    self_total = np.bincount(a["name"], weights=self_t, minlength=n_names)
    parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
    summary = {}
    for nid, name in enumerate(tracer.names):
        summary[name] = {"calls": int(calls[nid]), "s": float(total[nid]),
                         "self_s": float(self_total[nid])}
    ids = tracer._ids

    def ticks_under(parent: str) -> int:
        if parent not in ids or "bt.tick" not in ids:
            return 0
        return int(np.count_nonzero((a["name"] == ids["bt.tick"])
                                    & (parent_name == ids[parent])))

    summary["_prefixes"] = ticks_under("verify.check_inclusion")
    summary["_trial_ticks"] = ticks_under("keydoor.trial")
    return summary


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from one tracer's spans and tallies.

    A metric whose span had no calls is left out; the caller fills it
    from the probe tracer.
    """
    s = span_summary(tracer)
    t = tracer.tallies

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def per_call_us(name, key="s"):
        return 1e6 * s[name][key] / s[name]["calls"]

    n_ops = calls(OP_SPAN)
    op_s = s.get(OP_SPAN, {}).get("s", 0.0)
    out = {}
    if n_ops:
        out["ltlf.evaluate.calls"] = calls("ltlf.evaluate") / n_ops
        out["bt.tick.calls"] = calls("bt.tick") / n_ops
        out["ltlf.evaluate.share"] = s.get("ltlf.evaluate", {}).get("s", 0.0) / op_s
        out["bt.tick.share"] = s.get("bt.tick", {}).get("self_s", 0.0) / op_s
    if calls("ltlf.evaluate"):
        out["ltlf.evaluate.us_per_call"] = per_call_us("ltlf.evaluate")
        out["ltlf.evaluate.ns_per_state"] = (
            1e9 * s["ltlf.evaluate"]["s"] / t["ltlf.evaluate.states"])
    for name in ("mission.parse_mission", "mission.expand_mission",
                 "compiler.compile_mission", "compiler.action_tick",
                 "gridworld.propositions", "gridworld.apply",
                 "gridworld.build_phase_mdp", "planners.policy_iteration",
                 "planners.feedback_update", "keydoor.world_apply"):
        if calls(name):
            out[f"{name}.us_per_call"] = per_call_us(name)
    if calls("compiler.compile_mission"):
        out["compiler.tree_nodes"] = t["compiler.nodes"] / calls("compiler.compile_mission")
    if calls("bt.tick"):
        out["bt.tick.us_per_call"] = per_call_us("bt.tick", "self_s")
    if calls("bt.snapshot"):
        out["bt.snapshot_restore.us_per_call"] = (
            1e6 * (s["bt.snapshot"]["s"] + s["bt.restore"]["s"]) / calls("bt.snapshot"))
    if calls("planners.policy_iteration"):
        out["planners.policy_iteration.sweeps"] = (
            calls("planners.greedy_from_q") / calls("planners.policy_iteration"))
    if calls("planners.episode"):
        out["planners.episode.success_ratio"] = (
            t["planners.episode.successes"] / calls("planners.episode"))
    checks = calls("verify.check_inclusion")
    if checks:
        prefixes = s["_prefixes"]
        out["verify.prefixes"] = prefixes / checks
        out["verify.us_per_prefix"] = 1e6 * s["verify.check_inclusion"]["s"] / prefixes
        out["verify.success_ratio"] = t["verify.successes"] / prefixes
        out["verify.atoms_enumerated"] = t["verify.atoms_enumerated"]
        out["verify.atoms_read"] = t["verify.atoms_read"]
    trials = calls("keydoor.trial")
    if trials:
        out["keydoor.trial.ms"] = 1e3 * s["keydoor.trial"]["s"] / trials
        out["keydoor.trace_states"] = s["_trial_ticks"] / trials
        if t["keydoor.returned"]:
            out["keydoor.resets"] = t["keydoor.resets"] / t["keydoor.returned"]
    if calls("cli.infer_alphabet"):
        out["cli.infer_alphabet.atoms"] = t["cli.infer_alphabet.atoms"]
    return out
