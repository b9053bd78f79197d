"""Scripted key-door scenario with perturbations, in two control modes.

The world is symbolic: three scripted plans (stack the key on the door,
move the stack to the passive zone, retrieve the prize), each needing a
fixed number of progress steps.  A perturbation destroys the active
plan's physical progress and knocks down one stage-specific proposition;
a reversible perturbation settles back one step later, an irreversible
one does not.

Baseline mode chains the three plans with if-else checks and no retry.
BT mode compiles the key-door mission with a retry budget and lets the
Finally decorators reset the failed task.  At most one perturbation
fires per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from . import bt
from .compiler import compile_mission, inline_actions
from .ltlf import Trace, evaluate
from .mission import MissionConfig, expand_mission, tasks_of
from .missions import KEYDOOR_ATOMS, build_keydoor

STAGES = ("key", "door", "prize")

POSTCONDITION = {"key": "KeyStacked", "door": "KeyDoorPassive",
                 "prize": "PrizePassive"}

# which proposition a disturbance knocks down, per stage
DISTURBED_PROP = {"key": "VisibleKeyDoor", "door": "KeyStacked",
                  "prize": "KeyDoorPassive"}

# trials in one run_experiment block: undisturbed, then per disturbed stage
N_NORMAL = 10
N_DISTURBED_PER_STAGE = 5

INITIAL_PROPS = {
    "NoErr": True,
    "KeyStacked": False,
    "IsKeyDoor": True,
    "VisibleKeyDoor": True,
    "KeyDoorPassive": False,
    "PrizePassive": False,
    "PrizeVisible": True,
}


@dataclass
class Perturbation:
    stage: str
    at_progress: int = 1
    reversible: bool = True

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.at_progress < 1:
            raise ValueError("perturbation must hit mid-plan (progress >= 1)")


@dataclass
class ScenarioScript:
    """One key-door trial: the Finally retry budget, each stage's plan
    length, an optional perturbation and the trace bound ``max_trace``.
    ``t_task_max`` is accepted and unused: the trace bound ends the run."""

    theta: int = 1
    durations: dict = field(default_factory=lambda: {s: 3 for s in STAGES})
    perturbation: Perturbation | None = None
    t_task_max: int = 60
    max_trace: int = 60

    def __post_init__(self):
        if self.perturbation is not None:
            limit = self.durations[self.perturbation.stage]
            if self.perturbation.at_progress >= limit:
                raise ValueError("perturbation must land before the plan finishes")


class KeyDoorWorld:
    """Symbolic block world driven by plan-progress steps."""

    def __init__(self, script: ScenarioScript):
        self.script = script
        self.props = dict(INITIAL_PROPS)
        self.progress = {s: 0 for s in STAGES}
        self.perturbation_fired = False
        self._restore: list[tuple[str, bool]] = []

    def propositions(self) -> dict[str, bool]:
        # a copy: ``apply`` mutates ``props``, and the trace keeps this dict
        return dict(self.props)

    def apply(self, action) -> None:
        # transient effects settle one step after they appeared
        for prop, value in self._restore:
            self.props[prop] = value
        self._restore.clear()
        if action is None:
            return
        stage = action
        self.progress[stage] += 1
        pert = self.script.perturbation
        if (pert is not None and not self.perturbation_fired
                and pert.stage == stage
                and self.progress[stage] == pert.at_progress):
            self.perturbation_fired = True
            self.progress[stage] = 0
            prop = DISTURBED_PROP[stage]
            if pert.reversible:
                self._restore.append((prop, self.props[prop]))
            self.props[prop] = False
            return
        if self.progress[stage] >= self.script.durations[stage]:
            self._finish(stage)

    def _finish(self, stage: str) -> None:
        self.props[POSTCONDITION[stage]] = True
        if stage == "door":
            self.props["VisibleKeyDoor"] = False
        elif stage == "prize":
            self.props["PrizeVisible"] = False


def run_baseline_trial(script: ScenarioScript) -> dict:
    """Chain the three plans with if-else postcondition checks, no retry."""
    world = KeyDoorWorld(script)
    ticks = 0
    for stage in STAGES:
        for _ in range(script.durations[stage]):
            world.apply(stage)
            ticks += 1
        if not world.props[POSTCONDITION[stage]]:
            return {"mode": "baseline", "success": False, "ticks": ticks,
                    "failed_stage": stage, "resets": 0}
    return {"mode": "baseline", "success": True, "ticks": ticks,
            "failed_stage": None, "resets": 0}


@cache
def _bt_mission(theta: int):
    """The key-door tree and its goal formula, action propositions inlined,
    shared by every trial: node memory lives in each run's MissionRunner."""
    expr = build_keydoor()
    tree = compile_mission(expr, MissionConfig(theta=theta), choose={
        task.action: lambda state, stage=task.action: stage
        for task in tasks_of(expr)})
    return tree, inline_actions(expand_mission(expr), tree)


def run_bt_trial(script: ScenarioScript) -> dict:
    """Run the compiled key-door mission against the scripted world and
    audit a successful trace against the expanded mission formula."""
    tree, goal = _bt_mission(script.theta)
    world = KeyDoorWorld(script)
    status, trace_states, runner = bt.run_to_completion(tree, world,
                                                        script.max_trace)
    success = status is bt.SUCCESS
    sound = not success or evaluate(goal, Trace(trace_states, KEYDOOR_ATOMS), 0)
    return {"mode": "bt", "success": success, "ticks": len(trace_states),
            "failed_stage": None if success else _failed_stage(world),
            "resets": runner.total_resets(), "sound": sound}


def _failed_stage(world: KeyDoorWorld) -> str:
    for stage in STAGES:
        if not world.props[POSTCONDITION[stage]]:
            return stage
    return "unknown"


def run_experiment(mode: str, theta: int = 1, reversible: bool = True) -> dict:
    """Paper-shaped trial block: normal trials plus per-stage disturbances."""
    run_trial = run_baseline_trial if mode == "baseline" else run_bt_trial
    perts = [None] * N_NORMAL + [
        Perturbation(stage, at_progress=1 + i % 2, reversible=reversible)
        for stage in STAGES for i in range(N_DISTURBED_PER_STAGE)]
    trials = []
    for i, pert in enumerate(perts):
        result = run_trial(ScenarioScript(theta=theta, perturbation=pert))
        result.update(trial=i, disturbed=None if pert is None else pert.stage)
        trials.append(result)

    summary = {
        "mode": mode,
        "normal_successes": sum(t["success"] for t in trials
                                if t["disturbed"] is None),
        "normal_trials": N_NORMAL,
        "disturbed_successes": {
            stage: sum(t["success"] for t in trials if t["disturbed"] == stage)
            for stage in STAGES
        },
        "disturbed_trials_per_stage": N_DISTURBED_PER_STAGE,
    }
    return {"summary": summary, "trials": trials}
