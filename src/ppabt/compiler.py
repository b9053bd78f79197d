"""Deterministic translation of mission expressions into behavior trees.

One PPA task compiles to::

    Selector( Parallel(gc, post),
              Parallel( Parallel(gc, Latch(pre)),
                        Sequence(tc, Sequence(Action, gc)) ) )

so the task succeeds either because the postcondition already holds
under the global constraint, or because the plan runs (precondition
latched, task constraint held) until the action's postcondition comes
true, re-checking the global constraint after the action each tick.

Mission operators map onto control nodes: or to selector, and to
parallel, until to sequence (left subtree must succeed before the right
is ticked), finally to a resetting decorator; the root tracks the
mission time budget.
"""

from __future__ import annotations

from random import Random
from typing import Callable

from . import mission as ms
from .bt import (
    Action, BtNode, Condition, FAILURE, FinallyReset, MissionRoot,
    MissionRunner, Parallel, PreconditionLatch, RUNNING, SUCCESS, Selector,
    Sequence, Status, TaskBoundary, UnboundAction, assign_ids, iter_nodes,
)
from .ltlf import Formula, StateVector, compile_prop


class ActionRunner:
    """Execution contract of an action node.

    Success exactly when the declared postcondition holds on the current
    state within the time budget; Running while time remains, during
    which ``choose`` may request one environment transition; Failure
    once the budget is spent.  ``choose(state, rng)`` returns the
    environment action to apply this tick, or None.
    """

    def __init__(self, binding: str, postcondition: Formula, t_task_max: int,
                 choose: Callable[[StateVector, Random], object] | None = None):
        self.binding = binding
        self.postcondition = postcondition
        self.t_task_max = t_task_max
        self.choose = choose
        self.post_fn = compile_prop(postcondition)

    def tick(self, ctx: MissionRunner) -> Status:
        if self.post_fn(ctx.state):
            return SUCCESS if ctx.t <= self.t_task_max else FAILURE
        if ctx.t >= self.t_task_max:
            return FAILURE
        if self.choose is not None:
            env_action = self.choose(ctx.state, ctx.rng)
            if env_action is not None:
                ctx.request_action(self.binding, env_action)
        return RUNNING


def scripted_runner(spec: ms.PpaTaskSpec, cfg: ms.MissionConfig) -> ActionRunner:
    """Runner that never drives an environment; the world evolves on its own."""
    return ActionRunner(spec.action, spec.poc, cfg.t_task_max, choose=None)


def compile_task(spec: ms.PpaTaskSpec, cfg: ms.MissionConfig) -> BtNode:
    gc = lambda: Condition(spec.gc)
    tree = Selector([
        Parallel([gc(), Condition(spec.poc)]),
        Parallel([
            Parallel([gc(), PreconditionLatch(Condition(spec.prc))]),
            Sequence([Condition(spec.tc),
                      Sequence([Action(spec.action), gc()])]),
        ]),
    ])
    return assign_ids(tree)


_CONTROL = {ms.Or: Selector, ms.And: Parallel, ms.Until: Sequence}


def compile_mission(expr: ms.MissionExpr, cfg: ms.MissionConfig) -> BtNode:
    def build(e: ms.MissionExpr) -> BtNode:
        if isinstance(e, ms.Task):
            return TaskBoundary(compile_task(e.spec, cfg))
        if isinstance(e, ms.Finally):
            return FinallyReset(build(e.child), cfg.theta)
        control = _CONTROL.get(type(e))
        if control is None:
            raise TypeError(f"not a mission expression: {e!r}")
        return control([build(e.left), build(e.right)])

    return assign_ids(MissionRoot(build(expr), cfg.t_task_max))


def bind_actions(tree: BtNode, runners: dict[str, ActionRunner]) -> BtNode:
    """Attach a runner to every action node; unknown bindings are an error."""
    for node in iter_nodes(tree):
        if isinstance(node, Action):
            runner = runners.get(node.binding)
            if runner is None:
                raise UnboundAction(node.binding)
            node.runner = runner
    return tree


def bind_scripted(tree: BtNode, expr: ms.MissionExpr, cfg: ms.MissionConfig) -> BtNode:
    """Bind every task's action to a scripted (environment-passive) runner."""
    runners = {spec.action: scripted_runner(spec, cfg) for spec in ms.tasks_of(expr)}
    return bind_actions(tree, runners)
