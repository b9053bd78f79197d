"""Deterministic translation of mission expressions into behavior trees.

One PPA task compiles to the flat template::

    Selector( Parallel(gc?, post),
              Parallel(gc?, Latch(pre)?, Sequence(tc?, Action)) )

where a ``?`` check is left out when its condition is the literal
``True``, and a group of one node is that node.  Runs are those of the
paper's nested template (its ``gc`` check after the action never decides
a run: the parallel checks ``gc`` on the same state in the same tick).
The task succeeds as the postcondition holds under the global constraint
or as the plan runs (precondition latched, task constraint held).

Each action node is built whole, with its task's postcondition and its
chooser from the ``choose`` map (action name -> ``choose(state)``);
an action missing from the map is scripted.  Tasks that share an action
must share its postcondition: ``inline_actions`` substitutes it for the
reserved ``__action_<m>`` atom.

Mission operators map onto control nodes: or to selector, and to
parallel, until to sequence (left subtree must succeed before the right
is ticked), finally to a resetting decorator; a task leaf compiles to
its template's selector, and the mission's top node is the tree's root.
Trees carry no ids and tick as built: each run keeps its node memory in
its ``MissionRunner``, keyed by node.
"""

from __future__ import annotations

from . import ltlf, mission as ms
from .bt import (
    ActionRunner, BtNode, Chooser, Condition, FinallyReset, Parallel,
    PreconditionLatch, Selector, Sequence, iter_nodes,
)


def compile_task(spec: ms.PpaTaskSpec, choose: Chooser | None = None) -> BtNode:
    check = lambda prop: [] if prop == ltlf.TRUE else [Condition(prop)]
    group = lambda control, nodes: nodes[0] if len(nodes) == 1 else control(nodes)
    action = ActionRunner(spec.action, spec.poc, choose)
    return Selector([
        group(Parallel, [*check(spec.gc), Condition(spec.poc)]),
        group(Parallel, [*check(spec.gc), *map(PreconditionLatch, check(spec.prc)),
                         group(Sequence, [*check(spec.tc), action])]),
    ])


_CONTROL = {ms.Or: Selector, ms.And: Parallel, ms.Until: Sequence}


def compile_mission(expr: ms.MissionExpr, cfg: ms.MissionConfig,
                    choose: dict[str, Chooser] | None = None) -> BtNode:
    """The mission's tree, rooted at its top operator's node: every Finally
    gets the retry budget ``cfg.theta``, and ``choose`` maps action names
    to choosers."""
    choose = choose or {}
    owner: dict[str, ms.PpaTaskSpec] = {}

    def build(e: ms.MissionExpr) -> BtNode:
        if isinstance(e, ms.Task):
            first = owner.setdefault(e.spec.action, e.spec)
            if first.poc != e.spec.poc:
                raise ms.MissionError(
                    f"tasks {first.name!r} and {e.spec.name!r} share action "
                    f"{e.spec.action!r} with different postconditions")
            return compile_task(e.spec, choose.get(e.spec.action))
        if isinstance(e, ms.Finally):
            return FinallyReset(build(e.child), cfg.theta)
        control = _CONTROL.get(type(e))
        if control is None:
            raise TypeError(f"not a mission expression: {e!r}")
        return control([build(e.left), build(e.right)])

    return build(expr)


def bind_scripted(tree: BtNode, expr: ms.MissionExpr, cfg: ms.MissionConfig) -> BtNode:
    """Make every action node scripted; ``expr`` and ``cfg`` are unused."""
    for node in iter_nodes(tree):
        if isinstance(node, ActionRunner):
            node.choose = None
    return tree


def inline_actions(formula: ltlf.Formula, tree: BtNode) -> ltlf.Formula:
    """The expanded goal formula with each ``__action_<m>`` atom replaced
    by the postcondition of the tree's action node bound to ``m``."""
    post = {ms.ACTION_PREFIX + node.binding: node.postcondition
            for node in iter_nodes(tree) if isinstance(node, ActionRunner)}
    return ltlf.map_leaves(formula, lambda atom: post.get(atom.name, atom))
