"""Behavior-tree engine: tri-state nodes, a mission runner, tick loop.

Control nodes are reactive: sequence and selector re-evaluate their
children from the left on every tick, parallel ticks all children.
Conditions never return Running.  The ``MissionRunner`` is the tick
context: every node ticks against it and reads the current state from
it.  It also owns the only node memory, the set of latched decorators
and the Finally reset counts, keyed by node: nodes hold structure only
and carry no ids.  ``snapshot`` gives that memory as one hashable value
and ``restore`` takes it back, so one tree can serve any number of
runs.  The runner keeps no clock, no trace and no random source: a
tick's outcome is a function of the memory and the state.  An action
node with a chooser only claims the tick it runs in; the run loop
(``run_to_completion``) calls that chooser and applies its action, and
records the trace, whose bound is a run's only deadline.  Formulas are
read through ``ltlf`` alone.

Every node lists its ``children`` (none on leaves) and describes itself
to the writers: ``kind`` names it in JSON, ``symbol`` and ``shape`` draw
it in DOT, and ``params`` maps each attribute the writers show to its
DOT label format.  The writers walk ``iter_nodes`` and number each node
by its preorder index.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator

from .ltlf import Formula, StateVector, compile_prop, formula_to_json


class Status(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RUNNING = "running"


SUCCESS = Status.SUCCESS
FAILURE = Status.FAILURE
RUNNING = Status.RUNNING


class BtError(Exception):
    pass


class ConcurrentActionConflict(BtError):
    """Two action nodes with choosers claimed one tick: raised while
    ticking, before any chooser runs, so also under ``check_inclusion``
    and whatever the choosers would return, ``None`` included."""


# ---------------------------------------------------------------------------
# Nodes

class BtNode:
    """Structure only; runners key their memory by node (identity hash)."""

    kind = "node"
    symbol = ""
    shape = "box"
    params: dict[str, str] = {}
    children = ()

    def tick(self, ctx: MissionRunner) -> Status:
        raise NotImplementedError


class ControlNode(BtNode):
    """Sequence, selector or parallel over a non-empty list of children.

    Sequence and selector are duals sharing one short-circuit loop: tick
    the children from the left while each returns ``go_on`` (Success for
    sequence, Failure for selector), and return the first other status,
    else ``go_on``.  Parallel has its own ``tick``.
    """

    go_on: Status

    def __init__(self, children: list[BtNode]):
        assert children, "control node needs at least one child"
        self.children = list(children)

    def tick(self, ctx):
        go_on = self.go_on
        for child in self.children:
            status = child.tick(ctx)
            if status is not go_on:
                return status
        return go_on


class Sequence(ControlNode):
    kind = "sequence"
    symbol = "→"  # ->
    go_on = SUCCESS


class Selector(ControlNode):
    kind = "selector"
    symbol = "?"
    go_on = FAILURE


class Parallel(ControlNode):
    kind = "parallel"
    symbol = "⇉"  # =>=>

    def tick(self, ctx):
        # every child ticks; any Failure wins, then any Running
        result = SUCCESS
        for child in self.children:
            status = child.tick(ctx)
            if status is FAILURE:
                result = FAILURE
            elif status is RUNNING and result is SUCCESS:
                result = RUNNING
        return result


class Condition(BtNode):
    """Propositional check on the current state; never returns Running."""

    kind = "condition"
    symbol = "◯"
    shape = "ellipse"
    params = {"prop": "{}"}

    def __init__(self, prop: Formula):
        self.prop = prop
        self._fn = compile_prop(prop)

    def tick(self, ctx):
        return SUCCESS if self._fn(ctx.state) else FAILURE


Chooser = Callable[[StateVector], object]


class ActionRunner(BtNode):
    """Action node: Success exactly when its task's postcondition holds,
    Running otherwise.  A running node with a ``choose`` claims the tick
    (``ctx.pending``), and the run loop calls ``choose(state)`` for the
    environment action (``None`` for none); a node without ``choose`` is
    scripted.  Choosers own their randomness.  The node keeps no clock:
    the trace bound ends a run that never succeeds.
    """

    kind = "action"
    symbol = "□"
    params = {"binding": "{}"}

    def __init__(self, binding: str, postcondition: Formula,
                 choose: Chooser | None = None):
        self.binding = binding
        self.postcondition = postcondition
        self.choose = choose
        self.post_fn = compile_prop(postcondition)

    def tick(self, ctx):
        if self.post_fn(ctx.state):
            return SUCCESS
        if self.choose:
            if ctx.pending is not None:
                raise ConcurrentActionConflict(
                    f"{self.binding!r} and {ctx.pending.binding!r} both fired in one tick")
            ctx.pending = self
        return RUNNING


class FinallyReset(BtNode):
    """Mission Finally decorator, the only node with one child.

    Latches child success.  On child failure it clears the latches in
    its subtree and reports Running, up to ``theta`` times; once the
    budget is spent a child failure is final.
    """

    kind = "finally_reset"
    symbol = "◇ F"
    shape = "diamond"
    params = {"theta": "(theta={})"}

    def __init__(self, child: BtNode, theta: int):
        assert theta >= 0
        self.child = child
        self.children = [child]
        self.theta = theta

    def tick(self, ctx):
        if self in ctx.latched:
            return SUCCESS
        status = self.child.tick(ctx)
        if status is SUCCESS:
            ctx.latched.add(self)
        elif status is FAILURE:
            used = ctx.resets.get(self, 0)
            if used < self.theta:
                ctx.resets[self] = used + 1
                ctx.latched.difference_update(iter_nodes(self.child))
                return RUNNING
        return status


class PreconditionLatch(FinallyReset):
    """Sticks at Success once its child succeeds: a Finally with no resets."""

    kind = "precondition_latch"
    symbol = "◇ latch"
    params = {}

    def __init__(self, child: BtNode):
        super().__init__(child, theta=0)


def iter_nodes(tree: BtNode) -> Iterator[BtNode]:
    """Every node of the tree in preorder."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# ---------------------------------------------------------------------------
# Execution

Memory = tuple[frozenset[FinallyReset], frozenset[tuple[FinallyReset, int]]]


class MissionRunner:
    """One execution, and the context every node ticks against.

    Holds the current ``state``, the ``pending`` action node that claimed
    this tick (``None`` if none did) and the node memory: ``latched``,
    the Finally nodes (latches too) stuck at Success, and ``resets``,
    Finally node -> resets used.  A reset clears latches, not reset
    counts, so an ancestor's reset does not re-arm a budget.
    """

    def __init__(self, tree: BtNode):
        self.tree = tree
        self.latched: set[FinallyReset] = set()
        self.resets: dict[FinallyReset, int] = {}
        self.state: StateVector = {}
        self.pending: ActionRunner | None = None

    def tick_once(self, env_state: StateVector) -> Status:
        self.state = env_state
        self.pending = None
        return self.tree.tick(self)

    def total_resets(self) -> int:
        """Resets issued so far by all Finally decorators."""
        return sum(self.resets.values())

    def snapshot(self) -> Memory:
        """The node memory as one hashable value: latches and reset counts."""
        return frozenset(self.latched), frozenset(self.resets.items())

    def restore(self, memory: Memory) -> None:
        latched, resets = memory
        self.latched, self.resets = set(latched), dict(resets)


def run_to_completion(tree: BtNode, env, max_trace: int):
    """Run the tree against an environment until it halts.

    Per tick: read the environment state, record it on the trace, tick
    the root, call the chooser of the action node that claimed the tick
    (also on the run's last tick), then apply its action (None when no
    node claimed the tick).  Stops on Success/Failure or when the trace
    reaches ``max_trace`` states (reported as Failure: the formula was
    not satisfied within the bound).  Each state is kept as given,
    uncopied, so the trace holds exactly the environment's atoms;
    nothing may mutate a state once it is ticked.

    Returns (status, trace_states, runner).
    """
    runner = MissionRunner(tree)
    trace = []
    while True:
        state = env.propositions()
        trace.append(state)
        status = runner.tick_once(state)
        action = runner.pending.choose(state) if runner.pending else None
        if status is not RUNNING:
            break
        if len(trace) >= max_trace:
            status = FAILURE
            break
        env.apply(action)
    return status, trace, runner


# ---------------------------------------------------------------------------
# Structure helpers, DOT and JSON export

def node_count(tree: BtNode) -> int:
    return sum(1 for _ in iter_nodes(tree))


def export_dot(tree: BtNode) -> str:
    """Graphviz text, one node per tree node with the usual BT symbols;
    node ``n<i>`` is the ``i``-th node in preorder."""
    ids = {node: i for i, node in enumerate(iter_nodes(tree))}
    lines = ["digraph bt {", "  node [shape=box];"]
    for node, i in ids.items():
        label = " ".join([node.symbol, *(fmt.format(getattr(node, name))
                                         for name, fmt in node.params.items())])
        escaped = label.replace('"', '\\"')
        lines.append(f'  n{i} [label="{escaped}", shape={node.shape}];')
    for node, i in ids.items():
        for child in node.children:
            lines.append(f"  n{i} -> n{ids[child]};")
    lines.append("}")
    return "\n".join(lines)


def bt_to_json(tree: BtNode) -> dict:
    """Nested dicts, one per node; ``id`` is the node's preorder index."""
    data: dict[BtNode, dict] = {}
    for i, node in enumerate(iter_nodes(tree)):
        data[node] = entry = {"kind": node.kind, "id": i}
        for name in node.params:
            value = getattr(node, name)
            entry[name] = formula_to_json(value) if isinstance(value, Formula) else value
    for node, entry in data.items():
        if node.children:
            entry["children"] = [data[c] for c in node.children]
    return data[tree]
