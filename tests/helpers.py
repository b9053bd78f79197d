"""Shared test scaffolding: fuzzers, scripted environments, stub nodes,
the paper's nested task template, language enumeration, the action
propositions of the printed goal formula, a mission outside the sound
fragment and the stream checker that ``verify.check_inclusion`` must
agree with."""

import itertools
import sys
from contextlib import contextmanager

from ppabt import bt, ltlf, mission as ms
from ppabt.bt import (
    ActionRunner, BtNode, Condition, Parallel, PreconditionLatch, Selector,
    Sequence, Status,
)
from ppabt.compiler import inline_actions
from ppabt.mission import Task, ppa_task
from ppabt.verify import MAX_COUNTEREXAMPLES, BoundTooLarge, InclusionReport


def trace_of(alphabet, *rows):
    """Rows are dicts of the named props; everything else defaults False."""
    alphabet = frozenset(alphabet)
    states = [{name: bool(row.get(name, False)) for name in alphabet} for row in rows]
    return ltlf.Trace(states, alphabet)


@contextmanager
def recursion_limit(frames):
    """Run the block with the interpreter's recursion limit at ``frames``."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def formula_from_json(data, alphabet=frozenset()):
    """Inverse of ltlf.formula_to_json, mission task leaves included."""
    op = data["op"]
    if op == "atom":
        return ltlf.Atom(data["name"])
    if op == "task":
        return Task(ppa_task(data["name"], data["post"], data["pre"], data["gc"],
                             data["tc"], data["action"], alphabet))
    cls = getattr(ltlf, op.capitalize())
    if "child" in data:
        return cls(formula_from_json(data["child"], alphabet))
    return cls(formula_from_json(data["lhs"], alphabet),
               formula_from_json(data["rhs"], alphabet))


class StaticEnv:
    """Replays a fixed list of proposition valuations; actions are ignored.

    The last state repeats if execution outlives the script.
    """

    def __init__(self, alphabet, states):
        self.alphabet = frozenset(alphabet)
        self.states = [
            {name: bool(row.get(name, False)) for name in self.alphabet}
            for row in states
        ]
        self.i = 0
        self.applied = []

    def propositions(self):
        return dict(self.states[min(self.i, len(self.states) - 1)])

    def apply(self, action):
        self.applied.append(action)
        self.i += 1


class StubNode(BtNode):
    """Returns a scripted sequence of statuses and counts its ticks."""

    kind = "stub"

    def __init__(self, statuses):
        super().__init__()
        self.statuses = [Status(s) if isinstance(s, str) else s for s in statuses]
        self.ticks = 0

    def tick(self, ctx):
        status = self.statuses[min(self.ticks, len(self.statuses) - 1)]
        self.ticks += 1
        return status


def paper_task_tree(spec, choose=None):
    """The paper's 14-node task template, with every check kept and nested
    as drawn: the reference whose runs ``compiler.compile_task``'s flat
    trees must repeat."""
    gc = lambda: Condition(spec.gc)
    action = ActionRunner(spec.action, spec.poc, choose)
    return Selector([
        Parallel([gc(), Condition(spec.poc)]),
        Parallel([
            Parallel([gc(), PreconditionLatch(Condition(spec.prc))]),
            Sequence([Condition(spec.tc), Sequence([action, gc()])]),
        ]),
    ])


# ---------------------------------------------------------------------------
# Mission string fuzzer: strict derivations of the grammar productions,
# F operands parenthesized.

def derive_mission_text(rng, counter, alphabet, depth):
    if depth <= 0 or rng.random() < 0.45:
        return derive_l1(rng, counter, alphabet, depth)
    return (f"| {derive_mission_text(rng, counter, alphabet, depth - 1)} "
            f"{derive_l1(rng, counter, alphabet, depth - 1)}")


def derive_l1(rng, counter, alphabet, depth):
    if depth <= 0 or rng.random() < 0.5:
        return derive_l2(rng, counter, alphabet, depth)
    return (f"& {derive_l1(rng, counter, alphabet, depth - 1)} "
            f"{derive_l2(rng, counter, alphabet, depth - 1)}")


def derive_l2(rng, counter, alphabet, depth):
    if depth <= 0 or rng.random() < 0.5:
        return derive_l3(rng, counter, alphabet, depth)
    return (f"U {derive_l2(rng, counter, alphabet, depth - 1)} "
            f"{derive_l3(rng, counter, alphabet, depth - 1)}")


def derive_l3(rng, counter, alphabet, depth):
    if depth > 0 and rng.random() < 0.5:
        return f"F ( {derive_mission_text(rng, counter, alphabet, depth - 1)} )"
    return f"( {derive_task_literal(rng, counter, alphabet)} )"


def derive_task_literal(rng, counter, alphabet):
    counter[0] += 1
    name = f"t{counter[0]}"
    atoms = sorted(alphabet)

    def prop():
        a, b = rng.choice(atoms), rng.choice(atoms)
        return rng.choice([a, f"!{a}", f"{a} & {b}", f"{a} | !{b}", "True"])

    return (f"task({name}, post={prop()}, pre={prop()}, gc={prop()}, "
            f"tc={prop()}, action=act{counter[0]})")


# ---------------------------------------------------------------------------
# Language enumeration and a mission outside the sound fragment

def enumeration_guard(alphabet, max_len):
    """The sorted atoms, when the traces up to ``max_len`` over them are
    few enough to visit one by one: at most 5 atoms and length 6."""
    names = sorted(alphabet)
    if len(names) > 5 or max_len > 6:
        raise BoundTooLarge(
            f"{len(names)} atoms x length {max_len} is past the enumeration guard")
    return names


def enumerate_language(formula, alphabet, max_len, evaluator=ltlf.evaluate):
    """All traces over the alphabet, length 1..max_len, satisfying the formula.

    Traces are returned as tuples of valuation tuples in sorted-atom
    order.  Guarded to |alphabet| <= 5 and max_len <= 6.
    """
    names = enumeration_guard(alphabet, max_len)
    alpha = frozenset(names)
    rows = list(itertools.product((False, True), repeat=len(names)))
    found = set()
    for length in range(1, max_len + 1):
        for combo in itertools.product(rows, repeat=length):
            states = [dict(zip(names, row)) for row in combo]
            if evaluator(formula, ltlf.Trace(states, alpha), 0):
                found.add(combo)
    return found


def mission_alphabet(expr, base):
    """Base alphabet plus the reserved action proposition of every task:
    the atoms the printed goal formula reads."""
    return frozenset(base) | {spec.action_atom for spec in ms.tasks_of(expr)}


def with_action_props(expr, states):
    """Each state plus every task's ``__action_<m>`` atom, true exactly
    where the task's postcondition holds: a trace the printed goal
    formula can be read on."""
    posts = {spec.action_atom: ltlf.compile_prop(spec.poc)
             for spec in ms.tasks_of(expr)}
    return [{**state, **{atom: post(state) for atom, post in posts.items()}}
            for state in states]


def counterexample_mission(atoms):
    """A grammar-legal mission outside the sound fragment.

    The or's right task carries a task constraint; if the left task runs
    for a while and then fails, the right task starts late and can
    succeed on a stream whose early ticks already broke that constraint.
    """
    a, b, c = atoms[0], atoms[1], atoms[2]
    left = Task(ms.PpaTaskSpec(
        name="left", poc=ltlf.Atom(a), prc=ltlf.TRUE, gc=ltlf.Atom(b),
        tc=ltlf.TRUE, action="left"))
    right = Task(ms.PpaTaskSpec(
        name="right", poc=ltlf.Atom(c), prc=ltlf.TRUE, gc=ltlf.TRUE,
        tc=ltlf.Atom(a), action="right"))
    return ms.Or(left, right)


# ---------------------------------------------------------------------------
# The stream checker: every stream ticked and audited on its own

def check_streams(tree, formula, alphabet, bound):
    """``verify.check_inclusion``'s report, found depth first with no
    merging: one tick per stream prefix and one audit per successful
    stream.  Counterexamples come in the streams' lexicographic order."""
    names = enumeration_guard(alphabet, bound)
    formula = inline_actions(formula, tree)
    valuations = [dict(zip(names, row))
                  for row in itertools.product((False, True), repeat=len(names))]
    report = InclusionReport(bound=bound, alphabet_size=len(names))
    runner = bt.MissionRunner(tree)
    trace_alpha = frozenset(names)

    def visit(prefix):
        # every valuation ticks from the same pre-tick memory
        memory = runner.snapshot()
        for valuation in valuations:
            status = runner.tick_once(valuation)
            states = [*prefix, valuation]
            if status is bt.SUCCESS:
                report.n_bt_success_traces += 1
                if not ltlf.evaluate(formula, ltlf.Trace(states, trace_alpha), 0):
                    report.n_violations += 1
                    if len(report.counterexamples) < MAX_COUNTEREXAMPLES:
                        report.counterexamples.append(states)
            elif status is bt.RUNNING and len(states) < bound:
                visit(states)
            runner.restore(memory)

    visit([])
    return report
