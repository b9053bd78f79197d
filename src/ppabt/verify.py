"""Bounded empirical soundness checking for compiled mission trees.

The claim under test: whenever a compiled tree reports Success, the
recorded trace satisfies the mission's goal formula.  ``check_inclusion``
drives a tree through every proposition stream up to a length bound
(the streams stand in for the world, so any tree can be checked and no
chooser is called) and audits every successful run, each reserved
action proposition read as its task's postcondition.  It is bounded
model checking (Biere et al., TACAS 1999) with formula progression in
place of an automaton: one layer per tick, where the streams that reach
one tree memory and canonical residual merge, counted by multiplicity,
so each class ticks once per valuation and audits one witness, and the
counts are those of every stream ticked and audited alone.  A check
stops with ``BoundTooLarge`` before its work passes ``MAX_WORK``.

``evaluate_reference`` is a second, deliberately naive evaluator written
straight from the satisfaction relation with explicit quantifier loops
and no sharing; agreement between the two evaluators is part of the test
suite's trust chain.

Soundness boundary: the goal formula's G-constraints range over the whole
trace, but a subtree is only watched while it is ticked.  A task used
directly as an ``or``/``until`` operand can start late, pause while a
sibling runs, or fail and silently recover, leaving constraint windows
nobody checked.  Wrapping the operand in ``F`` re-anchors satisfaction at
the tick its decorator (re)starts the subtree, which closes those gaps as
long as conjunctions stay over plain tasks.  ``random_sound_mission``
fuzzes within that fragment (the shape of every mission the experiments
use); the test suite keeps a grammar-legal mission outside it
(``counterexample_mission`` in ``tests/helpers.py``) whose violations the
checker demonstrably finds.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from random import Random

from . import bt, ltlf, mission as ms
from .compiler import compile_mission, inline_actions
from .ltlf import Atom, Formula, Trace, evaluate


# counterexample traces an InclusionReport keeps; all are counted
MAX_COUNTEREXAMPLES = 25
# tree ticks plus audited witness states that one check_inclusion may spend
MAX_WORK = 2_000_000
# most tasks in one fuzzed mission, and the atoms of the fuzzed corpus
MAX_FUZZ_TASKS = 3
FUZZ_ATOMS = ("a", "b", "c")


class BoundTooLarge(Exception):
    """A check's next layer would take its work past ``MAX_WORK``."""


# ---------------------------------------------------------------------------
# Independent reference evaluator (quantifier form, no memoization)

def evaluate_reference(formula: Formula, trace: Trace, index: int = 0) -> bool:
    states = trace.states
    last = len(states) - 1
    if not 0 <= index <= last:
        raise ltlf.TraceIndexError(f"index {index} outside trace")

    def ref(f: Formula, i: int) -> bool:
        if isinstance(f, Atom):
            if f.name == "True":
                return True
            if f.name == "False":
                return False
            if f.name not in trace.alphabet:
                raise ltlf.UnknownAtom(f.name)
            return states[i][f.name]
        if isinstance(f, ltlf.Not):
            return not ref(f.child, i)
        if isinstance(f, ltlf.And):
            return ref(f.left, i) and ref(f.right, i)
        if isinstance(f, ltlf.Or):
            return ref(f.left, i) or ref(f.right, i)
        if isinstance(f, ltlf.Next):
            return i < last and ref(f.child, i + 1)
        if isinstance(f, ltlf.Until):
            return any(
                ref(f.right, j) and all(ref(f.left, k) for k in range(i, j))
                for j in range(i, last + 1))
        if isinstance(f, ltlf.Finally):
            return any(ref(f.child, k) for k in range(i, last + 1))
        if isinstance(f, ltlf.Globally):
            return all(ref(f.child, k) for k in range(i, last + 1))
        raise TypeError(f"not a formula: {f!r}")

    return ref(formula, index)


# ---------------------------------------------------------------------------
# Trace auditing

def audit_trace(formula: Formula, trace: Trace, status: bt.Status) -> bool:
    """Success must imply satisfaction; failed runs carry no obligation."""
    return status is not bt.SUCCESS or evaluate(formula, trace, 0)


# ---------------------------------------------------------------------------
# Exhaustive stream checking of a compiled tree

@dataclass
class InclusionReport:
    bound: int
    alphabet_size: int
    n_bt_success_traces: int = 0
    n_violations: int = 0
    counterexamples: list[list[dict]] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    def counterexamples_csv_rows(self) -> list[dict]:
        return [{"counterexample": i, "tick": t,
                 "state": json.dumps(state, sort_keys=True)}
                for i, trace in enumerate(self.counterexamples)
                for t, state in enumerate(trace)]


def check_inclusion(tree: bt.BtNode, formula: Formula, alphabet,
                    bound: int) -> InclusionReport:
    """Run the tree on every proposition stream up to the length bound.

    Any tree will do: the streams stand in for the world, so no chooser
    is called, and an action node that claims a tick only reports
    Running (two claims in one tick still raise
    ``ConcurrentActionConflict``).  The reserved action propositions of
    ``formula`` are inlined from the nodes' postconditions, not
    enumerated.  Every Success outcome's trace must satisfy the formula.

    The search runs one layer per tick.  A layer maps each key
    ``(runner.snapshot(), residual)`` its streams reach to their number
    and the first of them found, the witness.  A tick reads only the
    tree's memory and the state, and the residual settles the verdict
    of every continuation; so the streams of one key tick alike and
    their audits agree.  Residuals are canonical (``ltlf.Progression``):
    prefixes that leave one obligation share a key, however reached.
    Counterexamples come out shortest first, one per class.
    """
    names = sorted(alphabet)
    formula = inline_actions(formula, tree)
    report = InclusionReport(bound=bound, alphabet_size=len(names))
    runner = bt.MissionRunner(tree)
    trace_alpha = frozenset(names)
    progression = ltlf.Progression(formula)
    layer = {(runner.snapshot(), progression.start): [1, ()]}
    work = 0  # ticks, keys x valuations a layer, plus the states audits read
    for depth in range(bound):
        work += len(layer) << len(names)
        if work > MAX_WORK:
            raise BoundTooLarge(
                f"stopped at tick {depth + 1} of {bound} over {len(names)} atoms: "
                f"past the limit of {MAX_WORK:,} tree ticks and audited states")
        if not depth:  # only once the first layer fits
            valuations = [dict(zip(names, row)) for row in
                          itertools.product((False, True), repeat=len(names))]
        following = {}
        for (memory, residual), (count, prefix) in layer.items():
            for valuation in valuations:
                runner.restore(memory)
                status = runner.tick_once(valuation)
                if status is bt.SUCCESS:
                    report.n_bt_success_traces += count
                    work += depth + 1
                    # the valuations are shared by every stream, only read
                    states = [*prefix, valuation]
                    if not evaluate(formula, Trace(states, trace_alpha), 0):
                        report.n_violations += count
                        if len(report.counterexamples) < MAX_COUNTEREXAMPLES:
                            report.counterexamples.append(states)
                elif status is bt.RUNNING and depth + 1 < bound:
                    key = (runner.snapshot(), progression.step(residual, valuation))
                    entry = following.get(key)
                    if entry is None:
                        following[key] = [count, (*prefix, valuation)]
                    else:
                        entry[0] += count
        layer = following
    return report


def check_mission(expr: ms.MissionExpr, alphabet, bound: int,
                  theta: int = 1) -> InclusionReport:
    """Compile with scripted actions, and exhaustively check one mission."""
    tree = compile_mission(expr, ms.MissionConfig(theta=theta))
    formula = ms.expand_mission(expr)
    return check_inclusion(tree, formula, alphabet, bound)


# ---------------------------------------------------------------------------
# Tree mutation (for validating the checker itself)

def strip_conditions(tree: bt.BtNode, prop: Formula) -> int:
    """Replace every condition node testing ``prop`` with constant truth.

    Returns how many nodes were rewritten.  Used to demonstrate that the
    inclusion checker detects an unsound tree.
    """
    count = 0
    for node in bt.iter_nodes(tree):
        if isinstance(node, bt.Condition) and node.prop == prop:
            node.prop = ltlf.TRUE
            node._fn = ltlf.compile_prop(ltlf.TRUE)
            count += 1
    return count


# ---------------------------------------------------------------------------
# Mission fuzzing

def _random_prop(rng: Random, atoms: list[str], easy: bool) -> Formula:
    if easy and rng.random() < 0.5:
        return ltlf.TRUE
    a = Atom(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.45:
        return a
    if roll < 0.7:
        return ltlf.Not(a)
    b = Atom(rng.choice(atoms))
    return ltlf.And(a, b) if roll < 0.85 else ltlf.Or(a, b)


def _random_task(rng: Random, atoms: list[str], index: int) -> ms.Task:
    name = f"t{index}"
    return ms.Task(ms.PpaTaskSpec(
        name=name,
        poc=_random_prop(rng, atoms, easy=False),
        prc=_random_prop(rng, atoms, easy=True),
        gc=_random_prop(rng, atoms, easy=True),
        tc=_random_prop(rng, atoms, easy=True),
        action=name,
    ))


def random_sound_mission(rng: Random, atoms: list[str]) -> ms.MissionExpr:
    """Random mission of 1 to ``MAX_FUZZ_TASKS`` tasks within the
    verified-sound fragment.

    Every ``or``/``until`` operand is either F-wrapped or a compound of
    such operands, so each task subtree runs in one gap-free window that
    an F in the formula can anchor to.  Conjunctions hold bare tasks
    only, which the parallel node re-checks on every tick.  Bare tasks
    and bare conjunctions may also sit at the root, where their window
    is the whole trace.
    """
    tasks: list[ms.Task] = []

    def task() -> ms.MissionExpr:
        tasks.append(_random_task(rng, atoms, len(tasks) + 1))
        return tasks[-1]

    def and_block(budget: int) -> ms.MissionExpr:
        if budget <= 1:
            return task()
        left = task()
        return ms.And(left, and_block(budget - 1) if rng.random() < 0.3 else task())

    def certifying(budget: int) -> ms.MissionExpr:
        roll = rng.random()
        if budget >= 2 and roll < 0.4:
            op = ms.Until if roll < 0.25 else ms.Or
            before = len(tasks)
            left = certifying(rng.randint(1, budget - 1))
            return op(left, certifying(budget - (len(tasks) - before)))
        return ms.Finally(under_f(budget))

    def under_f(budget: int) -> ms.MissionExpr:
        roll = rng.random()
        if budget >= 2 and roll < 0.25:
            return and_block(budget)
        if budget >= 2 and roll < 0.6:
            return certifying(budget)
        return task()

    budget = rng.randint(1, MAX_FUZZ_TASKS)
    return under_f(budget) if rng.random() < 0.4 else certifying(budget)


def fuzz_corpus_report(n_missions: int, seed: int, bound: int = 5) -> dict:
    """Check a corpus of missions fuzzed over ``FUZZ_ATOMS``; aggregate the reports."""
    rng = Random(seed)
    total_success = 0
    total_violations = 0
    worst: InclusionReport | None = None
    for _ in range(n_missions):
        expr = random_sound_mission(rng, list(FUZZ_ATOMS))
        report = check_mission(expr, set(FUZZ_ATOMS), bound,
                               theta=rng.choice([0, 1, 2]))
        total_success += report.n_bt_success_traces
        total_violations += report.n_violations
        if report.n_violations and worst is None:
            worst = report
    return {
        "n_missions": n_missions,
        "bound": bound,
        "total_bt_success_traces": total_success,
        "total_violations": total_violations,
        "first_violating_report": worst.to_json() if worst else None,
    }
