"""Shared test scaffolding: fuzzers, scripted environments, stub nodes."""

import sys
from contextlib import contextmanager

from ppabt import ltlf
from ppabt.bt import BtNode, Status
from ppabt.mission import Task, ppa_task


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
