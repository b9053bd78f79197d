"""Mission language front-end: PPA task literals composed with | & U F.

A mission file is prefix-notation text over parenthesized sub-missions
and ``task(...)`` literals, ``#`` starts a comment::

    U (F task(cheese, post=Cheese, pre=True, gc=!Fire, tc=True, action=cheese))
      (F task(home,   post=Home,   pre=Cheese, gc=!Fire, tc=True, action=home))

A mission is an LTLf formula whose leaves are ``Task`` literals: its
operators are the ``ltlf`` nodes of the same name, and ``ltlf.parse_prefix``
parses it with ``F`` as the one unary operator and the task literal as
the leaf.  Precedence, loosest first: ``|``, ``&``, ``U``, ``F``; binary
operators are left associative and ``F`` may chain.  Task condition
fields hold infix propositional expressions (``! & | ( )``), read by
``ltlf.parse_condition``.  This module owns only the tasks: their spec,
their literal and their expansion.  Each task expands to the goal
formula

    (G gc & poc)  |  ((G gc & F pre) & (tc U (action & G gc)))

where ``action`` is the reserved proposition ``__action_<name>``, true
exactly when the task's postcondition holds.  Audits substitute the
postcondition for it, so traces hold only the environment's atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ltlf
# The mission operators are the LTLf nodes (``mission.Until`` is
# ``ltlf.Until``), and the condition parser and printer are ltlf's.
from .ltlf import (
    And, Finally, Formula, Or, ParseError, Until, _Cursor,
    is_propositional, parse_condition, parse_prefix, parse_prop, render_prop,
)

ACTION_PREFIX = "__action_"

TASK_FIELDS = ("post", "pre", "gc", "tc", "action")

MissionExpr = Formula


class MissionError(Exception):
    pass


class TemporalOperatorInCondition(MissionError):
    pass


class DuplicateTaskName(MissionError):
    pass


class ReservedAtom(MissionError):
    """User conditions may not mention reserved action propositions."""


# ---------------------------------------------------------------------------
# Mission expression tree

@dataclass(frozen=True)
class PpaTaskSpec:
    name: str
    poc: Formula
    prc: Formula
    gc: Formula
    tc: Formula
    action: str

    def __post_init__(self):
        for label, cond in (("post", self.poc), ("pre", self.prc),
                            ("gc", self.gc), ("tc", self.tc)):
            if not is_propositional(cond):
                raise TemporalOperatorInCondition(
                    f"task {self.name!r}: field {label} contains a temporal operator")
            for atom in ltlf.atoms_of(cond):
                if atom.startswith(ACTION_PREFIX):
                    raise ReservedAtom(
                        f"task {self.name!r}: {atom} is reserved for action tracking")

    @property
    def action_atom(self) -> str:
        return ACTION_PREFIX + self.action


@dataclass(frozen=True)
class Task(Formula):
    """Leaf of a mission: one task literal."""

    spec: PpaTaskSpec

    def __str__(self) -> str:
        s = self.spec
        return (f"task({s.name}, post={render_prop(s.poc)}, pre={render_prop(s.prc)}, "
                f"gc={render_prop(s.gc)}, tc={render_prop(s.tc)}, action={s.action})")

    def to_json(self) -> dict:
        s = self.spec
        return {"op": "task", "name": s.name, "post": render_prop(s.poc),
                "pre": render_prop(s.prc), "gc": render_prop(s.gc),
                "tc": render_prop(s.tc), "action": s.action}


@dataclass
class MissionConfig:
    """The compiler's retry budget ``theta``, given to every Finally.
    ``alphabet`` is accepted and unused: atoms are checked when the
    mission is parsed.  ``t_task_max`` is accepted and unused: trees keep
    no clock, and the trace bound of a run is its only deadline."""

    theta: int
    alphabet: frozenset[str] = frozenset()
    t_task_max: int | None = None

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")


def tasks_of(expr: MissionExpr) -> list[PpaTaskSpec]:
    """Task specs in the order their literals appear in the mission text."""
    return [f.spec for f in ltlf.subformulas(expr) if isinstance(f, Task)]


# ---------------------------------------------------------------------------
# Expansion to LTLf

def expand_task(spec: PpaTaskSpec) -> Formula:
    """Goal formula of one PPA task.

    Left disjunct: the postcondition already holds under the global
    constraint.  Right disjunct: the precondition is eventually seen and
    the task constraint holds until the action proposition comes true,
    still under the global constraint.
    """
    g_gc = ltlf.Globally(spec.gc)
    return ltlf.Or(
        ltlf.And(g_gc, spec.poc),
        ltlf.And(
            ltlf.And(g_gc, ltlf.Finally(spec.prc)),
            ltlf.Until(spec.tc, ltlf.And(ltlf.Atom(spec.action_atom), g_gc)),
        ),
    )


def expand_mission(expr: MissionExpr) -> Formula:
    """The mission's goal formula: every task literal replaced by its expansion."""
    return ltlf.map_leaves(
        expr, lambda f: expand_task(f.spec) if isinstance(f, Task) else f)


# ---------------------------------------------------------------------------
# Mission parser

def ppa_task(name: str, post: str, pre: str = "True", gc: str = "True",
             tc: str = "True", action: str | None = None,
             alphabet: set[str] | frozenset[str] = frozenset()) -> PpaTaskSpec:
    """Convenience builder parsing the condition fields from infix text."""
    alpha = frozenset(alphabet)
    return PpaTaskSpec(
        name=name,
        poc=parse_prop(post, alpha),
        prc=parse_prop(pre, alpha),
        gc=parse_prop(gc, alpha),
        tc=parse_prop(tc, alpha),
        action=action if action is not None else name,
    )


def parse_mission(text: str, alphabet: set[str] | frozenset[str]) -> MissionExpr:
    """Parse mission text into a MissionExpr tree.

    Raises ParseError on malformed input or nesting past
    ``ltlf.MAX_NESTING``, UnknownAtom for condition atoms outside the
    alphabet, DuplicateTaskName if two task literals share a name.
    """
    alpha = frozenset(alphabet)
    seen: set[str] = set()
    return parse_prefix(text, {"F": Finally},
                        lambda cur: _parse_task_literal(cur, alpha, seen))


def _parse_task_literal(cur: _Cursor, alphabet: frozenset[str],
                        seen: set[str]) -> Task:
    tok = cur.take()
    if tok.text != "task":
        raise ParseError(f"unexpected {tok.text!r}", tok.pos,
                         expected="'F', 'task(' or '('")
    cur.expect("(")
    name_tok = cur.take()
    if name_tok.kind != "word":
        raise ParseError(f"unexpected {name_tok.text!r}", name_tok.pos,
                         expected="task name")
    name = name_tok.text
    if name in seen:
        raise DuplicateTaskName(f"task {name!r} declared twice")
    seen.add(name)

    fields: dict[str, object] = {}
    while cur.peek().text == ",":
        cur.take()
        key_tok = cur.take()
        if key_tok.text not in TASK_FIELDS:
            raise ParseError(f"unknown task field {key_tok.text!r}", key_tok.pos,
                             expected="one of " + "/".join(TASK_FIELDS))
        if key_tok.text in fields:
            raise ParseError(f"duplicate field {key_tok.text!r}", key_tok.pos)
        cur.expect("=")
        if key_tok.text == "action":
            val_tok = cur.take()
            if val_tok.kind != "word":
                raise ParseError(f"unexpected {val_tok.text!r}", val_tok.pos,
                                 expected="action identifier")
            fields["action"] = val_tok.text
        else:
            # A field value stops at the comma or closing paren of the
            # literal: the infix parser's own parentheses are balanced.
            fields[key_tok.text] = parse_condition(cur, alphabet)
    cur.expect(")")

    if "post" not in fields:
        raise ParseError(f"task {name!r} is missing its post field", name_tok.pos)
    spec = PpaTaskSpec(
        name=name,
        poc=fields["post"],
        prc=fields.get("pre", ltlf.TRUE),
        gc=fields.get("gc", ltlf.TRUE),
        tc=fields.get("tc", ltlf.TRUE),
        action=fields.get("action", name),
    )
    return Task(spec)


# Canonical mission text; parse_mission inverts it.
render_mission = ltlf.format_formula
