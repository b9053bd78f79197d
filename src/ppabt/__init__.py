"""Mission-to-behavior-tree compiler with finite-trace LTL checking."""

from .ltlf import (
    And, Atom, Finally, Formula, Globally, Next, Not, Or, Trace, Until,
    evaluate, format_formula, parse_ltlf,
)
from .mission import (
    MissionConfig, MissionExpr, PpaTaskSpec, expand_mission, expand_task,
    parse_mission, ppa_task,
)
from .bt import BtNode, MissionRunner, Status, export_dot, run_to_completion
from .compiler import ActionRunner, bind_actions, compile_mission, compile_task
from .verify import audit_trace, check_inclusion

__version__ = "0.1.0"

__all__ = [
    "ActionRunner", "And", "Atom", "BtNode", "Finally", "Formula",
    "Globally", "MissionConfig", "MissionExpr", "MissionRunner", "Next",
    "Not", "Or", "PpaTaskSpec", "Status", "Trace", "Until", "audit_trace",
    "bind_actions", "check_inclusion", "compile_mission", "compile_task",
    "evaluate", "expand_mission", "expand_task", "export_dot",
    "format_formula", "parse_ltlf", "parse_mission", "ppa_task",
    "run_to_completion",
]
