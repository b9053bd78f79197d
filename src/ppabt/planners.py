"""Action-node policies: exact policy iteration and BT-feedback learning.

Policy iteration solves the known grid MDP per task phase (C: reach the
cheese, H: return home) by alternating exact evaluation (linear solve)
with greedy improvement, ties broken in the fixed order Up, Down, Left,
Right.

The feedback learner keeps a stochastic table p(a | s, phase),
initialized uniform.  After each episode every state-action pair in a
trace segment is nudged by mu^(m - t) * b, where m is the segment's
final index and b is +1 on success and -1 on failure; rows are clamped
to a small floor and renormalized so they stay proper distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random

import numpy as np

from . import bt, gridworld as gw
from .compiler import compile_mission, inline_actions
from .ltlf import Trace
from .mission import MissionConfig, MissionExpr, expand_mission, tasks_of
from .verify import audit_trace

PHASES = ("C", "H")
TIE_TOL = 1e-9
MAX_SWEEPS = 1000
UNIFORM = (0.25, 0.25, 0.25, 0.25)


class PlannerError(Exception):
    pass


class NonStochasticKernel(PlannerError):
    pass


class NoConvergence(PlannerError):
    pass


class PhaseCountMismatch(PlannerError):
    """The learner's mission must have one task per phase in PHASES."""


# ---------------------------------------------------------------------------
# Policies

def cell_key(cell: tuple[int, int]) -> str:
    return f"{cell[0]},{cell[1]}"


@dataclass
class Policy:
    """Per-phase conditional action distribution p(a | s)."""

    tables: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: {p: {} for p in PHASES})
    kind: str = "stochastic"

    def row(self, key: str, phase: str) -> list[float]:
        """The row to update, inserted uniform if the cell has none."""
        table = self.tables[phase]
        row = table.get(key)
        if row is None:
            row = table[key] = list(UNIFORM)
        return row

    def sample(self, key: str, phase: str, rng: Random) -> int:
        """Draw an action; a cell with no row samples uniform and stays absent."""
        row = self.tables[phase].get(key, UNIFORM)
        u = rng.random()
        acc = 0.0
        for i in range(3):
            acc += row[i]
            if u < acc:
                return i
        return 3

    def validate(self, tol: float = 1e-9) -> None:
        for phase, table in self.tables.items():
            for key, row in table.items():
                if (len(row) != 4 or not all(map(math.isfinite, row)) or min(row) < 0
                        or abs(sum(row) - 1.0) > tol):
                    raise ValueError(f"invalid row {row} at ({phase}, {key})")

    def to_json(self) -> dict:
        return {"kind": self.kind, "tables": self.tables}

    @classmethod
    def from_json(cls, data) -> "Policy":
        tables = data.get("tables") if isinstance(data, dict) else None
        if not isinstance(tables, dict) or sorted(tables) != sorted(PHASES):
            raise ValueError("a policy is an object whose tables has exactly "
                             f"the phases {', '.join(PHASES)}")
        try:
            rows = {p: {k: list(map(float, row)) for k, row in t.items()}
                    for p, t in tables.items()}
        except (AttributeError, TypeError) as err:
            raise ValueError(f"malformed policy table: {err}") from None
        policy = cls(tables=rows, kind=data.get("kind", "stochastic"))
        policy.validate(tol=1e-6)
        return policy


# ---------------------------------------------------------------------------
# Exact dynamic programming

def greedy_from_q(q: np.ndarray) -> np.ndarray:
    """First action within TIE_TOL of the row maximum (fixed action order)."""
    best = q.max(axis=1)
    return np.argmax(q >= (best - TIE_TOL)[:, None], axis=1)


def policy_iteration(P: np.ndarray, r: np.ndarray,
                     gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact policy iteration; returns (greedy action per state, values).

    Evaluation solves (I - gamma * P_pi) v = r_pi directly, with no
    tolerance; the kernel's rows must sum to 1 within 1e-9.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not np.allclose(P.sum(axis=2), 1.0, atol=1e-9):
        raise NonStochasticKernel("transition rows must sum to 1")
    n = P.shape[0]
    pi = np.zeros(n, dtype=int)
    identity = np.eye(n)
    for _ in range(MAX_SWEEPS):
        P_pi = P[np.arange(n), pi]
        r_pi = r[np.arange(n), pi]
        v = np.linalg.solve(identity - gamma * P_pi, r_pi)
        q = r + gamma * (P @ v)
        new_pi = greedy_from_q(q)
        if np.array_equal(new_pi, pi):
            return pi, v
        pi = new_pi
    raise NoConvergence(f"no fixed point after {MAX_SWEEPS} improvement sweeps")


def plan_grid_policies(cfg: gw.GridConfig, gamma: float = 0.9) -> Policy:
    """Deterministic per-phase policies for the grid via policy iteration."""
    policy = Policy(kind="deterministic")
    for phase in PHASES:
        P, r = gw.build_phase_mdp(cfg, phase)
        pi, _ = policy_iteration(P, r, gamma)
        for cell in cfg.cells():
            row = [0.0, 0.0, 0.0, 0.0]
            row[int(pi[cfg.cell_index(cell)])] = 1.0
            policy.tables[phase][cell_key(cell)] = row
    return policy


# ---------------------------------------------------------------------------
# Feedback learning (episode records and the update rule)

@dataclass
class EpisodeRecord:
    """State-action pairs of one episode with the terminal feedback.

    ``phases`` holds the phase of the action that chose each pair; when
    it is None every pair is phase C.  A phase followed by a later one
    ended because its task succeeded, so its segment gets +1; the last
    phase recorded gets the mission's feedback ``b``.
    """

    pairs: list[tuple[str, int]]
    b: int
    phases: list[str] | None = None

    def __post_init__(self):
        if self.b not in (1, -1):
            raise ValueError("b must be +1 or -1")
        if self.phases is not None and len(self.phases) != len(self.pairs):
            raise ValueError("one phase per recorded pair")
        if self.phases is not None and not set(self.phases) <= set(PHASES):
            raise ValueError(f"phases must be among {', '.join(PHASES)}")

    def segments(self) -> list[tuple[str, list[tuple[str, int]], int]]:
        phases = self.phases or ["C"] * len(self.pairs)
        by_phase = {phase: [] for phase in PHASES}
        for pair, phase in zip(self.pairs, phases):
            by_phase[phase].append(pair)
        ran = [phase for phase in PHASES if by_phase[phase]]
        return [(phase, by_phase[phase], self.b if phase == ran[-1] else 1)
                for phase in ran]


def feedback_update(policy: Policy, record: EpisodeRecord, mu: float = 0.9,
                    floor: float = 1e-3) -> Policy:
    """Apply the terminal-status update to every recorded pair.

    Within a segment of final index m, the pair at position t receives
    mu^(m - t) * b; touched rows are clamped to ``floor`` and
    renormalized.  Returns the same policy object.
    """
    for phase, pairs, b in record.segments():
        m = len(pairs) - 1
        touched = set()
        for t, (key, action) in enumerate(pairs):
            row = policy.row(key, phase)
            row[action] += (mu ** (m - t)) * b
            touched.add(key)
        for key in touched:
            row = policy.row(key, phase)
            for i in range(4):
                if row[i] < floor:
                    row[i] = floor
            total = row[0] + row[1] + row[2] + row[3]
            for i in range(4):
                row[i] /= total
    return policy


@dataclass
class LearnerConfig:
    episodes: int = 200
    max_trace: int = 50
    mu: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0 or self.max_trace < 1:
            raise ValueError("episodes must be >= 0 and max_trace >= 1")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")


class SoundnessViolation(PlannerError):
    """A successful episode produced a trace that falsifies the mission goal."""

    def __init__(self, trace_states):
        super().__init__("successful episode violates the mission formula")
        self.trace_states = trace_states


class C2hRuntime:
    """Compiled two-phase mission bound to a shared policy.

    The mission's tasks, in text order, take the phases in PHASES: the
    first task's action samples from phase C, the second from phase H,
    keyed by the mouse cell of the episode's grid ``env`` and drawn from
    that grid's ``rng``, the episode's one random source.  Each sampled
    (state, action) pair is recorded with its phase for the end-of-episode
    update.  Traces hold the grid's atoms; ``formula`` inlines the actions.
    """

    def __init__(self, expr: MissionExpr, grid_cfg: gw.GridConfig,
                 policy: Policy, max_trace: int):
        specs = tasks_of(expr)
        if len(specs) != len(PHASES):
            raise PhaseCountMismatch(
                f"learner needs one task per phase {PHASES}, got {len(specs)}")
        self.grid_cfg = grid_cfg
        self.policy = policy
        self.max_trace = max_trace
        self.alphabet = gw.grid_alphabet(grid_cfg)
        self.env: gw.GridEnv | None = None
        self.pairs: list[tuple[str, int, str]] = []
        self.tree = compile_mission(expr, MissionConfig(theta=0), choose={
            spec.action: self._chooser(phase) for spec, phase in zip(specs, PHASES)})
        self.formula = inline_actions(expand_mission(expr), self.tree)

    def _chooser(self, phase: str) -> bt.Chooser:
        policy = self.policy
        pairs = self.pairs

        def choose(state):
            key = cell_key(self.env.state.mouse_cell)
            action = policy.sample(key, phase, self.env.rng)
            pairs.append((key, action, phase))
            return action

        return choose

    def run_episode(self, seed: int, start_cell=None) -> tuple[bt.Status, list, EpisodeRecord]:
        self.env = gw.GridEnv(self.grid_cfg, Random(seed), start_cell=start_cell)
        self.pairs.clear()
        status, trace_states, _ = bt.run_to_completion(self.tree, self.env, self.max_trace)
        b = 1 if status is bt.SUCCESS else -1
        record = EpisodeRecord([(key, action) for key, action, _ in self.pairs], b,
                               [phase for _, _, phase in self.pairs])
        return status, trace_states, record

    def audit(self, status: bt.Status, trace_states) -> bool:
        return audit_trace(self.formula, Trace(trace_states, self.alphabet), status)


def learn(expr: MissionExpr, grid_cfg: gw.GridConfig,
          lcfg: LearnerConfig) -> tuple[Policy, list[dict]]:
    """Run feedback-learning episodes on the two-phase mission.

    Returns the learned policy and a per-episode curve of dicts with
    episode index, status, trace length and the episode seed.
    """
    policy = Policy()
    runtime = C2hRuntime(expr, grid_cfg, policy, lcfg.max_trace)
    master = Random(lcfg.seed)
    curve = []
    for episode in range(lcfg.episodes):
        ep_seed = master.randrange(2 ** 62)
        status, trace_states, record = runtime.run_episode(ep_seed)
        if not runtime.audit(status, trace_states):
            raise SoundnessViolation(trace_states)
        feedback_update(policy, record, lcfg.mu)
        curve.append({"episode": episode, "status": status.value,
                      "trace_len": len(trace_states), "seed": ep_seed})
    return policy, curve


def evaluate_policy(expr: MissionExpr, grid_cfg: gw.GridConfig, policy: Policy,
                    n_trials: int, randomize_start: bool = True,
                    seed: int = 0, max_trace: int = 50,
                    audit: bool = True) -> dict:
    """Success fraction and mean trace length over independent episodes."""
    runtime = C2hRuntime(expr, grid_cfg, policy, max_trace)
    master = Random(seed)
    start_choices = [c for c in grid_cfg.cells() if c != grid_cfg.fire_cell]
    successes = 0
    lengths = []
    for _ in range(n_trials):
        ep_seed = master.randrange(2 ** 62)
        start = None
        if randomize_start:
            start = start_choices[Random(ep_seed).randrange(len(start_choices))]
        status, trace_states, _ = runtime.run_episode(ep_seed, start_cell=start)
        if audit and not runtime.audit(status, trace_states):
            raise SoundnessViolation(trace_states)
        successes += status is bt.SUCCESS
        lengths.append(len(trace_states))
    return {
        "n_trials": n_trials,
        "success_probability": successes / n_trials if n_trials else 0.0,
        "mean_trace_len": float(np.mean(lengths)) if lengths else 0.0,
    }
