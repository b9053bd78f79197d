"""Stochastic mouse-and-cheese grid: slip-model moves, propositions, phase MDPs.

Cells are 1-based (column j, row k).  The agent's intended move happens
with probability ``p_in``; otherwise it slips to one of the two
perpendicular directions, each with probability (1 - p_in) / 2.  Bumping
a wall leaves the position unchanged.  Entering the cheese cell picks up
the cheese, which is never dropped.

Reaching the fire cell does not end an episode here; mission failure
comes from the global-constraint condition in the behavior tree.  The
planner's per-phase MDP makes fire and the phase goal absorbing and
pays rewards on entering a cell.

A grid has only ``2 * width * height`` states ``(cell, has_cheese)``, so
``GridEnv`` reads its propositions from a table built once per geometry
(size plus cheese, fire and home cells) and shared by every env on it.
Each entry is a read-only view: one state object serves every tick,
trace and run that reaches that state, and none of them can change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from random import Random
from types import MappingProxyType
from typing import Mapping

import numpy as np

Cell = tuple[int, int]

UP, DOWN, LEFT, RIGHT = range(4)
_DELTA = {UP: (0, 1), DOWN: (0, -1), LEFT: (-1, 0), RIGHT: (1, 0)}
_PERP = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT),
         LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}


@dataclass
class GridConfig:
    width: int = 4
    height: int = 4
    cheese_cell: Cell = (4, 4)
    fire_cell: Cell = (4, 2)
    home_cell: Cell = (3, 1)
    start_cell: Cell = (3, 1)
    p_in: float = 0.8
    r_other: float = -0.04
    r_good: float = 1.0
    r_fire: float = -1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_in <= 1.0:
            raise ValueError("p_in must lie in [0, 1]")
        cells = (self.cheese_cell, self.fire_cell, self.home_cell)
        if len(set(cells)) != 3:
            raise ValueError("cheese, fire and home cells must be distinct")
        for cell in cells + (self.start_cell,):
            if not self.in_bounds(cell):
                raise ValueError(f"cell {cell} outside the {self.width}x{self.height} grid")

    def in_bounds(self, cell: Cell) -> bool:
        j, k = cell
        return 1 <= j <= self.width and 1 <= k <= self.height

    def cells(self) -> list[Cell]:
        return [(j, k) for k in range(1, self.height + 1)
                for j in range(1, self.width + 1)]

    def cell_index(self, cell: Cell) -> int:
        j, k = cell
        return (k - 1) * self.width + (j - 1)


@dataclass
class GridState:
    mouse_cell: Cell
    has_cheese: bool = False


def prop_name(cell: Cell) -> str:
    return f"A_{cell[0]}_{cell[1]}"


def grid_alphabet(cfg: GridConfig) -> frozenset[str]:
    return frozenset({prop_name(c) for c in cfg.cells()} | {"Cheese", "Fire", "Home"})


def realized_direction(action: int, p_in: float, rng: Random) -> int:
    u = rng.random()
    if u < p_in:
        return action
    side_a, side_b = _PERP[action]
    return side_a if u < p_in + (1.0 - p_in) / 2.0 else side_b


def move(cell: Cell, direction: int, cfg: GridConfig) -> Cell:
    dj, dk = _DELTA[direction]
    target = (cell[0] + dj, cell[1] + dk)
    return target if cfg.in_bounds(target) else cell


def step(state: GridState, action: int, cfg: GridConfig,
         rng: Random) -> tuple[GridState, int]:
    """One stochastic transition; returns (new state, realized direction)."""
    direction = realized_direction(action, cfg.p_in, rng)
    cell = move(state.mouse_cell, direction, cfg)
    has_cheese = state.has_cheese or cell == cfg.cheese_cell
    return GridState(cell, has_cheese), direction


def propositions(state: GridState, cfg: GridConfig) -> dict[str, bool]:
    props = {prop_name(c): c == state.mouse_cell for c in cfg.cells()}
    props["Cheese"] = state.has_cheese
    props["Fire"] = state.mouse_cell == cfg.fire_cell
    props["Home"] = state.mouse_cell == cfg.home_cell
    return props


@cache
def _proposition_table(width: int, height: int, cheese_cell: Cell,
                       fire_cell: Cell, home_cell: Cell
                       ) -> dict[tuple[Cell, bool], MappingProxyType]:
    """(cell, has_cheese) -> read-only propositions, for one geometry.

    Keyed on the geometry's values, not on a config object: configs are
    mutable, and propositions read nothing else of one.  The start cell
    is any in-bounds cell, as propositions ignore it.
    """
    cfg = GridConfig(width=width, height=height, cheese_cell=cheese_cell,
                     fire_cell=fire_cell, home_cell=home_cell,
                     start_cell=home_cell)
    return {(cell, has_cheese): MappingProxyType(
                propositions(GridState(cell, has_cheese), cfg))
            for cell in cfg.cells() for has_cheese in (False, True)}


class GridEnv:
    """Environment adapter for the behavior-tree run loop."""

    def __init__(self, cfg: GridConfig, rng: Random | None = None,
                 start_cell: Cell | None = None):
        self.cfg = cfg
        self.rng = rng if rng is not None else Random(cfg.seed)
        cell = start_cell if start_cell is not None else cfg.start_cell
        if not cfg.in_bounds(cell):
            raise ValueError(f"start cell {cell} outside the {cfg.width}x{cfg.height} grid")
        self.state = GridState(cell, has_cheese=cell == cfg.cheese_cell)
        self._props = _proposition_table(cfg.width, cfg.height, cfg.cheese_cell,
                                         cfg.fire_cell, cfg.home_cell)

    def propositions(self) -> Mapping[str, bool]:
        state = self.state
        return self._props[state.mouse_cell, state.has_cheese]

    def apply(self, action: int | None) -> None:
        if action is not None:
            self.state, _ = step(self.state, action, self.cfg, self.rng)


# ---------------------------------------------------------------------------
# Analytic model for the planner

def movement_kernel(cfg: GridConfig) -> np.ndarray:
    """Exact transition matrix P[s, a, s'] of the slip model, no absorption."""
    n = cfg.width * cfg.height
    P = np.zeros((n, 4, n))
    p_slip = (1.0 - cfg.p_in) / 2.0
    for cell in cfg.cells():
        s = cfg.cell_index(cell)
        for a in range(4):
            outcomes = [(a, cfg.p_in)] + [(d, p_slip) for d in _PERP[a]]
            for direction, prob in outcomes:
                s2 = cfg.cell_index(move(cell, direction, cfg))
                P[s, a, s2] += prob
    return P


def build_phase_mdp(cfg: GridConfig, phase: str) -> tuple[np.ndarray, np.ndarray]:
    """(P, r) for one task phase with entry rewards.

    Entering the goal cell (cheese for phase C, home for phase H) pays
    ``r_good``, entering fire ``r_fire`` and any other cell ``r_other``.
    The goal and fire cells are absorbing: they self-loop and yield no
    further reward, so values measure the discounted return up to task
    end.  ``r[s, a]`` is the expected entry reward of the next state.
    """
    goal = cfg.cheese_cell if phase == "C" else cfg.home_cell
    P = movement_kernel(cfg)
    n = P.shape[0]
    entry = np.full(n, cfg.r_other)
    entry[cfg.cell_index(goal)] = cfg.r_good
    entry[cfg.cell_index(cfg.fire_cell)] = cfg.r_fire

    absorbing = (cfg.cell_index(goal), cfg.cell_index(cfg.fire_cell))
    for s in absorbing:
        P[s, :, :] = 0.0
        P[s, :, s] = 1.0

    r = P @ entry
    for s in absorbing:
        r[s, :] = 0.0
    return P, r

