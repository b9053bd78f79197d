from random import Random
from types import MappingProxyType

import numpy as np
import pytest

from ppabt.gridworld import (
    DOWN, GridConfig, GridEnv, GridState, LEFT, RIGHT, UP, build_phase_mdp,
    grid_alphabet, movement_kernel, prop_name, propositions,
    realized_direction, step,
)

CFG = GridConfig()
# a 5x3 grid with every special cell moved off the default geometry
SMALL = GridConfig(width=5, height=3, cheese_cell=(1, 3), fire_cell=(5, 2),
                   home_cell=(2, 1), start_cell=(4, 3))


class TestStep:
    def test_deterministic_when_p_in_one(self):
        cfg = GridConfig(p_in=1.0)
        state = GridState((2, 2))
        new, direction = step(state, RIGHT, cfg, Random(0))
        assert new.mouse_cell == (3, 2)
        assert direction == RIGHT

    def test_wall_bump_stays(self):
        cfg = GridConfig(p_in=1.0)
        state, _ = step(GridState((4, 2)), RIGHT, cfg, Random(0))
        assert state.mouse_cell == (4, 2)
        state, _ = step(GridState((1, 1)), DOWN, cfg, Random(0))
        assert state.mouse_cell == (1, 1)

    def test_slip_frequencies_monte_carlo(self):
        cfg = GridConfig(p_in=0.8)
        rng = Random(42)
        counts = {UP: 0, LEFT: 0, RIGHT: 0}
        n = 100_000
        for _ in range(n):
            counts[realized_direction(UP, cfg.p_in, rng)] += 1
        assert counts[UP] / n == pytest.approx(0.8, abs=0.01)
        assert counts[LEFT] / n == pytest.approx(0.1, abs=0.01)
        assert counts[RIGHT] / n == pytest.approx(0.1, abs=0.01)

    def test_perpendicular_slips_only(self):
        rng = Random(3)
        for _ in range(2000):
            d = realized_direction(LEFT, 0.5, rng)
            assert d in (LEFT, UP, DOWN)

    def test_cheese_picked_up_and_kept(self):
        cfg = GridConfig(p_in=1.0)
        state = GridState((3, 4))
        state, _ = step(state, RIGHT, cfg, Random(0))
        assert state.mouse_cell == cfg.cheese_cell
        assert state.has_cheese
        state, _ = step(state, LEFT, cfg, Random(0))
        assert state.has_cheese  # monotone within an episode

    def test_seeded_determinism(self):
        cfg = GridConfig(p_in=0.7)
        runs = []
        for _ in range(2):
            rng = Random(99)
            state = GridState(cfg.start_cell)
            cells = []
            for a in [UP, UP, RIGHT, RIGHT, DOWN, LEFT] * 3:
                state, _ = step(state, a, cfg, rng)
                cells.append(state.mouse_cell)
            runs.append(cells)
        assert runs[0] == runs[1]


class TestPropositions:
    def test_one_hot_identity_over_all_cells(self):
        cells = CFG.cells()
        matrix = []
        for cell in cells:
            props = propositions(GridState(cell), CFG)
            matrix.append([props[prop_name(c)] for c in cells])
        assert np.array_equal(np.array(matrix), np.eye(16, dtype=bool))

    def test_fire_cell_props(self):
        props = propositions(GridState(CFG.fire_cell), CFG)
        assert props["Fire"] is True and props["Home"] is False
        assert sum(props[prop_name(c)] for c in CFG.cells()) == 1

    def test_home_with_cheese(self):
        props = propositions(GridState(CFG.home_cell, has_cheese=True), CFG)
        assert props["Home"] is True and props["Cheese"] is True

    def test_alphabet_size(self):
        assert len(grid_alphabet(CFG)) == 16 + 3


def entry_reward(cfg, phase, cell, action):
    """Planner reward for one deterministic move (``cfg.p_in`` is 1.0)."""
    _, r = build_phase_mdp(cfg, phase)
    return r[cfg.cell_index(cell), action]


DET = GridConfig(p_in=1.0)


class TestReward:
    def test_fire_dominates(self):
        # (4, 1) -> Up enters the fire cell (4, 2)
        assert entry_reward(DET, "C", (4, 1), UP) == DET.r_fire
        assert entry_reward(DET, "H", (4, 1), UP) == DET.r_fire

    def test_ordinary_cell(self):
        assert entry_reward(DET, "C", (1, 2), UP) == DET.r_other
        assert entry_reward(DET, "H", (1, 2), UP) == DET.r_other

    def test_cheese_phase_goal(self):
        cfg = GridConfig(p_in=1.0, r_other=-0.04, r_good=1.0, r_fire=-10.0)
        assert entry_reward(cfg, "C", (3, 4), RIGHT) == 1.0
        assert entry_reward(cfg, "H", (3, 4), RIGHT) == -0.04  # not H's goal

    def test_home_phase_goal(self):
        assert entry_reward(DET, "H", (3, 2), DOWN) == DET.r_good
        assert entry_reward(DET, "C", (3, 2), DOWN) == DET.r_other


class TestKernel:
    def test_rows_sum_to_one_for_all_state_actions(self):
        for p_in in (0.4, 0.7, 1.0):
            P = movement_kernel(GridConfig(p_in=p_in))
            assert np.allclose(P.sum(axis=2), 1.0, atol=1e-12)

    def test_phase_mdp_rows_sum_to_one(self):
        for phase in ("C", "H"):
            P, r = build_phase_mdp(CFG, phase)
            assert np.allclose(P.sum(axis=2), 1.0, atol=1e-12)
            assert r.shape == (16, 4)

    def test_absorbing_states_self_loop_without_reward(self):
        P, r = build_phase_mdp(CFG, "C")
        goal = CFG.cell_index(CFG.cheese_cell)
        fire = CFG.cell_index(CFG.fire_cell)
        for s in (goal, fire):
            assert np.allclose(P[s, :, s], 1.0)
            assert np.allclose(r[s], 0.0)

    def test_kernel_matches_monte_carlo(self):
        cfg = GridConfig(p_in=0.8)
        P = movement_kernel(cfg)
        rng = Random(7)
        start = GridState((2, 3))
        s = cfg.cell_index(start.mouse_cell)
        n = 50_000
        hits = {}
        for _ in range(n):
            nxt, _ = step(start, UP, cfg, rng)
            idx = cfg.cell_index(nxt.mouse_cell)
            hits[idx] = hits.get(idx, 0) + 1
        for idx, count in hits.items():
            assert count / n == pytest.approx(P[s, UP, idx], abs=0.01)


class TestGridEnv:
    def test_env_protocol(self):
        env = GridEnv(CFG, Random(1))
        props = env.propositions()
        assert set(props) == grid_alphabet(CFG)
        env.apply(UP)
        env.apply(None)  # idle ticks allowed
        assert CFG.in_bounds(env.state.mouse_cell)

    def test_start_on_cheese_cell_sets_flag(self):
        env = GridEnv(CFG, Random(1), start_cell=CFG.cheese_cell)
        assert env.propositions()["Cheese"] is True

    @pytest.mark.parametrize("cfg", [CFG, SMALL], ids=["default", "5x3"])
    def test_table_matches_propositions(self, cfg):
        for cell in cfg.cells():
            for has_cheese in (False, True):
                env = GridEnv(cfg, Random(0), start_cell=cell)
                env.state = GridState(cell, has_cheese)
                props = env.propositions()
                assert type(props) is MappingProxyType
                assert props == propositions(GridState(cell, has_cheese), cfg)
                assert list(props) == list(propositions(env.state, cfg))

    def test_table_shared_per_geometry(self):
        a = GridEnv(GridConfig(p_in=0.6), Random(0), start_cell=(2, 3))
        b = GridEnv(GridConfig(p_in=0.9, seed=5), Random(1), start_cell=(2, 3))
        assert a.propositions() is b.propositions()
        with pytest.raises(TypeError):
            a.propositions()["Fire"] = True
        assert a.propositions()["Fire"] is False

    def test_table_keyed_on_fire_cell(self):
        moved = GridConfig(fire_cell=(2, 3))
        env = GridEnv(moved, Random(0), start_cell=(2, 3))
        assert env.propositions()["Fire"] is True
        assert GridEnv(CFG, Random(0), start_cell=(2, 3)).propositions()["Fire"] is False
        env = GridEnv(moved, Random(0), start_cell=CFG.fire_cell)
        assert env.propositions()["Fire"] is False

    def test_start_outside_grid_rejected(self):
        with pytest.raises(ValueError, match="outside the 4x4 grid"):
            GridEnv(CFG, Random(0), start_cell=(5, 1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GridConfig(p_in=1.5)
        with pytest.raises(ValueError):
            GridConfig(fire_cell=(4, 4))
        with pytest.raises(ValueError):
            GridConfig(start_cell=(0, 1))
