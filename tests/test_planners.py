import random
from types import MappingProxyType

import numpy as np
import pytest

from vi_oracle import value_iteration

from ppabt import gridworld as gw
from ppabt.bt import SUCCESS
from ppabt.cli import EXIT_USAGE, main
from ppabt.mission import parse_mission
from ppabt.missions import build_c2h
from ppabt.planners import (
    C2hRuntime, EpisodeRecord, LearnerConfig, NonStochasticKernel,
    PhaseCountMismatch, Policy, evaluate_policy, feedback_update,
    greedy_from_q, learn, plan_grid_policies, policy_iteration,
)


class TestPolicyIteration:
    def test_agrees_with_value_iteration_default_setting(self):
        cfg = gw.GridConfig(p_in=0.8, r_other=-0.04, r_good=1.0, r_fire=-1.0)
        for phase in ("C", "H"):
            P, r = gw.build_phase_mdp(cfg, phase)
            pi, v = policy_iteration(P, r, gamma=0.9)
            pi_ref, v_ref = value_iteration(P, r, gamma=0.9)
            assert np.array_equal(pi, pi_ref)
            assert np.max(np.abs(v - v_ref)) < 1e-8

    def test_agreement_over_random_settings(self):
        rng = random.Random(17)
        for _ in range(6):
            cfg = gw.GridConfig(
                p_in=rng.uniform(0.4, 1.0 - 1e-9),
                r_other=rng.uniform(-1.5, -0.01),
                r_good=rng.choice([0.1, 0.5, 1.0, 2.0, 5.0, 10.0]),
                r_fire=rng.choice([-10.0, -5.0, -2.0, -1.0, -0.5, -0.1]),
            )
            gamma = rng.uniform(0.5, 0.99)
            P, r = gw.build_phase_mdp(cfg, rng.choice(["C", "H"]))
            pi, _ = policy_iteration(P, r, gamma)
            pi_ref, _ = value_iteration(P, r, gamma)
            assert np.array_equal(pi, pi_ref)

    def test_deterministic_world_gives_shortest_path(self):
        # flat field, fire neither absorbing nor penalized: greedy
        # distance-to-goal policy
        cfg = gw.GridConfig(p_in=1.0)
        P = gw.movement_kernel(cfg)
        g = cfg.cell_index(cfg.cheese_cell)
        entry = np.full(P.shape[0], -0.1)
        entry[g] = 1.0
        P[g] = 0.0
        P[g, :, g] = 1.0
        r = P @ entry
        r[g] = 0.0
        pi, _ = policy_iteration(P, r, gamma=0.9)
        goal = cfg.cheese_cell
        for cell in cfg.cells():
            if cell == goal:
                continue
            steps = 0
            pos = cell
            while pos != goal and steps < 10:
                pos = gw.move(pos, int(pi[cfg.cell_index(pos)]), cfg)
                steps += 1
            manhattan = abs(cell[0] - goal[0]) + abs(cell[1] - goal[1])
            assert steps == manhattan

    def test_rejects_non_stochastic_kernel(self):
        P, r = gw.build_phase_mdp(gw.GridConfig(), "C")
        P = P.copy()
        P[0, 0, :] *= 0.5
        with pytest.raises(NonStochasticKernel):
            policy_iteration(P, r, gamma=0.9)

    def test_greedy_tie_breaking_is_first_action(self):
        q = np.array([[1.0, 1.0, 0.5, 1.0], [0.2, 0.3, 0.3, 0.1]])
        assert list(greedy_from_q(q)) == [0, 1]

    def test_plan_grid_policies_rows_are_one_hot(self):
        policy = plan_grid_policies(gw.GridConfig(), gamma=0.9)
        policy.validate()
        assert policy.kind == "deterministic"
        for phase in ("C", "H"):
            for row in policy.tables[phase].values():
                assert sorted(row) == [0.0, 0.0, 0.0, 1.0]


class TestFeedbackUpdate:
    def test_uniform_row_single_pair_positive(self):
        policy = Policy()
        feedback_update(policy, EpisodeRecord([("2,2", 0)], b=1))
        row = policy.tables["C"]["2,2"]
        assert row == pytest.approx([0.625, 0.125, 0.125, 0.125], abs=1e-12)

    def test_negative_update_clamped_to_floor(self):
        policy = Policy()
        feedback_update(policy, EpisodeRecord([("2,2", 0)], b=-1), floor=1e-3)
        row = policy.tables["C"]["2,2"]
        total = 0.001 + 0.75
        expected = [0.001 / total, 0.25 / total, 0.25 / total, 0.25 / total]
        assert row == pytest.approx(expected, abs=1e-12)

    def test_discount_ladder_exponents(self):
        policy = Policy()
        record = EpisodeRecord([("s0", 0), ("s1", 1), ("s2", 2)], b=1)
        feedback_update(policy, record, mu=0.9)
        assert policy.tables["C"]["s0"][0] == pytest.approx(1.06 / 1.81, abs=1e-12)
        assert policy.tables["C"]["s1"][1] == pytest.approx(1.15 / 1.90, abs=1e-12)
        assert policy.tables["C"]["s2"][2] == pytest.approx(1.25 / 2.00, abs=1e-12)

    def test_repeated_pair_accumulates_before_normalizing(self):
        policy = Policy()
        record = EpisodeRecord([("s", 0), ("s", 0)], b=1)
        feedback_update(policy, record, mu=0.9)
        # increments 0.9 and 1.0 on the same entry
        total = 1.0 + 1.9
        assert policy.tables["C"]["s"][0] == pytest.approx(2.15 / total, abs=1e-12)

    def test_phase_segments_split(self):
        policy = Policy()
        record = EpisodeRecord([("a", 0), ("b", 1)], b=-1, phases=["C", "H"])
        feedback_update(policy, record)
        # cheese segment gets +1 despite the failed mission
        assert policy.tables["C"]["a"][0] > 0.25
        assert policy.tables["H"]["b"][1] < 0.25
        assert "b" not in policy.tables["C"]

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phases must be among C, H"):
            EpisodeRecord([("1,1", 0)], 1, ["X"])

    def test_segments_hold_only_phases_that_ran(self):
        # feedback_update relies on it: no segment comes out empty
        assert EpisodeRecord([("a", 0)], b=-1, phases=["H"]).segments() == \
            [("H", [("a", 0)], -1)]
        assert EpisodeRecord([], b=1).segments() == []

    def test_rows_stay_distributions_under_fuzz(self):
        rng = random.Random(33)
        policy = Policy()
        keys = [f"{j},{k}" for j in range(1, 5) for k in range(1, 5)]
        for _ in range(10_000):
            n = rng.randint(1, 6)
            pairs = [(rng.choice(keys), rng.randrange(4)) for _ in range(n)]
            split = rng.randint(0, n)
            phases = rng.choice([None, ["C"] * split + ["H"] * (n - split)])
            record = EpisodeRecord(pairs, b=rng.choice([1, -1]), phases=phases)
            feedback_update(policy, record, mu=rng.uniform(0.5, 1.0))
        policy.validate()

    def test_positive_update_strictly_increases_single_pair(self):
        rng = random.Random(34)
        for _ in range(200):
            policy = Policy()
            # random pre-existing row
            raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
            total = sum(raw)
            policy.tables["C"]["s"] = [x / total for x in raw]
            before = list(policy.tables["C"]["s"])
            action = rng.randrange(4)
            feedback_update(policy, EpisodeRecord([("s", action)], b=1))
            assert policy.tables["C"]["s"][action] > before[action]


def argmax(row):
    return max(range(4), key=lambda i: (row[i], -i))


class TestLearning:
    def test_zero_episodes_returns_uniform(self):
        policy, curve = learn(build_c2h(), gw.GridConfig(),
                              LearnerConfig(episodes=0))
        assert curve == []
        assert all(not t for t in policy.tables.values())

    def test_toy_deterministic_grid_converges(self):
        cfg = gw.GridConfig(width=2, height=2, cheese_cell=(2, 2),
                            fire_cell=(1, 2), home_cell=(1, 1),
                            start_cell=(1, 1), p_in=1.0)
        policy, curve = learn(build_c2h(cfg), cfg,
                              LearnerConfig(episodes=50, max_trace=20, seed=3))
        # one-hot rows on the learned argmax: Policy.sample follows them
        greedy = Policy(tables={
            phase: {key: [float(i == argmax(row)) for i in range(4)]
                    for key, row in table.items()}
            for phase, table in policy.tables.items()})
        result = evaluate_policy(build_c2h(cfg), cfg, greedy, n_trials=20,
                                 randomize_start=False, seed=4, max_trace=20)
        assert result["success_probability"] == 1.0
        # optimal routes: right then up for cheese, down then left for home
        assert argmax(policy.tables["C"]["1,1"]) == 3  # Right
        assert argmax(policy.tables["C"]["2,1"]) == 0  # Up
        assert argmax(policy.tables["H"]["2,2"]) == 1  # Down
        assert argmax(policy.tables["H"]["2,1"]) == 2  # Left

    def test_learning_trend_on_default_grid(self):
        cfg = gw.GridConfig(p_in=0.95, start_cell=(4, 1))
        policy, curve = learn(build_c2h(cfg), cfg,
                              LearnerConfig(episodes=200, seed=11))
        first = sum(r["status"] == "success" for r in curve[:50])
        last = sum(r["status"] == "success" for r in curve[-50:])
        assert last > first
        assert last / 50 > 0.0

    def test_phases_follow_task_order(self):
        cfg = gw.GridConfig(p_in=0.95, start_cell=(4, 1))
        runtime = C2hRuntime(build_c2h(cfg), cfg, Policy(), max_trace=50)
        records = [runtime.run_episode(seed)[2] for seed in range(20)]
        assert all(r.phases == sorted(r.phases) for r in records)  # C before H
        assert any("H" in r.phases for r in records)

    def test_mission_needs_one_task_per_phase(self):
        cfg = gw.GridConfig()
        expr = parse_mission("F (task(cheese, post=Cheese))", gw.grid_alphabet(cfg))
        with pytest.raises(PhaseCountMismatch):
            C2hRuntime(expr, cfg, Policy(), max_trace=10)

    def test_curve_seeds_reproduce_episodes(self):
        cfg = gw.GridConfig(p_in=0.9, start_cell=(4, 1))
        policy1, curve1 = learn(build_c2h(cfg), cfg,
                                LearnerConfig(episodes=30, seed=21))
        policy2, curve2 = learn(build_c2h(cfg), cfg,
                                LearnerConfig(episodes=30, seed=21))
        assert curve1 == curve2
        assert policy1.tables == policy2.tables


class TestEvaluatePolicy:
    def test_optimal_policy_deterministic_world(self):
        cfg = gw.GridConfig(p_in=1.0)
        policy = plan_grid_policies(cfg, gamma=0.9)
        result = evaluate_policy(build_c2h(cfg), cfg, policy, n_trials=25,
                                 randomize_start=True, seed=5)
        assert result["success_probability"] == 1.0

    def test_uniform_worse_than_planned(self):
        cfg = gw.GridConfig(p_in=0.9)
        planned = evaluate_policy(build_c2h(cfg), cfg,
                                  plan_grid_policies(cfg), n_trials=60, seed=6)
        uniform = evaluate_policy(build_c2h(cfg), cfg, Policy(), n_trials=60,
                                  seed=6)
        assert uniform["success_probability"] < planned["success_probability"]

    def test_evaluation_leaves_the_policy_unwritten(self):
        # an unseen cell samples uniform without gaining a row
        cfg = gw.GridConfig(p_in=0.9)
        policy = Policy()
        evaluate_policy(build_c2h(cfg), cfg, policy, n_trials=5, seed=6)
        assert policy.tables == {"C": {}, "H": {}}

    def test_policy_json_roundtrip(self):
        policy = plan_grid_policies(gw.GridConfig())
        back = Policy.from_json(policy.to_json())
        assert back.tables == policy.tables
        assert back.kind == "deterministic"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rows_rejected(self, value):
        with pytest.raises(ValueError, match="invalid row"):
            Policy.from_json({"tables": {"C": {"3,1": [value] * 4}, "H": {}}})
        with pytest.raises(ValueError, match="invalid row"):
            Policy.from_json({"tables": {"C": {}, "H": {"1,1": [value, 0, 0, 0]}}})

    def test_infer_rejects_nan_policy(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_text('{"tables": {"C": {"3,1": [NaN, NaN, NaN, NaN]}, "H": {}}}')
        assert main(["infer", "--policy", str(path), "--trials", "2"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid row [nan, nan, nan, nan] at (C, 3,1)\n"

    def test_read_only_grid_states_audit(self):
        # the grid hands out read-only states from its table and the
        # runner keeps them as given: they run whole episodes, and every
        # successful one passes its audit
        cfg = gw.GridConfig(p_in=0.9)
        runtime = C2hRuntime(build_c2h(cfg), cfg, plan_grid_policies(cfg), 50)
        outcomes = set()
        for seed in range(20):
            status, trace_states, _ = runtime.run_episode(seed)
            assert all(type(state) is MappingProxyType for state in trace_states)
            assert runtime.audit(status, trace_states)
            outcomes.add(status)
        assert SUCCESS in outcomes
