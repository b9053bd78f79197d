import pytest

from helpers import recursion_limit
from ppabt.keydoor import (
    KeyDoorWorld, Perturbation, STAGES, ScenarioScript, run_baseline_trial,
    run_bt_trial, run_experiment,
)


class TestWorld:
    def test_plans_complete_in_order(self):
        world = KeyDoorWorld(ScenarioScript())
        for _ in range(3):
            world.apply("key")
        assert world.props["KeyStacked"] is True
        for _ in range(3):
            world.apply("door")
        assert world.props["KeyDoorPassive"] is True
        assert world.props["VisibleKeyDoor"] is False
        for _ in range(3):
            world.apply("prize")
        assert world.props["PrizePassive"] is True

    def test_perturbation_fires_once_and_destroys_progress(self):
        script = ScenarioScript(perturbation=Perturbation("key", at_progress=2))
        world = KeyDoorWorld(script)
        world.apply("key")
        world.apply("key")  # hits at_progress=2
        assert world.perturbation_fired
        assert world.progress["key"] == 0
        assert world.props["VisibleKeyDoor"] is False
        world.apply(None)   # transient settles
        assert world.props["VisibleKeyDoor"] is True
        for _ in range(3):  # plan can redo; no second perturbation
            world.apply("key")
        assert world.props["KeyStacked"] is True

    def test_irreversible_perturbation_stays(self):
        script = ScenarioScript(
            perturbation=Perturbation("door", reversible=False))
        world = KeyDoorWorld(script)
        for _ in range(3):
            world.apply("key")
        world.apply("door")
        world.apply(None)
        assert world.props["KeyStacked"] is False

    def test_script_validation(self):
        with pytest.raises(ValueError):
            Perturbation("hallway")
        with pytest.raises(ValueError):
            ScenarioScript(perturbation=Perturbation("key", at_progress=3))


class TestTrials:
    def test_undisturbed_both_modes_succeed(self):
        assert run_baseline_trial(ScenarioScript())["success"] is True
        result = run_bt_trial(ScenarioScript())
        assert result["success"] is True
        assert result["resets"] == 0
        assert result["sound"] is True

    @pytest.mark.parametrize("stage", STAGES)
    def test_disturbed_baseline_always_fails(self, stage):
        script = ScenarioScript(perturbation=Perturbation(stage))
        result = run_baseline_trial(script)
        assert result["success"] is False
        assert result["failed_stage"] == stage

    @pytest.mark.parametrize("stage", STAGES)
    def test_disturbed_bt_recovers_via_one_retry(self, stage):
        script = ScenarioScript(perturbation=Perturbation(stage))
        result = run_bt_trial(script)
        assert result["success"] is True
        assert result["resets"] == 1
        assert result["sound"] is True

    @pytest.mark.parametrize("stage", STAGES)
    def test_irreversible_disturbance_fails_even_with_retry(self, stage):
        script = ScenarioScript(
            perturbation=Perturbation(stage, reversible=False))
        result = run_bt_trial(script)
        assert result["success"] is False

    def test_zero_retry_budget_cannot_recover(self):
        script = ScenarioScript(theta=0,
                                perturbation=Perturbation("key"))
        result = run_bt_trial(script)
        assert result["success"] is False

    def test_long_trial_audits_at_default_recursion_limit(self):
        # a 1,201-state successful trace, audited within 1,000 frames;
        # t_task_max is accepted and unused, as perfbench's long trials pass it
        script = ScenarioScript(durations={"key": 400, "door": 400, "prize": 400},
                                t_task_max=2000, max_trace=2000)
        with recursion_limit(1000):
            result = run_bt_trial(script)
        assert result["success"] is True
        assert result["sound"] is True
        assert result["ticks"] == 1201

    def test_trials_deterministic(self):
        script = ScenarioScript(perturbation=Perturbation("door"))
        assert run_bt_trial(script) == run_bt_trial(script)

    def test_shared_tree_carries_no_state_between_trials(self):
        # the trials share one compiled tree; a trial that resets must
        # leave nothing behind for the next one
        script = ScenarioScript(theta=2)
        first = run_bt_trial(script)
        disturbed = run_bt_trial(ScenarioScript(
            theta=2, perturbation=Perturbation("door")))
        assert disturbed["resets"] == 1
        assert run_bt_trial(script) == first


class TestExperiment:
    def test_baseline_block_counts(self):
        report = run_experiment("baseline")["summary"]
        assert report["normal_successes"] == 10
        assert report["disturbed_successes"] == {"key": 0, "door": 0, "prize": 0}

    def test_bt_block_counts_reversible(self):
        report = run_experiment("bt")["summary"]
        assert report["normal_successes"] == 10
        assert report["disturbed_successes"] == {"key": 5, "door": 5, "prize": 5}

    def test_bt_block_counts_irreversible(self):
        report = run_experiment("bt", reversible=False)["summary"]
        assert report["disturbed_successes"] == {"key": 0, "door": 0, "prize": 0}
