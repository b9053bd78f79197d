import itertools
from types import MappingProxyType

import pytest

from helpers import StaticEnv, StubNode
from ppabt import ltlf
from ppabt.bt import (
    ActionRunner, Condition, ConcurrentActionConflict, FAILURE, FinallyReset,
    MissionRunner, Parallel, PreconditionLatch, RUNNING, SUCCESS,
    Selector, Sequence, bt_to_json, export_dot,
    iter_nodes, node_count, run_to_completion,
)
from ppabt.compiler import bind_scripted, compile_mission, compile_task, inline_actions
from ppabt.gridworld import GridConfig
from ppabt.mission import MissionConfig, Task, expand_mission, parse_mission, ppa_task
from ppabt.missions import build_c2h
from ppabt.planners import C2hRuntime, Policy
from ppabt.verify import audit_trace

A = ltlf.Atom


def tick_tree(tree, state, runner=None):
    """Tick ``tree`` once at ``state``, against ``runner`` (a fresh
    ``MissionRunner(tree)`` unless one is passed to keep memory)."""
    runner = runner if runner is not None else MissionRunner(tree)
    runner.state, runner.pending = state, None
    return tree.tick(runner), runner


def tick_statuses(tree, rows):
    """Root status of each tick when the tree is fed ``rows`` in order."""
    runner = MissionRunner(tree)
    return [runner.tick_once(state) for state in StaticEnv(GRID, rows).states]


class TestControlNodes:
    def test_selector_evaluates_right_after_left_fails(self):
        right = StubNode([SUCCESS])
        tree = Selector([StubNode([FAILURE]), right])
        status, _ = tick_tree(tree, {})
        assert status is SUCCESS
        assert right.ticks == 1

    def test_selector_skips_right_when_left_succeeds(self):
        right = StubNode([SUCCESS])
        tree = Selector([StubNode([SUCCESS]), right])
        status, _ = tick_tree(tree, {})
        assert status is SUCCESS
        assert right.ticks == 0

    def test_sequence_never_ticks_action_after_failing_condition(self):
        act = ActionRunner("x", A("done"), choose=lambda s: "go")
        tree = Sequence([Condition(A("a")), act])
        status, ctx = tick_tree(tree, {"a": False, "done": False})
        assert status is FAILURE
        assert ctx.pending is None  # the action would have claimed the tick
        status, ctx = tick_tree(tree, {"a": True, "done": False})
        assert status is RUNNING
        assert ctx.pending is act

    def test_parallel_status_table(self):
        # any failure wins, then all-success, otherwise running, whatever
        # the order; every child ticks exactly once
        for n in (1, 2, 3):
            for outcomes in itertools.product([SUCCESS, FAILURE, RUNNING], repeat=n):
                stubs = [StubNode([s]) for s in outcomes]
                status, _ = tick_tree(Parallel(stubs), {})
                if FAILURE in outcomes:
                    expected = FAILURE
                elif all(s is SUCCESS for s in outcomes):
                    expected = SUCCESS
                else:
                    expected = RUNNING
                assert status is expected, outcomes
                assert [s.ticks for s in stubs] == [1] * n, outcomes

    def test_parallel_ticks_all_children(self):
        stubs = [StubNode([FAILURE]), StubNode([SUCCESS]), StubNode([RUNNING])]
        tree = Parallel(stubs)
        status, _ = tick_tree(tree, {})
        assert status is FAILURE
        assert [s.ticks for s in stubs] == [1, 1, 1]

    def test_sequence_selector_short_circuit_on_every_status(self):
        # exhaustive over 1..3 children of Success/Failure/Running: sequence
        # returns the first non-Success, selector the first non-Failure, and
        # nothing past the deciding child ticks
        for n in (1, 2, 3):
            for outcomes in itertools.product([SUCCESS, FAILURE, RUNNING], repeat=n):
                for node, go_on in ((Sequence, SUCCESS), (Selector, FAILURE)):
                    tree = node([StubNode([s]) for s in outcomes])
                    status, _ = tick_tree(tree, {})
                    decider = next((i for i, s in enumerate(outcomes) if s is not go_on), n)
                    assert status is (outcomes[decider] if decider < n else go_on), \
                        (node.kind, outcomes)
                    assert [c.ticks for c in tree.children] == \
                        [1 if i <= decider else 0 for i in range(n)], (node.kind, outcomes)

    def test_parallel_agrees_with_sequence_without_running(self):
        for n in (1, 2, 3):
            for outcomes in itertools.product([SUCCESS, FAILURE], repeat=n):
                par = Parallel([StubNode([s]) for s in outcomes])
                seq = Sequence([StubNode([s]) for s in outcomes])
                assert tick_tree(par, {})[0] is tick_tree(seq, {})[0]


class TestDecorators:
    def test_precondition_latch_remembers_success(self):
        latch = PreconditionLatch(Condition(A("p")))
        runner = MissionRunner(latch)
        assert tick_tree(latch, {"p": False}, runner)[0] is FAILURE
        assert tick_tree(latch, {"p": True}, runner)[0] is SUCCESS
        assert tick_tree(latch, {"p": False}, runner)[0] is SUCCESS  # latched
        assert runner.latched == {latch} and runner.resets == {}

    def test_latches_of_an_unlabelled_tree_keep_apart(self):
        # a tree built straight from the node classes ticks correctly:
        # b's latch must not read a's
        a = PreconditionLatch(Condition(A("a")))
        b = PreconditionLatch(Condition(A("b")))
        status, runner = tick_tree(Parallel([a, b]), {"a": True, "b": False})
        assert status is FAILURE
        assert runner.latched == {a}

    def test_latch_cleared_by_reset(self):
        # the latch succeeds, its sibling fails, and the Finally parent resets
        latch = PreconditionLatch(Condition(A("p")))
        parent = FinallyReset(Sequence([latch, Condition(A("q"))]), theta=1)
        runner = MissionRunner(parent)
        assert tick_tree(parent, {"p": True, "q": False}, runner)[0] is RUNNING
        assert runner.latched == set() and runner.resets == {parent: 1}
        assert tick_tree(latch, {"p": False}, runner)[0] is FAILURE

    def test_finally_reset_latches_success_without_reticking(self):
        child = StubNode([SUCCESS])
        node = FinallyReset(child, theta=1)
        runner = MissionRunner(node)
        assert tick_tree(node, {}, runner)[0] is SUCCESS
        assert tick_tree(node, {}, runner)[0] is SUCCESS
        assert child.ticks == 1

    def test_finally_reset_zero_budget_fails_immediately(self):
        node = FinallyReset(StubNode([FAILURE]), theta=0)
        assert tick_tree(node, {})[0] is FAILURE

    def test_finally_reset_retry_budget(self):
        child = StubNode([FAILURE, FAILURE, FAILURE])
        node = FinallyReset(child, theta=2)
        runner = MissionRunner(node)
        assert tick_tree(node, {}, runner)[0] is RUNNING   # reset 1
        assert tick_tree(node, {}, runner)[0] is RUNNING   # reset 2
        assert tick_tree(node, {}, runner)[0] is FAILURE   # budget spent
        assert runner.resets == {node: 2}
        assert runner.total_resets() == 2

    def test_reset_counter_survives_ancestor_reset(self):
        inner = FinallyReset(StubNode([FAILURE]), theta=1)
        outer = FinallyReset(inner, theta=5)
        runner = MissionRunner(outer)
        # inner consumes its only reset, then fails; outer resets it
        for _ in range(3):
            tick_tree(outer, {}, runner)
        assert runner.resets == {inner: 1, outer: 2}  # inner not re-armed

    def test_ancestor_reset_clears_descendant_memory(self):
        # inner Finally: one reset on tick 0, running on tick 1, success
        # on tick 2, where the failing stub makes the outer Finally reset
        act = ActionRunner("x", A("done"), choose=lambda s: "go")
        inner = FinallyReset(Sequence([Condition(A("ok")), act]), theta=2)
        outer = FinallyReset(Sequence([inner, StubNode([FAILURE])]), theta=1)
        runner = MissionRunner(outer)
        assert runner.tick_once({"ok": False, "done": False}) is RUNNING
        assert runner.tick_once({"ok": True, "done": False}) is RUNNING
        assert runner.resets == {inner: 1}
        snap = runner.snapshot()
        assert runner.tick_once({"ok": True, "done": True}) is RUNNING
        assert inner not in runner.latched   # success cleared, counter kept
        assert runner.resets == {inner: 1, outer: 1}
        assert outer not in runner.latched
        assert runner.total_resets() == 2
        runner.restore(snap)                 # the counters come back too
        assert runner.resets == {inner: 1}
        assert runner.latched == set()
        assert runner.total_resets() == 1


GRID = {"Cheese", "Fire", "Home"}
CFG = MissionConfig(theta=0, alphabet=frozenset(GRID))


def scripted_task_tree(post="Cheese", gc="!Fire", pre="True", tc="True",
                       cfg=CFG, theta=None):
    from ppabt import mission as ms

    spec = ppa_task("t", post=post, pre=pre, gc=gc, tc=tc, action="t",
                    alphabet=GRID)
    expr = ms.Task(spec)
    if theta is not None:
        expr = ms.Finally(expr)
        cfg = MissionConfig(theta=theta, alphabet=cfg.alphabet)
    tree = compile_mission(expr, cfg)
    return bind_scripted(tree, expr, cfg)


class TestRunToCompletion:
    def test_post_already_true_gives_one_state_trace(self):
        tree = scripted_task_tree()
        env = StaticEnv(GRID, [{"Cheese": True}])
        status, trace, _ = run_to_completion(tree, env, max_trace=10)
        assert status is SUCCESS
        assert len(trace) == 1

    def test_global_constraint_violation_fails_that_tick(self):
        tree = scripted_task_tree()
        env = StaticEnv(GRID, [{}, {"Fire": True}, {"Cheese": True}])
        status, trace, _ = run_to_completion(tree, env, max_trace=10)
        assert status is FAILURE
        assert len(trace) == 2  # failed on the Fire state

    def test_trace_bound_reported_as_failure(self):
        tree = scripted_task_tree()
        env = StaticEnv(GRID, [{}])
        status, trace, _ = run_to_completion(tree, env, max_trace=5)
        assert status is FAILURE
        assert len(trace) == 5

    def test_retry_once_then_succeed(self):
        # fails at tick 1 (Fire), resets, then the post comes true
        tree = scripted_task_tree(theta=1)
        env = StaticEnv(GRID, [{}, {"Fire": True}, {}, {"Cheese": True}])
        status, trace, runner = run_to_completion(tree, env, max_trace=10)
        assert status is SUCCESS
        assert runner.total_resets() == 1
        assert tick_statuses(scripted_task_tree(theta=1), env.states) == \
            [RUNNING, RUNNING, RUNNING, SUCCESS]

    def test_theta_two_three_failures(self):
        # hand-simulated: failures at ticks 1, 3, 5; two resets then final
        tree = scripted_task_tree(theta=2)
        env = StaticEnv(GRID, [{}, {"Fire": True}, {}, {"Fire": True},
                               {}, {"Fire": True}])
        status, trace, runner = run_to_completion(tree, env, max_trace=10)
        assert status is FAILURE
        assert runner.total_resets() == 2
        assert tick_statuses(scripted_task_tree(theta=2), env.states) == \
            [RUNNING] * 5 + [FAILURE]

    def test_precondition_checked_at_start_only(self):
        tree = scripted_task_tree(pre="Home")
        env = StaticEnv(GRID, [{"Home": True}, {}, {"Cheese": True}])
        status, trace, _ = run_to_completion(tree, env, max_trace=10)
        assert status is SUCCESS
        assert len(trace) == 3

    def test_missing_precondition_fails_immediately(self):
        tree = scripted_task_tree(pre="Home")
        env = StaticEnv(GRID, [{}, {"Home": True}, {"Cheese": True}])
        status, trace, _ = run_to_completion(tree, env, max_trace=10)
        assert status is FAILURE
        assert len(trace) == 1

    def test_read_only_env_states_run_and_audit(self):
        # the runner records each env state as given: read-only views
        # tick, land on the trace uncopied, and the audit reads them with
        # the action proposition inlined as the task's postcondition
        given = []

        class ReadOnlyEnv(StaticEnv):
            def propositions(self):
                given.append(MappingProxyType(super().propositions()))
                return given[-1]

        env = ReadOnlyEnv(GRID, [{}, {"Cheese": True}])
        spec = ppa_task("t", post="Cheese", gc="!Fire", action="t", alphabet=GRID)
        expr = Task(spec)
        tree = bind_scripted(compile_mission(expr, CFG), expr, CFG)
        status, trace, _ = run_to_completion(tree, env, max_trace=10)
        assert status is SUCCESS
        assert len(trace) == 2
        assert all(state is view for state, view in zip(trace, given))
        assert all(state.keys() == GRID for state in trace)
        goal = inline_actions(expand_mission(expr), tree)
        assert "__action_t" not in ltlf.atoms_of(goal)
        assert audit_trace(goal, ltlf.Trace(trace, frozenset(GRID)), status)
        assert ltlf.evaluate(goal, ltlf.Trace(trace[:1], frozenset(GRID))) is False

    def test_execution_halts_at_first_terminal_status(self):
        tree = scripted_task_tree()
        env = StaticEnv(GRID, [{}, {"Fire": True}, {"Cheese": True}])
        status, trace, _ = run_to_completion(tree, env, max_trace=10)
        assert status is FAILURE
        assert len(trace) == 2
        assert env.applied == [None]  # no env step after the failing tick
        assert tick_statuses(scripted_task_tree(), env.states[:2]) == [RUNNING, FAILURE]

    def test_determinism(self):
        runs = []
        for _ in range(2):
            tree = scripted_task_tree(theta=1)
            env = StaticEnv(GRID, [{}, {"Fire": True}, {}, {"Cheese": True}])
            status, trace, runner = run_to_completion(tree, env, max_trace=10)
            # the two trees are built apart: compare memory by preorder index
            index = {node: i for i, node in enumerate(iter_nodes(tree))}
            runs.append((status, trace, env.applied,
                         {index[node] for node in runner.latched},
                         {index[node]: used for node, used in runner.resets.items()}))
        assert runs[0] == runs[1]
        assert runs[0][3] and runs[0][4] == {0: 1}  # the task's Finally (the root) reset once


class TestActionContract:
    def test_concurrent_actions_conflict(self):
        expr = parse_mission("& task(a, post=Cheese) task(b, post=Home)", GRID)
        # the claims conflict whatever the choosers would return
        for move in ("go", None):
            tree = compile_mission(expr, CFG, choose={"a": lambda s: move, "b": lambda s: move})
            env = StaticEnv(GRID, [{}])
            with pytest.raises(ConcurrentActionConflict,
                               match="^'b' and 'a' both fired in one tick$"):
                run_to_completion(tree, env, max_trace=5)

    def test_the_run_loop_calls_the_chooser_after_each_claimed_tick(self):
        def refuse(state):
            raise AssertionError("a tick called the chooser")

        act = ActionRunner("x", A("Cheese"), choose=refuse)
        runner = MissionRunner(act)
        assert runner.tick_once({"Cheese": False}) is RUNNING  # it only claims
        assert runner.pending is act
        # once after every tick the action ran, the last one too: the Fire
        # tick that fails the run and the tick at the trace bound
        spec = ppa_task("t", post="Cheese", gc="!Fire", action="t", alphabet=GRID)
        for rows, max_trace, status, calls in [([{}, {}, {"Fire": True}], 10, FAILURE, 3),
                                               ([{}], 4, FAILURE, 4),
                                               ([{}, {"Cheese": True}], 10, SUCCESS, 1)]:
            seen = []
            tree = compile_mission(Task(spec), CFG, choose={
                "t": lambda state: seen.append(state) or len(seen)})
            env = StaticEnv(GRID, rows)
            result, trace, _ = run_to_completion(tree, env, max_trace)
            assert result is status
            assert seen == trace[:calls]
            assert env.applied == list(range(1, len(trace)))
        # the learner records one pair per claimed tick, however it ends
        grid = GridConfig()
        runtime = C2hRuntime(build_c2h(grid), grid, Policy(), max_trace=8)
        endings = set()
        for seed in range(40):
            status, trace, record = runtime.run_episode(seed)
            replay = MissionRunner(runtime.tree)
            claims = [replay.tick_once(state) and replay.pending for state in trace]
            assert len(record.pairs) == sum(node is not None for node in claims)
            endings.add("Fire" if trace[-1]["Fire"] else len(trace))
        assert {"Fire", 8} <= endings

    def test_runner_success_exactly_when_post_holds(self):
        # the node keeps no clock: only the trace bound ends a run
        act = ActionRunner("x", A("p"))
        assert tick_tree(act, {"p": True})[0] is SUCCESS
        assert tick_tree(act, {"p": False})[0] is RUNNING


class TestSerialization:
    def test_dot_single_condition(self):
        dot = export_dot(Condition(A("a")))
        assert dot.count("->") == 0
        assert "◯ a" in dot

    def test_dot_task_tree_shape(self):
        spec = ppa_task("cheese", post="Cheese", gc="!Fire", alphabet=GRID)
        tree = compile_task(spec)
        dot = export_dot(tree)
        assert dot.count("?") >= 1          # root selector
        assert dot.count("□") == 1     # one action node
        assert dot.count("◯") == 3     # 2 gc checks + post; pre and tc are True
        assert dot.count("->") == node_count(tree) - 1

    def test_json_carries_structure_and_preorder_ids(self):
        expr = parse_mission(
            "U (F task(a, post=Cheese, gc=!Fire)) (F task(b, post=Home, gc=!Fire))",
            GRID)
        tree = compile_mission(expr, MissionConfig(theta=1, alphabet=frozenset(GRID)))

        def preorder(data):
            yield data
            for child in data.get("children", []):
                yield from preorder(child)

        nodes = list(preorder(bt_to_json(tree)))
        assert [d["kind"] for d in nodes] == [n.kind for n in iter_nodes(tree)]
        assert [d["id"] for d in nodes] == list(range(node_count(tree)))
        assert nodes[0]["kind"] == "sequence" and nodes[1]["theta"] == 1

    def test_runner_snapshot_restore(self):
        tree = scripted_task_tree(theta=1)
        runner = MissionRunner(tree)
        runner.tick_once({"Cheese": False, "Fire": False, "Home": False})
        snap = runner.snapshot()
        assert hash(snap) == hash(runner.snapshot())  # one hashable value
        runner.tick_once({"Cheese": False, "Fire": True, "Home": False})
        assert runner.snapshot() != snap     # the Fire tick reset the task
        runner.restore(snap)
        assert runner.snapshot() == snap
        status = runner.tick_once({"Cheese": True, "Fire": False, "Home": False})
        assert status is SUCCESS


class TestResetCounts:
    def test_reset_counted_on_its_tick(self):
        tree = scripted_task_tree(theta=1)
        runner = MissionRunner(tree)
        env = StaticEnv(GRID, [{}, {"Fire": True}, {}, {"Cheese": True}])
        counts = []
        for state in env.states:
            runner.tick_once(state)
            counts.append(runner.total_resets())
        assert counts == [0, 1, 1, 1]  # the Fire tick reset the task

    def test_restore_brings_counters_back_on_every_branch(self):
        # check_inclusion's pattern: one snapshot, restored once per branch
        tree = scripted_task_tree(theta=1, pre="!Home")
        runner = MissionRunner(tree)
        assert runner.tick_once({"Cheese": False, "Fire": False, "Home": False}) is RUNNING
        latched = set(runner.latched)  # the task's precondition latch
        assert latched
        snap = runner.snapshot()
        for _ in range(2):
            assert runner.tick_once({"Cheese": False, "Fire": True, "Home": False}) is RUNNING
            assert runner.total_resets() == 1
            assert runner.latched == set()
            runner.restore(snap)
            assert runner.total_resets() == 0
            assert runner.latched == latched
            assert runner.tick_once({"Cheese": True, "Fire": False, "Home": False}) is SUCCESS
            assert runner.total_resets() == 0
            assert runner.latched > latched  # the Finally decorator latched too
            runner.restore(snap)
            assert runner.latched == latched
