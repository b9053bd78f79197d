import itertools
import random
import re

import pytest

from helpers import derive_mission_text
from ppabt import ltlf
from ppabt.bt import (
    ActionRunner, Condition, FinallyReset, MissionRoot, MissionRunner, Parallel,
    PreconditionLatch, SUCCESS, Selector, Sequence, bt_to_json,
    export_dot, iter_nodes, node_count,
)
from ppabt.compiler import bind_scripted, compile_mission, compile_task, inline_actions
from ppabt.gridworld import GridConfig
from ppabt.keydoor import _bt_mission
from ppabt.missions import KEYDOOR_ATOMS, build_c2h, build_keydoor
from ppabt.mission import (
    MissionConfig, MissionError, expand_mission, parse_mission, ppa_task, tasks_of,
)
from ppabt.planners import C2hRuntime, Policy

GRID = {"Cheese", "Fire", "Home"}
CFG = MissionConfig(t_task_max=50, theta=1, alphabet=frozenset(GRID))


def mission_size(expr):
    from ppabt import mission as ms
    if isinstance(expr, ms.Task):
        return 1
    if isinstance(expr, ms.Finally):
        return 1 + mission_size(expr.child)
    return 1 + mission_size(expr.left) + mission_size(expr.right)


class TestCompileTask:
    def test_template_structure(self):
        spec = ppa_task("cheese", post="Cheese", gc="!Fire", alphabet=GRID)
        tree = compile_task(spec, CFG)
        assert isinstance(tree, Selector)
        post_branch, act_branch = tree.children
        assert isinstance(post_branch, Parallel)
        gc_node, poc_node = post_branch.children
        assert isinstance(gc_node, Condition) and gc_node.prop == spec.gc
        assert isinstance(poc_node, Condition) and poc_node.prop == spec.poc
        assert isinstance(act_branch, Parallel)
        guard, until = act_branch.children
        assert isinstance(guard, Parallel)
        assert isinstance(guard.children[0], Condition)
        assert isinstance(guard.children[1], PreconditionLatch)
        assert guard.children[1].child.prop == spec.prc
        assert isinstance(until, Sequence)
        tc_node, act_seq = until.children
        assert isinstance(tc_node, Condition) and tc_node.prop == spec.tc
        assert isinstance(act_seq, Sequence)
        action = act_seq.children[0]
        assert isinstance(action, ActionRunner)
        assert action.binding == spec.action
        assert action.postcondition == spec.poc
        assert action.t_task_max == CFG.t_task_max
        assert action.choose is None
        assert isinstance(act_seq.children[1], Condition)
        assert act_seq.children[1].prop == spec.gc

    def test_task_constraint_is_left_until_child(self):
        spec = ppa_task("key", post="Cheese", tc="Home", alphabet=GRID)
        tree = compile_task(spec, CFG)
        until = tree.children[1].children[1]
        assert until.children[0].prop == ltlf.Atom("Home")


class TestCompileMission:
    def test_single_task_is_its_template_under_root(self):
        expr = parse_mission("task(t, post=Cheese)", GRID)
        tree = compile_mission(expr, CFG)
        assert isinstance(tree, MissionRoot)
        assert tree.t_task_max == CFG.t_task_max
        assert bt_to_json(tree.child) == bt_to_json(compile_task(expr.spec, CFG))

    def test_c2h_shape(self):
        text = ("U (F task(cheese, post=Cheese, gc=!Fire)) "
                "(F task(home, post=Home, pre=Cheese, gc=!Fire))")
        tree = compile_mission(parse_mission(text, GRID), CFG)
        assert isinstance(tree, MissionRoot)
        seq = tree.child
        assert isinstance(seq, Sequence)
        left, right = seq.children
        assert isinstance(left, FinallyReset) and left.theta == CFG.theta
        assert isinstance(right, FinallyReset)
        # each Finally holds its task's template directly
        assert isinstance(left.child, Selector)
        assert isinstance(right.child, Selector)
        assert node_count(tree) == 32

    def test_keydoor_nested_untils(self):
        kd = {"NoErr", "KeyStacked", "IsKeyDoor", "VisibleKeyDoor",
              "KeyDoorPassive", "PrizePassive", "PrizeVisible"}
        text = ("U (F task(key, post=KeyStacked, pre=IsKeyDoor, gc=NoErr, "
                "tc=VisibleKeyDoor)) "
                "(U (F task(door, post=KeyDoorPassive, pre=KeyStacked, gc=NoErr, "
                "tc=KeyStacked)) "
                "(F task(prize, post=PrizePassive, pre=PrizeVisible, gc=NoErr, "
                "tc=KeyDoorPassive)))")
        tree = compile_mission(parse_mission(text, kd), MissionConfig(60, 1, kd))
        outer = tree.child
        assert isinstance(outer, Sequence)
        assert isinstance(outer.children[1], Sequence)

    def test_or_and_mapping(self):
        expr = parse_mission("| task(a, post=Cheese) & task(b, post=Home) "
                             "task(c, post=Fire)", GRID)
        tree = compile_mission(expr, CFG)
        assert isinstance(tree.child, Selector)
        assert isinstance(tree.child.children[1], Parallel)

    def test_compilation_is_pure(self):
        text = ("U (F task(cheese, post=Cheese, gc=!Fire)) "
                "(F task(home, post=Home, pre=Cheese, gc=!Fire))")
        a = compile_mission(parse_mission(text, GRID), CFG)
        b = compile_mission(parse_mission(text, GRID), CFG)
        assert bt_to_json(a) == bt_to_json(b)
        assert bt_to_json(a) != bt_to_json(
            compile_mission(parse_mission(text, GRID),
                            MissionConfig(50, 2, frozenset(GRID))))

    def test_node_count_linear_in_mission_size(self):
        rng = random.Random(31)
        alphabet = {"a", "b", "c"}
        for _ in range(50):
            text = derive_mission_text(rng, [0], alphabet, depth=4)
            expr = parse_mission(text, alphabet)
            tree = compile_mission(expr, MissionConfig(10, 1, alphabet))
            assert node_count(tree) <= 14 * mission_size(expr) + 2

    def test_writers_number_nodes_in_preorder(self):
        # nodes carry no ids: JSON and DOT both number the i-th node of
        # the preorder walk i, and DOT draws each edge between those numbers
        tree = compile_mission(build_keydoor(), MissionConfig(t_task_max=60, theta=1))
        nodes = list(iter_nodes(tree))
        index = {node: i for i, node in enumerate(nodes)}

        def preorder(data):
            yield data
            for child in data.get("children", []):
                yield from preorder(child)

        encoded = list(preorder(bt_to_json(tree)))
        assert [d["id"] for d in encoded] == list(range(len(nodes)))
        assert [d["kind"] for d in encoded] == [n.kind for n in nodes]
        dot = export_dot(tree)
        declared = re.findall(r'^  n(\d+) \[label="([^ "]*)', dot, re.M)
        assert declared == [(str(i), n.symbol.split()[0]) for i, n in enumerate(nodes)]
        edges = re.findall(r"^  n(\d+) -> n(\d+);$", dot, re.M)
        assert edges == [(str(index[n]), str(index[c])) for n in nodes for c in n.children]

    def test_dot_of_until_mission(self):
        text = ("U (F task(cheese, post=Cheese, gc=!Fire)) "
                "(F task(home, post=Home, pre=Cheese, gc=!Fire))")
        tree = compile_mission(parse_mission(text, GRID), CFG)
        dot = export_dot(tree)
        # root, two Finally decorators and two precondition latches
        assert dot.count("shape=diamond") == 5
        assert dot.count("◇ F") == 2
        assert "◇ root" in dot


def action_nodes(tree):
    return [node for node in iter_nodes(tree) if isinstance(node, ActionRunner)]


class TestActionNodes:
    def test_choose_map_reaches_its_action_only(self):
        def go(state, rng):
            return "go"

        expr = parse_mission("& task(a, post=Cheese) task(b, post=Home)", GRID)
        tree = compile_mission(expr, CFG, choose={"a": go, "unused": go})
        assert {n.binding: n.choose for n in action_nodes(tree)} == {"a": go, "b": None}
        bind_scripted(tree, expr, CFG)
        assert [n.choose for n in action_nodes(tree)] == [None, None]

    def test_shared_action_needs_one_postcondition(self):
        expr = parse_mission(
            "& task(a, post=P, action=m) task(b, post=Q, action=m)", {"P", "Q"})
        with pytest.raises(MissionError, match="share action 'm'"):
            compile_mission(expr, CFG)
        same = parse_mission(
            "& task(a, post=P, action=m) task(b, post=P, action=m)", {"P"})
        nodes = action_nodes(compile_mission(same, CFG))
        assert [(n.binding, n.postcondition) for n in nodes] == \
            [("m", ltlf.Atom("P"))] * 2

    @pytest.mark.parametrize("scenario", ["c2h", "keydoor"])
    def test_compiled_action_carries_its_task(self, scenario):
        if scenario == "c2h":
            grid = GridConfig(p_in=0.8)
            expr = build_c2h(grid)
            runtime = C2hRuntime(expr, grid, Policy(), 50)
            tree, t_task_max, atoms = runtime.tree, 50, ("Cheese", "Fire", "Home")
        else:
            expr = build_keydoor()
            tree, t_task_max, atoms = _bt_mission(1, 60)[0], 60, sorted(KEYDOOR_ATOMS)
        specs = {spec.action: spec for spec in tasks_of(expr)}
        nodes = action_nodes(tree)
        assert sorted(n.binding for n in nodes) == sorted(specs)
        for node in nodes:
            spec = specs[node.binding]
            assert node.postcondition == spec.poc
            assert node.t_task_max == t_task_max
            assert node.choose is not None
            runner = MissionRunner(node)
            for row in itertools.product((False, True), repeat=len(atoms)):
                state = dict(zip(atoms, row))
                runner.state, runner.t = state, t_task_max
                holds = ltlf.evaluate(spec.poc, ltlf.Trace([state], frozenset(atoms)), 0)
                assert (node.tick(runner) is SUCCESS) == holds, (node.binding, state)


class TestInlineActions:
    def test_action_atoms_become_postconditions(self):
        expr = parse_mission(
            "U (F task(c, post=Cheese, gc=!Fire)) (F task(h, post=Home & Cheese))", GRID)
        inlined = inline_actions(expand_mission(expr), compile_mission(expr, CFG))
        assert ltlf.format_formula(inlined) == (
            "U (F (| (& (G (! Fire)) Cheese) (& (& (G (! Fire)) (F True)) "
            "(U True (& Cheese (G (! Fire))))))) "
            "(F (| (& (G True) (& Home Cheese)) (& (& (G True) (F True)) "
            "(U True (& (& Home Cheese) (G True))))))")

    def test_unchanged_subformulas_stay_shared(self):
        # evaluate memoizes by object: both G gc of a task stay one object
        expr = parse_mission("task(t, post=Cheese, gc=!Fire)", GRID)
        raw = expand_mission(expr)
        inlined = inline_actions(raw, compile_mission(expr, CFG))
        holds, runs = inlined.left, inlined.right
        assert holds is raw.left
        g_gc = holds.left
        assert runs.left is raw.right.left and runs.left.left is g_gc
        assert runs.right.right.right is g_gc
        assert runs.right.right.left is tasks_of(expr)[0].poc
