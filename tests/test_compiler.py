import itertools
import random
import re

import pytest

from helpers import derive_mission_text, paper_task_tree
from ppabt import compiler, ltlf
from ppabt.bt import (
    ActionRunner, Condition, ControlNode, FinallyReset, MissionRunner, Parallel,
    PreconditionLatch, RUNNING, SUCCESS, Selector, Sequence, bt_to_json,
    export_dot, iter_nodes, node_count,
)
from ppabt.compiler import bind_scripted, compile_mission, compile_task, inline_actions
from ppabt.gridworld import GridConfig
from ppabt.keydoor import _bt_mission, run_experiment
from ppabt.missions import KEYDOOR_ATOMS, build_c2h, build_keydoor
from ppabt.mission import (
    MissionConfig, MissionError, expand_mission, parse_mission, ppa_task,
    render_mission, tasks_of,
)
from ppabt.planners import C2hRuntime, Policy
from ppabt.verify import FUZZ_ATOMS, check_inclusion, check_mission, random_sound_mission

GRID = {"Cheese", "Fire", "Home"}
CFG = MissionConfig(theta=1, alphabet=frozenset(GRID))


def mission_size(expr):
    from ppabt import mission as ms
    if isinstance(expr, ms.Task):
        return 1
    if isinstance(expr, ms.Finally):
        return 1 + mission_size(expr.child)
    return 1 + mission_size(expr.left) + mission_size(expr.right)


class TestCompileTask:
    def test_template_structure(self):
        spec = ppa_task("cheese", post="Cheese", pre="!Home", gc="!Fire", tc="!Home",
                        alphabet=GRID)
        tree = compile_task(spec)
        assert isinstance(tree, Selector)
        post_branch, act_branch = tree.children
        assert isinstance(post_branch, Parallel)
        gc_node, poc_node = post_branch.children
        assert isinstance(gc_node, Condition) and gc_node.prop == spec.gc
        assert isinstance(poc_node, Condition) and poc_node.prop == spec.poc
        assert isinstance(act_branch, Parallel)
        gc_node, latch, until = act_branch.children
        assert isinstance(gc_node, Condition) and gc_node.prop == spec.gc
        assert isinstance(latch, PreconditionLatch) and latch.child.prop == spec.prc
        assert isinstance(until, Sequence)
        tc_node, action = until.children
        assert isinstance(tc_node, Condition) and tc_node.prop == spec.tc
        assert isinstance(action, ActionRunner)
        assert action.binding == spec.action
        assert action.postcondition == spec.poc
        assert action.choose is None
        assert node_count(tree) == 11  # the paper's nesting has 14

    def test_true_checks_are_left_out(self):
        # every check but the postcondition is True: a selector over two leaves
        spec = ppa_task("cheese", post="Cheese", alphabet=GRID)
        post, action = compile_task(spec).children
        assert isinstance(post, Condition) and post.prop == spec.poc
        assert isinstance(action, ActionRunner)
        # a global constraint alone: no latch, no task-constraint check, and
        # so no sequence: the action sits beside the gc check
        spec = ppa_task("cheese", post="Cheese", gc="!Fire", alphabet=GRID)
        tree = compile_task(spec)
        assert [n.kind for n in iter_nodes(tree)] == [
            "selector", "parallel", "condition", "condition",
            "parallel", "condition", "action"]

    def test_task_constraint_is_left_until_child(self):
        spec = ppa_task("key", post="Cheese", tc="Home", alphabet=GRID)
        tree = compile_task(spec)
        until = tree.children[1]
        assert isinstance(until, Sequence)
        assert until.children[0].prop == ltlf.Atom("Home")
        assert isinstance(until.children[1], ActionRunner)


class TestCompileMission:
    def test_single_task_is_its_template_under_root(self):
        expr = parse_mission("task(t, post=Cheese)", GRID)
        tree = compile_mission(expr, CFG)
        assert bt_to_json(tree) == bt_to_json(compile_task(expr.spec))

    def test_c2h_shape(self):
        text = ("U (F task(cheese, post=Cheese, gc=!Fire)) "
                "(F task(home, post=Home, pre=Cheese, gc=!Fire))")
        seq = compile_mission(parse_mission(text, GRID), CFG)
        assert isinstance(seq, Sequence)
        left, right = seq.children
        assert isinstance(left, FinallyReset) and left.theta == CFG.theta
        assert isinstance(right, FinallyReset)
        # each Finally holds its task's template directly
        assert isinstance(left.child, Selector)
        assert isinstance(right.child, Selector)
        assert node_count(seq) == 19

    def test_keydoor_nested_untils(self):
        kd = {"NoErr", "KeyStacked", "IsKeyDoor", "VisibleKeyDoor",
              "KeyDoorPassive", "PrizePassive", "PrizeVisible"}
        text = ("U (F task(key, post=KeyStacked, pre=IsKeyDoor, gc=NoErr, "
                "tc=VisibleKeyDoor)) "
                "(U (F task(door, post=KeyDoorPassive, pre=KeyStacked, gc=NoErr, "
                "tc=KeyStacked)) "
                "(F task(prize, post=PrizePassive, pre=PrizeVisible, gc=NoErr, "
                "tc=KeyDoorPassive)))")
        outer = compile_mission(parse_mission(text, kd), MissionConfig(theta=1, alphabet=kd))
        assert isinstance(outer, Sequence)
        assert isinstance(outer.children[1], Sequence)

    def test_or_and_mapping(self):
        expr = parse_mission("| task(a, post=Cheese) & task(b, post=Home) "
                             "task(c, post=Fire)", GRID)
        tree = compile_mission(expr, CFG)
        assert isinstance(tree, Selector)
        assert isinstance(tree.children[1], Parallel)

    def test_compilation_is_pure(self):
        text = ("U (F task(cheese, post=Cheese, gc=!Fire)) "
                "(F task(home, post=Home, pre=Cheese, gc=!Fire))")
        a = compile_mission(parse_mission(text, GRID), CFG)
        b = compile_mission(parse_mission(text, GRID), CFG)
        assert bt_to_json(a) == bt_to_json(b)
        assert bt_to_json(a) != bt_to_json(
            compile_mission(parse_mission(text, GRID),
                            MissionConfig(theta=2, alphabet=frozenset(GRID))))

    def test_node_count_linear_in_mission_size(self):
        rng = random.Random(31)
        alphabet = {"a", "b", "c"}
        for _ in range(50):
            text = derive_mission_text(rng, [0], alphabet, depth=4)
            expr = parse_mission(text, alphabet)
            tree = compile_mission(expr, MissionConfig(theta=1, alphabet=alphabet))
            assert node_count(tree) <= 14 * mission_size(expr) + 2

    def test_writers_number_nodes_in_preorder(self):
        # nodes carry no ids: JSON and DOT both number the i-th node of
        # the preorder walk i, and DOT draws each edge between those numbers
        tree = compile_mission(build_keydoor(), MissionConfig(theta=1))
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
        # two Finally decorators and home's precondition latch (cheese's
        # precondition is True, so it has no latch)
        assert dot.count("shape=diamond") == 3
        assert dot.count("◇ F") == 2
        assert dot.count("◇ latch") == 1


def action_nodes(tree):
    return [node for node in iter_nodes(tree) if isinstance(node, ActionRunner)]


class TestActionNodes:
    def test_choose_map_reaches_its_action_only(self):
        def go(state):
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
            tree = C2hRuntime(expr, grid, Policy(), 50).tree
            atoms = ("Cheese", "Fire", "Home")
        else:
            expr = build_keydoor()
            tree, atoms = _bt_mission(1)[0], sorted(KEYDOOR_ATOMS)
        specs = {spec.action: spec for spec in tasks_of(expr)}
        nodes = action_nodes(tree)
        assert sorted(n.binding for n in nodes) == sorted(specs)
        for node in nodes:
            spec = specs[node.binding]
            assert node.postcondition == spec.poc
            assert node.choose is not None
            for row in itertools.product((False, True), repeat=len(atoms)):
                state = dict(zip(atoms, row))
                runner = MissionRunner(node)
                runner.state = state
                holds = ltlf.evaluate(spec.poc, ltlf.Trace([state], frozenset(atoms)), 0)
                assert node.tick(runner) is (SUCCESS if holds else RUNNING), \
                    (node.binding, state)


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


def fuzz_corpus():
    """``(mission, theta)`` of the ``ppabt verify --missions 200 --seed 0``
    corpus, each mission followed by its theta draw."""
    rng = random.Random(0)
    for _ in range(200):
        expr = random_sound_mission(rng, list(FUZZ_ATOMS))
        yield expr, rng.choice([0, 1, 2])


# gc (c) breaks while t1's post (a) holds: the paper's template still ticks
# t1's latch on pre (b) then, and a template with one gc check per task does
# not.  Few fuzzed missions show this, so the corpus comparison adds it.
GC_BREAKS_UNDER_POST = ("| (F task(t1, post=a, pre=b, gc=c, action=t1)) "
                        "(F task(t2, post=!a & !b & c, action=t2))")


def hoisted_gc_task_tree(spec, choose=None):
    """``all(gc?, Selector(post, all(latch(pre)?, seq(tc?, action))))``: one
    gc check per task, which stops the latch ticking while gc is broken and
    post holds."""
    check = lambda prop: [] if prop == ltlf.TRUE else [Condition(prop)]
    group = lambda control, nodes: nodes[0] if len(nodes) == 1 else control(nodes)
    action = ActionRunner(spec.action, spec.poc, choose)
    plan = group(Parallel, [*map(PreconditionLatch, check(spec.prc)),
                            group(Sequence, [*check(spec.tc), action])])
    return group(Parallel, [*check(spec.gc), Selector([Condition(spec.poc), plan])])


@pytest.fixture
def paper(monkeypatch):
    """``paper(fn)`` is ``fn()`` with every task compiled to the paper's
    nested template."""
    def call(fn):
        with monkeypatch.context() as patch:
            patch.setattr(compiler, "compile_task", paper_task_tree)
            return fn()
    return call


class TestFlatTemplateRunsAsThePapers:
    """``compile_task`` leaves out True checks, the template's nesting and
    its gc check after the action; every run must be the one the paper's
    nested template gives."""

    def test_corpus_inclusion_reports(self, paper):
        extra = (parse_mission(GC_BREAKS_UNDER_POST, set(FUZZ_ATOMS)), 0)
        for expr, theta in [*fuzz_corpus(), extra]:
            formula = expand_mission(expr)
            cfg = MissionConfig(theta=theta)
            report = lambda: check_inclusion(
                compile_mission(expr, cfg), formula, set(FUZZ_ATOMS), 4).to_json()
            assert report() == paper(report), render_mission(expr)

    def test_hoisting_gc_changes_a_report(self, monkeypatch):
        # the corpus comparison must be able to tell this template apart
        expr = parse_mission(GC_BREAKS_UNDER_POST, set(FUZZ_ATOMS))
        formula = expand_mission(expr)

        def successes():
            tree = compile_mission(expr, MissionConfig(theta=0))
            return check_inclusion(tree, formula, set(FUZZ_ATOMS), 4).n_bt_success_traces

        flat = successes()
        monkeypatch.setattr(compiler, "compile_task", hoisted_gc_task_tree)
        assert (flat, successes()) == (411, 412)

    def test_c2h_inclusion_report(self, paper):
        report = lambda: check_mission(build_c2h(), GRID, bound=4).to_json()
        assert report() == paper(report)
        assert paper(lambda: node_count(compile_mission(build_c2h(), CFG))) == 31

    def test_c2h_episodes(self, paper):
        grid = GridConfig(p_in=0.8)

        def episodes():
            runtime = C2hRuntime(build_c2h(grid), grid, Policy(), 50)
            return [runtime.run_episode(seed) for seed in range(100)]

        assert episodes() == paper(episodes)

    def test_keydoor_experiments(self, paper):
        def experiments():
            _bt_mission.cache_clear()
            return [run_experiment("bt", reversible=r) for r in (True, False)]

        try:
            assert experiments() == paper(experiments)
        finally:
            _bt_mission.cache_clear()

    def test_no_true_check_and_no_one_child_or_nested_control_node(self):
        trees = [compile_mission(expr, MissionConfig(theta=theta))
                 for expr, theta in fuzz_corpus()]
        trees += [compile_mission(build_c2h(), CFG), _bt_mission(1)[0]]
        for node in (n for tree in trees for n in iter_nodes(tree)):
            assert not (isinstance(node, Condition) and node.prop == ltlf.TRUE)
            assert not (isinstance(node, ControlNode) and len(node.children) == 1)
        specs = [spec for expr, _ in fuzz_corpus() for spec in tasks_of(expr)]
        for spec in specs + tasks_of(build_c2h()) + tasks_of(build_keydoor()):
            for node in iter_nodes(compile_task(spec)):
                assert not any(type(child) is type(node) for child in node.children
                               if isinstance(node, ControlNode))


class TestSnapshotIsTheWholeMemory:
    """A tick's outcome is a function of the runner's memory and the
    state, and ``snapshot`` holds all of that memory: a fresh runner
    restored from a run's snapshot ticks the rest of the stream as the
    run does, choosers attached.  So a tree is a finite machine over
    ``(snapshot, state)``."""

    @staticmethod
    def trees():
        for expr, theta in fuzz_corpus():
            yield compile_mission(expr, MissionConfig(theta=theta)), sorted(FUZZ_ATOMS)
        # the learner's choosers, which no tick calls, so ``pending`` moves too
        yield C2hRuntime(build_c2h(), GridConfig(), Policy(), 50).tree, sorted(GRID)
        yield _bt_mission(1)[0], sorted(KEYDOOR_ATOMS)

    def test_a_restored_runner_ticks_alike(self):
        for i, (tree, atoms) in enumerate(self.trees()):
            for seed in range(4 * i, 4 * i + 4):
                values = random.Random(seed)
                stream = [{a: values.random() < 0.5 for a in atoms} for _ in range(12)]
                split = 3 if seed % 2 else 6
                run = MissionRunner(tree)
                for state in stream[:split]:
                    run.tick_once(state)
                copy = MissionRunner(tree)
                copy.restore(run.snapshot())
                for state in stream[split:]:
                    assert ((run.tick_once(state), run.snapshot(), run.pending)
                            == (copy.tick_once(state), copy.snapshot(), copy.pending))
