import random

import pytest

from helpers import (
    check_streams, counterexample_mission, enumerate_language, mission_alphabet,
    recursion_limit, trace_of, with_action_props,
)
from ppabt import bt, ltlf, mission as ms
from ppabt.compiler import bind_scripted, compile_mission, inline_actions
from ppabt.gridworld import GridConfig
from ppabt.ltlf import Atom, Trace
from ppabt.mission import MissionConfig, expand_mission, ppa_task
from ppabt.missions import C2H_TEXT, build_c2h
from ppabt.planners import C2hRuntime, Policy
from ppabt.verify import (
    FUZZ_ATOMS, MAX_FUZZ_TASKS, BoundTooLarge, audit_trace,
    check_inclusion, check_mission, evaluate_reference, fuzz_corpus_report,
    random_sound_mission, strip_conditions,
)
from test_compiler import GC_BREAKS_UNDER_POST
from test_ltlf import random_formula, random_trace
from test_mission import nested_mission

ABC = {"a", "b", "c"}
C2H_ATOMS = {"Cheese", "Fire", "Home"}


def assert_evaluators_agree(formula, trace, expected=None):
    """Both evaluators give the same answer at every index, and it is
    ``expected(i)`` at index i when that is given."""
    for i in range(len(trace)):
        value = ltlf.evaluate(formula, trace, i)
        assert value == evaluate_reference(formula, trace, i), (formula, i)
        if expected is not None:
            assert value == expected(i), (formula, i)


class TestReferenceEvaluator:
    def test_agreement_with_main_evaluator(self):
        rng = random.Random(41)
        for _ in range(300):
            formula = random_formula(rng, ["a", "b", "c"], depth=5)
            trace = random_trace(rng, ["a", "b", "c"], 5)
            assert_evaluators_agree(formula, trace)

    def test_agreement_up_to_forty_states(self):
        rng = random.Random(43)
        for length in range(1, 41):
            for _ in range(8):
                formula = random_formula(rng, ["a", "b", "c"], depth=5)
                states = [{x: rng.random() < 0.5 for x in "abc"}
                          for _ in range(length)]
                assert_evaluators_agree(formula, Trace(states, frozenset(ABC)))

    def test_until_quantifier_form(self):
        tr = trace_of(ABC, {"a": True}, {"a": True}, {"b": True})
        assert evaluate_reference(ltlf.Until(Atom("a"), Atom("b")), tr) is True

    def test_until_without_witness(self):
        tr = trace_of(ABC, *[{"a": True}] * 6)
        assert_evaluators_agree(ltlf.Until(Atom("a"), Atom("b")), tr, lambda i: False)

    def test_until_witness_only_at_last_state(self):
        tr = trace_of(ABC, {"a": True}, {}, {"a": True}, {"a": True}, {"b": True})
        assert_evaluators_agree(ltlf.Until(Atom("a"), Atom("b")), tr,
                                lambda i: i >= 2)

    def test_globally_on_one_state(self):
        assert_evaluators_agree(ltlf.Globally(Atom("a")),
                                trace_of(ABC, {"a": True}), lambda i: True)
        assert_evaluators_agree(ltlf.Globally(Atom("a")),
                                trace_of(ABC, {}), lambda i: False)

    def test_next_false_at_last_position(self):
        tr = trace_of(ABC, *[{"a": True}] * 4)
        assert_evaluators_agree(ltlf.Next(Atom("a")), tr, lambda i: i < 3)
        assert_evaluators_agree(ltlf.Next(ltlf.TRUE), tr, lambda i: i < 3)

    @pytest.mark.parametrize("formula", [
        ltlf.Or(ltlf.TRUE, Atom("zz")),
        ltlf.And(ltlf.FALSE, Atom("zz")),
    ], ids=["or-true", "and-false"])
    def test_unknown_atom_raises_even_when_it_cannot_matter(self, formula):
        tr = trace_of(ABC, {"a": True})
        with pytest.raises(ltlf.UnknownAtom):
            ltlf.evaluate(formula, tr)


class TestAuditTrace:
    def test_success_with_satisfying_trace(self):
        tr = trace_of(ABC, {"a": True})
        assert audit_trace(Atom("a"), tr, bt.SUCCESS) is True

    def test_success_with_violating_trace_detected(self):
        tr = trace_of(ABC, {})
        assert audit_trace(Atom("a"), tr, bt.SUCCESS) is False

    def test_failure_never_obligated(self):
        tr = trace_of(ABC, {"a": True})
        assert audit_trace(Atom("a"), tr, bt.FAILURE) is True
        assert audit_trace(ltlf.Not(Atom("a")), tr, bt.FAILURE) is True


class TestEnumerateLanguage:
    def test_single_atom_single_state(self):
        got = enumerate_language(Atom("a"), {"a"}, max_len=1)
        assert got == {((True,),)}

    def test_globally_up_to_two(self):
        got = enumerate_language(ltlf.Globally(Atom("a")), {"a"}, max_len=2)
        assert got == {((True,),), ((True,), (True,))}

    def test_bound_guard(self):
        with pytest.raises(BoundTooLarge):
            enumerate_language(Atom("a"), {"a", "b", "c", "d", "e", "f"}, 2)
        with pytest.raises(BoundTooLarge):
            enumerate_language(Atom("a"), {"a"}, 7)

    def test_agreement_between_evaluators_random(self):
        rng = random.Random(42)
        for _ in range(100):
            formula = random_formula(rng, ["a", "b"], depth=4)
            via_main = enumerate_language(formula, {"a", "b"}, 3)
            via_ref = enumerate_language(formula, {"a", "b"}, 3,
                                         evaluator=evaluate_reference)
            assert via_main == via_ref

    def test_task_formula_cross_check(self):
        spec = ppa_task("t", post="a", pre="True", gc="!b", tc="c",
                        alphabet=ABC)
        formula = ms.expand_task(spec)
        alphabet = ABC | {spec.action_atom}
        via_main = enumerate_language(formula, alphabet, 3)
        via_ref = enumerate_language(formula, alphabet, 3,
                                     evaluator=evaluate_reference)
        assert via_main == via_ref
        assert via_main  # the language is nonempty


def single_task_mission():
    spec = ppa_task("t", post="a", pre="True", gc="!b", tc="True", alphabet=ABC)
    return ms.Task(spec)


class TestCheckInclusion:
    def test_single_task_no_violations(self):
        report = check_mission(single_task_mission(), ABC, bound=4)
        assert report.n_violations == 0
        assert report.n_bt_success_traces > 0

    def test_two_task_until_mission_no_violations(self):
        text = ("U (F task(x, post=a, gc=!b)) (F task(y, post=c, pre=a, gc=!b))")
        expr = ms.parse_mission(text, ABC)
        report = check_mission(expr, ABC, bound=5)
        assert report.n_violations == 0
        assert report.n_bt_success_traces > 0

    def test_stripping_gc_makes_it_unsound(self):
        expr = single_task_mission()
        cfg = MissionConfig(theta=0, alphabet=frozenset(ABC))
        tree = bind_scripted(compile_mission(expr, cfg), expr, cfg)
        gc = expr.spec.gc
        assert strip_conditions(tree, gc) == 2
        report = check_inclusion(tree, expand_mission(expr), ABC, bound=4)
        assert report.n_violations >= 1
        # each counterexample is a real one per the reference evaluator
        for states in report.counterexamples:
            alpha = frozenset(states[0])
            assert evaluate_reference(expand_mission(expr),
                                      Trace(states, alpha), 0) is False

    def test_one_restore_per_key_and_valuation(self, monkeypatch):
        calls = {"snapshot": 0, "restore": 0}

        def counted(name):
            method = getattr(bt.MissionRunner, name)

            def count(runner, *args):
                calls[name] += 1
                return method(runner, *args)
            return count

        for name in calls:
            monkeypatch.setattr(bt.MissionRunner, name, counted(name))
        expr = ms.parse_mission(C2H_TEXT, C2H_ATOMS)
        report = check_mission(expr, C2H_ATOMS, bound=4)
        # each distinct key (the start's included) is restored once per
        # valuation: 29 keys x 8, not once per explored prefix (168 x 8);
        # the key is the snapshot, taken at the start and per Running tick
        assert calls == {"snapshot": 79, "restore": 232}
        assert report.n_bt_success_traces == 253
        assert report.n_violations == 0

    def test_a_tree_with_choosers_checks_as_scripted(self):
        # the learner's own tree: no tick calls a chooser, so none records a pair
        grid = GridConfig()
        expr = build_c2h(grid)
        runtime = C2hRuntime(expr, grid, Policy(), 50)
        scripted = compile_mission(expr, MissionConfig(theta=0))
        report = check_inclusion(runtime.tree, expand_mission(expr), C2H_ATOMS, bound=4)
        assert report == check_inclusion(scripted, expand_mission(expr), C2H_ATOMS, bound=4)
        assert (report.n_bt_success_traces, report.n_violations) == (49, 0)
        assert runtime.pairs == []
        expr = single_task_mission()
        tree = compile_mission(expr, MissionConfig(theta=1),
                               choose={"t": lambda state: None})
        report = check_inclusion(tree, expand_mission(expr), ABC, bound=3)
        bind_scripted(tree, expr, None)
        assert report == check_inclusion(tree, expand_mission(expr), ABC, bound=3)
        assert report.n_violations == 0

    def test_report_serialization(self):
        report = check_mission(single_task_mission(), ABC, bound=3)
        data = report.to_json()
        assert data["n_violations"] == 0
        assert data["bound"] == 3
        assert report.counterexamples_csv_rows() == []


class TestLayeredSearchMatchesStreams:
    """``check_inclusion`` merges streams by key; ``helpers.check_streams``
    ticks and audits every stream on its own.  Their counts must agree,
    and every counterexample listed must be a real one."""

    def agree(self, expr, alphabet, bound, theta=1, tree=None):
        formula = expand_mission(expr)
        tree = tree or compile_mission(expr, MissionConfig(theta=theta))
        report = check_inclusion(tree, formula, alphabet, bound)
        oracle = check_streams(tree, formula, alphabet, bound)
        counts = (report.n_bt_success_traces, report.n_violations)
        assert counts == (oracle.n_bt_success_traces, oracle.n_violations)
        witnesses = report.counterexamples
        assert len(witnesses) <= report.n_violations
        assert len({tuple(tuple(sorted(state.items())) for state in w)
                    for w in witnesses}) == len(witnesses)
        assert [len(w) for w in witnesses] == sorted(len(w) for w in witnesses)
        if report.n_violations:
            assert witnesses
        alpha = mission_alphabet(expr, alphabet)
        for states in witnesses:
            trace = Trace(with_action_props(expr, states), alpha)
            assert evaluate_reference(formula, trace, 0) is False
        return counts

    def test_fuzzed_corpus(self):
        rng = random.Random(0)
        for _ in range(200):
            expr = random_sound_mission(rng, list(FUZZ_ATOMS))
            self.agree(expr, set(FUZZ_ATOMS), 4, theta=rng.choice([0, 1, 2]))

    def test_c2h(self):
        expr = ms.parse_mission(C2H_TEXT, C2H_ATOMS)
        assert self.agree(expr, C2H_ATOMS, 4) == (253, 0)

    def test_gc_breaks_under_post(self):
        expr = ms.parse_mission(GC_BREAKS_UNDER_POST, set(FUZZ_ATOMS))
        self.agree(expr, set(FUZZ_ATOMS), 4, theta=0)

    @pytest.mark.parametrize("bound, counts", [(3, (52, 16)), (4, (160, 61)),
                                               (5, (484, 206))])
    def test_counterexample_mission(self, bound, counts):
        expr = counterexample_mission(["a", "b", "c"])
        assert self.agree(expr, ABC, bound, theta=0) == counts
        self.agree(expr, ABC, bound, theta=1)

    def test_stripped_gc_mutant(self):
        expr = single_task_mission()
        tree = compile_mission(expr, MissionConfig(theta=0))
        strip_conditions(tree, expr.spec.gc)
        assert self.agree(expr, ABC, 4, tree=tree)[1] >= 1

    @pytest.mark.parametrize("shape", ["parentheses", "operators", "F-chain"])
    def test_missions_at_the_nesting_limit(self, shape):
        # progression recurses over the formula, never over the trace
        expr = ms.parse_mission(nested_mission(ltlf.MAX_NESTING, shape), {"a"})
        with recursion_limit(1000):
            counts = self.agree(expr, {"a"}, 6)
        assert counts[0] > 0


class TestSoundFragment:
    def test_fuzzed_corpus_zero_violations(self):
        result = fuzz_corpus_report(n_missions=15, seed=51, bound=4)
        assert result["total_violations"] == 0
        assert result["total_bt_success_traces"] > 0

    def test_fuzzer_respects_task_budget(self):
        rng = random.Random(52)
        for _ in range(100):
            expr = random_sound_mission(rng, ["a", "b", "c"])
            assert 1 <= len(ms.tasks_of(expr)) <= MAX_FUZZ_TASKS

    def test_bare_or_right_task_is_outside_the_fragment(self):
        # A late-started task whose constraint window was never watched:
        # the checker exhibits successful runs that falsify the formula.
        expr = counterexample_mission(["a", "b", "c"])
        report = check_mission(expr, ABC, bound=4, theta=0)
        assert report.n_violations >= 1
        formula = expand_mission(expr)
        alpha = mission_alphabet(expr, ABC)
        for states in report.counterexamples:
            assert all(state.keys() == ABC for state in states)
            trace = Trace(with_action_props(expr, states), alpha)
            assert evaluate_reference(formula, trace, 0) is False

    def test_f_wrapping_both_operands_is_sound(self):
        expr = counterexample_mission(["a", "b", "c"])
        wrapped = ms.Or(ms.Finally(expr.left), ms.Finally(expr.right))
        for theta in (0, 1):
            report = check_mission(wrapped, ABC, bound=4, theta=theta)
            assert report.n_violations == 0


class TestInlinedActions:
    def test_inlined_formula_matches_printed_formula_with_action_props(self):
        # oracle: the inlined goal on the plain trace reads as the printed
        # goal on the trace with every __action_<m> added from its task
        rng = random.Random(61)
        missions = [random_sound_mission(rng, ["a", "b", "c"]) for _ in range(40)]
        missions.append(counterexample_mission(["a", "b", "c"]))
        cfg = MissionConfig(theta=1, alphabet=frozenset(ABC))
        for expr in missions:
            formula = expand_mission(expr)
            inlined = inline_actions(formula, compile_mission(expr, cfg))
            assert not any(a.startswith(ms.ACTION_PREFIX) for a in ltlf.atoms_of(inlined))
            alpha = mission_alphabet(expr, ABC)
            for _ in range(25):
                plain = random_trace(rng, sorted(ABC), 6)
                full = Trace(with_action_props(expr, plain.states), alpha)
                for i in range(len(plain)):
                    assert ltlf.evaluate(inlined, plain, i) == \
                        evaluate_reference(formula, full, i), (expr, i)
