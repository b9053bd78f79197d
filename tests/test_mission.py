import random

import pytest

from helpers import derive_mission_text, formula_from_json, mission_alphabet

from ppabt import bt, ltlf
from ppabt.compiler import bind_scripted, compile_mission, inline_actions
from ppabt.ltlf import (
    MAX_NESTING, Atom, ParseError, UnknownAtom, format_formula, formula_to_json,
    parse_ltlf,
)
from ppabt.mission import (
    And, DuplicateTaskName, Finally, MissionConfig, Or, PpaTaskSpec,
    ReservedAtom, Task, TemporalOperatorInCondition, Until, expand_mission,
    expand_task, parse_mission, parse_prop, ppa_task,
    render_mission, render_prop, tasks_of,
)

GRID_ATOMS = {"Cheese", "Fire", "Home"}
KD_ATOMS = {"NoErr", "KeyStacked", "IsKeyDoor", "VisibleKeyDoor",
            "KeyDoorPassive", "PrizePassive", "PrizeVisible"}

CHEESE = "task(cheese, post=Cheese, pre=True, gc=!Fire, tc=True, action=cheese)"
HOME = "task(home, post=Home, pre=Cheese, gc=!Fire, tc=True, action=home)"
C2H = f"U (F {CHEESE}) (F {HOME})"


def kd_text():
    key = "task(key, post=KeyStacked, pre=IsKeyDoor, gc=NoErr, tc=VisibleKeyDoor, action=key)"
    door = ("task(door, post=KeyDoorPassive, pre=KeyStacked, gc=NoErr, "
            "tc=KeyStacked, action=door)")
    prize = ("task(prize, post=PrizePassive, pre=PrizeVisible, gc=NoErr, "
             "tc=KeyDoorPassive, action=prize)")
    return f"U (F {key}) (U (F {door}) (F {prize}))"


class TestExpandTask:
    def test_cheese_task_formula(self):
        spec = ppa_task("cheese", post="Cheese", pre="True", gc="!Fire",
                        tc="True", alphabet=GRID_ATOMS)
        got = format_formula(expand_task(spec))
        assert got == ("| (& (G (! Fire)) Cheese) "
                       "(& (& (G (! Fire)) (F True)) "
                       "(U True (& __action_cheese (G (! Fire)))))")

    def test_key_task_formula(self):
        spec = ppa_task("key", post="KeyStacked", pre="IsKeyDoor", gc="NoErr",
                        tc="VisibleKeyDoor", alphabet=KD_ATOMS)
        got = format_formula(expand_task(spec))
        assert got == ("| (& (G NoErr) KeyStacked) "
                       "(& (& (G NoErr) (F IsKeyDoor)) "
                       "(U VisibleKeyDoor (& __action_key (G NoErr))))")

    def test_trivial_post_satisfiable_in_one_state(self):
        # left disjunct needs only gc and post on a single state
        spec = ppa_task("t", post="True", gc="!Fire", alphabet=GRID_ATOMS)
        formula = expand_task(spec)
        alpha = frozenset(GRID_ATOMS | {spec.action_atom})
        state = {name: False for name in alpha}
        state[spec.action_atom] = True
        tr = ltlf.Trace([state], alpha)
        assert ltlf.evaluate(formula, tr, 0) is True

    def test_temporal_condition_rejected(self):
        with pytest.raises(TemporalOperatorInCondition):
            PpaTaskSpec("bad", poc=ltlf.Finally(Atom("Cheese")), prc=ltlf.TRUE,
                        gc=ltlf.TRUE, tc=ltlf.TRUE, action="bad")

    def test_action_atom_rejected_in_conditions(self):
        with pytest.raises(ReservedAtom):
            ppa_task("bad", post="__action_x", alphabet={"__action_x"})


class TestRenderProp:
    def test_infix_with_nested_operators_parenthesized(self):
        prop = parse_prop("!a & (b | !c)", {"a", "b", "c"})
        assert render_prop(prop) == "(!a) & (b | (!c))"

    @pytest.mark.parametrize("text", ["F a", "X a", "G a", "U a b", "& a (F b)"])
    def test_temporal_operator_raises(self, text):
        with pytest.raises(ValueError):
            render_prop(parse_ltlf(text, {"a", "b"}))


class TestParseMission:
    def test_c2h_shape(self):
        expr = parse_mission(C2H, GRID_ATOMS)
        assert isinstance(expr, Until)
        assert isinstance(expr.left, Finally)
        assert isinstance(expr.right, Finally)
        assert isinstance(expr.left.child, Task)
        assert expr.left.child.spec.name == "cheese"
        assert expr.right.child.spec.name == "home"
        assert expr.left.child.spec.gc == ltlf.Not(Atom("Fire"))

    def test_keydoor_shape(self):
        expr = parse_mission(kd_text(), KD_ATOMS)
        assert isinstance(expr, Until)
        assert isinstance(expr.right, Until)
        names = [spec.name for spec in tasks_of(expr)]
        assert names == ["key", "door", "prize"]

    def test_and_binds_tighter_than_or(self):
        text = ("| task(m1, post=a) & task(m2, post=b) task(m3, post=c)")
        expr = parse_mission(text, {"a", "b", "c"})
        assert isinstance(expr, Or)
        assert isinstance(expr.left, Task)
        assert isinstance(expr.right, And)
        assert expr.right.left.spec.name == "m2"
        assert expr.right.right.spec.name == "m3"

    def test_duplicate_task_name(self):
        text = "& task(t, post=a) task(t, post=b)"
        with pytest.raises(DuplicateTaskName):
            parse_mission(text, {"a", "b"})

    def test_unknown_atom_in_field(self):
        with pytest.raises(UnknownAtom):
            parse_mission("task(t, post=nope)", {"a"})

    def test_comments_and_newlines(self):
        text = "# mission\nF (  # finally\n task(t, post=a) )"
        expr = parse_mission(text, {"a"})
        assert isinstance(expr, Finally)

    def test_defaults_fill_missing_fields(self):
        expr = parse_mission("task(t, post=a)", {"a"})
        spec = expr.spec
        assert spec.prc == ltlf.TRUE and spec.gc == ltlf.TRUE and spec.tc == ltlf.TRUE
        assert spec.action == "t"

    def test_missing_post_rejected(self):
        with pytest.raises(ltlf.ParseError):
            parse_mission("task(t, pre=a)", {"a"})

    def test_empty_input_rejected(self):
        with pytest.raises(ltlf.ParseError):
            parse_mission("", {"a"})


class TestExpandMission:
    def test_finally_wraps_task_expansion(self):
        expr = parse_mission("F (task(t, post=a))", {"a"})
        assert expand_mission(expr) == ltlf.Finally(expand_task(expr.child.spec))

    def test_and_maps_to_conjunction(self):
        expr = parse_mission("& task(x, post=a) task(y, post=b)", {"a", "b"})
        formula = expand_mission(expr)
        assert isinstance(formula, ltlf.And)

    def test_c2h_formula_structure(self):
        expr = parse_mission(C2H, GRID_ATOMS)
        formula = expand_mission(expr)
        assert isinstance(formula, ltlf.Until)
        assert isinstance(formula.left, ltlf.Finally)
        assert isinstance(formula.right, ltlf.Finally)
        # each operand is a full task expansion
        cheese = tasks_of(expr)[0]
        assert formula.left.child == expand_task(cheese)


class TestGrammarProperties:
    def test_production_fuzzer_never_fails_to_parse(self):
        rng = random.Random(21)
        alphabet = {"a", "b", "c"}
        for _ in range(300):
            text = derive_mission_text(rng, [0], alphabet, depth=4)
            expr = parse_mission(text, alphabet)
            assert tasks_of(expr)

    def test_render_roundtrip(self):
        rng = random.Random(22)
        alphabet = {"a", "b", "c"}
        # F chains, and prints with its operand parenthesized
        chained = parse_mission("F F task(t, post=a)", alphabet)
        assert chained == parse_mission("F (F task(t, post=a))", alphabet)
        assert render_mission(chained) == (
            "F (F task(t, post=a, pre=True, gc=True, tc=True, action=t))")
        assert parse_mission(render_mission(chained), alphabet) == chained
        for _ in range(200):
            text = derive_mission_text(rng, [0], alphabet, depth=4)
            expr = parse_mission(text, alphabet)
            assert parse_mission(render_mission(expr), alphabet) == expr

    def test_expansion_roundtrips_through_ltlf(self):
        rng = random.Random(23)
        alphabet = frozenset({"a", "b", "c"})
        for _ in range(200):
            text = derive_mission_text(rng, [0], alphabet, depth=3)
            expr = parse_mission(text, alphabet)
            formula = expand_mission(expr)
            alpha = mission_alphabet(expr, alphabet)
            assert parse_ltlf(format_formula(formula), alpha) == formula

    def test_every_task_expansion_matches_template(self):
        rng = random.Random(24)
        alphabet = {"a", "b", "c"}
        for _ in range(200):
            text = derive_mission_text(rng, [0], alphabet, depth=3)
            for spec in tasks_of(parse_mission(text, alphabet)):
                f = expand_task(spec)
                assert isinstance(f, ltlf.Or)
                left, right = f.left, f.right
                assert left == ltlf.And(ltlf.Globally(spec.gc), spec.poc)
                assert isinstance(right, ltlf.And)
                assert right.left == ltlf.And(ltlf.Globally(spec.gc),
                                              ltlf.Finally(spec.prc))
                until = right.right
                assert until == ltlf.Until(
                    spec.tc, ltlf.And(Atom(spec.action_atom), ltlf.Globally(spec.gc)))

    def test_json_roundtrip(self):
        rng = random.Random(25)
        alphabet = frozenset({"a", "b", "c"})
        for _ in range(100):
            text = derive_mission_text(rng, [0], alphabet, depth=3)
            expr = parse_mission(text, alphabet)
            assert formula_from_json(formula_to_json(expr), alphabet) == expr


class TestMissionAlphabet:
    def test_action_atoms_added(self):
        expr = parse_mission(C2H, GRID_ATOMS)
        alpha = mission_alphabet(expr, frozenset(GRID_ATOMS))
        assert "__action_cheese" in alpha and "__action_home" in alpha

    def test_prop_parser_standalone(self):
        f = parse_prop("!a & (b | c)", {"a", "b", "c"})
        assert f == ltlf.And(ltlf.Not(Atom("a")), ltlf.Or(Atom("b"), Atom("c")))


def nested_mission(levels, shape):
    """Mission text nested exactly ``levels`` deep, about half of it inside
    a task condition: in operators and parentheses both (the deepest
    parse), or in operators alone (the deepest tree); or all of it in a
    chain of ``F`` over one task."""
    if shape == "F-chain":
        return "F " * levels + "task(t, post=a)"
    outer, inner = levels // 2, levels - levels // 2
    if shape == "parentheses":
        cond = "!(" * inner + "a" + ")" * inner
        return "F (" * outer + f"task(t, post={cond})" + ")" * outer
    cond = " & ".join(["a"] * (inner + 1))
    return "U " * outer + " ".join(f"task(t{i}, post={cond})" for i in range(outer + 1))


class TestNesting:
    @pytest.mark.parametrize("parse, text", [
        (parse_prop, "!" * 2000 + "a"),
        (parse_prop, "(" * 2000 + "a" + ")" * 2000),
        (parse_prop, " & ".join(["a"] * 2000)),
        (parse_mission, "F (" * 1500 + "task(t, post=a)" + ")" * 1500),
    ], ids=["prop-not-chain", "prop-parentheses", "prop-and-chain", "mission-F"])
    def test_deep_input_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError, match="more than 100 nested"):
            parse(text, {"a"})

    @pytest.mark.parametrize("shape", ["parentheses", "operators", "F-chain"])
    def test_mission_at_the_limit_runs_end_to_end(self, shape):
        alphabet = {"a"}
        expr = parse_mission(nested_mission(MAX_NESTING, shape), alphabet)
        assert parse_mission(render_mission(expr), alphabet) == expr
        formula = expand_mission(expr)
        assert format_formula(formula)
        alpha = mission_alphabet(expr, frozenset(alphabet))
        state = {name: True for name in alpha}
        assert ltlf.evaluate(formula, ltlf.Trace([state], alpha)) in (True, False)
        cfg = MissionConfig(theta=1, alphabet=frozenset(alphabet))
        tree = bind_scripted(compile_mission(expr, cfg), expr, cfg)
        assert bt.MissionRunner(tree).tick_once({"a": True}) in bt.Status
        inlined = inline_actions(formula, tree)
        trace = ltlf.Trace([{"a": True}], frozenset(alphabet))
        assert ltlf.evaluate(inlined, trace) in (True, False)
        with pytest.raises(ParseError):
            parse_mission(nested_mission(MAX_NESTING + 1, shape), alphabet)
