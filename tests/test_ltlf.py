import itertools
import random
import time

import pytest

from helpers import formula_from_json, recursion_limit
from ppabt.ltlf import (
    MAX_NESTING, And, Atom, Binary, Finally, Globally, LtlfError, Next, Not, Or,
    ParseError, Progression, Trace, TraceIndexError, Unary, Until, UnknownAtom,
    atoms_of, compile_prop, evaluate, format_formula, formula_to_json,
    is_propositional, parse_ltlf,
)

AB = {"a", "b", "c"}


def trace_of(alphabet, *rows):
    """Rows are dicts of the named props; everything else defaults False."""
    alphabet = frozenset(alphabet)
    states = [{name: bool(row.get(name, False)) for name in alphabet} for row in rows]
    return Trace(states, alphabet)


class TestParsing:
    def test_precedence_and_binds_tighter_than_or(self):
        assert parse_ltlf("| a & b c", AB) == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_left_associativity(self):
        assert parse_ltlf("& & a b c", AB) == And(And(Atom("a"), Atom("b")), Atom("c"))

    def test_until_binds_tighter_than_and(self):
        assert parse_ltlf("& a U b c", AB) == And(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_unary_needs_parens_around_binary_operand(self):
        with pytest.raises(ParseError):
            parse_ltlf("F & a b", AB)
        assert parse_ltlf("F (& a b)", AB) == Finally(And(Atom("a"), Atom("b")))

    def test_unary_operators_chain(self):
        assert parse_ltlf("F ! a", AB) == Finally(Not(Atom("a")))
        assert parse_ltlf("G F a", AB) == Globally(Finally(Atom("a")))

    def test_unknown_atom_rejected(self):
        with pytest.raises(UnknownAtom):
            parse_ltlf("& a zz", AB)

    def test_reserved_constants_always_admitted(self):
        assert parse_ltlf("& True False", set()) == And(Atom("True"), Atom("False"))

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_ltlf("| a )", AB)
        assert err.value.position == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_ltlf("a b", AB)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_ltlf("", AB)


class TestFormat:
    def test_or_with_and_operand(self):
        f = Or(Atom("a"), And(Atom("b"), Atom("c")))
        assert format_formula(f) == "| a (& b c)"

    def test_atom_is_identity(self):
        assert format_formula(Atom("a")) == "a"

    def test_until_of_finallys(self):
        f = Until(Finally(Atom("a")), Finally(Atom("b")))
        assert format_formula(f) == "U (F a) (F b)"

    @pytest.mark.parametrize("cls", Unary.__subclasses__() + Binary.__subclasses__(),
                             ids=lambda cls: cls.__name__)
    def test_every_operator_parses_from_its_symbol(self, cls):
        # an operator class the parser tables miss fails here
        operands = [Atom("a"), Atom("b")][:len(cls.__dataclass_fields__)]
        text = " ".join([cls.symbol, *(a.name for a in operands)])
        assert parse_ltlf(text, AB) == cls(*operands)
        assert format_formula(cls(*operands)) == text

    def test_operands_are_args(self):
        assert Not(Atom("a")).args == (Atom("a"),)
        assert Until(Atom("a"), Atom("b")).args == (Atom("a"), Atom("b"))
        assert Atom("a").args == ()


class TestEvaluate:
    def test_globally_true_everywhere(self):
        tr = trace_of(AB, {"a": True}, {"a": True}, {"a": True})
        assert evaluate(Globally(Atom("a")), tr, 0) is True

    def test_globally_fails_on_one_violation(self):
        tr = trace_of(AB, {"a": True}, {}, {"a": True})
        assert evaluate(Globally(Atom("a")), tr, 0) is False

    def test_until_example(self):
        # a=[T,T,F], b=[F,F,T]: b holds at j=2, a holds at k in {0,1}
        tr = trace_of(AB, {"a": True}, {"a": True}, {"b": True})
        assert evaluate(Until(Atom("a"), Atom("b")), tr, 0) is True

    def test_until_fails_without_witness(self):
        tr = trace_of(AB, {"a": True}, {"a": True}, {"a": True})
        assert evaluate(Until(Atom("a"), Atom("b")), tr, 0) is False

    def test_until_gap_in_lhs(self):
        # a=[T,F,T], b=[F,F,T]: a fails at k=1 before the j=2 witness
        tr = trace_of(AB, {"a": True}, {}, {"a": True, "b": True})
        assert evaluate(Until(Atom("a"), Atom("b")), tr, 0) is False

    def test_strong_next_at_final_position(self):
        tr = trace_of(AB, {"a": True})
        assert evaluate(Next(Atom("a")), tr, 0) is False
        tr2 = trace_of(AB, {}, {"a": True})
        assert evaluate(Next(Atom("a")), tr2, 0) is True
        assert evaluate(Next(Atom("a")), tr2, 1) is False

    def test_finally_from_suffix(self):
        tr = trace_of(AB, {"b": True}, {}, {"a": True})
        assert evaluate(Finally(Atom("a")), tr, 0) is True
        assert evaluate(Finally(Atom("b")), tr, 1) is False

    def test_index_out_of_range(self):
        tr = trace_of(AB, {"a": True})
        with pytest.raises(TraceIndexError):
            evaluate(Atom("a"), tr, 1)

    def test_unknown_atom_is_error_not_false(self):
        tr = trace_of({"a"}, {"a": True})
        with pytest.raises(UnknownAtom):
            evaluate(Atom("zz"), tr, 0)

    def test_constants(self):
        tr = trace_of(AB, {})
        assert evaluate(Atom("True"), tr, 0) is True
        assert evaluate(Atom("False"), tr, 0) is False


class TestLongTraces:
    """Closed-form answers on a 5,000-state trace, with a recursion limit
    far below the trace's length: the evaluator's stack depth follows
    the formula, not the trace.

    ``a`` fails only at 1234 and 3000, ``b`` holds only at 2000 and 4000,
    and ``c`` holds at every position ending in 9, the last one included.
    """

    N = 5000
    INDICES = (0, 1233, 1234, 1235, 1999, 2000, 2001, 2999, 3000, 3001,
               3999, 4000, 4001, 4998, 4999)

    @pytest.fixture(scope="class")
    def trace(self):
        states = [{"a": i not in (1234, 3000), "b": i in (2000, 4000),
                   "c": i % 10 == 9} for i in range(self.N)]
        return Trace(states, frozenset(AB))

    @pytest.mark.parametrize("text, expected", [
        ("F b", lambda i: i <= 4000),
        ("G a", lambda i: i > 3000),
        ("X b", lambda i: i + 1 in (2000, 4000)),
        ("X c", lambda i: i < 4999 and (i + 1) % 10 == 9),
        ("U a b", lambda i: 1234 < i <= 2000 or 3000 < i <= 4000),
        ("U a c", lambda i: not (1230 <= i <= 1234 or i == 3000)),
        ("G (U a c)", lambda i: i > 3000),
        ("G F (U a c)", lambda i: True),
        ("G F (U a b)", lambda i: False),
        ("F (G (U a c))", lambda i: True),
        ("U (! b) (& b (X (F b)))", lambda i: i <= 2000),
    ])
    def test_closed_form(self, trace, text, expected):
        formula = parse_ltlf(text, AB)
        with recursion_limit(200):
            got = [evaluate(formula, trace, i) for i in self.INDICES]
        assert got == [expected(i) for i in self.INDICES]


class TestTrace:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace([], frozenset({"a"}))

    def test_partial_state_rejected(self):
        with pytest.raises(ValueError):
            Trace([{"a": True}], frozenset({"a", "b"}))


def random_formula(rng, names, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    kind = rng.randrange(8)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    if kind == 1:
        return Next(random_formula(rng, names, depth - 1))
    if kind == 2:
        return Finally(random_formula(rng, names, depth - 1))
    if kind == 3:
        return Globally(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return [And, Or, Until, Until][kind - 4](left, right)


def random_trace(rng, alphabet, max_len):
    n = rng.randint(1, max_len)
    states = [{name: rng.random() < 0.5 for name in alphabet} for _ in range(n)]
    return Trace(states, frozenset(alphabet))


class TestProperties:
    def test_roundtrip_random_formulas(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "x1", "y_2"]
        for _ in range(2000):
            f = random_formula(rng, names, depth=8)
            assert parse_ltlf(format_formula(f), set(names)) == f

    def test_json_roundtrip(self):
        rng = random.Random(8)
        names = ["a", "b", "c"]
        for _ in range(300):
            f = random_formula(rng, names, depth=6)
            assert formula_from_json(formula_to_json(f)) == f

    def test_dualities_on_random_traces(self):
        rng = random.Random(9)
        for _ in range(400):
            tr = random_trace(rng, ["a"], 6)
            a = Atom("a")
            assert evaluate(Not(Finally(a)), tr) == evaluate(Globally(Not(a)), tr)
            assert evaluate(Not(Globally(a)), tr) == evaluate(Finally(Not(a)), tr)

    def test_suffix_consistency_globally(self):
        rng = random.Random(10)
        for _ in range(300):
            tr = random_trace(rng, ["a", "b"], 6)
            psi = random_formula(rng, ["a", "b"], 3)
            g = Globally(psi)
            for i in range(len(tr) - 1):
                assert evaluate(g, tr, i) == (
                    evaluate(psi, tr, i) and evaluate(g, tr, i + 1))

    def test_until_unrolling(self):
        rng = random.Random(11)
        for _ in range(300):
            tr = random_trace(rng, ["a", "b"], 6)
            p1 = random_formula(rng, ["a", "b"], 3)
            p2 = random_formula(rng, ["a", "b"], 3)
            u = Until(p1, p2)
            for i in range(len(tr) - 1):
                assert evaluate(u, tr, i) == (
                    evaluate(p2, tr, i) or (evaluate(p1, tr, i) and evaluate(u, tr, i + 1)))


class TestPropositional:
    def test_is_propositional(self):
        assert is_propositional(parse_ltlf("& a (! b)", AB))
        assert not is_propositional(parse_ltlf("& a (F b)", AB))

    def test_compiled_prop_matches_evaluate(self):
        # a propositional formula on a state is the formula on a 1-state trace
        rng = random.Random(12)
        names = ["a", "b", "c"]
        for _ in range(200):
            f = random_formula(rng, names, 0)
            f = And(f, Or(Not(Atom(rng.choice(names))), Atom(rng.choice(names))))
            fn = compile_prop(f)
            for _ in range(8):
                state = {n: rng.random() < 0.5 for n in names}
                assert fn(state) == evaluate(f, Trace([state], frozenset(names)))

    def test_temporal_rejected(self):
        with pytest.raises(ValueError):
            compile_prop(Next(Atom("a")))

    def test_atoms_of(self):
        assert atoms_of(parse_ltlf("| a (& b True)", AB)) == {"a", "b", "True"}


class TestNesting:
    @pytest.mark.parametrize("text", [
        "! " * 2000 + "a",
        "& " * 2000 + "a" + " a" * 2000,
        "(" * 2000 + "a" + ")" * 2000,
    ], ids=["not-chain", "and-chain", "parentheses"])
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="more than 100 nested"):
            parse_ltlf(text, AB)

    @pytest.mark.parametrize("make", [
        lambda n: "! " * n + "a",
        lambda n: "U " * n + "a" + " a" * n,
        lambda n: "(" * n + "a" + ")" * n,
        lambda n: "X " * n + "a",
        lambda n: "F " * n + "a",
        lambda n: "G " * n + "a",
    ], ids=["not-chain", "until-chain", "parentheses", "next-chain", "finally-chain",
            "globally-chain"])
    def test_nesting_limit_is_exact(self, make):
        f = parse_ltlf(make(MAX_NESTING), AB)
        assert parse_ltlf(format_formula(f), AB) == f
        assert evaluate(f, trace_of(AB, {"a": True})) in (True, False)
        # progression recurses over the formula's variables, never the trace
        with recursion_limit(1000):
            progression = Progression(f)
            residual = progression.start
            for i in range(8):
                state = {"a": i % 2 == 0, "b": i % 4 < 2, "c": False}
                residual = progression.step(residual, state)
        with pytest.raises(ParseError):
            parse_ltlf(make(MAX_NESTING + 1), AB)


class TestProgression:
    STATES = [{"a": a, "b": b, "c": c}
              for a in (False, True) for b in (False, True) for c in (False, True)]

    def test_too_wide_a_formula_is_a_typed_error(self):
        # a balanced conjunction of F over 600 atoms: each F is a variable,
        # and building the start and stepping it recurse once per variable
        def conjoin(parts):
            half = len(parts) // 2
            return parts[0] if half == 0 else And(conjoin(parts[:half]), conjoin(parts[half:]))

        names = [f"a{i}" for i in range(600)]
        formula = conjoin([Finally(Atom(name)) for name in names])
        progression = Progression(formula)
        none, every = dict.fromkeys(names, False), dict.fromkeys(names, True)
        with recursion_limit(200):
            with pytest.raises(LtlfError, match=r"too wide to progress: 600\+ temporal"):
                Progression(formula)
            with pytest.raises(LtlfError, match=r"too wide to progress: 600\+ temporal"):
                progression.step(progression.start, none)
        # a refused step leaves no half-built node behind
        waiting = progression.step(progression.start, none)
        assert waiting not in (Progression.TRUE, Progression.FALSE)
        assert progression.step(waiting, every) == Progression.TRUE
        assert progression.step(progression.start, every) == Progression.TRUE

    def test_prefixes_with_one_residual_agree_on_every_suffix(self):
        # the residual is check_inclusion's merge key: two prefixes that
        # reach it must get one verdict, whatever follows and however long
        rng = random.Random(71)
        merged = 0
        for _ in range(150):
            formula = random_formula(rng, ["a", "b", "c"], depth=5)
            progression = Progression(formula)
            by_residual = {}
            for _ in range(40):
                prefix = [rng.choice(self.STATES) for _ in range(rng.randint(1, 4))]
                residual = progression.start
                for state in prefix:
                    residual = progression.step(residual, state)
                by_residual.setdefault(residual, []).append(prefix)
            for prefixes in by_residual.values():
                merged += len(prefixes) - 1
                for _ in range(4):
                    suffix = [rng.choice(self.STATES) for _ in range(rng.randint(1, 4))]
                    verdicts = {evaluate(formula, Trace(p + suffix, frozenset(AB)))
                                for p in prefixes}
                    assert len(verdicts) == 1, (formula, prefixes, suffix)
        assert merged > 3000

    @pytest.mark.parametrize("text, atoms, residuals, last_new", [
        ("U (F a) (F (& b (G c)))", ["a", "b", "c"], 5, 1),
        # F (& t1 t2) expanded, with each task's post, pre, gc and tc its
        # own atom and its action atom read as its postcondition
        ("F (& (| (& (G gc1) post1) (& (& (G gc1) (F pre1)) (U tc1 (& post1 (G gc1)))))"
         " (| (& (G gc2) post2) (& (& (G gc2) (F pre2)) (U tc2 (& post2 (G gc2))))))",
         [f"{cond}{i}" for cond in ("post", "pre", "gc", "tc") for i in (1, 2)], 19, 4),
    ], ids=["until", "two-tasks"])
    def test_residuals_saturate(self, text, atoms, residuals, last_new):
        # one int per Boolean function of finitely many obligations, so a
        # search over every state stops finding new residuals
        progression = Progression(parse_ltlf(text, set(atoms)))
        states = [dict(zip(atoms, row))
                  for row in itertools.product((False, True), repeat=len(atoms))]
        seen = layer = {progression.start}
        for depth in range(1, last_new + 6):
            layer = {progression.step(residual, state)
                     for residual in layer for state in states}
            new = layer - seen
            seen = seen | new
            assert len(seen) <= residuals, depth
            assert depth <= last_new or not new, depth
        assert len(seen) == residuals

    def test_one_obligation_is_one_residual(self):
        # both branches leave F b | (F c & G c), nested differently
        formula = parse_ltlf("| (& a (X (& (| (F b) (F c)) (| (F b) (G c)))))"
                             " (& (! a) (X (| (F b) (& (F c) (G c)))))", AB)
        progression = Progression(formula)
        after = {progression.step(progression.start, {"a": a, "b": False, "c": False})
                 for a in (True, False)}
        assert len(after) == 1

    def test_weak_and_strong_next_stay_apart(self):
        # after a: X b, false on a one-state rest; after !a: N b, true there
        formula = parse_ltlf("| (& a (X (X b))) (& (! a) (! (X (X (! b)))))", AB)
        progression = Progression(formula)
        after = [progression.step(progression.start, {"a": a, "b": False, "c": False})
                 for a in (True, False)]
        assert after[0] != after[1]

    def test_constants_fold(self):
        progression = Progression(parse_ltlf("& (G a) (F b)", AB))
        residual = progression.step(progression.start, {"a": False, "b": True, "c": False})
        assert residual == Progression.FALSE
        progression = Progression(parse_ltlf("| (F a) (G b)", AB))
        residual = progression.step(progression.start, {"a": True, "b": False, "c": False})
        assert residual == Progression.TRUE

    def test_a_state_without_an_atom_of_the_formula_raises(self):
        progression = Progression(parse_ltlf("F c", AB))
        with pytest.raises(UnknownAtom):
            progression.step(progression.start, {"a": True, "b": True})

    def test_wide_conjunction_steps_without_distribution(self):
        # & of 40 | (X^i a) (X^i b): 2^40 clauses in disjunctive normal form
        a, b = Atom("a"), Atom("b")
        conjuncts = []
        for i in range(40):
            xa, xb = a, b
            for _ in range(i):
                xa, xb = Next(xa), Next(xb)
            conjuncts.append(Or(xa, xb))
        formula = conjuncts[0]
        for conjunct in conjuncts[1:]:
            formula = And(formula, conjunct)
        rng = random.Random(72)
        t0 = time.perf_counter()
        progression = Progression(formula)
        residual = progression.start
        for _ in range(40):
            a_holds = rng.random() < 0.5
            residual = progression.step(residual, {"a": a_holds, "b": not a_holds})
            assert residual != Progression.FALSE
        assert time.perf_counter() - t0 < 1.0
        assert residual == Progression.TRUE
