"""Finite-trace linear temporal logic: AST, prefix-syntax parser, evaluator.

Formulas are immutable trees built from atoms and the operators
``! & | X U F G``.  The concrete syntax is prefix: ``| a (& b c)`` is
"a or (b and c)".  Operands of a binary operator are parenthesized
unless they are atoms; unary operators may chain (``F ! a``) or take a
parenthesized operand (``F (& a b)``).

One prefix parser, ``parse_prefix``, reads both this language and the
mission language: it takes the unary operators and the leaf parser, so
missions reuse it with ``F`` alone and ``task(...)`` literals for atoms.
The infix propositional parser of task conditions (``parse_condition``)
lives here too.  This module alone counts nesting: every parser refuses
input nested deeper than ``MAX_NESTING`` levels with a ParseError.

Evaluation is over finite traces of proposition valuations.  ``True``
and ``False`` are reserved atoms with constant value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_, itemgetter
from typing import Callable, Iterator

StateVector = dict[str, bool]


class LtlfError(Exception):
    pass


class ParseError(LtlfError):
    """Syntax error with the offending position and what was expected."""

    def __init__(self, message: str, position: int, expected: str = ""):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected {expected})" if expected else ""))
        self.position = position
        self.expected = expected


class UnknownAtom(LtlfError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} is not in the declared alphabet")
        self.name = name


class TraceIndexError(LtlfError, IndexError):
    pass


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Formula:
    """Operators set ``symbol`` and their operands are ``args``.  A leaf
    has no ``args`` and renders itself through ``__str__`` and
    ``to_json``: Atom here, Task in the mission language."""

    symbol = ""
    args = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self) -> str:
        return self.name

    def to_json(self) -> dict:
        return {"op": "atom", "name": self.name}


@dataclass(frozen=True)
class Unary(Formula):
    child: Formula
    json_keys = ("child",)  # formula_to_json's names for the operands

    @property
    def args(self) -> tuple[Formula]:
        return (self.child,)


@dataclass(frozen=True)
class Binary(Formula):
    left: Formula
    right: Formula
    json_keys = ("lhs", "rhs")

    @property
    def args(self) -> tuple[Formula, Formula]:
        return (self.left, self.right)


class Not(Unary):
    symbol = "!"


class Next(Unary):
    symbol = "X"


class Finally(Unary):
    symbol = "F"


class Globally(Unary):
    symbol = "G"


class Or(Binary):
    symbol = "|"


class And(Binary):
    symbol = "&"


class Until(Binary):
    symbol = "U"


TRUE = Atom("True")
FALSE = Atom("False")

TEMPORAL_OPS = (Next, Until, Finally, Globally)


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Every subformula in preorder, left operand before right."""
    stack = [formula]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(f.args))


def atoms_of(formula: Formula) -> set[str]:
    """All atom names occurring in the formula, reserved constants included."""
    return {f.name for f in subformulas(formula) if isinstance(f, Atom)}


def is_propositional(formula: Formula) -> bool:
    return not any(isinstance(f, TEMPORAL_OPS) for f in subformulas(formula))


def map_leaves(formula: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """The formula with every leaf ``f`` replaced by ``fn(f)``; subformulas
    whose leaves all stay are kept, so shared ones stay shared."""
    if not formula.args:
        return fn(formula)
    args = tuple(map_leaves(arg, fn) for arg in formula.args)
    return formula if all(map(is_, args, formula.args)) else type(formula)(*args)


# ---------------------------------------------------------------------------
# Traces

@dataclass
class Trace:
    """Finite, non-empty sequence of total proposition valuations.

    Every state must assign exactly the declared alphabet.  ``True`` and
    ``False`` are implicit and need not appear.
    """

    states: list[StateVector]
    alphabet: frozenset[str]

    def __post_init__(self):
        if not self.states:
            raise ValueError("empty trace")
        for i, state in enumerate(self.states):
            if state.keys() != self.alphabet:
                missing = self.alphabet - state.keys()
                extra = state.keys() - self.alphabet
                raise ValueError(f"state {i} does not match alphabet "
                                 f"(missing {sorted(missing)}, extra {sorted(extra)})")

    def __len__(self) -> int:
        return len(self.states)


def evaluate(formula: Formula, trace: Trace, index: int = 0) -> bool:
    """Truth of the formula on the trace suffix starting at ``index``.

    Temporal operators quantify over the realized trace positions
    ``index .. len(trace)-1``; ``X`` is strong, false at the last one.
    This is the finite-trace dynamic program of De Giacomo & Vardi: each
    distinct subformula is evaluated once, bottom-up, to one ``int`` that
    holds its truth at every position, so each operator costs a few
    bigint operations over the whole trace.  Recursion follows the
    formula's depth, never the trace's length.  Every atom other than
    ``True`` and ``False`` must be in the trace's alphabet, even where
    its value cannot change the answer.
    """
    n = len(trace.states)
    if not 0 <= index < n:
        raise TraceIndexError(f"index {index} outside trace of length {n}")
    return bool(_bits(formula, trace, (1 << n) - 1, {}) >> (n - 1 - index) & 1)


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(f: Formula, trace: Trace, full: int, memo: dict) -> int:
    """Truth of ``f`` at every position of the trace, as an int whose
    binary digits read as the trace: the first state is the highest of
    the ``n`` bits and the last state is bit 0.

    Position ``i + 1`` is then one bit below position ``i``, so ``X`` is
    a left shift and the carries of an addition run from the end of the
    trace towards its start, as ``U`` needs.  ``memo`` holds the vectors
    built so far: compound subformulas by ``id``, atoms by name.
    """
    cls = type(f)
    key = f.name if cls is Atom else id(f)
    bits = memo.get(key)
    if bits is not None:
        return bits
    if cls is Atom:
        if key == "True":
            bits = full
        elif key == "False":
            bits = 0
        elif key not in trace.alphabet:
            raise UnknownAtom(key)
        else:
            column = bytes(map(itemgetter(key), trace.states))
            bits = int(column.translate(_BIT_CHARS), 2)
    elif cls is And:
        bits = _bits(f.left, trace, full, memo) & _bits(f.right, trace, full, memo)
    elif cls is Or:
        bits = _bits(f.left, trace, full, memo) | _bits(f.right, trace, full, memo)
    elif cls is Not:
        bits = full ^ _bits(f.child, trace, full, memo)
    elif cls is Next:
        bits = _bits(f.child, trace, full, memo) << 1 & full
    elif cls is Finally:
        # the lowest set bit and every bit above it
        child = _bits(f.child, trace, full, memo)
        bits = (child | -child) & full
    elif cls is Globally:
        # the unbroken run of set bits that starts at bit 0
        child = _bits(f.child, trace, full, memo)
        bits = (child ^ (child + 1)) >> 1
    elif cls is Until:
        # Adding b to (a | b) carries into the bit above each b position
        # and on through a positions: the carry into bit p + 1 is
        # b[p] | (a[p] & carry into p), the recurrence of ``a U b``.
        right = _bits(f.right, trace, full, memo)
        either = _bits(f.left, trace, full, memo) | right
        bits = ((either + right) ^ either ^ right) >> 1
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = bits
    return bits


class Progression:
    """Formula progression (Bacchus & Kabanza, AIJ 2000): the obligation a
    trace prefix leaves on the rest of a trace that goes on past it.

    For every non-empty suffix ``w``, prefix + ``w`` satisfies the formula
    exactly when ``w`` satisfies the prefix's residual, so two prefixes
    that reach one residual cannot be told apart by any continuation.
    This makes a residual a sound merge key; verdicts still come from
    ``evaluate``.

    The formula is put in negation normal form, with the weak next ``N``
    (true at the last state) dual to ``X`` and release ``R`` dual to
    ``U``.  Nodes are hash-consed to ints: a literal, a temporal operator
    over node ids, or an n-ary ``and``/``or`` whose operands are folded
    against the constants, flattened and deduplicated.  A residual is such
    a node.  ``step`` is memoized on the residual and the values of the
    formula's atoms, and recursion follows the node's depth.
    """

    TRUE, FALSE = 0, 1

    def __init__(self, formula: Formula):
        self.atoms = tuple(sorted(atoms_of(formula) - {"True", "False"}))
        self._ids: dict[tuple, int] = {}
        self._nodes: list[tuple] = []
        self._memo: dict[tuple[int, tuple[bool, ...]], int] = {}
        self._node("true")
        self._node("false")
        index = {name: i for i, name in enumerate(self.atoms)}
        self.start = self._nnf(formula, True, index, {})

    def _node(self, *node) -> int:
        n = self._ids.get(node)
        if n is None:
            n = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
        return n

    def _junction(self, op: str, parts) -> int:
        """``and``/``or`` over node ids, with constants folded, nested nodes
        of the same op flattened into this one and duplicates dropped."""
        unit, zero = (self.TRUE, self.FALSE) if op == "and" else (self.FALSE, self.TRUE)
        operands = set()
        for n in parts:
            if n == zero:
                return zero
            node = self._nodes[n]
            if node[0] == op:
                operands.update(node[1:])
            elif n != unit:
                operands.add(n)
        if len(operands) <= 1:
            return operands.pop() if operands else unit
        return self._node(op, *sorted(operands))

    # each operator's NNF op, and the op its negation takes
    _OPS = {And: ("and", "or"), Or: ("or", "and"), Next: ("X", "N"),
            Finally: ("F", "G"), Globally: ("G", "F"), Until: ("U", "R")}

    def _nnf(self, f: Formula, positive: bool, index: dict[str, int], memo: dict) -> int:
        key = (id(f), positive)
        n = memo.get(key)
        if n is not None:
            return n
        cls = type(f)
        if cls is Not:
            n = self._nnf(f.child, not positive, index, memo)
        elif cls is Atom:
            if f.name in ("True", "False"):
                n = self.TRUE if (f.name == "True") == positive else self.FALSE
            else:
                n = self._node("lit", index[f.name], positive)
        elif cls in self._OPS:
            op = self._OPS[cls][0 if positive else 1]
            args = [self._nnf(arg, positive, index, memo) for arg in f.args]
            n = self._junction(op, args) if op in ("and", "or") else self._node(op, *args)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = n
        return n

    def step(self, residual: int, state: StateVector) -> int:
        """The residual after one more state, which the trace goes on past."""
        try:
            values = tuple([state[name] for name in self.atoms])
        except KeyError as missing:
            raise UnknownAtom(missing.args[0]) from None
        return self._step(residual, values)

    def _step(self, n: int, values: tuple[bool, ...]) -> int:
        key = (n, values)
        result = self._memo.get(key)
        if result is not None:
            return result
        node = self._nodes[n]
        op = node[0]
        if op in ("true", "false"):
            result = n
        elif op == "lit":
            result = self.TRUE if values[node[1]] == node[2] else self.FALSE
        elif op in ("X", "N"):
            result = node[1]
        else:
            now = [self._step(arg, values) for arg in node[1:]]
            if op in ("and", "or"):
                result = self._junction(op, now)
            elif op == "F":
                result = self._junction("or", [now[0], n])
            elif op == "G":
                result = self._junction("and", [now[0], n])
            elif op == "U":
                result = self._junction("or", [now[1], self._junction("and", [now[0], n])])
            else:  # R
                result = self._junction("and", [now[1], self._junction("or", [now[0], n])])
        self._memo[key] = result
        return result


def compile_prop(formula: Formula) -> Callable[[StateVector], bool]:
    """Build a closure evaluating a propositional formula on a state dict."""
    if isinstance(formula, Atom):
        name = formula.name
        if name == "True":
            return lambda s: True
        if name == "False":
            return lambda s: False
        return lambda s: s[name]
    if isinstance(formula, Not):
        f = compile_prop(formula.child)
        return lambda s: not f(s)
    if isinstance(formula, And):
        l, r = compile_prop(formula.left), compile_prop(formula.right)
        return lambda s: l(s) and r(s)
    if isinstance(formula, Or):
        l, r = compile_prop(formula.left), compile_prop(formula.right)
        return lambda s: l(s) or r(s)
    raise ValueError(f"temporal operator in propositional context: {formula}")


# ---------------------------------------------------------------------------
# Concrete syntax

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<op>[|&!()=,])
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)

RESERVED_WORDS = frozenset({"U", "F", "G", "X"})

# Deepest nesting any parser accepts: at most this many operators, and
# at most this many open parentheses, may enclose any point of the input.
# The operator count bounds the depth of the tree built, so the canonical
# text of any parsed formula, which parenthesizes every operand that is
# not a leaf, parses again.  Parsing costs at most 1 Python frame per
# operator and 4 per parenthesis, printing, expansion and compilation at
# most 2 per level of the tree, and evaluation 1 per level whatever the
# trace's length, so input at the limit stays well inside the
# interpreter's default recursion limit.
MAX_NESTING = 100


@dataclass
class Token:
    kind: str  # 'op', 'word', 'temporal', 'end'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "op":
            tokens.append(Token("op", m.group(), pos))
        elif m.lastgroup == "word":
            word = m.group()
            kind = "temporal" if word in RESERVED_WORDS else "word"
            tokens.append(Token(kind, word, pos))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Cursor:
    """Token stream position plus the operators and parentheses open there."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.parens = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, expected=repr(text))
        return tok

    def enter(self) -> None:
        """Take the operator or ``(`` at the cursor and open it; past
        MAX_NESTING it is an error."""
        tok = self.take()
        if tok.text == "(":
            self.parens += 1
            count, what = self.parens, "parentheses"
        else:
            self.depth += 1
            count, what = self.depth, "operators"
        if count > MAX_NESTING:
            raise ParseError(f"more than {MAX_NESTING} nested {what}", tok.pos)


def parse_text(text: str, parse: Callable[[_Cursor], Formula]) -> Formula:
    """Run ``parse`` over the tokens of ``text``, which it must consume whole."""
    cur = _Cursor(tokenize(text))
    result = parse(cur)
    end = cur.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.pos)
    return result


_LADDER = tuple((cls.symbol, cls) for cls in (Or, And, Until))  # loosest first


def parse_prefix(text: str, unary: dict[str, type[Unary]],
                 leaf: Callable[[_Cursor], Formula]) -> Formula:
    """Parse prefix text: the ``| & U`` ladder, loosest first, over operands.

    An operand is ``( ... )`` around a whole expression, an operator from
    ``unary`` applied to an operand, or whatever ``leaf`` parses at the
    cursor.  In ``op left right`` the left operand re-enters the
    operator's own level (binary operators are left associative) and the
    right operand the next tighter one; below ``U`` come the operands.
    """
    def operand(cur: _Cursor) -> Formula:
        tok = cur.peek()
        if tok.text == "(":
            cur.enter()
            inner = ladder(cur, 0)
            cur.expect(")")
            cur.parens -= 1
            return inner
        if tok.text in unary:
            cur.enter()
            child = operand(cur)
            cur.depth -= 1
            return unary[tok.text](child)
        return leaf(cur)

    def ladder(cur: _Cursor, level: int) -> Formula:
        tok = cur.peek()
        while level < len(_LADDER) and tok.text != _LADDER[level][0]:
            level += 1
        if level == len(_LADDER):
            return operand(cur)
        cur.enter()
        left = ladder(cur, level)
        right = ladder(cur, level + 1)
        cur.depth -= 1
        return _LADDER[level][1](left, right)

    return parse_text(text, lambda cur: ladder(cur, 0))


def _atom(cur: _Cursor, alphabet: frozenset[str], expected: str) -> Atom:
    """The atom at the cursor: ``True``, ``False`` or a name in ``alphabet``."""
    tok = cur.take()
    if tok.kind != "word":
        raise ParseError(f"unexpected {tok.text!r}", tok.pos, expected=expected)
    if tok.text not in alphabet and tok.text not in ("True", "False"):
        raise UnknownAtom(tok.text)
    return Atom(tok.text)


_PREFIX_UNARY = {cls.symbol: cls for cls in (Not, Next, Finally, Globally)}


def parse_ltlf(text: str, alphabet: set[str] | frozenset[str]) -> Formula:
    """Parse prefix-syntax LTLf text into a Formula.

    Precedence from loosest to tightest: ``|``, ``&``, ``U``, then the
    unary operators; binary operators are left associative.  Atoms
    outside ``alphabet`` raise UnknownAtom; ``True``/``False`` are always
    admitted.
    """
    alphabet = frozenset(alphabet)
    return parse_prefix(text, _PREFIX_UNARY,
                        lambda cur: _atom(cur, alphabet, "atom or '('"))


def parse_condition(cur: _Cursor, alphabet: frozenset[str]) -> Formula:
    """The infix propositional expression at the cursor, such as
    ``!a & (b | c)``; it ends before the first token that cannot extend it.

    Each operator counts as nested to the end of the condition, not just
    over its operands: ``a & b & c`` nests as ``(a & b) & c``, so only the
    total count bounds the depth of the tree a chain builds.  The count
    is restored when the condition ends.
    """
    depth = cur.depth
    cond = _infix(cur, alphabet, 0)
    cur.depth = depth
    return cond


def _infix(cur: _Cursor, alphabet: frozenset[str], level: int) -> Formula:
    """``|`` (level 0) over ``&`` (level 1), both left associative, over
    ``!``, atoms and ``( )`` (level 2)."""
    if level < 2:
        op, cls = _LADDER[level]
        left = _infix(cur, alphabet, level + 1)
        while cur.peek().text == op:
            cur.enter()
            left = cls(left, _infix(cur, alphabet, level + 1))
        return left
    tok = cur.peek()
    if tok.text == "!":
        cur.enter()
        return Not(_infix(cur, alphabet, 2))
    if tok.text == "(":
        cur.enter()
        inner = _infix(cur, alphabet, 0)
        cur.expect(")")
        cur.parens -= 1
        return inner
    return _atom(cur, alphabet, "atom, '!' or '('")


def parse_prop(text: str, alphabet: set[str] | frozenset[str]) -> Formula:
    """Parse a whole infix propositional expression such as ``!a & (b | c)``."""
    alpha = frozenset(alphabet)
    return parse_text(text, lambda cur: parse_condition(cur, alpha))


def render_prop(formula: Formula) -> str:
    """Infix text for a propositional formula, nested operators parenthesized."""
    def wrap(f: Formula) -> str:
        return f"({render_prop(f)})" if f.args else render_prop(f)

    if isinstance(formula, TEMPORAL_OPS):
        raise ValueError(f"not propositional: {formula}")
    if not formula.args:
        return formula.name
    operands = [wrap(arg) for arg in formula.args]
    if len(operands) == 1:
        return formula.symbol + operands[0]
    return f" {formula.symbol} ".join(operands)


def format_formula(formula: Formula) -> str:
    """Canonical prefix text: every operand that is not a leaf is parenthesized."""
    def wrap(f: Formula) -> str:
        return f"({format_formula(f)})" if f.args else str(f)

    if not formula.args:
        return str(formula)
    return " ".join([formula.symbol, *map(wrap, formula.args)])


# ---------------------------------------------------------------------------
# JSON export

def formula_to_json(formula: Formula) -> dict:
    """Nested dicts; an operator's ``op`` is its class name in lower case."""
    if not formula.args:
        return formula.to_json()
    operands = zip(formula.json_keys, formula.args)
    return {"op": type(formula).__name__.lower(),
            **{key: formula_to_json(arg) for key, arg in operands}}
