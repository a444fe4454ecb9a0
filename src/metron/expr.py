"""Closed-form scalar expressions over chart coordinates x1..x9.

Immutable expression trees with exact symbolic partial derivatives, a
recursive-descent parser for the small coefficient grammar, a walker
that evaluates one tree at one point and names the subtree that leaves
the real domain, an evaluator that runs the union DAG of a nested
array of trees as numpy operations over many points at once and returns
the array's shape per point (transport integration, grid residuals,
curvature), and `taylor`, which runs that DAG
once on truncated multivariate Taylor series at one point (the exact
partial derivatives up to a degree, with no derivative tree built;
Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13). Every
algorithm over a tree runs over one iterative post-order walk
(_topo_order), so a tree of any depth, such as a sum of thousands of
terms, needs no recursion.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | ident | '(' expr ')' | func '(' expr ')' | '-' base
    func   := 'exp' | 'log' | 'sin' | 'cos' | 'sqrt'
    ident  := 'x1' .. 'x9'

Numbers are decimal literals, optionally with a fractional part and an
exponent (2, 0.5, 1e-3), and must be finite. Unary minus binds at the
base level, so "-x1^2" parses as (-x1)^2. Parentheses, unary minus and
'^' operands nest at most MAX_NESTING deep.

Nodes are immutable plain classes whose repr goes through `to_string`,
so that printing a tree of any depth needs no recursion either. They
are hash-consed: structurally identical subtrees are the same Python
object. Construction goes only through the factory functions below
(const, var, add, ...), which also fold constants and drop algebraic
no-ops so that derivative trees stay small; a fold whose value would
not be finite keeps its node, so that evaluation names the subtree.
Memoised evaluation and differentiation then cost one visit per
distinct node, which keeps the large rational trees produced by
symbolic matrix inversion tractable. A fact that follows from the
operands is computed once, when the factory builds the node, and lives
on it (Filliatre & Conchon, Type-Safe Modular Hash-Consing, 2006):
every node carries the bitmask of the coordinates its subtree mentions,
so `variables` reads the roots' masks and walks nothing.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ScalarExpression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "FUNCTIONS",
    "ExpressionError",
    "ParseError",
    "UnknownIdentifierError",
    "ArityError",
    "DomainError",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "func",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
    "Evaluator",
    "TaylorBasis",
    "taylor_basis",
    "taylor",
    "variables",
    "beyond",
    "contains",
    "ZERO",
    "ONE",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
MAX_VARIABLES = 9
# the parser recurses at most 7 frames per level, far inside the default limit
MAX_NESTING = 50


class ExpressionError(Exception):
    """Base class for expression failures."""


class ParseError(ExpressionError):
    """Syntax error with the source offset where it was found."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier that is neither x1..x9 nor a known function."""


class ArityError(ParseError):
    """Function name used without an argument list."""


class DomainError(ExpressionError):
    """Evaluation left the real domain of some subexpression.

    Carries the offending subtree so callers can report which factor
    divided by zero or took log of a negative number.
    """

    def __init__(self, message: str, node=None, point=None):
        self.node = node
        self.point = None if point is None else tuple(point)
        where = f" in '{to_string(node)}'" if node is not None else ""
        at = f" at {self.point}" if point is not None else ""
        super().__init__(message + where + at)


# ---------------------------------------------------------------------------
# AST nodes (construct only through the factory functions)
# ---------------------------------------------------------------------------


class ScalarExpression:
    """Base node type. Identity comparison is structural equality (hash-consing),
    and nodes hash by identity, so a dict keyed by node is a memo. `mask`
    has bit i set when the subtree mentions x_{i+1}; the factory that
    builds a node sets it from its operands' masks. A node is shared by
    every tree in the process, so its fields cannot be set or deleted.

    + - * / and unary minus between nodes call the factories, so numpy
    object arrays of nodes compute as matrices of expressions; any other
    operand is refused (node + 1.0 is a TypeError)."""

    __slots__ = ("mask",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an expression node")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an expression node")

    def __repr__(self):
        return f"{type(self).__name__}({to_string(self)})"

    def __add__(self, other):
        return add(self, other) if isinstance(other, ScalarExpression) else NotImplemented

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, ScalarExpression) else NotImplemented

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, ScalarExpression) else NotImplemented

    def __truediv__(self, other):
        return div(self, other) if isinstance(other, ScalarExpression) else NotImplemented

    def __neg__(self):
        return neg(self)


class Const(ScalarExpression):
    __slots__ = ("value",)

    def __init__(self, mask: int, value: float):
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "value", value)


class Var(ScalarExpression):
    __slots__ = ("index",)

    def __init__(self, mask: int, index: int):
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "index", index)  # 1-based: x1 .. x9


class Unary(ScalarExpression):
    __slots__ = ("op", "arg")

    def __init__(self, mask: int, op: str, arg: ScalarExpression):
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "op", op)  # 'neg' or a function name
        object.__setattr__(self, "arg", arg)


class Binary(ScalarExpression):
    __slots__ = ("op", "left", "right")

    def __init__(self, mask: int, op: str, left: ScalarExpression, right: ScalarExpression):
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "op", op)  # '+', '-', '*', '/', '^'
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


_INTERN: dict = {}


def _intern(key, cls, *fields):
    """The node cls(*fields) under key, built the first time key is seen."""
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = cls(*fields)
    return node


def const(value: float) -> Const:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{v} constant is not a valid expression")
    if v == 0.0:
        v = 0.0  # canonicalise -0.0
    return _intern(("c", v), Const, 0, v)


ZERO = const(0.0)
ONE = const(1.0)


def var(index: int) -> Var:
    if not 1 <= index <= MAX_VARIABLES:
        raise ValueError(f"coordinate index must be 1..{MAX_VARIABLES}, got {index}")
    return _intern(("v", index), Var, 1 << (index - 1), index)


def neg(a: ScalarExpression) -> ScalarExpression:
    if type(a) is Const:
        return const(-a.value)
    if type(a) is Unary and a.op == "neg":
        return a.arg
    return _intern(("u", "neg", id(a)), Unary, a.mask, "neg", a)


def add(a: ScalarExpression, b: ScalarExpression) -> ScalarExpression:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and math.isfinite(v := a.value + b.value):
        return const(v)
    if ca and a.value == 0.0:
        return b
    if cb and b.value == 0.0:
        return a
    return _intern(("b", "+", id(a), id(b)), Binary, a.mask | b.mask, "+", a, b)


def sub(a: ScalarExpression, b: ScalarExpression) -> ScalarExpression:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and math.isfinite(v := a.value - b.value):
        return const(v)
    if cb and b.value == 0.0:
        return a
    if ca and a.value == 0.0:
        return neg(b)
    if a is b:
        return ZERO
    return _intern(("b", "-", id(a), id(b)), Binary, a.mask | b.mask, "-", a, b)


def mul(a: ScalarExpression, b: ScalarExpression) -> ScalarExpression:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and math.isfinite(v := a.value * b.value):
        return const(v)
    va = a.value if ca else None
    vb = b.value if cb else None
    if va == 0.0 or vb == 0.0:
        return ZERO
    if va == 1.0:
        return b
    if vb == 1.0:
        return a
    if va == -1.0:
        return neg(b)
    if vb == -1.0:
        return neg(a)
    return _intern(("b", "*", id(a), id(b)), Binary, a.mask | b.mask, "*", a, b)


def div(a: ScalarExpression, b: ScalarExpression) -> ScalarExpression:
    ca, cb = type(a) is Const, type(b) is Const
    vb = b.value if cb else None
    if vb == 1.0:
        return a
    if vb == -1.0:
        return neg(a)
    if ca and a.value == 0.0:
        # Drops a potential pole of the denominator; fine for the
        # derivative algebra this factory exists for.
        return ZERO
    if ca and cb and vb != 0.0 and math.isfinite(v := a.value / vb):
        return const(v)
    if a is b:
        return ONE
    return _intern(("b", "/", id(a), id(b)), Binary, a.mask | b.mask, "/", a, b)


def pow_(a: ScalarExpression, b: ScalarExpression) -> ScalarExpression:
    ca, cb = type(a) is Const, type(b) is Const
    vb = b.value if cb else None
    if vb == 1.0:
        return a
    if vb == 0.0:
        return ONE
    if ca and a.value == 1.0:
        return ONE
    if ca and cb:
        try:
            v = a.value ** vb
        except (ValueError, OverflowError, ZeroDivisionError):
            v = None
        if v is not None and isinstance(v, float) and math.isfinite(v):
            return const(v)
    return _intern(("b", "^", id(a), id(b)), Binary, a.mask | b.mask, "^", a, b)


def func(name: str, a: ScalarExpression) -> ScalarExpression:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if type(a) is Const:
        try:
            v = getattr(math, name)(a.value)
        except (ValueError, OverflowError):
            v = None
        if v is not None and math.isfinite(v):
            return const(v)
        # keep the node so evaluation reports the domain error
    return _intern(("u", name, id(a)), Unary, a.mask, name, a)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_NUM_START = set("0123456789.")
_COORDINATES = {f"x{i}": i for i in range(1, MAX_VARIABLES + 1)}


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _NUM_START:
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i)
            if math.isinf(value):
                raise ParseError(f"number {text!r} overflows", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", None, n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def _nested(self, parse, offset: int):
        """parse() one level deeper; a ParseError at offset past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> ScalarExpression:
        e = self._expr()
        tok = self._peek()
        if tok[0] != "eof":
            raise ParseError("unexpected trailing input", tok[2])
        return e

    def _expr(self):
        e = self._term()
        while self._peek()[0] in ("+", "-"):
            op = self._advance()[0]
            rhs = self._term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def _term(self):
        e = self._factor()
        while self._peek()[0] in ("*", "/"):
            op = self._advance()[0]
            rhs = self._factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def _factor(self):
        base = self._base()
        if self._peek()[0] == "^":
            offset = self._advance()[2]
            return pow_(base, self._nested(self._factor, offset))
        return base

    def _base(self):
        kind, value, offset = self._peek()
        if kind == "num":
            self._advance()
            return const(value)
        if kind == "-":
            self._advance()
            return neg(self._nested(self._base, offset))
        if kind == "(":
            self._advance()
            e = self._nested(self._expr, offset)
            if self._peek()[0] != ")":
                raise ParseError("expected ')'", self._peek()[2])
            self._advance()
            return e
        if kind == "ident":
            self._advance()
            if value in FUNCTIONS:
                if self._peek()[0] != "(":
                    raise ArityError(f"function {value!r} needs an argument list", offset)
                return func(value, self._base())  # the '(' expr ')' branch
            if value in _COORDINATES:
                return var(_COORDINATES[value])
            raise UnknownIdentifierError(f"unknown identifier {value!r}", offset)
        raise ParseError("expected a number, coordinate, function or '('", offset)


def parse(source: str) -> ScalarExpression:
    """Parse UTF-8 text in the coefficient grammar into an expression tree."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# The one walk over the DAG
# ---------------------------------------------------------------------------


def _topo_order(roots, known=()) -> list:
    """Distinct nodes of the union DAG of roots in recursive post-order
    (children first, left subtree before right), leaving out the nodes in
    known and nodes reachable only through them. Every algorithm below
    runs over this list, so no depth reaches the recursion limit."""
    order, seen = [], set()
    stack = list(roots)
    pop, emit = stack.pop, order.append
    while stack:
        node = pop()
        if node is None:  # marks that the node below has its children in order
            emit(pop())
            continue
        if node in seen or node in known:
            continue
        seen.add(node)
        kind = type(node)
        if kind is Binary:
            stack += (node, None, node.right, node.left)
        elif kind is Unary:
            stack += (node, None, node.arg)
        else:
            emit(node)
    return order


def contains(root: ScalarExpression, node: ScalarExpression) -> bool:
    """Whether node is a subtree of root (nodes are hash-consed)."""
    return node in _topo_order((root,))


def variables(*roots: ScalarExpression) -> set[int]:
    """Set of coordinate indices (1-based) that the expressions mention,
    read from the roots' masks."""
    mask = 0
    for root in roots:
        mask |= root.mask
    return {i + 1 for i in range(MAX_VARIABLES) if mask >> i & 1}


def beyond(e: ScalarExpression, dim: int) -> int:
    """The lowest coordinate index (1-based) above dim that e mentions,
    read from its mask; 0 when e stays within x1..x_dim."""
    high = e.mask >> dim
    return dim + (high & -high).bit_length() if high else 0


# ---------------------------------------------------------------------------
# Evaluation at one point (per-call memo; reports the offending subtree)
# ---------------------------------------------------------------------------


def _check_finite(v: float, node, point):
    if not math.isfinite(v):
        raise DomainError("non-finite value", node, point)
    return v


def evaluate(e: ScalarExpression, point) -> float:
    """Evaluate at a coordinate point (sequence indexed x1 -> point[0]).

    Raises DomainError naming the offending subtree for division by
    zero, log/sqrt outside their domains, fractional powers of negative
    numbers, and overflow.
    """
    memo: dict = {}
    _evaluate(_topo_order((e,)), point, memo)
    return memo[e]


def _evaluate(order, point, memo: dict):
    """Evaluate the nodes of a post-order walk into memo, which holds
    their operands; the first node that leaves its domain raises."""
    for node in order:
        kind = type(node)
        if kind is Const:
            v = node.value
        elif kind is Var:
            if node.index > len(point):
                raise DomainError(
                    f"point has {len(point)} coordinates, expression uses x{node.index}",
                    node,
                    point,
                )
            v = _check_finite(float(point[node.index - 1]), node, point)
        elif kind is Unary:
            a = memo[node.arg]
            if node.op == "neg":
                v = -a
            elif node.op == "log":
                if a <= 0.0:
                    raise DomainError("log of a non-positive number", node, point)
                v = math.log(a)
            elif node.op == "sqrt":
                if a < 0.0:
                    raise DomainError("sqrt of a negative number", node, point)
                v = math.sqrt(a)
            else:  # exp, sin, cos
                try:
                    v = _check_finite(getattr(math, node.op)(a), node, point)
                except OverflowError:
                    raise DomainError("overflow", node, point) from None
        else:
            a, b = memo[node.left], memo[node.right]
            op = node.op
            if op == "+":
                v = a + b
            elif op == "-":
                v = a - b
            elif op == "*":
                v = a * b
            elif op == "/":
                if b == 0.0:
                    raise DomainError("division by zero", node, point)
                v = a / b
            else:  # '^'
                if a == 0.0 and b < 0.0:
                    raise DomainError("zero raised to a negative power", node, point)
                if a < 0.0 and b != math.floor(b):
                    raise DomainError(
                        "negative number raised to a fractional power", node, point
                    )
                try:
                    v = a ** b
                except OverflowError:
                    raise DomainError("overflow", node, point) from None
            v = _check_finite(v, node, point)
        memo[node] = v


# ---------------------------------------------------------------------------
# Differentiation (structural rules, memoised per construction)
# ---------------------------------------------------------------------------

def differentiate(e: ScalarExpression, i: int) -> ScalarExpression:
    """Exact symbolic partial derivative with respect to x_i (1-based)."""
    return _differentiate(e, i, {})


def _differentiate(e: ScalarExpression, i: int, memos: dict) -> ScalarExpression:
    """differentiate(e, i), reading and filling memos[i] (node -> its
    derivative along x_i): calls that share memos differentiate a subtree
    they share once. The caller owns memos, so no derivative outlives
    the construction that asked for it."""
    if not 1 <= i <= MAX_VARIABLES:
        raise ValueError(f"coordinate index must be 1..{MAX_VARIABLES}, got {i}")
    memo = memos.setdefault(i, {})
    for node in _topo_order((e,), memo):
        kind = type(node)
        if kind is Const:
            d = ZERO
        elif kind is Var:
            d = ONE if node.index == i else ZERO
        elif kind is Unary:
            a = node.arg
            da = memo[a]
            if node.op == "neg":
                d = neg(da)
            elif node.op == "exp":
                d = mul(node, da)
            elif node.op == "log":
                d = div(da, a)
            elif node.op == "sin":
                d = mul(func("cos", a), da)
            elif node.op == "cos":
                d = neg(mul(func("sin", a), da))
            else:  # sqrt
                d = div(da, mul(const(2.0), node))
        else:
            a, b = node.left, node.right
            da, db = memo[a], memo[b]
            if node.op == "+":
                d = add(da, db)
            elif node.op == "-":
                d = sub(da, db)
            elif node.op == "*":
                d = add(mul(da, b), mul(a, db))
            elif node.op == "/":
                d = div(sub(mul(da, b), mul(a, db)), mul(b, b))
            elif type(b) is Const:  # '^'
                d = mul(mul(b, pow_(a, const(b.value - 1.0))), da)
            else:
                # f^g = exp(g log f); valid where f > 0
                d = mul(node, add(mul(db, func("log", a)), mul(b, div(da, a))))
        memo[node] = d
    return memo[e]


# ---------------------------------------------------------------------------
# Printing (emits text that reparses to an equivalent expression)
# ---------------------------------------------------------------------------

# precedence: 1 additive, 2 multiplicative, 3 power, 4 base/atom


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: ScalarExpression) -> str:
    memo: dict = {}  # node -> (text, precedence)
    for node in _topo_order((e,)):
        kind = type(node)
        if kind is Const:
            if node.value < 0:
                memo[node] = ("-" + _fmt_const(-node.value), 4)
            else:
                memo[node] = (_fmt_const(node.value), 4)
        elif kind is Var:
            memo[node] = (f"x{node.index}", 4)
        elif kind is Unary:
            text, prec = memo[node.arg]
            if node.op == "neg":
                # '-' binds at base level; parenthesise non-atoms
                inner = text if prec >= 4 else f"({text})"
                memo[node] = ("-" + inner, 4)
            else:
                memo[node] = (f"{node.op}({text})", 4)
        else:
            lt, lp = memo[node.left]
            rt, rp = memo[node.right]
            op = node.op
            if op in ("+", "-"):
                left = lt if lp >= 1 else f"({lt})"
                right = rt if rp >= 2 else f"({rt})"  # right operand must be a term
                memo[node] = (f"{left} {op} {right}", 1)
            elif op in ("*", "/"):
                left = lt if lp >= 2 else f"({lt})"
                right = rt if rp >= 3 else f"({rt})"  # right operand must be a factor
                memo[node] = (f"{left}{op}{right}", 2)
            else:  # '^': base must be a base, exponent a factor (right assoc)
                left = lt if lp >= 4 else f"({lt})"
                right = rt if rp >= 3 else f"({rt})"
                memo[node] = (f"{left}^{right}", 3)
    return memo[e][0]


# ---------------------------------------------------------------------------
# Numpy evaluation of many expressions over many points
# ---------------------------------------------------------------------------

_UNARY_UFUNCS = {"neg": np.negative, **{name: getattr(np, name) for name in FUNCTIONS}}
_BINARY_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}


class Evaluator:
    """Evaluate an array of expressions at many points with one numpy
    operation per distinct node of their union DAG.

    Evaluator(entries)(x), with entries a nested sequence or an object
    array of expressions of any depth and shape s, and x of shape (..., m),
    returns an array of shape (...,) + s; a ragged nesting raises
    ValueError. Subtrees that entries share are computed once, and each
    temporary is dropped after its last use, so the arrays alive at once
    stay at the width of the DAG rather than its size. Nothing is cached
    across evaluators: the owner of an evaluator decides how long its
    step list lives.

    Domain failures, intermediate values included, raise DomainError:
    the points are walked again in C order with evaluate(), which names
    the first subtree and point that leave the real domain.
    """

    __slots__ = ("roots", "shape", "_init", "_vars", "_steps", "_outputs")

    def __init__(self, entries):
        array = np.array(entries, dtype=object)
        if not all(isinstance(e, ScalarExpression) for e in array.flat):
            raise ValueError("entries must be a rectangular array of expressions")
        self.roots, self.shape = tuple(array.flat), array.shape
        order = _topo_order(self.roots)
        slot = {node: k for k, node in enumerate(order)}
        init: list = [None] * len(order)
        coords, steps, last_use = [], [], {}
        for k, node in enumerate(order):
            kind = type(node)
            if kind is Const:
                init[k] = np.float64(node.value)
            elif kind is Var:
                coords.append((k, node.index - 1))
            elif kind is Unary:
                a = slot[node.arg]
                last_use[a] = len(steps)
                steps.append((_UNARY_UFUNCS[node.op], k, a, None))
            else:
                a, b = slot[node.left], slot[node.right]
                last_use[a] = last_use[b] = len(steps)
                steps.append((_BINARY_UFUNCS[node.op], k, a, b))
        outputs = tuple(slot[root] for root in self.roots)
        for k in outputs:
            last_use.pop(k, None)
        dead_after: list[list[int]] = [[] for _ in steps]
        for k, n in last_use.items():
            dead_after[n].append(k)
        self._init = init
        self._vars = tuple(coords)
        self._steps = tuple(step + (tuple(dead),) for step, dead in zip(steps, dead_after))
        self._outputs = outputs

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, x.shape[-1])
        vals = list(self._init)
        for k, i in self._vars:
            vals[k] = points[:, i]
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                for fn, k, a, b, dead in self._steps:
                    vals[k] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
                    for d in dead:
                        vals[d] = None
        except FloatingPointError as err:
            self._locate(points, str(err))
        out = np.empty((len(points), len(self._outputs)))
        for j, k in enumerate(self._outputs):
            out[:, j] = vals[k]
        return out.reshape(x.shape[:-1] + self.shape)

    def _locate(self, points: np.ndarray, message: str):
        order = _topo_order(self.roots)
        for point in points.tolist():
            _evaluate(order, point, {})
        raise DomainError(message) from None


# ---------------------------------------------------------------------------
# Truncated Taylor series at one point
# ---------------------------------------------------------------------------


class TaylorBasis:
    """The monomials x^a of total degree <= degree in m coordinates, in
    graded order: 1, then x1 .. xm, then x1^2, x1 x2, ..., so the
    coefficients up to a lower degree are a prefix. A series is an array
    whose first axis runs over the basis (or a longer one); the
    coefficient of x^a is d^a f / a! at the expansion point."""

    def __init__(self, m: int, degree: int):
        monomials = []
        for d in range(degree + 1):
            for combo in itertools.combinations_with_replacement(range(m), d):
                monomials.append(tuple(combo.count(i) for i in range(m)))
        index = {a: k for k, a in enumerate(monomials)}
        prefix = [math.comb(m + d, d) for d in range(degree + 1)]
        pairs = sorted(
            (index[tuple(p + q for p, q in zip(a, b))], i, j)
            for i, a in enumerate(monomials)
            for j, b in enumerate(monomials[: prefix[degree - sum(a)]])
        )
        target, self._left, self._right = np.array(pairs, dtype=np.intp).T
        self.degree, self.size = degree, len(monomials)
        self.monomials = tuple(monomials)
        self._starts = np.searchsorted(target, np.arange(self.size))
        lower = monomials[: prefix[degree - 1]] if degree else []
        raised = [[tuple(e + (i == l) for i, e in enumerate(a)) for a in lower] for l in range(m)]
        self._dsource = np.array([[index[a] for a in row] for row in raised], dtype=np.intp)
        self._dfactor = np.array([[a[l] + 1.0 for a in lower] for l in range(m)])

    def product(self, a, b, multiply=np.multiply) -> np.ndarray:
        """Truncated Cauchy product of two series; `multiply` combines
        coefficients (np.matmul for matrix-valued series)."""
        return np.add.reduceat(multiply(a[self._left], b[self._right]), self._starts, axis=0)

    def derivatives(self, c) -> np.ndarray:
        """The partial derivatives of a series along every coordinate,
        one degree lower, stacked on a new first axis: (m, lower size, ...)."""
        factor = self._dfactor.reshape(self._dfactor.shape + (1,) * (c.ndim - 1))
        return c[self._dsource] * factor

    def variable(self, i: int, value: float) -> np.ndarray:
        """The series of coordinate x_{i+1} at a point where it is value."""
        s = np.zeros(self.size)
        s[0] = value
        if self.degree:
            s[1 + i] = 1.0
        return s

    def outside(self, mask: int) -> np.ndarray:
        """Positions of the monomials that mention a coordinate outside
        the bitmask (bit i for x_{i+1})."""
        return np.flatnonzero(
            [any(e and not mask >> i & 1 for i, e in enumerate(a)) for a in self.monomials]
        )


@lru_cache(maxsize=None)
def taylor_basis(m: int, degree: int) -> TaylorBasis:
    """The shared basis of degree `degree` in m coordinates."""
    return TaylorBasis(m, degree)


def _compose(basis: TaylorBasis, a: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] (a - a_0)^k by Horner: a function with Taylor
    coefficients coeffs at a_0, applied to the series a."""
    h = a.copy()
    h[0] = 0.0
    s = coeffs[-1] * h
    for c in coeffs[-2:0:-1]:
        s[0] = c
        s = basis.product(h, s)
    s[0] = coeffs[0]
    return s


def _power_coeffs(x, p, value, degree: int) -> list:
    """Taylor coefficients of t^p at t = x: binom(p, k) x^(p - k), exactly 0
    once the binomial is (p a whole number below k)."""
    coeffs, binom = [value], 1.0
    for k in range(1, degree + 1):
        binom *= (p - k + 1) / k
        coeffs.append(binom * x ** (p - k) if binom else 0.0)
    return coeffs


def _function_coeffs(op: str, x, value, degree: int) -> list:
    """Taylor coefficients at t = x of the function `op` (of 1/t for
    '/'), value being its value there; exp reads only value."""
    if op == "exp":
        return [value / math.factorial(k) for k in range(degree + 1)]
    if op == "log":
        return [value] + [(-1.0) ** (k + 1) / (k * x**k) for k in range(1, degree + 1)]
    if op == "/":
        return [(-1.0) ** k / x ** (k + 1) for k in range(degree + 1)]
    if op == "sqrt":
        return _power_coeffs(x, 0.5, value, degree)
    s, c = np.sin(x), np.cos(x)
    cycle = (s, c, -s, -c) if op == "sin" else (c, -s, -c, s)
    return [value] + [cycle[k % 4] / math.factorial(k) for k in range(1, degree + 1)]


def _series(basis: TaylorBasis, node, value: float, a, b, x: float) -> np.ndarray:
    """The series of one node from its operands' series a and b (a float
    for an operand that mentions no coordinate); x is a's value."""
    op = node.op
    if op == "neg":
        return -a
    if op in ("+", "-"):
        if type(a) is float:  # a constant moves the constant term only
            s = -b if op == "-" else b.copy()
        elif type(b) is float:
            s = a.copy()
        else:
            return a + b if op == "+" else a - b
        s[0] = value
        return s
    if op == "*":
        return a * b if type(a) is float or type(b) is float else basis.product(a, b)
    degree, x = basis.degree, np.float64(x)  # numpy scalars obey np.errstate
    if op == "/":
        if type(b) is float:
            return a / b
        inverse = _compose(basis, b, _function_coeffs("/", b[0], None, degree))
        s = a * inverse if type(a) is float else basis.product(a, inverse)
        s[0] = value
        return s
    if op == "^":
        if type(b) is float:
            return _compose(basis, a, _power_coeffs(x, b, value, degree))
        # f^g = exp(g log f); log f is NaN where f <= 0
        if type(a) is float:
            exponent = np.log(x) * b
        else:
            log = _compose(basis, a, _function_coeffs("log", x, np.log(x), degree))
            exponent = basis.product(log, b)
        return _compose(basis, exponent, _function_coeffs("exp", None, np.float64(value), degree))
    return _compose(basis, a, _function_coeffs(op, x, np.float64(value), degree))


def taylor(roots, point, degree: int) -> tuple[np.ndarray, list]:
    """The Taylor coefficients of total degree <= degree of each root at
    point, an array (taylor_basis(len(point), degree).size, len(roots)),
    and the list of the roots' origins (below).

    One walk over the union DAG of roots in truncated series
    arithmetic: sums termwise, products as truncated Cauchy products,
    and each quotient, power and function as that function's own Taylor
    series at the operand's value, composed with the operand's
    non-constant part. The values are evaluate()'s, so a root that
    leaves its domain at point raises its DomainError. A derivative that
    does not exist at point (sqrt at 0) leaves inf or NaN in the
    coefficients that need it. The origin of such a root is the first
    subtree of it, in post-order, whose own series was not finite from
    finite operands; it is None for a root that holds no such subtree.
    A coefficient along a coordinate that a subtree does not mention is
    exactly 0.
    """
    point = tuple(float(v) for v in point)
    order = _topo_order(roots)
    values: dict = {}
    _evaluate(order, point, values)
    basis = taylor_basis(len(point), degree)
    series: dict = {}
    origin: dict = {}  # node whose series is not finite -> the subtree that made it so
    with np.errstate(all="raise", under="ignore"):
        for node in order:
            kind = type(node)
            if kind is Const:
                series[node] = node.value
                continue
            if kind is Var:
                series[node] = basis.variable(node.index - 1, values[node])
                continue
            operands = (node.arg,) if kind is Unary else (node.left, node.right)
            args = (series[operands[0]], series[operands[-1]], values[operands[0]])
            try:
                s = _series(basis, node, values[node], *args)
                cause = None
            except FloatingPointError:  # an inf or NaN coefficient
                with np.errstate(all="ignore"):
                    s = _series(basis, node, values[node], *args)
                cause = node
            if origin:
                cause = next((origin[a] for a in operands if a in origin), cause)
            if cause is not None:
                # inf * 0 is NaN: restore the exact zeros of unmentioned coordinates
                origin[node] = cause
                s[basis.outside(node.mask)] = 0.0
            series[node] = s
    out = np.zeros((basis.size, len(roots)))
    for j, root in enumerate(roots):
        if root.mask:
            out[:, j] = series[root]
        else:
            out[0, j] = series[root]
    return out, [origin.get(root) for root in roots]
