"""Parser and evaluator for tangential-angle expressions phi = f(theta).

The grammar is plain infix arithmetic over the single variable ``theta``:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'theta' | 'pi' | FUNC '(' expr ')' | '(' expr ')'

so ``^`` binds tighter than unary minus and is right-associative, with
``sqrt``, ``sin``, ``cos``, ``exp`` and ``ln`` as the function set.  Every
expression evaluates jointly with its exact first derivative by propagating
(value, derivative) pairs through the tree; no finite differences are
involved.  The tree is compiled into closures once, when it is parsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

FUNCTIONS = ("sqrt", "sin", "cos", "exp", "ln")


class ParseError(ValueError):
    """Syntax problem in an expression, with the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EmptyExpression(ParseError):
    def __init__(self):
        super().__init__("empty expression", 0)


class UnknownIdentifier(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class EvalDomainError(ArithmeticError):
    """Evaluation left the real domain (ln of nonpositive, sqrt of negative,
    division by zero, zero to a negative power, unbounded derivative)."""

    def __init__(self, message: str, node: "Node"):
        super().__init__(f"{message} in '{serialize(node)}'")
        self.node = node


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str  # one of FUNCTIONS
    arg: "Node"


Node = Num | Var | Pi | Neg | BinOp | Call


class PhiValue(NamedTuple):
    phi: float
    dphi_dtheta: float


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        self._scan()

    def _scan(self):
        src = self.source
        i = 0
        n = len(src)
        while i < n:
            c = src[i]
            if c in " \t\r\n":
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append(("op", c, i))
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
                j = i
                while j < n and (src[j].isdigit() or src[j] == "."):
                    j += 1
                if j < n and src[j] in "eE":
                    k = j + 1
                    if k < n and src[k] in "+-":
                        k += 1
                    if k < n and src[k].isdigit():
                        j = k
                        while j < n and src[j].isdigit():
                            j += 1
                text = src[i:j]
                try:
                    float(text)
                except ValueError:
                    raise ParseError(f"bad number literal '{text}'", i)
                self.tokens.append(("num", text, i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("ident", src[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character '{c}'", i)
        self.tokens.append(("end", "", n))


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _Tokenizer(source).tokens
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, off = self.peek()
        if kind == "op" and text == symbol:
            self.advance()
            return
        raise ParseError(f"expected '{symbol}'", off)

    def parse(self) -> Node:
        kind, _, _ = self.peek()
        if kind == "end":
            raise EmptyExpression()
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{text}'", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "theta":
                return Var()
            if text == "pi":
                return Pi()
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifier(text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value" if kind == "end" else f"unexpected '{text}'", off)


# serializer precedence levels; higher binds tighter
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op == "^":
            return _LEVEL_POW
        if node.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_ADD
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _wrap(node: Node, minimum: int) -> str:
    text = serialize(node)
    if _level(node) < minimum:
        return f"({text})"
    return text


def serialize(node: Node) -> str:
    """Render the tree so that re-parsing yields a structurally identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "theta"
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _LEVEL_UNARY)
    if isinstance(node, Call):
        return f"{node.fn}({serialize(node.arg)})"
    if node.op in "+-":
        left = _wrap(node.left, _LEVEL_ADD)
        right = _wrap(node.right, _LEVEL_ADD + 1)
        return f"{left} {node.op} {right}"
    if node.op in "*/":
        left = _wrap(node.left, _LEVEL_MUL)
        right = _wrap(node.right, _LEVEL_MUL + 1)
        return f"{left}{node.op}{right}"
    # power: base must be an atom, exponent anything unary or tighter
    left = _wrap(node.left, _LEVEL_ATOM)
    right = _wrap(node.right, _LEVEL_UNARY)
    return f"{left}^{right}"


def _check_finite(value: float, node: Node, what: str = "value") -> float:
    if not math.isfinite(value):
        raise EvalDomainError(f"non-finite {what}", node)
    return value


# Evaluation rules, one per operator and function.  A value rule takes the
# operand values; a dual rule takes (value, derivative) of each operand and
# returns the pair for the node.  ``node`` is only used to name it in errors.


def _div_value(l: float, r: float, node: Node) -> float:
    if r == 0:
        raise EvalDomainError("division by zero", node)
    return _check_finite(l / r, node)


def _pow_value(base: float, exponent: float, node: Node) -> float:
    if base > 0:
        try:
            return _check_finite(base ** exponent, node)
        except OverflowError:
            raise EvalDomainError("power overflow", node) from None
    if base == 0:
        if exponent < 0:
            raise EvalDomainError("zero to a negative power", node)
        return 1.0 if exponent == 0 else 0.0
    # negative base needs an integer exponent to stay real
    if exponent != math.floor(exponent) or not math.isfinite(exponent):
        raise EvalDomainError("negative base with non-integer exponent", node)
    try:
        return _check_finite(base ** exponent, node)
    except OverflowError:
        raise EvalDomainError("power overflow", node) from None


def _sqrt_value(a: float, node: Node) -> float:
    if a < 0:
        raise EvalDomainError("sqrt of negative", node)
    return math.sqrt(a)


def _ln_value(a: float, node: Node) -> float:
    if a <= 0:
        raise EvalDomainError("ln of nonpositive", node)
    return math.log(a)


def _exp_value(a: float, node: Node) -> float:
    try:
        return _check_finite(math.exp(a), node)
    except OverflowError:
        raise EvalDomainError("exp overflow", node) from None


_BINARY_VALUE = {
    "+": lambda l, r, node: _check_finite(l + r, node),
    "-": lambda l, r, node: _check_finite(l - r, node),
    "*": lambda l, r, node: _check_finite(l * r, node),
    "/": _div_value,
    "^": _pow_value,
}

_CALL_VALUE = {
    "sqrt": _sqrt_value,
    "ln": _ln_value,
    "exp": _exp_value,
    "sin": lambda a, node: math.sin(a),
    "cos": lambda a, node: math.cos(a),
}


def _mul_dual(lv: float, ld: float, rv: float, rd: float, node: Node) -> tuple[float, float]:
    return _check_finite(lv * rv, node), _check_finite(ld * rv + lv * rd, node, "derivative")


def _div_dual(lv: float, ld: float, rv: float, rd: float, node: Node) -> tuple[float, float]:
    v = _div_value(lv, rv, node)
    return v, _check_finite((ld - v * rd) / rv, node, "derivative")


def _pow_dual(bv: float, bd: float, ev: float, ed: float, node: Node) -> tuple[float, float]:
    v = _pow_value(bv, ev, node)
    if bv > 0:
        d = v * (ed * math.log(bv) + ev * bd / bv)
        return v, _check_finite(d, node, "derivative")
    if bv == 0:
        # d/dtheta of u^c is c u^(c-1) u', which stays finite at u = 0
        # only for c = 0, c >= 1, or a locally stationary base
        if ed != 0:
            raise EvalDomainError("derivative of power with zero base and varying exponent", node)
        if ev == 0:
            return v, 0.0
        if ev >= 1:
            return v, bd if ev == 1 else 0.0
        if bd == 0:
            return v, 0.0
        raise EvalDomainError("unbounded derivative of fractional power at zero", node)
    # negative base, integer constant exponent
    if ed != 0:
        raise EvalDomainError("derivative of power with negative base and varying exponent", node)
    d = ev * _pow_value(bv, ev - 1, node) * bd
    return v, _check_finite(d, node, "derivative")


def _sqrt_dual(av: float, ad: float, node: Node) -> tuple[float, float]:
    v = _sqrt_value(av, node)
    if av == 0:
        if ad == 0:
            return 0.0, 0.0
        raise EvalDomainError("unbounded derivative of sqrt at zero", node)
    return v, ad / (2.0 * v)


def _ln_dual(av: float, ad: float, node: Node) -> tuple[float, float]:
    return _ln_value(av, node), ad / av


def _exp_dual(av: float, ad: float, node: Node) -> tuple[float, float]:
    v = _exp_value(av, node)
    return v, _check_finite(v * ad, node, "derivative")


_BINARY_DUAL = {
    "+": lambda lv, ld, rv, rd, node: (_check_finite(lv + rv, node), ld + rd),
    "-": lambda lv, ld, rv, rd, node: (_check_finite(lv - rv, node), ld - rd),
    "*": _mul_dual,
    "/": _div_dual,
    "^": _pow_dual,
}

_CALL_DUAL = {
    "sqrt": _sqrt_dual,
    "ln": _ln_dual,
    "exp": _exp_dual,
    "sin": lambda av, ad, node: (math.sin(av), math.cos(av) * ad),
    "cos": lambda av, ad, node: (math.cos(av), -math.sin(av) * ad),
}


# The tree is compiled once into closures that apply the rules above:
# ``_compile_value`` builds theta -> phi and ``_compile_dual`` builds
# theta -> (phi, dphi/dtheta).  Operands are evaluated left to right, so a
# closure fails at the same node, with the same error, as evaluating the
# tree node by node would.


def _folded(node: Node, fn: Callable):
    """``fn``, or a constant function when ``node`` does not depend on theta
    and evaluates without error; an error is left for evaluation to raise."""
    if depends_on_theta(node):
        return fn
    try:
        result = fn(0.0)
    except (ArithmeticError, ValueError):
        return fn
    return lambda theta: result


def _compile_value(node: Node) -> Callable[[float], float]:
    if isinstance(node, Num):
        fn = lambda theta: node.value
    elif isinstance(node, Var):
        fn = lambda theta: theta
    elif isinstance(node, Pi):
        fn = lambda theta: math.pi
    elif isinstance(node, Neg):
        operand = _compile_value(node.operand)
        fn = lambda theta: -operand(theta)
    elif isinstance(node, Call):
        arg = _compile_value(node.arg)
        rule = _CALL_VALUE[node.fn]
        fn = lambda theta: rule(arg(theta), node)
    else:
        left = _compile_value(node.left)
        right = _compile_value(node.right)
        rule = _BINARY_VALUE[node.op]
        fn = lambda theta: rule(left(theta), right(theta), node)
    return _folded(node, fn)


def _compile_dual(node: Node) -> Callable[[float], tuple[float, float]]:
    if isinstance(node, Num):
        fn = lambda theta: (node.value, 0.0)
    elif isinstance(node, Var):
        fn = lambda theta: (theta, 1.0)
    elif isinstance(node, Pi):
        fn = lambda theta: (math.pi, 0.0)
    elif isinstance(node, Neg):
        operand = _compile_dual(node.operand)

        def fn(theta: float) -> tuple[float, float]:
            v, d = operand(theta)
            return -v, -d
    elif isinstance(node, Call):
        arg = _compile_dual(node.arg)
        call_rule = _CALL_DUAL[node.fn]

        def fn(theta: float) -> tuple[float, float]:
            av, ad = arg(theta)
            return call_rule(av, ad, node)
    else:
        left = _compile_dual(node.left)
        right = _compile_dual(node.right)
        binary_rule = _BINARY_DUAL[node.op]

        def fn(theta: float) -> tuple[float, float]:
            lv, ld = left(theta)
            rv, rd = right(theta)
            return binary_rule(lv, ld, rv, rd, node)
    return _folded(node, fn)


@dataclass(frozen=True)
class PhiFunction:
    """A parsed phi(theta) expression, immutable and safe to share.

    ``value`` evaluates phi alone and succeeds anywhere the expression is
    real-valued.  ``eval_with_derivative`` additionally propagates the exact
    first derivative and therefore also rejects points where the derivative
    is unbounded (for example sqrt(theta) at zero).  Both run closures
    compiled from the tree once, at construction.
    """

    source: str
    ast: Node
    _value: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _dual: Callable[[float], tuple[float, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_value", _compile_value(self.ast))
        object.__setattr__(self, "_dual", _compile_dual(self.ast))

    def __reduce__(self):
        # closures do not pickle; unpickling compiles the tree again
        return PhiFunction, (self.source, self.ast)

    def value(self, theta: float) -> float:
        return self._value(theta)

    def eval_with_derivative(self, theta: float) -> PhiValue:
        v, d = self._dual(theta)
        if not (math.isfinite(v) and math.isfinite(d)):
            _check_finite(v, self.ast)
            _check_finite(d, self.ast, "derivative")
        return PhiValue(v, d)

    def serialize(self) -> str:
        return serialize(self.ast)

    def __str__(self) -> str:
        return self.source


def parse(source: str) -> PhiFunction:
    """Parse an expression over ``theta`` into a PhiFunction, compiling it
    for evaluation with its theta-free subexpressions folded to constants.

    Raises ParseError (with a character offset), UnknownIdentifier, or
    EmptyExpression.  An expression nested deeper than the interpreter's
    recursion limit allows to parse and compile is a ParseError at offset 0.
    """
    try:
        return PhiFunction(source, _Parser(source).parse())
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


def depends_on_theta(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return depends_on_theta(node.operand)
    if isinstance(node, BinOp):
        return depends_on_theta(node.left) or depends_on_theta(node.right)
    if isinstance(node, Call):
        return depends_on_theta(node.arg)
    return False
