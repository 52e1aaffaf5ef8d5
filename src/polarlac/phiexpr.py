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
involved.  When an expression is parsed, one rule table (``_RULES``) gives
each node a value statement and a derivative statement, and the tree becomes
two straight-line Python functions: one runs the value statements, the other
both.  Subtrees free of ``theta`` are evaluated while the code is generated.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from ._record import Record

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


class Num(Record):
    __slots__ = _fields = ("value",)


class Var(Record):
    __slots__ = ()


class Pi(Record):
    __slots__ = ()


class Neg(Record):
    __slots__ = _fields = ("operand",)


class BinOp(Record):
    __slots__ = _fields = ("op", "left", "right")  # op is one of + - * / ^


class Call(Record):
    __slots__ = _fields = ("fn", "arg")  # fn is one of FUNCTIONS


Node = Num | Var | Pi | Neg | BinOp | Call


class PhiValue(NamedTuple):
    phi: float
    dphi_dtheta: float


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
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


def _layout(node: Node) -> tuple[int, list]:
    """The node's precedence level and its text, in which each child appears
    as (child, the lowest level it may have without parentheses)."""
    if isinstance(node, Num):
        return _LEVEL_ATOM, [repr(node.value)]
    if isinstance(node, Var):
        return _LEVEL_ATOM, ["theta"]
    if isinstance(node, Pi):
        return _LEVEL_ATOM, ["pi"]
    if isinstance(node, Neg):
        return _LEVEL_UNARY, ["-", (node.operand, _LEVEL_UNARY)]
    if isinstance(node, Call):
        return _LEVEL_ATOM, [f"{node.fn}(", (node.arg, 0), ")"]
    if node.op in "+-":
        return _LEVEL_ADD, [(node.left, _LEVEL_ADD), f" {node.op} ", (node.right, _LEVEL_ADD + 1)]
    if node.op in "*/":
        return _LEVEL_MUL, [(node.left, _LEVEL_MUL), node.op, (node.right, _LEVEL_MUL + 1)]
    # power: base must be an atom, exponent anything unary or tighter
    return _LEVEL_POW, [(node.left, _LEVEL_ATOM), "^", (node.right, _LEVEL_UNARY)]


def serialize(node: Node) -> str:
    """Render the tree so that re-parsing yields a structurally identical tree.

    Pending pieces wait on a list, not on the call stack, so a tree of any
    depth renders: error messages name nodes at any depth."""
    out: list[str] = []
    pending: list = [(node, 0)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        child, minimum = item
        level, parts = _layout(child)
        if level < minimum:
            parts = ["(", *parts, ")"]
        pending.extend(reversed(parts))
    return "".join(out)


def _check_finite(value: float, node: Node, what: str = "value") -> float:
    if not math.isfinite(value):
        raise EvalDomainError(f"non-finite {what}", node)
    return value


# The helpers below are called by the generated code; ``node`` only names
# the node in errors.
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


def _pow_derivative(v: float, bv: float, bd: float, ev: float, ed: float, node: Node) -> float:
    if bv > 0:
        return _check_finite(v * (ed * math.log(bv) + ev * bd / bv), node, "derivative")
    if bv == 0:
        # d/dtheta of u^c is c u^(c-1) u', which stays finite at u = 0
        # only for c = 0, c >= 1, or a locally stationary base
        if ed != 0:
            raise EvalDomainError("derivative of power with zero base and varying exponent", node)
        if ev == 0:
            return 0.0
        if ev >= 1:
            return bd if ev == 1 else 0.0
        if bd == 0:
            return 0.0
        raise EvalDomainError("unbounded derivative of fractional power at zero", node)
    # negative base, integer constant exponent
    if ed != 0:
        raise EvalDomainError("derivative of power with negative base and varying exponent", node)
    return _check_finite(ev * _pow_value(bv, ev - 1, node) * bd, node, "derivative")


def _sqrt_dual(v: float, av: float, ad: float, node: Node) -> tuple[float, float]:
    # where the derivative exists at zero, the value is +0.0, even for -0.0
    if av == 0:
        if ad == 0:
            return 0.0, 0.0
        raise EvalDomainError("unbounded derivative of sqrt at zero", node)
    return v, ad / (2.0 * v)


_HELPERS = {
    f.__name__: f
    for f in (_check_finite, _div_value, _pow_value, _pow_derivative, _sqrt_value, _sqrt_dual,
              _ln_value, _exp_value, math.isfinite, math.sin, math.cos)
}


def _finite(target: str, expression: str, what: str = "value") -> str:
    # a statement that sets target and tests it inline: the call to
    # _check_finite, which raises the error, runs only for a non-finite result
    check = f"if not isfinite({target}):\n    _check_finite({target}, {{n}}, '{what}')"
    return f"{target} = {expression}\n{check}"


# Evaluation rules, one per operator and function: the statement that sets
# the node's value {v}, and the statement that sets its derivative {d} after
# it.  {a} and {ad} are the operand's value and derivative; {l}, {ld}, {r}
# and {rd} those of the left and right operands; {n} is the node.
_RULES = {
    "neg": ("{v} = -{a}", "{d} = -{ad}"),
    "+": (_finite("{v}", "{l} + {r}"), "{d} = {ld} + {rd}"),
    "-": (_finite("{v}", "{l} - {r}"), "{d} = {ld} - {rd}"),
    "*": (_finite("{v}", "{l} * {r}"), _finite("{d}", "{ld} * {r} + {l} * {rd}", "derivative")),
    "/": ("{v} = _div_value({l}, {r}, {n})", _finite("{d}", "({ld} - {v} * {rd}) / {r}", "derivative")),
    "^": ("{v} = _pow_value({l}, {r}, {n})", "{d} = _pow_derivative({v}, {l}, {ld}, {r}, {rd}, {n})"),
    "sqrt": ("{v} = _sqrt_value({a}, {n})", "{v}, {d} = _sqrt_dual({v}, {a}, {ad}, {n})"),
    "ln": ("{v} = _ln_value({a}, {n})", "{d} = {ad} / {a}"),
    "exp": ("{v} = _exp_value({a}, {n})", _finite("{d}", "{v} * {ad}", "derivative")),
    "sin": ("{v} = sin({a})", "{d} = cos({a}) * {ad}"),
    "cos": ("{v} = cos({a})", "{d} = -sin({a}) * {ad}"),
}


def _constant(names: dict, value) -> str:
    name = f"c{len(names)}"
    names[name] = value
    return name


def _emit(node: Node, dual: bool, names: dict, lines: list[str]) -> tuple[str, str]:
    """Append the statements that evaluate ``node`` to ``lines`` and return
    the expressions holding its value and derivative.

    Operands come left to right before the node, so the code fails at the
    same node, with the same error, as a walk of the tree would.  Numbers,
    nodes and folded results enter ``names`` as constants, never as source
    text.  A node whose operands are all constants is evaluated once, here:
    its result becomes a constant, or, if it raises, its statements stay.
    """
    if isinstance(node, Var):
        return "theta", "1.0"
    if isinstance(node, (Num, Pi)):
        return _constant(names, math.pi if isinstance(node, Pi) else node.value), "0.0"
    if isinstance(node, Neg):
        rule, operands, keys = "neg", (node.operand,), ("a",)
    elif isinstance(node, Call):
        rule, operands, keys = node.fn, (node.arg,), ("a",)
    else:
        rule, operands, keys = node.op, (node.left, node.right), ("l", "r")
    i = len(names)
    fields = {"n": f"n{i}", "v": f"v{i}", "d": f"d{i}"}
    names[fields["n"]] = node
    # a loop, not a comprehension, so that emitting takes one frame per level
    for key, operand in zip(keys, operands):
        fields[key], fields[key + "d"] = _emit(operand, dual, names, lines)
    statements = [template.format(**fields) for template in _RULES[rule][: 1 + dual]]
    if all(fields[key] in names for key in keys):
        scope: dict = {}
        try:
            exec("\n".join(statements), names, scope)
        except (ArithmeticError, ValueError):
            pass
        else:
            value = _constant(names, scope[fields["v"]])
            return value, _constant(names, scope[fields["d"]]) if dual else "0.0"
    lines.extend(statements)
    return fields["v"], fields["d"]


def _generate(ast: Node, dual: bool) -> Callable:
    """Compile ``ast`` into one straight-line function: theta -> phi, or
    theta -> (phi, dphi/dtheta) when ``dual``."""
    names = dict(_HELPERS)
    lines: list[str] = []
    v, d = _emit(ast, dual, names, lines)
    lines.append(f"return {v}, {d}" if dual else f"return {v}")
    # a statement may span lines; each line is indented into the body
    body = "\n".join(lines).replace("\n", "\n    ")
    source = f"def phi(theta):\n    {body}\n"
    exec(compile(source, "<phi>", "exec"), names)
    return names["phi"]


class PhiFunction(Record):
    """A parsed phi(theta) expression, immutable and safe to share.

    ``value`` evaluates phi alone and succeeds anywhere the expression is
    real-valued.  ``eval_with_derivative`` additionally propagates the exact
    first derivative and therefore also rejects points where the derivative
    is unbounded (for example sqrt(theta) at zero).  Both run straight-line
    code generated from the tree once, at construction.
    """

    _fields = ("source", "ast")
    __slots__ = _fields + ("_value", "_dual")

    def __init__(self, source: str, ast: Node):
        super().__init__(source, ast)
        object.__setattr__(self, "_value", _generate(ast, dual=False))
        object.__setattr__(self, "_dual", _generate(ast, dual=True))

    def value(self, theta: float) -> float:
        return self._value(theta)

    def eval_with_derivative(self, theta: float) -> PhiValue:
        v, d = self._dual(theta)
        if not (math.isfinite(v) and math.isfinite(d)):
            _check_finite(v, self.ast)
            _check_finite(d, self.ast, "derivative")
        # tuple.__new__ skips the named tuple's Python-level __new__
        return tuple.__new__(PhiValue, (v, d))

    def serialize(self) -> str:
        return serialize(self.ast)

    def __str__(self) -> str:
        return self.source


def parse(source: str) -> PhiFunction:
    """Parse an expression over ``theta`` into a PhiFunction, generating its
    two evaluators with every theta-free subexpression that evaluates without
    error folded to a constant.

    Raises ParseError (with a character offset), UnknownIdentifier, or
    EmptyExpression.  An expression nested deeper than the interpreter's
    recursion limit allows to parse and generate is a ParseError at offset 0.
    Evaluation itself does not recurse, whatever the depth.
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
