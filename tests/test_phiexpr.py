import dataclasses
import hashlib
import math
import pickle
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlac import EvalDomainError, ParseError, PhiFunction, UnknownIdentifier, parse
from polarlac.phiexpr import (
    BinOp,
    Call,
    EmptyExpression,
    Neg,
    Num,
    Pi,
    Var,
    serialize,
)
from conftest import EXPRESSION_CORPUS


class TestParse:
    def test_constant_right_angle(self):
        f = parse("pi/2")
        v = f.eval_with_derivative(3.0)
        assert v.phi == math.pi / 2
        assert v.dphi_dtheta == 0.0

    def test_linear(self):
        f = parse("0.01*theta + 0.3")
        v = f.eval_with_derivative(1.0)
        assert v.phi == pytest.approx(0.31, abs=1e-15)
        assert v.dphi_dtheta == 0.01

    def test_quarter_power(self):
        v = parse("theta^0.25 + 3").eval_with_derivative(16.0)
        assert v.phi == 5.0
        assert v.dphi_dtheta == 0.03125

    def test_square_root_plus_offset(self):
        v = parse("sqrt(theta) + 0.6").eval_with_derivative(4.0)
        assert v.phi == 2.6
        assert v.dphi_dtheta == 0.25

    def test_incomplete_expression_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("theta +")
        assert exc.value.offset == 7

    def test_empty_input(self):
        with pytest.raises(EmptyExpression):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse("2*tau")
        assert exc.value.name == "tau"
        assert exc.value.offset == 2

    def test_unknown_identifier_is_parse_error(self):
        with pytest.raises(ParseError):
            parse("phi")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as exc:
            parse("(1 + theta")
        assert exc.value.offset == len("(1 + theta")

    def test_nesting_too_deep_is_a_parse_error(self):
        for source in ("(" * 2000 + "theta" + ")" * 2000, " + ".join(["theta"] * 5000)):
            with pytest.raises(ParseError, match="nested too deeply") as exc:
                parse(source)
            assert exc.value.offset == 0

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc:
            parse("1 2")
        assert exc.value.offset == 2

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse("theta % 2")
        assert exc.value.offset == 6

    def test_missing_call_paren(self):
        with pytest.raises(ParseError):
            parse("sin theta")

    def test_scientific_notation(self):
        assert parse("2e-3").value(0.0) == 0.002
        assert parse("1.5E2").value(0.0) == 150.0
        assert parse(".5*theta").value(3.0) == 1.5

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            parse("1..2")

    def test_source_preserved(self):
        f = parse("sin( theta )+1")
        assert f.source == "sin( theta )+1"


class TestPrecedence:
    def test_power_over_product(self):
        assert parse("2*theta^2").value(3.0) == 18.0

    def test_power_over_unary_minus(self):
        assert parse("-2^2").value(0.0) == -4.0

    def test_negative_exponent(self):
        assert parse("2^-3").value(0.0) == 0.125

    def test_power_right_associative(self):
        assert parse("2^3^2").value(0.0) == 512.0

    def test_subtraction_left_associative(self):
        assert parse("1 - 2 - 3").value(0.0) == -4.0

    def test_division_left_associative(self):
        assert parse("8/4/2").value(0.0) == 1.0

    def test_parentheses_override(self):
        assert parse("(2*theta)^2").value(3.0) == 36.0

    def test_sum_in_call_argument(self):
        assert parse("sin(pi/2 + 0)").value(0.0) == 1.0


class TestEvaluation:
    def test_value_matches_dual_value(self):
        f = parse("exp(sin(theta)) * (theta + 2)")
        for theta in (-1.5, 0.0, 0.3, 2.0):
            assert f.value(theta) == f.eval_with_derivative(theta).phi

    def test_deterministic(self):
        f = parse("sin(theta^2) + exp(theta/3)")
        first = f.eval_with_derivative(1.2345)
        second = f.eval_with_derivative(1.2345)
        assert first.phi == second.phi
        assert first.dphi_dtheta == second.dphi_dtheta

    def test_ln_of_zero(self):
        with pytest.raises(EvalDomainError):
            parse("ln(theta)").value(0.0)

    def test_ln_of_negative(self):
        with pytest.raises(EvalDomainError):
            parse("ln(theta)").eval_with_derivative(-1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalDomainError):
            parse("sqrt(theta)").value(-0.5)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            parse("1/(theta - 1)").eval_with_derivative(1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            parse("theta^-1").value(0.0)

    def test_negative_base_integer_exponent(self):
        assert parse("theta^3").value(-2.0) == -8.0
        v = parse("theta^3").eval_with_derivative(-2.0)
        assert v.dphi_dtheta == 12.0

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvalDomainError):
            parse("theta^0.5").value(-2.0)

    def test_exp_overflow(self):
        with pytest.raises(EvalDomainError):
            parse("exp(theta)").value(1000.0)

    def test_error_names_offending_node(self):
        with pytest.raises(EvalDomainError) as exc:
            parse("1 + ln(theta - 5)").value(2.0)
        assert "ln(theta - 5.0)" in str(exc.value)
        assert isinstance(exc.value.node, Call)

    def test_sqrt_at_zero_value_but_no_derivative(self):
        f = parse("sqrt(theta)")
        assert f.value(0.0) == 0.0
        with pytest.raises(EvalDomainError):
            f.eval_with_derivative(0.0)

    def test_fractional_power_at_zero_no_derivative(self):
        f = parse("theta^0.25")
        assert f.value(0.0) == 0.0
        with pytest.raises(EvalDomainError):
            f.eval_with_derivative(0.0)

    def test_integer_power_at_zero_has_derivative(self):
        assert parse("theta^2").eval_with_derivative(0.0).dphi_dtheta == 0.0
        assert parse("theta^1").eval_with_derivative(0.0).dphi_dtheta == 1.0

    def test_derived_quotient_rule(self):
        # d/dtheta of theta/(theta+1) at 1 is 1/(theta+1)^2 = 1/4
        v = parse("theta/(theta + 1)").eval_with_derivative(1.0)
        assert v.dphi_dtheta == pytest.approx(0.25, rel=1e-15)

    def test_derived_exponential_base(self):
        # d/dtheta of 2^theta is ln(2) 2^theta
        v = parse("2^theta").eval_with_derivative(3.0)
        assert v.dphi_dtheta == pytest.approx(math.log(2.0) * 8.0, rel=1e-15)

    def test_derived_self_power(self):
        # d/dtheta of theta^theta is theta^theta (ln theta + 1)
        v = parse("theta^theta").eval_with_derivative(3.0)
        assert v.phi == pytest.approx(27.0, rel=1e-15)
        assert v.dphi_dtheta == pytest.approx(27.0 * (math.log(3.0) + 1.0), rel=1e-15)

    def test_pickle_round_trip(self):
        f = parse("sqrt(theta) + pi/8")
        again = pickle.loads(pickle.dumps(f))
        assert again == f
        assert again.eval_with_derivative(2.0) == f.eval_with_derivative(2.0)

    def test_phi_function_is_immutable(self):
        f = parse("pi/2")
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.source = "pi"


class TestRecords:
    """The tree nodes and PhiFunction behave as the frozen dataclasses they
    replaced: same constructors, repr, equality, hashing and pickling."""

    NODES = [Num(1.5), Var(), Pi(), Neg(Var()), BinOp("+", Var(), Pi()), Call("sin", Num(2.0))]

    def test_repr_of_a_tree(self):
        assert repr(parse("-sqrt(theta)^2 + pi/8").ast) == (
            "BinOp(op='+', left=Neg(operand=BinOp(op='^', left=Call(fn='sqrt', arg=Var()), "
            "right=Num(value=2.0))), right=BinOp(op='/', left=Pi(), right=Num(value=8.0)))"
        )

    def test_repr_of_a_phi_function_leaves_out_the_generated_code(self):
        assert repr(parse("pi/8")) == "PhiFunction(source='pi/8', ast=BinOp(op='/', left=Pi(), right=Num(value=8.0)))"

    def test_equality_includes_the_class(self):
        assert Var() != Pi()
        assert Var() == Var()
        assert Num(1.0) == Num(1.0)
        assert hash(Num(1.0)) == hash(Num(1.0))
        assert Num(1.0) != Num(2.0)
        assert Num(1.0) != (1.0,)

    def test_keyword_construction(self):
        node = BinOp(op="+", left=Var(), right=Num(value=1.0))
        assert node == parse("theta + 1").ast
        f = PhiFunction(source="theta + 1", ast=node)
        assert f == parse("theta + 1")
        assert f.eval_with_derivative(2.0) == (3.0, 1.0)

    def test_wrong_arguments_are_refused(self):
        with pytest.raises(TypeError):
            Num()
        with pytest.raises(TypeError):
            Num(1.0, value=1.0)
        with pytest.raises(TypeError):
            Call("sin", arg=Var(), fn="cos")
        with pytest.raises(TypeError):
            Var(1.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_node_pickles(self, protocol):
        for node in self.NODES:
            again = pickle.loads(pickle.dumps(node, protocol))
            assert type(again) is type(node)
            assert again == node

    def test_deleting_a_field_is_refused(self):
        f = parse("pi/2")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del f.source
        node = Num(1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.value
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.value = 2.0
        assert node == Num(1.0)


# points where evaluation fails, or where a constant subtree decides the
# result: domain edges, a constant that cannot be evaluated, signed zeros
EDGE_POINTS = [
    ("sqrt(theta)", 0.0),
    ("ln(theta)", 0.0),
    ("theta^-1", 0.0),
    ("ln(0) + theta", 1.0),
    ("-pi", 0.0),
    ("-(pi/8)*theta", -1.0),
    ("1e999", 0.0),
    ("sin(1e999) + theta", 0.0),
    ("(0 - 2)^1e999", 0.0),
    ("sqrt(0)*theta", 2.0),
    ("0^0.5 + theta^0.5", 0.0),
]

# sha256 of every value, derivative and error message below, recorded with
# the tree-walking evaluator this package used before phi was compiled
EVALUATION_FINGERPRINT = "287c03aa2ce3dc4237168a48edc2aa27ff16b430067c5bdffb890ea64970a2a5"


def _evaluation_record() -> str:
    cases = [(s, [lo + i * (hi - lo) / 16 for i in range(17)]) for s, lo, hi in EXPRESSION_CORPUS]
    cases += [(s, [theta]) for s, theta in EDGE_POINTS]
    lines = []
    for source, thetas in cases:
        f = parse(source)
        for theta in thetas:
            for name, evaluate in (("value", f.value), ("dual", f.eval_with_derivative)):
                try:
                    out = evaluate(theta)
                except (ArithmeticError, ValueError) as exc:
                    text = f"{type(exc).__name__}: {exc}"
                else:
                    text = out.hex() if name == "value" else f"{out.phi.hex()} {out.dphi_dtheta.hex()}"
                lines.append(f"{source} @ {theta.hex()} {name}: {text}")
    return "\n".join(lines)


def test_evaluation_is_bit_for_bit_stable():
    record = _evaluation_record()
    assert hashlib.sha256(record.encode()).hexdigest() == EVALUATION_FINGERPRINT, record


def test_constant_domain_error_raised_at_evaluation():
    f = parse("ln(0) + theta")
    for evaluate in (f.value, f.eval_with_derivative):
        with pytest.raises(EvalDomainError) as exc:
            evaluate(1.0)
        assert str(exc.value) == "ln of nonpositive in 'ln(0.0)'"


@pytest.mark.parametrize("source,lo,hi", EXPRESSION_CORPUS, ids=[c[0] for c in EXPRESSION_CORPUS])
def test_derivative_matches_central_difference(source, lo, hi):
    f = parse(source)
    rng = random.Random(zlib.crc32(source.encode()))
    for _ in range(100):
        theta = rng.uniform(lo, hi)
        h = 1e-6 * max(1.0, abs(theta))
        if theta - h < lo or theta + h > hi:
            continue
        exact = f.eval_with_derivative(theta).dphi_dtheta
        fd = (f.value(theta + h) - f.value(theta - h)) / (2.0 * h)
        assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact)), (
            f"{source} at theta={theta}: exact {exact} vs fd {fd}"
        )


@pytest.mark.parametrize("source,lo,hi", EXPRESSION_CORPUS, ids=[c[0] for c in EXPRESSION_CORPUS])
def test_corpus_round_trip(source, lo, hi):
    f = parse(source)
    again = parse(f.serialize())
    assert again.ast == f.ast
    theta = 0.5 * (lo + hi)
    assert again.eval_with_derivative(theta) == f.eval_with_derivative(theta)


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        st.just(Var()),
        st.just(Pi()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp,
                st.sampled_from(["+", "-", "*", "/", "^"]),
                children,
                children,
            ),
            st.builds(Call, st.sampled_from(["sqrt", "sin", "cos", "exp", "ln"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@given(_ast_strategy())
@settings(max_examples=200, deadline=None)
def test_serializer_output_always_reparses(ast):
    text = serialize(ast)
    assert parse(text).ast == ast
