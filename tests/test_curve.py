import dataclasses
import decimal
import math
import pickle
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlac import (
    CurveParams,
    DomainExceeded,
    arc_and_rho,
    arc_length,
    lcg_closed_form,
    parse,
    radius_at,
    sample,
    validate,
)
from polarlac import curve
from polarlac.phiexpr import EvalDomainError
from conftest import ROW_MODEL_CASES, params, point, row_model_case


class TestCurveParams:
    def test_rejects_zero_n(self):
        with pytest.raises(curve.InvalidParameters, match="n"):
            params(0.0)

    def test_rejects_zero_a(self):
        with pytest.raises(curve.InvalidParameters, match="a"):
            params(1.0, a=0.0)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(curve.InvalidParameters, match="b"):
            params(1.0, b=0.0)
        with pytest.raises(curve.InvalidParameters, match="b"):
            params(1.0, b=-1.0)

    def test_rejects_empty_range(self):
        with pytest.raises(curve.InvalidParameters, match="theta1"):
            params(1.0, theta0=2.0, theta1=2.0)
        with pytest.raises(curve.InvalidParameters, match="theta1"):
            params(1.0, theta0=2.0, theta1=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(curve.InvalidParameters):
            params(math.nan)
        with pytest.raises(curve.InvalidParameters):
            params(1.0, theta1=math.inf)
        # both ends are finite, their difference is not: the grid would be
        # [nan, inf, 1e308], and cos(inf) would raise past the row guard
        with pytest.raises(curve.InvalidParameters, match="theta1 - theta0"):
            params(1.0, theta0=-1e308, theta1=1e308)

    def test_rejects_phi_unevaluable_at_start(self):
        with pytest.raises(curve.InvalidParameters, match="phi"):
            params(1.0, phi="ln(theta)")  # theta0 = 0

    def test_phi0_cached(self):
        p = params(1.0, phi="0.01*theta + 0.3", theta0=2.0)
        assert p.phi0 == p.phi.value(2.0)

    def test_immutable(self):
        p = params(1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n = 2.0

    def test_deleting_a_field_is_refused(self):
        p = params(1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.n
        assert p.n == 1.0

    def test_keyword_construction(self):
        phi = parse("pi/4")
        p = CurveParams(n=2.0, a=1.0, b=1.0, theta0=0.0, theta1=3.0, phi=phi)
        assert p == CurveParams(2.0, 1.0, 1.0, 0.0, 3.0, phi)
        assert hash(p) == hash(CurveParams(2.0, 1.0, 1.0, 0.0, 3.0, parse("pi/4")))
        assert p != CurveParams(2.0, 1.0, 1.0, 0.0, 4.0, phi)

    def test_repr_leaves_out_what_is_derived(self):
        p = CurveParams(n=2.0, a=1.0, b=1.0, theta0=0.0, theta1=3.0, phi=parse("pi/4"))
        assert repr(p) == (
            "CurveParams(n=2.0, a=1.0, b=1.0, theta0=0.0, theta1=3.0, "
            "phi=PhiFunction(source='pi/4', ast=BinOp(op='/', left=Pi(), right=Num(value=4.0))))"
        )


class TestArcLength:
    def test_exponential_family_unit_turn(self, fig4):
        assert arc_length(fig4, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_exponential_family_linear_phi(self, fig5):
        # u = theta + 0.01*theta at theta=1
        assert arc_length(fig5, 1.0) == pytest.approx(math.exp(1.01) - 1.0, rel=1e-14)

    def test_reciprocal_family(self, fig7):
        # n=-1 reduces to sqrt(2*theta + 1) - 1
        assert arc_length(fig7, 4.0) == 2.0

    def test_zero_at_start(self, fig4, fig5, fig7):
        for p in (fig4, fig5, fig7):
            assert arc_length(p, p.theta0) == 0.0

    def test_zero_at_start_with_infinite_slope(self):
        # f' blows up at theta0 but the value-only path is enough for L=0
        p = params(2.0, theta1=5.0, phi="sqrt(theta) + 0.6")
        assert arc_length(p, 0.0) == 0.0

    def test_domain_exceeded(self, fig7):
        with pytest.raises(DomainExceeded) as exc:
            arc_length(fig7, -0.6)
        assert exc.value.theta == -0.6
        assert exc.value.theta_max == pytest.approx(-0.5, abs=1e-9)

    def test_domain_boundary_interior(self):
        # n=0.5 makes the power base 1 - u, which hits zero at u = 1
        p = params(0.5, theta1=2.0)
        assert arc_length(p, 0.99) > 0.0
        with pytest.raises(DomainExceeded) as exc:
            arc_length(p, 1.5)
        assert exc.value.theta_max == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n,theta1,theta", [(-1.0, 15.0, -0.6), (0.5, 2.0, 1.5)])
    def test_domain_boundary_bisected_once_on_first_read(self, monkeypatch, n, theta1, theta):
        p = params(n, theta1=theta1)
        bisect = curve._domain_boundary
        eager = bisect(p, theta)
        calls = []

        def counting(q, theta_bad):
            calls.append(theta_bad)
            return bisect(q, theta_bad)

        monkeypatch.setattr(curve, "_domain_boundary", counting)
        with pytest.raises(DomainExceeded) as exc:
            arc_length(p, theta)
        assert calls == []
        assert str(exc.value) == (
            f"curve domain exceeded at theta={theta!r}; largest valid theta is {eager!r}"
        )
        assert exc.value.theta_max == eager
        assert calls == [theta]
        copy = pickle.loads(pickle.dumps(exc.value))
        assert (copy.theta, copy.theta_max, str(copy)) == (theta, eager, str(exc.value))


class TestRadiusOfCurvature:
    # rho from the closed form against the law itself, (a*L + b)^(1/n), of
    # the L the closed form gives with it
    def test_linear_law(self, fig4):
        L, rho = arc_and_rho(fig4, 1.0)
        assert L == pytest.approx(math.e - 1.0, rel=1e-15)
        assert rho == pytest.approx(math.e, rel=1e-15)
        assert rho == pytest.approx(_ref_rho(fig4, L), rel=1e-15)

    def test_reciprocal_law(self, fig7):
        L, rho = arc_and_rho(fig7, 4.0)
        assert L == pytest.approx(2.0, rel=1e-15)
        assert rho == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rho == pytest.approx(_ref_rho(fig7, L), rel=1e-15)

    def test_square_law_intercept(self):
        p = params(2.0, b=4.0)
        assert arc_and_rho(p, 0.0) == (0.0, 2.0) == (0.0, _ref_rho(p, 0.0))

    def test_nonpositive_argument(self, fig7):
        # at n = -1, x = 2u reaches -1 at theta = -0.5, where L = -1 and
        # a*L + b = 0: the curve ends there
        assert _ref_rho(fig7, -1.0) is None
        with pytest.raises(DomainExceeded):
            arc_and_rho(fig7, -0.5)


class TestRadiusAt:
    def test_unit_start(self, fig4):
        assert radius_at(fig4, 0.0) == 1.0

    def test_inward_spiral(self, fig7):
        assert radius_at(fig7, 4.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_linear_phi_start(self, fig5):
        assert radius_at(fig5, 0.0) == pytest.approx(1.01 * math.sin(0.3), rel=1e-15)

    def test_propagates_domain_error(self, fig7):
        with pytest.raises(DomainExceeded):
            radius_at(fig7, -0.6)


class TestSample:
    def test_start_row(self, fig4):
        rows = sample(fig4, 2)
        assert rows[0].theta == 0.0
        assert rows[0].L == 0.0
        assert rows[0].R == 1.0

    def test_endpoints_exact(self, fig5):
        rows = sample(fig5, 7)
        assert rows[0].theta == fig5.theta0
        assert rows[-1].theta == fig5.theta1

    def test_all_in_domain(self, fig7):
        rows = sample(fig7, 4)
        assert all(r.valid.in_domain for r in rows)

    def test_trailing_rows_flagged(self):
        p = params(-1.0, a=-1.0, theta1=5.0)
        rows = sample(p, 6)
        assert [r.valid.in_domain for r in rows] == [True] + [False] * 5

    def test_invalid_rows_carry_nan(self):
        p = params(-1.0, a=-1.0, theta1=5.0)
        bad = sample(p, 6)[-1]
        assert bad.theta == 5.0
        for name in ("L", "R", "rho", "phi", "dphi", "beta", "x", "y"):
            assert math.isnan(getattr(bad, name))
        assert bad.valid is curve.FLAGGED
        # the conditions validate() reads from a row do not hold on NaN
        assert not bad.rho > 0.0
        assert not bad.R > 0.0

    def test_interior_domain_boundary(self):
        p = params(0.5, theta1=2.0)
        rows = sample(p, 5)
        assert [r.valid.in_domain for r in rows] == [True, True, False, False, False]

    def test_flagged_rows_skip_the_boundary_bisection(self, monkeypatch):
        # nobody reads theta_max of a flagged row, so it is never bisected
        calls = []
        bisect = curve._domain_boundary

        def counting(q, theta_bad):
            calls.append(theta_bad)
            return bisect(q, theta_bad)

        monkeypatch.setattr(curve, "_domain_boundary", counting)
        p = params(2.0, a=-1.0, theta1=5.0, phi="pi/8")
        rows = sample(p, 64)
        assert sum(not r.valid.in_domain for r in rows) > 30
        assert calls == []

    def test_overflowing_rho_flagged(self):
        # rho = b^(1/n) = (1e300)^2 overflows at theta0; theta1 is past the domain
        p = params(0.5, b=1e300, theta1=1.0, phi="theta")
        assert [r.valid.in_domain for r in sample(p, 2)] == [False, False]

    def test_overflowing_arc_length_flagged(self):
        # L = expm1(2 theta) overflows once 2 theta passes about 709.8
        p = params(1.0, theta1=400.0, phi="theta")
        assert [r.valid.in_domain for r in sample(p, 5)] == [True, True, True, True, False]

    def test_a_grid_whose_steps_overflow_keeps_every_theta_finite(self):
        # the span is finite, but 2 * 1e308 on the way to the third grid
        # theta is not; that row takes 2 * (1e308/3) instead, and is flagged
        # because its L overflows
        p = params(1.0, theta1=1e308)
        rows = sample(p, 4)
        assert [r.theta for r in rows] == [0.0, 1e308 / 3, 2 * (1e308 / 3), 1e308]
        assert [r.valid.in_domain for r in rows] == [True, False, False, False]

    def test_an_R_that_overflows_flags_the_row(self):
        # rho is about 8.5e307 and 1 + f' = -1999 at theta0, so R overflows
        # while rho does not; radius_at raises where sample flags
        p = params(1.000000000001, a=1e-30, b=8.5e307, theta0=-1000.0, theta1=1.0, phi="theta^2")
        row = sample(p, 9)[0]
        assert not row.valid.in_domain and math.isnan(row.R)
        assert math.isfinite(curve.arc_and_rho(p, -1000.0)[1])
        with pytest.raises(OverflowError, match="^R is not finite$"):
            radius_at(p, -1000.0)

    def test_cartesian_identities(self, fig5):
        for r in sample(fig5, 33):
            assert r.x == r.R * math.cos(r.theta)
            assert r.y == r.R * math.sin(r.theta)
            assert r.beta == r.theta + r.phi

    def test_count_too_small(self, fig4):
        with pytest.raises(ValueError):
            sample(fig4, 1)

    def test_row_errors_cover_every_library_error(self):
        # a row flags on any of them, and the CLI maps each to an exit code
        from polarlac import diffgeo, lcg, phiexpr, svgplot

        classes = [
            curve.DomainExceeded, curve.InvalidParameters, phiexpr.ParseError,
            phiexpr.EvalDomainError, diffgeo.DegeneratePoint, diffgeo.ToleranceNotMet, diffgeo.OdeBlowUp,
            lcg.TooFewPoints, lcg.DegenerateFit, svgplot.NothingToPlot, OverflowError, ZeroDivisionError,
        ]
        assert all(issubclass(cls, curve.ROW_ERRORS) for cls in classes)
        assert not issubclass(TypeError, curve.ROW_ERRORS)


class TestValidate:
    def test_all_conditions_hold(self, fig4):
        report = validate(fig4)
        assert report.all_hold()
        assert report.in_domain.holds
        assert report.sin_phi_positive.holds
        assert report.in_domain.first_violation is None

    def test_sin_phi_sign_change(self):
        # f = 0.2*theta + pi/24 crosses pi at theta = (pi - pi/24)/0.2 ~ 15.053
        p = params(1.0, theta1=16.0, phi="0.2*theta + pi/24")
        report = validate(p)
        assert not report.sin_phi_positive.holds
        crossing = (math.pi - math.pi / 24.0) / 0.2
        spacing = 16.0 / 1023.0
        assert crossing <= report.sin_phi_positive.first_violation <= crossing + spacing
        assert report.monotone_factor_positive.holds

    def test_constant_phi_monotone_factor(self, fig7):
        assert validate(fig7).monotone_factor_positive.holds

    def test_out_of_domain_reported(self):
        p = params(0.5, theta1=2.0)
        report = validate(p)
        assert not report.in_domain.holds
        assert report.in_domain.first_violation == pytest.approx(1.0, abs=2.0 / 1023.0)
        assert not report.all_hold()


ODE_CONSISTENCY_CONFIGS = [
    (1.0, "pi/2", 15.0),
    (1.0, "0.01*theta + 0.3", 15.0),
    (-1.0, "pi/2", 15.0),
    (2.0, "pi/8", 5.0),
    (-2.0, "sqrt(theta) + 0.6", 5.0),
]


@pytest.mark.parametrize("n,phi,theta1", ODE_CONSISTENCY_CONFIGS)
def test_closed_form_satisfies_arc_length_ode(n, phi, theta1):
    # dL/dtheta must equal (aL+b)^(1/n) * (1 + f'(theta)) at interior points
    p = params(n, theta1=theta1, phi=phi)
    span = p.theta1 - p.theta0
    for i in range(1, 255):
        theta = p.theta0 + i * span / 255.0
        h = 1e-6 * max(1.0, abs(theta))
        fd = (arc_length(p, theta + h) - arc_length(p, theta - h)) / (2.0 * h)
        L = arc_length(p, theta)
        pv = p.phi.eval_with_derivative(theta)
        rhs = (p.a * L + p.b) ** (1.0 / p.n) * (1.0 + pv.dphi_dtheta)
        assert abs(fd - rhs) <= 1e-6 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n,phi,theta1", ODE_CONSISTENCY_CONFIGS + [(0.5, "pi/2", 0.9)])
def test_curvature_law_identity(n, phi, theta1):
    # rho^n - (a L + b) vanishes to round-off for every evaluable sample
    p = params(n, theta1=theta1, phi=phi)
    eps = 2.0 ** -52
    for r in sample(p, 257):
        if not r.valid.in_domain:
            continue
        g = p.a * r.L + p.b
        slack = 8.0 * eps * abs(g) * max(1.0, abs(p.n * math.log(r.rho)))
        assert abs(r.rho ** p.n - g) <= slack


class TestClassSeam:
    def test_continuity_at_moderate_turn(self, fig4):
        # at theta=5 the family seam costs about eps*u^2/2 = 1.25e-5
        L1 = arc_length(fig4, 5.0)
        for eps in (1e-6, -1e-6):
            near = params(1.0 + eps)
            assert abs(arc_length(near, 5.0) - L1) / L1 <= 1e-4

    def test_measured_gap_at_full_turn(self, fig4):
        # the same seam at theta=15 is |eps|*u^2/2 = 112.5*|eps|: pin the
        # law's own magnitude there, down to an n within 1e-12 of 1, which
        # is solved as its own n; acceptance criterion 5 checks it exactly
        L1 = arc_length(fig4, 15.0)
        for eps in (1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12):
            near = params(1.0 + eps)
            gap = abs(arc_length(near, 15.0) - L1) / L1
            assert 100.0 * abs(eps) < gap < 120.0 * abs(eps), eps


# The closed form against the same formulas evaluated in 50-digit decimal
# arithmetic, on a grid around the n = 1 seam, with turns up to 1 - 1e-9 of
# the domain end.  A value may be off, relative to it, by K*eps times the
# relative condition number in u of the problem itself (at least 1): near the
# domain end no form can do better.  The worst ratio measured is 2.56, at
# n = 1 - 1e-12, and K = 4.  Only n = 1 itself is solved as n = 1, by the
# reference and by the kernel.  a*L + b is checked as the logarithmic curvature graph
# takes it, rho^n.
ACCURACY_K = 4


def _exact(p, u):
    # (value, relative condition number in u) of L, a*L + b and rho
    n = decimal.Decimal(p.n)
    a, b, u = decimal.Decimal(p.a), decimal.Decimal(p.b), decimal.Decimal(u)
    if n == 1:
        w, dw = a * u, a
    else:
        offset = n * (b.ln() * (1 - 1 / n)).exp()
        x = a * (n - 1) * u / offset
        w, dw = (1 + x).ln() / (n - 1), a / (offset * (1 + x))
    e = (n * w).exp()
    rho = (b.ln() / n + w).exp()
    return (
        (b * (e - 1) / a, abs(n * u * dw) * e / abs(e - 1)),
        ((decimal.Decimal(p.n) * rho.ln()).exp(), abs(decimal.Decimal(p.n) * u * dw)),
        (rho, abs(u * dw)),
    )


def _accuracy_turns(p):
    turns = [1e-9, 1e-4, 0.1, 1.0, 7.0, 40.0]
    slope = p.a * (p.n - 1.0)
    if p.n == 1.0 or slope * p.n > 0.0:
        return turns  # x grows with u: no domain end
    n, b = decimal.Decimal(p.n), decimal.Decimal(p.b)
    end = float(n * (b.ln() * (1 - 1 / n)).exp() / decimal.Decimal(-slope))
    return [u for u in turns if u < end] + [end * (1.0 - 10.0 ** -k) for k in (1, 3, 6, 9)]


@pytest.mark.parametrize(
    "n", [1.0] + [1.0 + s * d for d in (2.0 ** -52, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2) for s in (1.0, -1.0)]
)
def test_closed_form_matches_a_50_digit_reference(n):
    eps = decimal.Decimal(2.0 ** -52)
    tiny = decimal.Decimal(2.0 ** -1074)  # what an underflow to 0 may lose
    largest = decimal.Decimal(sys.float_info.max)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, decimal.MAX_EMAX, decimal.MIN_EMIN
        for a in (0.37, -0.37, 2.9, -2.9):
            for b in (0.5, 1.0, 5.0):
                # with a constant phi of pi/2, u = theta and R = rho exactly
                p = params(n, a=a, b=b, theta1=1.0, phi="pi/2")
                for u in _accuracy_turns(p):
                    quantities = (lambda: arc_length(p, u), lambda: radius_at(p, u) ** p.n, lambda: radius_at(p, u))
                    for name, value, (exact, cond) in zip(("L", "a*L + b", "rho"), quantities, _exact(p, u)):
                        where = f"{name} at n={n!r} a={a} b={b} u={u!r}"
                        if abs(exact) > largest:
                            with pytest.raises(OverflowError):
                                value()
                            continue
                        error = abs(decimal.Decimal(value()) - exact)
                        assert error <= ACCURACY_K * eps * max(1, cond) * abs(exact) + tiny, where


# Where b^(1 - 1/n), b^(1/n) or x/u leaves float range while L and rho do not,
# the kernel carries them as logarithms.  ln|x| or w is then in the hundreds
# or thousands, and its rounding costs that many eps: these hold to 1e-12,
# against the same formulas in 400-digit decimal arithmetic (x is as small
# as 1e-209 here, and 1 + x must not round).
@pytest.mark.parametrize(
    "n,a,b",
    [
        (-0.5, 1.0, 1e-300),  # b^(1 - 1/n) = 1e-900 underflows
        (0.2, -1.0, 1e300),  # b^(1 - 1/n) = 1e-1200 underflows, b^(1/n) = 1e1500 overflows
        (0.5, -1.0, 1e300),  # b^(1/n) = 1e600 overflows
        (3.0, 1.0, 1e-300),  # b^(1/n) = 1e-100, x up to 6.7e199
        (3.0, -1.0, 1e300),  # b^(1/n) = 1e100, x down to -6.7e-210
    ],
)
def test_closed_form_where_parameter_terms_leave_float_range(n, a, b):
    p = params(n, a=a, b=b, theta1=1.0, phi="pi/2")
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 400, decimal.MAX_EMAX, decimal.MIN_EMIN
        for u in (1e-9, 1e-3, 0.25, 1.0):
            (L, _), _, (rho, _) = _exact(p, u)
            assert abs(decimal.Decimal(arc_length(p, u)) - L) <= decimal.Decimal(1e-12) * abs(L), u
            assert abs(decimal.Decimal(radius_at(p, u)) - rho) <= decimal.Decimal(1e-12) * abs(rho), u


def test_an_underflowing_offset_keeps_the_curve():
    # n = -0.5, a = 1, b = 1e-300: rho^(-1/2) = L + b with x = 3*u/b^3, so
    # L = (3u)^(1/3) - b and rho = (3u)^(-2/3), although b^3 underflows
    p = params(-0.5, a=1.0, b=1e-300, theta1=1.0, phi="pi/2")
    for u in (1e-9, 0.25, 1.0):
        assert math.isclose(arc_length(p, u), (3.0 * u) ** (1.0 / 3.0), rel_tol=1e-12)
        assert math.isclose(radius_at(p, u), (3.0 * u) ** (-2.0 / 3.0), rel_tol=1e-12)
    # only theta0's rho, b^(1/n) = 1e600, is out of range
    assert [r.valid.in_domain for r in sample(p, 5)] == [False, True, True, True, True]


def test_an_underflowing_x_flags_the_point():
    # n = -30, b = 1e300: b^(1 - 1/n) = 1e310 overflows and x = 1.03e-310*u
    # is subnormal, so w would keep a few digits: the point raises, as every
    # point did while b^(1 - 1/n) was raised as a float
    p = params(-30.0, a=1.0, b=1e300, theta1=1.0, phi="pi/2")
    with pytest.raises(OverflowError):
        arc_length(p, 0.5)
    assert not any(r.valid.in_domain for r in sample(p, 5)[1:])
    # a domain end beyond such points still bisects: x(0.5) underflows and
    # x(1) is about -1.5
    q = params(-30.0, a=-100.0, b=1e300, theta1=1.0, phi="1.5e308*theta^2000")
    with pytest.raises(DomainExceeded) as exc:
        arc_length(q, 1.0)
    assert 0.5 < exc.value.theta_max < 1.0


def test_a_turn_that_is_not_finite_flags_the_row():
    # L = e^u - 1 overflows, and expm1 raises, from theta = -0.5 on; at
    # theta1 = 1 the turn is 2e308, which rounds to inf, and there expm1
    # and exp return inf without raising, so arc must raise itself
    p = CurveParams(1.0, 1.0, 1.0, -1.0, 1.0, parse("1e308*theta"))
    rows = sample(p, 5)
    assert [r.valid.in_domain for r in rows] == [True, False, False, False, False]
    assert all(math.isnan(v) for v in rows[-1][1:9])
    for fn in (arc_length, radius_at, curve.arc_and_rho):
        with pytest.raises(OverflowError, match="not finite"):
            fn(p, 1.0)


def test_an_L_that_overflows_flags_the_row():
    # n = 1, a = 1e-20, b = 1e300: rho = b*e^(a*u) stays near 1e300, but
    # L = b*expm1(a*u)/a passes 1.8e308 at about u = 1.8e8, and float * and
    # / return inf without raising
    p = CurveParams(1.0, 1e-20, 1e300, 0.0, 1e10, parse("pi/2"))
    rows = sample(p, 3)
    assert [r.valid.in_domain for r in rows] == [True, False, False]
    assert all(math.isnan(v) for v in rows[-1][1:9])
    for fn in (arc_length, radius_at, curve.arc_and_rho):
        with pytest.raises(OverflowError, match="L is not finite"):
            fn(p, 1e10)
    # such a row gives no graph point, as a row whose rho overflows gives none
    assert len(lcg_closed_form(p, 3)) == 1


def test_a_subnormal_slope_keeps_the_curve():
    # n = 1.25, a = 5e-324: x/u = a*(n - 1)/(n*b^(1 - 1/n)) underflows to 0,
    # so x is carried as ln|x|, and L is about u where u is large
    p = params(1.25, a=5e-324, theta0=-1.0, theta1=1.0, phi="1e308*theta")
    rows = sample(p, 5)
    assert [r.valid.in_domain for r in rows] == [True, True, True, True, False]
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, decimal.MAX_EMAX, decimal.MIN_EMIN
        for r in rows[1:4]:
            (L, _), _, (rho, _) = _exact(p, curve.turn_angle(p, r.theta))
            assert abs(decimal.Decimal(r.L) - L) <= decimal.Decimal(1e-12) * abs(L), r.theta
            assert abs(decimal.Decimal(r.rho) - rho) <= decimal.Decimal(1e-12) * abs(rho), r.theta
    assert 4.9e307 < rows[1].L < 5.1e307


class TestHomothety:
    @pytest.mark.parametrize("phi", ["pi/2", "0.01*theta + 0.3"])
    def test_b_scales_lengths(self, phi):
        lam = 3.7
        base = params(1.0, phi=phi)
        scaled = params(1.0, b=lam, phi=phi)
        for theta in (0.5, 2.0, 7.5, 15.0):
            L0 = arc_length(base, theta)
            R0 = radius_at(base, theta)
            assert abs(arc_length(scaled, theta) - lam * L0) <= 1e-12 * abs(lam * L0)
            assert abs(radius_at(scaled, theta) - lam * R0) <= 1e-12 * abs(lam * R0)


class TestMonotonicity:
    @pytest.mark.parametrize("n,phi,theta1", ODE_CONSISTENCY_CONFIGS)
    def test_arc_length_strictly_increases(self, n, phi, theta1):
        p = params(n, theta1=theta1, phi=phi)
        rows = [r for r in sample(p, 256) if r.valid.in_domain]
        # the sqrt family has no finite f'(0), so its first row is flagged
        assert len(rows) >= 255
        for prev, cur in zip(rows, rows[1:]):
            assert cur.L > prev.L


# The closed form of the module docstring, written out term by term as the
# formulas read.  The compiled kernel must agree with it bit for bit, and
# raise the same exceptions.


def _ref_w(p, u):
    # the turn variable w, or None where x <= -1.  x is formed where
    # b^(1 - 1/n) and x/u are normal floats, and otherwise carried as its
    # sign and t = ln|x|, with ln(1 + x) = t + ln(1 + 1/x)
    n = p.n
    if n == 1.0:
        return p.a * u
    try:
        base = p.b ** (1.0 - 1.0 / n)
        slope = p.a * ((n - 1.0) / n) / base
    except (OverflowError, ZeroDivisionError):
        base = slope = 0.0
    if sys.float_info.min <= base < math.inf and sys.float_info.min <= abs(slope) < math.inf:
        x = slope * u
        return None if x <= -1.0 else math.log1p(x) / (n - 1.0)
    log_slope = math.log(abs(p.a)) + math.log(abs(n - 1.0)) - math.log(abs(n)) - (1.0 - 1.0 / n) * math.log(p.b)
    t = log_slope + math.log(abs(u))
    if t < math.log(sys.float_info.min):
        raise OverflowError("x underflows")
    if math.copysign(1.0, p.a) * math.copysign(1.0, n - 1.0) * math.copysign(1.0, n) * u > 0.0:
        return (t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))) / (n - 1.0)
    return None if t >= 0.0 else math.log1p(-math.exp(t)) / (n - 1.0)


def _ref_L_rho(p, theta, u):
    n = p.n
    if u == 0.0:
        L, rho = 0.0, math.exp(math.log(p.b) / n)
    else:
        w = _ref_w(p, u)
        if w is None:
            raise DomainExceeded(p, theta)
        if not math.isfinite(u):
            raise OverflowError("the turn is not finite")
        L = p.b * math.expm1(n * w) / p.a
        if not math.isfinite(L):
            raise OverflowError("L is not finite")
        rho = math.exp(w + math.log(p.b) / n)
    if not math.isfinite(rho):
        raise OverflowError("rho is not finite")
    return L, rho


def _ref_rho(p, L):
    # the law itself, rho = (a*L + b)^(1/n), from L; None where a*L + b <= 0
    g = p.a * L + p.b
    if g <= 0.0:
        return None
    return g if p.n == 1.0 else g ** (1.0 / p.n)


def _ref_arc_length(p, theta):
    return _ref_L_rho(p, theta, (theta - p.theta0) + (p.phi.value(theta) - p.phi0))[0]


def _ref_point(p, theta):
    try:
        pv = p.phi.eval_with_derivative(theta)
    except EvalDomainError:
        _ref_arc_length(p, theta)  # a domain exit is reported first
        raise
    L, rho = _ref_L_rho(p, theta, (theta - p.theta0) + (pv.phi - p.phi0))
    return L, rho, pv.phi, pv.dphi_dtheta


def _ref_radius_at(p, theta):
    _, rho, phi, dphi = _ref_point(p, theta)
    R = rho * (1.0 + dphi) * math.sin(phi)
    if not math.isfinite(R):
        raise OverflowError("R is not finite")
    return R


def _ref_sample_row(p, theta):
    # a flagged row keeps the L and rho of phi's value where they exist
    try:
        L, rho, phi, dphi = _ref_point(p, theta)
        monotone = 1.0 + dphi
        R = rho * monotone * math.sin(phi)
        if math.isfinite(R) and math.isfinite(theta + phi):
            flags = (rho > 0.0, R > 0.0, monotone > 0.0, True)
            return (theta, L, R, rho, phi, dphi, theta + phi, R * math.cos(theta), R * math.sin(theta), flags)
    except (DomainExceeded, EvalDomainError, OverflowError):
        pass
    try:
        L, rho = _ref_L_rho(p, theta, (theta - p.theta0) + (p.phi.value(theta) - p.phi0))
    except (DomainExceeded, EvalDomainError, OverflowError):
        L = rho = math.nan
    return (theta, L, math.nan, rho, *[math.nan] * 5, (rho > 0.0, False, False, False))


def _ref_boundary(p, theta_bad):
    good, bad = p.theta0, theta_bad
    while abs(bad - good) > 1e-12:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        try:
            positive = _ref_w(p, (mid - p.theta0) + (p.phi.value(mid) - p.phi0)) is not None
        except EvalDomainError:
            positive = False
        if positive:
            good = mid
        else:
            bad = mid
    return good


def _bits(value):
    # floats by their bit pattern, so -0.0 and NaN payloads count
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        if isinstance(exc, DomainExceeded):
            return type(exc), exc.theta, _bits(exc.theta_max), str(exc)
        return type(exc), str(exc)


KERNEL_CONFIGS = [
    # (n, a, b, theta0, theta1, phi, probe angles beyond the grid)
    (1.0, 1.0, 1.0, 0.0, 15.0, "pi/2", ()),
    (1.0 + 1e-10, 0.37, 1.3, 0.0, 15.0, "0.01*theta + 0.3", ()),
    (1.0 - 1e-10, 0.37, 1.3, 0.0, 15.0, "0.01*theta + 0.3", ()),
    (1.0 + 1e-6, 0.37, 1.3, 0.0, 15.0, "0.01*theta + 0.3", ()),
    (1.0, -0.7, 2.1, 0.0, 400.0, "theta", ()),
    (2.0, 1.0, 1.0, 0.0, 5.0, "pi/8", ()),
    (-2.0, 1.0, 1.0, 0.1, 5.0, "sqrt(theta) + 0.6", (0.0,)),
    (2.0, 1.0, 1.0, 0.0, 5.0, "sqrt(theta) + 0.6", (0.0,)),
    # theta = 0 is outside the domain and sqrt has no derivative there:
    # the domain exit must be the error reported
    (2.0, 1.0, 1.0, 4.0, 5.0, "sqrt(theta)", (0.0,)),
    (1.7, 0.37, 3.1, -1.0, 6.0, "0.2*theta + pi/24", ()),
    (-0.7, 1.3, 0.5, 0.0, 6.0, "0.2*theta + pi/24", ()),
    (3.0, 2.9, 0.8, 0.0, 4.0, "cos(theta)/3 + 1", ()),
    # domain exits with a < 0
    (2.0, -1.0, 1.0, 0.0, 5.0, "pi/8", ()),
    (-1.0, -1.0, 1.0, 0.0, 5.0, "pi/2", ()),
    (0.5, -0.37, 1.3, 0.0, 5.0, "0.01*theta + 0.3", ()),
    (2.5, -0.8, 3.1, 0.0, 6.0, "sin(theta) + 1", ()),
    # b^(1 - 1/n) and b^(1/n) at the ends of the float range: at n = -0.5 it
    # is 1e900 for b = 1e300 and 1e-900 for b = 1e-300, and x is carried as
    # ln|x|; at n = 0.5 and b = 1e300, b^(1/n) = 1e600 overflows, which a
    # point must raise and construction must not
    (0.5, 1.0, 1e300, 0.0, 1.0, "theta", ()),
    (0.5, 1.0, 1e-300, 0.0, 1.0, "theta", ()),
    (-0.5, 1.0, 1e300, 0.0, 1.0, "theta", ()),
    (-0.5, 1.0, 1e-300, 0.0, 1.0, "theta", ()),
    # x/u underflows to 0, and is carried as ln|x|; the turn at theta1
    # rounds to inf, and its row is flagged whichever sign w takes
    (1.25, 5e-324, 1.0, -1.0, 1.0, "1e308*theta", ()),
    (1.0, -1.0, 1.0, -1.0, 1.0, "1e308*theta", ()),
    # L overflows in its last product while rho stays near b
    (1.0, 1e-20, 1e300, 0.0, 1e10, "pi/2", ()),
]


@pytest.mark.parametrize("n,a,b,theta0,theta1,phi,extra", KERNEL_CONFIGS)
def test_kernel_matches_the_closed_forms_bitwise(n, a, b, theta0, theta1, phi, extra):
    p = params(n, a=a, b=b, theta0=theta0, theta1=theta1, phi=phi)
    count = 41
    span = theta1 - theta0
    # the grid, and as far again on either side of it
    probes = [theta0 + (i - count) * span / (count - 1) for i in range(3 * count - 1)]
    for theta in [*probes, *extra]:
        assert _outcome(arc_length, p, theta) == _outcome(_ref_arc_length, p, theta), theta
        assert _outcome(radius_at, p, theta) == _outcome(_ref_radius_at, p, theta), theta
    for r in sample(p, count):
        # the conditions validate() judges, read from the row as it does
        flags = (r.rho > 0.0, r.R > 0.0, 1.0 + r.dphi > 0.0, r.valid.in_domain)
        row = (r.theta, r.L, r.R, r.rho, r.phi, r.dphi, r.beta, r.x, r.y, flags)
        assert _bits(row) == _bits(_ref_sample_row(p, r.theta))


@pytest.mark.parametrize("n,a,b,theta0,theta1,phi,extra", KERNEL_CONFIGS)
def test_rho_follows_the_law_from_its_own_L(n, a, b, theta0, theta1, phi, extra):
    # where a*L + b cancels by at most half, (a*L + b)^(1/n) is as accurate
    # as L is; near the domain end it is not, and the closed form still is
    p = params(n, a=a, b=b, theta0=theta0, theta1=theta1, phi=phi)
    count = 41
    span = theta1 - theta0
    for theta in [theta0 + (i - count) * span / (count - 1) for i in range(3 * count - 1)]:
        try:
            L, rho = arc_and_rho(p, theta)
        except curve.ROW_ERRORS:
            continue
        if p.a * L + p.b >= abs(p.a * L):
            assert rho == pytest.approx(_ref_rho(p, L), rel=1e-13 / min(abs(n), 1.0)), theta


def _grid_before(p, count):
    # theta0 + i*span/last for every row but the last, which is theta1
    span, last = p.theta1 - p.theta0, count - 1
    return [p.theta0 + i * span / last for i in range(last)] + [p.theta1]


@pytest.mark.parametrize(
    "theta0,theta1,count",
    [
        (0.0, 15.0, 4097),
        (-8.5e307, 8.5e307, 9),
        (0.0, 1e308, 4),
        (-1e308, 7e307, 2049),
        (1e308, sys.float_info.max, 1025),
        (-sys.float_info.max, -1e308, 5),
        (5e-324, 1e-300, 3),
    ],
)
def test_grid_thetas_are_finite_nondecreasing_and_end_on_theta0_and_theta1(theta0, theta1, count):
    p = params(1.0, theta0=theta0, theta1=theta1)
    thetas = curve._grid(p, count)
    assert all(map(math.isfinite, thetas))
    assert all(s <= t for s, t in zip(thetas, thetas[1:]))
    assert (_bits(thetas[0]), _bits(thetas[-1])) == (_bits(theta0), _bits(theta1))
    # only the rows whose theta overflowed before have moved
    assert [_bits(t) for t, old in zip(thetas, _grid_before(p, count)) if old != math.inf] == [
        _bits(old) for old in _grid_before(p, count) if old != math.inf
    ]
    # a process's blocks of the grid are the whole grid's rows
    B = 1024
    dealt = [range(b * B, min(b * B + B, count)) for b in range(count % 2, -(-count // B), 2)]
    assert curve._grid(p, count, dealt) == [thetas[i] for r in dealt for i in r]


def test_a_grid_that_would_overflow_samples_every_row():
    # phi' = -1 keeps the turn at 0, so every row is in domain at the origin;
    # rows 2 to 7 read theta = inf, and were flagged, while i*span overflowed
    p = params(1.0, theta0=-8.5e307, theta1=8.5e307, phi="0 - theta")
    assert all(r.valid.in_domain and math.isfinite(r.theta) for r in sample(p, 9))


def _sample_by_point(p, count):
    # sample() as one point call per theta, the way it was before its loop
    # was fused; a flagged row keeps the L and rho arc_and_rho gives
    rows = []
    for theta in curve._grid(p, count):
        try:
            L, rho, phi, dphi = point(p, theta)
            monotone = 1.0 + dphi
            R = rho * monotone * math.sin(phi)
            if not (math.isfinite(R) and math.isfinite(theta + phi)):
                raise OverflowError("R or beta is not finite")
        except curve.ROW_ERRORS:
            try:
                L, rho = arc_and_rho(p, theta)
            except curve.ROW_ERRORS:
                L = rho = math.nan
            rows.append(curve.CurveSample(theta, L, math.nan, rho, *[math.nan] * 5, curve.SampleValidity(False)))
            continue
        valid = curve.SampleValidity(True)
        rows.append(
            curve.CurveSample(theta, L, R, rho, phi, dphi, theta + phi, R * math.cos(theta), R * math.sin(theta), valid)
        )
    return rows


@pytest.mark.parametrize("args,count", [case[1:] for case in ROW_MODEL_CASES], ids=[c[0] for c in ROW_MODEL_CASES])
def test_sample_matches_the_per_theta_point_loop(args, count):
    p = row_model_case(args)
    rows = sample(p, count)
    assert all(type(r) is curve.CurveSample and type(r.valid) is curve.SampleValidity for r in rows)
    assert [_bits(r) for r in rows] == [_bits(r) for r in _sample_by_point(p, count)]


@pytest.mark.parametrize("args,count", [case[1:] for case in ROW_MODEL_CASES], ids=[c[0] for c in ROW_MODEL_CASES])
def test_every_row_shares_one_of_two_flags(args, count):
    rows = sample(row_model_case(args), count)
    assert curve.IN_DOMAIN == (True,) and curve.FLAGGED == (False,)
    assert all(r.valid is (curve.IN_DOMAIN if r.valid.in_domain else curve.FLAGGED) for r in rows)


@pytest.mark.parametrize("n,theta1,theta", [(-1.0, 15.0, -0.6), (0.5, 2.0, 1.5), (2.0, 5.0, 3.0)])
def test_domain_boundary_matches_the_reference_bisection(n, theta1, theta):
    a = -1.0 if n == 2.0 else 1.0
    p = params(n, a=a, theta1=theta1, phi="pi/8" if n == 2.0 else "pi/2")
    assert curve._domain_boundary(p, theta) == _ref_boundary(p, theta)


def test_pickle_round_trip_after_the_kernel_ran():
    p = params(-1.0)
    r = radius_at(p, 4.0)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p
    assert radius_at(copy, 4.0) == r
    with pytest.raises(DomainExceeded) as exc:
        arc_length(p, -0.6)
    again = pickle.loads(pickle.dumps(exc.value))
    assert again.args[0] == p
    assert (again.theta, again.theta_max, str(again)) == (-0.6, exc.value.theta_max, str(exc.value))


def test_a_row_whose_rho_is_not_finite_is_flagged():
    # n = 5e-324 makes ln b^(1/n) infinite: row 0, at u = 0, read rho = R = inf
    # and rows 1 to 4 NaN, all in domain
    p = CurveParams(5e-324, -1e6, 1.0000000001, 0.5, 1.0, parse("theta^0.5"))
    rows = sample(p, 5)
    assert not any(r.valid.in_domain for r in rows)
    assert all(math.isnan(v) for r in rows for v in r[1:-1])
    with pytest.raises(OverflowError, match="^rho is not finite$"):
        arc_and_rho(p, 0.5)


def test_a_row_whose_beta_overflows_is_flagged_and_keeps_its_L_and_rho():
    # theta + phi = 2e308 at theta0, where L = 0 and rho = 1
    p = CurveParams(1.0, 1e-300, 1.0, 1e308, 1.7e308, parse("theta"))
    row = sample(p, 3)[0]
    assert not row.valid.in_domain
    assert (row.L, row.rho) == arc_and_rho(p, 1e308) == (0.0, 1.0)
    assert all(math.isnan(v) for v in (row.R, row.phi, row.dphi, row.beta, row.x, row.y))


# item 19's float extremes: magnitudes from 1e-300 to 8.5e307 of both signs,
# and up to the largest float, n near 1 and at the ends of the float range,
# and the acceptance suite's phi laws with the laws of the rows once found
# wrong there
_MAGNITUDES = st.one_of(st.floats(1e-300, 8.5e307), st.floats(8.5e307, sys.float_info.max))
_SIGNED = st.one_of(
    _MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 5.0, -5.0, 15.0])
)
_EXPONENTS = st.one_of(
    st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324,
                     2.0, 3.0, -1.0, -2.0, -3.0, 0.5]),
    _SIGNED,
)
_LAWS = ["pi/2", "0.01*theta + 0.3", "theta^0.25 + 3", "pi/8", "sqrt(theta) + 0.6", "pi/4",
         "0 - theta", "theta", "theta^2", "theta^0.5", "1e308*theta"]
_PHIS = {law: parse(law) for law in _LAWS}


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(_EXPONENTS, _SIGNED, st.one_of(_MAGNITUDES, st.sampled_from([1.0, 0.5, 2.0])), _SIGNED, _SIGNED,
       st.sampled_from(_LAWS), st.integers(2, 9))
def test_rows_keep_their_contracts_at_float_extremes(n, a, b, theta0, theta1, law, count):
    try:
        p = CurveParams(n, a, b, min(theta0, theta1), max(theta0, theta1), _PHIS[law])
    except curve.InvalidParameters:
        return
    rows = sample(p, count)
    thetas = [r.theta for r in rows]
    assert all(map(math.isfinite, thetas))
    assert all(s <= t for s, t in zip(thetas, thetas[1:]))
    assert (_bits(thetas[0]), _bits(thetas[-1])) == (_bits(p.theta0), _bits(p.theta1))
    nan = _bits(math.nan)
    for r in rows:
        if r.valid.in_domain:
            assert all(map(math.isfinite, (r.theta, r.L, r.R, r.rho, r.phi, r.beta, r.x, r.y))), r
            assert _bits(radius_at(p, r.theta)) == _bits(r.R), r
            continue
        try:
            kept = arc_and_rho(p, r.theta)
            assert all(map(math.isfinite, kept)), r
            kept = _bits(kept)
        except curve.ROW_ERRORS:
            kept = (nan, nan)
        assert _bits((r.L, r.rho)) == kept, r
        assert all(map(math.isnan, (r.R, r.phi, r.dphi, r.beta, r.x, r.y))), r
