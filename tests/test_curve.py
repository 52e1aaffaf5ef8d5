import dataclasses
import math
import pickle
import struct

import pytest

from polarlac import (
    CurveParams,
    DomainExceeded,
    NonpositiveRho,
    arc_length,
    parse,
    radius_at,
    radius_of_curvature,
    sample,
    validate,
)
from polarlac import curve
from polarlac.phiexpr import EvalDomainError
from conftest import ROW_MODEL_CASES, params, row_model_case


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

    def test_rejects_phi_unevaluable_at_start(self):
        with pytest.raises(curve.InvalidParameters, match="phi"):
            params(1.0, phi="ln(theta)")  # theta0 = 0

    def test_phi0_cached(self):
        p = params(1.0, phi="0.01*theta + 0.3", theta0=2.0)
        assert p.phi0 == p.phi.value(2.0)

    def test_class_dispatch_tolerance(self):
        assert params(1.0).is_class_one
        assert params(1.0 + 1e-10).is_class_one
        assert not params(1.0 + 1e-6).is_class_one
        assert not params(-1.0).is_class_one

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
    def test_linear_law(self, fig4):
        L = math.e - 1.0
        assert radius_of_curvature(fig4, L) == pytest.approx(math.e, rel=1e-15)

    def test_reciprocal_law(self, fig7):
        assert radius_of_curvature(fig7, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_square_law_intercept(self):
        p = params(2.0, b=4.0)
        assert radius_of_curvature(p, 0.0) == 2.0

    def test_nonpositive_argument(self, fig7):
        with pytest.raises(NonpositiveRho) as exc:
            radius_of_curvature(fig7, -1.0)
        assert exc.value.value == 0.0


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
        assert not bad.valid.rho_positive
        assert not bad.valid.radius_positive

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
            curve.DomainExceeded, curve.NonpositiveRho, curve.InvalidParameters, phiexpr.ParseError,
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
        # the same seam at theta=15 is eps*u^2/2 = 1.125e-4: pin the law's
        # own magnitude there; acceptance criterion 5 checks it exactly
        L1 = arc_length(fig4, 15.0)
        for eps in (1e-6, -1e-6):
            near = params(1.0 + eps)
            gap = abs(arc_length(near, 15.0) - L1) / L1
            assert 1.0e-4 < gap < 1.2e-4


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


# The closed forms of the module docstring, written out term by term as the
# formulas read, with the family picked per call.  The compiled kernel must
# agree with them bit for bit, and raise the same exceptions.


def _ref_class_one(p):
    return abs(p.n - 1.0) <= curve.CLASS_ONE_TOL


def _ref_base(p, u):
    return (p.a * (p.n - 1.0) * u + p.n * p.b ** (1.0 - 1.0 / p.n)) / p.n


def _ref_L(p, theta, u):
    if u == 0.0:
        return 0.0
    if _ref_class_one(p):
        return (p.b / p.a) * math.expm1(p.a * u)
    A = _ref_base(p, u)
    if A <= 0.0:
        raise DomainExceeded(p, theta)
    return (A ** (p.n / (p.n - 1.0)) - p.b) / p.a


def _ref_rho(p, L):
    g = p.a * L + p.b
    if g <= 0.0:
        raise NonpositiveRho(g)
    return g if _ref_class_one(p) else g ** (1.0 / p.n)


def _ref_arc_length(p, theta):
    return _ref_L(p, theta, (theta - p.theta0) + (p.phi.value(theta) - p.phi0))


def _ref_point(p, theta):
    try:
        pv = p.phi.eval_with_derivative(theta)
    except EvalDomainError:
        _ref_arc_length(p, theta)  # a domain exit is reported first
        raise
    L = _ref_L(p, theta, (theta - p.theta0) + (pv.phi - p.phi0))
    return L, _ref_rho(p, L), pv.phi, pv.dphi_dtheta


def _ref_radius_at(p, theta):
    _, rho, phi, dphi = _ref_point(p, theta)
    return rho * (1.0 + dphi) * math.sin(phi)


def _ref_sample_row(p, theta):
    try:
        L, rho, phi, dphi = _ref_point(p, theta)
    except (DomainExceeded, NonpositiveRho, EvalDomainError, OverflowError):
        return (theta,) + (math.nan,) * 8 + ((False,) * 4,)
    monotone = 1.0 + dphi
    R = rho * monotone * math.sin(phi)
    flags = (rho > 0.0, R > 0.0, monotone > 0.0, True)
    return (theta, L, R, rho, phi, dphi, theta + phi, R * math.cos(theta), R * math.sin(theta), flags)


def _ref_boundary(p, theta_bad):
    good, bad = p.theta0, theta_bad
    while abs(bad - good) > 1e-12:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        try:
            positive = _ref_base(p, (mid - p.theta0) + (p.phi.value(mid) - p.phi0)) > 0.0
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
    # b^(1 - 1/n) at the ends of the float range; at n = -0.5 and b = 1e300
    # it overflows, which arc_length must raise and construction must not
    (0.5, 1.0, 1e300, 0.0, 1.0, "theta", ()),
    (0.5, 1.0, 1e-300, 0.0, 1.0, "theta", ()),
    (-0.5, 1.0, 1e300, 0.0, 1.0, "theta", ()),
    (-0.5, 1.0, 1e-300, 0.0, 1.0, "theta", ()),
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
        v = r.valid
        flags = (v.rho_positive, v.radius_positive, v.monotone_factor_positive, v.in_domain)
        row = (r.theta, r.L, r.R, r.rho, r.phi, r.dphi, r.beta, r.x, r.y, flags)
        assert _bits(row) == _bits(_ref_sample_row(p, r.theta))
    for L in (-2.0 * b / a, -b / a, 0.0, 0.5, 1e3):
        assert _outcome(radius_of_curvature, p, L) == _outcome(_ref_rho, p, L), L


def _sample_by_point(p, count):
    # sample() as one kernel.point call per theta, the way it was before
    # its loop was fused
    rows = []
    for theta in curve._grid(p, count):
        try:
            L, rho, phi, dphi = p._kernel.point(theta)
        except curve.ROW_ERRORS:
            rows.append(curve.CurveSample(theta, *[math.nan] * 8, curve.SampleValidity(False, False, False, False)))
            continue
        monotone = 1.0 + dphi
        R = rho * monotone * math.sin(phi)
        valid = curve.SampleValidity(rho > 0.0, R > 0.0, monotone > 0.0, True)
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
