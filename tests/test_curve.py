import dataclasses
import math
import pickle

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
from conftest import params


class TestCurveParams:
    def test_rejects_zero_n(self):
        with pytest.raises(ValueError, match="n"):
            params(0.0)

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError, match="a"):
            params(1.0, a=0.0)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError, match="b"):
            params(1.0, b=0.0)
        with pytest.raises(ValueError, match="b"):
            params(1.0, b=-1.0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="theta1"):
            params(1.0, theta0=2.0, theta1=2.0)
        with pytest.raises(ValueError, match="theta1"):
            params(1.0, theta0=2.0, theta1=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            params(math.nan)
        with pytest.raises(ValueError):
            params(1.0, theta1=math.inf)

    def test_rejects_phi_unevaluable_at_start(self):
        with pytest.raises(ValueError, match="phi"):
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
