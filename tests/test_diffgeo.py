import math
import tracemalloc

import pytest

from polarlac import (
    OdeBlowUp,
    arc_length,
    compare,
    numeric_arc_length,
    numeric_curvature,
    numeric_phi,
    ode_arc_length,
    radius_at,
)
from polarlac import curve, diffgeo
from polarlac.diffgeo import DegeneratePoint, ToleranceNotMet
from polarlac.phiexpr import PhiFunction
from conftest import params


def offset_circle(theta):
    # unit circle centered at (0.5, 0): curvature 1 with nonzero R', R''
    return 0.5 * math.cos(theta) + math.sqrt(1.0 - 0.25 * math.sin(theta) ** 2)


class TestNumericCurvature:
    def test_unit_circle(self):
        for theta in (0.0, 1.0, 2.5):
            assert abs(numeric_curvature(lambda t: 1.0, theta) - 1.0) <= 1e-8

    def test_log_spiral(self):
        # R = e^theta has kappa = e^(-theta)/sqrt(2)
        kappa = numeric_curvature(math.exp, 0.0)
        assert kappa == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_archimedean_spiral(self):
        # R = theta gives kappa = (theta^2 + 2)/(theta^2 + 1)^(3/2); the
        # stencil has no truncation error on a linear R, so a wide step
        # avoids the eps/h^2 round-off of the second difference
        kappa = numeric_curvature(lambda t: t, 1.0, 1e-3)
        assert kappa == pytest.approx(3.0 / 2.0 ** 1.5, abs=1e-8)

    def test_degenerate_at_origin(self):
        with pytest.raises(DegeneratePoint):
            numeric_curvature(lambda t: 0.0, 1.0)

    def test_second_order_convergence(self):
        for theta in (0.7, 1.9):
            coarse = abs(numeric_curvature(offset_circle, theta, 1e-3) - 1.0)
            fine = abs(numeric_curvature(offset_circle, theta, 5e-4) - 1.0)
            assert coarse / fine >= 3.5


class TestNumericPhi:
    def test_circle_right_angle(self):
        assert numeric_phi(lambda t: 2.0, 1.3) == math.pi / 2

    def test_log_spiral_diagonal(self):
        for theta in (0.0, 0.8, 2.0):
            assert numeric_phi(math.exp, theta) == pytest.approx(math.pi / 4, abs=1e-6)

    def test_growth_rate_sets_angle(self):
        a = 1.0 / math.tan(0.3)
        assert numeric_phi(lambda t: math.exp(a * t), 0.5) == pytest.approx(0.3, abs=1e-6)

    def test_decaying_spiral_obtuse(self):
        assert numeric_phi(lambda t: math.exp(-t), 0.5) == pytest.approx(
            3.0 * math.pi / 4.0, abs=1e-6
        )

    def test_fold_of_zero_angle(self):
        # R=0 with R' > 0 points along the ray; the fold maps 0 to pi
        assert numeric_phi(lambda t: t, 0.0) == math.pi

    def test_degenerate(self):
        with pytest.raises(DegeneratePoint):
            numeric_phi(lambda t: 0.0, 0.0)


class TestNumericArcLength:
    def test_circle(self):
        s = numeric_arc_length(lambda t: 1.0, 0.0, 2.0 * math.pi)
        assert abs(s - 2.0 * math.pi) <= 1e-9

    def test_log_spiral(self):
        s = numeric_arc_length(math.exp, 0.0, 1.0)
        assert abs(s - math.sqrt(2.0) * (math.e - 1.0)) <= 1e-8

    def test_constant_phi_trace_matches_model(self, fig4):
        # for phi=pi/2, a=1 the trace length is sqrt(2) * L_closed
        s = numeric_arc_length(lambda t: radius_at(fig4, t), 0.0, 1.0)
        assert abs(s - math.sqrt(2.0) * (math.e - 1.0)) <= 1e-8

    def test_additive(self):
        whole = numeric_arc_length(math.exp, 0.0, 1.0)
        split = numeric_arc_length(math.exp, 0.0, 0.4) + numeric_arc_length(math.exp, 0.4, 1.0)
        assert abs(whole - split) <= 2e-10

    def test_empty_interval(self):
        assert numeric_arc_length(math.exp, 1.0, 1.0) == 0.0

    def test_reversed_interval(self):
        with pytest.raises(ValueError):
            numeric_arc_length(math.exp, 1.0, 0.0)


class TestOdeArcLength:
    def test_exponential_family(self, fig4):
        L = ode_arc_length(fig4, 10_000)
        assert abs(L(1.0) - (math.e - 1.0)) / (math.e - 1.0) <= 1e-8

    def test_reciprocal_family(self, fig7):
        L = ode_arc_length(fig7, 10_000)
        assert abs(L(4.0) - 2.0) / 2.0 <= 1e-8

    @pytest.mark.parametrize("n", [2.0, -2.0])
    def test_square_root_phi_family(self, n):
        p = params(n, theta1=5.0, phi="sqrt(theta) + 0.6")
        L = ode_arc_length(p, 10_000)
        closed = arc_length(p, 5.0)
        assert abs(L(5.0) - closed) / abs(closed) <= 1e-8

    def test_dense_output_interior(self, fig4):
        L = ode_arc_length(fig4, 10_000)
        closed = arc_length(fig4, 7.3)
        assert abs(L(7.3) - closed) / closed <= 1e-8

    def test_rejects_outside_range(self, fig4):
        L = ode_arc_length(fig4, 200)
        with pytest.raises(ValueError):
            L(15.5)
        with pytest.raises(ValueError):
            L(-1.0)

    def test_rejects_few_steps(self, fig4):
        with pytest.raises(ValueError):
            ode_arc_length(fig4, 99)

    def test_blow_up_reports_last_theta(self):
        p = params(1.0, a=5.0, theta1=10.0)
        with pytest.raises(OdeBlowUp) as exc:
            ode_arc_length(p, 1000)
        # L = (1/5)(e^(5 theta) - 1) crosses 1e12 near theta = ln(5e12)/5
        assert 5.5 < exc.value.theta_last < 6.2
        assert exc.value.L_last <= 1e12

    @pytest.mark.parametrize("steps", [100, 200])
    def test_fourth_order_step_halving(self, fig4, steps):
        at = fig4.theta1
        coarse = ode_arc_length(fig4, steps)(at)
        fine = ode_arc_length(fig4, 2 * steps)(at)
        closed = arc_length(fig4, at)
        assert abs(coarse - fine) <= 16.0 * abs(fine - closed)


class TestCompare:
    def test_ode_residual_tight(self, fig4):
        report = compare(fig4, 64)
        assert report.ode_residual.count > 0
        assert report.ode_residual.max <= 1e-8

    def test_arc_starts_at_zero_and_grows(self, fig5):
        report = compare(fig5, 64)
        assert report.rows[0].s_numeric == 0.0
        finite = [r.s_numeric for r in report.rows if math.isfinite(r.s_numeric)]
        for prev, cur in zip(finite, finite[1:]):
            assert cur >= prev

    def test_rho_is_reciprocal_curvature(self, fig5):
        report = compare(fig5, 64)
        for r in report.rows:
            if not r.degenerate and r.kappa_numeric != 0.0:
                assert r.rho_numeric == 1.0 / r.kappa_numeric

    def test_compatible_spiral_phi_agrees(self, compatible_spiral):
        report = compare(compatible_spiral, 64)
        assert report.degenerate_rows == 0
        assert report.phi_residual.max <= 1e-5

    def test_incompatible_phi_reported_not_raised(self, fig7):
        # prescribed pi/2 cannot be the actual angle of a non-circle; the
        # mismatch lands in the report instead of failing the run
        report = compare(fig7, 64)
        assert report.phi_residual.count == 64
        assert report.phi_residual.max > 0.5

    def test_unmeasurable_trace_still_checks_ode(self):
        # f' is unbounded at theta0, so the first quadrature segment fails
        # and poisons every cumulative s; the re-integrated L must still be
        # checked on all remaining rows
        p = params(1.0, phi="theta^0.25 + 3")
        report = compare(p, 32)
        assert report.degenerate_rows == 32
        assert report.arc_residual.count == 0
        assert math.isnan(report.arc_residual.max)
        assert report.rho_residual.count == 0
        assert report.ode_residual.count == 31
        assert report.ode_residual.max <= 1e-8

    def test_work_per_row(self, monkeypatch):
        # the stencils reuse the R values of the Simpson segments ending at
        # each grid theta, and R takes phi from its one dual evaluation, so
        # plain phi values remain only for phi_prescribed and the ODE check
        calls = {"R": 0, "phi": 0}
        radius_at_ = curve.radius_at
        value = PhiFunction.value

        def counted_radius_at(p, theta):
            calls["R"] += 1
            return radius_at_(p, theta)

        def counted_value(self, theta):
            calls["phi"] += 1
            return value(self, theta)

        monkeypatch.setattr(curve, "radius_at", counted_radius_at)
        monkeypatch.setattr(PhiFunction, "value", counted_value)
        compare(params(2.0, theta1=5.0, phi="pi/8"), 1024)
        assert calls["R"] <= 13 * 1024
        assert calls["phi"] <= 3 * 1024

    def test_memory_stays_bounded_when_segments_exhaust_the_budget(self):
        # each of the 7 segments of a 1e6-radian sweep of an oscillating R
        # makes 12,288 R calls before it stops at the Simpson budget; keeping
        # all of those values peaks near 7 MB, while the 10,001-step ODE
        # output the oracle keeps takes about 1 MB
        p = params(2.0, b=2.0, theta1=1e6, phi="sin(theta)")
        tracemalloc.start()
        try:
            report = compare(p, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.degenerate_rows == 7
        assert peak < 2_000_000

    def test_row_columns_join_closed_and_numeric(self, fig4):
        report = compare(fig4, 16)
        mid = report.rows[8]
        assert mid.L_closed == arc_length(fig4, mid.theta)
        assert mid.phi_prescribed == math.pi / 2
        assert mid.rho_closed == pytest.approx(mid.L_closed + 1.0, rel=1e-15)


class TestSimpsonBudget:
    def test_oscillating_segment_stops_at_the_budget(self):
        # a smooth R that oscillates over 1e6 radians: without a budget the
        # quadrature would split the segment into about a million pieces
        calls = []

        def R(t):
            calls.append(t)
            return 2.0 + math.sin(t)

        with pytest.raises(ToleranceNotMet, match="budget of 4096 integrand evaluations"):
            numeric_arc_length(R, 0.0, 1e6)
        assert len(calls) == 3 * diffgeo._SIMPSON_MAX_EVALS

    def test_a_whole_figure_range_fits_in_the_budget(self, fig7):
        # one segment over all of [0, 15] takes 1345 integrand evaluations,
        # a third of the budget, and agrees with the sum over a fine grid
        calls = []

        def R(t):
            calls.append(t)
            return radius_at(fig7, t)

        whole = numeric_arc_length(R, 0.0, 15.0)
        assert len(calls) == 3 * 1345
        grid = [15.0 * i / 64 for i in range(65)]
        pieces = math.fsum(numeric_arc_length(R, s, t) for s, t in zip(grid, grid[1:]))
        assert whole == pytest.approx(pieces, rel=1e-9)
