import math
import random
import struct
import tracemalloc

import pytest

from polarlac import (
    CurveParams,
    OdeBlowUp,
    arc_length,
    compare,
    numeric_arc_length,
    numeric_curvature,
    numeric_phi,
    ode_arc_length,
    parse,
    radius_at,
)
from polarlac import curve, diffgeo
from polarlac.diffgeo import DegeneratePoint, ToleranceNotMet
from polarlac.phiexpr import PhiFunction
from conftest import ROW_MODEL_CASES, params, row_model_case


def _bits(row):
    # floats by their bit pattern, so -0.0 and NaN payloads count
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in row)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_length_that_is_not_finite_ends_the_segment(self, value):
        # no refinement makes a NaN or infinite polygon finite: the segment
        # ends after the 3 R calls of its first two chords, not its budget
        calls = []

        def R(t):
            calls.append(t)
            return value

        with pytest.raises(ToleranceNotMet, match="a polygon length that is not finite"):
            numeric_arc_length(R, 0.0, 1.0)
        assert len(calls) == 3


class TestOdeArcLength:
    # L comes back at the turn of each in-domain row given, in order

    def test_exponential_family(self, fig4):
        # L = e^theta - 1 at every row, theta = 0, 0.1, ..., 15
        rows = curve.sample(fig4, 151)
        L = ode_arc_length(fig4, 10_000, rows)
        assert len(L) == 151 and L[0] == 0.0
        for value, row in zip(L[1:], rows[1:]):
            assert abs(value - math.expm1(row.theta)) <= 1e-8 * math.expm1(row.theta)

    def test_dense_output_interior(self, fig4):
        # a row at theta = 7.3, between the grid rows at 7 and 8, gets its
        # own step end, and the rows around it keep theirs
        rows = curve.sample(fig4, 16)
        interior = curve.sample(params(1.0, theta1=7.3), 2)[-1]
        assert interior.theta == 7.3
        L = ode_arc_length(fig4, 10_000, rows[:8] + [interior] + rows[8:])
        assert len(L) == 17
        closed = arc_length(fig4, 7.3)
        assert abs(L[8] - closed) / closed <= 1e-8
        for value, row in zip(L[7:10:2], rows[7:9]):
            assert abs(value - math.expm1(row.theta)) <= 1e-8 * math.expm1(row.theta)

    def test_reciprocal_family(self, fig7):
        L = ode_arc_length(fig7, 10_000, curve.sample(fig7, 16))
        assert abs(L[4] - 2.0) / 2.0 <= 1e-8

    @pytest.mark.parametrize("n", [2.0, -2.0])
    def test_square_root_phi_family(self, n):
        # f' is unbounded at theta0, so the first row is flagged and gets no L
        p = params(n, theta1=5.0, phi="sqrt(theta) + 0.6")
        L = ode_arc_length(p, 10_000, curve.sample(p, 2))
        closed = arc_length(p, 5.0)
        assert len(L) == 1
        assert abs(L[0] - closed) / abs(closed) <= 1e-8

    def test_rejects_few_steps(self, fig7):
        # a budget that runs out raises and is named; the first row
        # interval alone takes more than one step.  At n = 1 the slope in y
        # is constant, every step passes its error test, and the steps grow
        # so fast that a budget of 0 runs out only at theta = 13
        rows = curve.sample(fig7, 16)
        with pytest.raises(OdeBlowUp, match="^the budget of 0 steps beyond one per row ran out; last valid theta 0.0$"):
            ode_arc_length(fig7, 0, rows)
        assert len(ode_arc_length(fig7, 10_000, rows)) == 16

    def test_blow_up_reports_last_theta(self):
        p = params(1.0, a=5.0, theta1=10.0)
        with pytest.raises(OdeBlowUp) as exc:
            ode_arc_length(p, 10_000, curve.sample(p, 101))
        # L = (1/5)(e^(5 theta) - 1) crosses 1e12 near theta = ln(5e12)/5,
        # between the rows at 5.8 and 5.9
        assert exc.value.theta_last == pytest.approx(5.8)
        assert exc.value.L_last == pytest.approx(arc_length(p, exc.value.theta_last), rel=1e-12)
        assert exc.value.L_last <= 1e12
        assert str(exc.value).startswith("arc length exceeded 1e+12; last valid theta ")

    @pytest.mark.parametrize(
        "n,a,b,cause,count",
        [
            # a*L + b falls to 0 at the domain end, theta = 2, before L is
            # large: y runs down until the slope a*(a*L + b)^(-1/2) overflows
            (2.0, -1.0, 1.0, r"a\*L \+ b fell toward 0", 64),
            # rho = (1 + L)^100 overflows near the domain end, u = 1/99
            (0.01, 1.0, 1.0, r"\(a\*L \+ b\)\^\(1/n\) overflowed", 64),
            # the slope in y starts at a*b^(1/n - 1) = 1e300, and L passes
            # 1e12 in the first step
            (0.5, 1.0, 1e300, r"arc length exceeded 1e\+12", 64),
            # y rises, so the cause is the overflow, whatever the row count
            (0.01, 1.0, 1.0, r"\(a\*L \+ b\)\^\(1/n\) overflowed", 1024),
            (0.3, 2.0, 1.0, r"\(a\*L \+ b\)\^\(1/n\) overflowed", 64),
        ],
    )
    def test_blow_up_names_its_cause(self, n, a, b, cause, count):
        p = params(n, a=a, b=b, theta1=5.0, phi="pi/8")
        with pytest.raises(OdeBlowUp, match=f"^{cause}; last valid theta "):
            ode_arc_length(p, 10_000, curve.sample(p, count))

    @pytest.mark.parametrize("count", [121, 241])
    def test_fifth_order_row_halving(self, fig7, count, monkeypatch):
        # with every step accepted, each row interval is one step once the
        # first few have grown past the row spacing; halving the spacing
        # cuts the error about 32-fold, where a fourth-order pair gives 16.
        # At n = 1 the slope in y is constant and no step has an error
        monkeypatch.setattr(diffgeo, "_ODE_TOL", math.inf)
        closed = arc_length(fig7, fig7.theta1)
        coarse = ode_arc_length(fig7, 100, curve.sample(fig7, count))[-1]
        fine = ode_arc_length(fig7, 100, curve.sample(fig7, 2 * count - 1))[-1]
        assert abs(coarse - closed) >= 24.0 * abs(fine - closed) > 0.0


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

    @pytest.mark.parametrize(
        "phi,c",
        [("pi/3", math.pi / 3), ("pi/4", math.pi / 4), ("2*pi/5", 2 * math.pi / 5)],
        ids=["pi/3", "pi/4", "2pi/5"],
    )
    def test_compatible_spiral_arc_length_to_round_off(self, phi, c):
        # n = 1, a = cot c: the trace is the law's own log spiral, so its
        # length is L.  The chord polygons measure it to round-off over all
        # of [0, 15], where R reaches 3.3e6 at c = pi/4; adaptive Simpson of
        # sqrt(R^2 + R'^2), with R' by central difference, read 2.5e-10,
        # 1.6e-9 and 2.6e-11
        report = compare(params(1.0, a=1.0 / math.tan(c), phi=phi), 512)
        assert report.degenerate_rows == 0
        assert report.arc_residual.max <= 1e-13

    def test_constant_phi_traces_match_their_closed_form(self):
        # for phi = c and any n, R = rho*sin c and R'/R = g = a*rho^(1-n)/n,
        # so the trace's own curvature and tangential angle are
        #   kappa_trace = (1 + n*g^2) / (R*(1 + g^2)^(3/2)),  psi_trace = acot(g)
        # even where the law is not the trace's.  300 draws from a fixed seed
        # measured 14,090 rows, worst 2.14e-5 and 6.04e-6 (the stencils'
        # floor); the bounds leave 2.3x and 2.5x.  78 draws end in OdeBlowUp:
        # they are counted, not avoided by narrower ranges, and at least
        # 10,000 rows must still be measured
        rng = random.Random(15)
        ended = {}
        rows = 0
        for _ in range(300):
            n = rng.choice((3.0, -3.0, 2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 1.5))
            a = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-2.0, 1.0)
            b = 10.0 ** rng.uniform(-2.0, 2.0)
            c = rng.uniform(0.05, math.pi - 0.05)
            try:
                report = compare(params(n, a=a, b=b, theta1=5.0, phi=repr(c)), 64)
            except (OdeBlowUp, curve.DomainExceeded) as exc:
                ended[type(exc).__name__] = ended.get(type(exc).__name__, 0) + 1
                continue
            for row, closed in zip(report.rows, report.samples):
                if row.degenerate:
                    continue
                g = a * closed.rho ** (1.0 - n) / n
                kappa = (1.0 + n * g * g) / (closed.R * (1.0 + g * g) ** 1.5)
                assert closed.R * abs(row.kappa_numeric - kappa) <= 5e-5, (n, a, b, c, row.theta)
                gap = abs(row.phi_actual - math.atan2(1.0, g)) % math.pi
                assert min(gap, math.pi - gap) <= 1.5e-5, (n, a, b, c, row.theta)
                rows += 1
        assert rows >= 10_000, f"{rows} rows measured; draws that ended: {ended}"

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

    def test_no_segment_is_measured_once_s_is_lost(self, monkeypatch):
        # the first segment fails, and no later one can make s finite again
        calls = []
        measure = diffgeo.numeric_arc_length

        def counting(R, theta_a, theta_b):
            calls.append(theta_a)
            return measure(R, theta_a, theta_b)

        monkeypatch.setattr(diffgeo, "numeric_arc_length", counting)
        report = compare(params(1.0, phi="theta^0.25 + 3"), 32)
        assert calls == [0.0]
        assert all(math.isnan(r.s_numeric) for r in report.rows[1:])

    def test_an_rms_whose_squares_overflow_stays_finite(self):
        # v*v overflows on this input's arc residuals, whose max is 1.39e172
        p = CurveParams(-8.880053305523809e58, 1, 2, 1.146207586290556e-175, 1, parse("ln(theta)"))
        arc = compare(p, 6).arc_residual
        assert arc.max == 1.3869619828845515e172
        assert math.isfinite(arc.rms) and arc.rms <= arc.max
        # each square is finite here, but fsum's running sum overflows
        assert diffgeo._summary([1e154, 1e154]) == (1e154, 1e154, 2)

    def test_a_degenerate_row_lends_r_to_both_its_segments(self):
        # 1 + f' = (theta - 1)^4, so R and R' vanish at theta = 1: row 1's
        # stencil raises, but its sampled R still ends segment 1 and starts
        # segment 2
        p = params(1.0, theta1=2.0, phi="(theta - 1)^5/5 - theta + 2")
        report = compare(p, 3)
        assert [r.degenerate for r in report.rows] == [False, True, False]

        def R(t):
            return radius_at(p, t)

        s = numeric_arc_length(R, 0.0, 1.0) + numeric_arc_length(R, 1.0, 2.0)
        assert report.rows[2].s_numeric == s == pytest.approx(1.30481262, rel=1e-8)

    def test_a_turn_that_goes_back_counts_every_row(self):
        # 1 + f' = 1 + 2.4 cos(3 theta) < 0 on 21 of the 63 grid intervals,
        # so the turn goes back and forth, and 3 rows turn further than
        # theta1; each in-domain row is checked at its own turn
        p = params(2.0, theta1=5.0, phi="0.8*sin(3*theta) + 1")
        turns = [curve.turn_angle(p, r.theta) for r in curve.sample(p, 64)]
        assert sum(b < a for a, b in zip(turns, turns[1:])) == 21
        assert sum(u > turns[-1] for u in turns) == 3
        report = compare(p, 64)
        assert report.ode_residual.count == 64
        assert report.ode_residual.max <= 1e-12

    def test_work_per_row(self, monkeypatch):
        # R at a grid theta comes from the sampled row, so the stencils
        # evaluate R at theta +- h and each segment only between its rows; R
        # takes phi from its one dual evaluation, and the prescribed phi and
        # the ODE check's turn at each row come from the sampled row, so plain
        # phi values remain only for phi(theta0) and the ODE's total turn.
        # At 1,024 rows of pi/8 that is 5,117 R calls, which the bound
        # exceeds by 5 %, and 2 phi values
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
        assert calls["R"] <= 5.25 * 1024
        assert calls["phi"] <= 8

    def test_memory_stays_bounded_when_segments_exhaust_the_budget(self):
        # the first of the 7 segments of a 1e6-radian sweep of an
        # oscillating R makes 8,191 R calls before it stops at the budget,
        # and the rest are not measured; its points are held, about 0.4 MB
        p = params(2.0, b=2.0, theta1=1e6, phi="sin(theta)")
        tracemalloc.start()
        try:
            report = compare(p, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.degenerate_rows == 7
        assert peak < 2_000_000

    # the row-model cases the oracle can re-integrate; the others end in OdeBlowUp
    @pytest.mark.parametrize("case", ["n-1", "sqrt-at-0"])
    def test_samples_are_the_closed_form_rows(self, case):
        _, args, count = next(c for c in ROW_MODEL_CASES if c[0] == case)
        p = row_model_case(args)
        report = compare(p, count)
        assert [_bits(r) for r in report.samples] == [_bits(r) for r in curve.sample(p, count)]
        assert [r.theta for r in report.samples] == [r.theta for r in report.rows]

    def test_row_columns_join_closed_and_numeric(self, fig4):
        report = compare(fig4, 16)
        mid, closed = report.rows[8], report.samples[8]
        assert closed.theta == mid.theta
        assert closed.L == arc_length(fig4, mid.theta)
        assert closed.phi == math.pi / 2
        assert closed.rho == pytest.approx(closed.L + 1.0, rel=1e-15)


class TestArcLengthBudget:
    def test_oscillating_segment_stops_at_the_budget(self):
        # a smooth R that oscillates over 1e6 radians: without a budget the
        # polygons would double until about a million chords; the 8,193
        # points of 8,192 chords fit in the budget and the next 8,192 do not
        calls = []

        def R(t):
            calls.append(t)
            return 2.0 + math.sin(t)

        with pytest.raises(ToleranceNotMet, match="budget of 12288 R calls"):
            numeric_arc_length(R, 0.0, 1e6)
        assert len(calls) == 2 ** 13 + 1
        assert len(calls) <= diffgeo._ARC_MAX_R_CALLS < 2 ** 14 + 1

    def test_a_whole_figure_range_fits_in_the_budget(self, fig7):
        # one segment over all of [0, 15] takes the 1,025 points of 1,024
        # chords, under a tenth of the budget, and agrees with the sum over a
        # fine grid
        calls = []

        def R(t):
            calls.append(t)
            return radius_at(fig7, t)

        whole = numeric_arc_length(R, 0.0, 15.0)
        assert len(calls) == 2 ** 10 + 1
        assert 10 * len(calls) <= diffgeo._ARC_MAX_R_CALLS
        grid = [15.0 * i / 64 for i in range(65)]
        pieces = math.fsum(numeric_arc_length(R, s, t) for s, t in zip(grid, grid[1:]))
        assert whole == pytest.approx(pieces, rel=1e-9)
