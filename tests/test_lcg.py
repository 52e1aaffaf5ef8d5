import math
import random

import pytest

from polarlac import (
    DegenerateFit,
    LcgPoint,
    TooFewPoints,
    compare,
    lcg_closed_form,
    lcg_numeric,
    lcg_points,
    linear_fit,
    sample,
)
from polarlac.diffgeo import OracleReport, OracleRow, ResidualSummary
from polarlac import curve
from conftest import ROW_MODEL_CASES, params, point, row_model_case


class TestLcgClosedForm:
    def test_identity_line(self, fig4):
        # n=1, a=1: dL/d log rho equals rho itself, bit for bit
        for pt in lcg_closed_form(fig4, 64):
            assert pt.y == pt.x

    def test_intercept_shifts_with_rate(self):
        p = params(1.0, a=2.0, theta1=5.0)
        for pt in lcg_closed_form(p, 64):
            assert pt.y - pt.x == pytest.approx(math.log(0.5), abs=1e-14)

    def test_negative_slope(self, fig7):
        for pt in lcg_closed_form(fig7, 64):
            assert pt.y == pytest.approx(-pt.x, abs=1e-13)

    def test_skips_rows_past_domain(self):
        p = params(0.5, theta1=2.0)
        points = lcg_closed_form(p, 64)
        assert 2 <= len(points) < 64
        assert all(math.isfinite(pt.x) and math.isfinite(pt.y) for pt in points)

    def test_skips_rows_that_overflow(self):
        assert lcg_closed_form(params(0.5, b=1e300, theta1=1.0, phi="theta"), 2) == []
        points = lcg_closed_form(params(1.0, theta1=400.0, phi="theta"), 5)
        assert len(points) == 4

    def test_count_too_small(self, fig4):
        with pytest.raises(ValueError):
            lcg_closed_form(fig4, 1)

    def test_skips_rows_where_rho_is_not_positive(self):
        # with 1/n = inf, a*L + b is 0 past theta0, and rho = 0.5^inf is 0 at it
        p = params(5e-324, a=1e300, b=0.5, theta0=1e-300, theta1=1.0, phi="0.01*theta + 0.3")
        assert lcg_closed_form(p, 5) == []

    def test_skips_rows_without_a_logarithm(self):
        # |n/a| * (a*L + b) underflows to 0
        p = params(1.0000000001, a=1e300, b=1e-300, theta1=1e-300, phi="1/(theta - 1)")
        assert lcg_closed_form(p, 5) == []

    def test_points_come_only_from_normal_floats(self):
        # rho = e^(-1000*theta) is subnormal at theta = 0.724, where its
        # logarithm is not exact and the point once left the line by 2e-7
        p = params(1.0, a=-1000.0, theta1=10.0)
        points = lcg_closed_form(p, 512)
        assert len(points) == 36
        for pt in points:
            assert abs(pt.y - (pt.x + math.log(1e-3))) <= 1e-12
        assert abs(linear_fit(points).intercept - math.log(1e-3)) <= 1e-13

    def test_skips_rows_where_rho_is_nan(self):
        # a*(n - 1) underflows to 0, so x is carried as ln|x|, and the turn
        # at theta1 overflows to inf: that row is flagged and skipped
        p = params(1.25, a=5e-324, theta0=-1.0, theta1=1.0, phi="1e308*theta")
        points = lcg_closed_form(p, 5)
        assert len(points) == 4
        assert all(pt.x == pt.x for pt in points)


def _lcg_by_theta(p, count):
    # the graph as it was computed before it was taken from the sample rows:
    # rho evaluated again at each theta, by the point where it evaluates and
    # from phi's value alone where it does not, and a*L + b taken as rho^n
    scale = abs(p.n / p.a)
    points = []
    for theta in curve._grid(p, count):
        try:
            try:
                rho = point(p, theta)[1]
            except curve.ROW_ERRORS:
                rho = curve.arc_and_rho(p, theta)[1]
            if not rho > 0.0:
                continue
            points.append(LcgPoint(math.log(rho), math.log(scale * rho ** p.n)))
        except curve.ROW_ERRORS:
            continue
    return points


@pytest.mark.parametrize("args,count", [case[1:] for case in ROW_MODEL_CASES], ids=[c[0] for c in ROW_MODEL_CASES])
def test_points_from_rows_match_the_per_theta_graph(args, count):
    p = row_model_case(args)
    points = lcg_points(p, sample(p, count))
    assert all(type(pt) is LcgPoint for pt in points)
    assert repr(points) == repr(_lcg_by_theta(p, count))
    assert lcg_closed_form(p, count) == points


def test_a_flagged_row_keeps_its_graph_point():
    # f' is unbounded at theta0 = 0, so sample() flags row 0; the graph
    # still has its point, as it had before it was built from the rows
    p = params(2.0, theta0=0.0, theta1=5.0, phi="sqrt(theta) + 0.6")
    rows = sample(p, 8)
    assert [r.valid.in_domain for r in rows] == [False] + [True] * 7
    assert len(lcg_points(p, rows)) == 8


def test_rows_past_the_domain_build_no_domain_exceeded(monkeypatch):
    # n = 2, a = -1: x = -u/2 reaches -1 at theta = 2, and every row from
    # there to theta1 = 5 is flagged and evaluated again for its point
    p = params(2.0, a=-1.0, theta1=5.0, phi="pi/8")
    built = []
    init = curve.DomainExceeded.__init__

    def counting_init(self, p, theta):
        built.append(theta)
        init(self, p, theta)

    monkeypatch.setattr(curve.DomainExceeded, "__init__", counting_init)
    rows = sample(p, 256)
    assert sum(not r.valid.in_domain for r in rows) > 100
    assert lcg_points(p, rows)
    assert built == []


def _synthetic_report(rhos, step=0.1):
    rows = []
    for i, rho in enumerate(rhos):
        rows.append(
            OracleRow(
                theta=float(i),
                kappa_numeric=1.0 / rho,
                rho_numeric=rho,
                s_numeric=step * i,
                phi_actual=1.0,
                degenerate=False,
            )
        )
    empty = ResidualSummary(0.0, 0.0, len(rows))
    return OracleReport(
        rows=rows,
        rho_residual=empty,
        phi_residual=empty,
        arc_residual=empty,
        ode_residual=empty,
        degenerate_rows=0,
        samples=[],  # lcg_numeric reads only the oracle rows
    )


class TestLcgNumeric:
    def test_constant_radius_degenerates(self):
        with pytest.raises(TooFewPoints):
            lcg_numeric(_synthetic_report([2.0] * 8))

    def test_too_few_rows(self):
        with pytest.raises(TooFewPoints, match="5 oracle rows"):
            lcg_numeric(_synthetic_report([1.0, 2.0, 3.0, 4.0]))

    def test_degenerate_neighbours_excluded(self, fig7):
        report = compare(fig7, 32)
        points = lcg_numeric(report)
        assert all(math.isfinite(pt.x) and math.isfinite(pt.y) for pt in points)
        # interior rows only: both neighbours must be measurable
        assert len(points) <= 30

    def test_compatible_spiral_is_straight(self, compatible_spiral):
        fit = linear_fit(lcg_numeric(compare(compatible_spiral, 64)))
        assert fit.slope == pytest.approx(1.0, abs=1e-3)
        assert fit.r_squared >= 0.999999

    def test_slowly_varying_phi_near_straight(self, fig5):
        fit = linear_fit(lcg_numeric(compare(fig5, 64)))
        assert fit.slope == pytest.approx(1.0, abs=1e-2)
        assert fit.r_squared >= 0.9999


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([LcgPoint(0.0, 0.0), LcgPoint(1.0, 2.0), LcgPoint(2.0, 4.0)])
        assert fit.slope == 2.0
        assert fit.intercept == 0.0
        assert fit.r_squared == 1.0
        assert fit.count == 3

    def test_flat_fit_with_scatter(self):
        fit = linear_fit([LcgPoint(0.0, 0.0), LcgPoint(1.0, 1.0), LcgPoint(2.0, 0.0)])
        assert fit.slope == 0.0
        assert fit.intercept == 1.0 / 3.0
        assert fit.r_squared == 0.0

    def test_vertical_data(self):
        with pytest.raises(DegenerateFit):
            linear_fit([LcgPoint(1.0, 5.0), LcgPoint(1.0, 7.0)])

    def test_single_point(self):
        with pytest.raises(TooFewPoints, match="2 points"):
            linear_fit([LcgPoint(1.0, 5.0)])

    def test_horizontal_data_r_squared_one(self):
        fit = linear_fit([LcgPoint(0.0, 3.0), LcgPoint(1.0, 3.0), LcgPoint(2.0, 3.0)])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_r_squared_stays_in_range(self, fig7):
        fit = linear_fit(lcg_numeric(compare(fig7, 64)))
        assert 0.0 <= fit.r_squared <= 1.0

    def test_permutation_invariant(self):
        rng = random.Random(42)
        points = [LcgPoint(rng.uniform(-3, 3), rng.uniform(-5, 5)) for _ in range(40)]
        base = linear_fit(points)
        for seed in (1, 2, 3):
            shuffled = points[:]
            random.Random(seed).shuffle(shuffled)
            again = linear_fit(shuffled)
            assert again.slope == base.slope
            assert again.intercept == base.intercept
            assert again.r_squared == base.r_squared

    def test_affine_equivariant_in_y(self):
        rng = random.Random(7)
        points = [LcgPoint(rng.uniform(0, 4), rng.uniform(-2, 2)) for _ in range(25)]
        alpha, gamma = -2.5, 0.7
        mapped = [LcgPoint(pt.x, alpha * pt.y + gamma) for pt in points]
        base = linear_fit(points)
        moved = linear_fit(mapped)
        assert moved.slope == pytest.approx(alpha * base.slope, rel=1e-12)
        assert moved.intercept == pytest.approx(alpha * base.intercept + gamma, rel=1e-12)
        assert moved.r_squared == pytest.approx(base.r_squared, abs=1e-12)
