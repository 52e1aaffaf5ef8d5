"""Independent numeric differential geometry on the sampled trace.

Everything here works from the radius function R(theta) alone, through
central finite differences, Romberg-extrapolated lengths of inscribed
polygons, and an error-controlled fifth-order re-integration of the law in
ln(a*L + b).  None of it reuses the closed forms being checked, which is the
whole point: curve.py predicts, this module measures.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

from . import curve as _curve
from .curve import ROW_ERRORS, CurveParams, CurveSample, turn_angle

_DEGENERATE_FLOOR = 1e-24
_ARC_TOL = 1e-10
# R calls one numeric_arc_length call may make: the 8,193 points of 8,192
# chords fit, 16,385 do not; one segment over all of a figure's [0, 15]
# takes 1,025
_ARC_MAX_R_CALLS = 12_288
_BLOWUP_LIMIT = 1e12
# the re-integration's step budget beyond one per row: an exponential law,
# whose slope in y is constant, takes a few steps, and n = 2 over 1,000
# radians about 1,700
_ODE_STEPS = 30_000
# each step's error estimate relative to L: 1e-15 keeps every figure
# configuration within 4e-15 of the closed form
_ODE_TOL = 1e-15
# the shortest step relative to u, taken whatever its error: no shorter one
# resolves the law, and at a singularity the pass steps in and a stage raises
_ODE_MIN_STEP = 1e-14


class DegeneratePoint(ArithmeticError):
    """R and R' both vanish; no direction to measure."""


class ToleranceNotMet(ArithmeticError):
    def __init__(self, a: float, b: float, limit: str):
        super().__init__(f"quadrature on [{a!r}, {b!r}] hit {limit}")


class OdeBlowUp(ArithmeticError):
    """The re-integration stopped; ``cause`` says why."""

    def __init__(self, theta_last: float, L_last: float, cause: str = f"arc length exceeded {_BLOWUP_LIMIT:g}"):
        super().__init__(f"{cause}; last valid theta {theta_last!r}")
        self.theta_last = theta_last
        self.L_last = L_last


def default_step(theta: float) -> float:
    """Central-difference step balancing truncation against round-off."""
    return 1e-5 * max(1.0, abs(theta))


def _stencil(R: Callable[[float], float], theta: float, h: float | None) -> tuple[float, float, float]:
    # R, R' and R'' at theta from one three-point central difference
    if h is None:
        h = default_step(theta)
    r_minus = R(theta - h)
    r0 = R(theta)
    r_plus = R(theta + h)
    rp = (r_plus - r_minus) / (2.0 * h)
    if r0 * r0 + rp * rp < _DEGENERATE_FLOOR:
        raise DegeneratePoint(f"R and R' vanish near theta={theta!r}")
    return r0, rp, (r_plus - 2.0 * r0 + r_minus) / (h * h)


def numeric_curvature(R: Callable[[float], float], theta: float, h: float | None = None) -> float:
    """Signed curvature of the polar trace from second-order stencils:

    kappa = (R^2 + 2 R'^2 - R R'') / (R^2 + R'^2)^(3/2)
    """
    r0, rp, rpp = _stencil(R, theta, h)
    denom = r0 * r0 + rp * rp
    return (denom + rp * rp - r0 * rpp) / denom ** 1.5


def numeric_phi(R: Callable[[float], float], theta: float, h: float | None = None) -> float:
    """Actual tangential angle atan2(R, R'), folded into (0, pi]."""
    r0, rp, _ = _stencil(R, theta, h)
    v = math.atan2(r0, rp) % math.pi
    if v == 0.0:
        v = math.pi
    return v


def numeric_arc_length(R: Callable[[float], float], theta_a: float, theta_b: float) -> float:
    """Geometric arc length of the trace P(theta) = R(theta) * (cos theta,
    sin theta) on [theta_a, theta_b], from R alone: the lengths of its
    inscribed polygons with 1, 2, 4, ... equal chords, each reusing the
    points of the last, extrapolated by Romberg's scheme, since a chord sum's
    error is a series in even powers of the chord's span (Press et al.,
    Numerical Recipes, 3rd ed., 4.3).  Returns once two successive
    extrapolations, from four chords on, agree to 1e-10, or on a longer
    trace to their own round-off.

    Raises ToleranceNotMet at the first polygon whose length is not finite,
    or when the next polygon would take the R calls past _ARC_MAX_R_CALLS: a
    long, oscillating segment cannot run unbounded.
    """
    if theta_a > theta_b:
        raise ValueError("theta_a must not exceed theta_b")
    if theta_a == theta_b:
        return 0.0
    span = theta_b - theta_a
    points = [cmath.rect(R(theta_a), theta_a), cmath.rect(R(theta_b), theta_b)]
    last = [abs(points[1] - points[0])]  # the last row of the Romberg tableau
    while True:
        m = len(points) - 1
        if len(points) + m > _ARC_MAX_R_CALLS:
            raise ToleranceNotMet(theta_a, theta_b, f"its budget of {_ARC_MAX_R_CALLS} R calls")
        step = span / (2 * m)
        refined = [0j] * (2 * m + 1)
        refined[::2] = points
        refined[1::2] = [cmath.rect(R(t), t) for t in (theta_a + (2 * j + 1) * step for j in range(m))]
        points = refined
        row = [math.fsum(abs(q - p) for p, q in zip(points, points[1:]))]
        if not math.isfinite(row[0]):  # no refinement makes it finite
            raise ToleranceNotMet(theta_a, theta_b, "a polygon length that is not finite")
        for j, coarse in enumerate(last, 1):
            row.append(row[-1] + (row[-1] - coarse) / (4 ** j - 1))
        # the round-off is 16 ulps of the length: a polygon's chords and
        # their fsum are off by at most 4 ulps, the Romberg weights' absolute
        # sum stays below 2, and the gap takes two values.  It passes 1e-10
        # from a length of 2^15 on
        if m > 1 and abs(row[-1] - last[-1]) <= max(_ARC_TOL, 16 * math.ulp(row[-1])):
            return row[-1]
        last = row


def ode_arc_length(p: CurveParams, steps: int, rows: list[CurveSample]) -> list[float]:
    """L at the turn of each in-domain row of ``rows`` (``curve.sample``'s),
    in order, re-integrated from dL/du = (a*L + b)^(1/n) over the tangent
    turn u, whose right-hand side is smooth even where f' is unbounded.  The
    pass carries y = ln((a*L + b)/b), in which a*L + b = b*e^y is positive by
    construction: dy/du = a*(a*L + b)^(1/n - 1), and L = b*expm1(y)/a.

    A row's turn comes from its theta and prescribed phi, never from L or
    rho.  One pass of the Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6,
    1980) sizes each signed step by the pair's error estimate, taken to L by
    dL = (a*L + b)/a * dy, relative to L (Hairer, Norsett and Wanner, Solving
    ODEs I, II.4), ends a step exactly on each row's turn, and goes on to
    theta1's turn, so a law that blows up before theta1 is caught whatever
    rows are flagged.  ``steps`` is the budget of trial steps beyond one per
    row.  Raises OdeBlowUp, with the last row theta reached, where the budget
    runs out, L exceeds 1e12, or a slope overflows as y runs down (a*L + b
    toward 0) or up.
    """
    u_total = turn_angle(p, p.theta1)
    if not u_total > 0.0:
        raise ValueError("tangent turn must increase from theta0 to theta1")

    a, b, theta0, phi0 = p.a, p.b, p.theta0, p.phi0
    power, log_b, exp, expm1 = 1.0 / p.n - 1.0, math.log(b), math.exp, math.expm1

    def slope(y: float) -> float:  # from ln(a*L + b), which cannot underflow; a itself at n = 1
        return a * exp(power * (log_b + y))

    targets = [(r.theta, (r.theta - theta0) + (r.phi - phi0)) for r in rows if r.valid.in_domain]
    left = steps + len(rows)
    Ls: list[float] = []
    theta_last, L_last, u, y, L, lost, du = theta0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    try:
        k1 = slope(0.0)
        # first try 1% of the turn over which y changes by 1
        h = min(0.01 / abs(k1), u_total) if 0.0 < abs(k1) < math.inf else u_total
        for theta, target in targets + [(None, u_total)]:
            while u != target:
                if not left:
                    raise OdeBlowUp(theta_last, L_last, f"the budget of {steps} steps beyond one per row ran out")
                left -= 1
                step = max(h, _ODE_MIN_STEP * abs(u))
                end = target if step >= abs(target - u) else u + math.copysign(step, target - u)
                du = end - u
                k2 = slope(y + du * (k1 / 5))
                k3 = slope(y + du * (3 / 40 * k1 + 9 / 40 * k2))
                k4 = slope(y + du * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
                k5 = slope(y + du * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4))
                k6 = slope(y + du * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                                     - 5103 / 18656 * k5))
                # lost, the rounding of the last accepted y + dy, goes into the
                # next one (compensated summation): y does not drift over many steps
                dy = du * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5 + 11 / 84 * k6) - lost
                y_new = y + dy
                L_new = b * expm1(y_new) / a
                k7 = slope(y_new)
                # the gap between the fifth- and fourth-order solutions, in L
                err = abs(du * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4 - 17253 / 339200 * k5
                                + 22 / 525 * k6 - 1 / 40 * k7) * (L_new + b / a))
                scale = _ODE_TOL * max(abs(L), abs(L_new))
                if err <= scale or step > h:
                    u, y, L, k1, lost = end, y_new, L_new, k7, (y_new - y) - dy
                    if not abs(L) <= _BLOWUP_LIMIT:  # also holds for an L that is inf or NaN
                        raise OverflowError
                h = abs(du) * min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2 if err else 5.0))
            if theta is not None:
                theta_last, L_last = theta, L
                Ls.append(L)
    except OverflowError:
        if not abs(L) <= _BLOWUP_LIMIT:
            raise OdeBlowUp(theta_last, L_last) from None
        cause = "a*L + b fell toward 0" if a * du < 0.0 else "(a*L + b)^(1/n) overflowed"  # y ran down or up
        raise OdeBlowUp(theta_last, L_last, cause) from None
    return Ls


class OracleRow(NamedTuple):
    """What the oracle measured at one grid theta, from R(theta) alone; the
    closed-form side of ``report.rows[i]`` is ``report.samples[i]``."""

    theta: float
    kappa_numeric: float
    rho_numeric: float
    s_numeric: float
    phi_actual: float
    degenerate: bool


class ResidualSummary(NamedTuple):
    max: float
    rms: float
    count: int


class OracleReport(NamedTuple):
    """What ``compare`` measured, and the closed-form rows it measured
    against: ``rows[i]`` and ``samples[i]`` are the same grid theta."""

    rows: list[OracleRow]
    rho_residual: ResidualSummary       # |rho_numeric - rho| / |rho|
    phi_residual: ResidualSummary       # angular distance mod pi from the prescribed phi, absolute
    arc_residual: ResidualSummary       # |s_numeric - L| / max(|L|, 1e-12)
    ode_residual: ResidualSummary       # |L_ode - L| / max(|L|, 1e-12)
    degenerate_rows: int
    samples: list[CurveSample]          # curve.sample's rows, one per oracle row


def _summary(values: list[float]) -> ResidualSummary:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return ResidualSummary(math.nan, math.nan, 0)
    return ResidualSummary(
        max(finite), math.sqrt(math.fsum(v * v for v in finite) / len(finite)), len(finite)
    )


def _angle_distance_mod_pi(x: float, y: float) -> float:
    m = abs(x - y) % math.pi
    return min(m, math.pi - m)


def compare(p: CurveParams, count: int) -> OracleReport:
    """Run the full oracle on the sample grid and join it with the closed
    forms.  The oracle measures R(theta) alone; L, rho and the prescribed
    phi of each row come from ``curve.sample``'s row at the same theta,
    returned as ``samples`` for ``lcg.lcg_points`` to draw the graph from
    without sampling again.  Rows where the numeric side is not measurable
    (endpoint domain failures, degenerate points, failed quadrature
    segments) are flagged degenerate and excluded from the residual
    summaries rather than aborting the run.  Each row is measured in one
    step: its stencils, then the arc-length segment ending there, then its
    residuals."""
    closed = _curve.sample(p, count)
    ode = iter(ode_arc_length(p, _ODE_STEPS, closed))

    # one row's R values: the row's own and the previous row's, which an
    # in-domain row holds bitwise radius_at's, and R at theta +- default_step,
    # which the first stencil evaluates and the second reads; the segment
    # between the two rows reads its ends here and keeps none of its own
    near: dict[float, float] = {}

    def keep(t: float) -> float:
        r = near.get(t)
        if r is None:
            r = near[t] = _curve.radius_at(p, t)
        return r

    def look(t: float) -> float:
        r = near.get(t)
        return _curve.radius_at(p, t) if r is None else r

    rows: list[OracleRow] = []
    rho_res: list[float] = []
    phi_res: list[float] = []
    arc_res: list[float] = []
    ode_res: list[float] = []
    degenerate_count = 0
    s = 0.0

    for i, c in enumerate(closed):
        theta = c.theta
        near = {r.theta: r.R for r in closed[max(i - 1, 0):i + 1] if r.valid.in_domain}
        try:
            kappa = numeric_curvature(keep, theta)
            phi_act = numeric_phi(keep, theta)
            rho_num = 1.0 / kappa if kappa != 0.0 else math.nan
        except ROW_ERRORS:
            kappa = phi_act = rho_num = math.nan
        if i:
            try:
                s += numeric_arc_length(look, closed[i - 1].theta, theta)
            except ROW_ERRORS:
                s = math.nan

        degenerate = not (
            c.valid.in_domain
            and math.isfinite(kappa)
            and math.isfinite(rho_num)
            and math.isfinite(s)
        )
        if degenerate:
            degenerate_count += 1
        rows.append(OracleRow(theta, kappa, rho_num, s, phi_act, degenerate))
        # the re-integrated L needs only the closed-form row, not the trace,
        # so it stays measurable even when the numeric columns are not
        if c.valid.in_domain:
            ode_res.append(abs(next(ode) - c.L) / max(abs(c.L), 1e-12))
        if degenerate:
            continue
        rho_res.append(abs(rho_num - c.rho) / abs(c.rho))
        if math.isfinite(phi_act) and math.isfinite(c.phi):
            phi_res.append(_angle_distance_mod_pi(phi_act, c.phi))
        arc_res.append(abs(s - c.L) / max(abs(c.L), 1e-12))

    return OracleReport(
        rows=rows,
        rho_residual=_summary(rho_res),
        phi_residual=_summary(phi_res),
        arc_residual=_summary(arc_res),
        ode_residual=_summary(ode_res),
        degenerate_rows=degenerate_count,
        samples=closed,
    )
