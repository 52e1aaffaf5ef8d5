"""Independent numeric differential geometry on the sampled trace.

Everything here works from the radius function R(theta) alone, through
central finite differences, adaptive Simpson quadrature, and a fixed-step
fourth-order re-integration of the arc-length law.  None of it reuses the
closed forms being checked, which is the whole point: curve.py predicts,
this module measures.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import curve as _curve
from .curve import ROW_ERRORS, CurveParams, CurveSample, NonpositiveRho, turn_angle

_DEGENERATE_FLOOR = 1e-24
_SIMPSON_TOL = 1e-10
_SIMPSON_MAX_DEPTH = 48
# integrand evaluations one numeric_arc_length call may make: 16 times the
# most that any grid segment of the test suite or the benchmark needs (257),
# and 3 times what one segment over a whole figure range needs (1345)
_SIMPSON_MAX_EVALS = 4096
_NOISE_FLOOR = 2.0 ** -34
_BLOWUP_LIMIT = 1e12
_ODE_STEPS = 10_000


class DegeneratePoint(ArithmeticError):
    """R and R' both vanish; no direction to measure."""


class ToleranceNotMet(ArithmeticError):
    def __init__(self, a: float, b: float, limit: str = "max refinement depth"):
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


def _adaptive_simpson(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    refined = left + right
    err = abs(refined - whole)
    # the integrand carries central-difference noise of about
    # eps/(2 * 1e-5) ~ 1e-11 relative, so below that scale the error
    # estimate is round-off, not truncation; refining further only recurses
    # on noise without converging
    if err <= 15.0 * tol or err <= _NOISE_FLOOR * abs(refined):
        return refined + (refined - whole) / 15.0
    if depth >= _SIMPSON_MAX_DEPTH:
        raise ToleranceNotMet(a, b)
    half = 0.5 * tol
    return _adaptive_simpson(g, a, m, fa, flm, fm, left, half, depth + 1) + _adaptive_simpson(
        g, m, b, fm, frm, fb, right, half, depth + 1
    )


def numeric_arc_length(R: Callable[[float], float], theta_a: float, theta_b: float) -> float:
    """Geometric arc length: adaptive Simpson quadrature of sqrt(R^2 + R'^2)
    to absolute tolerance 1e-10, R' by central difference.

    Raises ToleranceNotMet when the quadrature reaches its maximum depth,
    or when it would evaluate the integrand more than _SIMPSON_MAX_EVALS
    times (three R calls each): a long, oscillating segment cannot run
    unbounded.
    """
    if theta_a > theta_b:
        raise ValueError("theta_a must not exceed theta_b")
    if theta_a == theta_b:
        return 0.0
    evals = 0

    def g(t: float) -> float:
        nonlocal evals
        evals += 1
        if evals > _SIMPSON_MAX_EVALS:
            raise ToleranceNotMet(
                theta_a, theta_b, f"its budget of {_SIMPSON_MAX_EVALS} integrand evaluations"
            )
        # sqrt(R^2 + R'^2), with default_step and the central difference inline
        h = 1e-5 * max(1.0, abs(t))
        return math.hypot(R(t), (R(t + h) - R(t - h)) / (2.0 * h))

    fa = g(theta_a)
    fb = g(theta_b)
    fm = g(0.5 * (theta_a + theta_b))
    whole = (theta_b - theta_a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(g, theta_a, theta_b, fa, fm, fb, whole, _SIMPSON_TOL, 0)


def _theta_of_turn(p: CurveParams, u_target: float) -> float:
    # invert the monotone turn map by bisection; value-only phi evaluation
    lo, hi = p.theta0, p.theta1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if turn_angle(p, mid) < u_target:
            lo = mid
        else:
            hi = mid
    return lo


def ode_arc_length(p: CurveParams, steps: int) -> Callable[[float], float]:
    """Re-integrate dL = rho d(beta) with a classical fourth-order scheme.

    The integration runs over the accumulated tangent turn u, where the law
    reads dL/du = (aL + b)^(1/n) with a smooth right-hand side even when
    f'(theta) is unbounded at an endpoint; dL/dtheta = (aL+b)^(1/n)(1+f')
    follows by the chain rule since u is strictly increasing on a valid
    domain.  Dense output comes from per-step cubic Hermite interpolation
    in u, so the returned function maps any theta in [theta0, theta1] to L.
    """
    if steps < 100:
        raise ValueError("steps must be at least 100")
    u_total = turn_angle(p, p.theta1)
    if not u_total > 0.0:
        raise ValueError("tangent turn must increase from theta0 to theta1")

    a, b = p.a, p.b
    inv_n = 1.0 / p.n
    # at n = 1 the slope a*L + b = b*exp(a*u) may round to 0 or below where
    # a < 0, and g ** 1.0 is g itself, so a*L + b is checked only elsewhere
    checked = p.n != 1.0
    du = u_total / steps
    half_du = 0.5 * du
    Ls = [0.0]
    L = 0.0
    k = 0
    # the right-hand side dL/du = (a L + b)^(1/n) is written out at each
    # stage, and k1 is the slope at the start of step k.  "not abs(L) <=
    # limit" also holds for an L that is infinite or NaN
    try:
        k1 = b ** inv_n  # the start slope b^(1/n) can itself overflow
        for k in range(steps):
            g = a * (L + half_du * k1) + b
            if g <= 0.0 and checked:
                raise NonpositiveRho(g)
            k2 = g ** inv_n
            g = a * (L + half_du * k2) + b
            if g <= 0.0 and checked:
                raise NonpositiveRho(g)
            k3 = g ** inv_n
            g = a * (L + du * k3) + b
            if g <= 0.0 and checked:
                raise NonpositiveRho(g)
            k4 = g ** inv_n
            L = L + du * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not abs(L) <= _BLOWUP_LIMIT:
                raise OverflowError
            g = a * L + b
            if g <= 0.0 and checked:
                raise NonpositiveRho(g)
            k1 = g ** inv_n
            Ls.append(L)
    except (OverflowError, NonpositiveRho) as exc:
        if isinstance(exc, NonpositiveRho):
            cause = str(exc)
        elif abs(L) <= _BLOWUP_LIMIT:  # L was accepted, so a slope overflowed
            cause = "(a*L + b)^(1/n) overflowed"
        else:
            cause = f"arc length exceeded {_BLOWUP_LIMIT:g}"
        raise OdeBlowUp(_theta_of_turn(p, k * du), Ls[-1], cause) from None

    slack = 1e-9 * max(1.0, abs(u_total))

    def dense(theta: float) -> float:
        # cubic Hermite interpolation in u on the step that holds theta
        u = turn_angle(p, theta)
        if u < -slack or u > u_total + slack:
            raise ValueError(f"theta={theta!r} is outside the integrated range")
        u = min(max(u, 0.0), u_total)
        k = min(int(u / du), steps - 1)
        t = (u - k * du) / du
        L0, L1 = Ls[k], Ls[k + 1]
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t * t * (3.0 - 2.0 * t)
        h11 = t * t * (t - 1.0)
        # the end slopes, as the integration computed them
        slope0, slope1 = (a * L0 + b) ** inv_n, (a * L1 + b) ** inv_n
        return h00 * L0 + h10 * du * slope0 + h01 * L1 + h11 * du * slope1

    return dense


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
    summaries rather than aborting the run."""
    closed = _curve.sample(p, count)
    thetas = [row.theta for row in closed]

    # the stencils and the two Simpson segments ending at a grid theta all
    # ask for R at theta and at theta +- default_step(theta).  An in-domain
    # row already holds R(theta), bitwise what radius_at gives; R at
    # theta +- h is kept when first evaluated, and nothing else is, so each
    # of these values is evaluated at most once, in bounded memory
    known = {c.theta: c.R for c in closed if c.valid.in_domain}
    shared = {t + s * default_step(t) for t in thetas for s in (-1.0, 1.0)}

    def R(t: float) -> float:
        r = known.get(t)
        if r is None:
            r = _curve.radius_at(p, t)
            if t in shared:
                known[t] = r
        return r

    ode = ode_arc_length(p, _ODE_STEPS)

    seg = [0.0] * len(thetas)
    for i in range(1, len(thetas)):
        try:
            seg[i] = numeric_arc_length(R, thetas[i - 1], thetas[i])
        except ROW_ERRORS:
            seg[i] = math.nan
    s_cum = [0.0] * len(thetas)
    for i in range(1, len(thetas)):
        s_cum[i] = s_cum[i - 1] + seg[i]

    rows: list[OracleRow] = []
    rho_res: list[float] = []
    phi_res: list[float] = []
    arc_res: list[float] = []
    ode_res: list[float] = []
    degenerate_count = 0

    for i, c in enumerate(closed):
        theta = c.theta
        try:
            kappa = numeric_curvature(R, theta)
            phi_act = numeric_phi(R, theta)
            rho_num = 1.0 / kappa if kappa != 0.0 else math.nan
        except ROW_ERRORS:
            kappa = math.nan
            phi_act = math.nan
            rho_num = math.nan

        degenerate = not (
            c.valid.in_domain
            and math.isfinite(kappa)
            and math.isfinite(rho_num)
            and math.isfinite(s_cum[i])
        )
        if degenerate:
            degenerate_count += 1
        rows.append(OracleRow(theta, kappa, rho_num, s_cum[i], phi_act, degenerate))
        # the re-integrated L needs only the closed-form row, not the trace,
        # so it stays measurable even when the numeric columns are not
        if c.valid.in_domain:
            try:
                ode_res.append(abs(ode(theta) - c.L) / max(abs(c.L), 1e-12))
            except ROW_ERRORS:
                pass
        if degenerate:
            continue
        rho_res.append(abs(rho_num - c.rho) / abs(c.rho))
        if math.isfinite(phi_act) and math.isfinite(c.phi):
            phi_res.append(_angle_distance_mod_pi(phi_act, c.phi))
        arc_res.append(abs(s_cum[i] - c.L) / max(abs(c.L), 1e-12))

    return OracleReport(
        rows=rows,
        rho_residual=_summary(rho_res),
        phi_residual=_summary(phi_res),
        arc_residual=_summary(arc_res),
        ode_residual=_summary(ode_res),
        degenerate_rows=degenerate_count,
        samples=closed,
    )
