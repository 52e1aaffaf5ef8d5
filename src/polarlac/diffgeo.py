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
from .curve import ROW_ERRORS, CurveParams, NonpositiveRho, turn_angle

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
    def __init__(self, theta_last: float, L_last: float):
        super().__init__(
            f"arc length exceeded {_BLOWUP_LIMIT:g}; last valid theta {theta_last!r}"
        )
        self.theta_last = theta_last
        self.L_last = L_last


def default_step(theta: float) -> float:
    """Central-difference step balancing truncation against round-off."""
    return 1e-5 * max(1.0, abs(theta))


def numeric_curvature(R: Callable[[float], float], theta: float, h: float | None = None) -> float:
    """Signed curvature of the polar trace from second-order stencils:

    kappa = (R^2 + 2 R'^2 - R R'') / (R^2 + R'^2)^(3/2)
    """
    if h is None:
        h = default_step(theta)
    r_minus = R(theta - h)
    r0 = R(theta)
    r_plus = R(theta + h)
    rp = (r_plus - r_minus) / (2.0 * h)
    rpp = (r_plus - 2.0 * r0 + r_minus) / (h * h)
    denom = r0 * r0 + rp * rp
    if denom < _DEGENERATE_FLOOR:
        raise DegeneratePoint(f"R and R' vanish near theta={theta!r}")
    return (denom + rp * rp - r0 * rpp) / denom ** 1.5


def numeric_phi(R: Callable[[float], float], theta: float, h: float | None = None) -> float:
    """Actual tangential angle atan2(R, R'), folded into (0, pi]."""
    if h is None:
        h = default_step(theta)
    r0 = R(theta)
    rp = (R(theta + h) - R(theta - h)) / (2.0 * h)
    if r0 * r0 + rp * rp < _DEGENERATE_FLOOR:
        raise DegeneratePoint(f"R and R' vanish near theta={theta!r}")
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


class _DenseOde:
    """Dense output of the arc-length integration, cubic Hermite per step."""

    def __init__(self, p: CurveParams, us, Ls, slopes):
        self._p = p
        self._us = us
        self._Ls = Ls
        self._slopes = slopes
        self._du = us[1] - us[0]
        self._u_total = us[-1]

    def __call__(self, theta: float) -> float:
        u = turn_angle(self._p, theta)
        slack = 1e-9 * max(1.0, abs(self._u_total))
        if u < -slack or u > self._u_total + slack:
            raise ValueError(f"theta={theta!r} is outside the integrated range")
        u = min(max(u, 0.0), self._u_total)
        k = min(int(u / self._du), len(self._us) - 2)
        t = (u - self._us[k]) / self._du
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t * t * (3.0 - 2.0 * t)
        h11 = t * t * (t - 1.0)
        return (
            h00 * self._Ls[k]
            + h10 * self._du * self._slopes[k]
            + h01 * self._Ls[k + 1]
            + h11 * self._du * self._slopes[k + 1]
        )


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
    du = u_total / steps
    half_du = 0.5 * du
    us = [i * du for i in range(steps + 1)]
    us[-1] = u_total
    Ls = [0.0]
    slopes = []
    L = 0.0
    k = 0
    # the right-hand side dL/du = (a L + b)^(1/n) is written out at each
    # stage, and k1 is the slope at the start of step k; for n = 1 the slope
    # is a L + b itself, which is never rejected.  "not abs(L) <= limit"
    # also holds for an L that is infinite or NaN
    try:
        if p.is_class_one:
            k1 = a * 0.0 + b
            slopes.append(k1)
            for k in range(steps):
                k2 = a * (L + half_du * k1) + b
                k3 = a * (L + half_du * k2) + b
                k4 = a * (L + du * k3) + b
                L = L + du * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                if not abs(L) <= _BLOWUP_LIMIT:
                    raise OverflowError
                k1 = a * L + b
                slopes.append(k1)
                Ls.append(L)
        else:
            g = a * 0.0 + b
            if g <= 0.0:
                raise NonpositiveRho(g)
            k1 = g ** inv_n  # the start slope b^(1/n) can itself overflow
            slopes.append(k1)
            for k in range(steps):
                g = a * (L + half_du * k1) + b
                if g <= 0.0:
                    raise NonpositiveRho(g)
                k2 = g ** inv_n
                g = a * (L + half_du * k2) + b
                if g <= 0.0:
                    raise NonpositiveRho(g)
                k3 = g ** inv_n
                g = a * (L + du * k3) + b
                if g <= 0.0:
                    raise NonpositiveRho(g)
                k4 = g ** inv_n
                L = L + du * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                if not abs(L) <= _BLOWUP_LIMIT:
                    raise OverflowError
                g = a * L + b
                if g <= 0.0:
                    raise NonpositiveRho(g)
                k1 = g ** inv_n
                slopes.append(k1)
                Ls.append(L)
    except (OverflowError, NonpositiveRho):
        raise OdeBlowUp(_theta_of_turn(p, us[k]), Ls[-1]) from None
    return _DenseOde(p, us, Ls, slopes)


class OracleRow(NamedTuple):
    theta: float
    kappa_numeric: float
    rho_numeric: float
    s_numeric: float
    phi_actual: float
    L_closed: float
    rho_closed: float
    phi_prescribed: float
    degenerate: bool


class ResidualSummary(NamedTuple):
    max: float
    rms: float
    count: int


class OracleReport(NamedTuple):
    rows: list[OracleRow]
    rho_residual: ResidualSummary       # |rho_numeric - rho_closed| / |rho_closed|
    phi_residual: ResidualSummary       # angular distance mod pi, absolute
    arc_residual: ResidualSummary       # |s_numeric - L_closed| / max(|L_closed|, 1e-12)
    ode_residual: ResidualSummary       # |L_ode - L_closed| / max(|L_closed|, 1e-12)
    degenerate_rows: int


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
    forms.  Rows where the numeric side is not measurable (endpoint domain
    failures, degenerate points, failed quadrature segments) are flagged
    degenerate and excluded from the residual summaries rather than
    aborting the run."""
    closed = _curve.sample(p, count)

    # the stencils and the two Simpson segments ending at a grid theta all
    # ask for R at theta and at theta +- default_step(theta); keeping those
    # values, and only those, evaluates each of them once in bounded memory
    thetas = [row.theta for row in closed]
    shared = set(thetas)
    for t in thetas:
        h = default_step(t)
        shared.update((t - h, t + h))
    known: dict[float, float] = {}

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
        try:
            phi_presc = p.phi.value(theta)
        except ROW_ERRORS:
            phi_presc = math.nan

        degenerate = not (
            c.valid.in_domain
            and math.isfinite(kappa)
            and math.isfinite(rho_num)
            and math.isfinite(s_cum[i])
        )
        if degenerate:
            degenerate_count += 1
        rows.append(
            OracleRow(theta, kappa, rho_num, s_cum[i], phi_act, c.L, c.rho, phi_presc, degenerate)
        )
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
        if math.isfinite(phi_act) and math.isfinite(phi_presc):
            phi_res.append(_angle_distance_mod_pi(phi_act, phi_presc))
        arc_res.append(abs(s_cum[i] - c.L) / max(abs(c.L), 1e-12))

    return OracleReport(
        rows=rows,
        rho_residual=_summary(rho_res),
        phi_residual=_summary(phi_res),
        arc_residual=_summary(arc_res),
        ode_residual=_summary(ode_res),
        degenerate_rows=degenerate_count,
    )
