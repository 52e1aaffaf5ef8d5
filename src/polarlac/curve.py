"""Closed-form synthesis of polar curves whose radius of curvature obeys
rho^n = a*L + b along the model arc length L.

One closed form serves every n.  With the accumulated tangent turn
u = (theta - theta0) + (f(theta) - f(theta0)), a turn variable w is

    w = a*u                              for n = 1, and otherwise
    w = log1p(x) / (n - 1),   x = a*(n - 1)*u / (n * b^(1 - 1/n)),

defined while x > -1, and from it

    L = b * expm1(n*w) / a,   a*L + b = b * exp(n*w),   rho = b^(1/n) * exp(w).

w tends to a*u as n tends to 1, so the two cases are one family, and n is
taken as given: only n = 1 itself is solved as n = 1.  expm1 and log1p keep
L and rho accurate where a*L + b cancels and at the n = 1 seam.  L is
exactly 0 where u is, whatever the other terms are.  The radius follows as
R = rho * (1 + f'(theta)) * sin f(theta).

Each CurveParams compiles this form once, at construction, into one
closure u -> (L, rho), with the terms that depend only on the parameters
folded there.  b^(1/n) is carried as its logarithm, rho = exp(w + ln(b)/n),
so a point raises OverflowError where L or rho itself leaves float range,
never at construction.  Where b^(1 - 1/n) or x/u leaves float range, x is
carried as its sign and ln|x|: such a curve keeps every point where |x| is
at least the least normal float, and a point below that raises
OverflowError rather than compute w from a subnormal.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from ._record import Record
from .phiexpr import EvalDomainError, PhiFunction

_BISECT_TOL = 1e-12
_GRID = 1024

# every error raised for a point that cannot be evaluated is one of these:
# a row that raises one is flagged or skipped, and a run that lets one
# escape ends in an exit code, never a traceback
ROW_ERRORS = (ValueError, ArithmeticError)


class InvalidParameters(ValueError):
    """CurveParams rejected its own fields."""


class DomainExceeded(ValueError):
    """x(theta) <= -1: the curve is not defined this far.

    ``theta_max`` is the largest angle (to 1e-12) where x is still above -1.
    It is bisected on first read, of the attribute or of the message, and
    cached: most callers only flag the row and never read it.
    """

    def __init__(self, p: CurveParams, theta: float):
        super().__init__(p, theta)
        self._params = p
        self.theta = theta

    @cached_property
    def theta_max(self) -> float:
        return _domain_boundary(self._params, self.theta)

    def __str__(self) -> str:
        return (
            f"curve domain exceeded at theta={self.theta!r}; "
            f"largest valid theta is {self.theta_max!r}"
        )


class CurveParams(Record):
    """Full specification of one curve; immutable after construction."""

    _fields = ("n", "a", "b", "theta0", "theta1", "phi")
    __slots__ = _fields + ("phi0", "_arc")

    def __init__(self, n: float, a: float, b: float, theta0: float, theta1: float, phi: PhiFunction):
        super().__init__(n, a, b, theta0, theta1, phi)
        for name in ("n", "a", "b", "theta0", "theta1"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise InvalidParameters(f"{name} must be a finite number, got {v!r}")
        if self.n == 0:
            raise InvalidParameters("n must be nonzero")
        if self.a == 0:
            raise InvalidParameters("a must be nonzero")
        if self.b <= 0:
            raise InvalidParameters("b must be positive")
        if not self.theta1 > self.theta0:
            raise InvalidParameters("theta1 must exceed theta0")
        if not math.isfinite(self.theta1 - self.theta0):
            raise InvalidParameters("theta1 - theta0 must be a finite number")
        try:
            phi0 = self.phi.value(self.theta0)
        except EvalDomainError as exc:
            raise InvalidParameters(f"phi is not evaluable at theta0: {exc}") from exc
        if not math.isfinite(phi0):
            raise InvalidParameters("phi(theta0) is not finite")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "_arc", _compile(self.n, self.a, self.b))


class SampleValidity(NamedTuple):
    in_domain: bool


# every row points at one of these two, so the row loop builds no flag
IN_DOMAIN, FLAGGED = SampleValidity(True), SampleValidity(False)


class CurveSample(NamedTuple):
    theta: float
    L: float
    R: float
    rho: float
    phi: float
    dphi: float
    beta: float
    x: float
    y: float
    valid: SampleValidity


class ConditionReport(NamedTuple):
    holds: bool
    first_violation: float | None


class ValidationReport(NamedTuple):
    in_domain: ConditionReport
    rho_positive: ConditionReport
    radius_positive: ConditionReport
    monotone_factor_positive: ConditionReport
    sin_phi_positive: ConditionReport

    def all_hold(self) -> bool:
        return all(c.holds for c in self)


def _compile_turn(n: float, a: float, b: float) -> Callable[[float], float]:
    # u -> w for a nonzero u: the one place the closed form forks
    n_1, log1p = n - 1.0, math.log1p
    if not n_1:
        return lambda u: a * u
    offset_power, normal = 1.0 - 1.0 / n, sys.float_info.min
    try:
        base = b ** offset_power
        slope = a * (n_1 / n) / base  # x = slope*u
    except (OverflowError, ZeroDivisionError):
        base = slope = 0.0
    if normal <= base < math.inf and normal <= abs(slope) < math.inf:
        return lambda u: log1p(slope * u) / n_1
    # b^(1 - 1/n) or x/u is not a normal float, though L and rho need not
    # be out of range: x is carried as its sign and logarithm, t = ln|x|
    log, exp, least = math.log, math.exp, math.log(normal)
    log_slope = log(abs(a)) + log(abs(n_1)) - log(abs(n)) - offset_power * log(b)
    positive = (a > 0.0) == ((n_1 > 0.0) == (n > 0.0))

    def turn(u: float) -> float:
        t = log_slope + log(abs(u))
        if t < least:
            raise OverflowError("x underflows")
        if (u > 0.0) == positive:  # ln(1 + x) = t + ln(1 + 1/x)
            return (t + log1p(exp(-t)) if t > 0.0 else log1p(exp(t))) / n_1
        if t >= 0.0:
            raise ValueError("x <= -1")
        return log1p(-exp(t)) / n_1

    return turn


def _compile(n: float, a: float, b: float) -> Callable[[float], tuple[float, float]]:
    # u -> (L, rho); raises ValueError where x <= -1, as log1p does, and
    # only there; OverflowError where u is not finite or x, L or rho leaves
    # float range, so that L and rho are finite wherever it returns
    log_rho0 = math.log(b) / n  # ln b^(1/n)
    exp, expm1 = math.exp, math.expm1
    turn = _compile_turn(n, a, b)

    def arc(u: float) -> tuple[float, float]:
        # rho = exp(w + ln b^(1/n)), so that it overflows, as a row error,
        # only where rho itself does
        if not u:
            L, rho = 0.0, exp(log_rho0)
        else:
            w = turn(u)  # past the domain end, an infinite u raises here first
            if u - u:  # u is inf or NaN, on which expm1 and exp do not raise
                raise OverflowError("the turn is not finite")
            L = b * expm1(n * w) / a
            if L - L:  # nor do * and /
                raise OverflowError("L is not finite")
            rho = exp(w + log_rho0)
        if rho - rho:  # ln b^(1/n) or w is inf or NaN, as where n is subnormal
            raise OverflowError("rho is not finite")
        return L, rho

    return arc


def turn_angle(p: CurveParams, theta: float) -> float:
    """Accumulated tangent turn u = (theta - theta0) + (f(theta) - f(theta0))."""
    return (theta - p.theta0) + (p.phi.value(theta) - p.phi0)


def _domain_boundary(p: CurveParams, theta_bad: float) -> float:
    # x is 0 at theta0 and at most -1 at theta_bad; bisect the bracket down
    # to 1e-12 in theta
    arc = p._arc
    good, bad = p.theta0, theta_bad
    while abs(bad - good) > _BISECT_TOL:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        try:
            arc(turn_angle(p, mid))
        except (ValueError, EvalDomainError):
            bad = mid
            continue
        except OverflowError:  # x, L or rho out of float range, but x > -1
            pass
        good = mid
    return good


def arc_and_rho(p: CurveParams, theta: float) -> tuple[float, float]:
    """(L, rho) at theta, from phi's value alone: L is exactly zero at theta0.

    Raises DomainExceeded where x(theta) <= -1 (n != 1 only; at n = 1
    the curve is defined for every turn).
    """
    try:
        return p._arc(turn_angle(p, theta))
    except ValueError:
        raise DomainExceeded(p, theta) from None


def arc_length(p: CurveParams, theta: float) -> float:
    """Model arc length L(theta); raises as ``arc_and_rho`` does."""
    return arc_and_rho(p, theta)[0]


def radius_at(p: CurveParams, theta: float) -> float:
    """R = rho(L(theta)) * (1 + f'(theta)) * sin f(theta); may be negative; raises OverflowError where R overflows."""
    # one evaluation of phi gives both the turn and f'; where phi has a
    # value but no derivative, a domain exit is reported first
    try:
        v, d = p.phi.eval_with_derivative(theta)
    except EvalDomainError:
        arc_length(p, theta)
        raise
    try:
        rho = p._arc((theta - p.theta0) + (v - p.phi0))[1]
    except ValueError:
        raise DomainExceeded(p, theta) from None
    R = rho * (1.0 + d) * math.sin(v)
    if R - R:  # rho is finite, but R can overflow
        raise OverflowError("R is not finite")
    return R


def _grid(p: CurveParams, count: int, rows: Sequence[range] | None = None) -> list[float]:
    # the rows in ``rows``, nonempty ranges of indices in order (all by
    # default), each theta from its own index; the far end is theta1 itself
    if count < 2:
        raise ValueError("count must be at least 2")
    rows = (range(count),) if rows is None else rows
    theta0, span, last = p.theta0, p.theta1 - p.theta0, count - 1
    thetas = [theta0 + i * span / last for r in rows for i in r]
    if not math.isfinite(sum(thetas)):  # a row whose i*span overflows takes i*(span/last), which cannot
        step = span / last
        thetas = [t if t < math.inf else theta0 + i * step for t, i in zip(thetas, (i for r in rows for i in r))]
    if rows and rows[-1].stop == count:
        thetas[-1] = p.theta1  # guarded against round-off, in place
    return thetas


_INVALID_TAIL = (float("nan"),) * 8 + (FLAGGED,)


def _invalid_sample(theta: float) -> CurveSample:
    return tuple.__new__(CurveSample, (theta, *_INVALID_TAIL))


def sample(p: CurveParams, count: int, rows: Sequence[range] | None = None) -> list[CurveSample]:
    """Evaluate the curve on the rows of a uniform theta grid in ``rows``,
    nonempty ranges of its indices in increasing order (all by default).

    Rows past the domain boundary, or where rho, R or phi cannot be evaluated
    (including float overflow and a turn that is not finite), come back
    flagged instead of aborting the batch: each row's ``valid`` is the
    shared IN_DOMAIN or FLAGGED.  A flagged row keeps the L and rho that
    ``arc_and_rho`` gives at its theta, as where R or theta + phi overflows
    or phi has a value but no derivative (sqrt(theta) at 0); its other
    values are NaN.
    """
    # a row that raises a row error anywhere, cos(inf) included, is
    # flagged; past the domain arc raises ValueError, so no DomainExceeded
    # is built
    out = []
    append, new, evaluate, value, arc = out.append, tuple.__new__, p.phi.eval_with_derivative, p.phi.value, p._arc
    sin, cos, in_domain, flagged, nan = math.sin, math.cos, IN_DOMAIN, FLAGGED, math.nan
    theta0, phi0 = p.theta0, p.phi0
    for theta in _grid(p, count, rows):
        try:
            try:
                v, d = evaluate(theta)
            except ROW_ERRORS:  # phi's value alone gives L and rho, if it exists
                L, r = arc((theta - theta0) + (value(theta) - phi0))
                R = beta = nan
            else:
                L, r = arc((theta - theta0) + (v - phi0))
                R, beta = r * (1.0 + d) * sin(v), theta + v
            if R - R or beta - beta:  # R as radius_at raises; beta overflows only near the float limit
                append(new(CurveSample, (theta, L, nan, r, nan, nan, nan, nan, nan, flagged)))
            else:
                append(new(CurveSample, (theta, L, R, r, v, d, beta, R * cos(theta), R * sin(theta), in_domain)))
        except ROW_ERRORS:
            append(_invalid_sample(theta))
    return out


def validate(p: CurveParams) -> ValidationReport:
    """Check the positivity conditions on a 1024-point grid.

    Conditions other than in_domain are judged only where the sample is
    evaluable, from the row's own rho, R, f' and phi; the first violating
    theta is recorded per condition.
    """
    first: dict[str, float | None] = dict.fromkeys(ValidationReport._fields)
    for row in sample(p, _GRID):
        if row.valid.in_domain:
            held = (True, row.rho > 0.0, row.R > 0.0, 1.0 + row.dphi > 0.0, math.sin(row.phi) > 0.0)
        else:
            held = (False,)  # judged on in_domain alone
        for key, ok in zip(first, held):
            if not ok and first[key] is None:
                first[key] = row.theta
    return ValidationReport(*(ConditionReport(theta is None, theta) for theta in first.values()))
