"""Closed-form synthesis of polar curves whose radius of curvature obeys
rho^n = a*L + b along the model arc length L.

Two families share one API.  For n = 1 the arc length grows exponentially
with the accumulated tangent turn u = (theta - theta0) + (f(theta) - f(theta0)):

    L = (b/a) * (exp(a*u) - 1)

and for n != 1 the turn enters through the power base

    A(theta) = (a*(n - 1)*u + n * b^(1 - 1/n)) / n,
    L = (A^(n/(n-1)) - b) / a,

valid while A stays positive.  The radius follows as
R = rho(L) * (1 + f'(theta)) * sin f(theta) in both families.

Each CurveParams compiles these forms once, at construction, into a
kernel of closures: the family is picked there, and the terms that depend
only on the parameters are computed there, in the same float operations
the formulas above spell out.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

from ._record import Record
from .phiexpr import EvalDomainError, PhiFunction

# |n - 1| at or below this dispatches to the exponential family
CLASS_ONE_TOL = 1e-9

_BISECT_TOL = 1e-12
_GRID = 1024

# every error raised for a point that cannot be evaluated is one of these:
# a row that raises one is flagged or skipped, and a run that lets one
# escape ends in an exit code, never a traceback
ROW_ERRORS = (ValueError, ArithmeticError)


class InvalidParameters(ValueError):
    """CurveParams rejected its own fields."""


class DomainExceeded(ValueError):
    """A(theta) <= 0: the curve is not defined this far.

    ``theta_max`` is the largest angle (to 1e-12) where A is still positive.
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


class NonpositiveRho(ValueError):
    def __init__(self, value: float):
        super().__init__(f"a*L + b = {value!r} is not positive")
        self.value = value


class CurveParams(Record):
    """Full specification of one curve; immutable after construction."""

    _fields = ("n", "a", "b", "theta0", "theta1", "phi")
    __slots__ = _fields + ("phi0", "_kernel")

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
        try:
            phi0 = self.phi.value(self.theta0)
        except EvalDomainError as exc:
            raise InvalidParameters(f"phi is not evaluable at theta0: {exc}") from exc
        if not math.isfinite(phi0):
            raise InvalidParameters("phi(theta0) is not finite")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "_kernel", _compile(self))

    @property
    def is_class_one(self) -> bool:
        return abs(self.n - 1.0) <= CLASS_ONE_TOL


class SampleValidity(NamedTuple):
    rho_positive: bool
    radius_positive: bool
    monotone_factor_positive: bool
    in_domain: bool


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


class _Kernel(NamedTuple):
    """The closed forms of one curve, compiled by ``_compile``."""

    base: Callable[[float], float]  # u -> A
    arc: Callable[[float, float], float]  # (theta, u) -> L
    rho: Callable[[float], float]  # L -> rho
    point: Callable[[float], tuple[float, float, float, float]]  # theta -> (L, rho, phi, f')
    rows: Callable[[list[float]], list[CurveSample]]  # thetas -> sample rows


def _compile(p: CurveParams) -> _Kernel:
    n, a, b = p.n, p.a, p.b
    phi, theta0, phi0 = p.phi, p.theta0, p.phi0
    slope = a * (n - 1.0)
    try:
        offset = n * b ** (1.0 - 1.0 / n)
    except OverflowError:
        # b^(1-1/n) is out of float range: every A(theta) raises, as the
        # formula does, when it is asked for and not before
        def base(u: float) -> float:
            return (slope * u + n * b ** (1.0 - 1.0 / n)) / n
    else:
        def base(u: float) -> float:
            return (slope * u + offset) / n

    if p.is_class_one:
        b_over_a = b / a

        def arc(theta: float, u: float) -> float:
            if u == 0.0:
                return 0.0
            return b_over_a * math.expm1(a * u)

        def rho(L: float) -> float:
            g = a * L + b
            if g <= 0.0:
                raise NonpositiveRho(g)
            return g
    else:
        power = n / (n - 1.0)
        inv_n = 1.0 / n

        def arc(theta: float, u: float) -> float:
            if u == 0.0:
                return 0.0
            A = base(u)
            if A <= 0.0:
                raise DomainExceeded(p, theta)
            return (A ** power - b) / a

        def rho(L: float) -> float:
            g = a * L + b
            if g <= 0.0:
                raise NonpositiveRho(g)
            return g ** inv_n

    def point(theta: float) -> tuple[float, float, float, float]:
        # one evaluation of phi gives both the turn and f'; where phi has a
        # value but no derivative, a domain exit is reported first
        try:
            v, d = phi.eval_with_derivative(theta)
        except EvalDomainError:
            arc_length(p, theta)
            raise
        L = arc(theta, (theta - theta0) + (v - phi0))
        return L, rho(L), v, d

    def rows(thetas: list[float]) -> list[CurveSample]:
        # point() and the row built from it, in one loop: a row that raises
        # a row error is flagged, and no domain exit is looked for, since
        # the flag is the same either way
        out = []
        append, new, evaluate = out.append, tuple.__new__, phi.eval_with_derivative
        sin, cos = math.sin, math.cos
        for theta in thetas:
            try:
                v, d = evaluate(theta)
                L = arc(theta, (theta - theta0) + (v - phi0))
                r = rho(L)
            except ROW_ERRORS:
                append(_invalid_sample(theta))
                continue
            monotone = 1.0 + d
            R = r * monotone * sin(v)
            valid = new(SampleValidity, (r > 0.0, R > 0.0, monotone > 0.0, True))
            append(new(CurveSample, (theta, L, R, r, v, d, theta + v, R * cos(theta), R * sin(theta), valid)))
        return out

    return _Kernel(base, arc, rho, point, rows)


def turn_angle(p: CurveParams, theta: float) -> float:
    """Accumulated tangent turn u = (theta - theta0) + (f(theta) - f(theta0))."""
    return (theta - p.theta0) + (p.phi.value(theta) - p.phi0)


def _domain_boundary(p: CurveParams, theta_bad: float) -> float:
    # A is positive at theta0 (it equals b^(1-1/n) there) and nonpositive at
    # theta_bad; bisect the bracket down to 1e-12 in theta
    base = p._kernel.base
    good, bad = p.theta0, theta_bad
    while abs(bad - good) > _BISECT_TOL:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        try:
            positive = base(turn_angle(p, mid)) > 0.0
        except EvalDomainError:
            positive = False
        if positive:
            good = mid
        else:
            bad = mid
    return good


def arc_length(p: CurveParams, theta: float) -> float:
    """Model arc length L(theta); exactly zero at theta0.

    Raises DomainExceeded when the power base A(theta) is nonpositive
    (n != 1 only; the exponential family is defined for every turn).
    """
    return p._kernel.arc(theta, turn_angle(p, theta))


def radius_of_curvature(p: CurveParams, L: float) -> float:
    return p._kernel.rho(L)


def radius_at(p: CurveParams, theta: float) -> float:
    """R = rho(L(theta)) * (1 + f'(theta)) * sin f(theta); may be negative."""
    _, rho, phi, dphi = p._kernel.point(theta)
    return rho * (1.0 + dphi) * math.sin(phi)


def _grid(p: CurveParams, count: int) -> list[float]:
    if count < 2:
        raise ValueError("count must be at least 2")
    span = p.theta1 - p.theta0
    last = count - 1
    thetas = [p.theta0 + i * span / last for i in range(count)]
    thetas[-1] = p.theta1  # guard against round-off at the far end
    return thetas


_INVALID_TAIL = (float("nan"),) * 8 + (SampleValidity(False, False, False, False),)


def _invalid_sample(theta: float) -> CurveSample:
    return tuple.__new__(CurveSample, (theta, *_INVALID_TAIL))


def sample(p: CurveParams, count: int) -> list[CurveSample]:
    """Evaluate the curve on a uniform theta grid.

    Rows past the domain boundary, or where rho or phi cannot be evaluated
    (including float overflow), come back flagged in_domain=False instead
    of aborting the batch.
    """
    return p._kernel.rows(_grid(p, count))


def validate(p: CurveParams) -> ValidationReport:
    """Check the positivity conditions on a 1024-point grid.

    Conditions other than in_domain are judged only where the sample is
    evaluable; the first violating theta is recorded per condition.
    """
    first: dict[str, float | None] = dict.fromkeys(ValidationReport._fields)
    for row in sample(p, _GRID):
        v = row.valid
        if v.in_domain:
            held = (True, v.rho_positive, v.radius_positive, v.monotone_factor_positive, math.sin(row.phi) > 0.0)
        else:
            held = (False,)  # judged on in_domain alone
        for key, ok in zip(first, held):
            if not ok and first[key] is None:
                first[key] = row.theta
    return ValidationReport(*(ConditionReport(theta is None, theta) for theta in first.values()))
