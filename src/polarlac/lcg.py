"""Logarithmic curvature graphs and their straight-line fits.

A curve with rho^n = a*L + b satisfies, identically,

    log |dL/d log rho| = n log rho + log |n/a|

since dL/d log rho = rho dL/drho = (n/a) rho^n.  The closed-form point set
below realizes that identity and must fit a line of slope n exactly; the
numeric point set instead differentiates the measured geometric arc length
against the measured radius of curvature, which turns the identity into an
experiment.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import curve as _curve
from .curve import ROW_ERRORS, CurveParams, CurveSample

if TYPE_CHECKING:  # only an annotation reads it, so plotting loads no oracle
    from .diffgeo import OracleReport


class TooFewPoints(ValueError):
    """Fewer than two usable graph points (stationary rho, say a circle)."""


class DegenerateFit(ValueError):
    """All abscissae coincide; a slope is meaningless."""


class LcgPoint(NamedTuple):
    x: float  # log rho
    y: float  # log |dL/d log rho|


class LcgLine(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    count: int


def lcg_points(p: CurveParams, rows: list[CurveSample]) -> list[LcgPoint]:
    """Graph points from the model, (ln rho, ln|n/a| + ln(aL + b)), one per
    sample row of ``p``, skipping every row that raises a row error: past
    the domain boundary, rho or a logarithm out of range, phi not evaluable.

    A row in domain gives its own L and rho.  A flagged row is evaluated
    again from its theta: where phi has a value but no derivative, as
    sqrt(theta) at 0, the row is flagged and yet L and rho exist.
    """
    scale, a, b = abs(p.n / p.a), p.a, p.b
    new, log = tuple.__new__, math.log
    points = []
    for row in rows:
        try:
            if row.valid.in_domain:
                L, rho = row.L, row.rho
            else:
                L = _curve.arc_length(p, row.theta)
                rho = _curve.radius_of_curvature(p, L)
            if not rho > 0.0:  # 0 or NaN, and math.log(NaN) does not raise
                continue
            points.append(new(LcgPoint, (log(rho), log(scale * (a * L + b)))))
        except ROW_ERRORS:
            continue
    return points


def lcg_closed_form(p: CurveParams, count: int) -> list[LcgPoint]:
    """Graph points from the model on the sampling grid of ``count`` rows."""
    return lcg_points(p, _curve.sample(p, count))


def lcg_numeric(report: OracleReport) -> list[LcgPoint]:
    """Graph points measured from the oracle columns.

    dL/d log rho is estimated between the neighbours of each interior row;
    rows with |delta log rho| below 1e-12 are dropped as stationary.
    """
    rows = report.rows
    if len(rows) < 5:
        raise TooFewPoints("need at least 5 oracle rows")
    usable = []
    for r in rows:
        ok = (
            not r.degenerate
            and math.isfinite(r.s_numeric)
            and math.isfinite(r.rho_numeric)
            and r.rho_numeric > 0.0
        )
        usable.append((ok, math.log(r.rho_numeric) if ok else math.nan, r.s_numeric))
    points = []
    for i in range(1, len(rows) - 1):
        ok_prev, log_prev, s_prev = usable[i - 1]
        ok_here, log_here, _ = usable[i]
        ok_next, log_next, s_next = usable[i + 1]
        if not (ok_prev and ok_here and ok_next):
            continue
        d_log_rho = log_next - log_prev
        if abs(d_log_rho) < 1e-12:
            continue
        ds = s_next - s_prev
        if ds == 0.0:
            continue
        points.append(LcgPoint(log_here, math.log(abs(ds / d_log_rho))))
    if len(points) < 2:
        raise TooFewPoints(f"only {len(points)} usable graph points")
    return points


def linear_fit(points: list[LcgPoint]) -> LcgLine:
    """Ordinary least squares through the points.

    Sums use exact accumulation, so the result is invariant under any
    permutation of the input.  r_squared is defined as 1 when the data has
    no vertical spread and the fit is exact.
    """
    count = len(points)
    if count < 2:
        raise TooFewPoints("need at least 2 points")
    mean_x = math.fsum(pt.x for pt in points) / count
    mean_y = math.fsum(pt.y for pt in points) / count
    sxx = math.fsum((pt.x - mean_x) ** 2 for pt in points)
    if sxx == 0.0:
        raise DegenerateFit("all points share one log rho")
    sxy = math.fsum((pt.x - mean_x) * (pt.y - mean_y) for pt in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((pt.y - (slope * pt.x + intercept)) ** 2 for pt in points)
    ss_tot = math.fsum((pt.y - mean_y) ** 2 for pt in points)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    r_squared = min(max(r_squared, 0.0), 1.0)
    return LcgLine(slope, intercept, r_squared, count)
