"""Polar curves with a straight-line logarithmic curvature graph.

The library synthesizes planar curves in polar coordinates whose radius of
curvature rho follows rho^n = a*L + b along the arc length, from a
user-supplied tangential-angle law phi = f(theta), and verifies the result
against an independent numeric differential-geometry oracle.
"""

from .curve import (
    CurveParams,
    CurveSample,
    DomainExceeded,
    InvalidParameters,
    NonpositiveRho,
    ValidationReport,
    arc_length,
    radius_at,
    radius_of_curvature,
    sample,
    validate,
)
from .diffgeo import (
    OdeBlowUp,
    OracleReport,
    compare,
    numeric_arc_length,
    numeric_curvature,
    numeric_phi,
    ode_arc_length,
)
from .lcg import (
    DegenerateFit,
    LcgLine,
    LcgPoint,
    TooFewPoints,
    lcg_closed_form,
    lcg_numeric,
    linear_fit,
)
from .phiexpr import (
    EvalDomainError,
    ParseError,
    PhiFunction,
    PhiValue,
    UnknownIdentifier,
    parse,
)

__version__ = "0.1.0"

__all__ = [
    "CurveParams",
    "CurveSample",
    "DegenerateFit",
    "DomainExceeded",
    "EvalDomainError",
    "InvalidParameters",
    "LcgLine",
    "LcgPoint",
    "NonpositiveRho",
    "OdeBlowUp",
    "OracleReport",
    "ParseError",
    "PhiFunction",
    "PhiValue",
    "TooFewPoints",
    "UnknownIdentifier",
    "ValidationReport",
    "arc_length",
    "compare",
    "lcg_closed_form",
    "lcg_numeric",
    "linear_fit",
    "numeric_arc_length",
    "numeric_curvature",
    "numeric_phi",
    "ode_arc_length",
    "parse",
    "radius_at",
    "radius_of_curvature",
    "sample",
    "validate",
]
