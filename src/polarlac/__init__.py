"""Polar curves with a straight-line logarithmic curvature graph.

The library synthesizes planar curves in polar coordinates whose radius of
curvature rho follows rho^n = a*L + b along the arc length, from a
user-supplied tangential-angle law phi = f(theta), and verifies the result
against an independent numeric differential-geometry oracle.

The public names below load their module on first use (PEP 562), so a
process imports only the layers it touches.
"""

__version__ = "0.1.0"

_LAYERS = {
    "curve": (
        "CurveParams", "CurveSample", "DomainExceeded", "InvalidParameters", "NonpositiveRho",
        "ValidationReport", "arc_length", "radius_at", "radius_of_curvature", "sample", "validate",
    ),
    "diffgeo": (
        "OdeBlowUp", "OracleReport", "compare", "numeric_arc_length", "numeric_curvature", "numeric_phi",
        "ode_arc_length",
    ),
    "lcg": (
        "DegenerateFit", "LcgLine", "LcgPoint", "TooFewPoints", "lcg_closed_form", "lcg_numeric", "lcg_points",
        "linear_fit",
    ),
    "phiexpr": ("EvalDomainError", "ParseError", "PhiFunction", "PhiValue", "UnknownIdentifier", "parse"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        # an unknown name, or a submodule: "from polarlac import cli" then
        # imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
