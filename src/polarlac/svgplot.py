"""Minimal deterministic SVG line plots.

One polyline per file, an auto-fitted view with a 5 percent margin, two
axis lines, and the four range values as the only text.  All coordinates
are written with six decimals so a fixed input yields byte-identical
output.
"""

from __future__ import annotations

import math

_WIDTH = 640
_HEIGHT = 480
_MARGIN_FRACTION = 0.05


class NothingToPlot(ValueError):
    """No finite point defines a view."""


def _fmt(v: float) -> str:
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _padded_range(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span == 0.0:
        pad = max(abs(lo), 1.0) * _MARGIN_FRACTION + 0.5
    else:
        pad = span * _MARGIN_FRACTION
    return lo - pad, hi + pad


def render_polyline(points: list[tuple[float, float]], subject: str = "plot") -> str:
    """Render finite points as one polyline; raises NothingToPlot, naming
    the ``subject``, when no finite point is available to define a view."""
    finite = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    if not finite:
        raise NothingToPlot(f"{subject} degenerated: no finite points to plot")
    x0, x1 = _padded_range(min(x for x, _ in finite), max(x for x, _ in finite))
    y0, y1 = _padded_range(min(y for _, y in finite), max(y for _, y in finite))

    def px(x: float) -> float:
        return (x - x0) / (x1 - x0) * _WIDTH

    def py(y: float) -> float:
        return _HEIGHT - (y - y0) / (y1 - y0) * _HEIGHT

    # axis lines sit at zero when zero is in view, else hug the near edge
    ax = min(max(0.0, x0), x1)
    ay = min(max(0.0, y0), y1)
    coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in finite)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<line x1="0.000000" y1="{_fmt(py(ay))}" x2="{_fmt(float(_WIDTH))}" '
        f'y2="{_fmt(py(ay))}" stroke="#888888" stroke-width="1"/>',
        f'<line x1="{_fmt(px(ax))}" y1="0.000000" x2="{_fmt(px(ax))}" '
        f'y2="{_fmt(float(_HEIGHT))}" stroke="#888888" stroke-width="1"/>',
        f'<polyline fill="none" stroke="#000000" stroke-width="1" points="{coords}"/>',
        f'<text x="2" y="{_HEIGHT - 4}" font-size="10">{_fmt(x0)}</text>',
        f'<text x="{_WIDTH - 2}" y="{_HEIGHT - 4}" font-size="10" text-anchor="end">{_fmt(x1)}</text>',
        f'<text x="2" y="12" font-size="10">{_fmt(y1)}</text>',
        f'<text x="2" y="{_HEIGHT - 16}" font-size="10">{_fmt(y0)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
