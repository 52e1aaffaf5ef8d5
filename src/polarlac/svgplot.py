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
_BLOCK_POINTS = 1024


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
    the ``subject``, when no finite point defines a view or its range overflows."""
    finite = [pt for pt in points if math.isfinite(pt[0]) and math.isfinite(pt[1])]
    if not finite:
        raise NothingToPlot(f"{subject} degenerated: no finite points to plot")
    # not zip(*finite), which allocates an iterator per point: the garbage
    # collections that sets off include full ones, over every row alive
    xs = [x for x, _ in finite]
    ys = [y for _, y in finite]
    x0, x1 = _padded_range(min(xs), max(xs))
    y0, y1 = _padded_range(min(ys), max(ys))
    del xs, ys
    sx, sy = x1 - x0, y1 - y0
    if not all(map(math.isfinite, (x0, x1, y0, y1, sx, sy))):
        raise NothingToPlot(f"{subject} degenerated: its range overflows a float")

    def px(x: float) -> float:
        return (x - x0) / sx * _WIDTH

    def py(y: float) -> float:
        return _HEIGHT - (y - y0) / sy * _HEIGHT

    # one % operation per block, over the values px and py give; "-" only
    # starts a %.6f token, so the replace rewrites just the tokens _fmt would
    blocks = []
    for start in range(0, len(finite), _BLOCK_POINTS):
        block = finite[start : start + _BLOCK_POINTS]
        mapped = tuple([v for x, y in block for v in ((x - x0) / sx * _WIDTH, _HEIGHT - (y - y0) / sy * _HEIGHT)])
        template = (" " if start else "") + " ".join(["%.6f,%.6f"] * len(block))
        blocks.append((template % mapped).replace("-0.000000", "0.000000"))
    # axis lines sit at zero when zero is in view, else hug the near edge
    ax = min(max(0.0, x0), x1)
    ay = min(max(0.0, y0), y1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n',
        f'<line x1="0.000000" y1="{_fmt(py(ay))}" x2="{_fmt(float(_WIDTH))}" '
        f'y2="{_fmt(py(ay))}" stroke="#888888" stroke-width="1"/>\n',
        f'<line x1="{_fmt(px(ax))}" y1="0.000000" x2="{_fmt(px(ax))}" '
        f'y2="{_fmt(float(_HEIGHT))}" stroke="#888888" stroke-width="1"/>\n',
        '<polyline fill="none" stroke="#000000" stroke-width="1" points="',
        *blocks,
        '"/>\n',
        f'<text x="2" y="{_HEIGHT - 4}" font-size="10">{_fmt(x0)}</text>\n',
        f'<text x="{_WIDTH - 2}" y="{_HEIGHT - 4}" font-size="10" text-anchor="end">{_fmt(x1)}</text>\n',
        f'<text x="2" y="12" font-size="10">{_fmt(y1)}</text>\n',
        f'<text x="2" y="{_HEIGHT - 16}" font-size="10">{_fmt(y0)}</text>\n',
        "</svg>\n",
    ]
    return "".join(parts)
