"""Minimal deterministic SVG line plots.

One polyline per file, an auto-fitted view with a 5 percent margin, two
axis lines, and the four range values as the only text.  All coordinates
are written with six decimals so a fixed input yields byte-identical
output.  A ``Polyline`` fits its view to all its points first, so that any
range of them can then be formatted on its own.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, Sequence

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


class Polyline:
    """The finite points among (xs[i], ys[i]), from two float columns, and
    the view fitted to them; raises NothingToPlot, naming the ``subject``,
    when no finite point defines a view or its range overflows."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float], subject: str = "plot"):
        # a sum of finite values that overflows only sends the columns the
        # slow way, which keeps every point
        if not math.isfinite(sum(xs) + sum(ys)):
            finite = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
            xs, ys = array("d", [x for x, _ in finite]), array("d", [y for _, y in finite])
        if not xs:
            raise NothingToPlot(f"{subject} degenerated: no finite points to plot")
        x0, x1 = _padded_range(min(xs), max(xs))
        y0, y1 = _padded_range(min(ys), max(ys))
        sx, sy = x1 - x0, y1 - y0
        if not all(map(math.isfinite, (x0, x1, y0, y1, sx, sy))):
            raise NothingToPlot(f"{subject} degenerated: its range overflows a float")
        self.xs, self.ys, self.count, self._view = xs, ys, len(xs), (x0, y0, sx, sy)

        def px(x: float) -> float:
            return (x - x0) / sx * _WIDTH

        def py(y: float) -> float:
            return _HEIGHT - (y - y0) / sy * _HEIGHT

        # axis lines sit at zero when zero is in view, else hug the near edge
        ax = min(max(0.0, x0), x1)
        ay = min(max(0.0, y0), y1)
        self.head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<line x1="0.000000" y1="{_fmt(py(ay))}" x2="{_fmt(float(_WIDTH))}" '
            f'y2="{_fmt(py(ay))}" stroke="#888888" stroke-width="1"/>\n'
            f'<line x1="{_fmt(px(ax))}" y1="0.000000" x2="{_fmt(px(ax))}" '
            f'y2="{_fmt(float(_HEIGHT))}" stroke="#888888" stroke-width="1"/>\n'
            '<polyline fill="none" stroke="#000000" stroke-width="1" points="'
        )
        self.tail = (
            '"/>\n'
            f'<text x="2" y="{_HEIGHT - 4}" font-size="10">{_fmt(x0)}</text>\n'
            f'<text x="{_WIDTH - 2}" y="{_HEIGHT - 4}" font-size="10" text-anchor="end">{_fmt(x1)}</text>\n'
            f'<text x="2" y="12" font-size="10">{_fmt(y1)}</text>\n'
            f'<text x="2" y="{_HEIGHT - 16}" font-size="10">{_fmt(y0)}</text>\n'
            "</svg>\n"
        )

    def text(self, start: int, stop: int) -> Iterator[str]:
        """The file's text for points ``start`` to ``stop - 1``, a block of
        points per string, after the head if ``start`` is the first point
        and before the tail if ``stop - 1`` is the last."""
        x0, y0, sx, sy = self._view
        if not start:
            yield self.head
        # one % operation per block, over the values px and py give; "-" only
        # starts a %.6f token, so the replace rewrites just the tokens _fmt would
        for i in range(start, stop, _BLOCK_POINTS):
            j = min(i + _BLOCK_POINTS, stop)
            pairs = zip(self.xs[i:j], self.ys[i:j])
            mapped = tuple([v for x, y in pairs for v in ((x - x0) / sx * _WIDTH, _HEIGHT - (y - y0) / sy * _HEIGHT)])
            template = (" " if i else "") + " ".join(["%.6f,%.6f"] * (j - i))
            yield (template % mapped).replace("-0.000000", "0.000000")
        if stop == self.count:
            yield self.tail


def render_polyline(points: list[tuple[float, float]], subject: str = "plot") -> str:
    """Render the finite points as one polyline, in one string; raises as
    ``Polyline`` does."""
    line = Polyline(array("d", [x for x, _ in points]), array("d", [y for _, y in points]), subject)
    return "".join(line.text(0, line.count))
