"""In-process tracing of the polarlac layers, from outside the package.

``Tracer.install`` replaces the public functions of ``phiexpr``, ``curve``,
``diffgeo``, ``lcg``, ``svgplot`` and ``cli`` with wrappers, in every
polarlac module that holds a reference to them, and ``uninstall`` puts the
originals back.  No file of the package changes.  Each wrapper records a
span: its name, its duration, and the traced span that called it.  Spans
are aggregated in memory as they close rather than stored one by one,
since a traced pass makes millions of phi calls:

* per span name: calls, inclusive time, time covered by child spans, and
  exceptions by class;
* per (caller, callee) edge: calls, which is how R(theta) evaluations are
  attributed to the Simpson quadrature or to the stencils;
* a few values taken from arguments and results (rows sampled and flagged,
  oracle rows and degenerate rows, graph points, bytes rendered and written).

No wrapped function is recursive, so inclusive times never double count.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections import defaultdict
from time import perf_counter

_PACKAGE = "polarlac"

# (module, attribute) pairs; the span is named "<module>.<attribute>"
_FUNCTIONS = [
    ("phiexpr", "parse"),
    ("curve", "sample"),
    ("curve", "validate"),
    ("curve", "radius_at"),
    ("curve", "arc_length"),
    ("diffgeo", "compare"),
    ("diffgeo", "numeric_arc_length"),
    ("diffgeo", "numeric_curvature"),
    ("diffgeo", "numeric_phi"),
    ("diffgeo", "ode_arc_length"),
    ("lcg", "lcg_closed_form"),
    ("lcg", "lcg_numeric"),
    ("lcg", "linear_fit"),
    ("svgplot", "render_polyline"),
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "_write_atomic"),
]
_PHI_METHODS = ("value", "eval_with_derivative")

# a run's closed-form passes: calls to these not made inside one another
CLOSED_PASSES = ("curve.sample", "curve.validate", "lcg.lcg_closed_form")

STENCILS = ("diffgeo.numeric_curvature", "diffgeo.numeric_phi")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.child_time = defaultdict(float)
        self.errors = defaultdict(int)  # (span, exception class) -> count
        self.edges = defaultdict(int)  # (caller span or None, span) -> count
        self.values = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        calls, time, child_time, edges = self.calls, self.time, self.child_time, self.edges
        errors = self.errors

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                errors[name, type(e).__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                time[name] += dt
                child_time[name] += frame[1]
                if parent is None:
                    edges[None, name] += 1
                else:
                    parent[1] += dt
                    edges[parent[0], name] += 1
                if after is not None:
                    after(args, kwargs, result, exc)

        return traced

    def _after(self, name):
        v = self.values

        def closed_pass(args, kwargs, result, exc):
            if not any(frame[0] in CLOSED_PASSES for frame in self._stack):
                v["closed_passes"] += 1

        if name == "curve.sample":
            def hook(args, kwargs, result, exc):
                closed_pass(args, kwargs, result, exc)
                if result is not None:
                    v["sampled_rows"] += len(result)
                    v["flagged_rows"] += sum(1 for r in result if not r.valid.in_domain)
            return hook
        if name in ("curve.validate", "lcg.lcg_closed_form"):
            return closed_pass
        if name == "diffgeo.compare":
            def hook(args, kwargs, result, exc):
                v["compare_rows"] += args[1] if len(args) > 1 else kwargs["count"]
                if result is not None:
                    v["oracle_rows"] += len(result.rows)
                    v["degenerate_rows"] += result.degenerate_rows
            return hook
        if name == "diffgeo.ode_arc_length":
            def hook(args, kwargs, result, exc):
                if result is not None:
                    v["ode_steps"] += args[1] if len(args) > 1 else kwargs["steps"]
            return hook
        if name == "lcg.lcg_numeric":
            def hook(args, kwargs, result, exc):
                v["lcg_interior_rows"] += max(len(args[0].rows) - 2, 0)
                if result is not None:
                    v["lcg_points"] += len(result)
            return hook
        if name == "svgplot.render_polyline":
            def hook(args, kwargs, result, exc):
                if result is not None:
                    v["svg_bytes"] += len(result.encode("utf-8"))
            return hook
        if name == "cli._write_atomic":
            def hook(args, kwargs, result, exc):
                if exc is None:
                    v["written_bytes"] += len(args[2].encode("utf-8"))
            return hook
        return None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        importlib.import_module(f"{_PACKAGE}.cli")  # loads every layer
        modules = [m for k, m in sys.modules.items() if k == _PACKAGE or k.startswith(_PACKAGE + ".")]
        for mod_name, attr in _FUNCTIONS:
            mod = importlib.import_module(f"{_PACKAGE}.{mod_name}")
            original = getattr(mod, attr)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(name, original, self._after(name))
            # rebind every module-level reference, including the ones other
            # modules made with "from .x import name"
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        phi_cls = importlib.import_module(f"{_PACKAGE}.phiexpr").PhiFunction
        for attr in _PHI_METHODS:
            self._patch(phi_cls, attr, self._wrap(f"phiexpr.{attr}", vars(phi_cls)[attr]))
        parse_args = argparse.ArgumentParser.parse_args
        self._patch(argparse.ArgumentParser, "parse_args", self._wrap("cli.parse_args", parse_args))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every machine-independent count that is not zero, keyed by a
        stable string."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"errors:{s}:{e}": v for (s, e), v in self.errors.items()})
        out.update({f"edge:{a}>{b}": v for (a, b), v in self.edges.items()})
        out.update({f"value:{k}": v for k, v in self.values.items()})
        return {k: v for k, v in sorted(out.items()) if v}

    def metrics(self, runs: int, rows: int) -> dict[str, float]:
        """Per-layer metrics for one traced pass over ``runs`` runs asking
        for ``rows`` grid rows in total.

        Phi calls are per requested grid row; R(theta) calls and the Simpson
        and stencil shares of them are per row the oracle (``compare``)
        measured, so on the oracle the two shares add up to the total.
        A ratio with nothing to divide by reads 0.
        """
        c, t, v, e = self.calls, self.time, self.values, self.edges

        def ratio(num, den):
            return num / den if den else 0.0

        oracle_rows = v["compare_rows"]
        simpson_r = e["diffgeo.numeric_arc_length", "curve.radius_at"]
        stencil_r = sum(e[s, "curve.radius_at"] for s in STENCILS)
        return {
            "phiexpr.parse_s": t["phiexpr.parse"],
            "phiexpr.busy_s": t["phiexpr.value"] + t["phiexpr.eval_with_derivative"],
            "phiexpr.value_calls_per_row": ratio(c["phiexpr.value"], rows),
            "phiexpr.dual_calls_per_row": ratio(c["phiexpr.eval_with_derivative"], rows),
            "phiexpr.errors": sum(
                n for (s, _), n in self.errors.items()
                if s in ("phiexpr.parse", "phiexpr.value", "phiexpr.eval_with_derivative")
            ),
            "curve.radius_at_calls_per_row": ratio(c["curve.radius_at"], oracle_rows),
            "curve.radius_at_s": t["curve.radius_at"],
            "curve.sample_s": t["curve.sample"],
            "curve.domain_exits": self.errors["curve.arc_length", "DomainExceeded"],
            "curve.flagged_ratio": ratio(v["flagged_rows"], v["sampled_rows"]),
            "curve.closed_passes_per_run": ratio(v["closed_passes"], runs),
            "diffgeo.compare_s": t["diffgeo.compare"],
            "diffgeo.simpson_s": t["diffgeo.numeric_arc_length"],
            "diffgeo.simpson_r_calls_per_segment": ratio(simpson_r, c["diffgeo.numeric_arc_length"]),
            "diffgeo.simpson_r_calls_per_row": ratio(simpson_r, oracle_rows),
            "diffgeo.simpson_failed_segments": sum(
                n for (s, _), n in self.errors.items() if s == "diffgeo.numeric_arc_length"
            ),
            "diffgeo.stencil_s": sum(t[s] for s in STENCILS),
            "diffgeo.stencil_r_calls_per_row": ratio(stencil_r, oracle_rows),
            "diffgeo.ode_s": t["diffgeo.ode_arc_length"],
            "diffgeo.ode_steps": v["ode_steps"],
            "diffgeo.degenerate_ratio": ratio(v["degenerate_rows"], v["oracle_rows"]),
            "lcg.closed_form_s": t["lcg.lcg_closed_form"],
            "lcg.numeric_s": t["lcg.lcg_numeric"],
            "lcg.fit_s": t["lcg.linear_fit"],
            "lcg.usable_point_ratio": ratio(v["lcg_points"], v["lcg_interior_rows"]),
            "svgplot.render_s": t["svgplot.render_polyline"],
            "svgplot.out_bytes": v["svg_bytes"],
            "cli.self_s": t["cli.main"] - self.child_time["cli.main"],
            "cli.write_s": t["cli._write_atomic"],
            "cli.out_bytes": v["written_bytes"],
            "cli.argparse_s": t["cli.build_parser"] + t["cli.parse_args"],
        }
