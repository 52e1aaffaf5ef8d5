"""The contract between the package and the benchmark's tracer.

``bench/tracer.py`` wraps the package's public functions by name and reads
fields of what they return.  Two traced passes over one run of each
subcommand must count the same, the Simpson and stencil shares of the R
calls must add up to the total, and each run must make one closed-form
pass, also where ``sample`` and ``svg`` split their grid over processes.
``bench/smoke.py`` checks the same on every workload, in about 30 s; these
tests take well under a second.
"""

import importlib.util
import os
from pathlib import Path

from polarlac import cli, diffgeo, lcg, svgplot  # noqa: F401

# Tracer.install rebinds functions only in modules already loaded, and cli
# loads its layers lazily, so they are imported above

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

FIG = ["--n", "2", "--theta1", "5", "--phi", "pi/8", "--samples", "16"]
SUBCOMMANDS = ("lcg", "verify", "sample", "svg")


def _traced_pass(out, subcommands=SUBCOMMANDS, argv=FIG):
    t = tracer.Tracer()
    t.install()
    try:
        for sub in subcommands:
            assert cli.main([sub, *argv, "--out", str(out)]) == 0
    finally:
        t.uninstall()
    return t


def test_traced_counts_repeat_and_add_up(tmp_path):
    first = _traced_pass(tmp_path)
    second = _traced_pass(tmp_path)
    assert first.counts() == second.counts()
    m = first.metrics(runs=len(SUBCOMMANDS), rows=16 * len(SUBCOMMANDS))
    assert m["curve.radius_at_calls_per_row"] > 0
    split = m["diffgeo.simpson_r_calls_per_row"] + m["diffgeo.stencil_r_calls_per_row"]
    assert abs(split - m["curve.radius_at_calls_per_row"]) < 1e-9
    # every row of FIG is in domain and measurable, so its stencils evaluate
    # R at theta +- h, and the Simpson segments read those values
    assert m["diffgeo.stencil_r_calls_per_row"] == 2.0
    assert m["curve.closed_passes_per_run"] == 1.0
    assert cli.main.__module__ == "polarlac.cli"  # the wrappers were taken out again


def test_traced_counts_repeat_over_a_split_grid(tmp_path, monkeypatch):
    # with two usable CPUs, 2,049 rows make three blocks, and a forked writer
    # samples block 1: the tracer counts the parent's call alone, for blocks
    # 0 and 2, one closed-form pass and 1,025 rows per run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = [*FIG[:-1], "2049"]
    first = _traced_pass(tmp_path, ("sample", "svg"), argv)
    second = _traced_pass(tmp_path, ("sample", "svg"), argv)
    assert first.counts() == second.counts()
    assert first.metrics(runs=2, rows=2 * 2049)["curve.closed_passes_per_run"] == 1.0
    assert first.values["sampled_rows"] == 2 * 1025


def test_a_flagged_row_is_evaluated_once(tmp_path, monkeypatch):
    # dense config 2 is 60 % past its domain; on one CPU, svg samples every
    # row once and draws the graph from the rows as they came, so the one
    # call of phi's value is CurveParams' phi0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    argv = ["--n", "2", "--a", "-1", "--theta1", "5", "--phi", "pi/8", "--samples", "2049"]
    t = _traced_pass(tmp_path, ("svg",), argv)
    assert t.values["flagged_rows"] > 1000
    assert t.calls["phiexpr.value"] == 1
    assert t.calls["curve.sample"] == 1
