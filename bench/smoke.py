"""Smoke test for the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and asserts that
the result line carries every metric BENCHMARK.json names, with its unit.
Not collected by a plain ``pytest`` run, since it starts some hundred
processes; run it with either of

    python3 bench/smoke.py
    python3 -m pytest bench/smoke.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _result(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            tiny=True,
        )
    assert code == 0, out.getvalue()
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def test_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            line, text = _result(workload, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True, text
            assert line["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            assert got == expected, (workload, trace)
            for name, m in line["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert f"[{workload}] {name} " in text, name
            if workload != "edge":
                assert line["failed"] == 0, text
            if trace and workload == "oracle":
                v = {name: m["value"] for name, m in line["metrics"].items()}
                split = v["diffgeo.simpson_r_calls_per_row"] + v["diffgeo.stencil_r_calls_per_row"]
                assert abs(split - v["curve.radius_at_calls_per_row"]) < 1e-9
                assert "counts_mismatched []" in text


if __name__ == "__main__":
    test_every_metric_with_its_unit()
    print("benchmark smoke test passed")
