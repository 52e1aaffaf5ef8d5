import contextlib
import decimal
import errno
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarlac import CurveParams, arc_length, cli, curve, diffgeo, grid, lcg, parse, radius_at, svgplot
from polarlac.cli import main
from polarlac.svgplot import NothingToPlot, render_polyline
from conftest import load_schema, point

FIG4 = ["--n", "1", "--theta1", "15", "--phi", "pi/2"]
FIG5 = ["--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3"]
FIG7 = ["--n", "-1", "--theta1", "15", "--phi", "pi/2"]
SPIRAL = ["--n", "1", "--a", "1", "--b", "1", "--theta1", "6", "--phi", "pi/4"]


def run(args, tmp_path, sub="sample", extra=()):
    return main([sub, *args, *extra, "--out", str(tmp_path)])


def run_process(argv, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "polarlac", *argv, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )


def use_cpus(monkeypatch, cpus):
    # the CPUs this process may run on, which sample splits its grid over
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def in_a_writer(parent: int) -> bool:
    # true in a process sample or svg forked to write its blocks of rows
    return os.getpid() != parent


def read_json(tmp_path, name):
    with open(tmp_path / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSampleCommand:
    def test_writes_csv_and_json(self, tmp_path):
        assert run(FIG4, tmp_path, extra=("--samples", "2")) == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "theta,L,R,rho,phi,beta,x,y,in_domain"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "0"
        assert first[2] == "1"
        assert first[8] == "true"

    def test_json_mirrors_config(self, tmp_path):
        assert run(FIG5, tmp_path, extra=("--samples", "8")) == 0
        data = read_json(tmp_path, "samples.json")
        assert data["params"]["n"] == 1.0
        assert data["params"]["phi"] == "0.01*theta + 0.3"
        assert data["params"]["samples"] == 8
        assert len(data["rows"]) == 8

    def test_json_validates_against_schema(self, tmp_path):
        assert run(FIG5, tmp_path, extra=("--samples", "16")) == 0
        jsonschema.validate(read_json(tmp_path, "samples.json"), load_schema("samples.schema.json"))

    def test_out_of_domain_rows_are_null(self, tmp_path):
        args = ["--n", "-1", "--a", "-1", "--theta1", "5", "--phi", "pi/2"]
        assert run(args, tmp_path, extra=("--samples", "6")) == 0
        data = read_json(tmp_path, "samples.json")
        jsonschema.validate(data, load_schema("samples.schema.json"))
        last = data["rows"][-1]
        assert last["in_domain"] is False
        assert last["L"] is None
        assert last["theta"] == 5.0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[-1].split(",")[1] == "nan"
        assert lines[-1].endswith(",false")

    def test_a_flagged_row_is_written_with_theta_alone(self, tmp_path):
        # row 0 of sqrt(theta) + 0.6 at theta0 = 0 has no derivative: it is
        # flagged and keeps L and rho, which the files do not show
        args = ["--n", "2", "--theta1", "5", "--phi", "sqrt(theta) + 0.6"]
        assert run(args, tmp_path, extra=("--samples", "8")) == 0
        assert (tmp_path / "samples.csv").read_text().splitlines()[1] == "0" + ",nan" * 7 + ",false"
        row = read_json(tmp_path, "samples.json")["rows"][0]
        assert row == {**dict.fromkeys(["L", "R", "beta", "phi", "rho", "x", "y"]), "in_domain": False, "theta": 0.0}

    def test_csv_round_trip_is_lossless(self, tmp_path):
        assert run(FIG5, tmp_path, extra=("--samples", "64")) == 0
        p = CurveParams(1.0, 1.0, 1.0, 0.0, 15.0, parse("0.01*theta + 0.3"))
        lines = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        assert len(lines) == 64
        for line in lines:
            f = line.split(",")
            theta = float(f[0])
            L, rho, _, _ = point(p, theta)
            assert float(f[1]) == L == arc_length(p, theta)
            assert float(f[2]) == radius_at(p, theta)
            assert float(f[3]) == rho
            pv = p.phi.eval_with_derivative(theta)
            assert float(f[4]) == pv.phi
            assert float(f[5]) == theta + pv.phi

    def test_the_last_row_before_the_domain_end_keeps_its_rho(self, tmp_path):
        # n = 2, a = -1, b = 1 with a constant phi: rho = 1 - theta/2, about
        # 5e-10 at the last row, where a*L + b once rounded to 0 and flagged
        # it.  rho = exp(w) with w = log1p(-theta/2) = -21.4: log1p's half
        # ulp of w, 1.8e-15, is 8.6 ulps of rho, and exp adds at most one
        args = ["--n", "2", "--a", "-1", "--theta1", "1.999999999", "--phi", "pi/2"]
        assert run(args, tmp_path, extra=("--samples", "4")) == 0
        last = (tmp_path / "samples.csv").read_text().splitlines()[-1].split(",")
        assert last[-1] == "true"
        rho = float(last[3])
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = 1 - decimal.Decimal(float(last[0])) / 2
            assert abs(decimal.Decimal(rho) - exact) <= 10 * decimal.Decimal(math.ulp(rho))

    def test_missing_phi_exits_2_with_usage(self, tmp_path, capsys):
        assert main(["sample", "--n", "1", "--theta1", "15", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err
        assert "phi" in err

    def test_parse_error_exits_3_with_offset(self, tmp_path, capsys):
        assert run(["--n", "1", "--theta1", "15", "--phi", "theta +"], tmp_path) == 3
        assert "offset 7" in capsys.readouterr().err

    def test_io_failure_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["sample", *FIG4, "--out", str(blocker / "sub")])
        assert code == 4
        reason = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{blocker / 'sub'}'"
        assert capsys.readouterr().err == f"error: cannot write samples.csv: {reason}\n"

    def test_a_failed_write_replaces_neither_file(self, tmp_path, monkeypatch, capsys):
        # samples.json fails at its second block of rows, once both files
        # hold a block: both keep what they held, and no temp file is left
        for name in ("samples.csv", "samples.json"):
            (tmp_path / name).write_text("before")
        fdopen = os.fdopen
        opened = []

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(text)

            def close(self):
                self.fh.close()

        def failing_fdopen(fd, *args, **kwargs):
            opened.append(fdopen(fd, *args, **kwargs))
            return FullDisk(opened[-1]) if len(opened) == 2 else opened[-1]

        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        assert run(FIG4, tmp_path, extra=("--samples", "2500")) == 4
        assert capsys.readouterr().err == f"error: cannot write samples.json: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert sorted(os.listdir(tmp_path)) == ["samples.csv", "samples.json"]
        assert all((tmp_path / name).read_text() == "before" for name in ("samples.csv", "samples.json"))
        assert all(fh.closed for fh in opened)

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        assert run(["--n", "0", "--theta1", "15", "--phi", "pi/2"], tmp_path) == 2
        assert "n" in capsys.readouterr().err

    def test_samples_too_small_exit_2(self, tmp_path):
        assert run(FIG4, tmp_path, extra=("--samples", "1")) == 2

    def test_overflowing_rows_flagged(self, tmp_path):
        argv = ["sample", "--n", "0.5", "--b", "1e300", "--theta1", "1", "--phi", "theta",
                "--samples", "2"]
        proc = run_process(argv, tmp_path)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        rows = read_json(tmp_path, "samples.json")["rows"]
        assert [r["in_domain"] for r in rows] == [False, False]
        lines = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",false") for line in lines)

    def test_rows_written_as_the_generic_encoders_would(self, tmp_path, monkeypatch):
        # the rows are written from fixed templates; they must match, byte
        # for byte, the per-value %.17g join and json.dumps of the row dicts
        pool = [
            0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-310,
            0.1, 1.0 / 3.0, -2.5, 1e16, 1e22, -1.7976931348623157e308, 123456789.0, 1e-7,
            math.inf, -math.inf, math.nan,
        ]
        rng = random.Random(20261018)
        pool += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(64)]
        rows = []
        # past two blocks, so that blocks join as rows do
        for i in range(2 * grid._BLOCK + 3 * len(pool)):
            if i % 5 == 4:
                rows.append(curve._invalid_sample(pool[i % len(pool)]))
                continue
            v = [pool[(i + 7 * k) % len(pool)] for k in range(9)]
            valid = curve.SampleValidity(i % 7 != 3)
            rows.append(curve.CurveSample(*v, valid))
        monkeypatch.setattr(curve, "sample", lambda p, count, blocks: rows)

        argv = ["--n", "2", "--a", "-1", "--theta1", "5", "--phi", "pi/8"]
        assert run(argv, tmp_path, extra=("--samples", "8")) == 0

        lines = ["theta,L,R,rho,phi,beta,x,y,in_domain"]
        for r in rows:
            values = (r.theta, r.L, r.R, r.rho, r.phi, r.beta, r.x, r.y)
            flag = "true" if r.valid.in_domain else "false"
            lines.append(",".join(cli._f17(v) for v in values) + f",{flag}")
        payload = {
            "params": {"n": 2.0, "a": -1.0, "b": 1.0, "theta0": 0.0, "theta1": 5.0,
                       "phi": "pi/8", "samples": 8},
            "rows": [
                {"theta": r.theta, "L": r.L, "R": r.R, "rho": r.rho, "phi": r.phi, "beta": r.beta,
                 "x": r.x, "y": r.y, "in_domain": r.valid.in_domain}
                for r in rows
            ],
        }
        assert (tmp_path / "samples.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "samples.json").read_bytes() == cli._dump_json(payload).encode()

    # with one CPU the whole grid is sampled and formatted in this process;
    # with two it holds half the rows, and appends the other half's text
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_memory_per_row_stays_bounded(self, tmp_path, monkeypatch, cpus):
        # formatted a block of rows at a time; holding every row's CSV and
        # JSON strings until the end took about 1,550 bytes a row
        use_cpus(monkeypatch, cpus)
        argv = ["sample", "--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3", "--out", str(tmp_path)]
        assert main([*argv, "--samples", "64"]) == 0  # imports what a run loads
        tracemalloc.start()
        try:
            code = main([*argv, "--samples", "16384"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / 16384 < 1100

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_are_held_once(self, tmp_path, monkeypatch, cpus):
        # each block's text is written as it is formatted, so little more
        # than the rows themselves is alive
        use_cpus(monkeypatch, cpus)
        argv = ["sample", *FIG5, "--out", str(tmp_path)]
        assert peak_bytes_per_row(argv, 16384) < 500

    def test_large_text_round_trips(self, tmp_path):
        text = "".join(f"{i},{i / 7!r}\n" for i in range(200_000))
        assert len(text) > 3 * 2**20
        cli._write_atomic(str(tmp_path), "big.csv", text)
        assert (tmp_path / "big.csv").read_bytes() == text.encode()
        assert os.listdir(tmp_path) == ["big.csv"]

    def test_diagnostics_plain_when_not_a_tty(self, tmp_path, capsys):
        run(["--n", "1", "--theta1", "15", "--phi", "theta +"], tmp_path)
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\x1b" not in err


class TestConfigFile:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_config_file_supplies_parameters(self, tmp_path):
        cfg = self.write(tmp_path, {"n": 1, "a": 2, "theta1": 5, "phi": "pi/2", "samples": 4})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = read_json(tmp_path, "samples.json")
        assert data["params"]["a"] == 2.0
        assert data["params"]["samples"] == 4

    def test_flags_override_config(self, tmp_path):
        cfg = self.write(tmp_path, {"n": 1, "a": 2, "theta1": 5, "phi": "pi/2", "samples": 4})
        assert main(["sample", "--config", cfg, "--a", "3", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path, "samples.json")["params"]["a"] == 3.0

    def test_defaults_fill_the_rest(self, tmp_path):
        cfg = self.write(tmp_path, {"n": 1, "theta1": 5, "phi": "pi/2"})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        params = read_json(tmp_path, "samples.json")["params"]
        assert params["a"] == 1.0
        assert params["b"] == 1.0
        assert params["theta0"] == 0.0
        assert params["samples"] == 512

    def test_out_dir_from_config_and_flag_priority(self, tmp_path):
        inner = tmp_path / "from_config"
        cfg = self.write(
            tmp_path,
            {"n": 1, "theta1": 5, "phi": "pi/2", "samples": 4, "out_dir": str(inner)},
        )
        assert main(["sample", "--config", cfg]) == 0
        assert (inner / "samples.csv").exists()
        override = tmp_path / "from_flag"
        assert main(["sample", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "samples.csv").exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"n": 1, "theta1": 5, "phi": "pi/2", "color": "red"})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "color" in capsys.readouterr().err

    def test_non_object_exits_2(self, tmp_path):
        cfg = self.write(tmp_path, [1, 2, 3])
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_nesting_too_deep_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 4

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"n": True, "theta1": 5, "phi": "pi/2"})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'n' must be a number" in capsys.readouterr().err

    def test_outputs_filter(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {"n": 1, "theta1": 5, "phi": "pi/2", "samples": 16, "outputs": ["svg-rho"]},
        )
        assert main(["svg", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rho.svg").exists()
        assert not (tmp_path / "curve.svg").exists()
        assert not (tmp_path / "lcg.svg").exists()

    def test_unknown_output_exits_2(self, tmp_path):
        cfg = self.write(
            tmp_path, {"n": 1, "theta1": 5, "phi": "pi/2", "outputs": ["png"]}
        )
        assert main(["svg", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name", ["csv", "json"])
    def test_outputs_names_only_svg_files(self, tmp_path, capsys, name):
        # sample always writes both samples files, so naming one of them
        # would select nothing
        cfg = self.write(tmp_path, {"n": 1, "theta1": 5, "phi": "pi/2", "outputs": [name]})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: unknown outputs: {name}\n"
        assert not (tmp_path / "samples.csv").exists()


class TestLcgCommand:
    def test_exact_slope_for_identity_config(self, tmp_path):
        assert run(FIG4, tmp_path, sub="lcg", extra=("--samples", "64")) == 0
        data = read_json(tmp_path, "lcg_fit.json")
        assert data["expected_slope"] == 1.0
        assert abs(data["closed_form"]["slope"] - 1.0) <= 1e-9
        assert abs(data["closed_form"]["intercept"]) <= 1e-9
        assert data["closed_form"]["r_squared"] >= 1.0 - 1e-12
        assert data["numeric"]["count"] >= 2
        jsonschema.validate(data, load_schema("lcg_fit.schema.json"))

    def test_negative_n_zero_intercept(self, tmp_path):
        assert run(FIG7, tmp_path, sub="lcg", extra=("--samples", "64")) == 0
        data = read_json(tmp_path, "lcg_fit.json")
        assert abs(data["closed_form"]["intercept"]) <= 1e-9
        assert abs(data["closed_form"]["slope"] + 1.0) <= 1e-9

    def test_point_files_and_headers(self, tmp_path):
        assert run(FIG4, tmp_path, sub="lcg", extra=("--samples", "32")) == 0
        closed = (tmp_path / "lcg_closed.csv").read_text().splitlines()
        numeric = (tmp_path / "lcg_numeric.csv").read_text().splitlines()
        assert closed[0] == "log_rho,log_dL_dlogrho"
        assert numeric[0] == "log_rho,log_dL_dlogrho"
        assert len(closed) == 33
        # interior differencing plus endpoint losses shrink the numeric set
        assert 3 <= len(numeric) <= 31

    def test_stationary_rho_exits_5(self, tmp_path, capsys):
        code = run(["--n", "1", "--theta1", "1e-22", "--phi", "pi/2"], tmp_path, sub="lcg")
        assert code == 5
        assert "degenerated" in capsys.readouterr().err


class TestVerifyCommand:
    def test_incompatible_phi_noted_but_passing(self, tmp_path):
        assert run(FIG7, tmp_path, sub="verify", extra=("--samples", "64")) == 0
        data = read_json(tmp_path, "verify.json")
        jsonschema.validate(data, load_schema("verify.schema.json"))
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["ode_vs_closed_arc_length"]["passed"] is True
        assert by_name["ode_vs_closed_arc_length"]["hard"] is True
        assert by_name["lcg_closed_slope"]["passed"] is True
        soft = by_name["numeric_lcg_slope_minus_n"]
        assert soft["hard"] is False
        assert soft["tolerance"] is None
        assert any("prescribed phi differs" in note for note in data["notes"])

    def test_compatible_spiral_all_hard_checks(self, tmp_path):
        assert run(SPIRAL, tmp_path, sub="verify", extra=("--samples", "64")) == 0
        data = read_json(tmp_path, "verify.json")
        jsonschema.validate(data, load_schema("verify.schema.json"))
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["compatible_phi_actual"]["passed"] is True
        assert by_name["compatible_numeric_lcg"]["passed"] is True
        assert all(c["passed"] for c in data["checks"] if c["hard"])
        assert data["residuals"]["phi_actual_vs_prescribed"]["max"] <= 1e-5

    @pytest.mark.parametrize(
        "args",
        [
            # n within 2e-9 of 1: L once came from a power base raised to
            # about the power 5e8, and ode_vs_closed read 1e-7
            ["--n", "1.000000002", "--theta1", "15", "--phi", "pi/2"],
            ["--n", "0.999999998", "--theta1", "15", "--phi", "pi/2"],
            # a compatible spiral with a < 0: rho once came from a*L + b,
            # which cancels as the turn grows, and both spiral checks failed
            ["--n", "1", "--a", "-0.5773502691896255", "--phi", "2*pi/3", "--theta1", "40"],
            ["--n", "1", "--a", "-0.5773502691896255", "--phi", "2*pi/3", "--theta1", "60"],
        ],
        ids=["seam-above", "seam-below", "spiral-40", "spiral-60"],
    )
    def test_curves_whose_closed_form_once_cancelled_pass(self, tmp_path, args):
        assert run(args, tmp_path, sub="verify", extra=("--samples", "64")) == 0

    def test_a_class_one_slope_that_decays_to_zero_is_not_rejected(self, tmp_path):
        # at n = 1 with a < 0, a*L + b = b*exp(a*u) underflows to 0; the
        # pass carries its logarithm y = a*u, whose slope is a itself
        args = ["--n", "1", "--a", "-1000", "--theta1", "10", "--phi", "pi/2"]
        assert run(args, tmp_path, sub="verify", extra=("--samples", "16")) == 0
        assert read_json(tmp_path, "verify.json")["residuals"]["ode_vs_closed"]["max"] == 0.0

    @pytest.mark.parametrize("n", ["1.000001", "1.0000000001", "0.999999", "1"])
    def test_a_law_that_decays_past_float_range_verifies(self, tmp_path, n):
        # a*L + b = b*exp(n*w) is about e^-10000 at theta1: formed from L it
        # once rounded to 0 or below and stopped the oracle (exit 2), and a
        # graph point whose rho is subnormal once moved the closed-form
        # intercept 9e-9 (exit 1 at n = 1)
        args = ["--n", n, "--a", "-1000", "--theta1", "10", "--phi", "pi/2"]
        assert run(args, tmp_path, sub="verify") == 0
        assert read_json(tmp_path, "verify.json")["residuals"]["ode_vs_closed"]["max"] <= 1e-13

    @pytest.mark.parametrize("args", [FIG4, ["--n", "2", "--theta1", "5", "--phi", "pi/8"]], ids=["n=1", "n=2"])
    def test_a_closed_form_off_the_law_fails_the_ode_check(self, tmp_path, monkeypatch, args):
        # the oracle re-integrates the law from the turn alone and never
        # calls the compiled closure, so an L off by 1e-7 is caught; at
        # n = 1 the pass is exact, and it still bites
        compile_ = curve._compile

        def off_by_1e7(n, a, b):
            arc = compile_(n, a, b)

            def wrong(u):
                L, rho = arc(u)
                return L * (1.0 + 1e-7), rho

            return wrong

        monkeypatch.setattr(curve, "_compile", off_by_1e7)
        assert run(args, tmp_path, sub="verify", extra=("--samples", "64")) == 1
        by_name = {c["name"]: c for c in read_json(tmp_path, "verify.json")["checks"]}
        assert by_name["ode_vs_closed_arc_length"]["passed"] is False
        assert by_name["ode_vs_closed_arc_length"]["value"] == pytest.approx(1e-7, rel=1e-6)

    def test_a_long_sweep_is_re_integrated(self, tmp_path):
        # a 1e6-radian turn in 3 rows: the steps grow with L, so the pass
        # keeps its relative error at every scale of the turn
        args = ["--n", "2", "--b", "2", "--theta1", "1e6", "--phi", "sin(theta)"]
        assert run(args, tmp_path, sub="verify", extra=("--samples", "3")) == 0
        ode = read_json(tmp_path, "verify.json")["residuals"]["ode_vs_closed"]
        assert ode["count"] == 3
        assert ode["max"] <= 1e-12

    def test_a_long_exponential_turn_fits_the_step_budget(self, tmp_path):
        # L = 1e-40 * expm1(u) stays below 1e12 over 100 radians, where the
        # pass carries y = u
        args = ["--n", "1", "--b", "1e-40", "--theta1", "100", "--phi", "pi/2"]
        assert run(args, tmp_path, sub="verify") == 0
        assert read_json(tmp_path, "verify.json")["residuals"]["ode_vs_closed"]["max"] <= 1e-12

    @pytest.mark.parametrize("samples", [3, 16, 512])
    @pytest.mark.parametrize(
        "args",
        [
            # a*L + b falls to 2.5e-7 at theta1: a trial step whose stages
            # reached past the domain end would raise
            ["--n", "2", "--a", "-1", "--theta1", "1.999", "--phi", "pi/2"],
            ["--n", "3", "--a", "-1", "--theta1", "1.45", "--phi", "pi/2"],
            # the turn is 2*theta, and the domain ends at theta = 0.75
            ["--n", "1.5", "--a", "-2", "--theta1", "0.74", "--phi", "theta + pi/4"],
        ],
        ids=["n=2", "n=3", "n=1.5"],
    )
    def test_no_trial_step_reaches_past_the_domain_end(self, tmp_path, args, samples):
        assert run(args, tmp_path, sub="verify", extra=("--samples", str(samples))) == 0
        assert read_json(tmp_path, "verify.json")["residuals"]["ode_vs_closed"]["count"] == samples

    def test_unresolvable_scale_fails_hard_check(self, tmp_path):
        # a genuine log spiral over a span too small for finite differences:
        # the compatibility gate must fail rather than pass vacuously
        args = ["--n", "1", "--a", "1", "--theta1", "1e-3", "--phi", "pi/4"]
        assert run(args, tmp_path, sub="verify", extra=("--samples", "64")) == 1
        data = read_json(tmp_path, "verify.json")
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["compatible_numeric_lcg"]["passed"] is False

    def test_unmeasurable_rows_noted(self, tmp_path):
        args = ["--n", "1", "--theta1", "15", "--phi", "theta^0.25 + 3"]
        assert run(args, tmp_path, sub="verify", extra=("--samples", "32")) == 0
        data = read_json(tmp_path, "verify.json")
        assert any("not measurable" in note for note in data["notes"])
        assert data["residuals"]["arc_numeric_vs_model"]["count"] == 0
        assert data["residuals"]["arc_numeric_vs_model"]["max"] is None
        assert data["residuals"]["ode_vs_closed"]["max"] <= 1e-8


    def test_no_measurable_ode_row_fails_the_ode_check(self, tmp_path, monkeypatch):
        # the residual maximum over no row is NaN: the check is written with
        # a null value, fails, and fails the run
        compare = diffgeo.compare

        def no_ode_rows(p, count):
            return compare(p, count)._replace(ode_residual=diffgeo.ResidualSummary(math.nan, math.nan, 0))

        monkeypatch.setattr(diffgeo, "compare", no_ode_rows)
        assert run(FIG4, tmp_path, sub="verify", extra=("--samples", "16")) == 1
        checks = read_json(tmp_path, "verify.json")["checks"]
        assert checks[0] == {"name": "ode_vs_closed_arc_length", "value": None, "tolerance": 1e-8,
                             "hard": True, "passed": False}


@pytest.mark.parametrize("sub", ["lcg", "verify"])
def test_one_closed_form_pass_per_run(tmp_path, monkeypatch, sub):
    # the oracle samples the grid, and the closed-form graph is drawn from
    # the rows it sampled
    calls = []
    sample = curve.sample

    def counting(p, count):
        calls.append(count)
        return sample(p, count)

    monkeypatch.setattr(curve, "sample", counting)
    assert run(FIG4, tmp_path, sub=sub, extra=("--samples", "16")) == 0
    assert calls == [16]


def test_an_infinite_span_is_an_invalid_parameter(tmp_path):
    proc = run_process(["sample", "--n", "1", "--theta0=-1e308", "--theta1", "1e308", "--phi", "pi/2"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid parameters: theta1 - theta0 must be a finite number\n"


@pytest.mark.parametrize(
    "flag,value,rest",
    [
        ("--a", "-1e-3", ["--n", "2", "--theta1", "5", "--phi", "pi/8"]),
        ("--theta0", "-1e308", ["--n", "1", "--theta1", "1", "--phi", "pi/2"]),
        ("--phi", "-theta", ["--n", "1", "--theta1", "5"]),
    ],
    ids=["a", "theta0", "phi"],
)
def test_a_value_that_begins_with_a_dash_may_follow_its_flag(tmp_path, capsys, flag, value, rest):
    # argparse reads -1e-3 and -theta as options unless they are attached
    # with "="; both spellings run the same
    runs = {}
    for spelling, given in (("apart", [flag, value]), ("attached", [f"{flag}={value}"])):
        out = tmp_path / spelling
        code = main(["sample", *rest, *given, "--samples", "16", "--out", str(out)])
        runs[spelling] = code, capsys.readouterr(), {f.name: f.read_bytes() for f in out.iterdir()}
    assert runs["apart"][0] == 0
    assert runs["apart"] == runs["attached"]


@pytest.mark.parametrize("given", [["--a", "--b", "1"], ["--phi", "--sam", "16"], ["--a", "-h"]])
def test_a_flag_followed_by_another_option_still_lacks_its_value(tmp_path, capsys, given):
    assert main(["sample", *FIG4, *given, "--out", str(tmp_path)]) == 2
    assert f"error: argument {given[0]}: expected one argument" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def _limit_address_space():
    import resource

    limit = 400 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_a_run_too_large_for_memory_exits_2(tmp_path):
    # 20,000,000 grid rows do not fit in 400 MB of address space; the limit
    # applies to the child process alone
    argv = ["svg", "--n", "2", "--theta1", "5", "--phi", "pi/8", "--samples", "20000000", "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "polarlac", *argv], capture_output=True, text=True, preexec_fn=_limit_address_space
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: run too large for available memory"]


@pytest.mark.parametrize("sub", ["lcg", "verify"])
def test_turn_that_never_increases_exits_2(tmp_path, sub):
    proc = run_process([sub, "--n", "1", "--theta1", "5", "--phi", "0 - theta"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: tangent turn must increase from theta0 to theta1"]


NUMERIC_EDGE_ARGS = ["--theta1", "1", "--phi", "theta", "--samples", "8"]
NESTED_200 = "(" * 200 + "theta" + ")" * 200
# the root overflows; its error message names a node 601 levels deep
DEEP_OVERFLOW = " + ".join(["1e308", *["0*theta"] * 600, "1e308"])

# inputs that once ended in a traceback, one per way of escaping
ESCAPES = [
    # phi leaves its domain before theta1: the oracle cannot re-integrate
    (["verify", "--n", "2", "--theta1", "5", "--phi", "ln(1 - theta)", "--samples", "8"], 2),
    (["lcg", "--n", "2", "--theta1", "5", "--phi", "sqrt(1 - theta)", "--samples", "8"], 2),
    # a*L + b is not positive on any row, so the closed-form graph is empty
    (["lcg", "--n", "5e-324", "--a", "1e300", "--b", "0.5", "--theta0", "1e-300", "--theta1", "1",
      "--phi", "0.01*theta + 0.3", "--samples", "5"], 5),
    # |n/a| * (a*L + b) is 0, which has no logarithm
    (["svg", "--n", "1.0000000001", "--a", "1e300", "--b", "1e-300", "--theta1", "1e-300",
      "--phi", "1/(theta - 1)", "--samples", "5"], 5),
    # rho = b^(1/n) with 1/n = inf: every row is flagged, and nothing is left to plot
    (["svg", "--n", "5e-324", "--a", "-1000000.0", "--b", "1.0000000001", "--theta0", "0.5",
      "--theta1", "1", "--phi", "theta^0.5", "--samples", "5"], 2),
    (["sample", "--n", "1", "--phi", NESTED_200], 3),
    (["sample", "--n", "2", "--phi", DEEP_OVERFLOW], 2),
]
ESCAPE_IDS = ["verify-ln", "lcg-sqrt", "lcg-rho-not-positive", "svg-log-0", "svg-curve-not-finite",
              "sample-nested-200", "sample-deep-overflow"]


@pytest.mark.parametrize(
    "argv,code",
    [
        # the re-integration's slope in ln(a*L + b) starts at b^(1/n - 1) =
        # 1e300, and L = 1e300*expm1(y) passes 1e12 in the first step
        (["verify", "--n", "0.5", "--b", "1e300"], 2),
        (["lcg", "--n", "0.5", "--b", "1e300"], 2),
        # rho = b^(1/n) = 1e-600 underflows to 0, which has no logarithm
        (["lcg", "--n", "0.5", "--b", "1e-300"], 5),
        (["verify", "--n", "0.5", "--b", "1e-300"], 5),
        (["svg", "--n", "0.5", "--b", "1e-300"], 5),
        # every closed-form rho is the same float, so the fit has no slope
        (["verify", "--n", "1e300"], 5),
        *ESCAPES,
    ],
    ids=["verify-rk4-start", "lcg-rk4-start", "lcg-rho-0", "verify-rho-0", "svg-rho-0", "verify-flat-fit",
         *ESCAPE_IDS],
)
def test_numeric_edges_end_in_a_documented_code(tmp_path, argv, code):
    # the shared arguments go first, so that a case's own values win
    proc = run_process([argv[0], *NUMERIC_EDGE_ARGS, *argv[1:]], tmp_path)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "exc,code,message",
    [
        (cli.CliError(4, "x"), 4, "x"),
        (cli.ParseError("x", 3), 3, "cannot parse phi expression: x (offset 3)"),
        (curve.InvalidParameters("x"), 2, "invalid parameters: x"),
        (lcg.TooFewPoints("x"), 5, "logarithmic curvature graph degenerated: x"),
        (lcg.DegenerateFit("x"), 5, "logarithmic curvature graph degenerated: x"),
        (svgplot.NothingToPlot("x"), 5, "x"),
        (diffgeo.OdeBlowUp(1.0, 2.0), 2, str(diffgeo.OdeBlowUp(1.0, 2.0))),
        (OverflowError("x"), 2, "x"),
        (ValueError("x"), 2, "x"),
        (MemoryError(), 2, "run too large for available memory"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None,
)
def test_escaping_errors_map_through_one_table(tmp_path, monkeypatch, capsys, exc, code, message):
    def raising(cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "sample", raising)
    assert run(FIG4, tmp_path) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bugs_stay_loud(tmp_path, monkeypatch):
    def raising(cfg):
        raise TypeError("x")

    monkeypatch.setitem(cli._COMMANDS, "sample", raising)
    with pytest.raises(TypeError):
        run(FIG4, tmp_path)


def _sum_of_theta(terms):
    return " + ".join(["theta"] * terms)


# the oracle evaluates phi from deeper in the stack than parsing runs, so
# sums just short of the parse limit (990 terms) must evaluate there too
@pytest.mark.parametrize(
    "argv,code",
    [
        (["sample", "--n", "1", "--phi", "(" * 150 + "theta" + ")" * 150, "--samples", "4"], 0),
        (["sample", "--n", "1", "--phi", _sum_of_theta(900), "--samples", "4"], 0),
        (["verify", "--n", "2", "--phi", _sum_of_theta(945), "--samples", "4"], 0),
        (["verify", "--n", "2", "--phi", _sum_of_theta(985), "--samples", "8"], 0),
        # phi turns 985 radians over the sweep: no numeric graph point is usable
        (["lcg", "--n", "2", "--phi", _sum_of_theta(985), "--samples", "8"], 5),
    ],
    ids=["nested-150", "sum-900", "verify-sum-945", "verify-sum-985", "lcg-sum-985"],
)
def test_deep_expressions_that_parse_still_run(tmp_path, argv, code):
    proc = run_process([argv[0], "--theta1", "1", *argv[1:]], tmp_path)
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


_NUMBERS = st.one_of(
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0, 1.0, -1.0, 2.0, 0.5, 1.0000000001]),
    st.floats(-5.0, 5.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
_PHI_LEAVES = st.sampled_from(["theta", "pi", "0", "1", "0.5", "2", "0.01", "1e300", "1e-300"])


def _phi_nodes(children):
    binary = st.tuples(children, st.sampled_from("+-*/^"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    call = st.tuples(st.sampled_from(["sqrt", "sin", "cos", "exp", "ln", ""]), children).map(
        lambda t: f"{t[0]}({t[1]})" if t[0] else f"-({t[1]})"
    )
    return binary | call


@st.composite
def _cli_inputs(draw):
    theta0 = draw(st.floats(-100.0, 100.0))
    span = draw(st.floats(0.0, 100.0, exclude_min=True))
    return [
        draw(st.sampled_from(["sample", "lcg", "verify", "svg"])),
        f"--n={draw(_NUMBERS)!r}",
        f"--a={draw(_NUMBERS)!r}",
        f"--b={draw(_NUMBERS.map(abs))!r}",
        f"--theta0={theta0!r}",
        f"--theta1={theta0 + span!r}",
        "--phi",
        draw(st.recursive(_PHI_LEAVES, _phi_nodes, max_leaves=6)),
        "--samples",
        str(draw(st.integers(2, 16))),
    ]


def _with_escape_examples(test):
    for argv, _ in reversed(ESCAPES):
        test = example(argv=[argv[0], *NUMERIC_EDGE_ARGS, *argv[1:]])(test)
    return test


# derandomized, so every run draws the same inputs and a fresh draw cannot
# turn CI red; the known escapes run first as examples
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@_with_escape_examples
@given(argv=_cli_inputs())
def test_every_input_ends_in_a_documented_code(tmp_path_factory, argv):
    out = tmp_path_factory.getbasetemp() / "property"
    assert main([*argv, "--out", str(out)]) in range(6)


def peak_bytes_per_row(argv, rows):
    """Peak traced bytes per row of ``main(argv)`` at ``rows`` samples, after
    a small run has loaded what a run imports."""
    assert main([*argv, "--samples", "64"]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, "--samples", str(rows)]) == 0
        return tracemalloc.get_traced_memory()[1] / rows
    finally:
        tracemalloc.stop()


def polyline_points(svg_text):
    match = re.search(r'<polyline[^>]* points="([^"]*)"', svg_text)
    assert match is not None
    return match.group(1).split(" ")


def test_unbounded_quadrature_input_ends_in_exit_5(tmp_path, monkeypatch):
    # two 5e5-radian segments of an oscillating R: the first stops at the
    # arc-length budget of R calls, the second is not measured, every row
    # turns degenerate, and the graph has no points left to fit
    calls = []
    radius = curve.radius_at

    def counting(p, theta):
        calls.append(theta)
        return radius(p, theta)

    monkeypatch.setattr(curve, "radius_at", counting)
    argv = ["--n", "2", "--b", "2", "--theta1", "1e6", "--phi", "sin(theta)", "--samples", "3"]
    assert run(argv, tmp_path, sub="lcg") == 5
    # the budget of the first segment, plus the stencils of 3 rows
    assert len(calls) <= diffgeo._ARC_MAX_R_CALLS + 3 * 3


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_honour_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert run(FIG4, tmp_path, extra=("--samples", "4")) == 0
    finally:
        os.umask(old)
    for name in ("samples.csv", "samples.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


# sha256 of every file verify and lcg write at 256 samples, recorded with
# the one expm1/log1p closed form of the curve module, verify.json with the
# Dormand-Prince re-integration of ln((a*L + b)/b) in the diffgeo module,
# and the numeric graph and verify.json with its Romberg-extrapolated chord
# arc length (CPython 3.11, glibc, x86-64 Linux).  A refactor must not move a byte; a
# libm whose sin, cos, exp, expm1, log1p, pow or hypot round differently will.
RECORDED_DIGESTS = [
    (
        ["--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3"],
        {
            "verify.json": "b2edec678a2bbb2e55f53f751c97396fb80f04653d47cae10bfa785728f8373a",
            "lcg_closed.csv": "ac53be522f420cc6a38adb5308324e8abd6956d914c25d04bebadde150aa1577",
            "lcg_fit.json": "ac6f98e0869a7e46f4e7722938dd1dfdcb451d58b1d0d08af9f9b7e3df751a3f",
            "lcg_numeric.csv": "fc140c0c73023734a7b67be4101625dbef3efc30bce52e4fbccf522d1adeb4dc",
        },
    ),
    (
        ["--n", "2", "--theta1", "5", "--phi", "pi/8"],
        {
            "verify.json": "0dc16d5f33178d74273520e376a34abfeee81aacadce67aa5b44ecfec4bbf67c",
            "lcg_closed.csv": "2fec18191a6a245683033f00e458b9ecaba17fe8ee7470a95691a0075f719416",
            "lcg_fit.json": "ab0b9a4cca169af27467191dab0a55a5adeddb7e5e100cc7d209ce775aa7575d",
            "lcg_numeric.csv": "430c370982e3aa57c028d26a145a0ae36bbc910592c496ad22ce4bdb182b5140",
        },
    ),
    (
        ["--n", "-2", "--theta0", "0.1", "--theta1", "5", "--phi", "sqrt(theta) + 0.6"],
        {
            "verify.json": "f12f6a9b7b6da9e44ca4c902fd93e77f0c0b62b72e4601b9c5f553ff351753b9",
            "lcg_closed.csv": "00264be826516499bad1bd412df175188197c49db4bff0db0bf888d2c8b06b37",
            "lcg_fit.json": "9edab8787852ed7d4abaf5b54b776c78031cb290346f1301d98ffa7cb8960d0c",
            "lcg_numeric.csv": "823afc28d401bcbc7f03c9435c4ed16feec2fb7a4275f46877068fd671acef73",
        },
    ),
]


@pytest.mark.parametrize("sub", ["verify", "lcg"])
@pytest.mark.parametrize("config,digests", RECORDED_DIGESTS, ids=["n=1", "n=2", "n=-2"])
def test_outputs_match_recorded_digests(tmp_path, sub, config, digests):
    assert run(config, tmp_path, sub=sub, extra=("--samples", "256")) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == {k: v for k, v in digests.items() if k.startswith(sub)}


DENSE_CONFIGS = [
    ["--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3"],
    ["--n", "2", "--theta1", "5", "--phi", "pi/8"],
    ["--n", "2", "--a", "-1", "--theta1", "5", "--phi", "pi/8"],
]
# sha256 of every file sample and svg write at 2,500 rows, two full blocks of
# 1,024 rows and a partial one, on the benchmark's dense configs; the plots
# were recorded with each file's text joined whole before it was written,
# and each point formatted by its own call, and the sample files with the
# one expm1/log1p closed form (CPython 3.11, glibc, x86-64 Linux)
BLOCK_DIGESTS = {
    "sample": [
        {
            "samples.csv": "532c265f0bd288a5ca4c1a47758d24484d4f29801fcd39c6051658bf08b469b5",
            "samples.json": "09b4bdef77a8f8ad76d88c570df13b7f35536322ac56e707e1f11eca5b461635",
        },
        {
            "samples.csv": "9346f2fb5f6122e19770cfb055ed20f283c580f05a7dff997d34d27b79a318c4",
            "samples.json": "b5e1650ba4c0b5833e9b1bc87778565695c72dbc0adcafc128780c2a08cef00e",
        },
        {
            "samples.csv": "aec10f9bdfd88419d847a074ed67a8a00bc6c9c8d4345d92d2d5aec99a17cda0",
            "samples.json": "02d47bf74239c462d239c851d25dd860436bceb8de79f4f0b4c9c32efafdda89",
        },
    ],
    "svg": [
        {
            "curve.svg": "9a36829bc1d9563a5b988ba7b75ddf99e124f29707fff1cb00d768aba156d2e2",
            "lcg.svg": "1cf4a2104166acdd0c7949aeb10fef7354d6889a8e6b774699c0c7ed05b5cc3c",
            "rho.svg": "a905c2e2819d252f10b50e8cb384a5db689abb1dddff4b9766e43ae91a1ca266",
        },
        {
            "curve.svg": "ecd21a5ab8b10f0a1bd1c9ac6e56eedf756f8d14a05a02dca89e3d1207d9f61e",
            "lcg.svg": "b1e4de8517ea7af0534351372b8eb1acf7c68ddf2811126eb351faaf6d7d7e39",
            "rho.svg": "941bb0933cc4b8d08f69c6f6d7c0dc3869508d47192893690c8184b1d51bb2f4",
        },
        {
            "curve.svg": "b581dbd8a8ced2a8c5d24ce37b3718c58965a5d4a941f80bcc59bf2a7c23e5c3",
            "lcg.svg": "37e124f261559f031c0314a8f0028800ce428765fa692e06c93e68c439b6b484",
            "rho.svg": "0c042daae94dc734300e549ed2aaf3b2537db1c6ee93f5829d7518564ce93010",
        },
    ],
}


@pytest.mark.parametrize("sub", ["sample", "svg"])
@pytest.mark.parametrize("index", range(3), ids=["config0", "config1", "config2"])
def test_outputs_across_blocks_match_recorded_digests(tmp_path, sub, index):
    assert run(DENSE_CONFIGS[index], tmp_path, sub=sub, extra=("--samples", "2500")) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == BLOCK_DIGESTS[sub][index]


# one block, one block and a row, two blocks, two blocks and a row, four
# blocks and a row
@pytest.mark.parametrize("samples", [1024, 1025, 2048, 2049, 4097])
@pytest.mark.parametrize("index", range(3), ids=["config0", "config1", "config2"])
def test_a_grid_split_over_processes_writes_the_serial_bytes(tmp_path, monkeypatch, index, samples):
    # blocks dealt in turn to one process per CPU, never more processes than
    # blocks: each process past the first is a forked writer that samples
    # and formats its blocks, and each block's text is appended in row order
    forks = count_forks(monkeypatch)
    written = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        forks.clear()
        out = tmp_path / str(cpus)
        assert run(DENSE_CONFIGS[index], out, extra=("--samples", str(samples))) == 0
        assert len(forks) == min(cpus, -(-samples // grid._BLOCK)) - 1
        assert sorted(os.listdir(out)) == ["samples.csv", "samples.json"]
        written[cpus] = [(out / name).read_bytes() for name in ("samples.csv", "samples.json")]
    assert written[2] == written[1]
    assert written[3] == written[1]


@pytest.mark.parametrize(
    "cpus,count,blocks",
    [
        (1, 1024, [[0]]), (1, 1025, [[0, 1]]), (1, 2049, [[0, 1, 2]]), (1, 4097, [[0, 1, 2, 3, 4]]),
        (2, 1024, [[0]]), (2, 1025, [[0], [1]]), (2, 2049, [[0, 2], [1]]), (2, 4097, [[0, 2, 4], [1, 3]]),
        (3, 1024, [[0]]), (3, 1025, [[0], [1]]), (3, 2049, [[0], [1], [2]]), (3, 4097, [[0, 3], [1, 4], [2]]),
    ],
)
def test_blocks_are_dealt_to_the_processes_in_turn(monkeypatch, cpus, count, blocks):
    use_cpus(monkeypatch, cpus)
    B = grid._BLOCK
    assert grid.deal(count) == [[range(b * B, min(b * B + B, count)) for b in part] for part in blocks]


SAMPLE_FILES = ("samples.csv", "samples.json")
SVG_FILES = ("curve.svg", "lcg.svg", "rho.svg")


def _keep_old_files(tmp_path, names=SAMPLE_FILES):
    for name in names:
        (tmp_path / name).write_text("before")


def _kept_old_files(tmp_path, names=SAMPLE_FILES) -> bool:
    # no named file replaced, and no temp file left
    return sorted(os.listdir(tmp_path)) == sorted(names) and all(
        (tmp_path / name).read_text() == "before" for name in names
    )


def _sample_in_a_writer(monkeypatch, action):
    # curve.sample, but a writer first runs action()
    parent, sample = os.getpid(), curve.sample

    def wrapped(p, count, *rows):
        if in_a_writer(parent):
            action()
        return sample(p, count, *rows)

    monkeypatch.setattr(curve, "sample", wrapped)


def test_a_writer_killed_by_a_signal_exits_4(tmp_path, monkeypatch, capsys):
    _keep_old_files(tmp_path)
    use_cpus(monkeypatch, 2)
    _sample_in_a_writer(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run(FIG4, tmp_path, extra=("--samples", "4097")) == 4
    message = "rows 1024 to 2047 were not written: their process was killed by SIGKILL"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _kept_old_files(tmp_path)


def test_a_bug_in_a_writer_exits_4(tmp_path, monkeypatch, capsys):
    # the writer prints its traceback, to its own stderr, and exits 1
    _keep_old_files(tmp_path)
    use_cpus(monkeypatch, 2)

    def bug():
        raise TypeError("x")

    _sample_in_a_writer(monkeypatch, bug)
    assert run(FIG4, tmp_path, extra=("--samples", "4097")) == 4
    assert capsys.readouterr().err.endswith("error: rows 1024 to 2047 were not written: their process exited 1\n")
    assert _kept_old_files(tmp_path)


def test_a_writer_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    _keep_old_files(tmp_path)
    use_cpus(monkeypatch, 2)

    def no_memory():
        raise MemoryError

    _sample_in_a_writer(monkeypatch, no_memory)
    assert run(FIG4, tmp_path, extra=("--samples", "4097")) == 2
    assert capsys.readouterr().err == "error: run too large for available memory\n"
    assert _kept_old_files(tmp_path)


def test_a_failure_in_the_first_range_ends_every_writer(tmp_path, monkeypatch, capsys):
    # the parent fails once it has forked, while its writer sleeps far
    # longer than the run may take: it kills the writer and waits for it
    _keep_old_files(tmp_path)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    _sample_in_a_writer(monkeypatch, lambda: time.sleep(600))

    def no_memory(obj):
        raise MemoryError

    monkeypatch.setattr(cli, "_dump_json", no_memory)
    start = time.monotonic()
    assert run(FIG4, tmp_path, extra=("--samples", "4097")) == 2
    assert time.monotonic() - start < 60
    assert len(forks) == 2
    assert capsys.readouterr().err == "error: run too large for available memory\n"
    assert _kept_old_files(tmp_path)


def _svg_forks(out, samples, cpus) -> int:
    # a writer per process past the first for the rows, then a renderer per
    # process past the first for each plot's points
    def ways(count):
        return min(cpus, -(-count // grid._BLOCK))

    return ways(samples) - 1 + sum(ways(len(polyline_points((out / name).read_text()))) - 1 for name in SVG_FILES)


@pytest.mark.parametrize("samples", [1024, 1025, 2048, 2049, 4097])
@pytest.mark.parametrize("index", range(3), ids=["config0", "config1", "config2"])
def test_svg_split_over_processes_writes_the_serial_bytes(tmp_path, monkeypatch, index, samples):
    # the rows are sampled into float columns, and each plot's points
    # formatted in the view of all of them, in blocks dealt to one process
    # per CPU
    forks = count_forks(monkeypatch)
    written = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        forks.clear()
        out = tmp_path / str(cpus)
        assert run(DENSE_CONFIGS[index], out, sub="svg", extra=("--samples", str(samples))) == 0
        assert sorted(os.listdir(out)) == list(SVG_FILES)
        assert len(forks) == _svg_forks(out, samples, cpus)
        written[cpus] = [(out / name).read_bytes() for name in SVG_FILES]
    assert written[2] == written[1]
    assert written[3] == written[1]


@pytest.fixture
def split_svg_out(tmp_path, monkeypatch):
    """An out directory holding old plots, for an svg run split in two; after
    the test no plot is replaced."""
    out = tmp_path / "out"
    out.mkdir()
    _keep_old_files(out, SVG_FILES)
    use_cpus(monkeypatch, 2)
    yield out
    assert _kept_old_files(out, SVG_FILES)


def test_an_svg_writer_killed_by_a_signal_exits_4(split_svg_out, monkeypatch, capsys):
    _sample_in_a_writer(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run(FIG4, split_svg_out, sub="svg", extra=("--samples", "4097")) == 4
    message = "rows 1024 to 2047 were not written: their process was killed by SIGKILL"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_bug_in_an_svg_writer_exits_4(split_svg_out, monkeypatch, capsys):
    def bug():
        raise TypeError("x")

    _sample_in_a_writer(monkeypatch, bug)
    assert run(FIG4, split_svg_out, sub="svg", extra=("--samples", "4097")) == 4
    assert capsys.readouterr().err.endswith("error: rows 1024 to 2047 were not written: their process exited 1\n")


def test_an_svg_writer_out_of_memory_exits_2(split_svg_out, monkeypatch, capsys):
    def no_memory():
        raise MemoryError

    _sample_in_a_writer(monkeypatch, no_memory)
    assert run(FIG4, split_svg_out, sub="svg", extra=("--samples", "4097")) == 2
    assert capsys.readouterr().err == "error: run too large for available memory\n"


def test_a_renderer_killed_by_a_signal_exits_4(split_svg_out, monkeypatch, capsys):
    # the process that formats blocks 1 and 3 of curve.svg's points dies
    parent, text = os.getpid(), svgplot.Polyline.text

    def killed_in_a_writer(self, start, stop):
        if in_a_writer(parent):
            os.kill(os.getpid(), signal.SIGKILL)
        return text(self, start, stop)

    monkeypatch.setattr(svgplot.Polyline, "text", killed_in_a_writer)
    assert run(FIG4, split_svg_out, sub="svg", extra=("--samples", "4097")) == 4
    message = "points 1024 to 2047 of curve.svg were not written: their process was killed by SIGKILL"
    assert capsys.readouterr().err == f"error: {message}\n"


def _fail_in_a_writer(monkeypatch, width, sent, writes, fail):
    # grid._write_part, but in a writer whose blocks have ``width`` texts,
    # fail() runs at the ``writes``-th write to the pipe once ``sent`` blocks
    # have gone up it whole, after what was written before has gone too
    write_part = grid._write_part

    class Pipe:
        def __init__(self, pipe):
            self.pipe, self.sent, self.writes = pipe, 0, 0

        def write(self, data):
            if self.sent == sent:
                self.writes += 1
                if self.writes == writes:
                    self.pipe.flush()
                    fail()
            return self.pipe.write(data)

        def flush(self):
            self.sent += 1
            self.pipe.flush()

    def failing(pipe, blocks, rows, record):
        write_part(Pipe(pipe) if record.size == 8 * width else pipe, blocks, rows, record)

    monkeypatch.setattr(grid, "_write_part", failing)


def _count_blocks(monkeypatch) -> list:
    # the blocks each grid._parts call yielded, one count per call
    parts, counts = grid._parts, []

    def counting(*args):
        counts.append(0)
        with contextlib.closing(parts(*args)) as blocks:
            for chunks in blocks:
                counts[-1] += 1
                yield chunks

    monkeypatch.setattr(grid, "_parts", counting)
    return counts


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _no_memory():
    raise MemoryError


@pytest.mark.parametrize("failure", ["killed", "out-of-memory"])
@pytest.mark.parametrize("process", ["sample-writer", "svg-writer", "svg-renderer"])
def test_a_process_failing_on_its_second_block_ends_the_run(tmp_path, monkeypatch, capsys, process, failure):
    # with two CPUs, 4,097 rows, or points, make five blocks, and the forked
    # process does blocks 1 and 3: it fails as it starts to send block 3,
    # and the parent has passed on blocks 0 to 2
    sub, names, width, block = {
        "sample-writer": ("sample", SAMPLE_FILES, 2, "rows 3072 to 4095"),
        "svg-writer": ("svg", SVG_FILES, 6, "rows 3072 to 4095"),
        "svg-renderer": ("svg", SVG_FILES, 1, "points 3072 to 4095 of curve.svg"),
    }[process]
    _keep_old_files(tmp_path, names)
    use_cpus(monkeypatch, 2)
    _fail_in_a_writer(monkeypatch, width, 1, 1, {"killed": _killed, "out-of-memory": _no_memory}[failure])
    counts = _count_blocks(monkeypatch)
    code = run(FIG4, tmp_path, sub=sub, extra=("--samples", "4097"))
    assert counts[-1] == 3
    code_and_message = {
        "killed": (4, f"{block} were not written: their process was killed by SIGKILL"),
        "out-of-memory": (2, "run too large for available memory"),
    }[failure]
    assert (code, capsys.readouterr().err) == (code_and_message[0], f"error: {code_and_message[1]}\n")
    assert _kept_old_files(tmp_path, names)


@pytest.mark.parametrize("sub,width", [("sample", 2), ("svg", 6)])
def test_a_writer_killed_within_a_block_exits_4_naming_it(tmp_path, monkeypatch, capsys, sub, width):
    # the writer sends the record of its first block and the block's first
    # text, and dies before its second: the parent gets fewer bytes than the
    # record promised
    names = SAMPLE_FILES if sub == "sample" else SVG_FILES
    _keep_old_files(tmp_path, names)
    use_cpus(monkeypatch, 2)
    _fail_in_a_writer(monkeypatch, width, 0, 3, _killed)
    assert run(FIG4, tmp_path, sub=sub, extra=("--samples", "4097")) == 4
    message = "rows 1024 to 2047 were not written: their process was killed by SIGKILL"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _kept_old_files(tmp_path, names)


# runs sample on three CPUs in a process of its own, whose first write to a
# named file's temp file waits a second, long enough for each writer to fill
# its pipe with more than the pipe holds, and then fails with ENOSPC; prints
# the exit code, whether every writer was alive at the failure, whether a
# child was left after the run, and the writers' pids
_BLOCKED_WRITERS = """
import errno, os, sys, time
from polarlac import cli
os.sched_getaffinity = lambda pid: {0, 1, 2}
fork, fdopen, forks, alive = os.fork, os.fdopen, [], []

def forking():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

class Full:
    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        time.sleep(1)
        alive.append(all(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in forks))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        self.fh.close()

os.fork = forking
os.fdopen = lambda fd, *args, **kwargs: Full(fdopen(fd, *args, **kwargs))
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(code, alive == [True], left, *forks)
"""


def test_a_parent_failing_while_its_writers_block_on_full_pipes_ends_them_quietly(tmp_path):
    # 16,384 rows in three processes: each writer has over 2 MB to send
    argv = ["sample", *FIG4, "--samples", "16384", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_WRITERS, *argv], capture_output=True, text=True, timeout=120)
    code, alive, left, *forks = proc.stdout.split()
    assert (code, alive, left, len(forks)) == ("4", "True", "False", 2)
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert proc.stderr == f"error: cannot write samples.csv: {reason}\n"
    assert os.listdir(tmp_path) == []
    for pid in map(int, forks):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_split_sample_makes_one_temp_file_per_output_and_no_other(tmp_path, monkeypatch):
    # the writers send their blocks up their pipes; only the parent makes
    # files, one temp file per named output.  Every process appends to one log
    log = tmp_path / "made"

    def logged(name, make):
        def making(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(name + "\n")
            return make(*args, **kwargs)
        return making

    monkeypatch.setattr(tempfile, "TemporaryFile", logged("TemporaryFile", tempfile.TemporaryFile))
    monkeypatch.setattr(tempfile, "mkstemp", logged("mkstemp", tempfile.mkstemp))
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert run(FIG4, tmp_path / "out", extra=("--samples", "4097")) == 0
    assert len(forks) == 1
    assert log.read_text().splitlines() == ["mkstemp", "mkstemp"]


def test_a_failure_in_the_svg_parent_ends_every_writer(tmp_path, monkeypatch, capsys):
    # the parent fails once it has forked, while its writers sleep far longer
    # than the run may take: it kills them and waits for them
    _keep_old_files(tmp_path, SVG_FILES)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    _sample_in_a_writer(monkeypatch, lambda: time.sleep(600))

    def no_memory(p, rows):
        raise MemoryError

    monkeypatch.setattr(lcg, "lcg_points", no_memory)
    start = time.monotonic()
    assert run(FIG4, tmp_path, sub="svg", extra=("--samples", "4097")) == 2
    assert time.monotonic() - start < 60
    assert len(forks) == 2
    assert capsys.readouterr().err == "error: run too large for available memory\n"
    assert _kept_old_files(tmp_path, SVG_FILES)


@pytest.mark.parametrize("index", range(3), ids=["config0", "config1", "config2"])
def test_each_svg_output_alone_writes_the_full_runs_bytes(tmp_path, monkeypatch, index):
    use_cpus(monkeypatch, 2)
    argv = ["svg", *DENSE_CONFIGS[index], "--samples", "4097"]
    assert main([*argv, "--out", str(tmp_path / "all")]) == 0
    for output, name in zip(cli._SVG_OUTPUTS, ("curve.svg", "rho.svg", "lcg.svg")):
        config = tmp_path / f"{output}.json"
        config.write_text(json.dumps({"outputs": [output]}))
        out = tmp_path / output
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        assert os.listdir(out) == [name]
        assert (out / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_a_view_that_fails_on_the_second_plot_leaves_the_first_written(tmp_path, monkeypatch, capsys):
    # the grid spans 1.7e308 radians, so the radius plot's theta axis overflows
    # once padded; phi' = -1 puts every row in domain at the origin, where the
    # curve's flat view is fine
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    argv = ["--n", "1", "--theta0", "-8.5e307", "--theta1", "8.5e307", "--phi", "0 - theta"]
    assert run(argv, tmp_path, sub="svg", extra=("--samples", "4097")) == 5
    assert capsys.readouterr().err == "error: radius of curvature degenerated: its range overflows a float\n"
    assert forks
    assert os.listdir(tmp_path) == ["curve.svg"]
    assert polyline_points((tmp_path / "curve.svg").read_text())


def test_a_blocked_out_dir_still_fails_a_split_svg_with_exit_4(tmp_path, monkeypatch, capsys):
    use_cpus(monkeypatch, 2)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["svg", *FIG4, "--samples", "4097", "--out", str(blocker / "sub")]) == 4
    reason = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{blocker / 'sub'}'"
    assert capsys.readouterr().err == f"error: cannot write curve.svg: {reason}\n"


# runs each (subcommand, argv, out) job of argv[1] through the CLI, all in
# one process, and stops at the first that does not exit 0
_DIGEST_DRIVER = """
import json, sys
from polarlac.cli import main
for sub, argv, out in json.loads(sys.argv[1]):
    if main([sub, *argv, "--out", out]):
        sys.exit(f"{sub} {argv} did not exit 0")
"""


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_other_pythons_write_the_recorded_digests(tmp_path, python):
    # criterion 8's identical bytes on another interpreter, which needs no
    # test dependency to run the CLI from src/; one that is missing or does
    # not start (a pyenv shim with no such version exits 127) is skipped
    exe = shutil.which(python)
    if exe is None:
        pytest.skip(f"{python} is not on PATH")
    probe = subprocess.run(
        [exe, "-c", "import sys; print(sys.version.split()[0])"], capture_output=True, text=True, timeout=60
    )
    if probe.returncode != 0:
        pytest.skip(f"{python} does not start (exit {probe.returncode})")
    expected, jobs = {}, []
    for i, (config, digests) in enumerate(RECORDED_DIGESTS):
        for sub in ("verify", "lcg"):
            out = tmp_path / f"{sub}{i}"
            jobs.append((sub, [*config, "--samples", "256"], str(out)))
            expected[out.name] = {k: v for k, v in digests.items() if k.startswith(sub)}
    for sub, configs in BLOCK_DIGESTS.items():
        for i, digests in enumerate(configs):
            out = tmp_path / f"{sub}{i}"
            jobs.append((sub, [*DENSE_CONFIGS[i], "--samples", "2500"], str(out)))
            expected[out.name] = digests
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [exe, "-c", _DIGEST_DRIVER, json.dumps(jobs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    written = {
        name: {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in (tmp_path / name).iterdir()}
        for name in expected
    }
    assert written == expected, f"{python} is Python {probe.stdout.strip()}"


class TestSvgCommand:
    def test_curve_has_all_sample_points(self, tmp_path):
        assert run(FIG4, tmp_path, sub="svg", extra=("--samples", "512")) == 0
        for name in ("curve.svg", "rho.svg", "lcg.svg"):
            text = (tmp_path / name).read_text()
            assert text.startswith("<svg ")
            assert len(polyline_points(text)) == 512

    def test_deterministic_byte_output(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        for out in (one, two):
            assert main(["svg", *FIG5, "--samples", "128", "--out", str(out)]) == 0
            assert main(["sample", *FIG5, "--samples", "128", "--out", str(out)]) == 0
        for name in ("curve.svg", "rho.svg", "lcg.svg", "samples.csv", "samples.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_all_invalid_exits_2(self, tmp_path, capsys):
        args = ["--n", "1", "--theta1", "1", "--phi", "sqrt(0 - theta)"]
        assert run(args, tmp_path, sub="svg", extra=("--samples", "16")) == 2
        assert "nothing to plot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "output,subject", [("svg-curve", "curve"), ("svg-rho", "radius of curvature")]
    )
    def test_a_view_that_overflows_exits_5(self, tmp_path, capsys, output, subject):
        # x reaches about -3.7e306 and 7.8e306 and rho 1e307: padding the
        # range by 5 percent, or taking its span, overflows a float
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"outputs": [output]}))
        out = tmp_path / "out"
        argv = ["svg", "--n", "1", "--b", "1e307", "--theta1", "3.5", "--phi", "pi/2", "--samples", "64"]
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"error: {subject} degenerated: its range overflows a float\n"
        assert not out.exists()

    def test_plots_are_held_one_at_a_time(self, tmp_path):
        # each plot's points and text are released before the next plot's
        # are built, and its coordinates are formatted a block at a time
        assert peak_bytes_per_row(["svg", *FIG5, "--out", str(tmp_path)], 16384) < 600


def reference_polyline_points(points):
    """The polyline's coordinates as formatted one point at a time: each value
    through its own affine map and _fmt."""
    finite = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    x0, x1 = svgplot._padded_range(min(x for x, _ in finite), max(x for x, _ in finite))
    y0, y1 = svgplot._padded_range(min(y for _, y in finite), max(y for _, y in finite))

    def px(x):
        return (x - x0) / (x1 - x0) * svgplot._WIDTH

    def py(y):
        return svgplot._HEIGHT - (y - y0) / (y1 - y0) * svgplot._HEIGHT

    return [f"{svgplot._fmt(px(x))},{svgplot._fmt(py(y))}" for x, y in finite]


def _dense_point_sets():
    # what svg plots at 2,500 rows, two full blocks of points and a partial
    # one, on the benchmark's dense configs
    sets = []
    for config in DENSE_CONFIGS:
        values = dict(zip(config[0::2], config[1::2]))
        a = float(values.get("--a", "1"))
        p = CurveParams(float(values["--n"]), a, 1.0, 0.0, float(values["--theta1"]), parse(values["--phi"]))
        rows = curve.sample(p, 2500)
        good = [r for r in rows if r.valid.in_domain]
        sets += [[(r.x, r.y) for r in good], [(r.theta, r.rho) for r in good], lcg.lcg_points(p, rows)]
    return sets


_rng = random.Random(13)
REFERENCE_POINT_SETS = [
    *_dense_point_sets(),
    # values that print as -0.000000 under %.6f, at the low edges of the view
    [(-1e-9, -0.0), (0.0, 1e-9), (-5e-7, 4e-7), (-0.0, -1e-300)],
    # values of 1e20 squeeze the rest of the view into its edge
    [(1e20, -1e20), (0.0, 0.0), (-1.5, 2.5), (1e-20, -1e-20), (-1e20, 1e20)],
    # non-finite pairs are skipped, in and across blocks
    [(math.nan, 0.0), *[(float(i), _rng.uniform(-1, 1)) for i in range(2500)], (0.0, math.inf)]
    + [(math.inf, -math.inf), (-1.0, math.nan)] * 700,
]
REFERENCE_IDS = [f"config{i}-{plot}" for i in range(3) for plot in ("curve", "rho", "lcg")] + [
    "negative-zero", "1e20", "non-finite"]


class TestRenderPolyline:
    def test_no_finite_points(self):
        with pytest.raises(ValueError):
            render_polyline([(math.nan, 1.0), (math.inf, 2.0)])

    def test_no_finite_points_names_the_subject(self):
        with pytest.raises(NothingToPlot, match="^curve degenerated: no finite points to plot$"):
            render_polyline([(math.nan, 1.0)], "curve")

    def test_skips_non_finite_points(self):
        text = render_polyline([(0.0, 0.0), (math.nan, 1.0), (1.0, 1.0)])
        assert len(polyline_points(text)) == 2

    def test_no_negative_zero(self):
        text = render_polyline([(-1.0, -1.0), (1.0, 1.0)])
        assert "-0.000000" not in text

    def test_flat_data_still_renders(self):
        text = render_polyline([(0.0, 2.0), (1.0, 2.0)])
        assert len(polyline_points(text)) == 2

    @pytest.mark.parametrize(
        "points",
        [
            [(-1e308, 0.0), (1e308, 1.0)],  # the span overflows
            [(0.0, 1.75e308), (1.0, 1.75e308)],  # the padded range overflows
            [(0.0, -1.7e308), (1.0, 1.0)],
        ],
    )
    def test_a_view_that_overflows_names_the_subject(self, points):
        with pytest.raises(NothingToPlot, match="^rho degenerated: its range overflows a float$"):
            render_polyline(points, "rho")

    @pytest.mark.parametrize("points", REFERENCE_POINT_SETS, ids=REFERENCE_IDS)
    def test_points_match_the_per_point_reference(self, points):
        text = render_polyline(points)
        assert polyline_points(text) == reference_polyline_points(points)
        assert "-0.000000" not in text


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "polar-lac" in capsys.readouterr().out

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "polarlac", "sample", *FIG4, "--samples", "4",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["sample", *FIG4, "--samples", "4"], 0),
            (["sample", *FIG4, "--n", "0"], 2),
            (["verify", "--config", "no-such-dir/config.json"], 4),
        ],
        ids=["success", "exit-2", "exit-4"],
    )
    def test_a_process_ends_as_main_returns(self, tmp_path, capsys, argv, code):
        # the process leaves without finalizing the interpreter, which
        # changes nothing a run shows
        proc = run_process(argv, tmp_path / "process")
        assert main([*argv, "--out", str(tmp_path / "inline")]) == code
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

        def files(d):
            return {f.name: f.read_bytes() for f in d.iterdir()} if d.exists() else None

        assert files(tmp_path / "process") == files(tmp_path / "inline")

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv,stream,code",
        [
            (["--help"], "stdout", 0),
            ([], "stderr", 2),
            (["sample", *FIG4, "--n", "0", "--out", "."], "stderr", 2),
        ],
        ids=["help", "usage", "invalid"],
    )
    def test_a_reader_that_has_gone_changes_no_exit_code(self, unbuffered, argv, stream, code):
        # the stream is a pipe whose read end is closed before the run starts
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        r, w = os.pipe()
        os.close(r)
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: w}
        try:
            proc = subprocess.run([sys.executable, "-m", "polarlac", *argv], env=env, **streams)
        finally:
            os.close(w)
        assert proc.returncode == code
        assert (proc.stdout or b"") + (proc.stderr or b"") == b""

    def test_console_script(self, tmp_path):
        exe = shutil.which("polar-lac")
        assert exe is not None
        proc = subprocess.run(
            [exe, "verify", *SPIRAL, "--samples", "32", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "verify.json").exists()


LAYERS = {"polarlac.diffgeo", "polarlac.grid", "polarlac.lcg", "polarlac.svgplot"}


def modules_loaded_by(source):
    """Run ``source`` in a fresh interpreter and return the modules it loaded
    beyond those the interpreter's start-up had: ``site`` may load typing or
    tempfile already, so only the difference is ours."""
    script = f"import sys\n_before = set(sys.modules)\n{source}\nprint(*sorted(set(sys.modules) - _before))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestStartUp:
    def test_importing_the_cli_loads_no_dataclasses_and_no_layer_it_may_not_need(self):
        added = modules_loaded_by("import polarlac.cli")
        assert "polarlac.cli" in added
        assert not added & ({"dataclasses", "inspect", "json"} | LAYERS)

    @pytest.mark.parametrize(
        "sub,layers",
        [
            ("sample", {"polarlac.grid"}),
            ("svg", {"polarlac.grid", "polarlac.lcg", "polarlac.svgplot"}),
            ("lcg", {"polarlac.diffgeo", "polarlac.lcg"}),
            ("verify", {"polarlac.diffgeo", "polarlac.lcg"}),
        ],
    )
    def test_a_run_loads_only_the_layers_of_its_subcommand(self, tmp_path, sub, layers):
        argv = [sub, *FIG4, "--samples", "8", "--out", str(tmp_path)]
        added = modules_loaded_by(f"from polarlac.cli import main\nassert main({argv!r}) == 0")
        assert added & LAYERS == layers
        assert not added & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("sub", ["sample", "lcg", "verify", "svg"])
    def test_a_run_loads_only_the_standard_library(self, tmp_path, sub):
        # site may load third-party modules before the script starts, so
        # modules_loaded_by leaves them out; everything a run adds must be
        # the package's own or the standard library's
        argv = [sub, *FIG4, "--samples", "16", "--out", str(tmp_path)]
        added = modules_loaded_by(f"from polarlac.cli import main\nassert main({argv!r}) == 0")
        assert "polarlac.cli" in added
        tops = {name.partition(".")[0] for name in added}
        assert tops - {"polarlac"} <= set(sys.stdlib_module_names)

    def test_mapping_an_escaped_error_to_its_exit_code_imports_nothing(self, tmp_path):
        # the error passes the rows of lcg and svgplot on its way to the last
        # row; neither module is loaded, so neither can have raised it, and
        # the replaced subcommand loads no grid
        argv = ["sample", *FIG4, "--out", str(tmp_path)]
        added = modules_loaded_by(
            "from polarlac import cli\n"
            "def escape(cfg):\n"
            "    raise OverflowError('x')\n"
            "cli._COMMANDS['sample'] = escape\n"
            f"assert cli.main({argv!r}) == cli.EXIT_CONFIG"
        )
        assert not added & LAYERS
