import errno
import hashlib
import json
import math
import os
import random
import re
import shutil
import stat
import struct
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarlac import CurveParams, arc_length, cli, curve, diffgeo, lcg, parse, radius_at, radius_of_curvature, svgplot
from polarlac.cli import main
from polarlac.svgplot import NothingToPlot, render_polyline
from conftest import load_schema

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

    def test_csv_round_trip_is_lossless(self, tmp_path):
        assert run(FIG5, tmp_path, extra=("--samples", "64")) == 0
        p = CurveParams(1.0, 1.0, 1.0, 0.0, 15.0, parse("0.01*theta + 0.3"))
        lines = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        assert len(lines) == 64
        for line in lines:
            f = line.split(",")
            theta = float(f[0])
            L = arc_length(p, theta)
            assert float(f[1]) == L
            assert float(f[2]) == radius_at(p, theta)
            assert float(f[3]) == radius_of_curvature(p, L)
            pv = p.phi.eval_with_derivative(theta)
            assert float(f[4]) == pv.phi
            assert float(f[5]) == theta + pv.phi

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
        for i in range(2 * cli._BLOCK_ROWS + 3 * len(pool)):
            if i % 5 == 4:
                rows.append(curve._invalid_sample(pool[i % len(pool)]))
                continue
            v = [pool[(i + 7 * k) % len(pool)] for k in range(9)]
            valid = curve.SampleValidity(i % 7 != 3)
            rows.append(curve.CurveSample(*v, valid))
        monkeypatch.setattr(curve, "sample", lambda p, count: rows)

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

    def test_memory_per_row_stays_bounded(self, tmp_path):
        # formatted a block of rows at a time; holding every row's CSV and
        # JSON strings until the end took about 1,550 bytes a row
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

    def test_rows_are_held_once(self, tmp_path):
        # each block's text is written as it is formatted, so little more
        # than the rows themselves is alive
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
    # rho = g^(1/n) with 1/n = inf: no row of curve.svg is finite
    (["svg", "--n", "5e-324", "--a", "-1000000.0", "--b", "1.0000000001", "--theta0", "0.5",
      "--theta1", "1", "--phi", "theta^0.5", "--samples", "5"], 5),
    (["sample", "--n", "1", "--phi", NESTED_200], 3),
    (["sample", "--n", "2", "--phi", DEEP_OVERFLOW], 2),
]
ESCAPE_IDS = ["verify-ln", "lcg-sqrt", "lcg-rho-not-positive", "svg-log-0", "svg-curve-not-finite",
              "sample-nested-200", "sample-deep-overflow"]


@pytest.mark.parametrize(
    "argv,code",
    [
        # b^(1/n) = 1e600 overflows at the first RK4 slope
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
    # two 5e5-radian segments of an oscillating R: each stops at the Simpson
    # evaluation budget, every row turns degenerate, and the graph has no
    # points left to fit
    calls = []
    radius = curve.radius_at

    def counting(p, theta):
        calls.append(theta)
        return radius(p, theta)

    monkeypatch.setattr(curve, "radius_at", counting)
    argv = ["--n", "2", "--b", "2", "--theta1", "1e6", "--phi", "sin(theta)", "--samples", "3"]
    assert run(argv, tmp_path, sub="lcg") == 5
    # three R calls per integrand evaluation, plus the stencils of 3 rows
    assert len(calls) <= 2 * 3 * diffgeo._SIMPSON_MAX_EVALS + 3 * 3


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
# the closed forms evaluated term by term per call and the oracle's RK4 and
# Simpson steps as separate calls (CPython 3.11, glibc, x86-64 Linux).
# Compiling the forms once per curve and inlining those steps must not move
# a byte; a libm whose sin, exp or pow round differently will.
RECORDED_DIGESTS = [
    (
        ["--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3"],
        {
            "verify.json": "ca7b871de678bc748cc7bfb0d29c7efba0d4daf25e45f377df62983bde04e511",
            "lcg_closed.csv": "1d4b33710dffc9b351d78a8a6c65ea29b5dc99733545881f42eea59dff5907a0",
            "lcg_fit.json": "eacf0e3c0bb2837a65d17129b4ea7cdcc0bfcf74f9d9e7babb779c2ed3ae3c17",
            "lcg_numeric.csv": "c66a69a725895d751b00ec161054cae7a20eda2d1f2c1e629215c26fb6a81696",
        },
    ),
    (
        ["--n", "2", "--theta1", "5", "--phi", "pi/8"],
        {
            "verify.json": "e70bc5e3590a84e0321a80a9db775bb8b32a53c9ee1494a42fe1c67817fcc6c9",
            "lcg_closed.csv": "25d886e7d0cf3fcfdea97cca53065da668f6eaed7ecbba420a0b3328bf9636e0",
            "lcg_fit.json": "498a099937d81af85d5833c5286044d7d90dc8a7bdc7e868825f3872afc8cc0d",
            "lcg_numeric.csv": "dec770de29b4ac0054eb2c6a7f46fb1a8e522492b723168a40b02efb587e1cd9",
        },
    ),
    (
        ["--n", "-2", "--theta0", "0.1", "--theta1", "5", "--phi", "sqrt(theta) + 0.6"],
        {
            "verify.json": "d537f9fb51332352390eb76394fd462534897b37065f6af17dcbfc433f09a650",
            "lcg_closed.csv": "1cc014b03220e443da8fb9492587472ba045f060aca402bac65a5221833f6a7c",
            "lcg_fit.json": "d1eb9648a18b72906500a20d5b424d93bf268482331ed86a940c97356e4c207a",
            "lcg_numeric.csv": "7e13416d3d95ad23d61b8aa9b4d361fd46f299780e7dec7ad7374cd619300146",
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
# 1,024 rows and a partial one, on the benchmark's dense configs; recorded
# with each file's text joined whole before it was written, and each point
# of a plot formatted by its own call (CPython 3.11, glibc, x86-64 Linux)
BLOCK_DIGESTS = {
    "sample": [
        {
            "samples.csv": "6bb4d675d78de6e85a632b7c3d54e2592f500d47b2d29be4332cc7968e01d0b0",
            "samples.json": "d622eff92f299b3519745028feac040c24b96131f3d3cb88d17f233d6a7dc2c7",
        },
        {
            "samples.csv": "0951dc671e3b6918513b7984766797ef80022b689fce2cc0998e7d3b666f4015",
            "samples.json": "6923a272f8731efa5552449b8a56ac70ee87f9dbad17acba4b598ed04bed02a5",
        },
        {
            "samples.csv": "99e44ae79649f6bbbb0076bece07340152b7ac6260fc329ceb7bf5d701ad1239",
            "samples.json": "093f687fb245ddb16b35cb6f4ad73731189094df05d47e222a0a5d574a92d7ba",
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


LAYERS = {"polarlac.diffgeo", "polarlac.lcg", "polarlac.svgplot"}


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
            ("sample", set()),
            ("svg", {"polarlac.lcg", "polarlac.svgplot"}),
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
        # row; neither module is loaded, so neither can have raised it
        argv = ["sample", *FIG4, "--out", str(tmp_path)]
        added = modules_loaded_by(
            "from polarlac import cli\n"
            "def escape(cfg):\n"
            "    raise OverflowError('x')\n"
            "cli._COMMANDS['sample'] = escape\n"
            f"assert cli.main({argv!r}) == cli.EXIT_CONFIG"
        )
        assert not added & LAYERS
