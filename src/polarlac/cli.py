"""Command-line front end.

Four subcommands share one parameter set: ``sample`` writes the evaluated
grid as CSV and JSON, ``lcg`` writes both logarithmic curvature graphs and
their line fits, ``verify`` writes a machine-readable report of the oracle
checks, and ``svg`` writes simple line plots.  Flags override values from
a ``--config`` JSON file, which overrides the defaults a=1, b=1, theta0=0,
samples=512.

Exit codes: 0 success, 1 verification failed, 2 invalid configuration
(including a curve the closed forms or the oracle cannot evaluate, and a
run too large for the memory available), 3 expression parse error, 4 I/O
failure, 5 degenerate logarithmic curvature graph or a plot with no finite
point.

Errors are decided at two levels.  A row that raises a row error
(``curve.ROW_ERRORS``) is flagged or skipped by the library.  An error that
escapes a subcommand ends the run: ``main`` looks its class up in one table,
``_EXITS``, for the exit code and the message prefix.  ``CliError`` carries
its own code, for what this module detects itself, and a ``MemoryError``
ends the run with exit 2.

Each subcommand imports the layers it uses when it runs, and ``json`` loads
only where a run reads a config file or writes JSON.  ``sample`` and ``svg``,
which split their grid over processes, run from ``grid``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
from typing import Iterable, NamedTuple

from . import curve as _curve
from .phiexpr import ParseError, depends_on_theta, parse

EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_DEGENERATE = 5

DEFAULTS = {"a": 1.0, "b": 1.0, "theta0": 0.0, "samples": 512}

_NUMBER_KEYS = ("n", "a", "b", "theta0", "theta1")
_PARAM_KEYS = _NUMBER_KEYS + ("phi", "samples")
_CONFIG_KEYS = _PARAM_KEYS + ("out_dir", "outputs")
_SVG_OUTPUTS = ("svg-curve", "svg-rho", "svg-lcg")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class RunConfig(NamedTuple):
    n: float
    a: float
    b: float
    theta0: float
    theta1: float
    phi: str
    samples: int
    out_dir: str
    outputs: tuple[str, ...]


def _diagnose(message: str) -> None:
    colored = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if colored else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


# the options every subcommand takes, each with one value: (flag, type, help)
_OPTIONS = (
    ("--n", float, "curvature-law exponent (nonzero)"),
    ("--a", float, "curvature-law rate (nonzero, default 1)"),
    ("--b", float, "curvature-law intercept (positive, default 1)"),
    ("--theta0", float, "start angle in radians (default 0)"),
    ("--theta1", float, "end angle in radians"),
    ("--phi", str, "tangential-angle expression in theta"),
    ("--samples", int, "grid size (default 512)"),
    ("--config", str, "JSON file with the same keys"),
    ("--out", str, "output directory (default .)"),
)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    for flag, kind, text in _OPTIONS:
        common.add_argument(flag, type=kind, default=None, help=text)

    parser = argparse.ArgumentParser(
        prog="polar-lac",
        description="Synthesize polar curves with a prescribed curvature law and check them numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, text in (
        ("sample", "evaluate the curve on a grid and write samples.csv / samples.json"),
        ("lcg", "write both logarithmic curvature graphs and their line fits"),
        ("verify", "run the numeric oracle and write verify.json"),
        ("svg", "write curve.svg, rho.svg and lcg.svg line plots"),
    ):
        subparsers[name] = sub.add_parser(name, parents=[common], help=text)
    return parser, subparsers


def _load_config_file(path: str) -> dict:
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(EXIT_CONFIG, f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(EXIT_CONFIG, "config file must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(EXIT_CONFIG, f"unknown config keys: {', '.join(unknown)}")
    for key in _NUMBER_KEYS:
        if key in data and (isinstance(data[key], bool) or not isinstance(data[key], (int, float))):
            raise CliError(EXIT_CONFIG, f"config key '{key}' must be a number")
    if "phi" in data and not isinstance(data["phi"], str):
        raise CliError(EXIT_CONFIG, "config key 'phi' must be a string")
    if "samples" in data and (isinstance(data["samples"], bool) or not isinstance(data["samples"], int)):
        raise CliError(EXIT_CONFIG, "config key 'samples' must be an integer")
    if "out_dir" in data and not isinstance(data["out_dir"], str):
        raise CliError(EXIT_CONFIG, "config key 'out_dir' must be a string")
    if "outputs" in data:
        v = data["outputs"]
        if not isinstance(v, list) or not all(isinstance(o, str) for o in v):
            raise CliError(EXIT_CONFIG, "config key 'outputs' must be a list of strings")
        bad = sorted(set(v) - set(_SVG_OUTPUTS))
        if bad:
            raise CliError(EXIT_CONFIG, f"unknown outputs: {', '.join(bad)}")
    return data


def _merge_config(args: argparse.Namespace, subparser: argparse.ArgumentParser) -> RunConfig:
    merged: dict = dict(DEFAULTS)
    outputs: tuple[str, ...] = _SVG_OUTPUTS
    out_dir = "."
    if args.config is not None:
        file_data = _load_config_file(args.config)
        for key in _PARAM_KEYS:
            if key in file_data:
                merged[key] = file_data[key]
        if "out_dir" in file_data:
            out_dir = file_data["out_dir"]
        if "outputs" in file_data:
            outputs = tuple(o for o in _SVG_OUTPUTS if o in file_data["outputs"])
    for key in _PARAM_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    if args.out is not None:
        out_dir = args.out

    missing = [k for k in ("n", "theta1", "phi") if k not in merged]
    if missing:
        usage = subparser.format_usage()
        raise CliError(EXIT_CONFIG, f"{usage}missing required parameter(s): {', '.join(missing)}")
    samples = merged["samples"]
    if samples < 2:
        raise CliError(EXIT_CONFIG, "samples must be at least 2")
    numbers = {key: float(merged[key]) for key in _NUMBER_KEYS}
    return RunConfig(**numbers, phi=merged["phi"], samples=int(samples), out_dir=out_dir, outputs=outputs)


def _build_params(cfg: RunConfig) -> _curve.CurveParams:
    return _curve.CurveParams(cfg.n, cfg.a, cfg.b, cfg.theta0, cfg.theta1, parse(cfg.phi))


def _write_atomic(out_dir: str, name: str, text: str) -> None:
    _write_files(out_dir, (name,), ((text.encode(),),))


def _write_files(out_dir: str, names: tuple[str, ...], blocks: Iterable[tuple[bytes, ...]]) -> None:
    """Write ``blocks``, each the UTF-8 bytes of one text per name, to a temp
    file per name as they come; replace the named files once every temp file
    is complete, or on any failure remove every temp file, so that no named
    file is replaced."""
    name, files, tmps = names[0], [], []
    try:
        os.makedirs(out_dir, exist_ok=True)
        try:
            for name in names:
                fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
                tmps.append(tmp)
                files.append(os.fdopen(fd, "wb"))
            for chunks in blocks:
                for name, fh, chunk in zip(names, files, chunks):
                    fh.write(chunk)
            # mkstemp creates each file 0600; give it the mode open() would,
            # 0666 less the umask, which can only be read by setting it
            umask = os.umask(0o077)
            os.umask(umask)
            for name, fh, tmp in zip(names, files, tmps):
                fh.close()
                os.chmod(tmp, 0o666 & ~umask)
            for name, tmp in zip(names, tmps):
                os.replace(tmp, os.path.join(out_dir, name))
        except BaseException:
            for fh in files:
                with contextlib.suppress(OSError):
                    fh.close()
            for tmp in tmps:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {name}: {exc}") from exc


def _f17(v: float) -> str:
    return f"{v:.17g}"


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    import json
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _params_echo(cfg: RunConfig) -> dict:
    return {key: getattr(cfg, key) for key in _PARAM_KEYS}


def cmd_sample(cfg: RunConfig) -> int:
    params = _build_params(cfg)  # a bad parameter or phi ends the run before grid loads
    from . import grid
    return grid.sample(cfg, params)


def _points_csv(points: list) -> str:
    lines = ["log_rho,log_dL_dlogrho"]
    lines.extend(f"{_f17(pt.x)},{_f17(pt.y)}" for pt in points)
    return "\n".join(lines) + "\n"


def cmd_lcg(cfg: RunConfig) -> int:
    from . import diffgeo, lcg
    params = _build_params(cfg)
    report = diffgeo.compare(params, cfg.samples)
    closed_points = lcg.lcg_points(params, report.samples)
    numeric_points = lcg.lcg_numeric(report)
    closed_fit = lcg.linear_fit(closed_points)
    numeric_fit = lcg.linear_fit(numeric_points)
    _write_atomic(cfg.out_dir, "lcg_closed.csv", _points_csv(closed_points))
    _write_atomic(cfg.out_dir, "lcg_numeric.csv", _points_csv(numeric_points))
    payload = {
        "params": _params_echo(cfg),
        "expected_slope": params.n,
        "closed_form": closed_fit._asdict(),
        "numeric": numeric_fit._asdict(),
    }
    _write_atomic(cfg.out_dir, "lcg_fit.json", _dump_json(payload))
    return 0


def _is_compatible_spiral(params: _curve.CurveParams) -> bool:
    if params.n != 1.0 or depends_on_theta(params.phi.ast):
        return False
    sin0 = math.sin(params.phi0)
    if sin0 == 0.0:
        return False
    return abs(params.a - math.cos(params.phi0) / sin0) <= 1e-9


def cmd_verify(cfg: RunConfig) -> int:
    from . import diffgeo, lcg
    params = _build_params(cfg)
    report = diffgeo.compare(params, cfg.samples)
    closed_fit = lcg.linear_fit(lcg.lcg_points(params, report.samples))
    expected_intercept = math.log(abs(params.n / params.a))

    checks = []
    notes = []

    def check(name: str, value: float, tolerance: float, hard: bool, passed: bool | None = None):
        if passed is None:
            passed = math.isfinite(value) and value <= tolerance
        checks.append(
            {"name": name, "value": value, "tolerance": tolerance, "hard": hard, "passed": passed}
        )

    # with no measurable row the maximum is NaN, and the check fails
    check("ode_vs_closed_arc_length", report.ode_residual.max, 1e-8, True)
    check("lcg_closed_slope", abs(closed_fit.slope - params.n), 1e-9, True)
    check("lcg_closed_intercept", abs(closed_fit.intercept - expected_intercept), 1e-9, True)
    check("lcg_closed_r_squared", 1.0 - closed_fit.r_squared, 1e-12, True)
    compatible = _is_compatible_spiral(params)
    if compatible:
        check("compatible_phi_actual", report.phi_residual.max, 1e-5, True)

    try:
        numeric_fit = lcg.linear_fit(lcg.lcg_numeric(report))
        check("numeric_lcg_slope_minus_n", abs(numeric_fit.slope - params.n), math.inf, False, True)
        check("numeric_lcg_r_squared", numeric_fit.r_squared, math.inf, False, True)
        if compatible:
            ok = abs(numeric_fit.slope - 1.0) <= 1e-3 and numeric_fit.r_squared >= 0.999999
            check("compatible_numeric_lcg", abs(numeric_fit.slope - 1.0), 1e-3, True, ok)
    except _curve.ROW_ERRORS as exc:
        notes.append(f"numeric logarithmic curvature graph not measurable: {exc}")

    if report.phi_residual.count > 0 and report.phi_residual.max > 1e-3:
        notes.append(
            "prescribed phi differs from the measured tangential angle "
            f"(max angular distance {report.phi_residual.max:.6g}); the prescribed law "
            "is compatible with the generated trace only for special parameter choices"
        )
    if report.degenerate_rows:
        notes.append(f"{report.degenerate_rows} of {len(report.rows)} rows not measurable numerically")

    payload = {
        "params": _params_echo(cfg),
        "residuals": {
            "ode_vs_closed": report.ode_residual._asdict(),
            "rho_numeric_vs_closed": report.rho_residual._asdict(),
            "phi_actual_vs_prescribed": report.phi_residual._asdict(),
            "arc_numeric_vs_model": report.arc_residual._asdict(),
        },
        "checks": checks,
        "notes": notes,
    }
    _write_atomic(cfg.out_dir, "verify.json", _dump_json(payload))
    return 0 if all(c["passed"] for c in checks if c["hard"]) else EXIT_VERIFY_FAILED


def cmd_svg(cfg: RunConfig) -> int:
    params = _build_params(cfg)
    from . import grid
    return grid.svg(cfg, params)


_COMMANDS = {"sample": cmd_sample, "lcg": cmd_lcg, "verify": cmd_verify, "svg": cmd_svg}

# The exit code and message prefix of each error that escapes a subcommand;
# the first row whose classes match wins.  Classes are named by module and
# looked up only in modules already loaded, since no other module can have
# raised one: matching imports nothing.  Every class here is a row error, so
# the last row catches whatever the library raised for a point it could not
# evaluate.
_EXITS = (
    ("phiexpr", ("ParseError",), EXIT_PARSE, "cannot parse phi expression: "),
    ("curve", ("InvalidParameters",), EXIT_CONFIG, "invalid parameters: "),
    ("lcg", ("TooFewPoints", "DegenerateFit"), EXIT_DEGENERATE, "logarithmic curvature graph degenerated: "),
    ("svgplot", ("NothingToPlot",), EXIT_DEGENERATE, ""),
    ("curve", ("ROW_ERRORS",), EXIT_CONFIG, ""),
)


def _is_instance(exc: Exception, module: str, names: tuple[str, ...]) -> bool:
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(exc, tuple(getattr(loaded, name) for name in names))


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Spell ``--a -1e-3`` as ``--a=-1e-3``.  argparse reads an argument that
    begins with "-" as an option unless it looks like a negative integer or
    decimal, so -1e-3 or -theta could not follow its flag apart.  An argument
    that names an option as argparse reads one stays apart: a long flag,
    perhaps abbreviated or with "=value", or -h with anything after it."""
    flags = [flag for flag, *_ in _OPTIONS]
    out: list[str] = []
    for arg in argv:
        name = arg.partition("=")[0]
        option = arg.startswith("-h") or arg.startswith("--") and any(f.startswith(name) for f in [*flags, "--help"])
        if out and out[-1] in flags and arg.startswith("-") and not option:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args, subparsers[args.command])
        return _COMMANDS[args.command](cfg)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except MemoryError:
        code, message = EXIT_CONFIG, "run too large for available memory"
    except _curve.ROW_ERRORS as exc:
        code, prefix = next((c, pre) for mod, names, c, pre in _EXITS if _is_instance(exc, mod, names))
        message = prefix + str(exc)
    _diagnose(message)
    return code


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
