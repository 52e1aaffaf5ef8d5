"""polar-lac benchmark.

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.py``:

* ``oracle``  verify and lcg over every figure configuration at two grid sizes
* ``dense``   sample and svg at 65,536 rows, one config mostly past its domain
* ``edge``    one short run per documented error exit code, plus two inputs
              that escape as tracebacks
* ``all``     every workload, untraced and traced, one after the other

With ``--trace 0`` every run is its own ``python -m polarlac`` process,
launched one at a time by this process (a closed loop with one client), and
the end-to-end metrics come from those processes.  Passes over the
workload's run list repeat, each in an order drawn from ``--seed``, while
another pass still fits in ``--seconds``; at least one pass always runs.
Before the passes, ``setup_s`` is measured as the median of several probe
processes that start the interpreter, import ``polarlac.cli``, parse a run's
arguments and phi, and exit.

With ``--trace 1`` the same run list is driven in-process through
``polarlac.cli.main``: one untraced pass, then two passes with the layers
wrapped by ``tracer.py``.  The first traced pass gives the per-layer
metrics; the two must give identical counts.  ``trace.overhead_ratio`` is
the first traced pass's wall time over the untraced pass's.

Every run is checked by ``checks.py``.  A run that misses a check counts as
failed.  ``correct`` turns false when a run ends normally with a wrong
result: a wrong exit code, bad output content, output that differs between
passes, or traced counts that do not repeat.  A run that dies with a
traceback is a failed run, not a wrong result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric by name with its unit, the environment, the tail
percentile behind ``run_s_tail``, a digest over every output file, and the
failed runs.  The same, with every run's record, goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_TIMEOUT_S = 120
SETUP_PROBES = 15
START_PROBES = 7
IMPORT_PROBES = 7
TAIL_BEYOND = 10


def _units(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- processes ---------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], env: dict[str, str], log_dir: Path):
    """Run one process to completion; return (wall s, user+sys s, max RSS
    KiB, exit code, stdout, stderr)."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    # a run that hangs is killed, and then reads as a failed run
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(RUN_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        code,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def _median_start(args: list[str], env, log_dir: Path, count: int) -> float:
    times = []
    for _ in range(count):
        wall, _, _, code, _, err = _spawn(args, env, log_dir)
        if code != 0:
            raise BenchError(f"probe {args} exited {code}: {err.strip()[-500:]}")
        times.append(wall)
    return statistics.median(times)


def environment(env, log_dir: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python_c_pass_s": _median_start(["-c", "pass"], env, log_dir, START_PROBES),
        "python_S_c_pass_s": _median_start(["-S", "-c", "pass"], env, log_dir, START_PROBES),
    }


# -- one workload ------------------------------------------------------------


class Invocation:
    """State for one benchmark invocation: work directories, the checker
    and every run's record."""

    def __init__(self, runs, seed: int, work: Path):
        from checks import Checker

        self.runs = runs
        self.rng = random.Random(seed)
        self.work = work
        self.checker = Checker(str(SRC / "polarlac" / "schemas"), str(WORK / "validated"))
        self.first_digests: dict[str, dict[str, str]] = {}
        self.records: list[dict] = []
        self.blocker = work / "blocker"
        self.blocker.write_text("a regular file, so no directory can be made under it\n")

    def order(self):
        return self.rng.sample(range(len(self.runs)), len(self.runs))

    def out_dir(self, index: int) -> Path:
        run = self.runs[index]
        if run.blocked_out:
            return self.blocker / "sub"
        path = self.work / "out" / str(index)
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def judge(self, index: int, code, stderr: str, out: Path, mode: str) -> dict:
        run = self.runs[index]
        problems, digests = self.checker.check(run, code, stderr, str(out))
        crashed = "Traceback" in stderr
        if not problems:
            first = self.first_digests.setdefault(run.id, digests)
            if first != digests:
                problems.append("outputs differ from the first pass")
        record = {
            "run": run.id,
            "mode": mode,
            "code": code,
            "ok": not problems,
            "crashed": crashed,
            "problems": problems,
            "digests": digests,
        }
        self.records.append(record)
        return record


def process_pass(bench: Invocation, env, log_dir: Path) -> dict:
    """One pass over the run list.  The pass's wall time is the sum of its
    runs' wall times, so the output checks made between runs stay out of it."""
    runs = bench.runs
    walls, cpu, rss, rows, ok = [], 0.0, 0, 0, 0
    for i in bench.order():
        out = bench.out_dir(i)
        argv = ["-m", "polarlac", *runs[i].argv, "--out", str(out)]
        wall, used, maxrss, code, _, err = _spawn(argv, env, log_dir)
        record = bench.judge(i, code, err, out, "process")
        record.update(wall_s=wall, cpu_s=used, max_rss_kib=maxrss)
        walls.append(wall)
        cpu += used
        rss = max(rss, maxrss)
        if record["ok"]:
            ok += 1
            rows += runs[i].rows
    return {"wall": math.fsum(walls), "runs": walls, "cpu": cpu, "rss_kib": rss, "rows": rows, "ok": ok}


def measure_processes(bench: Invocation, seconds: float, env, log_dir: Path) -> dict:
    runs = bench.runs
    probes = []
    order = bench.order()
    for k in range(SETUP_PROBES):
        argv = [str(HERE / "probe.py"), "setup", *runs[order[k % len(order)]].argv]
        wall, _, _, code, _, err = _spawn(argv, env, log_dir)
        if code != 0:
            raise BenchError(f"setup probe exited {code}: {err.strip()[-500:]}")
        probes.append(wall)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(process_pass(bench, env, log_dir))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(p["wall"] for p in passes) > seconds:
            break

    run_times = sorted(t for p in passes for t in p["runs"])
    n = len(run_times)
    # the highest percentile with at least TAIL_BEYOND runs beyond it; with
    # fewer runs than that in the window, the slowest run
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    tail = run_times[n - 1 - beyond]
    attempted = sum(len(p["runs"]) for p in passes)
    passed = sum(p["ok"] for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "run_s_p50": statistics.median(run_times),
        "run_s_tail": tail,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "rows_per_s": statistics.median(p["rows"] / p["wall"] for p in passes),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": statistics.median(p["rss_kib"] for p in passes) / 1024.0,
        "pass_ratio": passed / attempted,
    }
    info = {
        "passes": len(passes),
        "run_s_tail_percentile": 100.0 * (n - beyond) / n,
        "run_s_tail_runs": n,
        "setup_probes": len(probes),
    }
    return {"metrics": metrics, "info": info, "attempted": attempted, "failed": attempted - passed}


def inprocess_pass(bench: Invocation, order, mode: str) -> tuple[float, int]:
    """One pass through ``cli.main`` in this process; returns the time spent
    inside ``main`` and the number of failed runs."""
    from polarlac import cli

    failed, wall = 0, 0.0
    for i in order:
        out = bench.out_dir(i)
        argv = [*bench.runs[i].argv, "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            crash = None
            try:
                code = cli.main(argv)
            except Exception as exc:
                code, crash = 1, exc
            wall += time.perf_counter() - t0
            if crash is not None:
                err.write("".join(traceback.format_exception(crash)))
        failed += not bench.judge(i, code, err.getvalue(), out, mode)["ok"]
    return wall, failed


def measure_traced(bench: Invocation, env, log_dir: Path) -> dict:
    from tracer import Tracer

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polarlac.cli  # noqa: F401  (import cost is measured by the probes, not the passes)

    order = bench.order()
    untraced_wall, _ = inprocess_pass(bench, order, "inprocess")
    tracers, walls, failed = [], [], []
    for k in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            wall, fails = inprocess_pass(bench, order, f"traced{k}")
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        walls.append(wall)
        failed.append(fails)
    first, second = tracers[0].counts(), tracers[1].counts()
    mismatched = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    import_probes = []
    for _ in range(IMPORT_PROBES):
        _, _, _, code, out, err = _spawn([str(HERE / "probe.py"), "import"], env, log_dir)
        if code != 0:
            raise BenchError(f"import probe exited {code}: {err.strip()[-500:]}")
        import_probes.append(float(out))

    rows = sum(r.rows for r in bench.runs)
    metrics = tracers[0].metrics(len(bench.runs), rows)
    metrics["cli.import_s"] = statistics.median(import_probes)
    metrics["trace.overhead_ratio"] = walls[0] / untraced_wall
    info = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": walls,
        "counts": first,
        "counts_mismatched": mismatched,
    }
    n = len(bench.runs)
    return {"metrics": metrics, "info": info, "attempted": n, "failed": failed[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    if not (SRC / "polarlac" / "cli.py").is_file():
        raise BenchError(f"no polarlac sources under {SRC}; run from the root of a source checkout")
    runs = WORKLOADS[workload](tiny)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        log_dir = work / "logs"
        log_dir.mkdir()
        env = _child_env()
        bench = Invocation(runs, seed, work)
        envinfo = environment(env, log_dir)
        if trace:
            result = measure_traced(bench, env, log_dir)
        else:
            result = measure_processes(bench, seconds, env, log_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [r for r in bench.records if not r["ok"] and not r["crashed"]]
    if trace and result["info"]["counts_mismatched"]:
        wrong.append({"run": "traced counts", "problems": result["info"]["counts_mismatched"]})
    digest = hashlib.sha256()
    for run_id, digests in sorted(bench.first_digests.items()):
        for name, value in sorted(digests.items()):
            digest.update(f"{run_id} {name} {value}\n".encode())
    units = _units("per_layer" if trace else "end_to_end")
    result.update(
        workload=workload,
        seed=seed,
        trace=trace,
        environment=envinfo,
        correct=not wrong,
        units=units,
        outputs_sha256=digest.hexdigest(),
        failures=[r for r in bench.records if not r["ok"]],
        records=bench.records,
    )
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines; return the result's JSON line."""
    w = result["workload"]
    for key, value in result["environment"].items():
        print(f"[{w}] env {key} {value}")
    for key, value in result["info"].items():
        if key != "counts":
            print(f"[{w}] info {key} {value}")
    print(f"[{w}] info outputs_sha256 {result['outputs_sha256']}")
    print(f"[{w}] info fail_ratio {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} runs)")
    seen = set()
    for failure in result["failures"]:
        if failure["run"] not in seen:
            seen.add(failure["run"])
            print(f"[{w}] failed {failure['run']} ({failure['mode']}): {'; '.join(failure['problems'])}")
    metrics = {}
    for name, unit in result["units"].items():
        if name not in result["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"[{w}] {name} {value!r} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def save(result: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in result.items() if k != "units"}, fh, indent=1, sort_keys=True)


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description="polar-lac benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    try:
        lines = []
        for workload, trace in jobs:
            result = run_workload(workload, args.seed, args.seconds, trace, tiny)
            save(result)
            lines.append((workload, report(result)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        line = lines[0][1]
    else:
        line = {
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "metrics": {f"{w}.{k}": v for w, l in lines for k, v in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
