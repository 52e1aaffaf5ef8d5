"""The two subcommands that evaluate a whole grid, ``sample`` and ``svg``,
each split over one process per CPU the run may use.

A run cuts its rows, or a plot its points, into contiguous ranges that start
on 1,024-row block edges: one range per usable CPU, never more ranges than
blocks (``ranges``).  ``_parts`` forks a writer for every range past the
first and does the first itself; each writer writes its range to unnamed
temp files and exits, and the parent reads them back in row order.  Every
row is computed from its own index, so the bytes are the ones a single
process writes.  ``cli`` imports this module only for these two commands.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import tempfile
from array import array
from typing import Callable, Iterable, Iterator, NoReturn

from . import cli
from . import curve as _curve

# rows, or plot points, in a block: the unit ranges are cut in
_BLOCK = 1024

# One row of samples.csv / samples.json per format operation.  The JSON
# template is what json.dumps(indent=2, sort_keys=True) writes for a row dict
# after _json_safe: %s writes a finite float as its repr, and _json_number is
# the encoding of any float, finite or not.
_CSV_ROW = ",".join(["%.17g"] * 8) + ",%s\n"
_JSON_ROW = """    {
      "L": %s,
      "R": %s,
      "beta": %s,
      "in_domain": %s,
      "phi": %s,
      "rho": %s,
      "theta": %s,
      "x": %s,
      "y": %s
    }"""

# the plots svg may write, (output, file, subject), in the order written and
# of their pairs of columns
_PLOTS = (
    ("svg-curve", "curve.svg", "curve"),
    ("svg-rho", "rho.svg", "radius of curvature"),
    ("svg-lcg", "lcg.svg", "logarithmic curvature graph"),
)

Blocks = Callable[[int, int], Iterable[tuple]]


def ranges(count: int) -> list[int]:
    """The edges of one range of ``count`` rows per CPU this process may run
    on (one where it cannot fork), never more ranges than blocks, each
    starting on a block edge."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blocks = -(-count // _BLOCK)
    ways = min(cpus if hasattr(os, "fork") else 1, blocks)
    return [i * blocks // ways * _BLOCK for i in range(ways)] + [count]


def _json_number(v: float) -> str:
    return repr(v) if math.isfinite(v) else "null"


def _write_part(names: tuple[str, ...], files: list, pipe: int, blocks: Iterable[tuple]) -> NoReturn:
    """As a forked writer: write ``blocks`` to ``files``, send a failure's message up ``pipe``, exit."""
    code, message, name = 1, "", names[0]
    try:
        for chunks in blocks:
            for name, fh, chunk in zip(names, files, chunks):
                fh.write(chunk)
        for name, fh in zip(names, files):
            fh.seek(0)  # flushes it, and leaves it at its start for the parent to read
        code = 0
    except OSError as exc:
        code, message = cli.EXIT_IO, f"cannot write {name}: {exc}"
    except MemoryError:
        code, message = cli.EXIT_CONFIG, "run too large for available memory"
    except Exception:
        sys.excepthook(*sys.exc_info())  # a bug stays loud in a writer too
    finally:
        with contextlib.suppress(OSError):
            os.write(pipe, message.encode())
        os._exit(code)


def _parts(names: tuple[str, ...], edges: list[int], blocks: Blocks, what: str, binary: bool = False,
           dir: str | None = None) -> Iterator[tuple]:
    """Yield ``blocks(edges[0], edges[1])``, made here, then what the writer
    forked for each later range wrote of ``blocks(start, stop)``, in range
    order: a tuple of one text (bytes if ``binary``) per name each time.

    The writers are forked on the first ``next``.  A writer that failed ends
    the run here, with its own message, or with ``what`` formatted with its
    first and last row.  Closing the generator kills every writer not yet
    waited for, and waits for it.
    """
    mode = {"mode": "w+b"} if binary else {"mode": "w+", "encoding": "utf-8", "newline": "\n"}
    writers: list[tuple] = []  # (pid, pipe, files, start, stop), not yet waited for
    try:
        with contextlib.ExitStack() as stack:
            parts = [[stack.enter_context(tempfile.TemporaryFile(**mode, dir=dir)) for _ in names] for _ in edges[2:]]
            for files, start, stop in zip(parts, edges[1:], edges[2:]):
                read, write = os.pipe()
                stack.callback(os.close, read)
                stack.callback(os.close, write)
                if not (pid := os.fork()):
                    _write_part(names, files, write, blocks(start, stop))
                writers.append((pid, read, files, start, stop))
            yield from blocks(edges[0], edges[1])
            while writers:
                code = os.waitstatus_to_exitcode(os.waitpid(writers[0][0], 0)[1])
                pid, read, files, start, stop = writers.pop(0)
                if code in (cli.EXIT_CONFIG, cli.EXIT_IO):  # the writer sent its message before it exited
                    raise cli.CliError(code, os.read(read, 4096).decode())
                if code:  # killed, or a bug whose traceback the writer printed
                    import signal
                    how = next((f"was killed by {s.name}" for s in signal.Signals if s == -code), f"exited {code}")
                    raise cli.CliError(cli.EXIT_IO, f"{what.format(start, stop - 1)} were not written: their process {how}")
                while any(chunks := tuple(fh.read(1 << 16) for fh in files)):  # a fraction of a block's text
                    yield chunks
    finally:
        for pid, *_ in writers:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _write(out_dir: str, names: tuple[str, ...], edges: list[int], blocks: Blocks, what: str) -> None:
    """Write the files ``names`` from ``blocks`` over the ranges ``edges``; the
    writers' parts go beside the named files, in the directory
    ``_write_files`` makes before it reads the first block."""
    with contextlib.closing(_parts(names, edges, blocks, what, dir=out_dir)) as chunks:
        cli._write_files(out_dir, names, chunks)


def _sample(params: _curve.CurveParams, count: int, edges: list[int], start: int, stop: int) -> list:
    # a grid of one range is sampled whole, as every other subcommand does
    return _curve.sample(params, count, start, stop) if len(edges) > 2 else _curve.sample(params, count)


def sample(cfg: cli.RunConfig, params: _curve.CurveParams) -> int:
    count, names = cfg.samples, ("samples.csv", "samples.json")
    edges = ranges(count)

    def row_blocks(start: int, stop: int):
        if not start:
            # the params block goes through the encoder; "params" sorts before
            # "rows", so the rows array goes in place of the closing "\n}\n"
            head = cli._dump_json({"params": cli._params_echo(cfg)})[:-3] + ',\n  "rows": [\n'
            yield "theta,L,R,rho,phi,beta,x,y,in_domain\n", head
        rows = _sample(params, count, edges, start, stop)
        for i in range(0, len(rows), _BLOCK):
            csv_rows, json_rows = [], []
            for theta, L, R, rho, phi, _, beta, x, y, valid in rows[i : i + _BLOCK]:
                flag = "true" if valid.in_domain else "false"
                csv_rows.append(_CSV_ROW % (theta, L, R, rho, phi, beta, x, y, flag))
                # a sum of finite values that overflows only sends the row the
                # slow way, which writes it the same
                if not math.isfinite(theta + L + R + rho + phi + beta + x + y):
                    L, R, beta, phi, rho, theta, x, y = map(_json_number, (L, R, beta, phi, rho, theta, x, y))
                json_rows.append(_JSON_ROW % (L, R, beta, flag, phi, rho, theta, x, y))
            yield "".join(csv_rows), (",\n" if start + i else "") + ",\n".join(json_rows)
        if stop == count:
            yield "", "\n  ]\n}\n"

    _write(cfg.out_dir, names, edges, row_blocks, "rows {} to {}")
    return 0


def svg(cfg: cli.RunConfig, params: _curve.CurveParams) -> int:
    from . import lcg, svgplot
    count = cfg.samples
    graph = "svg-lcg" in cfg.outputs
    edges = ranges(count)

    # what the plots draw, as float columns: x, y, theta and rho of the rows
    # in domain, then the graph's two coordinates; the rows die with the call
    def columns_of(rows: list) -> list[array]:
        good = [r for r in rows if r.valid.in_domain]
        columns = [array("d", [r.x for r in good]), array("d", [r.y for r in good]),
                   array("d", [r.theta for r in good]), array("d", [r.rho for r in good])]
        if graph:
            columns += [array("d"), array("d")]
            for i in range(0, len(rows), _BLOCK):  # a block's points at a time, beside the rows
                points = lcg.lcg_points(params, rows[i : i + _BLOCK])
                columns[4].fromlist([pt.x for pt in points])
                columns[5].fromlist([pt.y for pt in points])
        return columns

    def column_blocks(start: int, stop: int):
        yield tuple(column.tobytes() for column in columns_of(_sample(params, count, edges, start, stop)))

    # a failure to spill the columns is reported against the first plot
    first = next((name for output, name, _ in _PLOTS if output in cfg.outputs), _PLOTS[0][1])
    columns = [array("d") for _ in range(6 if graph else 4)]
    try:
        with contextlib.closing(_parts((first,) * len(columns), edges, column_blocks, "rows {} to {}",
                                       binary=True)) as chunks:
            for chunk in chunks:
                for column, data in zip(columns, chunk):
                    column.frombytes(data)
    except OSError as exc:
        raise cli.CliError(cli.EXIT_IO, f"cannot write {first}: {exc}") from exc
    if not columns[0]:
        raise cli.CliError(cli.EXIT_CONFIG, "all samples are outside the curve domain; nothing to plot")

    for k, (output, name, subject) in enumerate(_PLOTS):
        if output in cfg.outputs:  # the view comes first: a plot without one writes nothing
            line = svgplot.Polyline(columns[2 * k], columns[2 * k + 1], subject)
            _write(cfg.out_dir, (name,), ranges(line.count), lambda start, stop: ((t,) for t in line.text(start, stop)),
                   f"points {{}} to {{}} of {name}")
    return 0
