"""The two subcommands that evaluate a whole grid, ``sample`` and ``svg``,
each split over one process per CPU the run may use.

A run cuts its rows, or a plot its points, into 1,024-row blocks and deals
them in turn to one process per usable CPU, never more processes than
blocks (``deal``).  ``_parts`` forks a writer for every process past the
first and does the first's blocks itself.  Each writer sends each of its
blocks up a pipe, a record of its byte lengths and then its bytes; the
parent emits the blocks in row order, each writer's block as soon as it has
come in.  Every row is computed from its own index, so the bytes are the
ones a single process writes.  ``cli`` imports this module only for these
two commands.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import sys
from array import array
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

from . import cli
from . import curve as _curve

# rows, or plot points, in a block: the unit the grid is dealt in
_BLOCK = 1024

# the bytes each writer's pipe may hold, where the system lets a pipe grow:
# with the default 64 KiB a writer waits on the parent at every block
_PIPE_SIZE = 1 << 20

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
# a flagged row with a finite theta, by one % operation on theta alone; its
# other values are written as NaN, whatever L and rho it keeps
_CSV_FLAGGED = "%.17g" + ",nan" * 7 + ",false\n"
_JSON_FLAGGED = _JSON_ROW % ("null", "null", "null", "false", "null", "null", "%s", "null", "null")

# the plots svg may write, (output, file, subject), in the order written and
# of their pairs of columns
_PLOTS = (
    ("svg-curve", "curve.svg", "curve"),
    ("svg-rho", "rho.svg", "radius of curvature"),
    ("svg-lcg", "lcg.svg", "logarithmic curvature graph"),
)

# the bytes of each block's texts, one per name, of the rows in a list of
# ranges, in order
Blocks = Callable[[list], Iterable[tuple]]


def deal(count: int) -> list[list[range]]:
    """The rows of ``count`` each process does: block b, rows b*1024 to
    b*1024 + 1023, goes to process b mod ways, for one process per CPU this
    process may run on (one where it cannot fork), never more than blocks."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blocks = -(-count // _BLOCK)
    ways = min(cpus if hasattr(os, "fork") else 1, blocks)
    return [[range(b * _BLOCK, min(b * _BLOCK + _BLOCK, count)) for b in range(k, blocks, ways)] for k in range(ways)]


def _json_number(v: float) -> str:
    return repr(v) if math.isfinite(v) else "null"


def _write_part(pipe: BinaryIO, blocks: Blocks, rows: list[range], record: struct.Struct) -> NoReturn:
    """As a forked writer: send each of ``blocks(rows)`` up ``pipe``, the
    record of its byte lengths and then its bytes; exit.  The parent reads
    a writer that exits before it has sent every block as failed, by its
    exit code: 2 where it ran out of memory."""
    code = 1
    try:
        for chunks in blocks(rows):
            pipe.write(record.pack(*map(len, chunks)))
            for chunk in chunks:
                pipe.write(chunk)
            pipe.flush()
        code = 0
    except MemoryError:
        code = cli.EXIT_CONFIG
    except OSError:  # the pipe broke: the parent has gone, and reads nothing more
        code = cli.EXIT_IO
    except Exception:
        sys.excepthook(*sys.exc_info())  # a bug stays loud in a writer too
    finally:
        os._exit(code)


def _parts(width: int, parts: list[list[range]], blocks: Blocks, what: str) -> Iterator[tuple]:
    """Yield every block of ``parts`` in row order, a tuple of ``width``
    bytes each: those of ``blocks(parts[0])``, made here, and those of
    ``blocks(part)`` for each later part, from the writer forked for it,
    each as soon as it has sent it.

    The writers are forked on the first ``next``.  A writer that failed ends
    the run here, out of memory as it did, or with ``what`` formatted with
    the first and last row of the block awaited from it.  Closing the
    generator kills every writer not yet waited for and waits for it, and
    only then closes the pipes.
    """
    record = struct.Struct(f"{width}q")
    writers: list[tuple] = []  # (pid, pipe) of each part past the first, not yet waited for
    pipes: list[BinaryIO] = []  # the read end of each writer's pipe
    try:
        for rows in parts[1:]:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ is Linux's, and may be refused
                import fcntl
                fcntl.fcntl(read, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
            with open(write, "wb") as end:  # closed once forked, so that the pipe ends where the writer does
                if not (pid := os.fork()):
                    for pipe in pipes:  # so that a writer whose parent has gone gets EPIPE
                        pipe.close()
                    _write_part(end, blocks, rows, record)
            writers.append((pid, pipes[-1]))
        for j, chunks in enumerate(blocks(parts[0])):  # the j-th block of part k is block j*ways + k
            yield chunks
            for k, (pid, pipe) in enumerate(writers, 1):
                if j == len(parts[k]):
                    break
                head = pipe.read(record.size)
                lengths = record.unpack(head) if len(head) == record.size else ()
                chunks = tuple(map(pipe.read, lengths))
                if not lengths or tuple(map(len, chunks)) != lengths:  # the writer ended before it sent this block whole
                    writers.pop(k - 1)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code == cli.EXIT_CONFIG:
                        raise MemoryError
                    import signal
                    how = next((f"was killed by {s.name}" for s in signal.Signals if s == -code), f"exited {code}")
                    block = what.format(parts[k][j].start, parts[k][j].stop - 1)
                    raise cli.CliError(cli.EXIT_IO, f"{block} were not written: their process {how}")
                yield chunks
    finally:
        for pid, _ in writers:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _write(out_dir: str, names: tuple[str, ...], parts: list[list[range]], blocks: Blocks, what: str) -> None:
    """Write the files ``names`` from ``blocks`` over the rows ``parts`` deals."""
    with contextlib.closing(_parts(len(names), parts, blocks, what)) as chunks:
        cli._write_files(out_dir, names, chunks)


def sample(cfg: cli.RunConfig, params: _curve.CurveParams) -> int:
    count, names = cfg.samples, ("samples.csv", "samples.json")
    flagged, isfinite = _curve.FLAGGED, math.isfinite

    def row_blocks(blocks: list[range]):
        rows = _curve.sample(params, count, blocks)
        for i in range(0, len(rows), _BLOCK):
            csv_rows, json_rows = [], []
            for theta, L, R, rho, phi, _, beta, x, y, valid in rows[i : i + _BLOCK]:
                if valid is flagged and isfinite(theta):
                    csv_rows.append(_CSV_FLAGGED % theta)
                    json_rows.append(_JSON_FLAGGED % theta)
                    continue
                flag = "true" if valid.in_domain else "false"
                csv_rows.append(_CSV_ROW % (theta, L, R, rho, phi, beta, x, y, flag))
                # a sum of finite values that overflows only sends the row the
                # slow way, which writes it the same
                if not isfinite(theta + L + R + rho + phi + beta + x + y):
                    L, R, beta, phi, rho, theta, x, y = map(_json_number, (L, R, beta, phi, rho, theta, x, y))
                json_rows.append(_JSON_ROW % (L, R, beta, flag, phi, rho, theta, x, y))
            csv, json = "".join(csv_rows).encode(), ",\n".join(json_rows).encode()
            if i or blocks[0].start:
                json = b",\n" + json
            else:
                # the params block goes through the encoder; "params" sorts
                # before "rows", so the rows array goes in place of the
                # closing "\n}\n"
                head = cli._dump_json({"params": cli._params_echo(cfg)})[:-3] + ',\n  "rows": [\n'
                csv, json = b"theta,L,R,rho,phi,beta,x,y,in_domain\n" + csv, head.encode() + json
            yield csv, json + b"\n  ]\n}\n" * (i + _BLOCK >= len(rows) and blocks[-1].stop == count)

    _write(cfg.out_dir, names, deal(count), row_blocks, "rows {} to {}")
    return 0


def svg(cfg: cli.RunConfig, params: _curve.CurveParams) -> int:
    from . import lcg, svgplot
    count = cfg.samples
    graph = "svg-lcg" in cfg.outputs
    parts = deal(count)

    # what the plots draw of a block of rows, as float columns: x, y, theta
    # and rho of the rows in domain, then the graph's two coordinates
    def columns_of(rows: list) -> list[array]:
        good = [r for r in rows if r.valid.in_domain]
        columns = [array("d", [r.x for r in good]), array("d", [r.y for r in good]),
                   array("d", [r.theta for r in good]), array("d", [r.rho for r in good])]
        if graph:
            points = lcg.lcg_points(params, rows)
            columns += [array("d", [pt.x for pt in points]), array("d", [pt.y for pt in points])]
        return columns

    def column_blocks(blocks: list[range]) -> list[tuple]:  # the rows die with the call
        rows = _curve.sample(params, count, blocks)
        return [tuple(c.tobytes() for c in columns_of(rows[i : i + _BLOCK])) for i in range(0, len(rows), _BLOCK)]

    # a pipe or a writer the system cannot make is reported against the first plot
    first = next((name for output, name, _ in _PLOTS if output in cfg.outputs), _PLOTS[0][1])
    columns = [array("d") for _ in range(6 if graph else 4)]
    try:
        with contextlib.closing(_parts(len(columns), parts, column_blocks, "rows {} to {}")) as chunks:
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
            _write(cfg.out_dir, (name,), deal(line.count),
                   lambda blocks: (("".join(line.text(b.start, b.stop)).encode(),) for b in blocks),
                   f"points {{}} to {{}} of {name}")
    return 0
