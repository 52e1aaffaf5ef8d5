"""The two subcommands that evaluate a whole grid, ``sample`` and ``svg``,
each split over one process per CPU the run may use.

A run cuts its rows, or a plot its points, into 1,024-row blocks and deals
them in turn to one process per usable CPU, never more processes than
blocks (``deal``).  ``_parts`` forks a writer for every process past the
first and does the first's blocks itself.  Each writer writes each of its
blocks to unnamed temp files and sends its byte lengths up a pipe; the
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
import tempfile
from array import array
from typing import Callable, Iterable, Iterator, NoReturn

from . import cli
from . import curve as _curve

# rows, or plot points, in a block: the unit the grid is dealt in
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
# a row curve._invalid_sample made, with a finite theta, by one % operation on theta alone
_CSV_FLAGGED = "%.17g" + ",nan" * 7 + ",false\n"
_JSON_FLAGGED = _JSON_ROW % ("null", "null", "null", "false", "null", "null", "%s", "null", "null")

# the plots svg may write, (output, file, subject), in the order written and
# of their pairs of columns
_PLOTS = (
    ("svg-curve", "curve.svg", "curve"),
    ("svg-rho", "rho.svg", "radius of curvature"),
    ("svg-lcg", "lcg.svg", "logarithmic curvature graph"),
)

# each block's texts (or bytes), one per name, of the rows in a list of
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


def _write_part(names: tuple[str, ...], files: list, pipe: int, blocks: Blocks, rows: list[range],
                record: struct.Struct) -> NoReturn:
    """As a forked writer: write each of ``blocks(rows)`` to ``files``, flush
    them and send its byte lengths up ``pipe``; on a failure send a record of
    -1s and its message instead; exit."""
    code, message, name = 1, "", names[0]
    try:
        for chunks in blocks(rows):
            lengths = []
            for name, fh, chunk in zip(names, files, chunks):
                lengths.append(fh.write(chunk.encode() if isinstance(chunk, str) else chunk))
                fh.flush()
            os.write(pipe, record.pack(*lengths))
        code = 0
    except OSError as exc:
        code, message = cli.EXIT_IO, f"cannot write {name}: {exc}"
    except MemoryError:
        code, message = cli.EXIT_CONFIG, "run too large for available memory"
    except Exception:
        sys.excepthook(*sys.exc_info())  # a bug stays loud in a writer too
    finally:
        if code:
            with contextlib.suppress(OSError):
                os.write(pipe, record.pack(*[-1] * len(names)) + message.encode())
        os._exit(code)


def _parts(names: tuple[str, ...], parts: list[list[range]], blocks: Blocks, what: str,
           dir: str | None = None) -> Iterator[tuple]:
    """Yield every block of ``parts`` in row order, a tuple of one text or
    bytes per name each: those of ``blocks(parts[0])``, made here, and the
    bytes of those of ``blocks(part)`` for each later part, texts UTF-8
    encoded, from the writer forked for it, each as soon as it has sent it.

    The writers are forked on the first ``next``.  A writer that failed ends
    the run here, with its own message, or with ``what`` formatted with the
    first and last row of the block awaited from it.  Closing the generator
    kills every writer not yet waited for, and waits for it.
    """
    record = struct.Struct(f"{len(names)}q")
    writers: list[tuple] = []  # (pid, pipe, fds, offsets) of each part past the first, not yet waited for
    try:
        with contextlib.ExitStack() as stack:
            for rows in parts[1:]:
                files = [stack.enter_context(tempfile.TemporaryFile(dir=dir)) for _ in names]
                read, write = os.pipe()
                stack.callback(os.close, read)
                if not (pid := os.fork()):
                    _write_part(names, files, write, blocks, rows, record)
                os.close(write)  # so that the pipe ends where the writer does
                writers.append((pid, read, [fh.fileno() for fh in files], [0] * len(names)))
            for j, chunks in enumerate(blocks(parts[0])):  # the j-th block of part k is block j*ways + k
                yield chunks
                for k, (pid, read, fds, offsets) in enumerate(writers, 1):
                    if j == len(parts[k]):
                        break
                    lengths = record.unpack(data) if len(data := os.read(read, record.size)) == record.size else (-1,)
                    if lengths[0] < 0:  # the writer failed, or died, before it sent this block
                        writers.pop(k - 1)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        if code in (cli.EXIT_CONFIG, cli.EXIT_IO):  # its message follows its record
                            raise cli.CliError(code, os.read(read, 4096).decode())
                        import signal
                        how = next((f"was killed by {s.name}" for s in signal.Signals if s == -code), f"exited {code}")
                        block = what.format(parts[k][j].start, parts[k][j].stop - 1)
                        raise cli.CliError(cli.EXIT_IO, f"{block} were not written: their process {how}")
                    chunks = tuple(map(os.pread, fds, lengths, offsets))
                    offsets[:] = [offset + n for offset, n in zip(offsets, lengths)]
                    yield chunks
    finally:
        for pid, *_ in writers:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _write(out_dir: str, names: tuple[str, ...], parts: list[list[range]], blocks: Blocks, what: str) -> None:
    """Write the files ``names`` from ``blocks`` over the rows ``parts``
    deals; the writers' parts go beside the named files, in the directory
    ``_write_files`` makes before it reads the first block."""
    with contextlib.closing(_parts(names, parts, blocks, what, dir=out_dir)) as chunks:
        cli._write_files(out_dir, names, chunks)


def _sample(params: _curve.CurveParams, count: int, parts: list[list[range]], rows: list[range]) -> list:
    # a grid one process does is sampled whole, as every other subcommand does
    return _curve.sample(params, count, rows) if len(parts) > 1 else _curve.sample(params, count)


def sample(cfg: cli.RunConfig, params: _curve.CurveParams) -> int:
    count, names = cfg.samples, ("samples.csv", "samples.json")
    parts = deal(count)
    nan, flagged, isfinite = _curve._INVALID_TAIL[0], _curve.FLAGGED, math.isfinite

    def row_blocks(blocks: list[range]):
        rows = _sample(params, count, parts, blocks)
        for i in range(0, len(rows), _BLOCK):
            csv_rows, json_rows = [], []
            for theta, L, R, rho, phi, _, beta, x, y, valid in rows[i : i + _BLOCK]:
                if valid is flagged and L is R is rho is phi is beta is x is y is nan and isfinite(theta):
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
            csv, json = "".join(csv_rows), ",\n".join(json_rows)
            if i or blocks[0].start:
                json = ",\n" + json
            else:
                # the params block goes through the encoder; "params" sorts
                # before "rows", so the rows array goes in place of the
                # closing "\n}\n"
                head = cli._dump_json({"params": cli._params_echo(cfg)})[:-3] + ',\n  "rows": [\n'
                csv, json = "theta,L,R,rho,phi,beta,x,y,in_domain\n" + csv, head + json
            yield csv, json + "\n  ]\n}\n" * (i + _BLOCK >= len(rows) and blocks[-1].stop == count)

    _write(cfg.out_dir, names, parts, row_blocks, "rows {} to {}")
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
        rows = _sample(params, count, parts, blocks)
        return [tuple(c.tobytes() for c in columns_of(rows[i : i + _BLOCK])) for i in range(0, len(rows), _BLOCK)]

    # a failure to spill the columns is reported against the first plot
    first = next((name for output, name, _ in _PLOTS if output in cfg.outputs), _PLOTS[0][1])
    columns = [array("d") for _ in range(6 if graph else 4)]
    try:
        with contextlib.closing(_parts((first,) * len(columns), parts, column_blocks, "rows {} to {}")) as chunks:
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
                   lambda blocks: (("".join(line.text(b.start, b.stop)),) for b in blocks),
                   f"points {{}} to {{}} of {name}")
    return 0
