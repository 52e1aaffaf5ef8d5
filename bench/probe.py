"""Start-up probes, each run as its own process by the benchmark.

``probe.py setup <cli args>`` pays what every CLI run pays before it
computes anything: interpreter start-up, ``import polarlac.cli``, argument
parsing, and parsing and checking phi and the curve parameters.  Then it
exits.  ``probe.py import`` prints how long ``import polarlac.cli`` takes
inside the process, in seconds.
"""

import sys
import time


def setup(argv: list[str]) -> None:
    from polarlac import cli
    from polarlac.curve import CurveParams
    from polarlac.phiexpr import parse

    parser, _ = cli.build_parser()
    args = parser.parse_args(argv)

    def get(key):
        value = getattr(args, key)
        return cli.DEFAULTS[key] if value is None else value

    try:
        CurveParams(args.n, get("a"), get("b"), get("theta0"), args.theta1, parse(args.phi))
    except ValueError:
        pass  # a bad input is rejected here, as the CLI would reject it


def import_time() -> None:
    t0 = time.perf_counter()
    import polarlac.cli  # noqa: F401

    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    else:
        import_time()
