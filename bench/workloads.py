"""The benchmark's run lists.

Each workload is a fixed list of CLI invocations.  The seed only shuffles
their order within a pass, so every seed does the same work.  Every run
carries the exit codes it may end with: pinned to the codes the test suite
already asserts where it asserts one, and otherwise to the documented code
the README's exit-code table gives for that input.
"""

from __future__ import annotations

from dataclasses import dataclass

# the acceptance suite's FIGURE_FAMILIES (tests/conftest.py), all with
# a = b = 1; the quarter-power and square-root laws start at theta0 = 0.1,
# as in the README's measured-slope table, because f' is unbounded at 0
FIGURE_FAMILIES = [
    ((1.0,), "pi/2", 0.0, 15.0),
    ((1.0,), "0.01*theta + 0.3", 0.0, 15.0),
    ((1.0,), "theta^0.25 + 3", 0.1, 15.0),
    ((-1.0,), "pi/2", 0.0, 15.0),
    ((2.0, 3.0, -2.0, -3.0), "pi/8", 0.0, 5.0),
    ((-1.0, -2.0, -3.0), "0.01*theta + 0.3", 0.0, 5.0),
    ((2.0, 3.0, -2.0, -3.0), "sqrt(theta) + 0.6", 0.1, 5.0),
    # the compatible logarithmic spiral, whose extra hard checks only
    # verify runs: n = 1, constant phi, a = cot(phi)
    ((1.0,), "pi/4", 0.0, 6.0),
]

DEFAULT_SAMPLES = 512
# with a grid far larger than the default, oracle run times fall into two
# clusters and their median lands in the gap between them, where it jumps
# from run to run; at 1024 the clusters overlap
ORACLE_LARGE = 1024
DENSE_SAMPLES = 65_536

DENSE_CONFIGS = [
    # n = 1 with a linear phi
    ["--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3"],
    # the general power branch with a constant phi
    ["--n", "2", "--theta1", "5", "--phi", "pi/8"],
    # a < 0 drives A(theta) to zero near theta = 2: about 60 % of the rows
    # lie past the domain boundary, are flagged, and each runs a bisection
    ["--n", "2", "--a", "-1", "--theta1", "5", "--phi", "pi/8"],
]


@dataclass(frozen=True)
class Run:
    """One CLI invocation and what it must end with."""

    id: str
    argv: tuple[str, ...]  # without --out, which the runner appends
    codes: tuple[int, ...]  # acceptable exit codes; the first is the documented one
    rows: int  # grid rows the run asks for (--samples)
    blocked_out: bool = False  # --out under a regular file, to provoke exit 4

    @property
    def command(self) -> str:
        return self.argv[0]

    def n(self) -> float:
        return float(self.argv[self.argv.index("--n") + 1])


def _num(v: float) -> str:
    return repr(float(v))


def oracle(tiny: bool = False) -> list[Run]:
    grids = (64, 128) if tiny else (DEFAULT_SAMPLES, ORACLE_LARGE)
    runs = []
    for ns, phi, theta0, theta1 in FIGURE_FAMILIES:
        for n in ns:
            for command in ("verify", "lcg"):
                for samples in grids:
                    argv = (
                        command, "--n", _num(n), "--theta0", _num(theta0),
                        "--theta1", _num(theta1), "--phi", phi, "--samples", str(samples),
                    )
                    runs.append(Run(f"{command}:n={_num(n)}:{phi}:{samples}", argv, (0,), samples))
    return runs


def dense(tiny: bool = False) -> list[Run]:
    samples = 256 if tiny else DENSE_SAMPLES
    runs = []
    for i, config in enumerate(DENSE_CONFIGS):
        for command in ("sample", "svg"):
            argv = (command, *config, "--samples", str(samples))
            runs.append(Run(f"{command}:config{i}:{samples}", argv, (0,), samples))
    return runs


def edge(tiny: bool = False) -> list[Run]:
    # short runs, one per documented error path, plus two inputs that end
    # in an uncaught traceback at the time the benchmark was written; those
    # two count as failed runs until the CLI maps them to a documented code
    d = DEFAULT_SAMPLES
    return [
        Run("bad-parameter", ("sample", "--n", "0", "--theta1", "15", "--phi", "pi/2"), (2,), d),
        Run("ode-blow-up", ("verify", "--n", "2", "--a", "-1", "--theta1", "5", "--phi", "pi/8"), (2,), d),
        Run("parse-error", ("sample", "--n", "1", "--theta1", "15", "--phi", "theta +"), (3,), d),
        Run("io-error", ("svg", "--n", "1", "--theta1", "15", "--phi", "pi/2"), (4,), d, blocked_out=True),
        Run("degenerate-lcg", ("lcg", "--n", "2", "--theta1", "5", "--phi", "sqrt(theta) + 0.6"), (5,), d),
        # sample() promises to flag rows it cannot evaluate, so the
        # documented outcome is success with the rows flagged
        Run(
            "overflow-sample",
            ("sample", "--n", "0.5", "--b", "1e300", "--theta1", "1", "--phi", "theta", "--samples", "2"),
            (0,),
            2,
        ),
        # the tangent turn never increases: either an invalid configuration
        # or a degenerate graph is a documented answer, a traceback is not
        Run("no-turn-lcg", ("lcg", "--n", "1", "--theta1", "5", "--phi", "0 - theta"), (2, 5), d),
    ]


WORKLOADS = {"oracle": oracle, "dense": dense, "edge": edge}
