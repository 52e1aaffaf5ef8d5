import json
import os
from importlib import resources

import pytest

from polarlac import CurveParams, parse

# expression corpus with a theta interval on which both the value and the
# derivative stay finite (with headroom for finite-difference probes)
EXPRESSION_CORPUS = [
    ("pi/2", -10.0, 10.0),
    ("0.01*theta + 0.3", -10.0, 10.0),
    ("theta^0.25 + 3", 0.1, 20.0),
    ("sqrt(theta) + 0.6", 0.1, 20.0),
    ("pi/8", -5.0, 5.0),
    ("0.2*theta + pi/24", -10.0, 20.0),
    ("sin(theta)", -6.0, 6.0),
    ("cos(3*theta - 1)", -4.0, 4.0),
    ("exp(0 - theta/5)", -10.0, 10.0),
    ("ln(theta + 2)", -1.5, 10.0),
    ("theta^2/(1 + theta^2)", -8.0, 8.0),
    ("sqrt(theta^2 + 1)", -6.0, 6.0),
    ("2^theta", -5.0, 5.0),
    ("theta^theta", 0.2, 3.0),
    ("(theta + 1)^(1/3)", -0.9, 5.0),
    ("sin(theta)*cos(theta)", -6.0, 6.0),
    ("exp(sin(theta))", -6.0, 6.0),
    ("ln(exp(theta) + 1)", -5.0, 5.0),
    ("1/(theta + 3)", -2.0, 10.0),
    ("-theta^2 + 2*theta - 1", -5.0, 5.0),
    ("pi*theta/6 - sqrt(2)", -9.0, 9.0),
    ("sin(theta^2)", -3.0, 3.0),
    ("cos(theta)^2 + sin(theta)^2", -6.0, 6.0),
    ("theta/2 - theta^3/6", -4.0, 4.0),
    ("exp(theta)/(1 + exp(theta))", -6.0, 6.0),
    ("sqrt(1 + sqrt(1 + theta))", -0.9, 10.0),
    ("2*pi - theta/7", -9.0, 9.0),
    ("(2*theta + 1)/(theta^2 + 4)", -7.0, 7.0),
    ("-(-theta)", -5.0, 5.0),
    ("0.5*(exp(theta/3) - exp(0 - theta/3))", -6.0, 6.0),
]

# the figure configurations exercised by the acceptance suite: families of
# (n values, phi expression, theta range), all with a = b = 1
FIGURE_FAMILIES = [
    ("constant right angle", (1.0,), "pi/2", 0.0, 15.0),
    ("slowly varying linear", (1.0,), "0.01*theta + 0.3", 0.0, 15.0),
    ("quarter-power", (1.0,), "theta^0.25 + 3", 0.0, 15.0),
    ("inward constant", (-1.0,), "pi/2", 0.0, 15.0),
    ("constant eighth, general exponents", (2.0, 3.0, -2.0, -3.0), "pi/8", 0.0, 5.0),
    ("linear, negative exponents", (-1.0, -2.0, -3.0), "0.01*theta + 0.3", 0.0, 5.0),
    ("square-root", (2.0, 3.0, -2.0, -3.0), "sqrt(theta) + 0.6", 0.0, 5.0),
]


def params(n, a=1.0, b=1.0, theta0=0.0, theta1=15.0, phi="pi/2"):
    return CurveParams(n, a, b, theta0, theta1, parse(phi))


# a curve with no flagged row and curves whose rows are flagged each way a
# row can be, with the row count each is sampled at:
# (id, CurveParams arguments, count)
ROW_MODEL_CASES = [
    ("n-1", (1.0, 1.0, 1.0, 0.0, 15.0, "0.01*theta + 0.3"), 64),
    ("n-2-past-domain", (2.0, -1.0, 1.0, 0.0, 5.0, "pi/8"), 64),
    # phi has a value at theta0 = 0 but no derivative: the row is flagged,
    # and yet its graph point exists
    ("sqrt-at-0", (2.0, 1.0, 1.0, 0.0, 5.0, "sqrt(theta) + 0.6"), 8),
    ("b-overflow", (0.5, 1.0, 1e300, 0.0, 1.0, "theta"), 2),
    # a*(n - 1) underflows to 0 and the turn overflows at theta1, so rho is NaN
    ("nan-rho", (1.25, 5e-324, 1, -1, 1, "1e308*theta"), 5),
]


def row_model_case(args: tuple) -> CurveParams:
    *numbers, phi = args
    return CurveParams(*numbers, parse(phi))


def point(p: CurveParams, theta: float) -> tuple:
    # (L, rho, phi, f') at theta, from one evaluation of phi's dual value
    # and the curve's compiled arc; raises whatever either raises
    v, d = p.phi.eval_with_derivative(theta)
    return (*p._arc((theta - p.theta0) + (v - p.phi0)), v, d)


@pytest.fixture
def fig4():
    return params(1.0)


@pytest.fixture
def fig5():
    return params(1.0, phi="0.01*theta + 0.3")


@pytest.fixture
def fig7():
    return params(-1.0)


@pytest.fixture
def compatible_spiral():
    # constant phi = pi/4 with a = cot(pi/4): the prescribed angle matches
    # the generated trace exactly, so numeric checks can be tight
    return params(1.0, theta1=6.0, phi="pi/4")


@pytest.fixture(autouse=True)
def no_child_left():
    # a test may start processes, but must wait for every one it started:
    # a child still running, or ended and not waited for, fails the test
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def load_schema(name: str) -> dict:
    text = (resources.files("polarlac") / "schemas" / name).read_text()
    return json.loads(text)


# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria", sep="-")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
