"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers; the
lines are echoed together after the run.  The class-seam criterion checks
the gap across n = 1 against exact arithmetic: near the seam the law
itself moves the arc length by about eps*u^2/2, so the branch switch is
judged by how closely the computed gap matches the exact one.
"""

import json
import math
import random
import time
import zlib
from decimal import Decimal, localcontext

from polarlac import (
    CurveParams,
    arc_length,
    compare,
    lcg_closed_form,
    lcg_numeric,
    linear_fit,
    ode_arc_length,
    parse,
    radius_at,
    sample,
)
from polarlac.cli import main
from polarlac.lcg import LcgPoint
from conftest import EXPRESSION_CORPUS, FIGURE_FAMILIES, params, record_acceptance

ALL_CONFIGS = [
    (n, phi, theta0, theta1)
    for _, ns, phi, theta0, theta1 in FIGURE_FAMILIES
    for n in ns
]


def report(num: int, title: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} - {title}: {detail}"
    record_acceptance(line)
    print(line)
    return line


def test_criterion_1_ode_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n, phi, theta0, theta1 in ALL_CONFIGS:
        p = params(n, theta0=theta0, theta1=theta1, phi=phi)
        # L at the last of two rows, theta0 and theta1
        L = ode_arc_length(p, 10_000, sample(p, 2))[-1]
        closed = arc_length(p, theta1)
        worst = max(worst, abs(L - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    line = report(
        1,
        "closed form vs error-controlled re-integrated arc length at theta1",
        ok,
        f"{len(ALL_CONFIGS)} configurations, worst rel {worst:.3e} (tol 1e-08), "
        f"{elapsed:.2f}s (limit 1s)",
    )
    assert ok, line


def test_criterion_2_exact_lcg_identity():
    pairs = [(n, a) for n in (-3.0, -1.0, -0.5, 0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)]
    pairs += [(2.5, 1.5), (-1.5, 0.75)]
    worst_slope = worst_icept = worst_r2 = 0.0
    for n, a in pairs:
        p = params(n, a=a, theta1=0.2)
        fit = linear_fit(lcg_closed_form(p, 64))
        worst_slope = max(worst_slope, abs(fit.slope - n))
        worst_icept = max(worst_icept, abs(fit.intercept - math.log(abs(n / a))))
        worst_r2 = max(worst_r2, 1.0 - fit.r_squared)
    ok = worst_slope <= 1e-9 and worst_icept <= 1e-9 and worst_r2 <= 1e-12
    line = report(
        2,
        "closed-form logarithmic curvature graph is the law's line",
        ok,
        f"{len(pairs)} (n, a) pairs, slope gap {worst_slope:.1e} (tol 1e-09), "
        f"intercept gap {worst_icept:.1e} (tol 1e-09), 1-R2 {worst_r2:.1e} (tol 1e-12)",
    )
    assert ok, line


def test_criterion_3_compatible_log_spiral():
    p = params(1.0, theta1=6.0, phi="pi/4")
    rep = compare(p, 64)
    interior = rep.rows[1:-1]
    phi_ok = all(
        not r.degenerate and abs(r.phi_actual - math.pi / 4.0) <= 1e-4 for r in interior
    )
    worst_phi = max(abs(r.phi_actual - math.pi / 4.0) for r in interior)
    fit = linear_fit(lcg_numeric(rep))
    fit_ok = abs(fit.slope - 1.0) <= 1e-3 and fit.r_squared >= 0.999999
    ok = phi_ok and fit_ok
    line = report(
        3,
        "compatible log spiral measures as one",
        ok,
        f"max |phi_actual - pi/4| {worst_phi:.2e} (tol 1e-04), numeric slope "
        f"{fit.slope:.7f} (tol 1e-03 about 1), R2 {fit.r_squared:.9f} (min 0.999999)",
    )
    assert ok, line


def _brute_force_rho(p: CurveParams, theta: float) -> float:
    # curvature straight from the Cartesian trace, no polar formula involved
    def xy(t: float) -> tuple[float, float]:
        r = radius_at(p, t)
        return r * math.cos(t), r * math.sin(t)

    h = 1e-5 * max(1.0, abs(theta))
    xm, ym = xy(theta - h)
    x0, y0 = xy(theta)
    xp, yp = xy(theta + h)
    xd = (xp - xm) / (2.0 * h)
    yd = (yp - ym) / (2.0 * h)
    xdd = (xp - 2.0 * x0 + xm) / (h * h)
    ydd = (yp - 2.0 * y0 + ym) / (h * h)
    return (xd * xd + yd * yd) ** 1.5 / (xd * ydd - yd * xdd)


def test_criterion_4_constant_phi_linear_rho_in_s():
    results = []
    ok = True
    for a, phi_text, phi_val in ((0.5, "pi/3", math.pi / 3.0), (2.0, "pi/8", math.pi / 8.0)):
        p = params(1.0, a=a, theta1=2.0, phi=phi_text)
        rep = compare(p, 128)
        pts = [
            LcgPoint(r.s_numeric, r.rho_numeric)
            for r in rep.rows
            if not r.degenerate
        ]
        fit = linear_fit(pts)
        expected_icept = math.sqrt(1.0 + a * a) * 1.0 * math.sin(phi_val)
        slope_gap = abs(fit.slope - a)
        icept_gap = abs(fit.intercept - expected_icept)
        ok = ok and slope_gap <= 1e-3 and icept_gap <= 1e-3
        results.append(f"a={a}: slope gap {slope_gap:.1e}, intercept gap {icept_gap:.1e}")

    # confirm the derivation against raw parametric curvature on one config
    p = params(1.0, a=0.5, theta1=2.0, phi="pi/3")
    from polarlac import numeric_arc_length

    expected_icept = math.sqrt(1.25) * math.sin(math.pi / 3.0)
    for theta in (0.25, 0.7, 1.3, 1.8):
        rho_bf = _brute_force_rho(p, theta)
        s = numeric_arc_length(lambda t: radius_at(p, t), 0.0, theta)
        predicted = 0.5 * s + expected_icept
        ok = ok and abs(rho_bf - predicted) / abs(predicted) <= 1e-5

    line = report(
        4,
        "constant-phi trace has rho_actual = a*s + sqrt(1+a^2)*b*sin(phi)",
        ok,
        "; ".join(results) + " (tol 1e-03); brute-force parametric curvature agrees to 1e-05",
    )
    assert ok, line


def _exact_seam_gap(near: CurveParams, base: CurveParams, theta: float) -> float:
    # signed relative gap (L_near - L_base) / L_base from the closed forms of
    # the curve module docstring, in 50-digit decimal arithmetic on the exact
    # binary parameter values; the branch is chosen by n == 1 alone, so a
    # fault in the program's own dispatch cannot reach this reference
    with localcontext() as ctx:
        ctx.prec = 50

        def L(p: CurveParams):
            n, a, b = Decimal(p.n), Decimal(p.a), Decimal(p.b)
            u = (Decimal(theta) - Decimal(p.theta0)) + (
                Decimal(p.phi.value(theta)) - Decimal(p.phi0)
            )
            if n == 1:
                return b / a * ((a * u).exp() - 1)
            A = (a * (n - 1) * u + n * b ** (1 - 1 / n)) / n
            return (A ** (n / (n - 1)) - b) / a

        L_base = L(base)
        return float((L(near) - L_base) / L_base)


def test_criterion_5_class_seam_continuity():
    p1 = params(1.0)
    L1 = arc_length(p1, 15.0)
    gaps, exact, agreement = [], [], []
    for eps in (1e-6, -1e-6):
        near = params(1.0 + eps)
        gaps.append((arc_length(near, 15.0) - L1) / L1)
        exact.append(_exact_seam_gap(near, p1, 15.0))
        agreement.append(abs(gaps[-1] - exact[-1]) / abs(exact[-1]))
    ok = all(g <= 1e-6 for g in agreement)
    line = report(
        5,
        "class seam at n=1 adds nothing beyond the law's own change at theta1=15",
        ok,
        f"measured gaps {gaps[0]:+.8e} and {gaps[1]:+.8e}, exact gaps "
        f"{exact[0]:+.8e} and {exact[1]:+.8e}, agreement {agreement[0]:.1e} and "
        f"{agreement[1]:.1e} of the gap (tol 1e-06); the gap itself is the law's "
        "eps*u^2/2 = 1.125e-04 for a full turn u=15",
    )
    assert ok, line


def test_criterion_6_soft_linearity_report():
    entries = []
    ok = True
    for n, phi, theta0, theta1 in ALL_CONFIGS:
        # families whose f' is unbounded at 0 are measured from 0.1 on:
        # the first quadrature segment is otherwise unmeasurable
        t0 = 0.1 if phi in ("theta^0.25 + 3", "sqrt(theta) + 0.6") else theta0
        p = params(n, theta0=t0, theta1=theta1, phi=phi)
        try:
            fit = linear_fit(lcg_numeric(compare(p, 128)))
        except ValueError as exc:
            ok = False
            entries.append(f"  n={n:+g} phi={phi}: not measurable ({exc})")
            continue
        ok = ok and math.isfinite(fit.slope) and math.isfinite(fit.r_squared)
        entries.append(
            f"  n={n:+g} phi={phi} on [{t0:g}, {theta1:g}]: "
            f"numeric slope {fit.slope:+.4f}, R2 {fit.r_squared:.6f}"
        )
    line = report(
        6,
        "numeric logarithmic curvature graph measured for every configuration",
        ok,
        f"{len(ALL_CONFIGS)} fits recorded (measured values below, no R2 gate)",
    )
    for entry in entries:
        record_acceptance(entry)
        print(entry)
    assert ok, line


def test_criterion_7_expression_corpus():
    worst = 0.0
    count = 0
    for source, lo, hi in EXPRESSION_CORPUS:
        f = parse(source)
        rng = random.Random(zlib.crc32(source.encode()))
        for _ in range(100):
            theta = rng.uniform(lo, hi)
            h = 1e-6 * max(1.0, abs(theta))
            if theta - h < lo or theta + h > hi:
                continue
            exact = f.eval_with_derivative(theta).dphi_dtheta
            fd = (f.value(theta + h) - f.value(theta - h)) / (2.0 * h)
            worst = max(worst, abs(exact - fd) / max(1.0, abs(exact)))
            count += 1
    fd_ok = worst <= 1e-6

    v1 = parse("pi/2").eval_with_derivative(3.0)
    v2 = parse("0.01*theta + 0.3").eval_with_derivative(1.0)
    v3 = parse("theta^0.25 + 3").eval_with_derivative(16.0)
    v4 = parse("sqrt(theta) + 0.6").eval_with_derivative(4.0)
    hand_ok = (
        (v1.phi, v1.dphi_dtheta) == (math.pi / 2.0, 0.0)
        and abs(v2.phi - 0.31) <= 1e-15
        and v2.dphi_dtheta == 0.01
        and (v3.phi, v3.dphi_dtheta) == (5.0, 0.03125)
        and (v4.phi, v4.dphi_dtheta) == (2.6, 0.25)
    )
    ok = fd_ok and hand_ok
    line = report(
        7,
        "expression corpus derivatives and the four caption laws",
        ok,
        f"{len(EXPRESSION_CORPUS)} expressions, {count} probes, worst relative "
        f"derivative gap {worst:.1e} (tol 1e-06); hand values "
        f"{'exact' if hand_ok else 'WRONG'}",
    )
    assert ok, line


def test_criterion_8_deterministic_outputs(tmp_path):
    fig5 = ["--n", "1", "--theta1", "15", "--phi", "0.01*theta + 0.3", "--samples", "128"]
    outs = (tmp_path / "one", tmp_path / "two")
    for out in outs:
        assert main(["svg", *fig5, "--out", str(out)]) == 0
        assert main(["sample", *fig5, "--out", str(out)]) == 0
    names = ("curve.svg", "rho.svg", "lcg.svg", "samples.csv", "samples.json")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)

    p = params(1.0, phi="0.01*theta + 0.3")
    lossless = True
    rows = (outs[0] / "samples.csv").read_text().splitlines()[1:]
    for row in rows:
        f = row.split(",")
        theta = float(f[0])
        L = arc_length(p, theta)
        lossless = lossless and float(f[1]) == L and float(f[2]) == radius_at(p, theta)
    round_trip = json.loads((outs[0] / "samples.json").read_text())
    lossless = lossless and len(round_trip["rows"]) == len(rows)

    ok = identical and lossless
    line = report(
        8,
        "byte-identical reruns and lossless number round-trip",
        ok,
        f"{len(names)} files byte-identical: {identical}; "
        f"{len(rows)} CSV rows recompute bitwise: {lossless}",
    )
    assert ok, line
