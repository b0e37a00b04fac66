"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Criteria 1-2 carry wall-clock budgets; everything else is a
numeric identity or a fitted convergence rate at its stated tolerance.
"""

import math
import time
from fractions import Fraction

import pytest

from sbtlab import diffops, limits, measures, oracle, semigroup, transforms
from sbtlab.limits import DEFAULT_N_GRID
from sbtlab.polyalg import CxPoly, RealPoly, coeff_distance
from sbtlab.suite import acceptance_suite, random_real_poly

from conftest import seeded_rng

SUITE = acceptance_suite()  # fixed monomials + 20 seeded random, k <= 3, deg <= 6
N_GRID = (5, 10, 25, 50)
T_GRID = (0.1, 0.5, 1.0, 2.0)

A1 = CxPoly.a(0)
ABAR1 = CxPoly.abar(0)
X1 = RealPoly.variable(0)


def _report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_finite_dimension_unitarity():
    start = time.monotonic()
    worst = 0.0
    for _, p in SUITE:
        for n in N_GRID:
            for t in T_GRID:
                rep = transforms.unitarity_report(p, transforms.Sphere(n, t))
                worst = max(worst, rep.rel_error)
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"worst relative norm gap {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(
        "criterion 1 (finite-dimension unitarity)",
        f"{len(SUITE) * len(N_GRID) * len(T_GRID)} checks, worst rel gap "
        f"{worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_limit_unitarity():
    start = time.monotonic()
    worst = 0.0
    for _, p in SUITE:
        for t in T_GRID:
            rep = transforms.unitarity_report(p, transforms.Limit(t))
            worst = max(worst, rep.rel_error)
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"worst relative norm gap {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(
        "criterion 2 (limit unitarity)",
        f"worst rel gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_two_route_agreement():
    worst = 0.0
    for _, p in SUITE:
        for t in T_GRID:
            via_generator = semigroup.exp_graded(diffops.HERMITE, t / 2.0, p)
            heat = semigroup.exp_graded(diffops.LAPLACIAN, (1.0 - math.exp(-t)) / 2.0, p)
            via_split = heat.dilate(math.exp(-t / 2.0))
            worst = max(worst, float(coeff_distance(via_generator, via_split)))
    assert worst <= 1e-12, f"worst coefficient distance {worst:.3e}"
    _report("criterion 3 (two-route agreement)", f"worst distance {worst:.2e}")


def test_criterion_4_commutation_identities():
    t = 1.0
    worst = 0.0
    for k in (1, 2, 3):
        rep = semigroup.bch_check((-t / 2.0) * diffops.EULER, (t / 2.0) * diffops.LAPLACIAN,
                                  t, k, 8)
        worst = max(worst, rep.max_deviation)

        g = diffops.g_uv_op(k)
        lap_u = diffops.laplacian_op(indices=tuple(range(k)))
        rep = semigroup.bch_check(t * g, 0.5 * lap_u, -t, 2 * k, 8)
        worst = max(worst, rep.max_deviation)
    assert worst <= 1e-11, f"worst identity deviation {worst:.3e}"
    _report(
        "criterion 4 (commutation exponential identities)",
        f"both instantiations, k <= 3, degree 8; worst deviation {worst:.2e}",
    )


def test_criterion_5_measure_convergence():
    # sphere: the quartic moment misses its limit by exactly 6/(n+2)
    for n in DEFAULT_N_GRID:
        exact = measures.sphere_moment(X1 ** 4, n)
        assert exact == 3 - Fraction(6, n + 2)
        err = abs(float(exact) - 3.0)
        assert err == pytest.approx(6.0 / (n + 2), abs=1e-12)
    # quadric: second moment converges to e^T at first order
    t = 1.0
    table = limits.measure_limit(A1 * ABAR1, "quadric", T=t, ns=DEFAULT_N_GRID)
    assert all(a > b for a, b in zip(table.errors, table.errors[1:]))
    assert abs(table.fitted_rate - 1.0) <= 0.1
    _report(
        "criterion 5 (measure convergence)",
        f"sphere error exactly 6/(n+2); quadric rate {table.fitted_rate:.3f}",
    )


DEG4_SUITE = [
    RealPoly({(4,): 1}),
    RealPoly({(2, 2): 1}),
    RealPoly({(3, 1): 1}),
    RealPoly({(2, 1, 1): 1}),
    RealPoly({(4,): 2, (2, 2): -3, (1, 1, 2): 1}),
]


def test_criterion_6_operator_convergence():
    for n in DEFAULT_N_GRID:
        err = coeff_distance(
            diffops.spherical_laplacian_op(n).apply(X1), diffops.HERMITE.apply(X1)
        )
        assert err == Fraction(1, n)
    rates = []
    for p in DEG4_SUITE:
        table = limits.laplacian_limit(p, ns=DEFAULT_N_GRID)
        assert abs(table.fitted_rate - 1.0) <= 0.05
        rates.append(table.fitted_rate)
    _report(
        "criterion 6 (operator convergence)",
        f"x1 error exactly 1/n; degree-4 rates within {max(abs(r - 1) for r in rates):.1e} of 1",
    )


def test_criterion_7_transform_convergence():
    t = 1.0
    fitted = []
    exact_matches = 0
    for label, p in SUITE:
        table = limits.transform_limit(p, t, ns=DEFAULT_N_GRID)
        if math.isinf(table.fitted_rate):
            # flows of degree <= 2 are dimension-free, so the distance is
            # pure round-off and the table reports exact agreement
            exact_matches += 1
            continue
        assert table.fitted_rate >= 0.9, (label, table.fitted_rate)
        fitted.append(table.fitted_rate)
    assert fitted, "expected at least one genuinely convergent polynomial"
    _report(
        "criterion 7 (transform convergence)",
        f"{len(fitted)} rates >= 0.9 (min {min(fitted):.3f}), "
        f"{exact_matches} exact at every dimension",
    )


def test_criterion_8_oracle_equivalence():
    rng = seeded_rng(81)
    # pair-partition sums equal heat-operator moments exactly in rational mode
    for _ in range(10):
        p = random_real_poly(rng, k=4, degree=10, terms=5)
        t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        assert oracle.isserlis_moment(p, t) == measures.gaussian_moment(p, t)
    # quadrature matches the analytic complex-Gaussian moments
    worst = 0.0
    q = A1 ** 2 * ABAR1 ** 2 + 2 * A1 * ABAR1 + CxPoly.a(1) * ABAR1
    order = q.degree() // 2 + 1
    for t in (0.5, 1.0, 2.0):
        est = oracle.quad_gauss_moment(q, measures.MeasureSpec.gamma(t), order)
        ref = complex(measures.gamma_moment(q, t))
        worst = max(worst, abs(complex(est.value) - ref) / max(1.0, abs(ref)))
    est = oracle.quad_gauss_moment(q, measures.MeasureSpec.xi(1.0, 0.8), order)
    ref = complex(measures.xi_moment(q.to_float(), 1.0, 0.8))
    worst = max(worst, abs(complex(est.value) - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-12
    # Monte Carlo sphere sampling within four standard errors on fixed seeds
    n = 50
    for p, seed in [(X1 ** 2, 11), (X1 ** 4, 12), (X1 ** 2 * RealPoly.variable(1) ** 2, 13)]:
        est = oracle.mc_sphere_moment(p, n, samples=300_000, seed=seed)
        ref = float(measures.sphere_moment(p, n))
        assert abs(est.value - ref) <= 4 * est.std_error, (est, ref)
    _report(
        "criterion 8 (oracle equivalence)",
        f"pairing sums exact; quadrature gap {worst:.2e}; MC within 4 sigma",
    )


def test_criterion_9_second_moment_normalization():
    # the second moment of the limiting range measure is e^T: the analytic
    # pairing route and the quadrature oracle agree, and the limit unitarity
    # of x1 (criterion 2) holds with exactly this value -- a doubled moment
    # would double the range norm.  Recorded in README "Numerical findings".
    for t in T_GRID:
        analytic = complex(measures.gamma_moment(A1 * ABAR1, t))
        assert analytic.real == pytest.approx(math.exp(t), rel=1e-14)
        quad = oracle.quad_gauss_moment(A1 * ABAR1, measures.MeasureSpec.gamma(t), 3)
        assert complex(quad.value) == pytest.approx(analytic, rel=1e-12)
        rep = transforms.unitarity_report(X1, transforms.Limit(t))
        assert rep.range_norm2 == pytest.approx(1.0, rel=1e-12)
    _report(
        "criterion 9 (second-moment normalization)",
        "gamma second moment is e^T by analytic and quadrature routes; "
        "unitarity confirms",
    )
