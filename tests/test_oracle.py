import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from sbtlab.diffops import DimensionError
from sbtlab.measures import (
    MeasureSpec,
    gamma_moment,
    gaussian_moment,
    sphere_moment,
    xi_moment,
)
from sbtlab.oracle import (
    InsufficientOrderError,
    isserlis_moment,
    mc_sphere_moment,
    quad_gauss_moment,
)
from sbtlab.polyalg import CxPoly, RealPoly, holomorphic_extend
from sbtlab.suite import random_real_poly

from conftest import seeded_rng

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)
A1 = CxPoly.a(0)
ABAR1 = CxPoly.abar(0)


# ---------------------------------------------------------------------------
# pair-partition enumeration


def test_isserlis_examples():
    assert isserlis_moment(X1 ** 4, Fraction(1)) == 3  # three pairings
    t = Fraction(5, 7)
    assert isserlis_moment(X1 ** 4, t) == 3 * t ** 2
    assert isserlis_moment(X1 ** 2 * X2 ** 2, t) == t ** 2  # one pairing per axis
    assert isserlis_moment(X1 ** 3, t) == 0


@pytest.mark.parametrize("t", [0, -1, math.nan, math.inf])
def test_isserlis_rejects_a_variance_outside_the_gaussian_family(t):
    with pytest.raises(ValueError):
        isserlis_moment(X1 ** 2, t)


def test_isserlis_rejects_complexified_polynomials():
    with pytest.raises(TypeError, match="real polynomials"):
        isserlis_moment(A1 * ABAR1, 1)


def test_isserlis_equals_heat_route_exactly():
    rng = seeded_rng(51)
    for _ in range(10):
        p = random_real_poly(rng, k=4, degree=10, terms=5)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert isserlis_moment(p, t) == gaussian_moment(p, t)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_gamma_example():
    est = quad_gauss_moment(A1 * ABAR1, MeasureSpec.gamma(1.0), 4)
    assert complex(est.value).real == pytest.approx(math.e, rel=1e-13)
    assert est.std_error == 0.0


def test_quadrature_gauss_example():
    est = quad_gauss_moment(X1 ** 4, MeasureSpec.gauss(1), 3)
    assert est.value == pytest.approx(3.0, rel=1e-13)


def test_quadrature_gamma_variance_difference():
    for T in (0.5, 2.0):
        est = quad_gauss_moment(A1 ** 2, MeasureSpec.gamma(T), 4)
        assert complex(est.value) == pytest.approx(1.0, rel=1e-12)


def test_quadrature_matches_analytic_routes():
    q = A1 ** 3 * ABAR1 + A1 * ABAR1 ** 3 + 2 * A1 * ABAR1
    order = q.degree() // 2 + 1
    for T in (0.5, 1.5):
        est = quad_gauss_moment(q, MeasureSpec.gamma(T), order)
        assert complex(est.value) == pytest.approx(
            complex(gamma_moment(q, T)), rel=1e-12
        )
    est = quad_gauss_moment(q, MeasureSpec.xi(1.0, 0.8), order)
    assert complex(est.value) == pytest.approx(
        complex(xi_moment(q.to_float(), 1.0, 0.8)), rel=1e-12
    )


def test_quadrature_peak_memory_is_bounded():
    # the gamma check of the flat-oracle benchmark: |p2|^2 for a 10-term p2
    # in 2 variables at order 9, a 6 561-point grid.  Evaluating every term
    # on the whole grid at once peaked at 3.2 MiB on this input.
    p2 = RealPoly({(8,): 1, (3, 5): -2, (2, 5): Fraction(1, 2), (6,): 3, (1, 4): 1,
                   (0, 4): -1, (2, 1): 2, (1, 1): Fraction(-3, 2), (0, 2): 1, (1,): 2})
    square = holomorphic_extend(p2).mod_square()
    family = MeasureSpec.gamma(0.7)
    quad_gauss_moment(square, family, 9)
    tracemalloc.start()
    try:
        quad_gauss_moment(square, family, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.56 * 2 ** 20


def test_quadrature_insufficient_order_flagged():
    with pytest.raises(InsufficientOrderError):
        quad_gauss_moment(X1 ** 6, MeasureSpec.gauss(1), 3)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_sphere_examples_within_three_sigma():
    n = 50
    est = mc_sphere_moment(X1 ** 2, n, samples=300_000, seed=7)
    assert abs(est.value - 1.0) <= 3 * est.std_error
    est = mc_sphere_moment(X1 ** 4, n, samples=300_000, seed=7)
    assert abs(est.value - 3 * n / (n + 2)) <= 3 * est.std_error
    est = mc_sphere_moment(X1 * X2, n, samples=300_000, seed=7)
    assert abs(est.value) <= 3 * max(est.std_error, 1e-12)


def test_mc_deterministic_given_seed():
    a = mc_sphere_moment(X1 ** 4, 20, samples=50_000, seed=123)
    b = mc_sphere_moment(X1 ** 4, 20, samples=50_000, seed=123)
    assert a == b
    c = mc_sphere_moment(X1 ** 4, 20, samples=50_000, seed=124)
    assert c.value != a.value


@pytest.mark.parametrize("p, n, samples, seed, value, std_error", [
    (X1 ** 2 * X2 ** 2, 15, 40_000, 5, "0x1.bdaf378eb4a1fp-1", "0x1.33c5c2a385e2ap-7"),
    # the input of verify's mc-vs-sphere check at its default seed
    (X1 ** 4, 50, 200_000, 7, "0x1.720547d1d2ce9p+1", "0x1.3e78cda2d374fp-6"),
], ids=["x1^2*x2^2", "verify"])
def test_mc_estimates_are_pinned(p, n, samples, seed, value, std_error):
    est = mc_sphere_moment(p, n, samples=samples, seed=seed)
    assert (est.value.hex(), est.std_error.hex()) == (value, std_error)


def test_mc_starts_no_threads(monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("mc_sphere_moment started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    mc_sphere_moment(X1 ** 2 * X2 ** 2, 15, samples=40_000, seed=5)


def test_mc_standard_error_does_not_cancel_for_large_values():
    # a one-pass E[v^2] - E[v]^2 loses the variance of 1e8 + x1 to cancellation
    plain = mc_sphere_moment(X1, 5, samples=100_000, seed=1)
    shifted = mc_sphere_moment(10 ** 8 + X1, 5, samples=100_000, seed=1)
    assert shifted.std_error == pytest.approx(plain.std_error, rel=1e-6)


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        mc_sphere_moment(X1, 5, samples=10, seed=0)


@pytest.mark.parametrize("p, n, error", [
    (RealPoly.constant(1), 0, ValueError),
    (X1, 1, ValueError),
    (X1, 2.5, ValueError),
    (X1 * X2 * RealPoly.variable(2), 2, DimensionError),
], ids=["n=0", "n=1", "n=2.5", "width-above-n"])
def test_mc_checks_the_sphere_like_the_exact_moment(p, n, error):
    with pytest.raises(error):
        mc_sphere_moment(p, n, samples=1000)
    with pytest.raises(error):
        sphere_moment(p, n)


@pytest.mark.parametrize("n, samples", [(2, 200_000), (3, 200_000), (10 ** 6, 20_000)])
def test_mc_draws_only_the_coordinates_p_reads(n, samples):
    # n = width draws no chi-square; at n = 10^6 the other coordinates are
    # one chi-square draw per sample, never an n-column array
    p = X1 ** 4 + X1 ** 2 * X2 ** 2 - 2 * X2 ** 2 + X1 * X2
    start = time.perf_counter()
    est = mc_sphere_moment(p, n, samples=samples, seed=31)
    assert time.perf_counter() - start < 2.0
    assert abs(est.value - float(sphere_moment(p, n))) <= 4 * est.std_error
