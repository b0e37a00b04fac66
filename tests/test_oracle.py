import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from sbtlab import oracle, polyalg
from sbtlab.diffops import DimensionError
from sbtlab.measures import (
    MeasureSpec,
    gamma_moment,
    gaussian_moment,
    sphere_moment,
    xi_moment,
)
from sbtlab.oracle import (
    MC_CELL,
    MC_CHUNK,
    InsufficientOrderError,
    isserlis_moment,
    mc_sphere_moment,
    quad_gauss_moment,
)
from sbtlab.polyalg import CxPoly, RealPoly, _EvalPlan, holomorphic_extend
from sbtlab.suite import random_real_poly

from conftest import eval_plan_frozen, seeded_rng

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)
X3 = RealPoly.variable(2)
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
    # in 2 variables at order 9, where a point grid would hold 6 561 points.
    # Evaluating every term on the whole grid at once peaked at 3.2 MiB on
    # this input.
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


def test_quadrature_beyond_the_size_of_a_point_grid():
    # k = 4 at degree 16 under gamma: a grid would hold 9^8, about 4.3e7
    # points; the per-coordinate tables hold 17 x 17 entries
    rng = seeded_rng(18)
    p = random_real_poly(rng, k=4, degree=8, terms=6) + RealPoly({(2, 2, 2, 2): 1})
    q = holomorphic_extend(p).mod_square()
    assert (q.width(), q.degree()) == (4, 16)
    for T in (0.3, 1.0, 1.7):
        est = quad_gauss_moment(q, MeasureSpec.gamma(T), 9)
        assert complex(est.value) == pytest.approx(complex(gamma_moment(q, T)), rel=1e-12)


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


# ten monomials of degrees 8, 8, 7, 6, 5, 4, 3, 2, 2, 1 in five variables,
# shaped like the flat-oracle benchmark's inputs
FLAT_K5 = RealPoly({
    (3, 1, 2, 2): Fraction(-1, 3), (2, 1, 0, 1, 4): -1, (2, 0, 1, 1, 3): Fraction(2, 3),
    (0, 2, 2, 1, 1): 1, (2, 0, 0, 1, 2): 3, (2, 1, 0, 0, 1): 2, (0, 0, 0, 2, 1): Fraction(1, 2),
    (0, 0, 0, 0, 2): Fraction(3, 2), (1, 0, 0, 1): Fraction(1, 2), (0, 1): Fraction(-3, 2),
})


@pytest.mark.parametrize("p, n, samples, seed, value, std_error", [
    (X1 ** 2 * X2 ** 2, 15, 40_000, 5, "0x1.bef33f910f0e3p-1", "0x1.36a8ceddf6060p-7"),
    # the input of verify's mc-vs-sphere check at its default seed
    (X1 ** 4, 50, 200_000, 7, "0x1.6d6017128c4acp+1", "0x1.36ce27dfcdcdap-6"),
    (FLAT_K5, 17, 100_000, 11, "0x1.7c38ca6bbe831p+0", "0x1.acb4fa14e2c6fp-6"),
    # the last cell is short: 39 cells of 1024 points and one of 67
    (X1 ** 2 * X2 ** 2 - 3 * X2, 15, 40_003, 9, "0x1.cc1fa725d42d1p-1", "0x1.25d8ff5531eb3p-6"),
    # n = k draws no chi-square
    (X1 ** 2 * X2 + X3 ** 4, 3, 20_000, 4, "0x1.cca6d0afea012p+0", "0x1.26faba445d289p-6"),
    # many chunks, the last one 37 points
    (X1 ** 3 - 2 * X1, 6, 16 * 65_536 + 37, 2, "0x1.12db4fb5828bdp-11", "0x1.52db633d69c3cp-10"),
], ids=["x1^2*x2^2", "verify", "flat-k5", "remainder", "n=k", "two-chunks"])
def test_mc_estimates_are_pinned(p, n, samples, seed, value, std_error):
    est = mc_sphere_moment(p, n, samples=samples, seed=seed)
    assert (est.value.hex(), est.std_error.hex()) == (value, std_error)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_mc_estimate_gives_the_frozen_plans_bits(monkeypatch, k):
    # flat-oracle-shaped inputs: ten terms of degree up to 8, and a float copy
    p = random_real_poly(seeded_rng(70 + k), k=k, degree=8, terms=10)
    for q in (p, p.to_float()):
        est = mc_sphere_moment(q, 3 * k, samples=20_003, seed=k)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_EvalPlan", eval_plan_frozen)
            frozen = mc_sphere_moment(q, 3 * k, samples=20_003, seed=k)
        assert (est.value.hex(), est.std_error.hex()) == \
            (frozen.value.hex(), frozen.std_error.hex())


def test_mc_concurrent_calls_keep_their_bits():
    # each call owns its workspace, so calls on other threads cannot touch it
    args = [(FLAT_K5, 17, 100_000, 11), (X1 ** 2 * X2 ** 2 - 3 * X2, 15, 40_003, 9)] * 2
    alone = [mc_sphere_moment(p, n, samples=s, seed=seed) for p, n, s, seed in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            together = list(pool.map(
                lambda a: mc_sphere_moment(a[0], a[1], samples=a[2], seed=a[3]), args))
    finally:
        sys.setswitchinterval(interval)
    assert together == alone


def _mc_peak(p, n, samples) -> int:
    tracemalloc.start()
    try:
        mc_sphere_moment(p, n, samples=samples, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_peak_memory_is_one_workspace(monkeypatch):
    # k + 2 rows of draws for c = min(MC_CHUNK, samples) points, and the
    # evaluation plan's rows for one block of at most c points
    p, n, k = FLAT_K5, 17, 5
    plan = _EvalPlan(p)
    mc_sphere_moment(p, n, samples=1000)
    for samples in (10 ** 5, 10 ** 6):
        cap = min(MC_CHUNK, samples)
        workspace = ((k + 2) * cap + plan.rows * min(cap, plan.step)) * 8
        assert _mc_peak(p, n, samples) <= workspace + (64 << 10)
    # once c is MC_CHUNK the peak does not grow with the sample count
    monkeypatch.setattr(oracle, "MC_CHUNK", 2048)
    assert _mc_peak(p, n, 10 ** 6) <= _mc_peak(p, n, 10 ** 5) + (16 << 10)


@pytest.mark.parametrize("p, n, samples", [
    (FLAT_K5, 17, 100_003),
    # at either chunk size the last chunk is one point
    (X1 ** 2 * X2 ** 2 - 3 * X2, 15, 2 * MC_CHUNK + 1),
], ids=["flat-k5", "one-point-chunk"])
def test_mc_estimate_does_not_depend_on_chunk_or_block_size(monkeypatch, p, n, samples):
    assert MC_CHUNK % MC_CELL == 0 and 2048 % MC_CELL == 0
    est = mc_sphere_moment(p, n, samples=samples, seed=8)
    half = polyalg.EVAL_BLOCK_BYTES // 2
    for chunk, block_bytes in ((2048, polyalg.EVAL_BLOCK_BYTES), (MC_CHUNK, half), (2048, half)):
        monkeypatch.setattr(oracle, "MC_CHUNK", chunk)
        monkeypatch.setattr(polyalg, "EVAL_BLOCK_BYTES", block_bytes)
        assert mc_sphere_moment(p, n, samples=samples, seed=8) == est


def test_mc_standard_error_is_calibrated():
    # E[x1^2] = 1 on the radius-sqrt(n) sphere; |z| <= 2 holds with
    # probability about 0.954 when the standard error is right
    zs = [(est.value - 1.0) / est.std_error
          for est in (mc_sphere_moment(X1 ** 2, 5, samples=2000, seed=seed)
                      for seed in range(400))]
    share = sum(abs(z) <= 2 for z in zs) / len(zs)
    assert 0.91 <= share <= 0.995


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


@pytest.mark.parametrize("samples", [100_000.0, True, None, "1000"])
def test_mc_rejects_a_non_integer_sample_count(samples):
    with pytest.raises(ValueError, match="samples must be an integer >= 1000"):
        mc_sphere_moment(X1, 5, samples=samples, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, None, True])
def test_mc_rejects_a_negative_or_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        mc_sphere_moment(X1, 5, samples=1000, seed=seed)


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
