import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbtlab import diffops, oracle, semigroup
from sbtlab.diffops import DimensionError
from sbtlab.measures import (
    MeasureSpec,
    gamma_moment,
    gaussian_moment,
    inner_product,
    moment,
    norm2,
    quadric_moment,
    quadric_moment_direct,
    sphere_mono_moment,
    sphere_moment,
    xi_moment,
)
from sbtlab.polyalg import (
    CxPoly,
    GaussianRational,
    HolomorphicityError,
    RealPoly,
    holomorphic_extend,
)
from sbtlab.suite import acceptance_suite, random_real_poly
from sbtlab.transforms import Limit, Sphere

from conftest import seeded_rng

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)
A1 = CxPoly.a(0)
A2 = CxPoly.a(1)
ABAR1 = CxPoly.abar(0)


# ---------------------------------------------------------------------------
# gaussian


def test_gaussian_moment_examples():
    assert gaussian_moment(X1 ** 2, 1) == 1
    # quartic value cross-checked by quadrature below
    assert gaussian_moment(X1 ** 4, 1) == 3
    assert gaussian_moment(X1 * X2, Fraction(7, 3)) == 0


def test_gaussian_moment_agrees_with_quadrature_oracle():
    rng = seeded_rng(31)
    for _ in range(4):
        p = random_real_poly(rng, k=2, degree=6, terms=4)
        t = 1.25
        direct = float(gaussian_moment(p.to_float(), t))
        est = oracle.quad_gauss_moment(p, MeasureSpec.gauss(t), p.degree() // 2 + 1)
        assert direct == pytest.approx(est.value, rel=1e-12, abs=1e-12)


def test_gaussian_moment_scales_with_variance():
    assert gaussian_moment(X1 ** 4, Fraction(2)) == 12  # 3 t^2


def _heat_series_at_zero(p, t):
    # the whole terminating heat series exp((t/2) Lap) p, read at the origin
    half = Fraction(t, 2) if isinstance(t, (int, Fraction)) else t / 2.0
    return semigroup.exp_graded(diffops.LAPLACIAN, half, p).coefficient(())


def test_gaussian_moment_equals_the_heat_series_at_zero():
    rng = seeded_rng(57)
    for _ in range(40):
        p = random_real_poly(rng, k=rng.randint(1, 4), degree=rng.randint(1, 6),
                             terms=rng.randint(1, 6))
        square = p * p
        t = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        exact = gaussian_moment(square, t)
        assert type(exact) is Fraction
        assert exact == _heat_series_at_zero(square, t)
        assert exact == oracle.isserlis_moment(square, t)
        tf = rng.uniform(0.05, 3.0)
        for poly in (square, square.to_float()):
            value = gaussian_moment(poly, tf)
            assert type(value) is float
            assert value == pytest.approx(_heat_series_at_zero(poly, tf), rel=1e-15)
        # exact p at float t: the exact sum at the dyadic rational t, rounded once
        assert gaussian_moment(square, tf) == float(gaussian_moment(square, Fraction(tf)))


def test_gaussian_moment_rejects_non_finite_variance():
    for t in (0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            gaussian_moment(X1 ** 2, t)


# ---------------------------------------------------------------------------
# xi


def test_xi_moment_examples():
    assert xi_moment(A1 * ABAR1, 1, 1) == GaussianRational(1)
    assert xi_moment(A1, Fraction(3, 2), 2) == GaussianRational(0)
    assert xi_moment(A1 ** 2, 1, Fraction(1, 2)) == GaussianRational(Fraction(1, 2))


def test_xi_moment_agrees_with_quadrature_oracle():
    q = (A1 + 1) * (ABAR1 + 2) * A1 + (A1 * A2) ** 2
    s, t = 1.0, 0.75
    direct = complex(xi_moment(q.to_float(), s, t))
    est = oracle.quad_gauss_moment(q, MeasureSpec.xi(s, t), q.degree() // 2 + 1)
    assert direct == pytest.approx(complex(est.value), rel=1e-12, abs=1e-12)


def test_xi_moment_validates_parameters():
    with pytest.raises(ValueError):
        xi_moment(A1, 1, 2)
    with pytest.raises(ValueError):
        xi_moment(A1, 1, 0)


def test_xi_moment_exactness_does_not_depend_on_call_order():
    # float and exact parameters of equal value: E[a^2 abar^2] = 2 s^2 + (s - t)^2
    q = A1 ** 2 * ABAR1 ** 2
    s, t = Fraction(5, 4), Fraction(1, 2)
    assert xi_moment(q.to_float(), float(s), float(t)) == 59 / 16
    exact = xi_moment(q, s, t)
    assert isinstance(exact, GaussianRational)
    assert exact == GaussianRational(Fraction(59, 16))
    again = xi_moment(q.to_float(), float(s), float(t))
    assert isinstance(again, complex) and again == 59 / 16


# ---------------------------------------------------------------------------
# gamma


def test_gamma_moment_second_moment_is_e_to_T():
    # the analytic route gives exactly exp(T); the quadrature oracle agrees,
    # pinning the normalization (a doubled value would break unitarity too)
    for T in (0.5, 1.0, 2.0):
        direct = complex(gamma_moment(A1 * ABAR1, T))
        assert direct.real == pytest.approx(math.exp(T), rel=1e-14)
        assert direct.imag == 0
        est = oracle.quad_gauss_moment(A1 * ABAR1, MeasureSpec.gamma(T), 3)
        assert complex(est.value) == pytest.approx(direct, rel=1e-12)


def test_gamma_moment_examples():
    assert complex(gamma_moment(A1 ** 2, 1.0)) == pytest.approx(1.0, rel=1e-14)
    assert gamma_moment(ABAR1, 2.0) == 0
    assert gamma_moment(CxPoly.constant(1), 0.3) == pytest.approx(1.0)


def test_gamma_is_xi_at_shifted_parameters():
    # gamma_T coincides with xi at (s, t) = (e^T, e^T - 1)
    q = A1 ** 2 * ABAR1 ** 2 + A1 * ABAR1 + 2
    T = 0.8
    a = complex(gamma_moment(q.to_float(), T))
    b = complex(xi_moment(q.to_float(), math.exp(T), math.exp(T) - 1))
    assert a == pytest.approx(b, rel=1e-13)


def test_gamma_matches_dilated_xi():
    rng = seeded_rng(32)
    for T in (0.4, 1.1):
        for _ in range(3):
            p = random_real_poly(rng, k=2, degree=3, terms=4)
            q = holomorphic_extend(p).to_float()
            integrand = q * q.conjugate()
            a = complex(gamma_moment(integrand, T))
            b = complex(
                xi_moment(integrand.dilate(math.exp(T / 2)), 1.0, 1.0 - math.exp(-T))
            )
            assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# sphere


def test_sphere_moment_examples():
    n = 50
    assert sphere_moment(X1 ** 2, n) == 1
    assert sphere_moment(X1 ** 4, n) == Fraction(3 * n, n + 2)
    assert sphere_moment(X1 ** 2 * X2 ** 2, n) == Fraction(n, n + 2)


def test_sphere_moment_against_monte_carlo_oracle():
    n = 30
    for p in (X1 ** 2, X1 ** 4, X1 ** 2 * X2 ** 2, X1 * X2):
        est = oracle.mc_sphere_moment(p, n, samples=400_000, seed=99)
        ref = float(sphere_moment(p, n))
        assert abs(est.value - ref) <= 4 * max(est.std_error, 1e-12)


def test_sphere_moment_odd_exponent_vanishes():
    assert sphere_moment(X1 ** 3 * X2 ** 2, 12) == 0
    assert sphere_mono_moment((1, 4), 9, 9) == 0


def test_sphere_moment_exact_at_large_n():
    n = 10 ** 6
    assert sphere_moment(X1 ** 4, n) == Fraction(3 * n, n + 2)


def test_sphere_moment_dimension_check():
    with pytest.raises(DimensionError):
        sphere_moment(RealPoly({(1, 1, 1, 1): 1}), 3)


def test_sphere_general_radius():
    # radius-b moments scale by b^degree
    assert sphere_moment(X1 ** 2, 5, Fraction(9)) == Fraction(9, 5)


# ---------------------------------------------------------------------------
# quadric


def test_quadric_moment_eigenvector_chain():
    for n, T in [(5, 0.5), (10, 1.0), (25, 2.0)]:
        got = quadric_moment(A1 * ABAR1, n, T)
        assert got.real == pytest.approx(math.exp(T * (n - 1) / n), rel=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-13)
        assert quadric_moment(A1 ** 2, n, T).real == pytest.approx(1.0, rel=1e-12)
        assert quadric_moment(CxPoly.constant(1), n, T) == pytest.approx(1.0)


def test_quadric_moment_matches_direct_route():
    q = A1 ** 2 * ABAR1 + A2 * ABAR1 ** 2 + A1 * ABAR1 - 3
    for n in (5, 8):
        fast = quadric_moment(q, n, 0.7)
        slow = quadric_moment_direct(q, n, 0.7)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-11)


def test_quadric_moment_dimension_check():
    with pytest.raises(DimensionError):
        quadric_moment(A1 * A2, 2, 1.0)


def test_quadric_moment_converges_to_gamma():
    q = A1 ** 2 * ABAR1 ** 2
    T = 0.6
    limit = complex(gamma_moment(q, T))
    prev = None
    for n in (10, 100, 1000):
        err = abs(quadric_moment(q, n, T) - limit)
        if prev is not None:
            assert err < prev / 5  # roughly first-order decay
        prev = err


# ---------------------------------------------------------------------------
# shared properties


def test_all_families_are_probability_measures():
    one_r = RealPoly.constant(1)
    one_c = CxPoly.constant(1)
    assert gaussian_moment(one_r, Fraction(1, 2)) == 1
    assert xi_moment(one_c, 1, 1) == GaussianRational(1)
    assert complex(gamma_moment(one_c, 1.0)) == pytest.approx(1.0)
    assert sphere_moment(one_r, 6) == 1
    assert quadric_moment(one_c, 6, 1.0) == pytest.approx(1.0)


def test_odd_symmetry_annihilation():
    assert gaussian_moment(X1 ** 3, 1) == 0
    assert xi_moment(A1 ** 2 * ABAR1, 1, 1) == GaussianRational(0)
    assert complex(gamma_moment(A1 ** 3 * ABAR1 ** 2, 1.0)) == 0
    assert sphere_moment(X1 * X2 ** 2, 8) == 0


def test_moments_ignore_ambient_variable_count():
    # a polynomial of the first variable integrates identically however many
    # ambient coordinates the measure formally carries
    p_narrow = RealPoly({(2,): 1})
    p_wide = RealPoly({(2, 0, 0): 1})
    assert gaussian_moment(p_narrow, 1) == gaussian_moment(p_wide, 1)
    assert xi_moment(holomorphic_extend(p_narrow), 1, 1) == xi_moment(
        holomorphic_extend(p_wide), 1, 1
    )


def test_inner_product_examples():
    n = 12
    assert inner_product(X1, X1, MeasureSpec.sphere(n)) == 1
    T = 0.9
    val = inner_product(A1.to_float(), A1.to_float(), MeasureSpec.gamma(T))
    assert complex(val).real == pytest.approx(math.exp(T), rel=1e-13)
    q = A1 ** 2 + 2
    assert inner_product(q, CxPoly.constant(1), MeasureSpec.xi(1, 1)) == xi_moment(q, 1, 1)


def test_inner_product_hermitian_and_positive():
    q1 = (A1 ** 2 - A2).to_float()
    q2 = (A1 + 3).to_float()
    spec = MeasureSpec.gamma(0.7)
    a = complex(inner_product(q1, q2, spec))
    b = complex(inner_product(q2, q1, spec))
    assert a == pytest.approx(b.conjugate(), rel=1e-12)
    assert complex(inner_product(q1, q1, spec)).real > 0


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec.gauss(0)
    with pytest.raises(ValueError):
        MeasureSpec.xi(1, 2)
    with pytest.raises(ValueError):
        MeasureSpec.gamma(-1)
    with pytest.raises(ValueError):
        MeasureSpec.sphere(1)
    with pytest.raises(ValueError):
        MeasureSpec.quadric(4, 0)


@pytest.mark.parametrize("call", [
    lambda: sphere_moment(X1 ** 2, 5, -1),
    lambda: sphere_moment(X1 ** 2, 5, 0),
    lambda: gamma_moment(A1 * ABAR1, math.nan),
    lambda: gamma_moment(A1 * ABAR1, math.inf),
    lambda: MeasureSpec.gamma(math.nan),
    lambda: MeasureSpec.sphere(5, math.nan),
    lambda: Limit(math.nan),
    lambda: Sphere(5, math.inf),
], ids=["sphere-b2-negative", "sphere-b2-zero", "gamma-T-nan", "gamma-T-inf",
        "spec-gamma-nan", "spec-sphere-b2-nan", "limit-T-nan", "sphere-T-inf"])
def test_every_parameter_must_be_positive_and_finite(call):
    with pytest.raises(ValueError):
        call()


def test_complex_gaussian_moment_overflow_raises():
    # E[a^3 abar] = 3 e^T overflows at T = 709, though e^T itself fits; the
    # moment read (inf+nanj), and the difference of two such terms (nan+nanj)
    for q in (A1 ** 3 * ABAR1, A1 ** 3 * ABAR1 - A1 * ABAR1 ** 3):
        with pytest.raises(OverflowError):
            gamma_moment(q, 709.0)


def test_moments_are_exact_only_for_exact_input_and_rational_parameters():
    # a float input integrates as the exact sum at its binary values, rounded once
    p = RealPoly({(4,): 0.3, (2, 2): 0.7, (): -0.1}, "float")
    exact = RealPoly({a: Fraction(c) for a, c in p.terms.items()})
    for t in (1, 0.37, Fraction(7, 3)):
        value = gaussian_moment(p, t)
        assert type(value) is float
        assert value == float(gaussian_moment(exact, Fraction(t)))
    assert gaussian_moment(p, 1) == 1.5  # the exact sum is 1.49999999999999991673...
    value = sphere_moment(exact, 9, 2.5)
    assert type(value) is float
    assert value == float(sphere_moment(exact, 9, Fraction(5, 2)))
    assert type(sphere_moment(exact, 9, Fraction(5, 2))) is Fraction


def test_moment_dispatcher_matches_direct_calls():
    p = X1 ** 2
    q = A1 * ABAR1
    assert moment(MeasureSpec.gauss(1), p) == gaussian_moment(p, 1)
    assert moment(MeasureSpec.sphere(9), p) == sphere_moment(p, 9)
    assert moment(MeasureSpec.gamma(1.0), q) == gamma_moment(q, 1.0)


def test_sphere_moments_converge_to_gaussian_first_order_up_to_degree_8():
    # scaled errors stay bounded and settle to a finite constant, the
    # signature of exact first-order decay (constant ~1260 for x1^8)
    for p in (X1 ** 4, X1 ** 6, X1 ** 8, X1 ** 4 * X2 ** 4, X1 ** 2 * X2 ** 2):
        limit = gaussian_moment(p, 1)
        scaled = [abs(sphere_moment(p, n) - limit) * n for n in (10, 100, 1000, 10000)]
        assert max(scaled) < 1500
        assert float(scaled[-1]) == pytest.approx(float(scaled[-2]), rel=0.05)


def test_quadric_routes_agree_through_collision_fallback():
    # mod-square-style integrand of bidegree (4, 4) at ambient dimension 5,
    # where the bidegree matrix of gamma_n has colliding degree blocks: the
    # direct route flows its a and abar groups separately, the kernel route
    # reads the sphere flow; they must agree regardless
    q = ((A1 + 1) ** 2 * (A2 + 2) ** 2).mod_square()
    fast = quadric_moment(q, 5, 0.6)
    slow = quadric_moment_direct(q, 5, 0.6)
    assert fast == pytest.approx(slow, rel=1e-9)


def test_gamma_dilation_identity_on_mixed_polynomials():
    # holds for arbitrary integrands, not only mod squares
    T = 0.9
    q = (A1 ** 3 * ABAR1 + 2 * A1 * ABAR1 ** 3 + A2 ** 2).to_float() - (
        A1 * ABAR1
    ).to_float().scale(1j)
    a = complex(gamma_moment(q, T))
    b = complex(xi_moment(q.dilate(math.exp(T / 2)), 1.0, 1.0 - math.exp(-T)))
    assert a == pytest.approx(b, rel=1e-12)


def test_quadric_moment_satisfies_generator_derivative_identity():
    # d/dT of the moment equals 1/n times the moment of the flowed generator
    # image; checked by central differences, an ODE-level cross-check that is
    # independent of both computational routes
    from sbtlab.diffops import gamma_n_op

    n = 6
    q = (A1 + 1).mod_square() * (A2.mod_square() + 1)
    t0, h = 0.8, 1e-5
    lhs = (
        complex(quadric_moment(q, n, t0 + h)) - complex(quadric_moment(q, n, t0 - h))
    ) / (2 * h)
    rhs = complex(quadric_moment(gamma_n_op(n).apply(q), n, t0)) / n
    assert lhs == pytest.approx(rhs, rel=1e-8)


@st.composite
def _real_polys(draw, max_width=3, max_exponent=4):
    exps = st.lists(st.integers(0, max_exponent), min_size=0, max_size=max_width).map(tuple)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return RealPoly(draw(st.dictionaries(exps, coeffs, max_size=6)))


@st.composite
def _quadric_integrands(draw):
    """A general (not only mod-square) integrand in at most 3 variables."""
    exps = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)
    coeffs = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
    return CxPoly(draw(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5)))


@settings(max_examples=60, deadline=None)
@given(_quadric_integrands(), st.lists(_quadric_integrands(), max_size=4),
       st.sampled_from([(5, 0.3), (9, 0.8), (12, 1.7)]))
def test_quadric_moment_and_norm_do_not_depend_on_earlier_calls(q, earlier, nT):
    # every value is built per call from its own monomials, so a moment or a
    # norm computed fresh is bitwise the same after any other moments at the
    # same (n, T)
    n, T = nT
    f = holomorphic_extend(random_real_poly(seeded_rng(len(earlier)), k=3, degree=4))
    spec = MeasureSpec.quadric(n, T)
    semigroup._group_flows.clear()
    fresh = (quadric_moment(q, n, T), norm2(spec, f))
    for other in earlier:
        quadric_moment(other, n, T)
        norm2(spec, holomorphic_extend(RealPoly({a: 1 for a, _ in other.terms})))
    assert (quadric_moment(q, n, T), norm2(spec, f)) == fresh
    assert fresh[0] == pytest.approx(quadric_moment_direct(q, n, T), rel=1e-12, abs=1e-12)
    square = f.mod_square()
    direct = quadric_moment_direct(square, n, T)
    assert abs(quadric_moment(square, n, T) - direct) <= 1e-12 * abs(direct)


def test_quadric_moments_and_norms_under_concurrent_threads():
    # eight threads at a 1 us switch interval read and fill the shared flow
    # memos at once; every value is bitwise the serial one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    n, T = 11, 0.55
    spec = MeasureSpec.quadric(n, T)
    rng = seeded_rng(43)
    polys = [holomorphic_extend(random_real_poly(rng, k=3, degree=4, terms=4)) for _ in range(24)]

    def both(f):
        return quadric_moment(f.mod_square(), n, T), norm2(spec, f)

    semigroup._group_flows.clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = [fut.result(timeout=60) for fut in [pool.submit(both, f) for f in polys]]
    finally:
        sys.setswitchinterval(switch)
    semigroup._group_flows.clear()
    assert values == [both(f) for f in polys]


def test_sphere_gap_of_x1_40_does_not_depend_on_earlier_degrees():
    # x1^40 at (n, T) = (5, 1) gives one gap in a fresh process and the same
    # gap after x1^10, x1^20 and x1^30 have been checked in this one
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sbtlab
    from sbtlab.transforms import Sphere, unitarity_report

    src = str(Path(sbtlab.__file__).resolve().parent.parent)
    code = ("from sbtlab import *; "
            "print(repr(unitarity_report(RealPoly({(40,): 1}), Sphere(5, 1.0)).rel_error))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    fresh = float(out.stdout)
    for m in (10, 20, 30):
        unitarity_report(RealPoly({(m,): 1}), Sphere(5, 1.0))
    assert unitarity_report(RealPoly({(40,): 1}), Sphere(5, 1.0)).rel_error == fresh
    assert math.isfinite(fresh)


# ---------------------------------------------------------------------------
# squared norms against the moment of the square


def _domain_specs():
    return (MeasureSpec.gauss(1), MeasureSpec.gauss(Fraction(7, 3)), MeasureSpec.gauss(0.37),
            MeasureSpec.sphere(4), MeasureSpec.sphere(25), MeasureSpec.sphere(6, Fraction(7, 3)),
            MeasureSpec.sphere(9, 2.5))


def _range_cases(p, n, T):
    from sbtlab.transforms import euclidean_sbt, limit_sbt, sphere_sbt

    # each case: the measure, f, and an exact measure of the same moments
    # (None for the quadric); gamma(T) has the covariances (1, e^T) of xi(e^T, e^T - 1)
    t = -math.expm1(-T)
    e = Fraction(math.exp(T))
    return ((MeasureSpec.xi(1.0, t), euclidean_sbt(p, 1.0, t),
             MeasureSpec.xi(Fraction(1), Fraction(t))),
            (MeasureSpec.xi(2.5, T), euclidean_sbt(p, 2.5, T),
             MeasureSpec.xi(Fraction(2.5), Fraction(T))),
            (MeasureSpec.gamma(T), limit_sbt(p, T), MeasureSpec.xi(e, e - 1)),
            (MeasureSpec.quadric(n, T), sphere_sbt(p, n, T), None))


def _exact(f: CxPoly) -> CxPoly:
    """f with each float coefficient lifted to the Gaussian rational of equal value."""
    return CxPoly({key: GaussianRational(Fraction(c.real), Fraction(c.imag))
                   for key, c in f.terms.items()})


def _assert_range_norms_match(p, n, T):
    # against the exact moment of |f|^2 where one exists: the float moment of
    # the float |f|^2 can be further from the exact value than norm2 is
    for spec, f, exact_spec in _range_cases(p, n, T):
        if exact_spec is None:
            reference = complex(moment(spec, f.mod_square())).real
        else:
            reference = float(moment(exact_spec, _exact(f).mod_square()).re)
        assert abs(norm2(spec, f) - reference) <= 1e-14 * abs(reference), spec


def test_norm2_matches_the_moment_of_the_square_on_the_acceptance_suite():
    for _, p in acceptance_suite():
        for spec in _domain_specs():
            assert norm2(spec, p) == float(moment(spec, p * p)), spec
        for T in (0.1, 0.5, 1.0, 2.0):
            for n in (5, 10, 25, 50):
                _assert_range_norms_match(p, n, T)


@settings(max_examples=80, deadline=None)
@given(_real_polys(), st.integers(4, 30), st.floats(0.1, 2.0))
# the float moment of |f|^2 under xi(2.5, T) is 1.19e-14 off the exact value here
@example(RealPoly({(4, 4, 4): 1}), 4, 0.484375)
def test_norm2_matches_the_moment_of_the_square(p, n, T):
    for spec in _domain_specs():
        assert norm2(spec, p) == float(moment(spec, p * p)), spec
    _assert_range_norms_match(p, n, T)


def test_norm2_of_float_input_is_the_exact_sum_rounded_once():
    p = RealPoly({(3,): 0.3, (1, 2): 1.7, (0, 4): -0.1}, "float")
    exact = RealPoly({a: Fraction(c) for a, c in p.terms.items()})
    for spec in _domain_specs():
        assert norm2(spec, p) == float(moment(spec, exact * exact))


def test_norm2_checks_its_input():
    with pytest.raises(TypeError):
        norm2(MeasureSpec.gauss(1), A1)
    with pytest.raises(TypeError):
        norm2(MeasureSpec.gamma(1.0), X1)
    with pytest.raises(HolomorphicityError):
        norm2(MeasureSpec.xi(1, 1), A1 * ABAR1)
    with pytest.raises(DimensionError):
        norm2(MeasureSpec.sphere(2), X1 * X2 * RealPoly.variable(2))
    with pytest.raises(DimensionError):
        norm2(MeasureSpec.quadric(2, 1.0), A1 * A2)
    assert norm2(MeasureSpec.quadric(5, 1.0), CxPoly.zero()) == 0.0
    assert norm2(MeasureSpec.sphere(5), RealPoly.zero()) == 0.0
