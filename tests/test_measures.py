import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbtlab import diffops, measures, oracle, semigroup
from sbtlab.diffops import DimensionError
from sbtlab.measures import (
    MeasureSpec,
    _flow_form,
    gamma_moment,
    gaussian_moment,
    inner_product,
    moment,
    norm2,
    quadric_moment,
    sphere_moment,
    xi_moment,
)
from sbtlab.polyalg import (
    CxPoly,
    GaussianRational,
    HolomorphicityError,
    RealPoly,
    _integer_form,
    holomorphic_extend,
)
from sbtlab.suite import acceptance_suite, random_real_poly
from sbtlab.transforms import Limit, Sphere

from conftest import complex_gaussian_moment_reference, quadric_moment_reference, seeded_rng

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
    assert sphere_moment(X1 * X2 ** 4, 9) == 0


def test_sphere_moment_exact_at_large_n():
    n = 10 ** 6
    assert sphere_moment(X1 ** 4, n) == Fraction(3 * n, n + 2)


def test_sphere_moment_dimension_check():
    with pytest.raises(DimensionError):
        sphere_moment(RealPoly({(1, 1, 1, 1): 1}), 3)


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
        slow = quadric_moment_reference(q, n, 0.7)
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


@pytest.mark.parametrize("q, n, T, re, im", [
    (A1 ** 2 * ABAR1 + A2 * ABAR1 ** 2 + A1 * ABAR1 - 3, 5, 0.7,
     "-0x1.3fd3ed5138c11p+0", "0x0.0p+0"),
    # quadric_moment_reference rounded
    (((A1 + 1) ** 2 * (A2 + 2) ** 2).mod_square(), 5, 0.6, "0x1.518915ff3af55p+9", "0x0.0p+0"),
    (CxPoly({((1, 0, 1), (3, 2, 3)): GaussianRational(0, 1),
             ((2, 1), (0, 1)): GaussianRational(Fraction(1, 3), -2),
             ((1,), (1,)): GaussianRational(Fraction(-3, 4), Fraction(5, 2))}), 12, 1.7,
     "-0x1.1a56c81c42240p+1", "0x1.2450374a68c65p+6"),
    # E[a1^2] is 1; the float backward flow loses the constant under e^T (x1^2 - 1)
    (A1 ** 2, 5, 20.0, "0x1.0000020000000p+0", "0x0.0p+0"),
], ids=["mixed-5-0.7", "mod-square-5-0.6", "gaussian-12-1.7", "a1sq-5-20"])
def test_quadric_moments_are_pinned_bit_for_bit(q, n, T, re, im):
    # the quadric shares its moment routine with xi and gamma; these bits
    # were taken before the share and must not move
    value = quadric_moment(q, n, T)
    assert (value.real.hex(), value.imag.hex()) == (re, im)


# known wrong answers (ROADMAP item 2), strict: a fix that makes one pass is reported


@pytest.mark.xfail(reason="the float backward flow loses digits at n = k + 1")
def test_general_quadric_moment_at_small_n_is_accurate():
    # relative error 9.05e-11
    q = CxPoly({((1, 1, 1), (3, 3, 1)): 1})
    want = quadric_moment_reference(q, 4, 2)
    assert abs(complex(quadric_moment(q, 4, 2)) - want) <= 1e-14 * abs(want)


@pytest.mark.xfail(reason="the float backward flow loses the constant under e^T")
def test_quadric_moment_of_a1_squared_is_one_at_large_T():
    # E[a1^2] = 1 at every (n, T); this returns 32
    assert abs(complex(quadric_moment(A1 ** 2, 5, 40.0)) - 1) <= 1e-12


# ---------------------------------------------------------------------------
# general complex Gaussian moments against the pairing-count reference


_SIDE = st.lists(st.integers(0, 4), max_size=3).map(tuple).filter(lambda a: sum(a) <= 6)


@st.composite
def _complex_integrands(draw):
    """A general integrand: non-holomorphic, non-Hermitian, width <= 3, degree <= 6 per side."""
    part = st.fractions(-3, 3, max_denominator=5)
    coeffs = st.builds(GaussianRational, part, part).filter(bool)
    return CxPoly(draw(st.dictionaries(st.tuples(_SIDE, _SIDE), coeffs, min_size=1, max_size=8)))


def _moment_scale(q: CxPoly, c2, g2) -> float:
    """sum |c_ab| |E[a^alpha abar^beta]|: the size a rounded moment is measured against."""
    return sum(abs(complex(c)) * abs(complex(complex_gaussian_moment_reference(
        CxPoly({key: GaussianRational(1)}), c2, g2))) for key, c in q.terms.items())


@settings(max_examples=100, deadline=None)
@given(_complex_integrands(), st.fractions(Fraction(1, 8), 3, max_denominator=8),
       st.fractions(Fraction(1, 20), Fraction(39, 20), max_denominator=20))
@example(CxPoly({((3, 1), (1, 3)): GaussianRational(2, -1), ((2,), ()): GaussianRational(0, 1)}),
         Fraction(1), Fraction(3, 2))
def test_exact_xi_moment_is_the_pairing_count_exactly(q, s, ratio):
    # t = ratio * s in (0, 2s), so E[a^2] = s - t takes both signs
    value = xi_moment(q, s, ratio * s)
    assert isinstance(value, GaussianRational)
    assert value == complex_gaussian_moment_reference(q, s - ratio * s, s)


@settings(max_examples=100, deadline=None)
@given(_complex_integrands(), st.floats(0.05, 3.0), st.floats(0.5, 3.0), st.floats(0.05, 1.95))
def test_float_complex_gaussian_moments_are_within_rounding_of_the_exact_sum(q, T, s, ratio):
    # the reference is taken at the floats' binary values: the float
    # coefficients and the covariances the spec supplies
    q = q.to_float()
    for spec in (MeasureSpec.gamma(T), MeasureSpec.xi(s, ratio * s)):
        value = moment(spec, q)
        assert type(value) is complex
        reference = complex_gaussian_moment_reference(q, *spec.covariances())
        gap = abs(complex(float(Fraction(value.real) - reference.re),
                          float(Fraction(value.imag) - reference.im)))
        assert gap <= 1e-14 * _moment_scale(q, *spec.covariances()), spec


@pytest.mark.parametrize("p, T, re", [
    (X1 ** 2 + X2 + Fraction(1, 2), 1.0, "0x1.3bf13adccf9c4p+4"),
    (X1 ** 2 + X2, 0.7, "0x1.63f90ef5afca9p+3"),
    (X1 ** 3 + 2 * X1 * X2 - Fraction(1, 2), 1.0, "0x1.5d916623d3cc4p+7"),
], ids=["verify-integrand", "modsq-0.7", "modsq-cubic-1"])
def test_gamma_moments_of_mod_squares_are_the_pairing_count_rounded(p, T, re):
    # the integrands of verify's quadrature-vs-gamma line and of two
    # converge reference columns: every part of the moment is rounded once,
    # so each is the exact pairing count at e^T's binary value, rounded
    q = holomorphic_extend(p).mod_square()
    value = gamma_moment(q, T)
    reference = complex_gaussian_moment_reference(q, *MeasureSpec.gamma(T).covariances())
    assert (value.real, value.imag) == (float(reference.re), float(reference.im)) == (
        float.fromhex(re), 0.0)


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
    lambda: gamma_moment(A1 * ABAR1, math.nan),
    lambda: gamma_moment(A1 * ABAR1, math.inf),
    lambda: MeasureSpec.gamma(math.nan),
    lambda: Limit(math.nan),
    lambda: Sphere(5, math.inf),
], ids=["gamma-T-nan", "gamma-T-inf", "spec-gamma-nan", "limit-T-nan", "sphere-T-inf"])
def test_every_parameter_must_be_positive_and_finite(call):
    with pytest.raises(ValueError):
        call()


def test_complex_gaussian_moment_overflow_raises():
    # E[a^3 abar] = 3 e^T overflows at T = 709, though e^T itself fits: the
    # integer sum is 3 e^709, too large for the one division that rounds it.
    # E[a abar^3] is 3 e^709 too, so their difference is exactly 0, which fits
    with pytest.raises(OverflowError):
        gamma_moment(A1 ** 3 * ABAR1, 709.0)
    value = gamma_moment(A1 ** 3 * ABAR1 - A1 * ABAR1 ** 3, 709.0)
    assert (value.real, value.imag) == (0.0, 0.0)


def test_moments_are_exact_only_for_exact_input_and_rational_parameters():
    # a float input integrates as the exact sum at its binary values, rounded once
    p = RealPoly({(4,): 0.3, (2, 2): 0.7, (): -0.1}, "float")
    exact = RealPoly({a: Fraction(c) for a, c in p.terms.items()})
    for t in (1, 0.37, Fraction(7, 3)):
        value = gaussian_moment(p, t)
        assert type(value) is float
        assert value == float(gaussian_moment(exact, Fraction(t)))
    assert gaussian_moment(p, 1) == 1.5  # the exact sum is 1.49999999999999991673...


def test_exact_zero_moments_keep_the_type_of_their_input():
    # an odd integrand integrates to 0: a Fraction for exact input under a
    # rational measure, a float for its float image
    p = X1 ** 3 + X1 * X2
    for q, kind in ((p, Fraction), (p.to_float(), float)):
        for value in (gaussian_moment(q, Fraction(1, 3)), gaussian_moment(q, 2),
                      sphere_moment(q, 5)):
            assert value == 0 and type(value) is kind


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


def test_quadric_moment_at_colliding_gamma_n_eigenvalues():
    # mod-square-style integrand of bidegree (4, 4) at ambient dimension 5,
    # where the bidegree matrix of gamma_n has colliding degree blocks: the
    # reference flows its a and abar groups separately, the package reads
    # the sphere flow; they must agree regardless
    q = ((A1 + 1) ** 2 * (A2 + 2) ** 2).mod_square()
    fast = quadric_moment(q, 5, 0.6)
    slow = quadric_moment_reference(q, 5, 0.6)
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
    # independent of the route the moments take
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
# the backward flows cancel most here: 2.2e-14 and 5.0e-13 off the reference
@example(CxPoly({((1, 0, 1), (3, 2, 3)): GaussianRational(0, 1)}), [], (12, 1.7))
@example(CxPoly({((0, 1), (2, 3, 2)): GaussianRational(0, 1)}), [], (12, 1.7))
def test_quadric_moment_and_norm_do_not_depend_on_earlier_calls(q, earlier, nT):
    # every value is built per call from its own monomials, so a moment or a
    # norm computed fresh is bitwise the same after any other moments at the
    # same (n, T)
    n, T = nT
    f = holomorphic_extend(random_real_poly(seeded_rng(len(earlier)), k=3, degree=4))
    spec = MeasureSpec.quadric(n, T)
    semigroup._flow_table.cache_clear()
    fresh = (quadric_moment(q, n, T), norm2(spec, f))
    for other in earlier:
        quadric_moment(other, n, T)
        norm2(spec, holomorphic_extend(RealPoly({a: 1 for a, _ in other.terms})))
    assert (quadric_moment(q, n, T), norm2(spec, f)) == fresh
    assert fresh[0] == pytest.approx(quadric_moment_reference(q, n, T), rel=1e-12, abs=1e-12)
    square = f.mod_square()
    reference = quadric_moment_reference(square, n, T)
    assert abs(quadric_moment(square, n, T) - reference) <= 1e-12 * abs(reference)


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

    semigroup._flow_table.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = [fut.result(timeout=60) for fut in [pool.submit(both, f) for f in polys]]
    finally:
        sys.setswitchinterval(switch)
    semigroup._flow_table.cache_clear()
    assert values == [both(f) for f in polys]


_NORM_SPECS = (MeasureSpec.gauss(1), MeasureSpec.gauss(Fraction(2, 3)), MeasureSpec.gauss(0.7),
               MeasureSpec.sphere(4), MeasureSpec.sphere(9))


def _memo_snapshot(p, specs):
    """p's width, float image and squared norms under specs, in bits and term order."""
    image = p.to_float()
    return (p.width(), [(key, c.hex()) for key, c in image.terms.items()],
            {spec: norm2(spec, p).hex() for spec in specs})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("exact", "float")).flatmap(lambda mode: st.builds(
    RealPoly,
    st.dictionaries(st.lists(st.integers(0, 3), max_size=3).map(tuple),
                    st.fractions(-4, 4, max_denominator=6) | st.just(Fraction(1, 10 ** 400))
                    if mode == "exact"
                    else st.floats(-1e3, 1e3) | st.sampled_from([1e-200, -3e-170]),
                    max_size=6),
    st.just(mode))))
def test_memoized_width_float_image_and_norms_match_a_fresh_copy(p):
    cold = _memo_snapshot(p, _NORM_SPECS)
    warm = _memo_snapshot(p, _NORM_SPECS)
    fresh = _memo_snapshot(RealPoly(p.terms, p.mode), _NORM_SPECS[::-1])
    assert cold == warm == fresh
    assert cold[0] == max(map(len, p.terms), default=0)
    assert cold[1] == [(key, float(c).hex()) for key, c in p.terms.items() if float(c)]
    if p.mode == "exact":
        # the memo-free route: the moment of p * p, rounded once
        assert cold[2] == {spec: float(moment(spec, p * p)).hex() for spec in _NORM_SPECS}


def test_shared_polynomials_fill_their_memos_under_concurrent_threads():
    # eight threads at a 1 us switch interval read and fill the memos of the
    # same cold polynomials at once; every value is bitwise the serial one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = seeded_rng(44)
    terms = [random_real_poly(rng, k=3, degree=6, terms=5).terms for _ in range(16)]
    serial = [_memo_snapshot(RealPoly(t), _NORM_SPECS) for t in terms]
    polys = [RealPoly(t) for t in terms]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda i: _memo_snapshot(polys[i % 16], _NORM_SPECS),
                                   range(128)))
    finally:
        sys.setswitchinterval(switch)
    assert values == [serial[i % 16] for i in range(128)]


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
            MeasureSpec.sphere(4), MeasureSpec.sphere(25))


def _range_cases(p, n, T):
    from sbtlab.transforms import euclidean_sbt, limit_sbt, sphere_sbt

    # each case: the measure, f, and an exact measure of the same moments
    # (None for the quadric); gamma(T) has the covariances (1, e^T) of xi(e^T, e^T - 1);
    # xi(1.0, 1.5) has E[a^2] = s - t < 0, so its Hermite flow runs at a negative time
    t = -math.expm1(-T)
    e = Fraction(math.exp(T))
    return ((MeasureSpec.xi(1.0, t), euclidean_sbt(p, 1.0, t),
             MeasureSpec.xi(Fraction(1), Fraction(t))),
            (MeasureSpec.xi(1.0, 1.5), euclidean_sbt(p, 1.0, 1.5),
             MeasureSpec.xi(Fraction(1), Fraction(3, 2))),
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
            reference = float(complex_gaussian_moment_reference(
                _exact(f).mod_square(), *exact_spec.covariances()).re)
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


@settings(max_examples=120, deadline=None)
@given(_real_polys(), st.fractions(Fraction(1, 8), 3, max_denominator=8),
       st.fractions(Fraction(1, 20), Fraction(39, 20), max_denominator=20))
@example(RealPoly({(2, 1): Fraction(1, 3), (1,): Fraction(-2)}), Fraction(1), Fraction(3, 2))
def test_exact_xi_norm_is_the_exact_moment_of_the_square_rounded_once(p, s, ratio):
    # t = ratio * s in (0, 2s), so E[a^2] = s - t takes both signs; exact F at
    # rational (s, t) flows exactly into its Hermite coefficients
    from sbtlab.transforms import euclidean_sbt

    spec = MeasureSpec.xi(s, ratio * s)
    f = euclidean_sbt(p, s, ratio * s)
    assert f.mode == "exact"
    reference = complex_gaussian_moment_reference(f.mod_square(), *spec.covariances())
    assert norm2(spec, f) == float(reference.re)


@pytest.mark.parametrize("c2, g2", [
    (Fraction(1, 2), 1), (Fraction(-1, 2), 1), (0, 1), (1.0, math.exp(1.0)),
], ids=["xi-1-1/2", "xi-1-3/2", "xi-1-1", "gamma-1"])
def test_hermite_norms_of_powers_have_their_closed_forms(c2, g2):
    # e^{(c2/2) Lap} takes a^2 to a^2 + c2 and a^3 to a^3 + 3 c2 a, so
    # E|a^2|^2 = 2 g2^2 + c2^2 and E|a^3|^2 = 6 g2^3 + 9 c2^2 g2
    spec = MeasureSpec.gamma(1.0) if isinstance(c2, float) else MeasureSpec.xi(g2, g2 - c2)
    assert spec.covariances() == (c2, g2)
    for f, value in ((A1 ** 2, 2 * g2 ** 2 + c2 ** 2), (A1 ** 3, 6 * g2 ** 3 + 9 * c2 ** 2 * g2)):
        if spec.rational:
            assert norm2(spec, f) == float(value)
        else:
            assert norm2(spec, f) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("tag", ["limit", "euclidean"])
def test_dense_range_norm_is_linear_in_the_support(tag):
    # every monomial of degree <= 10 in 5 variables, 3 003 terms: the range
    # norm reads its flow into dicts and sums them in integers, with no
    # terms x terms matrix
    import tracemalloc

    from sbtlab.transforms import Euclidean, Limit

    rng = seeded_rng(61)
    p = RealPoly({key: Fraction(rng.randint(1, 5), rng.randint(1, 4))
                  for key in diffops.basis_keys(5, 10)})
    tag = Limit(0.7) if tag == "limit" else Euclidean(1.0, 0.5)
    f = tag.apply(p)
    domain = norm2(tag.domain, p)
    tracemalloc.start()
    try:
        value = norm2(tag.range, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert abs(value - domain) <= 1e-12 * domain


def test_real_bilinear_form_is_the_moment_of_the_product_rounded_once():
    # the form the quadric reads its sphere sums through, on two different polynomials
    rng = seeded_rng(58)
    for _ in range(20):
        p, q = (random_real_poly(rng, k=3, degree=5) for _ in range(2))
        for spec in _domain_specs():
            form = _flow_form(spec, [(_integer_form(p), _integer_form(q))])
            assert form == float(moment(spec, p * q)), spec


@pytest.mark.parametrize("sphere, x", [
    (True, 2), (True, 5), (True, 7), (True, 10 ** 4),
    (False, 1), (False, Fraction(7, 3)), (False, 0.37),
], ids=["n=2", "n=5", "n=7", "n=10000", "t=1", "t=7/3", "t=0.37"])
def test_radial_table_is_the_radial_weight_exactly(sphere, x):
    # N_m / D is n^m / (n (n + 2) ... (n + 2m - 2)) on the sphere, t^m for the Gaussian
    for top in (0, 5, 12):
        nums, den = measures._radial_table(sphere, x, top)
        assert len(nums) == top + 1
        for m, num in enumerate(nums):
            expected = (Fraction(x ** m, math.prod(x + 2 * i for i in range(m))) if sphere
                        else Fraction(x) ** m)
            assert Fraction(num, den) == expected, (m, top)


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
