from fractions import Fraction

import numpy as np
import pytest

from sbtlab import diffops, measures, transforms
from sbtlab.diffops import (
    EULER,
    G_K,
    HERMITE,
    LAPLACIAN,
    DimensionError,
    euler_op,
    g_uv_op,
    gamma_n_op,
    jsq_a_op,
    jsq_abar_op,
    laplacian_op,
    spherical_laplacian_op,
)
from sbtlab.polyalg import EXACT, FLOAT, CxPoly, RealPoly, coeff_distance
from sbtlab.oracle import mc_sphere_moment
from sbtlab.semigroup import exp_graded
from sbtlab.suite import random_real_poly

from conftest import seeded_rng, sympy_hermite, sympy_sphere_laplacian

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)
A1 = CxPoly.a(0)
ABAR1 = CxPoly.abar(0)


def test_laplacian_examples():
    assert LAPLACIAN.apply(X1 ** 2) == RealPoly.constant(2)
    assert LAPLACIAN.apply(X1 ** 4) == 12 * X1 ** 2
    assert LAPLACIAN.apply(X1 * X2).is_zero()


def test_euler_examples():
    assert EULER.apply(X1 ** 2) == 2 * X1 ** 2
    assert EULER.apply(RealPoly.constant(7)).is_zero()
    assert EULER.apply(X1 + X2 ** 3) == X1 + 3 * X2 ** 3


def test_hermite_examples_against_symbolic_oracle():
    for p, expected in [
        (X1, -X1),
        (X1 ** 2, RealPoly.constant(2) - 2 * X1 ** 2),
        (RealPoly.constant(1), RealPoly.zero()),
    ]:
        assert HERMITE.apply(p) == expected
        assert HERMITE.apply(p) == sympy_hermite(p)


def test_hermite_matches_symbolic_oracle_on_random_inputs():
    rng = seeded_rng(11)
    for _ in range(10):
        p = random_real_poly(rng, k=3, degree=5, terms=5)
        assert HERMITE.apply(p) == sympy_hermite(p)


@pytest.mark.parametrize("n", [4, 10, 100])
def test_spherical_laplacian_examples(n):
    # first-degree eigenvector with the 1/n-corrected eigenvalue
    assert spherical_laplacian_op(n).apply(X1) == X1.scale(-Fraction(n - 1, n))
    # the degree-2 correction vanishes, so the value matches the limit operator
    assert spherical_laplacian_op(n).apply(X1 ** 2) == RealPoly.constant(2) - 2 * X1 ** 2
    assert spherical_laplacian_op(n).apply(RealPoly.constant(1)).is_zero()


def test_spherical_laplacian_matches_angular_momentum_oracle():
    rng = seeded_rng(12)
    for n in (5, 11):
        for _ in range(4):
            p = random_real_poly(rng, k=3, degree=4, terms=4)
            assert spherical_laplacian_op(n).apply(p) == sympy_sphere_laplacian(p, n)


def test_spherical_laplacian_closed_form_identity():
    # laplacian - euler + (1/n)(2 euler - euler^2), exactly, in rational mode
    rng = seeded_rng(13)
    for _ in range(8):
        p = random_real_poly(rng, k=3, degree=5, terms=5)
        n = 9
        e1 = EULER.apply(p)
        expected = LAPLACIAN.apply(p) - e1 + (2 * e1 - EULER.apply(e1)).scale(Fraction(1, n))
        assert spherical_laplacian_op(n).apply(p) == expected


def test_spherical_laplacian_rejects_too_few_dimensions():
    p = RealPoly({(1, 1, 1): 1})
    with pytest.raises(DimensionError):
        spherical_laplacian_op(3).apply(p)


@pytest.mark.parametrize("n", [4, 9])
def test_jsq_a_examples(n):
    assert jsq_a_op(n).apply(A1) == A1.scale(n - 1)
    assert jsq_a_op(n).apply(A1 ** 2) == A1 ** 2 * (2 * n) - CxPoly.constant(2 * n)
    assert jsq_a_op(n).apply(ABAR1).is_zero()
    assert jsq_abar_op(n).apply(ABAR1) == ABAR1.scale(n - 1)


def test_jsq_a_matches_angular_momentum_oracle():
    # the holomorphic generators have the same combinatorics as the real
    # ones, and jsq_a = -n * (sphere operator) monomial for monomial, so the
    # angular-momentum oracle checks the holomorphic side too
    from sbtlab.polyalg import holomorphic_extend

    rng = seeded_rng(14)
    n = 6
    for _ in range(4):
        p = random_real_poly(rng, k=2, degree=4, terms=4)
        oracle_out = sympy_sphere_laplacian(p, n)
        expected = holomorphic_extend(oracle_out.scale(-Fraction(n)))
        assert jsq_a_op(n).apply(holomorphic_extend(p)) == expected


@pytest.mark.parametrize("n", [5, 12])
def test_gamma_examples(n):
    assert gamma_n_op(n).apply(A1 * ABAR1) == (A1 * ABAR1).scale(n - 1)
    assert gamma_n_op(n).apply(A1 ** 2) == (A1 ** 2).scale(n) - CxPoly.constant(n)
    assert gamma_n_op(n).apply(CxPoly.constant(1)).is_zero()


def test_gamma_preserves_holomorphy():
    q = A1 ** 3 + A1 * CxPoly.a(1)
    out = gamma_n_op(8).apply(q)
    assert out.is_holomorphic()
    assert jsq_abar_op(8).apply(q).is_zero()


def test_g_k_examples():
    assert G_K.apply(A1 * ABAR1) == A1 * ABAR1
    assert G_K.apply(A1 ** 2) == A1 ** 2 - 1
    assert G_K.apply(CxPoly.constant(3)).is_zero()


def test_gamma_over_n_converges_to_g_k():
    q = A1 ** 2 * ABAR1 + CxPoly.a(1) * ABAR1 ** 2 - 2 * A1
    limit = G_K.apply(q)
    previous = None
    for n in (10, 100, 1000, 10000):
        diff = coeff_distance(gamma_n_op(n).apply(q).scale(Fraction(1, n)), limit)
        scaled = float(diff) * n
        assert scaled < 10  # error is O(1/n) with a modest constant
        if previous is not None:
            assert float(diff) < previous
        previous = float(diff)


def test_g_uv_matches_complex_form():
    # a = u + iv turns the complexified operator into the quarter-sum form;
    # check on the image of a real polynomial evaluated over sample points
    from sbtlab.polyalg import holomorphic_extend

    p = RealPoly({(2,): 1, (1,): -3})  # polynomial in u_1 only
    out = g_uv_op(1).apply(p)
    expected = (
        -laplacian_op((0,)).apply(p) + 2 * euler_op((0,)).apply(p)
    ).scale(Fraction(1, 4))
    assert out == expected


def _images(op, k, l) -> dict:
    """op.apply of each monomial of the graded (k, l) basis, exactly: the columns of op's matrix."""
    return {key: op.apply(op.family({key: 1}))
            for key in diffops.basis_keys(k, l, op.family is CxPoly)}


def _commutator(a, b, m):
    return a.apply(b.apply(m)) - b.apply(a.apply(m))


def test_to_matrix_examples():
    eul = _images(diffops.EULER, 1, 2)
    assert eul == {(): RealPoly(), (1,): X1, (2,): 2 * X1 ** 2}

    lap = _images(diffops.LAPLACIAN, 1, 2)
    assert lap == {(): RealPoly(), (1,): RealPoly(), (2,): RealPoly.constant(2)}

    herm = _images(diffops.HERMITE, 1, 2)
    assert herm == {key: lap[key] - eul[key] for key in lap}


def test_matrix_is_block_triangular_by_degree():
    # each image keeps or lowers the degree, and its top-degree part is the
    # monomial itself times its Euler eigenvalue
    for key, image in _images(diffops.spherical_laplacian_op(6), 2, 4).items():
        for beta in image.terms:
            assert sum(beta) < sum(key) or beta == key


def test_commutator_euler_laplacian_exact():
    for key, lap in _images(diffops.LAPLACIAN, 2, 4).items():
        assert _commutator(diffops.EULER, diffops.LAPLACIAN, RealPoly({key: 1})) == lap.scale(-2)


def test_commutator_self_and_bilinearity():
    for key, lap in _images(diffops.LAPLACIAN, 2, 4).items():
        m = RealPoly({key: 1})
        assert _commutator(diffops.EULER, diffops.EULER, m).is_zero()
        assert _commutator(diffops.EULER, diffops.HERMITE, m) == lap.scale(-2)


@pytest.mark.parametrize("n", [np.int64(5), np.int32(5), 5], ids=["int64", "int32", "int"])
def test_ambient_dimension_accepts_any_integer_type(n):
    # a numpy integer is an integer n; a float n, even 5.0, is not
    p = X1 ** 2
    spec = measures.MeasureSpec.sphere(n)
    assert spec.n == 5 and type(spec.n) is int
    assert measures.sphere_moment(p, n) == measures.sphere_moment(p, 5) == 1
    estimates = [mc_sphere_moment(p, m, samples=1000, seed=3) for m in (n, 5)]
    assert estimates[0] == estimates[1]
    assert transforms.Sphere(n, 1.0).apply(p) == transforms.Sphere(5, 1.0).apply(p)
    assert spherical_laplacian_op(n).n == 5
    makers = (measures.MeasureSpec.sphere, lambda m: transforms.Sphere(m, 1.0),
              spherical_laplacian_op, gamma_n_op)
    for bad in (float(n), np.float64(n), 2.5):
        for make in makers:
            with pytest.raises(ValueError, match="integer ambient dimension"):
                make(bad)


def test_jsq_rejects_small_ambient_dimension():
    q = A1 * CxPoly.a(1) * CxPoly.a(2)
    with pytest.raises(DimensionError):
        jsq_a_op(3).apply(q)
    with pytest.raises(DimensionError):
        gamma_n_op(2).apply(q)


def test_operator_constructors_check_their_parameters():
    for make in (spherical_laplacian_op, jsq_a_op, jsq_abar_op, gamma_n_op):
        with pytest.raises(ValueError):
            make(0)
    with pytest.raises(ValueError):
        g_uv_op(0)
    assert laplacian_op([0, 2]) == laplacian_op((0, 2))


def test_generators_check_their_domain():
    with pytest.raises(TypeError):
        HERMITE.apply(A1)
    with pytest.raises(TypeError):
        G_K.apply(X1)
    # a sum keeps the smaller ambient dimension, a multiple keeps its own
    assert (spherical_laplacian_op(9) + HERMITE).n == 9
    assert (2 * jsq_a_op(6)).n == 6
    both = spherical_laplacian_op(9) + spherical_laplacian_op(4)
    assert both.n == 4
    wide = X1 * X2 * RealPoly.variable(2) * RealPoly.variable(3)
    with pytest.raises(DimensionError):
        both.apply(wide)
    narrow = X1 * X2 * RealPoly.variable(2)
    assert both.apply(narrow) == spherical_laplacian_op(9).apply(narrow) + (
        spherical_laplacian_op(4).apply(narrow))


def test_apply_mode_follows_the_generator_coefficients():
    # rational groups act exactly on exact input; a float group coefficient
    # gives a float-mode result, as exp_graded does
    p = RealPoly.variable(0) ** 2
    exact = HERMITE.apply(p)
    assert exact.mode == EXACT and exact == RealPoly({(): 2, (2,): -2})
    scaled = (0.1 * HERMITE).apply(p)
    assert scaled.mode == FLOAT
    assert coeff_distance(scaled, exact.to_float().scale(0.1)) <= 1e-16
    assert exp_graded(0.1 * HERMITE, 1.0, p).mode == FLOAT
    q = CxPoly.a(0) * CxPoly.abar(0)
    assert (0.5 * G_K).apply(q) == G_K.apply(q).to_float().scale(0.5)
