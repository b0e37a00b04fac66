from fractions import Fraction

import pytest

from sbtlab import diffops
from sbtlab.diffops import (
    EULER,
    G_K,
    HERMITE,
    LAPLACIAN,
    DimensionError,
    commutator,
    euler_op,
    g_uv_op,
    gamma_n_op,
    jsq_a_op,
    jsq_abar_op,
    laplacian_op,
    spherical_laplacian_op,
    to_matrix,
)
from sbtlab.polyalg import EXACT, FLOAT, CxPoly, RealPoly, coeff_distance
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
    assert spherical_laplacian_op(n, n).apply(X1) == X1.scale(-Fraction(n - 1, n))
    # the degree-2 correction vanishes, so the value matches the limit operator
    assert spherical_laplacian_op(n, n).apply(X1 ** 2) == RealPoly.constant(2) - 2 * X1 ** 2
    assert spherical_laplacian_op(n, Fraction(7, 2)).apply(RealPoly.constant(1)).is_zero()


def test_spherical_laplacian_matches_angular_momentum_oracle():
    rng = seeded_rng(12)
    for n, b2 in [(5, 5), (7, Fraction(3, 2)), (11, 11)]:
        for _ in range(4):
            p = random_real_poly(rng, k=3, degree=4, terms=4)
            assert spherical_laplacian_op(n, b2).apply(p) == sympy_sphere_laplacian(p, n, b2)


def test_spherical_laplacian_closed_form_identity():
    # laplacian - euler + (1/n)(2 euler - euler^2), exactly, in rational mode
    rng = seeded_rng(13)
    for _ in range(8):
        p = random_real_poly(rng, k=3, degree=5, terms=5)
        n = 9
        e1 = EULER.apply(p)
        expected = LAPLACIAN.apply(p) - e1 + (2 * e1 - EULER.apply(e1)).scale(Fraction(1, n))
        assert spherical_laplacian_op(n, n).apply(p) == expected


def test_spherical_laplacian_rejects_too_few_dimensions():
    p = RealPoly({(1, 1, 1): 1})
    with pytest.raises(DimensionError):
        spherical_laplacian_op(3, 3).apply(p)


@pytest.mark.parametrize("n", [4, 9])
def test_jsq_a_examples(n):
    assert jsq_a_op(n, n).apply(A1) == A1.scale(n - 1)
    assert jsq_a_op(n, n).apply(A1 ** 2) == A1 ** 2 * (2 * n) - CxPoly.constant(2 * n)
    assert jsq_a_op(n, n).apply(ABAR1).is_zero()
    assert jsq_abar_op(n, n).apply(ABAR1) == ABAR1.scale(n - 1)


def test_jsq_a_matches_angular_momentum_oracle():
    # the holomorphic generators have the same combinatorics as the real
    # ones, and jsq_a = -b2 * (sphere operator) monomial for monomial, so the
    # angular-momentum oracle checks the holomorphic side too
    from sbtlab.polyalg import holomorphic_extend

    rng = seeded_rng(14)
    n = 6
    for _ in range(4):
        p = random_real_poly(rng, k=2, degree=4, terms=4)
        oracle_out = sympy_sphere_laplacian(p, n, n)
        expected = holomorphic_extend(oracle_out.scale(-Fraction(n)))
        assert jsq_a_op(n, n).apply(holomorphic_extend(p)) == expected


@pytest.mark.parametrize("n", [5, 12])
def test_gamma_examples(n):
    assert gamma_n_op(n, n).apply(A1 * ABAR1) == (A1 * ABAR1).scale(n - 1)
    assert gamma_n_op(n, n).apply(A1 ** 2) == (A1 ** 2).scale(n) - CxPoly.constant(n)
    assert gamma_n_op(n, n).apply(CxPoly.constant(1)).is_zero()


def test_gamma_preserves_holomorphy():
    q = A1 ** 3 + A1 * CxPoly.a(1)
    out = gamma_n_op(8, 8).apply(q)
    assert out.is_holomorphic()
    assert jsq_abar_op(8, 8).apply(q).is_zero()


def test_g_k_examples():
    assert G_K.apply(A1 * ABAR1) == A1 * ABAR1
    assert G_K.apply(A1 ** 2) == A1 ** 2 - 1
    assert G_K.apply(CxPoly.constant(3)).is_zero()


def test_gamma_over_n_converges_to_g_k():
    q = A1 ** 2 * ABAR1 + CxPoly.a(1) * ABAR1 ** 2 - 2 * A1
    limit = G_K.apply(q)
    previous = None
    for n in (10, 100, 1000, 10000):
        diff = coeff_distance(gamma_n_op(n, n).apply(q).scale(Fraction(1, n)), limit)
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


def test_to_matrix_examples():
    m = to_matrix(diffops.EULER, 1, 2)
    assert [m.entries[i, i] for i in range(3)] == [0, 1, 2]

    lap = to_matrix(diffops.LAPLACIAN, 1, 2)
    dense = [[lap.entries[i, j] for j in range(3)] for i in range(3)]
    assert dense == [[0, 0, 2], [0, 0, 0], [0, 0, 0]]

    herm = to_matrix(diffops.HERMITE, 1, 2)
    assert (herm.entries == (lap.entries - m.entries)).all()


def test_matrix_agrees_with_symbolic_application():
    rng = seeded_rng(15)
    ops = [
        diffops.LAPLACIAN,
        diffops.EULER,
        diffops.HERMITE,
        diffops.spherical_laplacian_op(8),
    ]
    for op in ops:
        mat = to_matrix(op, 3, 5)
        for _ in range(4):
            p = random_real_poly(rng, k=3, degree=5, terms=5)
            assert mat.apply(p) == op.apply(p)


def test_matrix_agrees_for_complex_operators():
    op = diffops.gamma_n_op(6)
    mat = to_matrix(op, 2, 3)
    q = A1 ** 2 * ABAR1 + CxPoly.a(1) - ABAR1 ** 3
    assert mat.apply(q) == op.apply(q)


def test_matrix_is_block_triangular_by_degree():
    mat = to_matrix(diffops.spherical_laplacian_op(6), 2, 4)
    degrees = mat.space.degrees
    for i in range(mat.dim):
        for j in range(mat.dim):
            if mat.entries[i, j] != 0:
                assert degrees[i] <= degrees[j]
                assert degrees[i] == degrees[j] or i != j


def test_commutator_euler_laplacian_exact():
    eul = to_matrix(diffops.EULER, 2, 4)
    lap = to_matrix(diffops.LAPLACIAN, 2, 4)
    comm = commutator(eul, lap)
    assert (comm.entries == -2 * lap.entries).all()


def test_commutator_self_and_bilinearity():
    eul = to_matrix(diffops.EULER, 2, 4)
    herm = to_matrix(diffops.HERMITE, 2, 4)
    lap = to_matrix(diffops.LAPLACIAN, 2, 4)
    assert not commutator(eul, eul).entries.any()
    assert (commutator(eul, herm).entries == -2 * lap.entries).all()


def test_jsq_rejects_small_ambient_dimension():
    q = A1 * CxPoly.a(1) * CxPoly.a(2)
    with pytest.raises(DimensionError):
        jsq_a_op(3, 3).apply(q)
    with pytest.raises(DimensionError):
        gamma_n_op(2, 2).apply(q)


def test_operator_constructors_check_their_parameters():
    for make in (spherical_laplacian_op, jsq_a_op, jsq_abar_op, gamma_n_op):
        for n, b2 in ((0, None), (5, 0), (5, Fraction(-1, 2))):
            with pytest.raises(ValueError):
                make(n, b2)
    with pytest.raises(ValueError):
        g_uv_op(0)
    with pytest.raises(ValueError):
        laplacian_op(variables="y")
    assert laplacian_op([0, 2], "a") == laplacian_op((0, 2), "a")


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
