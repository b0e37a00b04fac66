import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from sbtlab import diffops, measures, semigroup
from sbtlab.polyalg import CxPoly, RealPoly, coeff_distance, holomorphic_extend
from sbtlab.semigroup import (
    CommutationError,
    DimensionCapError,
    NonNilpotentError,
    bch_check,
    dilation_exp,
    exp_graded,
    exp_nilpotent,
    expm_graded,
    factor_quadric_limit,
    realize,
)
from sbtlab.suite import random_real_poly

from conftest import seeded_rng

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)


def test_exp_nilpotent_examples():
    # heat flow at time t applies exp((t/2) * laplacian)
    assert exp_nilpotent(diffops.LAPLACIAN, Fraction(1, 2), X1 ** 2) == X1 ** 2 + 1
    assert exp_nilpotent(diffops.LAPLACIAN, Fraction(3, 2), X1) == X1
    t = 1 - math.exp(-0.8)
    out = exp_nilpotent(diffops.LAPLACIAN, t / 2, X1 ** 2)
    assert coeff_distance(out, (X1 ** 2).to_float() + RealPoly.constant(t, "float")) < 1e-15


def test_exp_nilpotent_exact_for_rational_time():
    p = X1 ** 4 + 2 * X1 ** 2 * X2 ** 2
    out = exp_nilpotent(diffops.LAPLACIAN, Fraction(1, 3), p)
    assert out.mode == "exact"
    # second-order term: (1/2) (1/3)^2 Lap^2 p
    lap2 = diffops.laplacian(diffops.laplacian(p))
    expected = p + diffops.laplacian(p).scale(Fraction(1, 3)) + lap2.scale(Fraction(1, 18))
    assert out == expected


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NonNilpotentError):
        exp_nilpotent(diffops.EULER, Fraction(1), X1 ** 2 + X1)


def test_exp_graded_sphere_eigenvector():
    n, T = 10, 0.7
    out = exp_graded(diffops.spherical_laplacian_op(n), T / 2, X1)
    expected = math.exp(-T * (n - 1) / (2 * n))
    assert coeff_distance(out, X1.to_float().scale(expected)) < 1e-14


def test_exp_graded_hermite_on_x1_squared():
    T = 1.3
    out = exp_graded(diffops.HERMITE, T / 2, X1 ** 2)
    expected = (X1 ** 2).to_float().scale(math.exp(-T)) + RealPoly.constant(
        1 - math.exp(-T), "float"
    )
    assert coeff_distance(out, expected) < 1e-14


def test_exp_graded_gamma_on_a1_squared():
    n, T = 8, 0.9
    q = CxPoly.a(0) ** 2
    out = exp_graded(diffops.gamma_n_op(n), T / n, q)
    expected = q.to_float().scale(math.exp(T)) + CxPoly.constant(1 - math.exp(T), "float")
    assert coeff_distance(out, expected) < 1e-12


def test_exp_graded_agrees_with_exp_nilpotent():
    rng = seeded_rng(21)
    for _ in range(5):
        p = random_real_poly(rng, k=2, degree=5, terms=4)
        t = 0.37
        a = exp_nilpotent(diffops.LAPLACIAN, t, p)
        b = exp_graded(diffops.laplacian_op(), t, p)
        assert coeff_distance(a, b) < 1e-13


def test_semigroup_law():
    rng = seeded_rng(22)
    op = diffops.spherical_laplacian_op(7)
    for _ in range(4):
        p = random_real_poly(rng, k=2, degree=4, terms=4)
        once = exp_graded(op, 1.1, p)
        split = exp_graded(op, 0.4, exp_graded(op, 0.7, p))
        assert coeff_distance(once, split) < 1e-12


def test_dilation_exp_examples():
    T = 0.9
    q = (CxPoly.a(0) ** 2).to_float()
    out = dilation_exp(-T / 2, q)
    assert coeff_distance(out, q.scale(math.exp(-T))) < 1e-15
    p = (X1 + X2 ** 2).to_float()
    assert coeff_distance(dilation_exp(0.0, p), p) == 0
    lam = 0.35
    expected = X1.to_float().scale(math.exp(lam)) + (X2 ** 2).to_float().scale(
        math.exp(2 * lam)
    )
    assert coeff_distance(dilation_exp(lam, p), expected) < 1e-14


def test_dilation_exp_matches_euler_exponential():
    rng = seeded_rng(23)
    for _ in range(4):
        p = random_real_poly(rng, k=3, degree=4, terms=5)
        lam = -0.6
        a = dilation_exp(lam, p.to_float())
        b = exp_graded(diffops.EULER, lam, p)
        assert coeff_distance(a, b) < 1e-13


def test_realized_element_at_time_zero_is_identity():
    element = realize(diffops.HERMITE, 0.0, 2, 3)
    assert np.array_equal(element.realized.entries, np.eye(element.realized.dim))


def test_spherical_diagonal_eigenvalues():
    # degree-m diagonal entries are -(m + (m^2 - 2m)/n) when b2 = n
    n = 9
    mat = semigroup.base_matrix(diffops.spherical_laplacian_op(n), 2, 5)
    for m, sl in enumerate(mat.space.block_slices):
        want = -(m + (m * m - 2 * m) / n)
        for i in range(sl.start, sl.stop):
            assert mat.entries[i, i] == pytest.approx(want, abs=1e-15)


def test_expm_graded_matches_scipy():
    cases = [
        (semigroup.base_matrix(diffops.spherical_laplacian_op(6), 2, 6), 0.45),
        (semigroup.base_matrix(diffops.HERMITE, 3, 4), 0.8),
        (semigroup.base_matrix(diffops.gamma_n_op(5), 1, 4), 0.9 / 5),
        (semigroup.base_matrix(diffops.laplacian_op(), 2, 6), 0.33),
    ]
    for base, t in cases:
        a = base.entries * t
        ours = expm_graded(a, base.space.block_slices)
        ref = scipy.linalg.expm(a)
        assert np.max(np.abs(ours - ref)) < 1e-11


def test_expm_graded_falls_back_on_collisions():
    # two identical eigenvalues in different degree blocks force the fallback
    m = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    blocks = [slice(0, 2), slice(2, 3)]
    out = expm_graded(m, blocks)
    assert np.max(np.abs(out - scipy.linalg.expm(m))) < 1e-12


def test_bch_identities_dilation_heat():
    # X = -(T/2) Euler, Y = (T/2) Lap, [X, Y] = T Y; the merge identity is
    # exactly the dilation-then-heat splitting of the limit transform
    for t in (0.5, 1.0, 2.0):
        eul = diffops.to_matrix(diffops.EULER, 2, 6).to_float()
        lap = diffops.to_matrix(diffops.LAPLACIAN, 2, 6).to_float()
        report = bch_check((-t / 2) * eul, (t / 2) * lap, t)
        assert report.max_deviation < 1e-11


def test_bch_identities_limit_measure():
    # X = T G, Y = (1/2) Lap_u, [X, Y] = -T Y
    g = semigroup.base_matrix(diffops.g_uv_op(1), 2, 6).to_float()
    lap_u = semigroup.base_matrix(diffops.laplacian_op(indices=(0,)), 2, 6).to_float()
    for t in (0.5, 1.0):
        report = bch_check(t * g, 0.5 * lap_u, -t)
        assert report.max_deviation < 1e-11


def test_bch_trivial_with_zero_y():
    eul = diffops.to_matrix(diffops.EULER, 1, 3).to_float()
    report = bch_check(eul, 0.0 * eul, 0.7)
    assert report.max_deviation < 1e-14


def test_bch_rejects_broken_hypothesis():
    eul = diffops.to_matrix(diffops.EULER, 1, 3).to_float()
    lap = diffops.to_matrix(diffops.LAPLACIAN, 1, 3).to_float()
    with pytest.raises(CommutationError):
        bch_check(eul, lap, 5.0)


def test_factor_quadric_limit_examples():
    assert factor_quadric_limit(1, 4, 1.0).max_deviation <= 1e-11
    assert factor_quadric_limit(2, 2, 0.8).max_deviation <= 1e-12
    tiny = factor_quadric_limit(1, 4, 1e-9)
    # as the time goes to zero both sides collapse onto the plain heat factor
    heat = expm_graded(
        0.5 * semigroup.base_matrix(diffops.laplacian_op(indices=(0,)), 2, 4).entries,
        tiny.lhs.space.block_slices,
    )
    assert np.max(np.abs(tiny.lhs.entries - heat)) < 1e-7
    assert tiny.max_deviation < 1e-8


def test_dimension_cap():
    # the cap guards the dense route, which the complexified generators take;
    # it is checked before the (3, 8) bidegree matrix is assembled
    with pytest.raises(DimensionCapError):
        exp_graded(diffops.gamma_n_op(10), 0.5, CxPoly.a(0) ** 2, k=3, l=8, dim_cap=10)


def test_dimension_cap_bounds_the_dense_memory():
    # |p|^2 for a degree-6 p in 3 variables lives on the 18 564-monomial
    # bidegree basis: scipy's expm would ask for 12.8 GiB on it
    assert 7 * 8 * semigroup.DEFAULT_DIM_CAP ** 2 <= 2 ** 30
    p = holomorphic_extend(X1 ** 6 + X2 ** 3 * RealPoly.variable(2) + X1)
    with pytest.raises(DimensionCapError):
        measures.quadric_moment_direct(p.mod_square(), 9, 1.0)


def test_exp_graded_respects_explicit_grade_bound():
    with pytest.raises(ValueError):
        exp_graded(diffops.HERMITE, 0.5, X1 ** 4, l=2)


def test_exp_nilpotent_rational_time_on_float_polynomial():
    out = exp_nilpotent(diffops.LAPLACIAN, Fraction(1, 2), (X1 ** 2).to_float())
    assert out.mode == "float"
    assert coeff_distance(out, (X1 ** 2 + 1).to_float()) == 0


def test_expm_graded_collision_fallback_on_real_operator_family():
    # at ambient dimension 4 the bidegree operator's degree-6 and degree-8
    # blocks share the eigenvalue 24, forcing the scaling-and-squaring path;
    # the result must still match a doubled-precision reference via scipy
    base = semigroup.base_matrix(diffops.gamma_n_op(4), 2, 8)
    d = np.diag(base.entries)
    blocks = [b for b in base.space.block_slices if b.stop > b.start]
    gaps = [
        np.min(np.abs(d[blocks[i]][:, None] - d[blocks[j]][None, :]))
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
    ]
    assert min(gaps) == 0.0  # genuine collision, not a near-miss
    t = 0.4 / 4
    ours = expm_graded(base.entries * t, base.space.block_slices)
    ref = scipy.linalg.expm(base.entries * t)
    assert np.max(np.abs(ours - ref)) == 0.0  # fallback is scipy itself


def test_expm_operator_wrapper():
    base = semigroup.base_matrix(diffops.HERMITE, 2, 3)
    half = semigroup.expm_operator(0.5 * base)
    direct = expm_graded(0.5 * base.entries, base.space.block_slices)
    assert np.array_equal(half.entries, direct)
    assert half.apply(X1.to_float()) == semigroup.exp_graded(diffops.HERMITE, 0.5, X1)


# ---------------------------------------------------------------------------
# graded flows: the generators that flow monomial by monomial


def test_graded_flow_table_matches_operator_action():
    # lambda_m x^alpha + c Lap x^alpha must be the operator itself, exactly
    ops = [diffops.HERMITE, diffops.LAPLACIAN, diffops.EULER]
    ops += [diffops.spherical_laplacian_op(n) for n in (4, 7, 10, 25)]
    ops += [diffops.spherical_laplacian_op(6, Fraction(7, 3))]
    for op in ops:
        lam, c = semigroup._graded_flow(op)
        for alpha in semigroup.graded_space(3, 8, "real").monomials:
            mono = RealPoly({alpha: 1})
            m = sum(alpha)
            want = mono.scale(Fraction(lam(op, m))) + diffops.laplacian(mono).scale(c)
            assert op.apply(mono) == want, (op, alpha)


def test_graded_flow_table_excludes_other_generators():
    for op in (diffops.gamma_n_op(5), diffops.G_K, diffops.g_uv_op(1),
               diffops.laplacian_op(indices=(0,)), diffops.LAPLACIAN_A):
        assert semigroup._graded_flow(op) is None


def _exp_divided_differences_reference(z, s):
    import mpmath

    with mpmath.workdps(250):
        nodes = [mpmath.mpf(v) for v in z]
        out = []
        for j in range(len(nodes)):
            total = mpmath.mpf(0)
            for i in range(j + 1):
                den = mpmath.mpf(1)
                for k in range(j + 1):
                    if k != i:
                        den *= nodes[i] - nodes[k]
                total += mpmath.exp(nodes[i]) / den
            out.append(float(total * mpmath.mpf(s) ** j))
    return np.array(out)


def test_exp_divided_differences_against_high_precision():
    # sphere nodes t*lambda_{m-2j}, forward and backward in time, from nearly
    # merged (t = 1e-9) to widely spread (t = 3, degree 14)
    worst = 0.0
    for n in (3, 5, 50, 1000):
        for t in (1e-9, 0.05, 0.5, 3.0, -0.05, -1.0, -3.0):
            for m in (1, 2, 5, 8, 11, 14):
                z = [-t * (d * d + (n - 2) * d) / n for d in range(m, -1, -2)]
                ours = semigroup._exp_divided_differences(z, t)
                ref = _exp_divided_differences_reference(z, t)
                worst = max(worst, float(np.max(np.abs(ours - ref) / np.abs(ref))))
    assert worst < 1e-14


def test_exp_divided_differences_rejects_non_finite_time():
    with pytest.raises(ValueError):
        exp_graded(diffops.HERMITE, math.inf, X1 ** 2)


@pytest.mark.parametrize("k,l", [(3, 6), (4, 8), (5, 8)])
def test_graded_flow_matches_dense_exponential(k, l):
    rng = seeded_rng(24 + k)
    space = semigroup.graded_space(k, l, "real")
    for op, t in ((diffops.spherical_laplacian_op(k + 3), 0.45), (diffops.HERMITE, 0.8)):
        dense = expm_graded(t * semigroup.base_matrix(op, k, l).entries, space.block_slices)
        for _ in range(2):
            p = random_real_poly(rng, k=k, degree=l, terms=6)
            via_dense = space.poly_from_coords(dense.dot(space.coords(p.to_float())))
            assert coeff_distance(exp_graded(op, t, p), via_dense) <= 1e-12


def test_graded_flow_is_exact_before_the_weights():
    # x1^4 under the heat flow: exact chain x1^4 -> 12 x1^2 -> 24 with
    # weights t, t^2/2 from the nilpotent bidiagonal exponential
    t = 0.25
    out = exp_graded(diffops.LAPLACIAN, t, X1 ** 4)
    assert out.terms == {(4,): 1.0, (2,): 12 * t, (): 24 * t * t / 2}


def test_graded_flow_checks_the_ambient_dimension():
    with pytest.raises(diffops.DimensionError):
        exp_graded(diffops.spherical_laplacian_op(2), 0.5, X1 * X2)
