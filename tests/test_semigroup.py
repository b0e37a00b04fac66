import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy

from sbtlab import diffops, measures, semigroup
from sbtlab.diffops import Group, GroupGenerator, basis_keys
from sbtlab.polyalg import CxPoly, RealPoly, coeff_distance, holomorphic_extend
from sbtlab.semigroup import (
    CommutationError,
    bch_check,
    dilation_exp,
    exp_graded,
    factor_quadric_limit,
    monomial_flows,
)
from sbtlab.suite import random_real_poly

from conftest import (
    exp_divided_differences_frozen,
    flow_weights_frozen,
    graded_matrices,
    linear_flow_weights_reference,
    quadric_moment_reference,
    seeded_rng,
    to_sympy,
    to_sympy_cx,
)

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)


def _flow_vs_scipy(op, t, k, l, relative=False):
    """Flow-built exp(t*op) on the graded (k, l) basis against scipy's expm.

    The largest entrywise deviation, or with ``relative`` that deviation over
    the largest entry of scipy's matrix.
    """
    _, ours, dense = graded_matrices(op, t, k, l)
    ref = scipy.linalg.expm(t * dense)
    deviation = float(np.max(np.abs(ours - ref)))
    return deviation / float(np.max(np.abs(ref))) if relative else deviation


def test_exp_graded_heat_flow_examples():
    # heat flow at time t applies exp((t/2) * laplacian), exactly at rational t
    assert exp_graded(diffops.LAPLACIAN, Fraction(1, 2), X1 ** 2) == X1 ** 2 + 1
    assert exp_graded(diffops.LAPLACIAN, Fraction(3, 2), X1) == X1
    t = 1 - math.exp(-0.8)
    out = exp_graded(diffops.LAPLACIAN, t / 2, X1 ** 2)
    assert coeff_distance(out, (X1 ** 2).to_float() + RealPoly.constant(t, "float")) < 1e-15


def test_exp_graded_heat_flow_exact_for_rational_time():
    p = X1 ** 4 + 2 * X1 ** 2 * X2 ** 2
    out = exp_graded(diffops.LAPLACIAN, Fraction(1, 3), p)
    assert out.mode == "exact"
    # second-order term: (1/2) (1/3)^2 Lap^2 p
    lap2 = diffops.LAPLACIAN.apply(diffops.LAPLACIAN.apply(p))
    expected = p + diffops.LAPLACIAN.apply(p).scale(Fraction(1, 3)) + lap2.scale(Fraction(1, 18))
    assert out == expected
    # every lambda 0 on every group: the g_uv heat parts
    half = Fraction(1, 2)
    u_heat = exp_graded(diffops.laplacian_op(indices=(0,)), half, X1 ** 2 * X2 ** 2)
    assert u_heat == X1 ** 2 * X2 ** 2 + X2 ** 2


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


def test_exp_graded_exact_weights_agree_with_float_weights():
    # the exact weights (t^j / j!) against the float divided differences of
    # the same all-zero nodes
    rng = seeded_rng(21)
    for _ in range(5):
        p = random_real_poly(rng, k=2, degree=5, terms=4)
        a = exp_graded(diffops.LAPLACIAN, Fraction(37, 100), p)
        b = exp_graded(diffops.laplacian_op(), 0.37, p)
        assert a.mode == "exact" and b.mode == "float"
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
    # every basis monomial flows to itself, so the flow matrix is the identity
    for key in basis_keys(2, 3):
        assert monomial_flows(0.0 * diffops.HERMITE, 1.0)(key) == {key: 1.0}


def test_spherical_diagonal_eigenvalues():
    # degree-m diagonal entries are -(m + (m^2 - 2m)/n)
    # (the coefficient of each basis monomial in its own image, exactly)
    n = 9
    op = diffops.spherical_laplacian_op(n)
    for key in basis_keys(2, 5):
        m = sum(key)
        assert op.apply(RealPoly({key: 1})).terms.get(key, 0) == -(m + Fraction(m * m - 2 * m, n))


def test_flow_monomial_matches_scipy():
    cases = [
        (diffops.spherical_laplacian_op(6), 0.45, 2, 6),
        (diffops.HERMITE, 0.8, 3, 4),
        (diffops.gamma_n_op(5), 0.9 / 5, 1, 4),
        (diffops.laplacian_op(), 0.33, 2, 6),
    ]
    for op, t, k, l in cases:
        assert _flow_vs_scipy(op, t, k, l) < 1e-11, (op, k, l)
    # every other kind of group: entries reach 1e3, so the gap is relative
    cases = [
        (diffops.gamma_n_op(5), 0.9 / 5, 2, 6),
        (diffops.G_K, 0.7, 2, 6),
        (diffops.jsq_a_op(6), 0.1, 2, 6),
        (diffops.jsq_abar_op(6), 0.1, 2, 5),
        (diffops.g_uv_op(2), 0.9, 4, 8),
        (diffops.laplacian_op(indices=(0, 2, 4)), 0.5, 6, 6),
    ]
    for op, t, k, l in cases:
        assert _flow_vs_scipy(op, t, k, l, relative=True) < 1e-11, (op, k, l)


def test_flow_monomial_matches_scipy_through_merged_nodes():
    # lambda(m) = m^2 - 4m gives lambda(4) = lambda(0) and lambda(3) = lambda(1):
    # x^alpha of degree 4 and 3 flow through merged divided-difference nodes
    gen = GroupGenerator((Group("x", None, 1, -4, 1),))
    assert gen.apply(X1 ** 4) == 12 * X1 ** 2
    for t in (0.3, -0.7):
        _, flow, dense = graded_matrices(gen, t, 2, 4)
        ref = scipy.linalg.expm(t * dense)
        gap = np.max(np.abs(flow - ref)) / np.max(np.abs(ref))
        assert gap < 1e-12


def test_bch_identities_dilation_heat():
    # X = -(T/2) Euler, Y = (T/2) Lap, [X, Y] = T Y; the merge identity is
    # exactly the dilation-then-heat splitting of the limit transform
    for t in (0.5, 1.0, 2.0):
        report = bch_check((-t / 2) * diffops.EULER, (t / 2) * diffops.LAPLACIAN, t, 2, 6)
        assert report.max_deviation < 1e-11


def test_bch_identities_limit_measure():
    # X = T G, Y = (1/2) Lap_u, [X, Y] = -T Y
    g = diffops.g_uv_op(1)
    lap_u = diffops.laplacian_op(indices=(0,))
    for t in (0.5, 1.0):
        report = bch_check(t * g, 0.5 * lap_u, -t, 2, 6)
        assert report.max_deviation < 1e-11


def test_bch_trivial_with_zero_y():
    eul = diffops.EULER
    report = bch_check(eul, 0.0 * eul, 0.7, 1, 3)
    assert report.max_deviation < 1e-14


def test_bch_rejects_broken_hypothesis():
    eul = diffops.EULER
    lap = diffops.LAPLACIAN
    with pytest.raises(CommutationError):
        bch_check(eul, lap, 5.0, 1, 3)


def test_bch_check_builds_no_basis_matrix():
    # the (4, 8) basis has 495 monomials; checking on their flows needs a few
    # hundred KiB, where the basis-sized exponential matrices took 15.7 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        report = bch_check(diffops.g_uv_op(2), 0.5 * diffops.laplacian_op(indices=(0, 1)),
                           -1.0, 4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert report.max_deviation < 1e-11


def test_factor_quadric_limit_examples():
    assert factor_quadric_limit(1, 4, 1.0).max_deviation <= 1e-11
    assert factor_quadric_limit(2, 2, 0.8).max_deviation <= 1e-12
    tiny = factor_quadric_limit(1, 4, 1e-9)
    # as the time goes to zero both sides collapse onto the plain heat factor:
    # the left side e^{Lap_u/2} e^{1e-9 G}, from the same monomial flows,
    # against scipy's e^{Lap_u/2}
    _, heat_flow, lap_u = graded_matrices(diffops.laplacian_op(indices=(0,)), 0.5, 2, 4)
    _, g_flow, _ = graded_matrices(diffops.g_uv_op(1), 1e-9, 2, 4)
    heat = scipy.linalg.expm(0.5 * lap_u)
    assert np.max(np.abs(heat_flow.dot(g_flow) - heat)) < 1e-7
    assert tiny.max_deviation < 1e-8


def test_quadric_moment_needs_no_basis_matrix():
    # |p|^2 for a degree-6 p in 3 variables lives on the 18 564-monomial
    # bidegree basis, whose float64 matrix alone takes 2.6 GiB; the moment
    # flows the integrand's own monomials and allocates a few MiB at most
    import tracemalloc

    p = holomorphic_extend(X1 ** 6 + X2 ** 3 * RealPoly.variable(2) + X1)
    q = p.mod_square()
    assert len(basis_keys(3, 12, complexified=True)) == 18564
    tracemalloc.start()
    try:
        value = measures.quadric_moment(q, 9, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 23
    reference = quadric_moment_reference(q, 9, 1.0)
    assert abs(value - reference) <= 1e-12 * abs(reference)


def test_exp_graded_heat_flow_rational_time_on_float_polynomial():
    out = exp_graded(diffops.LAPLACIAN, Fraction(1, 2), (X1 ** 2).to_float())
    assert out.mode == "float"
    assert coeff_distance(out, (X1 ** 2 + 1).to_float()) == 0


@pytest.mark.parametrize("gen, t", [(diffops.LAPLACIAN, 1.0), (diffops.HERMITE, -1.0)],
                         ids=["heat", "hermite-backward"])
def test_exp_graded_raises_where_a_float_sum_overflows(gen, t):
    # a flowed coefficient overflows: inf was stored, and a product with it failed later
    q = RealPoly({(2,): 1.5e308, (): 1.5e308}, "float")
    with pytest.raises(OverflowError, match="a flowed coefficient does not fit in a float"):
        exp_graded(gen, t, q)
    small = exp_graded(gen, t, q.scale(0.125))
    assert small.mode == "float" and all(map(math.isfinite, small.terms.values()))


def test_flow_monomial_matches_scipy_across_colliding_gamma_n_blocks():
    # at ambient dimension 4 the bidegree operator's degree-6 and degree-8
    # blocks share the eigenvalue 24, a collision across degree blocks that
    # the per-group flows never see; scipy itself is good to about 1e-12 here
    keys, _, dense = graded_matrices(diffops.gamma_n_op(4), 1, 2, 8)
    eigenvalues = {}
    for (a, abar), d in zip(keys, np.diag(dense)):
        eigenvalues.setdefault(d, set()).add(sum(a) + sum(abar))
    assert {6, 8} <= eigenvalues[24.0]  # genuine collision, not a near-miss
    assert _flow_vs_scipy(diffops.gamma_n_op(4), 0.4 / 4, 2, 8, relative=True) < 1e-11


def test_flow_matrix_column_is_the_exp_graded_flow():
    # the flow-built matrix's column of a basis monomial is its exp_graded flow
    op = diffops.HERMITE
    keys, flow, _ = graded_matrices(op, 0.5, 2, 3)
    j = keys.index((1,))
    column = {keys[i]: v for i, v in enumerate(flow[:, j]) if v}
    assert RealPoly(column, "float") == exp_graded(op, 0.5, X1)
    assert _flow_vs_scipy(op, 0.5, 2, 3) < 1e-12


# ---------------------------------------------------------------------------
# graded flows: the generators that flow monomial by monomial


def _sympy_lap(f, xs):
    return sum(sympy.diff(f, x, 2) for x in xs)


def _sympy_euler(f, xs):
    return sum(x * sympy.diff(f, x) for x in xs)


def _sympy_sphere(f, xs, n):
    e = _sympy_euler(f, xs)
    return _sympy_lap(f, xs) - (_sympy_euler(e, xs) + (n - 2) * e) / n


def _sympy_jsq(f, xs, n):
    e = _sympy_euler(f, xs)
    return -n * _sympy_lap(f, xs) + _sympy_euler(e, xs) + (n - 2) * e


def test_graded_flow_table_matches_operator_action():
    # every named generator's groups must act as sympy's differentiation of
    # the operator's defining expression, exactly, for every kind and index
    # subset; the input has a random nonzero rational on
    # every monomial, so a changed lambda or c of any group shows
    rng = seeded_rng(71)
    x = sympy.symbols("x1:4")
    a, abar = sympy.symbols("a1:3"), sympy.symbols("abar1:3")
    real_ops = [
        (diffops.HERMITE, lambda f: _sympy_lap(f, x) - _sympy_euler(f, x)),
        (diffops.LAPLACIAN, lambda f: _sympy_lap(f, x)),
        (diffops.EULER, lambda f: _sympy_euler(f, x)),
        (diffops.g_uv_op(1), lambda f: (-_sympy_lap(f, x[:1]) + 2 * _sympy_euler(f, x[:1])
                                        + _sympy_lap(f, x[1:2]) + 2 * _sympy_euler(f, x[1:2])) / 4),
    ]
    real_ops += [(diffops.spherical_laplacian_op(n), lambda f, n=n: _sympy_sphere(f, x, n))
                 for n in (4, 7, 10, 25)]
    for indices in ((0,), (1, 2), (0, 2), (2,)):
        xs = [x[i] for i in indices]
        real_ops += [(diffops.laplacian_op(indices), lambda f, xs=xs: _sympy_lap(f, xs)),
                     (diffops.euler_op(indices), lambda f, xs=xs: _sympy_euler(f, xs))]
    cx_ops = [
        (diffops.G_K, lambda f: (_sympy_euler(f, a) + _sympy_euler(f, abar)
                                 - _sympy_lap(f, a) - _sympy_lap(f, abar)) / 2),
        (diffops.gamma_n_op(5), lambda f: (_sympy_jsq(f, a, 5) + _sympy_jsq(f, abar, 5)) / 2),
    ]
    for n in (3, 8):
        cx_ops += [(diffops.jsq_a_op(n), lambda f, n=n: _sympy_jsq(f, a, n)),
                   (diffops.jsq_abar_op(n), lambda f, n=n: _sympy_jsq(f, abar, n))]

    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))

    p = RealPoly({key: coefficient() for key in basis_keys(3, 4)})
    q = CxPoly({key: coefficient() for key in basis_keys(2, 4, complexified=True)})
    assert len(p.terms) == 35 and len(q.terms) == 70
    for ops, poly, as_sympy in (
        (real_ops, p, lambda u: to_sympy(u, x)),
        (cx_ops, q, lambda u: to_sympy_cx(u, a, abar)),
    ):
        f = as_sympy(poly)
        for op, defining in ops:
            out = op.apply(poly)
            assert out.mode == "exact"
            assert sympy.expand(as_sympy(out) - defining(f)) == 0, op


def test_group_generators_add_and_scale():
    x = diffops.g_uv_op(1)
    y = diffops.laplacian_op(indices=(0,))
    for s in (Fraction(1, 3), 2):
        combined = x + s * y
        for key in basis_keys(2, 4):
            mono = RealPoly({key: 1})
            assert combined.apply(mono) == x.apply(mono) + y.apply(mono).scale(s)
    with pytest.raises(ValueError):
        diffops.LAPLACIAN + y  # all variables overlap x1
    with pytest.raises(ValueError):
        diffops.LAPLACIAN + diffops.G_K


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


@pytest.mark.parametrize("gen", [diffops.spherical_laplacian_op(7), diffops.HERMITE,
                                 diffops.LAPLACIAN, diffops.EULER],
                         ids=["sphere", "hermite", "laplacian", "euler"])
def test_single_node_flow_weights_are_the_exponential_bit_for_bit(gen):
    # degree 0 or 1, or c = 0 at any degree: one node z_0 = t lambda_m
    [g] = gen.groups
    for t in (0.37, -0.37, 2.5, -2.5, 1e-9, -41.0):
        for m in (0, 1) if g.c else range(6):
            z0 = t * float(g.a2 * m * m + g.a1 * m)
            weights = semigroup._flow_weights(g.a2, g.a1, g.c, t, m)
            general = semigroup._exp_divided_differences([z0], g.c * t).tolist()
            assert [w.hex() for w in weights] == [math.exp(z0).hex()] == [w.hex() for w in general]


def test_one_node_flow_weights_overflow_with_the_message_of_a_longer_row():
    # the one-node divided difference e^800 overflows in the exponential of its midpoint
    calls = [lambda m=m: semigroup._flow_weights(0, -1, 1, -800.0, m) for m in (1, 2)]
    calls.append(lambda: semigroup._exp_divided_differences([800.0], -800.0))
    messages = []
    for call in calls:
        with pytest.raises(OverflowError) as info:
            call()
        messages.append(str(info.value))
    assert messages == ["graded-flow weights overflow a float"] * 3


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="ROADMAP item 6: e^710 at the nodes' midpoint overflows, no weight does")
def test_divided_differences_of_far_apart_nodes_fit_a_float():
    # the true weights e^700 and 1e-20 (e^720 - e^700) / 20, about 2.5e291, are floats
    import mpmath

    z, s = [700.0, 720.0], 1e-20
    with mpmath.workdps(60):
        want = [mpmath.exp(z[0]), s * (mpmath.exp(z[1]) - mpmath.exp(z[0])) / (z[1] - z[0])]
        want = [float(w) for w in want]
    got = semigroup._exp_divided_differences(z, s).tolist()
    assert all(abs(g - w) <= 1e-14 * w for g, w in zip(got, want))


def test_only_exp_graded_reads_monomial_flows():
    # one routine sums every graded flow in the package: any other reader of
    # monomial_flows in src/sbtlab would be a second flow loop
    import ast
    from pathlib import Path

    readers = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            names = [a.name for a in child.names] if isinstance(child, ast.ImportFrom) else \
                [getattr(child, "id", None), getattr(child, "attr", None)]
            if "monomial_flows" in names:
                readers.add(".".join((module, *scope)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, (*scope, child.name) if named else scope, module)

    for path in sorted(Path(semigroup.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.stem)
    assert readers == {"semigroup.exp_graded"}


def test_single_node_flow_weights_raise_as_the_general_route():
    with pytest.raises(OverflowError):
        semigroup._flow_weights(0, -1, 1, -800.0, 1)
    with pytest.raises(OverflowError):
        semigroup._exp_divided_differences([800.0], -800.0)
    for t in (math.inf, -math.inf, math.nan):
        for args in ((0, -1, 1, t, 1), (0, -1, 1, t, 0), (0, 1, 0, t, 3), (0, -1, 1, t, 4)):
            with pytest.raises(ValueError, match="finite time"):
                semigroup._flow_weights(*args)


# c t from tiny to near overflow, both signs: weights underflow to zero,
# and past 1e154 the third weight (c t)^2 / 2 or a later one overflows
_HEAT_TIMES = (0.37, -0.37, 2.5, -41.0, 1e-9, 1e-200, -1e-200, 1e-320, 7.3e77, -1.3e154, 1e300)


def test_heat_flow_weights_are_the_divided_differences_on_zero_nodes_bit_for_bit():
    # the closed form w_j = w_{j-1} (c t) / j against scaling and squaring on
    # 1 .. 60 nodes at 0, and the same OverflowError where that overflows
    for s in _HEAT_TIMES:
        for nodes in range(1, 61):
            try:
                want = semigroup._exp_divided_differences([0.0] * nodes, s).tolist()
            except OverflowError:
                with pytest.raises(OverflowError):
                    semigroup._flow_weights(0, 0, 1, s, 2 * nodes - 2)
                continue
            weights = semigroup._flow_weights(0, 0, 1, s, 2 * nodes - 2)
            assert [w.hex() for w in weights] == [w.hex() for w in want]
    rng = seeded_rng(27)
    for _ in range(500):
        nodes, s = rng.randint(1, 60), rng.uniform(-30.0, 30.0)
        assert semigroup._flow_weights(0, 0, 1, s, 2 * nodes - 2) == tuple(
            semigroup._exp_divided_differences([0.0] * nodes, s).tolist())


def test_exact_heat_flow_weights_are_the_taylor_coefficients():
    c, t = Fraction(-2, 3), Fraction(5, 7)
    weights = semigroup._flow_weights(0, 0, c, t, 13)
    assert weights == tuple((c * t) ** j / math.factorial(j) for j in range(7))
    assert all(type(w) is Fraction for w in weights)
    for args in ((0, 0, 1, math.inf, 4), (0, 0, 1e300, 1e300, 4), (0, 0, 0, math.nan, 0)):
        with pytest.raises(ValueError, match="finite time"):
            semigroup._flow_weights(*args)


def _bits(f, *args):
    """f's weights as float.hex (a Fraction as itself), or the type of the error f raised."""
    try:
        return [w.hex() if isinstance(w, float) else (type(w), w) for w in f(*args)]
    except (OverflowError, ValueError) as exc:
        return type(exc)


_FROZEN_TIMES = tuple(sign * t for t in (1e-9, 0.05, 0.5, 3.0, 41.0, 400.0, 800.0) for sign in (1, -1))


@pytest.mark.parametrize("gen", [
    *(diffops.spherical_laplacian_op(n) for n in (3, 5, 12, 50, 1000)),
    diffops.spherical_laplacian_op(7) + 0.25 * diffops.EULER,
], ids=["sphere-3", "sphere-5", "sphere-12", "sphere-50", "sphere-1000", "sphere-7-plus-euler"])
def test_flow_weights_keep_the_frozen_bits(gen):
    # the batched stopping test and the integer nodes move no bit and change no
    # error: degrees 0-60, nodes merged to overflowing, both directions in time.
    # Linear groups (a2 = 0) left this route; their weights are held to
    # test_linear_flow_weights_match_the_60_digit_reference
    [g] = gen.groups
    errors = set()
    for t in _FROZEN_TIMES:
        for m in range(61):
            want = _bits(flow_weights_frozen, g.a2, g.a1, g.c, t, m)
            assert _bits(semigroup._flow_weights, g.a2, g.a1, g.c, t, m) == want, (t, m)
            if isinstance(want, type):
                errors.add(want)
    assert errors == {OverflowError}


def test_flow_weights_keep_the_frozen_bits_on_random_flows():
    rng = seeded_rng(28)

    def coefficient():
        return rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                           rng.uniform(-3.0, 3.0)))

    errors = set()
    for _ in range(2000):
        a2, a1, c = coefficient(), coefficient(), rng.choice((1, Fraction(1, 2), 0.3, coefficient()))
        t = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-9.0, 3.0)
        t = rng.choice((t, t, t, Fraction(t).limit_denominator(64), math.inf, math.nan))
        m = rng.randint(0, 60)
        if not a2 and a1 and c and m > 1:
            continue  # a linear flow at two or more nodes: closed form, not the frozen route
        want = _bits(flow_weights_frozen, a2, a1, c, t, m)
        assert _bits(semigroup._flow_weights, a2, a1, c, t, m) == want, (a2, a1, c, t, m)
        if isinstance(want, type):
            errors.add(want)
    for _ in range(300):
        # raw nodes: signed zeros, spreads from merged to overflowing
        z = [rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0)))
             for _ in range(rng.randint(1, 40))]
        s = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3.0, 3.0)
        want = _bits(lambda *args: exp_divided_differences_frozen(*args).tolist(), z, s)
        assert _bits(lambda *args: semigroup._exp_divided_differences(*args).tolist(), z, s) == want
    assert errors == {OverflowError, ValueError}


_LINEAR_TIMES = tuple(sign * t for t in (1e-9, 1e-3, 0.05, 0.25, 0.5, 1.0, 1.7, 3.0, 10.0, 41.0, 100.0)
                      for sign in (1, -1))


@pytest.mark.parametrize("gen", [
    diffops.HERMITE,
    0.3 * diffops.HERMITE,
    GroupGenerator((Group("x", None, 0, -0.35, 0.45),)),
    diffops.G_K,
    diffops.g_uv_op(2),
    diffops.EULER + diffops.LAPLACIAN,
], ids=["hermite", "0.3-hermite", "a1-0.35-c0.45", "g-k", "g-uv", "euler-plus-laplacian"])
def test_linear_flow_weights_match_the_60_digit_reference(gen):
    # equally spaced nodes, degrees 0-60, merged to far apart, both directions in
    # time: every weight within 1e-12 relative (one below the normal range to
    # within its last bits), and OverflowError only where a weight does not fit
    for g in gen.groups:
        for t in _LINEAR_TIMES:
            for m in range(61):
                want = linear_flow_weights_reference(g.a1, g.c, t, m)
                try:
                    weights = semigroup._flow_weights(g.a2, g.a1, g.c, t, m)
                except OverflowError:
                    assert max(map(abs, want)) > sys.float_info.max, (g, t, m)
                    continue
                assert len(weights) == len(want)
                for w, x in zip(weights, want):
                    assert abs(w - x) <= 1e-12 * abs(x) + 2.0 ** -1073, (g, t, m)


def test_linear_flow_weights_reference_is_the_divided_difference_sum():
    # the reference's forward-difference closed form against the Lagrange sum
    for t in (0.5, 1.0, 3.0, -1.0):
        for m in range(15):
            z = [-t * d for d in range(m, -1, -2)]  # Hermite nodes, exact in floats
            want = _exp_divided_differences_reference(z, t)
            got = [float(w) for w in linear_flow_weights_reference(-1, 1, t, m)]
            assert got == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("k,l", [(3, 6), (4, 8), (5, 8)])
def test_graded_flow_matches_dense_exponential(k, l):
    rng = seeded_rng(24 + k)
    for op, t in ((diffops.spherical_laplacian_op(k + 3), 0.45), (diffops.HERMITE, 0.8)):
        keys, _, dense = graded_matrices(op, t, k, l)
        expm = scipy.linalg.expm(t * dense)
        for _ in range(2):
            p = random_real_poly(rng, k=k, degree=l, terms=6)
            assert set(p.terms) <= set(keys)
            coords = np.array([float(p.terms.get(key, 0)) for key in keys])
            via_dense = RealPoly(dict(zip(keys, expm.dot(coords))), "float")
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


def test_flow_tables_are_bounded():
    # one table per (group, time, exactness), the least recently used dropped
    # past 256 tables; a dropped table is rebuilt with the same weights
    semigroup._flow_table.cache_clear()
    gen = diffops.spherical_laplacian_op(25)
    first = dict(semigroup.monomial_flows(gen, 0.001)((4, 2)))
    for i in range(2, 302):
        semigroup.monomial_flows(gen, 0.001 * i)((4, 2))
    assert semigroup._flow_table.cache_info().currsize == 256
    assert semigroup.monomial_flows(gen, 0.001)((4, 2)) == first
    semigroup._flow_table.cache_clear()


def test_memos_stay_bounded_over_distinct_dimensions():
    # each n brings its own sphere Laplacian and flow table; both memos keep
    # at most 256
    f = holomorphic_extend(X1 ** 2 + X2)
    for n in range(3, 2003):
        measures.norm2(measures.MeasureSpec.quadric(n, 0.5), f)
    for memo in (diffops.spherical_laplacian_op, semigroup._flow_table):
        assert memo.cache_info().currsize == 256, memo


def test_generator_whose_flow_key_was_dropped_flows_as_a_fresh_one():
    # a generator built anew from gen's groups, after 256 others, gets flow
    # keys of its own, and both flow bit for bit alike
    gens = [diffops.spherical_laplacian_op(9), diffops.g_uv_op(2), diffops.LAPLACIAN]
    for n in range(3000, 3256):
        diffops.jsq_a_op(n)
    keys = [(3, 1, 2), (2, 0, 4, 1), (5,)]
    for gen, t in zip(gens, (0.3, -0.45, Fraction(2, 3))):
        fresh = GroupGenerator(gen.groups, gen.n)
        assert not set(map(id, fresh.flow_keys)) & set(map(id, gen.flow_keys))
        for key in keys:
            old = semigroup.monomial_flows(gen, t)(key)
            new = semigroup.monomial_flows(fresh, t)(key)
            assert {k: float(v).hex() for k, v in old.items()} == (
                {k: float(v).hex() for k, v in new.items()}) and old == new


@pytest.mark.parametrize("times", [(Fraction(1, 2), 0.5), (0.5, Fraction(1, 2))],
                         ids=["exact-first", "float-first"])
def test_flow_exactness_follows_the_time_and_the_generator(times):
    # Fraction(1, 2) and 0.5 hash alike but keep their own tables: the heat
    # flow is exact at the rational time and float at the float one, in
    # either order
    semigroup._flow_table.cache_clear()
    flows = {type(t): monomial_flows(diffops.LAPLACIAN, t)((4,)) for t in times}
    assert flows[Fraction] == {(4,): 1, (2,): 6, (): 3}
    assert {type(v) for v in flows[Fraction].values()} == {Fraction}
    assert flows[float] == {(4,): 1.0, (2,): 6.0, (): 3.0}
    assert {type(v) for v in flows[float].values()} == {float}


def test_a_rational_time_flows_in_floats_where_a_lambda_is_not_zero():
    # the Hermite flow of x1^2 at t = 1/2 is e^-1 x1^2 + (1 - e^-1), the float
    # flow at 0.5 bit for bit; the Euler flow of x1^3 at t = 1 is e^3 x1^3
    flow = monomial_flows(diffops.HERMITE, Fraction(1, 2))((2,))
    assert {k: v.hex() for k, v in flow.items()} == {
        k: v.hex() for k, v in monomial_flows(diffops.HERMITE, 0.5)((2,)).items()}
    assert flow == pytest.approx({(2,): math.exp(-1), (): -math.expm1(-1)}, rel=1e-15)
    assert monomial_flows(diffops.EULER, 1)((3,)) == pytest.approx({(3,): math.exp(3)}, rel=1e-15)
    out = exp_graded(diffops.HERMITE, Fraction(1, 2), X1 ** 2)
    assert out.mode == "float" and out == exp_graded(diffops.HERMITE, 0.5, X1 ** 2)


def test_flow_tables_stay_bounded_under_concurrent_threads():
    # eight threads at a 1 us switch interval add and drop tables at once;
    # every flow is bitwise the serial one and the bound holds
    import sys
    from concurrent.futures import ThreadPoolExecutor

    gen = diffops.spherical_laplacian_op(9)
    times = [0.01 * i for i in range(1, 1501)]
    semigroup._flow_table.cache_clear()
    serial = [semigroup.monomial_flows(gen, t)((3, 1)) for t in times]
    semigroup._flow_table.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda t: semigroup.monomial_flows(gen, t)((3, 1)), t)
                       for t in times]
            values = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(switch)
    assert semigroup._flow_table.cache_info().currsize == 256
    semigroup._flow_table.cache_clear()
    assert values == serial
