import json
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbtlab import polyalg
from sbtlab.polyalg import (
    EXACT,
    FLOAT,
    CxPoly,
    GaussianRational,
    HolomorphicityError,
    ModeMismatchError,
    RealPoly,
    coeff_distance,
    cx_poly_from_json,
    holomorphic_extend,
    poly_to_json,
    real_poly_from_json,
)
from sbtlab.suite import random_real_poly

from conftest import eval_plan_frozen, seeded_rng

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)
A1 = CxPoly.a(0)
A2 = CxPoly.a(1)
ABAR1 = CxPoly.abar(0)
ABAR2 = CxPoly.abar(1)


def test_additive_cancellation():
    assert (X1 ** 2 + 1) + RealPoly.constant(-1) == X1 ** 2


def test_monomial_product():
    assert X1 * X1 == X1 ** 2


def test_scale_by_zero_empties_support():
    p = X1 ** 2 + 3 * X2
    assert p.scale(0).terms == {}


def test_trailing_zeros_are_invisible():
    assert RealPoly({(2, 0, 0): 1}) == RealPoly({(2,): 1})
    assert RealPoly({(2, 0): 1}).width() == 1


def test_mode_mismatch_rejected():
    with pytest.raises(ModeMismatchError):
        X1 + X1.to_float()
    with pytest.raises(ModeMismatchError):
        X1 * X1.to_float()
    with pytest.raises(ModeMismatchError):
        X1.scale(0.5)


def test_ring_axioms_on_random_inputs():
    rng = seeded_rng(5)
    for _ in range(25):
        a = random_real_poly(rng, k=3, degree=4, terms=4)
        b = random_real_poly(rng, k=3, degree=4, terms=4)
        c = random_real_poly(rng, k=3, degree=4, terms=4)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_holomorphic_extend_examples():
    assert holomorphic_extend(X1 ** 2) == A1 ** 2
    assert holomorphic_extend(3 * X1 * X2 - 1) == 3 * A1 * A2 - 1
    assert holomorphic_extend(RealPoly.zero()) == CxPoly.zero()


def test_holomorphic_extend_is_ring_homomorphism():
    rng = seeded_rng(6)
    for _ in range(15):
        p = random_real_poly(rng, k=3, degree=3, terms=4)
        q = random_real_poly(rng, k=3, degree=3, terms=4)
        assert holomorphic_extend(p * q) == holomorphic_extend(p) * holomorphic_extend(q)
        assert holomorphic_extend(p + q) == holomorphic_extend(p) + holomorphic_extend(q)


def test_extension_restricts_back_to_input():
    p = 2 * X1 ** 3 - X2 + 5
    q = holomorphic_extend(p)
    for point in [(0.5, -1.25), (2.0, 3.0)]:
        assert q.evaluate(point) == pytest.approx(float(p.evaluate(point)))


def test_conjugate_examples():
    assert A1.conjugate() == ABAR1
    i = GaussianRational(0, 1)
    assert (A1 * ABAR2).scale(i).conjugate() == (ABAR1 * A2).scale(-i)
    q = A1 * A2 + ABAR1.scale(GaussianRational(1, 2)) + 3
    assert q.conjugate().conjugate() == q


def test_conjugate_is_ring_antiautomorphism():
    q1 = A1 + ABAR2.scale(GaussianRational(0, 1))
    q2 = A1 * A2 - ABAR1
    assert (q1 * q2).conjugate() == q1.conjugate() * q2.conjugate()


def test_mod_square_examples():
    assert A1.mod_square() == A1 * ABAR1
    scaled = A1.scale(GaussianRational(Fraction(1, 2)))
    assert scaled.mod_square() == (A1 * ABAR1).scale(GaussianRational(Fraction(1, 4)))
    assert (A1 + 1).mod_square() == A1 * ABAR1 + A1 + ABAR1 + 1


def test_mod_square_real_nonnegative_values():
    q = A1 * A2 - 2 * A1 + CxPoly.constant(GaussianRational(0, 1))
    sq = q.mod_square()
    for point in [(0.3 + 1j, -2j), (1.0, 1.0)]:
        value = sq.evaluate(point)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real >= 0


def test_mod_square_rejects_non_holomorphic():
    with pytest.raises(HolomorphicityError):
        (A1 + ABAR1).mod_square()


def test_evaluate_examples():
    assert (X1 ** 2 + 1).evaluate([2]) == 5
    assert (A1 * ABAR1).evaluate([1j]) == pytest.approx(1.0)
    q = 4 * X1 * X2 + 7
    assert q.evaluate([0, 0]) == 7


def test_evaluate_needs_enough_coordinates():
    with pytest.raises(ValueError):
        (X1 * X2).evaluate([1.0])


@pytest.mark.parametrize("pts, message", [
    (np.ones((4, 2)), "need 3 coordinates, got 2"),
    (np.ones(3), r"need an \(n, 3\) array of points, got shape \(3,\)"),
    (np.ones((2, 4, 3)), r"need an \(n, 3\) array of points, got shape \(2, 4, 3\)"),
], ids=["two-columns", "1-d", "3-d"])
def test_eval_array_needs_an_array_of_points_with_enough_coordinates(pts, message):
    for p in (X1 * X2 + RealPoly.variable(2), A1 * ABAR2 + CxPoly.a(2)):
        with pytest.raises(ValueError, match=message):
            p.eval_array(pts)


def _gauss(z) -> GaussianRational:
    z = complex(z)
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 13, 24])
def test_eval_array_monomials_against_exact_values(degree):
    # powers are built by repeated multiplication, so a degree-d monomial
    # with coefficient 1 carries at most d - 1 roundings
    rng = np.random.default_rng(degree)
    real_pts = rng.uniform(-1.5, 1.5, size=(64, 2))
    cx_pts = real_pts + 1j * rng.uniform(-1.5, 1.5, size=(64, 2))
    half = degree // 2
    cases = [
        (X2 ** degree, real_pts, lambda x: Fraction(x[1]) ** degree),
        (A1 ** degree, cx_pts, lambda z: _gauss(z[0]) ** degree),
        (ABAR1 ** degree, cx_pts, lambda z: _gauss(z[0]).conjugate() ** degree),
        (A1 ** half * ABAR2 ** (degree - half), cx_pts,
         lambda z: _gauss(z[0]) ** half * _gauss(z[1]).conjugate() ** (degree - half)),
    ]
    bound2 = Fraction(degree ** 2, 2 ** 104)
    for mono, pts, exact in cases:
        for point, value in zip(pts, mono.to_float().eval_array(pts)):
            want = exact(point)
            if isinstance(want, Fraction):
                assert (Fraction(value) - want) ** 2 <= bound2 * want ** 2
            else:
                gap = _gauss(value) - want
                assert gap.re ** 2 + gap.im ** 2 <= bound2 * (want.re ** 2 + want.im ** 2)


def _table_rows(p) -> int:
    """Distinct monomials of each part: the rows an _EvalPlan budgets its block size for."""
    parts = [p._parts(key) for key in p.terms]
    return sum(len({key[side] for key in parts}) for side in range(len(p._names)))


_EVAL_BLOCK = 8     # points per block in the test below


@pytest.mark.parametrize("count", [_EVAL_BLOCK, _EVAL_BLOCK + 1, 3 * _EVAL_BLOCK + 5],
                         ids=["one-block", "block+1", "several-blocks"])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("family", [RealPoly, CxPoly])
def test_eval_array_equals_evaluate_across_blocks(monkeypatch, family, mode, count):
    # gap bounded by 1e-13 of sum |c| |monomial|, the size of the rounded terms
    p = random_real_poly(seeded_rng(61), k=3, degree=6, terms=6)
    pts = np.random.default_rng(count).uniform(-1.5, 1.5, size=(count, 3))
    if family is CxPoly:
        p = holomorphic_extend(p).mod_square() + (A2 * ABAR1 ** 2).scale(GaussianRational(1, -2))
        pts = pts + 1j * np.random.default_rng(count + 1).uniform(-1.5, 1.5, size=(count, 3))
    if mode == FLOAT:
        p = p.to_float()
    size = family({key: abs(complex(c)) for key, c in p.terms.items()}, FLOAT)
    itemsize = np.dtype(p._float).itemsize
    monkeypatch.setattr(polyalg, "EVAL_BLOCK_BYTES", _table_rows(p) * itemsize * _EVAL_BLOCK)
    values = p.eval_array(pts)
    assert values.dtype == np.dtype(p._float) and values.shape == (count,)
    for point, value in zip(pts, values):
        assert abs(value - p.evaluate(point)) <= 1e-13 * size.evaluate(np.abs(point)).real


@pytest.mark.parametrize("family", [RealPoly, CxPoly])
def test_eval_array_gives_a_point_the_same_bits_in_any_block(monkeypatch, family):
    p = random_real_poly(seeded_rng(62), k=3, degree=6, terms=6).to_float()
    pts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(20_001, 3))
    if family is CxPoly:
        p = holomorphic_extend(p).mod_square() + (A2 * ABAR1 ** 2).to_float().scale(1 - 2j)
        pts = pts + 1j * np.random.default_rng(6).uniform(-1.5, 1.5, size=(20_001, 3))
    values = p.eval_array(pts)
    assert polyalg._EvalPlan(p).step < len(pts)
    for block_bytes in (polyalg.EVAL_BLOCK_BYTES // 2, 1):  # half, then one point a block
        monkeypatch.setattr(polyalg, "EVAL_BLOCK_BYTES", block_bytes)
        assert p.eval_array(pts).tobytes() == values.tobytes()
    assert b"".join(p.eval_array(pts[i:i + 1]).tobytes() for i in range(50)) == \
        values[:50].tobytes()


def test_eval_plan_gives_a_monomial_of_one_factor_no_row_of_its_own():
    # a monomial of one factor is read from its coordinate, conjugate or power
    # row.  |p|^2 of p = a1 + 2 a2 + 3 a3 + a1^2: power rows for a1^2 and
    # abar1^2, three conjugate rows, and the term and scratch rows.  Its real
    # image x1 + 2 x2 + 3 x3 + x1^2: the power row of x1^2 and the scratch row.
    p = A1 + A2.scale(2) + CxPoly.a(2).scale(3) + A1 ** 2
    sq = p.mod_square()
    assert polyalg._EvalPlan(sq).rows == 7
    assert polyalg._EvalPlan(X1 + X2.scale(2) + RealPoly.variable(2).scale(3) + X1 ** 2).rows == 2
    pts = np.array([[0.5 - 1j, 2.0 + 0.25j, -1.5 + 0.5j], [1.0, -2.0j, 0.75 + 0.75j]])
    np.testing.assert_allclose(sq.eval_array(pts), [sq.evaluate(point) for point in pts], rtol=1e-13)


def _plan_cases():
    rng = seeded_rng(63)
    holomorphic = holomorphic_extend(random_real_poly(rng, k=3, degree=5, terms=6))
    multi = random_real_poly(rng, k=4, degree=8, terms=10)
    return {
        "constant": RealPoly.constant(Fraction(-7, 3)),
        "cx-constant": CxPoly.constant(GaussianRational(1, -2)),
        "first-powers": X1 - X2.scale(Fraction(3, 2)) + RealPoly.variable(3).scale(5),
        "pure-powers": X1 ** 5 + X2 ** 2 - X1 ** 2 + RealPoly.variable(2) ** 3,
        "multi-factor": multi + RealPoly.constant(1),
        "holomorphic": holomorphic * holomorphic,
        "mod-square": holomorphic.mod_square(),
        "mixed-cx": holomorphic.mod_square() + (A2 * ABAR1 ** 2).scale(GaussianRational(1, -2))
        + CxPoly.constant(3),
    }


@pytest.mark.parametrize("count, block", [(1, None), (700, None), (3000, 7)],
                         ids=["one-point", "one-block", "several-blocks"])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("case", list(_plan_cases()))
def test_eval_plan_gives_the_frozen_plans_bits(monkeypatch, case, mode, count, block):
    p = _plan_cases()[case]
    if mode == FLOAT:
        p = p.to_float()
    width = max(p.width(), 1)
    gen = np.random.default_rng(count)
    pts = gen.uniform(-1.5, 1.5, size=(count, width))
    if isinstance(p, CxPoly):
        pts = pts + 1j * gen.uniform(-1.5, 1.5, size=(count, width))
    if block:
        monkeypatch.setattr(polyalg, "EVAL_BLOCK_BYTES",
                            _table_rows(p) * np.dtype(p._float).itemsize * block)
    plan, frozen = polyalg._EvalPlan(p), eval_plan_frozen(p)
    assert plan.step == frozen.step and (plan.step < count) == bool(block)
    assert len(plan.multiplies) == len(frozen.multiplies)
    assert plan.rows <= frozen.rows + 1
    values = []
    for each in (plan, frozen):
        out = np.empty(count, dtype=each.dtype)
        each.run(pts.T, out, each.workspace(count))
        values.append(out.tobytes())
    assert values[0] == values[1]
    assert p.eval_array(pts).tobytes() == values[1]


@pytest.mark.parametrize("family, pts", [
    (RealPoly, np.linspace(-1, 1, 10).reshape(5, 2)),
    (CxPoly, np.linspace(-1, 1, 10).reshape(5, 2) * (1 - 2j)),
], ids=["real", "complex"])
def test_eval_array_of_zero_and_constant(family, pts):
    dtype = np.dtype(family._float)
    for mode in (EXACT, FLOAT):
        zero = family.zero(mode).eval_array(pts)
        assert zero.dtype == dtype and zero.shape == (5,) and not zero.any()
        for c in (Fraction(3, 2) if mode == EXACT else 1.5, -2):
            const = family.constant(c, mode).eval_array(pts)
            assert const.dtype == dtype and (const == float(c)).all()
    if family is CxPoly:
        const = CxPoly.constant(GaussianRational(1, -2)).eval_array(pts)
        assert (const == 1 - 2j).all()


_RATIONAL_PARTS = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(-3, 3, max_denominator=7)
)
_OPERANDS = st.one_of(
    st.integers(-4, 4),
    st.fractions(-3, 3, max_denominator=7),
    st.builds(GaussianRational, _RATIONAL_PARTS, _RATIONAL_PARTS),
)


def _textbook_parts(value) -> tuple:
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


@settings(max_examples=300, deadline=None)
@given(st.builds(GaussianRational, _RATIONAL_PARTS, _RATIONAL_PARTS), _OPERANDS,
       st.integers(0, 5))
def test_gaussian_rational_arithmetic_is_the_textbook_formula(g, other, n):
    a, b = g.re, g.im
    c, d = _textbook_parts(other)
    power = (Fraction(1), Fraction(0))
    for _ in range(n):
        power = (power[0] * a - power[1] * b, power[0] * b + power[1] * a)
    cases = [
        (g + other, (a + c, b + d)),
        (other + g, (a + c, b + d)),
        (g - other, (a - c, b - d)),
        (other - g, (c - a, d - b)),
        (g * other, (a * c - b * d, a * d + b * c)),
        (other * g, (a * c - b * d, a * d + b * c)),
        (-g, (-a, -b)),
        (g.conjugate(), (a, -b)),
        (g ** n, power),
    ]
    for got, want in cases:
        assert type(got) is GaussianRational
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert (got.re, got.im) == want


def test_gaussian_rational_hashes_as_the_number_it_equals():
    for value in (1, Fraction(1, 2), Fraction(-7, 3), 0):
        assert GaussianRational(value) == value
        assert hash(GaussianRational(value)) == hash(value)
    assert len({GaussianRational(1), 1}) == 1
    assert len({GaussianRational(1, 1), GaussianRational(1), 1}) == 2


def test_scale_raises_where_a_float_coefficient_overflows():
    for p in (RealPoly.variable(0, FLOAT), CxPoly.a(0, FLOAT)):
        big = p.scale(1e300)
        with pytest.raises(OverflowError):
            big.scale(1e300)
        with pytest.raises(OverflowError):
            1e300 * big
    assert (X1 * 10 ** 400).scale(10 ** 400) == X1 * 10 ** 800


def test_float_dilate_rounds_each_coefficient_once():
    # 1e-300 * 1e200^2 fits; lam^2 alone does not
    p = RealPoly({(2,): 1e-300, (1,): 3.0, (): -0.5}, FLOAT).dilate(1e200)
    assert p.coefficient((2,)) == float(Fraction(1e-300) * Fraction(1e200) ** 2)
    assert p.coefficient((1,)) == float(Fraction(3.0) * Fraction(1e200))
    assert p.coefficient(()) == -0.5
    # one rounding of c * lam^3, where rounding lam^3 first gives other bits
    lam, c = 0.7, 0.7
    q = RealPoly({(3,): c}, FLOAT).dilate(lam)
    assert q.coefficient((3,)) == float(Fraction(c) * Fraction(lam) ** 3) != c * lam ** 3
    with pytest.raises(OverflowError):
        RealPoly({(2,): 1.0}, FLOAT).dilate(1e200)


def test_dilate_examples():
    assert (A1 ** 2).to_float().dilate(0.5) == (A1 ** 2).to_float().scale(0.25)
    q = A1 * ABAR1 + 2
    assert q.dilate(1) == q
    p = X1 + X2 ** 2
    assert p.dilate(Fraction(3)) == 3 * X1 + 9 * X2 ** 2


def test_dilate_composes():
    p = X1 ** 3 - 2 * X2
    assert p.dilate(Fraction(2)).dilate(Fraction(5, 2)) == p.dilate(Fraction(5))
    q = holomorphic_extend(p).to_float()
    assert coeff_distance(q.dilate(1.1).dilate(0.7), q.dilate(0.77)) < 1e-12


def test_dilate_matches_point_rescaling():
    q = (A1 ** 2 + A2 - 1).to_float()
    lam = 0.8 - 0.3j
    point = [0.4 + 0.2j, -1.0 + 1j]
    scaled_point = [lam * z for z in point]
    assert q.dilate(lam).evaluate(point) == pytest.approx(q.evaluate(scaled_point))


def test_degree_and_width():
    p = X1 ** 2 * X2 + X2
    assert p.degree() == 3
    assert p.width() == 2
    assert RealPoly.zero().degree() == 0
    assert (A1 * ABAR1 ** 2).degree() == 3


def test_json_round_trip_exact_and_float():
    p = X1 ** 2 - RealPoly.constant(Fraction(1, 3))
    rows = poly_to_json(p)
    assert rows[0]["re"].count("/") == 1
    assert real_poly_from_json(json.loads(json.dumps(rows))) == p

    q = (A1 * ABAR2).scale(GaussianRational(1, 2)) + A1
    assert cx_poly_from_json(poly_to_json(q)) == q

    qf = q.to_float()
    assert cx_poly_from_json(poly_to_json(qf)) == qf

    # a float zero reads back as float, so it adds to float polynomials
    assert real_poly_from_json(poly_to_json(RealPoly.zero(FLOAT))) + X1.to_float() == X1.to_float()
    assert cx_poly_from_json(poly_to_json(CxPoly.zero(FLOAT))) + qf == qf


def test_coeff_distance_exact():
    p = X1 ** 2 + X2
    q = X1 ** 2 + X2.scale(Fraction(9, 10))
    assert coeff_distance(p, q) == Fraction(1, 10)
    assert coeff_distance(p, p) == 0


def test_conjugate_fixes_symmetric_real_polynomials():
    sq = (A1 ** 2 + 2 * A1 * A2 - 1).mod_square()
    assert sq.conjugate() == sq


# ---------------------------------------------------------------------------
# powers and trusted construction of ring-op results


def test_power_is_the_repeated_product():
    rng = seeded_rng(13)
    for _ in range(4):
        p = random_real_poly(rng, k=3, degree=3, terms=3)
        q = holomorphic_extend(p) * ABAR1 + A2.scale(GaussianRational(1, -2))
        for base, one in ((p, RealPoly.constant(1)), (q, CxPoly.constant(1))):
            product = one
            for n in range(8):
                assert base ** n == product
                product = product * base


_EXPONENTS = st.lists(st.integers(0, 3), max_size=3).map(tuple)
# tiny values make float products and conversions underflow to zero
_RATIONALS = st.fractions(-4, 4, max_denominator=6) | st.just(Fraction(1, 10 ** 400))
_FLOATS = st.floats(-1e3, 1e3) | st.sampled_from([1e-200, -3e-170, 5e-324])
_SCALARS = {
    (RealPoly, EXACT): _RATIONALS,
    (RealPoly, FLOAT): _FLOATS,
    (CxPoly, EXACT): st.builds(GaussianRational, _RATIONALS, _RATIONALS),
    (CxPoly, FLOAT): st.builds(complex, _FLOATS, _FLOATS),
}
_COEFF_TYPES = {
    (RealPoly, EXACT): Fraction,
    (RealPoly, FLOAT): float,
    (CxPoly, EXACT): GaussianRational,
    (CxPoly, FLOAT): complex,
}


@st.composite
def _poly_pairs(draw):
    family = draw(st.sampled_from((RealPoly, CxPoly)))
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    key = _EXPONENTS if family is RealPoly else st.tuples(
        _EXPONENTS, st.one_of(st.just(()), _EXPONENTS)
    )
    polys = st.dictionaries(key, _SCALARS[family, mode], max_size=5)
    p, q = (family(draw(polys), mode) for _ in range(2))
    return p, q, draw(_SCALARS[family, mode])


def _assert_canonical(r):
    assert r == type(r)(r.terms, r.mode)
    want = _COEFF_TYPES[type(r), r.mode]
    assert all(type(c) is want for c in r.terms.values())


@settings(max_examples=200, deadline=None)
@given(_poly_pairs())
def test_ring_op_results_equal_their_revalidated_copies(pair):
    p, q, c = pair
    results = [p + q, p - q, -p, p * q, p.scale(c), p.to_float(), p ** 2]
    if isinstance(p, RealPoly):
        results += [holomorphic_extend(p), holomorphic_extend(p).mod_square()]
    else:
        results += [p.conjugate(), p * q.conjugate()]
        if p.is_holomorphic():
            results.append(p.mod_square())
    for r in results:
        _assert_canonical(r)


# ---------------------------------------------------------------------------
# families never mix; JSON reading has one exactness rule; printed forms


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"])
def test_mixing_families_raises_type_error_in_both_orders(op):
    for left, right in ((X1, A1), (A1, X1)):
        with pytest.raises(TypeError):
            op(left, right)


def test_json_rows_mixing_exact_and_float_numbers_are_rejected():
    with pytest.raises(ValueError, match="num/den"):
        cx_poly_from_json([{"a_exponents": [1], "abar_exponents": [], "re": "1/2", "im": 0.1}])
    exact_row = {"a_exponents": [1], "abar_exponents": [], "re": "1/2", "im": "0/1"}
    float_row = {"a_exponents": [2], "abar_exponents": [], "re": 0.5, "im": 0.0}
    for read in (real_poly_from_json, cx_poly_from_json):
        with pytest.raises(ValueError, match="num/den") as caught:
            read([exact_row, float_row])
        assert not isinstance(caught.value, ModeMismatchError)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_float_coefficients_are_rejected(bad):
    for build in (lambda: RealPoly({(1,): 1.0, (): bad}, FLOAT),
                  lambda: CxPoly({((1,), ()): complex(0.5, bad)}, FLOAT),
                  lambda: CxPoly.constant(bad, FLOAT),
                  lambda: X1.to_float().scale(bad),
                  lambda: A1.to_float() * bad,
                  lambda: X1.to_float() + bad,
                  lambda: bad - A1.to_float()):
        with pytest.raises(ValueError, match="coefficients must be finite, got .*(inf|nan)"):
            build()
    row = {"a_exponents": [1], "abar_exponents": [], "re": bad, "im": 0.0}
    for read in (real_poly_from_json, cx_poly_from_json):
        # JSON writes these as Infinity, -Infinity and NaN
        with pytest.raises(ValueError, match="coefficients must be finite"):
            read(json.loads(json.dumps([row])))


def test_real_json_rows_reject_abar_exponents_and_imaginary_parts():
    row = {"a_exponents": [], "abar_exponents": [1], "re": 0.25, "im": -1.0}
    with pytest.raises(ValueError, match="abar exponents"):
        real_poly_from_json([row])
    with pytest.raises(ValueError, match="imaginary parts"):
        real_poly_from_json([dict(row, abar_exponents=[])])


def _golden_polys():
    G = GaussianRational
    real = 3 * X1 * X2 ** 2 - X1 ** 2 + RealPoly.constant(Fraction(-1, 3)) + X2
    cx = (A1 * ABAR2).scale(G(1, -2)) + A1 ** 2 + ABAR1.scale(G(Fraction(3, 4), Fraction(1, 5))) \
        + CxPoly.constant(G(0, 1)) + A2
    cx_float = ((A1 * ABAR2).scale(G(1, -2)) + A1 ** 2 + CxPoly.constant(G(Fraction(1, 3)))) \
        .to_float() + ABAR1.to_float().scale(0.5j)
    return {
        "real_exact": real,
        "real_float": (real - X2).to_float() + 0.1 * X1.to_float(),
        "real_zero_exact": RealPoly.zero(),
        "real_zero_float": RealPoly.zero(FLOAT),
        "cx_exact": cx,
        "cx_float": cx_float,
        "cx_zero_exact": CxPoly.zero(),
        "cx_zero_float": CxPoly.zero(FLOAT),
    }


_GOLDEN_STR = {
    "real_exact": "-1/3 + 1*x2 + -1*x1^2 + 3*x1*x2^2",
    "real_float": "-0.3333333333333333 + 0.1*x1 + -1.0*x1^2 + 3.0*x1*x2^2",
    "real_zero_exact": "0",
    "real_zero_float": "0",
    "cx_exact": "(0+1i) + (3/4+1/5i)*abar1 + 1*a2 + (1-2i)*a1*abar2 + 1*a1^2",
    "cx_float": "0.3333333333333333 + 0.5j*abar1 + (1-2j)*a1*abar2 + 1.0*a1^2",
    "cx_zero_exact": "0",
    "cx_zero_float": "0",
}

_GOLDEN_JSON = {
    "real_exact": '[{"a_exponents": [], "abar_exponents": [], "re": "-1/3", "im": "0/1"}, '
                  '{"a_exponents": [0, 1], "abar_exponents": [], "re": "1/1", "im": "0/1"}, '
                  '{"a_exponents": [2], "abar_exponents": [], "re": "-1/1", "im": "0/1"}, '
                  '{"a_exponents": [1, 2], "abar_exponents": [], "re": "3/1", "im": "0/1"}]',
    "real_float": '[{"a_exponents": [], "abar_exponents": [], "re": -0.3333333333333333, '
                  '"im": 0.0}, '
                  '{"a_exponents": [1], "abar_exponents": [], "re": 0.1, "im": 0.0}, '
                  '{"a_exponents": [2], "abar_exponents": [], "re": -1.0, "im": 0.0}, '
                  '{"a_exponents": [1, 2], "abar_exponents": [], "re": 3.0, "im": 0.0}]',
    "real_zero_exact": "[]",
    "real_zero_float": '[{"a_exponents": [], "abar_exponents": [], "re": 0.0, "im": 0.0}]',
    "cx_exact": '[{"a_exponents": [], "abar_exponents": [], "re": "0/1", "im": "1/1"}, '
                '{"a_exponents": [], "abar_exponents": [1], "re": "3/4", "im": "1/5"}, '
                '{"a_exponents": [0, 1], "abar_exponents": [], "re": "1/1", "im": "0/1"}, '
                '{"a_exponents": [1], "abar_exponents": [0, 1], "re": "1/1", "im": "-2/1"}, '
                '{"a_exponents": [2], "abar_exponents": [], "re": "1/1", "im": "0/1"}]',
    "cx_float": '[{"a_exponents": [], "abar_exponents": [], "re": 0.3333333333333333, '
                '"im": 0.0}, '
                '{"a_exponents": [], "abar_exponents": [1], "re": 0.0, "im": 0.5}, '
                '{"a_exponents": [1], "abar_exponents": [0, 1], "re": 1.0, "im": -2.0}, '
                '{"a_exponents": [2], "abar_exponents": [], "re": 1.0, "im": 0.0}]',
    "cx_zero_exact": "[]",
    "cx_zero_float": '[{"a_exponents": [], "abar_exponents": [], "re": 0.0, "im": 0.0}]',
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_STR))
def test_printed_forms_are_pinned(name):
    p = _golden_polys()[name]
    assert str(p) == _GOLDEN_STR[name]
    assert repr(p) == f"{type(p).__name__}({_GOLDEN_STR[name]!r}, mode={p.mode!r})"
    assert json.dumps(poly_to_json(p)) == _GOLDEN_JSON[name]
    read = real_poly_from_json if isinstance(p, RealPoly) else cx_poly_from_json
    back = read(json.loads(_GOLDEN_JSON[name]))
    assert back == p and back.mode == p.mode
