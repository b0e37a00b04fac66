"""The exact hot paths on integer numerators against term-by-term Fraction references.

Products, operator actions, coefficient distances and pair-partition moments
of exact polynomials run on each polynomial's memoized integer form, and the
quadric squared norm sums its backward flow's binary rationals as integers;
the references in conftest do the same sums one Fraction at a time.  Float
products, scalings, actions, distances and complex moments are the exact
ones on the binary values, rounded once.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sbtlab import diffops, limits, measures, oracle, polyalg, semigroup, transforms
from sbtlab.polyalg import (
    EXACT,
    FLOAT,
    CxPoly,
    GaussianRational,
    RealPoly,
    coeff_distance,
    holomorphic_extend,
)

from conftest import (
    _sphere_monomial_moment,
    complex_moment_reference,
    fraction_apply,
    fraction_isserlis,
    fraction_product,
    fraction_squared_distance,
    quadric_norm2_reference,
)

_EXPONENTS = st.lists(st.integers(0, 3), max_size=3).map(tuple)
# mixed denominators, small numerators so that sums cancel, and one huge denominator
_RATIONALS = (st.fractions(-3, 3, max_denominator=6).filter(bool)
              | st.sampled_from([Fraction(1, 10 ** 40), Fraction(-7, 2 ** 70)]))
_GAUSSIANS = st.builds(GaussianRational, _RATIONALS, st.just(0) | _RATIONALS)
_REAL_POLYS = st.dictionaries(_EXPONENTS, _RATIONALS, max_size=6).map(RealPoly)
_CX_POLYS = st.dictionaries(st.tuples(_EXPONENTS, st.just(()) | _EXPONENTS), _GAUSSIANS,
                            max_size=6).map(CxPoly)
_HOLOMORPHIC = st.dictionaries(_EXPONENTS.map(lambda a: (a, ())), _GAUSSIANS,
                               max_size=6).map(CxPoly)

_REAL_OPERATORS = [
    diffops.LAPLACIAN, diffops.EULER, diffops.HERMITE,
    diffops.laplacian_op((0, 2)), diffops.euler_op((1,)),
    diffops.spherical_laplacian_op(5), diffops.spherical_laplacian_op(7) + diffops.HERMITE,
    diffops.HERMITE * Fraction(2, 3), diffops.g_uv_op(1), diffops.g_uv_op(2),
]
_CX_OPERATORS = [
    diffops.G_K, diffops.jsq_a_op(6), diffops.jsq_abar_op(6), diffops.gamma_n_op(7),
    diffops.G_K * Fraction(3, 5),
]


def _items(p) -> list:
    return list(p.terms.items())


def _bits(p) -> list:
    """p's terms in order, each coefficient as the hex of its parts; exact ones as they are."""
    if p.mode == EXACT:
        return _items(p)
    return [(key, (complex(c).real.hex(), complex(c).imag.hex())) for key, c in p.terms.items()]


def _binary_values(p):
    """The exact polynomial whose coefficients are the binary values of p's."""
    if p.mode == EXACT:
        return p
    if isinstance(p, RealPoly):
        return RealPoly({key: Fraction(c) for key, c in p.terms.items()})
    return CxPoly({key: GaussianRational(c.real, c.imag) for key, c in p.terms.items()})


def _exact_generator(gen):
    """gen with every group coefficient read at its binary value."""
    return diffops.GroupGenerator(tuple(
        g._replace(a2=Fraction(g.a2), a1=Fraction(g.a1), c=Fraction(g.c)) for g in gen.groups
    ), gen.n)


def _assert_form_matches(p):
    # the memoized integer form is the polynomial's own coefficients
    nums, den = p._memo["integer"]
    assert list(nums) == list(p.terms)
    for key, c in p.terms.items():
        if isinstance(p, CxPoly):
            assert (Fraction(nums[key][0], den), Fraction(nums[key][1], den)) == (c.re, c.im)
        else:
            assert Fraction(nums[key], den) == c


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(_REAL_POLYS, _REAL_POLYS), st.tuples(_CX_POLYS, _CX_POLYS)))
def test_exact_product_is_the_fraction_product_in_its_term_order(pair):
    p, q = pair
    for left, right in ((p, q), (q, p), (p, p), (p, -p), (p, p - p)):
        product = left * right
        assert _items(product) == list(fraction_product(left, right).items())
        _assert_form_matches(product)


def test_product_keeps_a_cancelled_key_out_and_reinserts_it_at_the_end():
    x1, x2 = RealPoly.variable(0), RealPoly.variable(1)
    assert _items((x1 + x2) * (x2 - x1)) == [((2,), -1), ((0, 2), 1)]
    assert _items((x1 + x2) * (x2 - x1 + x1 * x2)) == list(
        fraction_product(x1 + x2, x2 - x1 + x1 * x2).items())
    assert ((x1 - x1) * x2).is_zero()


@settings(max_examples=100, deadline=None)
@given(_HOLOMORPHIC, _REAL_POLYS)
def test_mod_square_and_extension_square_are_the_fraction_products(q, p):
    for r in (q, holomorphic_extend(p)):
        square = r.mod_square()
        assert _items(square) == list(fraction_product(r, r.conjugate()).items())
        _assert_form_matches(square)


@settings(max_examples=100, deadline=None)
@given(_REAL_POLYS, _CX_POLYS)
def test_every_named_operator_acts_as_the_fraction_reference(p, q):
    for gen, r in [(g, p) for g in _REAL_OPERATORS] + [(g, q) for g in _CX_OPERATORS]:
        out = gen.apply(r)
        assert _items(out) == _items(fraction_apply(gen, r))
        _assert_form_matches(out)
        # float mode is the exact action on the binary values, rounded once, bit for bit
        rf = r.to_float()
        assert _bits(gen.apply(rf)) == _bits(fraction_apply(gen, _binary_values(rf)).to_float())


# small and large magnitudes, so that sums cancel and products underflow to zero
_FLOATS = (st.floats(-8, 8, allow_nan=False, allow_infinity=False).filter(bool)
           | st.sampled_from([0.1, -0.7, 1e-200, -3e-170, 2.0 ** -1074]))
_REAL_FLOAT_POLYS = st.dictionaries(_EXPONENTS, _FLOATS, max_size=6).map(
    lambda terms: RealPoly(terms, FLOAT))
_CX_FLOAT_POLYS = st.dictionaries(
    st.tuples(_EXPONENTS, st.just(()) | _EXPONENTS),
    st.builds(complex, _FLOATS, st.just(0.0) | _FLOATS), max_size=6,
).map(lambda terms: CxPoly(terms, FLOAT))
# generators with float coefficients, which act on exact input too
_FLOAT_OPERATORS = {
    RealPoly: [diffops.HERMITE * 0.3, diffops.spherical_laplacian_op(5) * 0.7,
               diffops.g_uv_op(2) * 1.1],
    CxPoly: [diffops.G_K * 0.6, diffops.gamma_n_op(7) * 0.1],
}


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(_REAL_FLOAT_POLYS, _REAL_FLOAT_POLYS | _REAL_POLYS),
                 st.tuples(_CX_FLOAT_POLYS, _CX_FLOAT_POLYS | _CX_POLYS)))
@example((RealPoly({(1,): -0.8, (): -0.9}, FLOAT), RealPoly({(1,): 0.7, (): -0.1}, FLOAT)))
def test_float_results_are_the_exact_results_on_the_binary_values_rounded_once(pair):
    p, q = pair
    exact_p, exact_q = _binary_values(p), _binary_values(q)
    for left, right in ((p, q), (q, p), (p, exact_q)):
        assert coeff_distance(left, right).hex() == float(coeff_distance(exact_p, exact_q)).hex()
    if q.mode == FLOAT:
        for left, right in ((p, q), (p, p), (q, -p)):
            assert _bits(left * right) == _bits(
                (_binary_values(left) * _binary_values(right)).to_float())
    family = type(p)
    operators = _REAL_OPERATORS if family is RealPoly else _CX_OPERATORS
    for gen in operators + _FLOAT_OPERATORS[family]:
        for r in (p, q):
            want = _exact_generator(gen).apply(_binary_values(r))
            out = gen.apply(r)
            assert _bits(out) == _bits(want if out.mode == EXACT else want.to_float())
    if family is RealPoly:
        ns = (10, 1000)
        assert [e.hex() for e in limits.laplacian_limit(p, ns).errors] == [
            e.hex() for e in limits.laplacian_limit(exact_p, ns).errors]


_FLOAT_SCALARS = {RealPoly: _FLOATS, CxPoly: st.builds(complex, _FLOATS, st.just(0.0) | _FLOATS)}


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(_REAL_FLOAT_POLYS, _FLOAT_SCALARS[RealPoly]),
                 st.tuples(_CX_FLOAT_POLYS, _FLOAT_SCALARS[CxPoly])))
@example((CxPoly({((1,), ()): 0.1 + 0.2j}, FLOAT), 0.3 + 0.7j))
def test_float_scaling_is_the_exact_product_rounded_once(pair):
    p, c = pair
    exact_c = Fraction(c) if isinstance(p, RealPoly) else GaussianRational(c.real, c.imag)
    want = type(p)({key: v * exact_c for key, v in _binary_values(p).terms.items()}).to_float()
    for scaled in (p.scale(c), p * c, c * p):
        assert _bits(scaled) == _bits(want)


_LINEAR_KEYS = st.sampled_from([(1,), (0, 1), (0, 0, 1)])


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_LINEAR_KEYS, _FLOATS, min_size=1), _FLOAT_SCALARS[RealPoly],
       st.dictionaries(_LINEAR_KEYS.map(lambda a: (a, ())), _FLOAT_SCALARS[CxPoly], min_size=1),
       _FLOAT_SCALARS[CxPoly])
def test_scaling_a_linear_form_is_its_dilation(real_terms, lam, cx_terms, z):
    for p, c in ((RealPoly(real_terms, FLOAT), lam), (CxPoly(cx_terms, FLOAT), z)):
        assert _bits(p.scale(c)) == _bits(p.dilate(c))


def test_a_complex_scaling_rounds_each_part_once():
    # (0.1 + 0.2j) * (0.3 + 0.7j) in complex floats rounds each of the two
    # products in a part and then their difference: -0x1.c28f5c28f5c28p-4
    p = CxPoly({((1,), ()): 0.1 + 0.2j}, FLOAT)
    scaled = p * (0.3 + 0.7j)
    assert scaled.coefficient((1,)).real.hex() == "-0x1.c28f5c28f5c29p-4"
    assert scaled == p.dilate(0.3 + 0.7j)


def test_a_float_product_rounds_each_coefficient_once():
    x1 = RealPoly.variable(0, FLOAT)
    product = (-0.8 * x1 - 0.9) * (0.7 * x1 - 0.1)
    # -0.8 * -0.1 + -0.9 * 0.7 rounded once; two float products and a float
    # sum give -0x1.199999999999ap-1
    assert product.coefficient((1,)).hex() == "-0x1.1999999999999p-1"


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(_REAL_POLYS, _REAL_POLYS), st.tuples(_CX_POLYS, _CX_POLYS)))
def test_exact_coeff_distance_is_the_largest_gap_modulus(pair):
    p, q = pair
    d = coeff_distance(p, q)
    want = fraction_squared_distance(p, q)
    gaps = [p.terms.get(key, 0) - q.terms.get(key, 0) for key in set(p.terms) | set(q.terms)]
    if isinstance(p, RealPoly) or not any(gap.im for gap in gaps):
        assert isinstance(d, Fraction) and d * d == want
    else:
        assert d == pytest.approx(math.sqrt(want), rel=2 ** -51)
    # float mode measures the same modulus, up to the rounding of the coefficients
    scale = max((abs(complex(c)) for r in (p, q) for c in r.terms.values()), default=0)
    assert abs(float(d) - coeff_distance(p.to_float(), q.to_float())) <= 2 ** -50 * scale


def test_exact_and_float_complex_distances_agree():
    gap = CxPoly({((1,), ()): GaussianRational(1, 1)})
    zero = CxPoly.zero()
    assert coeff_distance(gap, zero) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert coeff_distance(gap.to_float(), zero.to_float()) == pytest.approx(math.sqrt(2), rel=1e-15)
    # a real gap stays an exact Fraction
    assert coeff_distance(gap, gap.conjugate().conjugate() + CxPoly.a(0)) == 1


@settings(max_examples=100, deadline=None)
@given(_REAL_POLYS, _REAL_POLYS, st.fractions(Fraction(1, 9), 5, max_denominator=9).filter(bool))
def test_isserlis_moment_is_the_fraction_sum(p, q, t):
    for r in (p, p * q):
        value = oracle.isserlis_moment(r, t)
        assert type(value) is Fraction and value == fraction_isserlis(r, t)


_FLOAT_REAL_POLYS = st.dictionaries(
    _EXPONENTS, st.floats(-8, 8, allow_subnormal=False).filter(bool), max_size=6,
).map(lambda terms: RealPoly(terms, FLOAT))


@settings(max_examples=100, deadline=None)
@given(_FLOAT_REAL_POLYS | _REAL_POLYS,
       st.floats(0.1, 3) | st.fractions(Fraction(1, 9), 5, max_denominator=9).filter(bool))
def test_float_isserlis_moment_is_the_gaussian_moment_bit_for_bit(p, t):
    assume(p.mode == FLOAT or isinstance(t, float))
    value = oracle.isserlis_moment(p, t)
    assert type(value) is float
    assert value.hex() == measures.gaussian_moment(p, t).hex()
    assert value == float(fraction_isserlis(_binary_values(p), Fraction(t)))


def test_integer_routes_multiply_no_two_fractions(monkeypatch):
    p = RealPoly({(4, 1): Fraction(2, 3), (0, 2, 2): Fraction(-5, 7), (3,): Fraction(1, 2),
                  (1, 1): 4, (): Fraction(3, 11)})
    q = RealPoly({(1, 2): Fraction(7, 5), (2,): Fraction(-1, 6), (0, 0, 1): 2})
    products = []
    fraction_mul = Fraction.__mul__

    def counted(self, other):
        products.append(isinstance(other, Fraction))
        return fraction_mul(self, other)

    monkeypatch.setattr(Fraction, "__mul__", counted)
    table = limits.laplacian_limit(p)
    square = p * p
    extended = holomorphic_extend(q).mod_square()
    product = p * q
    monkeypatch.undo()
    assert not any(products)
    assert table.values == limits.laplacian_limit(RealPoly(dict(p.terms))).values
    assert _items(square) == list(fraction_product(p, p).items())
    assert _items(product) == list(fraction_product(p, q).items())
    ext = holomorphic_extend(q)
    assert _items(extended) == list(fraction_product(ext, ext.conjugate()).items())


def test_moments_of_a_product_read_its_integer_form(monkeypatch):
    p = RealPoly({(2, 1): Fraction(1, 2), (0, 3): -2, (1,): Fraction(3, 5), (): 1})
    square = p * p
    converted = []
    image = polyalg._integer_image
    monkeypatch.setattr(polyalg, "_integer_image",
                        lambda r: converted.append(r is square) or image(r))
    # nor do the forms rebuild numerators from the coefficients
    for module in (polyalg, measures):
        monkeypatch.setattr(module, "_ratio_form", lambda terms: converted.append("ratio form"))
    t = Fraction(3, 2)
    gauss, sphere = measures.gaussian_moment(square, t), measures.sphere_moment(square, 9)
    assert not any(converted)
    monkeypatch.undo()
    assert gauss == oracle.isserlis_moment(square, t)
    assert sphere == sum(
        c * _sphere_monomial_moment(alpha, 9) for alpha, c in square.terms.items())


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_float_integer_form_is_the_binary_rational(mode):
    p = RealPoly({(1,): 0.1, (2,): -3.25, (): 1e-300}, FLOAT) if mode == FLOAT else \
        RealPoly({(1,): Fraction(1, 10), (2,): Fraction(-13, 4)})
    nums, den = polyalg._integer_form(p)
    assert {key: Fraction(v, den) for key, v in nums.items()} == {
        key: Fraction(c) for key, c in p.terms.items()}


def test_laplacian_limit_builds_no_output_polynomial(monkeypatch):
    # the distances are read from the integer forms of the two actions
    p = RealPoly({(4, 1): Fraction(2, 3), (0, 2, 2): Fraction(-5, 7), (1,): 3, (): 1})
    ns = (10, 100, 10 ** 4)
    reference = diffops.HERMITE.apply(p)
    expected = [float(coeff_distance(diffops.spherical_laplacian_op(n).apply(p), reference))
                for n in ns]
    q = p.to_float()
    built = []
    from_form = polyalg._Poly._from_integer_form.__func__
    monkeypatch.setattr(polyalg._Poly, "_from_integer_form",
                        classmethod(lambda cls, *form: built.append(cls) or from_form(cls, *form)))
    table = limits.laplacian_limit(RealPoly(dict(p.terms)), ns)
    float_table = limits.laplacian_limit(q, ns)
    assert built == []
    assert table.errors == expected
    assert [e.hex() for e in table.values] == [e.hex() for e in expected]
    # a float input is read at its binary values
    assert [e.hex() for e in float_table.errors] == [
        e.hex() for e in limits.laplacian_limit(_binary_values(q), ns).errors]


_FLOAT_COMPLEX = st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False)
_HOLOMORPHIC_FLOAT = st.dictionaries(_EXPONENTS.map(lambda a: (a, ())), _FLOAT_COMPLEX,
                                     max_size=6).map(lambda terms: CxPoly(terms, FLOAT))


_FLOAT_INTEGRANDS = st.dictionaries(st.tuples(_EXPONENTS, _EXPONENTS), _FLOAT_COMPLEX.filter(bool),
                                    min_size=1, max_size=6).map(lambda terms: CxPoly(terms, FLOAT))
_COMPLEX_SPECS = st.one_of(
    st.builds(measures.MeasureSpec.quadric, st.integers(4, 12), st.floats(0.05, 2.5)),
    st.builds(measures.MeasureSpec.gamma, st.floats(0.05, 3.0)),
    st.builds(lambda s, ratio: measures.MeasureSpec.xi(s, ratio * s),
              st.floats(0.5, 3.0), st.floats(0.05, 1.95)),
)


@settings(max_examples=150, deadline=None)
@given(_FLOAT_INTEGRANDS, _COMPLEX_SPECS)
@example(((CxPoly.a(0) + 1) ** 2 * (CxPoly.a(1) + 2) ** 2).mod_square(),
         measures.MeasureSpec.quadric(5, 0.6))
# each abar-group is 3 e^709, too large for a float; their sum is exactly 0
@example(CxPoly.a(0) ** 3 * CxPoly.abar(0) - CxPoly.a(0) * CxPoly.abar(0) ** 3,
         measures.MeasureSpec.gamma(709.0))
def test_complex_moment_is_the_fraction_sum_of_its_flows_rounded_once(q, spec):
    value, want = measures.moment(spec, q), complex_moment_reference(spec, q)
    assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())


def _quadric_norm2_hex(f, n, T) -> str:
    return measures.norm2(measures.MeasureSpec.quadric(n, T), f).hex()


@settings(max_examples=150, deadline=None)
@given(_HOLOMORPHIC_FLOAT | _HOLOMORPHIC, st.integers(4, 30), st.floats(0.05, 2.5))
@example(CxPoly.zero(), 5, 1.0)
@example(CxPoly.zero(FLOAT), 9, 0.3)
@example(CxPoly({((2, 1), ()): 1.5 - 2j, ((1,), ()): 0.25j}, FLOAT), 6, 1.7)
def test_quadric_norm2_is_the_fraction_sum_of_its_flow_rounded_once(f, n, T):
    assert _quadric_norm2_hex(f, n, T) == quadric_norm2_reference(f, n, T).hex()


@pytest.mark.parametrize("c", [1.0, 1 + 1j, -0.5j])
def test_quadric_norm2_of_a_flow_that_cancels_to_zero(c):
    # a1^2 - w: the backward flow of x1^2 puts w on the constant, which the
    # second term cancels to an exact 0.0 in every nonzero part
    n, T = 7, 1.3
    w = semigroup.flow_monomial(diffops.spherical_laplacian_op(n), -T / 2.0, (2,))[()]
    f = CxPoly({((2,), ()): c, ((), ()): -c * w}, FLOAT)
    re, im = measures._backward_flow(measures.MeasureSpec.quadric(n, T),
                                     [(a, v) for (a, _), v in f.terms.items()])
    assert (re or im) and all(part[()] == 0.0 for part in (re, im) if part)
    assert _quadric_norm2_hex(f, n, T) == quadric_norm2_reference(f, n, T).hex()


def test_warm_sphere_report_converts_no_polynomial_to_integers(monkeypatch):
    # the input's norms are memoized and the output's range norm reads the
    # flow table's floats directly
    p = RealPoly({(2, 1): Fraction(1, 3), (1,): Fraction(-2), (0, 3): Fraction(1)})
    tag = transforms.Sphere(7, 0.8)
    first = transforms.unitarity_report(p, tag)
    converted = []
    image = polyalg._integer_image
    monkeypatch.setattr(polyalg, "_integer_image", lambda q: converted.append(q) or image(q))
    second = transforms.unitarity_report(p, tag)
    assert converted == []
    assert (second.domain_norm2, second.range_norm2) == (first.domain_norm2, first.range_norm2)
