import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import seeded_rng

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
    q = A1 * ABAR1 ** 2
    assert q.degree() == 3
    assert q.a_degree() == 1 and q.abar_degree() == 2


def test_json_round_trip_exact_and_float():
    p = X1 ** 2 - RealPoly.constant(Fraction(1, 3))
    rows = poly_to_json(p)
    assert rows[0]["re"].count("/") == 1
    assert real_poly_from_json(json.loads(json.dumps(rows))) == p

    q = (A1 * ABAR2).scale(GaussianRational(1, 2)) + A1
    assert cx_poly_from_json(poly_to_json(q)) == q

    qf = q.to_float()
    assert cx_poly_from_json(poly_to_json(qf)) == qf


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
    "real_zero_float": "[]",
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
    "cx_zero_float": "[]",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_STR))
def test_printed_forms_are_pinned(name):
    p = _golden_polys()[name]
    assert str(p) == _GOLDEN_STR[name]
    assert repr(p) == f"{type(p).__name__}({_GOLDEN_STR[name]!r}, mode={p.mode!r})"
    assert json.dumps(poly_to_json(p)) == _GOLDEN_JSON[name]
    read = real_poly_from_json if isinstance(p, RealPoly) else cx_poly_from_json
    # rows without numbers read as exact
    assert read(json.loads(_GOLDEN_JSON[name])) == (p if p.terms else type(p).zero())
