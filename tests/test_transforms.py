import math
from fractions import Fraction

import pytest

from sbtlab import diffops, measures, polyalg, semigroup
from sbtlab.diffops import DimensionError
from sbtlab.measures import MeasureSpec
from sbtlab.polyalg import CxPoly, RealPoly, coeff_distance
from sbtlab.suite import acceptance_suite, random_real_poly
from sbtlab.transforms import (
    Euclidean,
    Limit,
    Sphere,
    Transform,
    euclidean_sbt,
    limit_sbt,
    sphere_sbt,
    unitarity_report,
)

from conftest import seeded_rng

X1 = RealPoly.variable(0)
A1 = CxPoly.a(0)


def test_euclidean_transform_examples():
    assert euclidean_sbt(X1, 1, Fraction(1, 2)) == CxPoly.a(0)
    T = 0.8
    t = 1 - math.exp(-T)
    out = euclidean_sbt(X1 ** 2, 1, t)
    expected = (A1 ** 2).to_float() + CxPoly.constant(t, "float")
    assert coeff_distance(out, expected) < 1e-15
    assert euclidean_sbt(RealPoly.constant(1), 1, 1) == CxPoly.constant(1)


def test_euclidean_transform_validates_parameters():
    with pytest.raises(ValueError):
        euclidean_sbt(X1, 1, 2)


def test_sphere_transform_examples():
    n, T = 10, 0.6
    out = sphere_sbt(X1, n, T)
    expected = A1.to_float().scale(math.exp(-T * (n - 1) / (2 * n)))
    assert coeff_distance(out, expected) < 1e-14
    assert coeff_distance(
        sphere_sbt(RealPoly.constant(1), n, T), CxPoly.constant(1.0, "float")
    ) == 0


def test_sphere_transform_dimension_check():
    with pytest.raises(DimensionError):
        sphere_sbt(RealPoly({(1, 1, 1): 1}), 3, 1.0)


def test_limit_transform_examples():
    T = 1.2
    out = limit_sbt(X1, T)
    assert coeff_distance(out, A1.to_float().scale(math.exp(-T / 2))) < 1e-14
    out = limit_sbt(X1 ** 2, T)
    expected = (A1 ** 2).to_float().scale(math.exp(-T)) + CxPoly.constant(
        1 - math.exp(-T), "float"
    )
    assert coeff_distance(out, expected) < 1e-14


def test_limit_transform_two_routes_agree():
    rng = seeded_rng(41)
    for T in (0.1, 0.5, 1.0, 2.0):
        for _ in range(4):
            p = random_real_poly(rng, k=3, degree=6, terms=5)
            via_generator = limit_sbt(p, T)
            via_factorization = euclidean_sbt(p, 1.0, 1.0 - math.exp(-T)).dilate(
                math.exp(-T / 2)
            )
            assert coeff_distance(via_generator, via_factorization) < 1e-12


def test_sphere_transform_approaches_limit_transform():
    p = X1 ** 2  # degree-two flows coincide at every dimension
    T = 0.9
    assert coeff_distance(sphere_sbt(p, 50, T), limit_sbt(p, T)) < 1e-13
    p = X1 ** 3
    errs = [
        float(coeff_distance(sphere_sbt(p, n, T), limit_sbt(p, T)))
        for n in (10, 100, 1000)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_unitarity_examples():
    n, T = 10, 0.8
    rep = unitarity_report(X1, Sphere(n, T))
    assert rep.domain_norm2 == pytest.approx(1.0)
    assert rep.range_norm2 == pytest.approx(1.0, rel=1e-12)

    rep = unitarity_report(X1, Limit(T))
    assert rep.domain_norm2 == pytest.approx(1.0)
    assert rep.range_norm2 == pytest.approx(1.0, rel=1e-12)

    rep = unitarity_report(RealPoly.constant(1), Euclidean(1.0, 0.5))
    assert rep.domain_norm2 == pytest.approx(1.0)
    assert rep.range_norm2 == pytest.approx(1.0, rel=1e-14)


def test_unitarity_output_is_holomorphic():
    rep = unitarity_report(X1 ** 3 - X1, Sphere(7, 1.0))
    assert rep.output.is_holomorphic()
    assert rep.rel_error < 1e-10



_MIXED = RealPoly({(2, 1): Fraction(1, 3), (1,): Fraction(-2), (0, 3): Fraction(1)})
# the backward flow of its sphere output leaves ~1e-16 on (1, 2), (3,) and ()
_RESIDUAL = RealPoly({(3, 2): Fraction(3, 2), (0, 0, 2): Fraction(-1, 2)})


@pytest.mark.parametrize("p, tag, domain, range_", [
    (_RESIDUAL, Sphere(5, 0.1), "0x1.e3d60ed54a6bfp+2", "0x1.e3d60ed54a6c0p+2"),
    (_MIXED, Sphere(5, 2.0), "0x1.5c1b1706c5c1bp+3", "0x1.5c1b1706c5c19p+3"),
    (_MIXED, Sphere(50, 0.1), "0x1.36e9e06522c3fp+4", "0x1.36e9e06522c43p+4"),
    (X1 ** 4, Sphere(50, 2.0), "0x1.4dde15e15e15ep+6", "0x1.4dde15e15e15dp+6"),
    # the exact 64/3 rounded once: the closed-form (Mehler) weights of the Hermite flow
    (_MIXED, Limit(1.0), "0x1.5555555555555p+4", "0x1.5555555555555p+4"),
    (_RESIDUAL, Euclidean(1.0, 0.5), "0x1.9800000000000p+6", "0x1.9800000000000p+6"),
], ids=["sphere-5-0.1", "sphere-5-2", "sphere-50-0.1", "sphere-50-2", "limit-1", "euclidean-0.5"])
def test_unitarity_report_norms_are_pinned_bit_for_bit(p, tag, domain, range_):
    # the squared norms of exact sums rounded once, as the memoized flow and
    # radial tables give them; a change to either must not move a bit
    semigroup._flow_table.cache_clear()
    for _ in range(2):
        rep = unitarity_report(p, tag)
        assert (rep.domain_norm2.hex(), rep.range_norm2.hex()) == (domain, range_)


def test_warm_sphere_unitarity_report_hashes_no_fraction(monkeypatch):
    # the flow tables are keyed on the group's identity-hashed flow key, not
    # on the sphere Laplacian's Fraction coefficients
    tag = Sphere(7, 0.8)
    first = unitarity_report(_MIXED, tag)
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: hashed.append(self) or fraction_hash(self))
    second = unitarity_report(_MIXED, tag)
    monkeypatch.undo()
    assert hashed == []
    assert (second.domain_norm2, second.range_norm2) == (first.domain_norm2, first.range_norm2)


def test_one_input_pays_for_its_width_float_image_and_pair_sums_once(monkeypatch):
    # the 24 reports of one suite-unitarity input: 4 T x (4 sphere n + limit + flat)
    p = RealPoly({(2, 1): Fraction(1, 2), (0, 3): -2, (1,): Fraction(3, 5), (): 1})
    calls = {"width": 0, "float": 0, "integer form": 0}

    def counted(name, fn):
        def wrapper(q, *args):
            calls[name] += q is p
            return fn(q, *args)
        return wrapper

    monkeypatch.setattr(polyalg, "_width", counted("width", polyalg._width))
    monkeypatch.setattr(polyalg, "_float_image", counted("float", polyalg._float_image))
    monkeypatch.setattr(polyalg, "_integer_image", counted("integer form", polyalg._integer_image))
    for T in (0.1, 0.5, 1.0, 2.0):
        tags = [Sphere(n, T) for n in (5, 10, 25, 50)]
        tags += [Limit(T), Euclidean(1.0, 1.0 - math.exp(-T))]
        for tag in tags:
            unitarity_report(p, tag)
    assert calls == {"width": 1, "float": 1, "integer form": 1}


@pytest.mark.parametrize("n", [5, 10, 25, 50])
@pytest.mark.parametrize("T", [0.1, 1.0, 2.0])
def test_sphere_unitarity_on_random_polynomials(n, T):
    rng = seeded_rng(42)
    for _ in range(3):
        p = random_real_poly(rng, k=3, degree=6, terms=5)
        rep = unitarity_report(p, Sphere(n, T))
        assert rep.rel_error <= 1e-9


def test_limit_and_euclidean_unitarity_on_random_polynomials():
    rng = seeded_rng(43)
    for _ in range(5):
        p = random_real_poly(rng, k=3, degree=6, terms=5)
        assert unitarity_report(p, Limit(0.5)).rel_error <= 1e-10
        assert unitarity_report(p, Euclidean(1.0, 0.7)).rel_error <= 1e-9
        assert unitarity_report(p, Euclidean(2.0, 1.3)).rel_error <= 1e-9


def test_polarization_inner_products_preserved():
    rng = seeded_rng(44)
    n, T = 12, 0.7
    sphere_spec = measures.MeasureSpec.sphere(n)
    quadric_spec = measures.MeasureSpec.quadric(n, T)
    gauss_spec = measures.MeasureSpec.gauss(1)
    gamma_spec = measures.MeasureSpec.gamma(T)
    for _ in range(4):
        p1 = random_real_poly(rng, k=2, degree=4, terms=4)
        p2 = random_real_poly(rng, k=2, degree=4, terms=4)

        lhs = complex(
            measures.inner_product(
                sphere_sbt(p1, n, T), sphere_sbt(p2, n, T), quadric_spec
            )
        )
        rhs = float(measures.inner_product(p1, p2, sphere_spec))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

        lhs = complex(
            measures.inner_product(limit_sbt(p1, T), limit_sbt(p2, T), gamma_spec)
        )
        rhs = float(measures.inner_product(p1, p2, gauss_spec))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_unitarity_across_full_acceptance_suite_spot():
    # one spot (n, T) over the full fixed suite; the acceptance module sweeps
    # the whole grid
    for label, p in acceptance_suite()[:8]:
        rep = unitarity_report(p, Sphere(25, 0.5))
        assert rep.rel_error <= 1e-9, label


def test_sphere_transform_cubic_eigen_decomposition():
    # hand eigenbasis on span{x1, x1^3}: x1^3 - (3n/(n+2)) x1 has eigenvalue
    # -(3n+3)/n, x1 has eigenvalue -(n-1)/n
    n, T = 12, 0.8
    c = 3 * n / (n + 2)
    lam3 = math.exp(-T * (3 * n + 3) / (2 * n))
    lam1 = math.exp(-T * (n - 1) / (2 * n))
    out = sphere_sbt(RealPoly({(3,): 1}), n, T)
    expected = (A1 ** 3).to_float().scale(lam3) + A1.to_float().scale(
        c * (lam1 - lam3)
    )
    assert coeff_distance(out, expected) < 1e-14


@pytest.mark.parametrize("k,l,n", [(8, 10, 20), (12, 12, 30)])
def test_unitarity_beyond_the_dense_basis(k, l, n):
    # bases of 43 758 and 2.7 million monomials: the graded flow and the
    # quadric norm only see the polynomial's own support
    rng = seeded_rng(90 + k)
    lead = RealPoly({(0,) * (k - 1) + (1,): 1})
    for T in (0.3, 1.7):
        p = random_real_poly(rng, k=k, degree=l, terms=6) + lead + X1 ** l
        assert p.degree() == l and p.width() == k
        for tag in (Sphere(n, T), Limit(T)):
            assert unitarity_report(p, tag).rel_error <= 1e-9


@pytest.mark.xfail(reason="the sphere flow weights lose digits at degree 60")
def test_sphere_unitarity_of_a_degree_60_monomial():
    # ROADMAP item 2: the relative norm gap is 5.18e-8
    assert unitarity_report(X1 ** 60, Sphere(5, 1.0)).rel_error <= 1e-9


@pytest.mark.parametrize("build", [
    lambda: Sphere(1, 1.0), lambda: Sphere(2.5, 1.0), lambda: Sphere(5, -1.0),
    lambda: Sphere(5, math.nan), lambda: Limit(0), lambda: Limit(math.inf), lambda: Limit(800.0),
    lambda: Euclidean(0, 0.5), lambda: Euclidean(1.0, 2.0), lambda: Euclidean(1, Fraction(-1)),
], ids=["sphere-n1", "sphere-n-float", "sphere-T-neg", "sphere-T-nan", "limit-T0",
        "limit-T-inf", "limit-e^T-overflow", "euclidean-s0", "euclidean-t-2s",
        "euclidean-t-neg"])
def test_bad_transform_parameters_raise_alike_on_every_construction(build):
    # a failing construction caches nothing, so the memo of parameter sets
    # leaves every repeat to the same checks
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            build()
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_transform_memo_keeps_parameter_types_apart():
    import numpy as np

    p = RealPoly({(2,): Fraction(1, 2), (): 1})
    # an exact time stays exact whichever equal float time came first
    assert Euclidean(1, 0.5).time == 0.25
    exact = Euclidean(1, Fraction(1, 2))
    assert type(exact.time) is Fraction and exact.apply(p).mode == "exact"
    assert type(Euclidean(1, 1).time) is Fraction
    assert Euclidean(1, 1.0).apply(p).mode == "float"
    # an integer of any type is an ambient dimension, and a parameter that
    # cannot be hashed is built without the memo
    ref = unitarity_report(p, Sphere(5, 1.0))
    for tag in (Sphere(np.int64(5), 1.0), Sphere(5, np.array(1.0))):
        rep = unitarity_report(p, tag)
        assert (rep.domain_norm2, rep.range_norm2) == (ref.domain_norm2, ref.range_norm2)


def test_a_repeated_construction_returns_the_same_transform():
    assert Sphere(5, 1.0) is Sphere(5, 1.0)
    assert Limit(0.5) is Limit(0.5)
    assert Euclidean(1, Fraction(1, 2)) is Euclidean(1, Fraction(1, 2))
    # a keyword call is its own memo entry, with equal parts
    assert Sphere(n=5, T=1.0) == Sphere(5, 1.0) == Sphere(5, T=1.0)
    assert Euclidean(s=1.0, t=0.5) == Euclidean(1.0, 0.5)
    assert Limit(T=0.5) == Limit(0.5)


def test_a_transform_is_its_four_parts():
    sphere = Sphere(7, 0.8)
    assert isinstance(sphere, Transform)
    assert sphere.generator == diffops.spherical_laplacian_op(7)
    assert (sphere.time, sphere.domain, sphere.range) == (
        0.4, MeasureSpec.sphere(7), MeasureSpec.quadric(7, 0.8))
    limit = Limit(0.5)
    assert limit.generator is diffops.HERMITE
    assert (limit.time, limit.domain, limit.range) == (
        0.25, MeasureSpec.gauss(1), MeasureSpec.gamma(0.5))
    flat = Euclidean(1, Fraction(1, 2))
    assert flat.generator is diffops.LAPLACIAN
    assert (flat.time, flat.domain, flat.range) == (
        Fraction(1, 4), MeasureSpec.gauss(1), MeasureSpec.xi(1, Fraction(1, 2)))


def test_a_warm_construction_checks_no_measure(monkeypatch):
    builds = [lambda: Sphere(11, 0.3), lambda: Limit(0.3), lambda: Euclidean(2.0, 0.3)]
    first = [build() for build in builds]
    checks = []
    post_init = MeasureSpec.__post_init__
    monkeypatch.setattr(MeasureSpec, "__post_init__",
                        lambda self: checks.append(self.family) or post_init(self))
    assert [build() for build in builds] == first
    assert checks == []
    Sphere(13, 0.3)  # a cold one checks its two measures
    assert checks == ["sphere", "quadric"]
