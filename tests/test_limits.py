import math

import pytest

from sbtlab.diffops import DimensionError
from sbtlab.limits import (
    DEFAULT_N_GRID,
    diagram_check,
    diagram_convergence,
    fit_rate,
    laplacian_limit,
    measure_limit,
    transform_limit,
)
from sbtlab.polyalg import CxPoly, RealPoly

X1 = RealPoly.variable(0)
X2 = RealPoly.variable(1)
A1 = CxPoly.a(0)
ABAR1 = CxPoly.abar(0)


def test_fit_rate_exact_power_law():
    ns = (10, 100, 1000)
    assert fit_rate(ns, [1 / n for n in ns]) == pytest.approx(1.0)
    assert fit_rate(ns, [5 / n ** 2 for n in ns]) == pytest.approx(2.0)


def test_fit_rate_on_shifted_law():
    # the +2 shift drags the three-point fit slightly below first order
    ns = (10, 100, 1000)
    rate = fit_rate(ns, [6 / (n + 2) for n in ns])
    assert rate == pytest.approx(0.9608, abs=1e-3)
    wide = fit_rate(DEFAULT_N_GRID, [6 / (n + 2) for n in DEFAULT_N_GRID])
    assert 0.95 <= wide <= 1.0


def test_fit_rate_zero_errors_reports_infinity():
    assert math.isinf(fit_rate((10, 100, 1000), [0.0, 0.0, 0.0]))
    assert math.isinf(fit_rate((10, 100, 1000), [1e-16, 0.0, 1e-15]))


def test_fit_rate_propagates_nan():
    assert math.isnan(fit_rate((10, 100, 1000), [0.1, math.nan, 0.001]))
    assert math.isnan(fit_rate((10, 100, 1000), [math.nan, 0.0, 0.0]))


def test_fit_rate_needs_enough_points():
    with pytest.raises(ValueError):
        fit_rate((10, 100), [0.1, 0.01])


def test_laplacian_limit_x1_error_is_exactly_one_over_n():
    table = laplacian_limit(X1, ns=(10, 100, 1000))
    assert table.errors == [0.1, 0.01, 0.001]
    assert table.fitted_rate == pytest.approx(1.0, abs=1e-12)


def test_laplacian_limit_degree_two_is_exact():
    table = laplacian_limit(X1 ** 2, ns=(10, 100, 1000))
    assert table.errors == [0.0, 0.0, 0.0]
    assert math.isinf(table.fitted_rate)


def test_laplacian_limit_quartic_rate():
    table = laplacian_limit(X1 ** 4)
    assert table.fitted_rate == pytest.approx(1.0, abs=0.05)
    # the correction operator is n-independent, so the law is exactly c/n
    assert table.errors[0] * DEFAULT_N_GRID[0] == pytest.approx(
        table.errors[-1] * DEFAULT_N_GRID[-1]
    )


def test_sphere_moment_limit_quartic():
    table = measure_limit(X1 ** 4, "sphere")
    for n, err in zip(table.ns, table.errors):
        assert err == pytest.approx(6 / (n + 2), abs=1e-12)
    assert 0.9 <= table.fitted_rate <= 1.0


def test_sphere_moment_limit_constant_is_exact():
    table = measure_limit(RealPoly.constant(1), "sphere", ns=(10, 100, 1000))
    assert table.errors == [0.0, 0.0, 0.0]
    assert math.isinf(table.fitted_rate)


def test_quadric_moment_limit_second_moment():
    T = 1.0
    table = measure_limit(A1 * ABAR1, "quadric", T=T)
    # |e^{T(n-1)/n} - e^T| decreases at first order
    for n, err in zip(table.ns, table.errors):
        expected = math.exp(T) - math.exp(T * (n - 1) / n)
        assert err == pytest.approx(expected, rel=1e-9)
    assert table.fitted_rate == pytest.approx(1.0, abs=0.1)
    assert all(a > b for a, b in zip(table.errors, table.errors[1:]))


def test_transform_limit_x1():
    T = 1.0
    table = transform_limit(X1, T, ns=(10, 100, 1000))
    for n, err in zip(table.ns, table.errors):
        expected = abs(math.exp(-T * (n - 1) / (2 * n)) - math.exp(-T / 2))
        assert err == pytest.approx(expected, rel=1e-9)
    assert table.fitted_rate == pytest.approx(1.0, abs=0.05)


def test_transform_limit_constant_is_exact():
    table = transform_limit(RealPoly.constant(1), 0.5, ns=(10, 100, 1000))
    assert math.isinf(table.fitted_rate)


def test_transform_limit_degree_two_flow_is_dimension_free():
    # the degree-two correction vanishes, so the sphere flow equals the limit
    # flow at every dimension and the error is pure round-off
    table = transform_limit(X1 ** 2, 1.0, ns=(10, 100, 1000))
    assert max(table.errors) < 1e-13
    assert math.isinf(table.fitted_rate)


def test_transform_limit_cubic_rate():
    table = transform_limit(X1 ** 3, 0.7)
    assert table.fitted_rate >= 0.9


def test_diagram_check_x1_all_ones():
    for n in (5, 50):
        rep = diagram_check(X1, 1.0, n)
        assert rep.sphere_norm2 == pytest.approx(1.0)
        assert rep.quadric_norm2 == pytest.approx(1.0, rel=1e-12)
        assert rep.gamma_norm2 == pytest.approx(1.0, rel=1e-12)


def test_diagram_check_x1_squared_at_n_100():
    rep = diagram_check(X1 ** 2, 1.0, 100)
    assert rep.finite_gap_rel <= 1e-9
    # the finite-dimension norm differs from the limit by the moment gap
    assert rep.limit_gap_abs == pytest.approx(3 - 300 / 102, rel=1e-9)


def test_diagram_check_takes_the_flow_width_check():
    with pytest.raises(DimensionError, match="needs ambient dimension > 2, got 2"):
        diagram_check(X1 * X2, 1.0, 2)


def test_diagram_convergence_rate():
    table = diagram_convergence(X2 ** 2 + X1, 0.5, ns=(10, 30, 100, 300, 1000))
    assert table.fitted_rate >= 0.9


def test_table_serialization():
    table = laplacian_limit(X1, ns=(10, 100, 1000))
    rows = table.csv_rows()
    assert [row["N"] for row in rows] == [10, 100, 1000]
    assert set(rows[0]) == {"N", "T", "quantity", "value", "reference",
                            "abs_error", "rel_error"}
