"""Large-dimension convergence experiments with rate fitting.

Every experiment sweeps an ambient-dimension grid, compares a finite-n
quantity against its limit, and fits the decay exponent rho in
error ~ C * n^{-rho} by least squares on the log-log points.  The limits
come from the operator and measure modules; the observed first-order rates
are empirical readings of the experiments, not asserted constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffops, measures, transforms
from .polyalg import RealPoly, _integer_distance, coeff_distance

DEFAULT_N_GRID = (10, 30, 100, 300, 1000, 3000, 10000)

# float differences below this are indistinguishable from round-off and are
# treated as exact agreement
NOISE_FLOOR = 1e-14
# relative gap between the sphere and quadric norms above which a diagram
# sweep reports the finite-dimension isometry as broken
FINITE_TOL = 1e-9


def fit_rate(ns, errors) -> float:
    """Least-squares decay exponent of errors vs ns; inf for exact agreement.

    A NaN error gives a NaN rate: it is not agreement.
    """
    if any(e != e for e in errors):
        return math.nan
    pairs = [(n, e) for n, e in zip(ns, errors) if e > NOISE_FLOOR]
    if not pairs:
        return math.inf
    if len(pairs) < 3:
        if max(e for _, e in pairs) < 1e-12:
            return math.inf
        raise ValueError("need at least 3 grid points with errors above the floor")
    logs_n = np.log([n for n, _ in pairs])
    logs_e = np.log([e for _, e in pairs])
    slope = np.polyfit(logs_n, logs_e, 1)[0]
    return float(-slope)


@dataclass
class ConvergenceTable:
    """Per-dimension values against a fixed reference, with a fitted rate."""

    quantity: str
    ns: tuple
    values: list
    references: list
    errors: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("dimension grid must be strictly increasing")
        if any(e < 0 for e in self.errors):
            raise ValueError("errors must be nonnegative")

    @property
    def fitted_rate(self) -> float:
        """Fitted decay rate, or NaN when the grid has too few informative points."""
        try:
            return fit_rate(self.ns, self.errors)
        except ValueError:
            return math.nan

    def csv_rows(self) -> list:
        rows = []
        t = self.meta.get("T", "")
        for n, value, ref, err in zip(self.ns, self.values, self.references, self.errors):
            rows.append(
                {
                    "N": n,
                    "T": t,
                    "quantity": self.quantity,
                    "value": value,
                    "reference": ref,
                    "abs_error": err,
                    "rel_error": "",
                }
            )
        return rows


def laplacian_limit(p: RealPoly, ns=DEFAULT_N_GRID) -> ConvergenceTable:
    """Coefficient distance between the sphere Laplacian of p and its limit.

    The distances are read from the integer forms of the two exact actions,
    a float p at its binary values, and rounded once; no output polynomial
    is built.
    """
    reference = diffops.HERMITE._integer_action(p)
    errors = [float(_integer_distance(diffops.spherical_laplacian_op(n)._integer_action(p),
                                      reference, True)) for n in ns]
    return ConvergenceTable(
        quantity="laplacian-to-hermite",
        ns=tuple(ns),
        values=list(errors),
        references=[0.0] * len(ns),
        errors=list(errors),
    )


def measure_limit(q, family: str, T=None, ns=DEFAULT_N_GRID) -> ConvergenceTable:
    """Finite-n sphere or quadric moments of q against the Gaussian limit."""
    if family == "sphere":
        limit = float(measures.gaussian_moment(q, 1))
        values = [float(measures.sphere_moment(q, n)) for n in ns]
    elif family == "quadric":
        limit = complex(measures.gamma_moment(q, T))
        values = [complex(measures.quadric_moment(q, n, T)) for n in ns]
    else:
        raise ValueError(f"unknown measure family {family!r} (want sphere or quadric)")
    errors = [abs(v - limit) for v in values]
    return ConvergenceTable(
        quantity=f"{family}-moment",
        ns=tuple(ns),
        values=values,
        references=[limit] * len(ns),
        errors=errors,
        meta={} if T is None else {"T": T},
    )


def transform_limit(p: RealPoly, T, ns=DEFAULT_N_GRID) -> ConvergenceTable:
    """Coefficient distance between the sphere transform of p and its limit."""
    reference = transforms.limit_sbt(p, T)
    errors = [float(coeff_distance(transforms.sphere_sbt(p, n, T), reference)) for n in ns]
    return ConvergenceTable(
        quantity="transform-to-limit",
        ns=tuple(ns),
        values=list(errors),
        references=[0.0] * len(ns),
        errors=list(errors),
        meta={"T": T},
    )


@dataclass(frozen=True)
class DiagramReport:
    """The three squared norms of the commuting square at one dimension."""

    n: int
    T: float
    sphere_norm2: float
    quadric_norm2: float
    gamma_norm2: float

    @property
    def finite_gap_rel(self) -> float:
        gap = abs(self.sphere_norm2 - self.quadric_norm2)
        return gap / abs(self.sphere_norm2) if self.sphere_norm2 else gap

    @property
    def limit_gap_abs(self) -> float:
        return max(
            abs(self.sphere_norm2 - self.gamma_norm2),
            abs(self.quadric_norm2 - self.gamma_norm2),
        )


def diagram_check(p: RealPoly, T, n: int, limit_norm2: float | None = None) -> DiagramReport:
    """Norm chain at one dimension: sphere norm, quadric norm, limit norm.

    The domain and range norms of the sphere transform's unitarity report,
    then the range norm of the limit transform's, which does not depend on
    n: a sweep passes it in as ``limit_norm2``.  The first two agree at
    every n; both converge to the third.
    """
    sphere = transforms.unitarity_report(p, transforms.Sphere(n, T))
    if limit_norm2 is None:
        limit_norm2 = transforms.unitarity_report(p, transforms.Limit(T)).range_norm2
    return DiagramReport(n, float(T), sphere.domain_norm2, sphere.range_norm2, limit_norm2)


def diagram_convergence(p: RealPoly, T, ns=DEFAULT_N_GRID) -> ConvergenceTable:
    """Sweep diagram_check over a grid; errors are distances to the limit norm."""
    reports = []
    for n in ns:
        reports.append(diagram_check(p, T, n, reports[0].gamma_norm2 if reports else None))
    for r in reports:
        if r.finite_gap_rel > FINITE_TOL:
            raise AssertionError(
                f"finite-dimension isometry broke at n={r.n}: gap {r.finite_gap_rel:.3e}"
            )
    errors = [r.limit_gap_abs for r in reports]
    return ConvergenceTable(
        quantity="diagram-norm-chain",
        ns=tuple(ns),
        values=[r.sphere_norm2 for r in reports],
        references=[r.gamma_norm2 for r in reports],
        errors=errors,
        meta={"T": T},
    )
