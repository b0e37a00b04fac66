"""Heat-smoothing/holomorphic-extension transforms on polynomials.

Each transform applies a heat-type semigroup to a real polynomial and reads
the result as a holomorphic polynomial in the complexified variables:

* ``euclidean_sbt`` -- flat heat flow at time t, domain Gaussian variance s.
* ``sphere_sbt``    -- heat flow of the radius-sqrt(n) sphere Laplacian.
* ``limit_sbt``     -- heat flow of the Gaussian Hermite operator; the
                       large-n limit of the sphere transform.

``unitarity_report`` pairs the squared domain norm of the input with the
squared range norm of the output under the matching measure
(``measures.norm2``); the two agree for every transform here, at finite n
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import diffops, measures, semigroup
from .diffops import DimensionError
from .polyalg import CxPoly, RealPoly, holomorphic_extend


@dataclass(frozen=True)
class Euclidean:
    """Two-parameter flat transform: heat time t into the xi_{s,t} range."""

    s: float
    t: float

    def __post_init__(self):
        if not 0 < self.t < 2 * self.s:
            raise ValueError(f"need 0 < t < 2s, got s={self.s}, t={self.t}")


@dataclass(frozen=True)
class Sphere:
    """Sphere transform at radius sqrt(n) with heat time T."""

    n: int
    T: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sphere transform needs ambient dimension n >= 2")
        if self.T <= 0:
            raise ValueError("sphere transform needs T > 0")


@dataclass(frozen=True)
class Limit:
    """Limiting transform into the gamma_T range."""

    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("limit transform needs T > 0")


TransformTag = (Euclidean, Sphere, Limit)


def euclidean_sbt(p: RealPoly, s, t) -> CxPoly:
    """Heat-flow p for time t, then extend holomorphically (0 < t < 2s)."""
    if not 0 < t < 2 * s:
        raise ValueError(f"need 0 < t < 2s, got s={s}, t={t}")
    half = Fraction(t, 2) if isinstance(t, (int, Fraction)) else t / 2.0
    return holomorphic_extend(semigroup.exp_graded(diffops.LAPLACIAN, half, p))


def sphere_sbt(p: RealPoly, n: int, T) -> CxPoly:
    """Sphere heat flow at time T, then extend to the quadric (needs width < n)."""
    if p.width() >= n:
        raise DimensionError(
            f"sphere transform needs ambient dimension > {p.width()}, got {n}"
        )
    flowed = semigroup.exp_graded(diffops.spherical_laplacian_op(n), T / 2.0, p)
    return holomorphic_extend(flowed)


def limit_sbt(p: RealPoly, T) -> CxPoly:
    """Hermite heat flow at time T, then extend holomorphically.

    Equal to the dilation by e^{-T/2} of the flat transform at
    (s, t) = (1, 1 - e^{-T}); both routes are computed in the tests.
    """
    if T <= 0:
        raise ValueError("limit transform needs T > 0")
    flowed = semigroup.exp_graded(diffops.HERMITE, T / 2.0, p)
    return holomorphic_extend(flowed)


@dataclass
class TransformResult:
    """One unitarity check: squared norms on both sides of a transform."""

    input: RealPoly
    output: CxPoly
    tag: object
    domain_norm2: float
    range_norm2: float

    @property
    def rel_error(self) -> float:
        gap = abs(self.domain_norm2 - self.range_norm2)
        if self.domain_norm2 == 0:
            return gap
        return gap / abs(self.domain_norm2)

    def to_json_row(self, label: str | None = None) -> dict:
        row = {
            "transform": type(self.tag).__name__.lower(),
            "input": str(self.input) if label is None else label,
            "domain_norm2": self.domain_norm2,
            "range_norm2": self.range_norm2,
            "rel_error": self.rel_error,
        }
        for field in ("s", "t", "n", "T"):
            if hasattr(self.tag, field):
                row[field] = getattr(self.tag, field)
        return row


def apply_transform(p: RealPoly, tag) -> CxPoly:
    if isinstance(tag, Euclidean):
        return euclidean_sbt(p, tag.s, tag.t)
    if isinstance(tag, Sphere):
        return sphere_sbt(p, tag.n, tag.T)
    if isinstance(tag, Limit):
        return limit_sbt(p, tag.T)
    raise TypeError(f"unknown transform tag {tag!r}")


def _norm_specs(tag) -> tuple:
    """The domain and range measures of a transform."""
    if isinstance(tag, Euclidean):
        return measures.MeasureSpec.gauss(tag.s), measures.MeasureSpec.xi(tag.s, tag.t)
    if isinstance(tag, Sphere):
        return measures.MeasureSpec.sphere(tag.n), measures.MeasureSpec.quadric(tag.n, tag.T)
    return measures.MeasureSpec.gauss(1), measures.MeasureSpec.gamma(tag.T)


def unitarity_report(p: RealPoly, tag) -> TransformResult:
    """Domain norm of p vs range norm of its transform, as squared L2 norms."""
    output = apply_transform(p, tag)
    domain, rng = _norm_specs(tag)
    return TransformResult(p, output, tag, measures.norm2(domain, p), measures.norm2(rng, output))
