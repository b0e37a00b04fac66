"""Heat-smoothing/holomorphic-extension transforms on polynomials.

Each transform applies a heat-type semigroup to a real polynomial and reads
the result as a holomorphic polynomial in the complexified variables:

* ``Euclidean(s, t)``, ``euclidean_sbt`` -- flat heat flow at time t,
  domain Gaussian variance s.
* ``Sphere(n, T)``, ``sphere_sbt`` -- heat flow of the radius-sqrt(n)
  sphere Laplacian.
* ``Limit(T)``, ``limit_sbt`` -- heat flow of the Gaussian Hermite
  operator; the large-n limit of the sphere transform.

A transform carries its generator, its flow time and its domain and range
measures, built and checked on the first construction with its parameters
and read from a bounded memo after that.  ``unitarity_report`` pairs the
squared domain norm of the input with the squared range norm of the output
(``measures.norm2``); the two agree for every transform here, at finite n
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import diffops, measures, semigroup
from .measures import MeasureSpec
from .polyalg import CxPoly, RealPoly, _rational, holomorphic_extend


def _memoized_parts(build):
    """build(*params), kept in a bounded memo keyed on the params and their types.

    A failing build raises on every call and caches nothing; params that
    cannot be hashed are built each time.  Types stay apart, so an exact
    Euclidean time stays exact.
    """
    memo = lru_cache(maxsize=256, typed=True)(build)

    def parts(*params):
        try:
            hash(params)
        except TypeError:
            return build(*params)
        return memo(*params)

    return parts


@_memoized_parts
def _euclidean_parts(s, t) -> tuple:
    xi = MeasureSpec.xi(s, t)  # first, so that a bad s reads as the xi check
    return (diffops.LAPLACIAN, Fraction(t, 2) if _rational(t) else t / 2.0,
            MeasureSpec.gauss(s), xi)


@_memoized_parts
def _sphere_parts(n, T) -> tuple:
    domain = MeasureSpec.sphere(n)  # first, so that a bad n reads as the sphere check
    return diffops.spherical_laplacian_op(n), T / 2.0, domain, MeasureSpec.quadric(n, T)


@_memoized_parts
def _limit_parts(T) -> tuple:
    return diffops.HERMITE, T / 2.0, MeasureSpec.gauss(1), MeasureSpec.gamma(T)


@dataclass(frozen=True)
class _Transform:
    """A heat flow by ``generator`` for ``time``, from the ``domain`` measure to ``range``.

    Each transform takes its flow and its two measures from a memo of its
    parameter set, built and checked by the measures on the first use.
    """

    generator: diffops.GroupGenerator = field(init=False, repr=False, compare=False)
    time: object = field(init=False, repr=False, compare=False)
    domain: MeasureSpec = field(init=False, repr=False, compare=False)
    range: MeasureSpec = field(init=False, repr=False, compare=False)

    def _set(self, parts: tuple) -> None:
        for name, value in zip(("generator", "time", "domain", "range"), parts):
            object.__setattr__(self, name, value)

    def apply(self, p: RealPoly) -> CxPoly:
        """Flow p, then extend holomorphically."""
        return holomorphic_extend(semigroup.exp_graded(self.generator, self.time, p))


@dataclass(frozen=True)
class Euclidean(_Transform):
    """Two-parameter flat transform: heat time t into the xi_{s,t} range."""

    s: float
    t: float

    def __post_init__(self):
        self._set(_euclidean_parts(self.s, self.t))


@dataclass(frozen=True)
class Sphere(_Transform):
    """Sphere transform at radius sqrt(n) with heat time T."""

    n: int
    T: float

    def __post_init__(self):
        self._set(_sphere_parts(self.n, self.T))


@dataclass(frozen=True)
class Limit(_Transform):
    """Limiting transform into the gamma_T range."""

    T: float

    def __post_init__(self):
        self._set(_limit_parts(self.T))


def euclidean_sbt(p: RealPoly, s, t) -> CxPoly:
    """Heat-flow p for time t, then extend holomorphically (0 < t < 2s)."""
    return Euclidean(s, t).apply(p)


def sphere_sbt(p: RealPoly, n: int, T) -> CxPoly:
    """Sphere heat flow at time T, then extend to the quadric (needs width < n)."""
    return Sphere(n, T).apply(p)


def limit_sbt(p: RealPoly, T) -> CxPoly:
    """Hermite heat flow at time T, then extend holomorphically.

    Equal to the dilation by e^{-T/2} of the flat transform at
    (s, t) = (1, 1 - e^{-T}); both routes are computed in the tests.
    """
    return Limit(T).apply(p)


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


def unitarity_report(p: RealPoly, tag: _Transform) -> TransformResult:
    """Domain norm of p vs range norm of its transform, as squared L2 norms."""
    output = tag.apply(p)
    return TransformResult(p, output, tag, measures.norm2(tag.domain, p),
                           measures.norm2(tag.range, output))
