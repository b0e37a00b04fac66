"""Heat-smoothing/holomorphic-extension transforms on polynomials.

Each transform applies a heat-type semigroup to a real polynomial and reads
the result as a holomorphic polynomial in the complexified variables:

* ``Euclidean(s, t)``, ``euclidean_sbt`` -- flat heat flow at time t,
  domain Gaussian variance s.
* ``Sphere(n, T)``, ``sphere_sbt`` -- heat flow of the radius-sqrt(n)
  sphere Laplacian.
* ``Limit(T)``, ``limit_sbt`` -- heat flow of the Gaussian Hermite
  operator; the large-n limit of the sphere transform.

A transform is a ``Transform``: its generator, its flow time and its domain
and range measures.  ``Euclidean``, ``Sphere`` and ``Limit`` build and check
it on the first call with their parameters and return that one instance
from a bounded memo after that.  ``unitarity_report`` pairs the
squared domain norm of the input with the squared range norm of the output
(``measures.norm2``); the two agree for every transform here, at finite n
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from . import diffops, measures, semigroup
from .measures import MeasureSpec
from .polyalg import CxPoly, RealPoly, _rational, holomorphic_extend


def _memoized_parts(build):
    """build(...), kept in a bounded memo keyed on the arguments and their types.

    A failing build raises on every call and caches nothing; arguments that
    cannot be hashed are built each time.  Types stay apart, so an exact
    Euclidean time stays exact.  A keyword call has its own memo entry.
    """
    memo = lru_cache(maxsize=256, typed=True)(build)

    @wraps(build)
    def parts(*args, **kwargs):
        try:
            hash((args, *kwargs.values()))
        except TypeError:
            return build(*args, **kwargs)
        return memo(*args, **kwargs)

    return parts


@dataclass(frozen=True)
class Transform:
    """A heat flow by ``generator`` for ``time``, from the ``domain`` measure to ``range``.

    Built by ``Euclidean``, ``Sphere`` and ``Limit``, one shared instance per
    typed parameter set.
    """

    generator: diffops.GroupGenerator
    time: object
    domain: MeasureSpec
    range: MeasureSpec

    def apply(self, p: RealPoly) -> CxPoly:
        """Flow p, then extend holomorphically."""
        return holomorphic_extend(semigroup.exp_graded(self.generator, self.time, p))


@_memoized_parts
def Euclidean(s, t) -> Transform:
    """The flat transform: the Laplacian's flow for t/2, from the Gaussian of
    variance s to xi_{s,t}; the flow time is exact when t is rational."""
    xi = MeasureSpec.xi(s, t)  # first, so that a bad s reads as the xi check
    return Transform(diffops.LAPLACIAN, Fraction(t, 2) if _rational(t) else t / 2.0,
                     MeasureSpec.gauss(s), xi)


@_memoized_parts
def Sphere(n, T) -> Transform:
    """The sphere transform at radius sqrt(n): the sphere Laplacian's flow for T/2,
    from the sphere measure to the quadric's heat-kernel measure."""
    domain = MeasureSpec.sphere(n)  # first, so that a bad n reads as the sphere check
    return Transform(diffops.spherical_laplacian_op(n), T / 2.0, domain,
                     MeasureSpec.quadric(n, T))


@_memoized_parts
def Limit(T) -> Transform:
    """The limiting transform: the Hermite flow for T/2, from the standard Gaussian to gamma_T."""
    return Transform(diffops.HERMITE, T / 2.0, MeasureSpec.gauss(1), MeasureSpec.gamma(T))


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


def unitarity_report(p: RealPoly, tag: Transform) -> TransformResult:
    """Domain norm of p vs range norm of its transform, as squared L2 norms."""
    output = tag.apply(p)
    return TransformResult(p, output, tag, measures.norm2(tag.domain, p),
                           measures.norm2(tag.range, output))
