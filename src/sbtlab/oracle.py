"""Independent brute-force cross-checks for the moment machinery.

Nothing here shares code with the analytic moment routes: sphere moments are
re-estimated by Monte Carlo, from k Gaussian coordinates and one chi-square
draw for the other n - k, in independent PCG64 substreams; Gaussian-family
moments by tensorized Gauss-Hermite quadrature; and real Gaussian moments by
direct enumeration of pair partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .measures import MeasureSpec
from .parallel import ordered_map
from .polyalg import CxPoly, RealPoly, mono_degree

N_SUBSTREAMS = 16


class InsufficientOrderError(ValueError):
    """Raised when a quadrature order cannot integrate the polynomial exactly."""


@dataclass(frozen=True)
class OracleEstimate:
    """A brute-force value with its uncertainty; deterministic given the seed."""

    value: object
    std_error: float
    samples: int
    seed: int | None = None


# ---------------------------------------------------------------------------
# Monte Carlo on the sphere


def mc_sphere_moment(p: RealPoly, n: int, samples: int = 1_000_000,
                     seed: int = 0, chunk: int = 1 << 16) -> OracleEstimate:
    """Average p over points sampled uniformly from the radius-sqrt(n) sphere.

    Only the k coordinates p reads are drawn.  A uniform point is a Gaussian
    vector g in n dimensions scaled to length sqrt(n), and the squared length
    of its other n - k coordinates is one chi-square draw with n - k degrees
    of freedom, so each sample costs k normals and one gamma variate, not n
    normals.  Each coordinate is drawn as one contiguous row, so the squared
    length adds k rows and every column the polynomial reads is contiguous.

    Sampling is split into N_SUBSTREAMS independent PCG64 streams spawned
    from SeedSequence(seed), so the estimate depends only on (samples, seed),
    not on how the work is scheduled.  Each substream keeps (count, mean,
    sum of squared deviations), merged in substream order by the pairwise
    update of Chan, Golub & LeVeque (1979), so the standard error does not
    cancel when the mean is large against the spread.
    """
    MeasureSpec.sphere(n).check(p)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    k = max(p.width(), 1)
    per = [samples // N_SUBSTREAMS] * N_SUBSTREAMS
    per[-1] += samples - sum(per)

    def run_substream(args):
        idx, count = args
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(idx,)))
        )
        parts = []
        for start in range(0, count, chunk):
            size = min(chunk, count - start)
            x = rng.standard_normal((k, size))
            radius2 = np.einsum("ij,ij->j", x, x)
            if n > k:
                radius2 += rng.chisquare(n - k, size)
            x *= np.sqrt(n / radius2)
            vals = p.eval_array(x.T)
            mean = float(vals.mean())
            vals -= mean
            parts.append((size, mean, float(np.square(vals, out=vals).sum())))
        return reduce(_merge_moments, parts)

    _, mean, m2 = reduce(_merge_moments, ordered_map(run_substream, list(enumerate(per))))
    return OracleEstimate(mean, math.sqrt(m2 / samples / samples), samples, seed)


def _merge_moments(a, b):
    """(count, mean, sum of squared deviations) of two samples pooled."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    total = na + nb
    delta = mean_b - mean_a
    return (total, mean_a + delta * nb / total,
            m2_a + m2_b + delta * delta * na * nb / total)


# ---------------------------------------------------------------------------
# tensor Gauss-Hermite quadrature

MAX_QUAD_POINTS = 4_000_000


def _grid(sigmas, order):
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / math.sqrt(2.0 * math.pi)
    axes = np.meshgrid(*[sigma * nodes for sigma in sigmas], indexing="ij")
    # one row per coordinate: eval_array reads pts.T, whose columns are contiguous
    pts = np.stack([axis.ravel() for axis in axes])
    wts = weights
    for _ in sigmas[1:]:
        wts = np.multiply.outer(wts, weights)
    return pts, wts.ravel()


def quad_gauss_moment(q, family: MeasureSpec, order: int) -> OracleEstimate:
    """Moment of q under a Gaussian family by variance-matched quadrature.

    Exact (up to round-off) once order > degree/2, so the reported
    uncertainty is zero; lower orders are rejected.
    """
    degree = q.degree()
    if order < degree // 2 + 1:
        raise InsufficientOrderError(
            f"order {order} cannot integrate degree {degree} exactly"
        )
    if family.family == "gauss":
        if not isinstance(q, RealPoly):
            raise TypeError("gauss quadrature takes real polynomials")
        k = max(q.width(), 1)
        if order ** k > MAX_QUAD_POINTS:
            raise ValueError(f"quadrature grid of {order}^{k} points is too large")
        sigma = math.sqrt(float(family.t))
        pts, wts = _grid([sigma] * k, order)
        value = float(np.dot(wts, q.eval_array(pts.T)))
        return OracleEstimate(value, 0.0, order)
    if family.family == "xi":
        var_u = (2.0 * float(family.s) - float(family.t)) / 2.0
        var_v = float(family.t) / 2.0
    elif family.family == "gamma":
        var_u = (math.exp(float(family.T)) + 1.0) / 2.0
        var_v = (math.exp(float(family.T)) - 1.0) / 2.0
    else:
        raise ValueError(f"no quadrature for family {family.family!r}")
    if not isinstance(q, CxPoly):
        raise TypeError("complex-family quadrature takes complexified polynomials")
    k = max(q.width(), 1)
    if order ** (2 * k) > MAX_QUAD_POINTS:
        raise ValueError(f"quadrature grid of {order}^{2 * k} points is too large")
    sigmas = [math.sqrt(var_u)] * k + [math.sqrt(var_v)] * k
    pts, wts = _grid(sigmas, order)
    z = pts[:k] + 1j * pts[k:]
    value = complex(np.dot(wts, q.eval_array(z.T)))
    return OracleEstimate(value, 0.0, order)


# ---------------------------------------------------------------------------
# pair-partition enumeration


@lru_cache(maxsize=None)
def _matching_count(labels: tuple) -> int:
    """Number of perfect matchings of the label multiset pairing equal labels.

    Pairs of unequal labels carry zero covariance and are pruned.
    """
    if not labels:
        return 1
    first, rest = labels[0], labels[1:]
    total = 0
    for i, other in enumerate(rest):
        if other == first:
            total += _matching_count(rest[:i] + rest[i + 1 :])
    return total


def isserlis_moment(p: RealPoly, t):
    """Gaussian moment of p by summing over pair partitions of each monomial.

    Exact for exact p and rational t; independent of the heat-operator route.
    """
    exact = p.mode == "exact" and isinstance(t, (int, Fraction))
    total = Fraction(0) if exact else 0.0
    for alpha, c in p.terms.items():
        degree = mono_degree(alpha)
        if degree % 2:
            continue
        labels = tuple(
            j for j, e in enumerate(alpha) for _ in range(e)
        )
        count = _matching_count(labels)
        if not count:
            continue
        weight = (Fraction(t) if exact else float(t)) ** (degree // 2)
        total = total + (c if exact else float(c)) * count * weight
    return total
