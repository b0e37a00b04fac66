"""Independent brute-force cross-checks for the moment machinery.

Nothing here shares code with the analytic moment routes: sphere moments are
re-estimated by Monte Carlo, from k Gaussian coordinates and one chi-square
draw for the other n - k, one SFC64 stream per coordinate; Gaussian-family
moments by tensorized Gauss-Hermite quadrature, as products of
per-coordinate node moments; and real Gaussian moments by direct
enumeration of pair partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .measures import MeasureSpec
from .polyalg import CxPoly, RealPoly, _EvalPlan, _integer_form, _rational, mono_degree

# points per cell: the estimate pools (count, mean, sum of squared deviations)
# cell by cell, so the cell size is part of its definition
MC_CELL = 1 << 10
# points drawn per chunk, a multiple of MC_CELL: it sets the workspace, not the bits
MC_CHUNK = 6 * MC_CELL


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
                     seed: int = 0) -> OracleEstimate:
    """Average p over points sampled uniformly from the radius-sqrt(n) sphere.

    Only the k coordinates p reads are drawn.  A uniform point is a Gaussian
    vector g in n dimensions scaled to length sqrt(n), and the squared length
    of its other n - k coordinates is one chi-square draw with n - k degrees
    of freedom, so each sample costs k normals and one gamma variate, not n
    normals.

    SeedSequence(seed).spawn(k + 1) gives k + 1 SFC64 streams: stream j
    draws coordinate j of every point, in order, and stream k the
    chi-square.  Points are drawn in chunks of MC_CHUNK, each chunk taking
    the next draws of every stream, and every step after the draws treats a
    point on its own in a fixed order (the evaluation plan's contraction
    too), so the estimate depends only on (p, n, samples, seed): not on
    MC_CHUNK or EVAL_BLOCK_BYTES.  The statistics are (count, mean, sum of
    squared deviations) of cells of MC_CELL points, the last one short,
    merged in order by the pairwise update of Chan, Golub & LeVeque (1979),
    so the standard error does not cancel when the mean is large against
    the spread.

    Memory is one workspace per call, reused by every chunk: k + 2 float
    rows (coordinates, squared length, values) of c = min(MC_CHUNK,
    samples) points, plus the rows of p's evaluation plan (its power,
    conjugate, product, ones and scratch rows) for one block of at most
    c points.  The draws go straight into the workspace and nothing of that
    size is allocated per chunk, so the peak does not grow with samples
    once c reaches MC_CHUNK.
    """
    MeasureSpec.sphere(n).check(p)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1000:
        raise ValueError(f"samples must be an integer >= 1000, got {samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"the Monte Carlo seed must be an integer >= 0, got {seed!r}")
    k = max(p.width(), 1)
    streams = [np.random.Generator(np.random.SFC64(child))
               for child in np.random.SeedSequence(seed).spawn(k + 1)]
    plan = _EvalPlan(p)
    cap = min(MC_CHUNK, samples)
    draws = np.empty((k + 2) * cap)
    work = plan.workspace(cap)
    pooled = []  # the cells so far, merged in order
    for start in range(0, samples, MC_CHUNK):
        size = min(MC_CHUNK, samples - start)
        block = draws[:(k + 2) * size].reshape(k + 2, size)
        x, radius2, vals = block[:k], block[k], block[k + 1]
        for stream, row in zip(streams, x):
            stream.standard_normal(out=row)
        np.square(x[0], out=radius2)
        for row in x[1:]:
            radius2 += np.square(row, out=vals)
        if n > k:
            # numpy's chisquare(df) is 2 * standard_gamma(df / 2), draw for draw
            streams[k].standard_gamma((n - k) / 2, out=vals)
            vals *= 2.0
            radius2 += vals
        np.sqrt(np.divide(n, radius2, out=radius2), out=radius2)
        for row in x:
            row *= radius2
        plan.run(x, vals, work)
        pooled = [reduce(_merge_moments, pooled + _cell_moments(vals))]
    _, mean, m2 = pooled[0]
    return OracleEstimate(mean, math.sqrt(m2 / samples / samples), samples, seed)


def _cell_moments(vals: np.ndarray) -> list:
    """(count, mean, sum of squared deviations) of each MC_CELL-point cell of vals, in order.

    vals starts at a cell boundary; its last cell may be short.  vals is overwritten.
    """
    full = len(vals) // MC_CELL * MC_CELL
    out = []
    for part, width in ((vals[:full], MC_CELL), (vals[full:], len(vals) - full)):
        if width:
            rows = part.reshape(-1, width)
            means = [total / width for total in np.add.reduce(rows, axis=1).tolist()]
            for row, mean in zip(rows, means):
                row -= mean  # a broadcast subtract would allocate a copy of rows
            m2 = np.add.reduce(np.square(rows, out=rows), axis=1).tolist()
            out += zip([width] * len(means), means, m2)
    return out


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


def _power_rows(z: np.ndarray, top: int) -> np.ndarray:
    """z^0 .. z^top, one row each; row e is row e - 1 times z."""
    rows = np.empty((top + 1, len(z)), dtype=z.dtype)
    rows[0] = 1
    for e in range(1, top + 1):
        rows[e] = rows[e - 1] * z
    return rows


def quad_gauss_moment(q, family: MeasureSpec, order: int) -> OracleEstimate:
    """Moment of q under a Gaussian family by variance-matched quadrature.

    Exact (up to round-off) once order > degree/2, so the reported
    uncertainty is zero; lower orders are rejected.  The rule is the tensor
    product of one Gauss-Hermite rule per real coordinate, and the
    coordinates are independent, so it integrates a monomial as the product
    of per-coordinate node moments, read from one table per family:

    * gauss: table[e] = sum_i w_i (sigma x_i)^e;
    * xi, gamma: table[a, b] = sum_ij w_i w_j z^a conj(z)^b over the order^2
      nodes z = sigma_u x_i + i sigma_v x_j of one complex coordinate.

    That is the same sum as over the order^k (order^2k) points of the grid,
    at a cost of order^2 degree^2 + terms * k.
    """
    degree = q.degree()
    if order < degree // 2 + 1:
        raise InsufficientOrderError(
            f"order {order} cannot integrate degree {degree} exactly"
        )
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / math.sqrt(2.0 * math.pi)
    if family.family == "gauss":
        if not isinstance(q, RealPoly):
            raise TypeError("gauss quadrature takes real polynomials")
        sigma = math.sqrt(float(family.t))
        table = (_power_rows(sigma * nodes, degree) @ weights).tolist()
        k = max(q.width(), 1)
        value = sum(c * math.prod(table[e] for e in alpha + (0,) * (k - len(alpha)))
                    for alpha, c in q.to_float().terms.items())
        return OracleEstimate(float(value), 0.0, order)
    if family.family not in ("xi", "gamma"):
        raise ValueError(f"no quadrature for family {family.family!r}")
    if not isinstance(q, CxPoly):
        raise TypeError("complex-family quadrature takes complexified polynomials")
    # z = u + i v with independent u, v: E[z^2] = c2 and E[z zbar] = g2
    c2, g2 = family.covariances()
    var_u, var_v = float(g2 + c2) / 2.0, float(g2 - c2) / 2.0
    z = (math.sqrt(var_u) * nodes[:, None] + 1j * math.sqrt(var_v) * nodes[None, :]).ravel()
    w = np.multiply.outer(weights, weights).ravel()
    table = ((_power_rows(z, degree) * w) @ _power_rows(z.conjugate(), degree).T).tolist()
    k = max(q.width(), 1)
    value = 0j
    for (alpha, beta), c in q.to_float().terms.items():
        alpha += (0,) * (k - len(alpha))
        beta += (0,) * (k - len(beta))
        value += c * math.prod(table[a][b] for a, b in zip(alpha, beta))
    return OracleEstimate(complex(value), 0.0, order)


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

    Independent of the heat-operator route.  p's coefficients and t are read
    at their exact values (a float at its binary rational): the integer
    numerators of p's integer form times their matching counts are summed
    by half-degree m, and each sum is weighted by t^m once.  The total is
    one Fraction for exact p and rational t, and otherwise that Fraction
    rounded once, by one int / int division.
    """
    MeasureSpec.gauss(t).check(p)
    nums, den = _integer_form(p)
    sums: dict = {}
    for alpha, c in nums.items():
        count = _monomial_matchings(alpha)
        if count:
            m = mono_degree(alpha) // 2
            sums[m] = sums.get(m, 0) + c * count
    top = max(sums, default=0)
    num, t_den = Fraction(t).as_integer_ratio()
    total = sum(s * num ** m * t_den ** (top - m) for m, s in sums.items())
    if p.mode == "exact" and _rational(t):
        return Fraction(total, den * t_den ** top)
    return total / (den * t_den ** top)


def _monomial_matchings(alpha: tuple) -> int:
    """Perfect matchings of x^alpha's factors that pair equal variables; 0 for odd degree."""
    if mono_degree(alpha) % 2:
        return 0
    return _matching_count(tuple(j for j, e in enumerate(alpha) for _ in range(e)))
