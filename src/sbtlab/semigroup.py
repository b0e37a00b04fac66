"""Exponentials of graded operators on polynomial spaces.

Every generator is a ``diffops.GroupGenerator``: a sum over commuting groups
of variables of lambda_g(m_g) + c_g * Lap_g, which on a monomial of degree
m_g in the group's variables acts as the scalar lambda_g(m_g) =
a2*m_g^2 + a1*m_g plus c_g times the group's Laplacian.  The groups act on
disjoint variables, so exp(tA) of a monomial is the product of its
per-group flows, and each group flows as

    exp(t(lambda + c Lap)) x^alpha = sum_j f[t lambda_m, ..., t lambda_{m-2j}] (ct)^j Lap^j x^alpha

with f = exp.  The chain Lap^j x^alpha is exact integer arithmetic.  A
linear group (a2 = 0: the heat, Euler and Hermite flows and their sums) has
equally spaced nodes and takes its divided-difference weights in closed form
(Mehler's formula for the Hermite flow), exact when a1 = 0 and c and t are
rational; the numbers alone decide it.  Any other group takes them from the
exponential of one small bidiagonal matrix per degree.

* ``exp_graded``   -- exp(t*A) applied to one polynomial, term by term, so
  the cost follows the polynomial's terms, not the size of the graded basis;
  the one routine that sums the flows ``monomial_flows`` reads.
* ``dilation_exp`` -- closed-form dilation semigroup of the Euler operator.

Also here: the commutation-relation exponential identities ("[X,Y] = aY"
factorizations) as a checkable report, and the four-factor dilation/heat
product that merges into the limiting-measure exponential.  Both compare
two products of exponentials on every monomial of a graded basis: column j
of a product's matrix is the flow of basis monomial j through its factors,
the last factor first, so no basis-sized matrix is formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import diffops
from .diffops import GroupGenerator, _laplacian_chain
from .polyalg import EXACT, FLOAT, CxPoly, RealPoly, _rational, coeff_distance, mono_degree


class CommutationError(ValueError):
    """Raised when the [X, Y] = alpha*Y hypothesis does not hold."""


# ---------------------------------------------------------------------------
# flows, one monomial at a time


def _exp_divided_differences(z, s: float) -> np.ndarray:
    """s^j exp[z_0, ..., z_j] for j = 0 .. len(z) - 1: the weights of a group with a2 != 0.

    The first row of exp(B) for the bidiagonal B with diagonal z and
    superdiagonal s (Opitz), which stays accurate as the nodes merge, where
    the divided-difference quotients cancel.  Scaling and squaring: a Taylor
    series on the centred B / 2^p, whose diagonal is at most 1/2 in size,
    then p squarings.  With the sign of s taken out every entry is positive,
    so the squarings do not cancel; the diagonal is reset to exact
    exponentials after each (Al-Mohy and Higham, SIMAX 31, 2009).  Raises
    OverflowError when a weight does not fit in a float.

    The series is term_k = term_{k-1} B / k, summed one term at a time, and
    stops at the first k with |term_k| <= 2^-53 |x_k| in every entry.  That
    test runs on batches of stored terms and sums, not once per term: the
    first len(z) terms (no series stops sooner), 13 more (most stop there),
    then 4 at a time.  Terms past the stopping index are computed and
    discarded, and an overflow past it does not count, so the weights and
    the errors are those of a test after every term.  The shift, scale and
    B are computed in Python floats.
    """
    z = [float(v) for v in z]
    if not (all(map(math.isfinite, z)) and math.isfinite(s)):
        raise ValueError("graded flows need a finite time")
    n = len(z)
    mid = (max(z) + min(z)) / 2.0
    y = [v - mid for v in z]
    radius = max(map(abs, y))
    p = math.ceil(math.log2(2.0 * radius)) if radius > 0.5 else 0
    scale = 2.0 ** -p
    a = np.zeros((n, n))
    a.flat[::n + 1] = [v * scale + 0.0 for v in y]  # + 0.0 maps -0.0 to 0.0, as the pinned bits do
    a.flat[1::n + 1] = abs(s) * scale
    # slot i of a batch holds term_{k+i} and its sum x_{k+i}; slot 0 the batch before's last
    terms = np.empty((max(n, 13) + 1, n, n))
    sums = np.empty_like(terms)
    terms[0] = sums[0] = np.eye(n)
    k, last = 0, n + 39  # entry (i, j) needs about j - i + 20 terms when |diagonal| <= 1/2
    try:
        with np.errstate(over="raise"):
            while True:
                size = min(n if k == 0 else 13 if k == n else 4, last - k)
                term, total, done, overflow = terms[0], sums[0], 0, None
                try:
                    for i in range(1, size + 1):
                        term = term.dot(a, terms[i])
                        term /= k + i
                        total = np.add(total, term, sums[i])
                        done = i
                except FloatingPointError as exc:
                    overflow = exc  # counts only if no earlier term stops the series
                small = np.abs(terms[1:done + 1]) <= 2.0 ** -53 * sums[1:done + 1]
                small = small.all(axis=(1, 2)).tolist()
                if True in small:
                    x = sums[small.index(True) + 1]
                    break
                if overflow:
                    raise overflow
                k += size
                if k == last:
                    x = sums[size]
                    break
                terms[0], sums[0] = terms[size], sums[size]
            if p:
                resets = np.exp(np.multiply.outer([2.0 ** (q + 1 - p) for q in range(p)], y))
            for q in range(p):
                x = x.dot(x)
                x.flat[::n + 1] = resets[q]
            row = x[0] * math.exp(mid)
    except (FloatingPointError, OverflowError):  # numpy's overflow, or math.exp's
        raise OverflowError("graded-flow weights overflow a float") from None
    if s < 0:
        row[1::2] *= -1.0
    return row


def _exact_flow(a2, a1, c, t) -> bool:
    """Whether a group's flow at time t is exact: a rational heat flow, with every lambda 0."""
    return not a2 and not a1 and _rational(c, t)


def _flow_weights(a2, a1, c, t, m: int) -> tuple:
    """f[t lambda_m, ..., t lambda_{m-2j}] (c t)^j for j = 0 .. m // 2, f = exp.

    A linear group (a2 = 0) has equally spaced nodes z_j = z_0 + j h, with
    h = -2 a1 t, and the closed form

        w_j = e^{max(z_0, z_j)} S^j / j!,   S = c t (1 - e^{-|h|}) / |h|

    (Mehler's formula for the Hermite flow, where S = (1 - e^{-2t}) / 2 at
    t > 0), taken as S^j / j! = (S^{j-1} / (j-1)!) S / j, the factor with
    ``expm1``.  A heat flow (a1 = 0) is its case h = 0, S = c t: Fractions
    when ``_exact_flow`` holds, else floats at float(t).  A float flow at
    one node (degree 0 or 1, or c = 0) is f[z_0] = exp(z_0), whatever a2;
    the other a2 != 0 rows take the scaling and squaring of
    ``_exp_divided_differences``.  Raises OverflowError("graded-flow
    weights overflow a float") when a weight does not fit a float, and
    ValueError at a non-finite node or c t.

    The nodes are z = t * float(lambda_d).  For rational a2 = n2/d2 and
    a1 = n1/d1, lambda_d is one integer numerator over d2 d1, and the int / int
    division rounds it once, to the float of that Fraction, with no
    Fraction built; float coefficients keep the float expression.
    """
    depth = m // 2 + 1 if c else 1
    if _exact_flow(a2, a1, c, t):
        s = Fraction(c) * t
        weights = [s ** 0]
        for j in range(1, depth):
            weights.append(weights[-1] * s / j)
        return tuple(weights)
    t = float(t)
    ct = c * t
    degrees = range(m, m - 2 * depth, -2)
    if not a2 and not a1:
        z = [0.0 * t] * depth  # NaN at an infinite t
    elif _rational(a2, a1):
        # a2 d^2 + a1 d over the denominator d2 d1, rounded once by one int / int
        # division: float() of that Fraction, without building it
        n2, n1 = a2.numerator * a1.denominator, a1.numerator * a2.denominator
        den = a2.denominator * a1.denominator
        z = [t * ((n2 * d * d + n1 * d) / den) for d in degrees]
    else:
        z = [t * float(a2 * d * d + a1 * d) for d in degrees]
    if not (math.isfinite(ct) and all(map(math.isfinite, z))):
        raise ValueError("graded flows need a finite time")
    if a2 and depth > 1:
        return tuple(_exp_divided_differences(z, ct).tolist())
    h = 2.0 * abs(a1 * t)
    s = ct * (-math.expm1(-h) / h) if h else ct
    weights = [1.0]  # S^j / j!
    for j in range(1, depth):
        weights.append(weights[-1] * s / j)
    if h or depth == 1:  # at one node: exp(z_0) * 1.0
        try:
            weights = [math.exp(max(z[0], v)) * w for v, w in zip(z, weights)]
        except OverflowError:
            weights = [math.inf]
    if not all(map(math.isfinite, weights)):
        raise OverflowError("graded-flow weights overflow a float")
    return tuple(weights)


class _FlowTable(dict):
    """Sub-monomial -> its flow {beta: weight} under one group at one time, filled on reading.

    The group is given by its ``diffops`` flow key, which carries its (a2, a1, c).
    """

    def __init__(self, flow_key, t):
        super().__init__()
        self.flow_key, self.t = flow_key, t
        self.weights: dict = {}  # degree -> its flow weights

    def __missing__(self, sub):
        g, m = self.flow_key, mono_degree(sub)
        chain = _laplacian_chain(sub) if g.c else ({sub: 1},)
        weights = self.weights.get(m)
        if weights is None:
            weights = self.weights[m] = _flow_weights(g.a2, g.a1, g.c, self.t, m)
        return self.setdefault(
            sub, {beta: w * v for w, level in zip(weights, chain) for beta, v in level.items()}
        )


# (flow key, t) -> that group's flow table, the least recently used dropped
# past 256; typed, as Fraction(1, 2) and 0.5 hash alike but flow differently.
# The tables and their flows are shared, and a stored flow is never changed
_flow_table = lru_cache(maxsize=256, typed=True)(_FlowTable)


def monomial_flows(gen: GroupGenerator, t):
    """The map from a monomial to its flow exp(t*gen) as {key: weight}.

    Fetches each group's flow table at time t once, exact where
    ``_exact_flow`` holds.  A flow is the product of the monomial's group
    flows; for one group over all real variables it is the table's entry
    itself, which callers read and never change.
    """
    groups = gen.groups
    tables = [_flow_table(key, t) for key in gen.flow_keys]
    if len(groups) == 1 and groups[0].side == "x" and groups[0].indices is None:
        return tables[0].__getitem__

    def product(key) -> dict:
        flowed = {key: 1}
        for g, table in zip(groups, tables):
            out = {}
            for k0, v0 in flowed.items():
                for beta, w in table[g.exponents(k0)].items():
                    k1 = g.substitute(k0, beta)
                    out[k1] = out.get(k1, 0) + v0 * w
            flowed = out
        return flowed

    return product


def exp_graded(gen: GroupGenerator, t, q):
    """Apply exp(t*gen) to q, term by term; every graded flow in the package is summed here.

    The result is exact when q is exact and so is every group's flow
    (``_exact_flow``: a strictly degree-lowering flow at rational c and t);
    otherwise it is a float-mode poly, and OverflowError is raised when a
    float sum overflows.
    """
    gen.check_domain(q)
    kind = gen.family
    exact = q.mode == EXACT and all(_exact_flow(g.a2, g.a1, g.c, t) for g in gen.groups)
    if not exact:
        t = float(t)
        q = q.to_float()
    flow = monomial_flows(gen, t)
    out = {}
    for key, c in q.terms.items():
        for beta, v in flow(key).items():
            out[beta] = out.get(beta, 0) + c * v
    if not all(out.values()):  # a sum cancelled to 0
        out = {beta: v for beta, v in out.items() if v}
    if not exact and not all(map(cmath.isfinite, out.values())):
        raise OverflowError("a flowed coefficient does not fit in a float")
    return kind._trusted(out, EXACT if exact else FLOAT)


def dilation_exp(lam, q):
    """exp(lam * Euler) as the closed-form dilation by e^lam."""
    if isinstance(q, RealPoly):
        return q.dilate(math.exp(lam))
    if isinstance(q, CxPoly):
        scale = np.exp(complex(lam))
        if scale.imag == 0:
            scale = scale.real
        return q.dilate(scale)
    raise TypeError(f"cannot dilate {type(q).__name__}")


# ---------------------------------------------------------------------------
# commutation-relation exponential identities

# bch_check's gate on [X, Y] = alpha*Y, relative to the largest coefficient of Y m
HYPOTHESIS_TOL = 1e-12


def _phi_product(alpha: float) -> float:
    # alpha / (1 - e^{-alpha}), continuous value 1 at alpha = 0
    return 1.0 if alpha == 0 else alpha / -math.expm1(-alpha)


def _phi_reversed(alpha: float) -> float:
    # alpha / (e^{alpha} - 1), continuous value 1 at alpha = 0
    return 1.0 if alpha == 0 else alpha / math.expm1(alpha)


def _phi_merge(alpha: float) -> float:
    # (1 - e^{-alpha}) / alpha, continuous value 1 at alpha = 0
    return 1.0 if alpha == 0 else -math.expm1(-alpha) / alpha


@dataclass(frozen=True)
class BCHReport:
    """Deviations of the three single-commutator exponential identities."""

    alpha: float
    commutator_residual: float
    product_deviation: float
    reversed_deviation: float
    merge_deviation: float

    @property
    def max_deviation(self) -> float:
        return _worst((self.product_deviation, self.reversed_deviation, self.merge_deviation))

    def ok(self, tol: float) -> bool:
        return self.max_deviation <= tol


def _exp_product(gens, key):
    """exp(g_1) exp(g_2) ... exp(g_r) of the monomial ``key``, a float polynomial.

    The last factor flows first, each by ``exp_graded`` at time 1.
    """
    q = gens[0].family({key: 1.0}, FLOAT)
    for gen in reversed(gens):
        q = exp_graded(gen, 1.0, q)
    return q


def _worst(values) -> float:
    """Largest magnitude among values (0 if there are none); NaN if any is NaN."""
    return float(np.max(np.abs(list(values)), initial=0.0))


def _product_gap(lhs, rhs, keys) -> float:
    """Largest coefficient gap between two products of exponentials over the monomials keys."""
    return _worst(coeff_distance(_exp_product(lhs, key), _exp_product(rhs, key)) for key in keys)


def bch_check(x: GroupGenerator, y: GroupGenerator, alpha: float, k: int, l: int) -> BCHReport:
    """Verify the exponential identities that follow from [X, Y] = alpha*Y.

        e^X e^Y   = e^{X + (alpha/(1-e^{-alpha})) Y}
        e^Y e^X   = e^{X + (alpha/(e^{alpha}-1)) Y}
        e^{X+Y}   = e^X e^{((1-e^{-alpha})/alpha) Y}

    on every monomial of the graded basis of k variables and degree at most
    l; each deviation is the largest coefficient gap over them, which is the
    largest entrywise gap of the two sides' matrices on that basis.  The
    third is the splitting that turns a combined flow into a dilation
    followed by a plain heat flow.  Raises :class:`CommutationError` if
    X(Y m) - Y(X m) differs from alpha*Y m on some basis monomial m by more
    than ``HYPOTHESIS_TOL`` times the largest coefficient of any Y m (at
    least 1).
    """
    family = (x + y).family
    keys = diffops.basis_keys(k, l, family is CxPoly)
    residuals, sizes = [], [1.0]
    for key in keys:
        mono = family({key: 1.0}, FLOAT)
        ym, xm = y.apply(mono), x.apply(mono)
        residuals.append(coeff_distance(x.apply(ym) - y.apply(xm), ym.scale(alpha)))
        sizes.append(_worst(ym.terms.values()))
    residual = _worst(residuals)
    if not residual <= HYPOTHESIS_TOL * max(sizes):
        raise CommutationError(
            f"[X, Y] differs from alpha*Y by {residual:.3e} (alpha={alpha})"
        )

    return BCHReport(
        float(alpha),
        residual,
        _product_gap((x, y), (x + _phi_product(alpha) * y,), keys),
        _product_gap((y, x), (x + _phi_reversed(alpha) * y,), keys),
        _product_gap((x + y,), (x, _phi_merge(alpha) * y), keys),
    )


# ---------------------------------------------------------------------------
# the limiting-measure factorization


@dataclass(frozen=True)
class FactorizationReport:
    """Largest gap between e^{Lap_u/2} e^{T G} and its four-factor dilation/heat product."""

    k: int
    l: int
    time: float
    max_deviation: float


def factor_quadric_limit(k: int, l: int, t: float) -> FactorizationReport:
    """Check e^{(1/2)Lap_u} e^{t G_k} against

        e^{(t/2) u du} e^{((e^t+1)/4) Lap_u} e^{(t/2) v dv} e^{((e^t-1)/4) Lap_v}

    on every monomial in (u_1..u_k, v_1..v_k) of degree at most l.
    """
    u = tuple(range(k))
    v = tuple(range(k, 2 * k))
    lap_u = diffops.laplacian_op(indices=u)
    lap_v = diffops.laplacian_op(indices=v)
    et = math.exp(t)
    lhs = (0.5 * lap_u, t * diffops.g_uv_op(k))
    rhs = (
        (t / 2.0) * diffops.euler_op(indices=u),
        ((et + 1.0) / 4.0) * lap_u,
        (t / 2.0) * diffops.euler_op(indices=v),
        ((et - 1.0) / 4.0) * lap_v,
    )
    deviation = _product_gap(lhs, rhs, diffops.basis_keys(2 * k, l))
    return FactorizationReport(k, l, float(t), deviation)
