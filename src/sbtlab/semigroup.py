"""Exponentials of graded operators on polynomial spaces.

Every generator is a ``diffops.GroupGenerator``: a sum over commuting groups
of variables of lambda_g(m_g) + c_g * Lap_g, which on a monomial of degree
m_g in the group's variables acts as the scalar lambda_g(m_g) =
a2*m_g^2 + a1*m_g plus c_g times the group's Laplacian.  The groups act on
disjoint variables, so exp(tA) of a monomial is the product of its
per-group flows, and each group flows as

    exp(t(lambda + c Lap)) x^alpha = sum_j f[t lambda_m, ..., t lambda_{m-2j}] (ct)^j Lap^j x^alpha

with f = exp.  The chain Lap^j x^alpha is exact integer arithmetic; the
divided-difference weights come from the exponential of one small bidiagonal
matrix per degree.  When every lambda is 0 the weights are (ct)^j / j!,
exact for an exact polynomial and a rational time.

* ``exp_graded``   -- exp(t*A) applied to one polynomial, term by term, so
  the cost follows the polynomial's terms, not the size of the graded basis.
* ``dilation_exp`` -- closed-form dilation semigroup of the Euler operator.

Also here: the commutation-relation exponential identities ("[X,Y] = aY"
factorizations) as a checkable report, and the four-factor dilation/heat
product that merges into the limiting-measure exponential.  Both compare
two products of exponentials on every monomial of a graded basis: column j
of a product's matrix is the flow of basis monomial j through its factors,
the last factor first, so no basis-sized matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import diffops
from .diffops import Group, GroupGenerator, _laplacian_chain
from .polyalg import EXACT, FLOAT, CxPoly, RealPoly, mono_degree


class CommutationError(ValueError):
    """Raised when the [X, Y] = alpha*Y hypothesis does not hold."""


# ---------------------------------------------------------------------------
# flows, one monomial at a time


def _exp_divided_differences(z, s: float) -> np.ndarray:
    """s^j exp[z_0, ..., z_j] for j = 0 .. len(z) - 1.

    The first row of exp(B) for the bidiagonal B with diagonal z and
    superdiagonal s (Opitz), which stays accurate as the nodes merge, where
    the divided-difference quotients cancel.  Scaling and squaring: a Taylor
    series on the centred B / 2^p, whose diagonal is at most 1/2 in size,
    then p squarings.  With the sign of s taken out every entry is positive,
    so the squarings do not cancel; the diagonal is reset to exact
    exponentials after each (Al-Mohy and Higham, SIMAX 31, 2009).  Raises
    OverflowError when a weight does not fit in a float.
    """
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(z)) and math.isfinite(s)):
        raise ValueError("graded flows need a finite time")
    mid = (z.max() + z.min()) / 2.0
    y = z - mid
    radius = float(np.max(np.abs(y)))
    p = math.ceil(math.log2(2.0 * radius)) if radius > 0.5 else 0
    scale = 2.0 ** -p
    a = np.diag(y * scale) + np.diag(np.full(len(z) - 1, abs(s) * scale), 1)
    x = term = np.eye(len(z))
    try:
        with np.errstate(over="raise"):
            # entry (i, j) needs about j - i + 20 terms when |diagonal| <= 1/2
            for k in range(1, len(z) + 40):
                term = term.dot(a) / k
                x = x + term
                if np.all(np.abs(term) <= 2.0 ** -53 * x):
                    break
            for q in range(p):
                x = x.dot(x)
                np.fill_diagonal(x, np.exp(y * 2.0 ** (q + 1 - p)))
            row = x[0] * math.exp(mid)
    except FloatingPointError:
        raise OverflowError("graded-flow weights overflow a float") from None
    if s < 0:
        row[1::2] *= -1.0
    return row


@lru_cache(maxsize=None)
def _flow_weights(a2, a1, c, t, m: int, exact: bool) -> tuple:
    """f[t lambda_m, ..., t lambda_{m-2j}] (c t)^j for j = 0 .. m // 2, f = exp."""
    depth = m // 2 + 1 if c else 1
    if exact:
        ct = Fraction(c) * t
        return tuple(ct ** j / math.factorial(j) for j in range(depth))
    z = [t * float(a2 * d * d + a1 * d) for d in range(m, m - 2 * depth, -2)]
    return tuple(_exp_divided_differences(z, c * t).tolist())


# (a2, a1, c, t, exact, sub-monomial) -> its flow; the maps are shared, never changed
_group_flows: dict = {}


def _group_flow(g: Group, t, exact: bool, sub: tuple) -> dict:
    key = (g.a2, g.a1, g.c, t, exact, sub)
    flowed = _group_flows.get(key)
    if flowed is None:
        chain = _laplacian_chain(sub) if g.c else ({sub: 1},)
        weights = _flow_weights(g.a2, g.a1, g.c, t, mono_degree(sub), exact)
        flowed = _group_flows.setdefault(
            key, {beta: w * v for w, level in zip(weights, chain) for beta, v in level.items()}
        )
    return flowed


def flow_monomial(gen: GroupGenerator, t, key, exact: bool = False) -> dict:
    """exp(t*gen) of the monomial ``key`` as {key: weight}.

    The product of the monomial's group flows, each memoized on (group
    generator, t, sub-monomial).  A group over all of a real monomial's
    variables returns the memoized map itself: callers read it and never
    change it.
    """
    groups = gen.groups
    if len(groups) == 1 and groups[0].side == "x" and groups[0].indices is None:
        return _group_flow(groups[0], t, exact, key)
    flowed = {key: 1}
    for g in groups:
        product = {}
        for k0, v0 in flowed.items():
            for beta, w in _group_flow(g, t, exact, g.exponents(k0)).items():
                k1 = g.substitute(k0, beta)
                product[k1] = product.get(k1, 0) + v0 * w
        flowed = product
    return flowed


def exp_graded(gen: GroupGenerator, t, q):
    """Apply exp(t*gen) to q, term by term.

    The result is exact when q is exact, t is rational and every lambda of
    the generator is 0 (a strictly degree-lowering flow); otherwise it is a
    float-mode poly.
    """
    gen.check_domain(q)
    kind = gen.family
    exact = (
        q.mode == EXACT
        and isinstance(t, (int, Fraction))
        and all(not g.a2 and not g.a1 and isinstance(g.c, (int, Fraction)) for g in gen.groups)
    )
    if not exact:
        t = float(t)
    out = {}
    for key, c in q.terms.items():
        if not exact:
            c = kind._float(c)
        for beta, v in flow_monomial(gen, t, key, exact).items():
            out[beta] = out.get(beta, 0) + c * v
    return kind._trusted({beta: v for beta, v in out.items() if v}, EXACT if exact else FLOAT)


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


def _exp_product(gens, key) -> dict:
    """exp(g_1) exp(g_2) ... exp(g_r) of the monomial ``key`` as {key: coefficient}.

    The last factor flows first, each by ``flow_monomial`` at time 1.
    """
    out = {key: 1.0}
    for gen in reversed(gens):
        flowed = {}
        for k0, v0 in out.items():
            for beta, w in flow_monomial(gen, 1.0, k0).items():
                flowed[beta] = flowed.get(beta, 0.0) + v0 * w
        out = flowed
    return out


def _worst(values) -> float:
    """Largest magnitude among values (0 if there are none); NaN if any is NaN."""
    return float(np.max(np.abs(list(values)), initial=0.0))


def _gap(a: dict, b: dict) -> float:
    """Largest coefficient gap between two {key: coefficient} maps; NaN if any gap is."""
    return _worst(a.get(key, 0.0) - b.get(key, 0.0) for key in a.keys() | b.keys())


def _product_gap(lhs, rhs, keys) -> float:
    """Largest coefficient gap between two products of exponentials over the monomials keys."""
    return _worst(_gap(_exp_product(lhs, key), _exp_product(rhs, key)) for key in keys)


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
        residuals.append(_gap((x.apply(ym) - y.apply(xm)).terms, ym.scale(alpha).terms))
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
