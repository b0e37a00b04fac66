"""Shared oracles for the test suite.

The sympy bridge supplies an independent symbolic-differentiation route: the
package never imports sympy, so any agreement between the two is a real
cross-check, not a tautology.  The mpmath quadric reference likewise flows
in its own parametrization and precision, apart from the package's route.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import zip_longest

import mpmath
import numpy as np
import sympy

from sbtlab import diffops, semigroup
from sbtlab.polyalg import FLOAT, CxPoly, GaussianRational, RealPoly, mono_degree, trim


def sympy_symbols(k: int):
    return sympy.symbols(f"x1:{k + 1}")


def _monomial(syms, alpha):
    return sympy.Mul(*(x ** e for x, e in zip(syms, alpha)))


def to_sympy(p: RealPoly, syms):
    expr = sympy.Integer(0)
    for alpha, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) \
            else sympy.Float(c)
        expr += term * _monomial(syms, alpha)
    return expr


def to_sympy_cx(q: CxPoly, a_syms, abar_syms):
    """An exact complexified polynomial, with a_j and abar_j as independent symbols."""
    expr = sympy.Integer(0)
    for (a, b), c in q.terms.items():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        expr += coeff * _monomial(a_syms, a) * _monomial(abar_syms, b)
    return expr


def from_sympy(expr, syms) -> RealPoly:
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for exps, coeff in poly.terms():
        coeff = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(coeff.p), int(coeff.q))
    return RealPoly(terms)


def sympy_hermite(p: RealPoly) -> RealPoly:
    """laplacian - euler by direct symbolic differentiation."""
    k = max(p.width(), 1)
    syms = sympy_symbols(k)
    expr = to_sympy(p, syms)
    out = sum(sympy.diff(expr, x, 2) - x * sympy.diff(expr, x) for x in syms)
    return from_sympy(out, syms)


def sympy_sphere_laplacian(p: RealPoly, n: int) -> RealPoly:
    """Angular-momentum route to the Laplacian on the sphere of radius sqrt(n) in R^n.

    Sums the squared rotation generators over all coordinate planes of the
    ambient space; generators involving an unused coordinate x_l (l > k)
    collapse to -x_j d_j + x_l^2 d_j^2, and the sphere constraint replaces
    sum_{l>k} x_l^2 by n - sum_{j<=k} x_j^2.  Completely independent of the
    polar-coordinate closed form used by the package.
    """
    k = max(p.width(), 1)
    assert k < n
    syms = sympy_symbols(k)
    expr = to_sympy(p, syms)
    total = sympy.Integer(0)
    for i in range(k):
        for j in range(i + 1, k):
            gen = lambda f: syms[i] * sympy.diff(f, syms[j]) - syms[j] * sympy.diff(f, syms[i])
            total += gen(gen(expr))
    tail = n - sum(x ** 2 for x in syms)
    for j in range(k):
        total += (n - k) * (-syms[j] * sympy.diff(expr, syms[j]))
        total += tail * sympy.diff(expr, syms[j], 2)
    return from_sympy(sympy.expand(total / n), syms)


def graded_matrices(gen, t, k: int, l: int):
    """(keys, flow, dense): exp(t*gen) and gen as float matrices on the graded (k, l) basis.

    Column j of ``flow`` is ``flow_monomial``'s flow of basis monomial
    ``keys[j]`` under t*gen, and column j of ``dense`` is ``gen.apply`` of it,
    so scipy's expm of t*dense is an independent reference for ``flow``.
    """
    keys = diffops.basis_keys(k, l, gen.is_complexified)
    index = {key: i for i, key in enumerate(keys)}
    flow = np.zeros((len(keys), len(keys)))
    dense = np.zeros((len(keys), len(keys)))
    for j, key in enumerate(keys):
        for beta, v in semigroup.flow_monomial(t * gen, 1.0, key).items():
            flow[index[beta], j] = v
        for beta, c in gen.apply(gen.family({key: 1.0}, FLOAT)).terms.items():
            assert complex(c).imag == 0
            dense[index[beta], j] = complex(c).real
    return keys, flow, dense


def _lowered_chain(alpha: tuple) -> list:
    """Lap^j x^alpha for j = 0, 1, ... while nonzero, as {exponents: int} maps."""
    chain = [{alpha: 1}]
    while True:
        lowered = {}
        for beta, c in chain[-1].items():
            for i, e in enumerate(beta):
                if e >= 2:
                    gamma = beta[:i] + (e - 2,) + beta[i + 1:]
                    lowered[gamma] = lowered.get(gamma, 0) + c * e * (e - 1)
        if not lowered:
            return chain
        chain.append(lowered)


def _mp_group_flow(group, t, alpha: tuple) -> dict:
    """exp(t (lambda + c Lap)) x^alpha in mpmath, the divided differences summed directly.

    exp[z_0, ..., z_j] = sum_i e^{z_i} / prod_{k != i} (z_i - z_k) needs
    distinct nodes z = t lambda(m), t lambda(m - 2), ...; the working
    precision absorbs the cancellation of that sum.
    """
    m = sum(alpha)
    nodes = [t * (group.a2 * d * d + group.a1 * d) for d in range(m, -1, -2)]
    ct = t * group.c
    out = {}
    for j, level in enumerate(_lowered_chain(alpha)):
        z = nodes[:j + 1]
        weight = sum(mpmath.exp(zi) / mpmath.fprod(zi - zk for k, zk in enumerate(z) if k != i)
                     for i, zi in enumerate(z)) * ct ** j
        for beta, v in level.items():
            out[beta] = out.get(beta, 0) + weight * v
    return out


def _sphere_monomial_moment(gamma: tuple, n: int) -> Fraction:
    """Moment of x^gamma over the sphere of radius sqrt(n) in R^n, from its pairings."""
    if any(e % 2 for e in gamma):
        return Fraction(0)
    m = sum(gamma) // 2
    value = Fraction(n ** m, math.prod(n + 2 * i for i in range(m)))
    return value * math.prod(math.prod(range(e - 1, 0, -2)) for e in gamma)


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def quadric_moment_reference(q: CxPoly, n: int, T) -> complex:
    """The moment of q under the quadric measure at (n, T), from a 60-digit evaluation.

    Each side of every term flows through its group of ``gamma_n_op(n)`` at
    time T/n, in that operator's own parametrization (not the backward
    sphere flow the package reads), and the restriction a = abar = x of the
    flowed term is integrated over the sphere exactly, monomial by monomial.
    """
    with mpmath.workdps(60):
        t = _mp(Fraction(T)) / n
        groups = {g.side: g._replace(a2=_mp(g.a2), a1=_mp(g.a1), c=_mp(g.c))
                  for g in diffops.gamma_n_op(n).groups}
        total = mpmath.mpc(0)
        for (alpha, beta), c in q.terms.items():
            c = mpmath.mpc(_mp(c.re), _mp(c.im)) if isinstance(c, GaussianRational) \
                else mpmath.mpc(complex(c))
            width = max(len(alpha), len(beta))
            left = _mp_group_flow(groups["a"], t, alpha + (0,) * (width - len(alpha)))
            right = _mp_group_flow(groups["abar"], t, beta + (0,) * (width - len(beta)))
            for a, u in left.items():
                for b, v in right.items():
                    mono = _sphere_monomial_moment(tuple(map(sum, zip(a, b))), n)
                    if mono:
                        total += c * u * v * _mp(mono)
        return complex(total)


def _pair_moment(j: int, l: int, c2: Fraction, g2: Fraction) -> Fraction:
    """E[a^j abar^l] of one coordinate, summed over the pairings of j a's and l abar's.

    A pairing with m cross pairs weighs g2^m c2^((j + l - 2m) / 2): the
    leftovers pair within their own side.
    """
    total = Fraction(0)
    for m in range(min(j, l), -1, -1):
        if (j - m) % 2 == 0 and (l - m) % 2 == 0:
            ways = (math.comb(j, m) * math.comb(l, m) * math.factorial(m)
                    * math.prod(range(j - m - 1, 0, -2)) * math.prod(range(l - m - 1, 0, -2)))
            total += ways * g2 ** m * c2 ** ((j + l - 2 * m) // 2)
    return total


def complex_gaussian_moment_reference(q: CxPoly, c2, g2) -> GaussianRational:
    """The moment of q under the complex Gaussian with E[a^2] = c2 and E[a abar] = g2, exactly.

    Each monomial's moment is a product of per-coordinate pairing counts
    (``_pair_moment``), not a flow, and the real and imaginary parts are two
    Fraction sums.  A float coefficient or parameter is read at its binary
    value.
    """
    c2, g2 = Fraction(c2), Fraction(g2)
    moments: dict = {}
    re = im = Fraction(0)
    for (alpha, beta), c in q.terms.items():
        factor = Fraction(1)
        for j, l in zip_longest(alpha, beta, fillvalue=0):
            if (j, l) not in moments:
                moments[j, l] = _pair_moment(j, l, c2, g2)
            factor *= moments[j, l]
        if factor:
            if not isinstance(c, GaussianRational):
                c = GaussianRational(complex(c).real, complex(c).imag)
            re += c.re * factor
            im += c.im * factor
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# term-by-term Fraction references for the integer-form routes


def fraction_product(p, q) -> dict:
    """The terms of p * q, one coefficient product and one sum at a time.

    A key whose running sum cancels is popped and, if reached again,
    re-inserted at the end, so the term order is part of the reference.
    """
    terms = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            key = p._key_mul(k1, k2)
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return terms


def fraction_apply(gen, p):
    """gen's action on p, one Fraction term at a time, through the validating constructor."""
    terms = {}
    for key, coeff in p.terms.items():
        for g in gen.groups:
            sub = g.exponents(key)
            m = mono_degree(sub)
            terms[key] = terms.get(key, 0) + coeff * (g.a2 * m * m + g.a1 * m)
            chain = _lowered_chain(sub) if g.c else ()
            for beta, v in chain[1].items() if len(chain) > 1 else ():
                lowered = g.substitute(key, trim(beta))
                terms[lowered] = terms.get(lowered, 0) + coeff * g.c * v
    return type(p)(terms, p.mode)


def fraction_squared_distance(p, q) -> Fraction:
    """The largest squared modulus of a coefficient difference of two exact polynomials."""
    best = Fraction(0)
    for key in set(p.terms) | set(q.terms):
        d = p.terms.get(key, 0) - q.terms.get(key, 0)
        d = d if isinstance(d, GaussianRational) else GaussianRational(d)
        best = max(best, d.re * d.re + d.im * d.im)
    return best


def quadric_norm2_reference(f: CxPoly, n: int, T) -> float:
    """The quadric squared norm of holomorphic f, its sphere sums taken pair by pair as Fractions.

    Re y and Im y of the backward flow y = sum f_alpha F x^alpha are read
    from ``flow_monomial`` with the float operations of the package, in f's
    term order; each part's sphere norm sums u v <x^a x^b> over every
    ordered pair of its terms as exact Fractions, with the sphere moments
    of ``_sphere_monomial_moment``, and is rounded once.  The two rounded
    norms are added.
    """
    gen = diffops.spherical_laplacian_op(n)
    parts = ({}, {})
    for (alpha, _), c in f.terms.items():
        c = complex(c)
        for part, x in zip(parts, (c.real, c.imag)):
            if x:
                for gamma, w in semigroup.flow_monomial(gen, -float(T) / 2.0, alpha).items():
                    part[gamma] = part.get(gamma, 0.0) + x * w
    re, im = (float(sum((Fraction(u) * Fraction(v) * _sphere_monomial_moment(
        tuple(i + j for i, j in zip_longest(a, b, fillvalue=0)), n)
        for a, u in part.items() for b, v in part.items()), Fraction(0))) for part in parts)
    return re + im


def fraction_isserlis(p: RealPoly, t: Fraction) -> Fraction:
    """Gaussian moment of exact p at rational t, summed over pair partitions term by term."""
    total = Fraction(0)
    for alpha, c in p.terms.items():
        labels = tuple(j for j, e in enumerate(alpha) for _ in range(e))
        total += c * _matchings(labels) * Fraction(t) ** (len(labels) // 2)
    return total


def _matchings(labels: tuple) -> int:
    if len(labels) % 2:
        return 0
    if not labels:
        return 1
    first, rest = labels[0], labels[1:]
    return sum(_matchings(rest[:i] + rest[i + 1:]) for i, x in enumerate(rest) if x == first)


def exp_divided_differences_frozen(z, s: float) -> np.ndarray:
    """``semigroup._exp_divided_differences`` as it stood when the weights' bits were pinned.

    Kept verbatim, so tests can hold the faster routine to these bits: a
    stopping test after every Taylor term, and the shift, scale and
    bidiagonal built with numpy.
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
            for k in range(1, len(z) + 40):
                term = term.dot(a) / k
                x = x + term
                if (np.abs(term) <= 2.0 ** -53 * x).all():
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


def flow_weights_frozen(a2, a1, c, t, m: int) -> tuple:
    """``semigroup._flow_weights`` as it stood when the weights' bits were pinned.

    Its nodes are t * float(a2 d^2 + a1 d), a Fraction rounded by float()
    when a2 and a1 are rational; the rest of the flow goes to
    ``exp_divided_differences_frozen``.
    """
    def rational(*values):
        return all(isinstance(v, (int, Fraction)) for v in values)

    depth = m // 2 + 1 if c else 1
    if not a2 and not a1:
        if rational(c, t):
            ct = Fraction(c) * t
        else:
            t = float(t)
            ct = c * t
            if not (math.isfinite(t) and math.isfinite(ct)):
                raise ValueError("graded flows need a finite time")
        weights = [ct ** 0]
        for j in range(1, depth):
            weights.append(weights[-1] * ct / j)
        if isinstance(ct, float) and math.isinf(weights[-1]):
            raise OverflowError("graded-flow weights overflow a float")
        return tuple(weights)
    t = float(t)
    z = [t * float(a2 * d * d + a1 * d) for d in range(m, m - 2 * depth, -2)]
    if depth == 1 and math.isfinite(z[0]) and math.isfinite(c * t):
        return (math.exp(z[0]),)
    return tuple(exp_divided_differences_frozen(z, c * t).tolist())


def seeded_rng(seed: int = 1234) -> random.Random:
    return random.Random(seed)
