"""Shared oracles for the test suite.

The sympy bridge supplies an independent symbolic-differentiation route: the
package never imports sympy, so any agreement between the two is a real
cross-check, not a tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import sympy

from sbtlab import diffops, semigroup
from sbtlab.polyalg import FLOAT, CxPoly, RealPoly


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


def seeded_rng(seed: int = 1234) -> random.Random:
    return random.Random(seed)
