"""Reference values computed apart from sbtlab.

Everything here works on plain ``{exponent tuple: coefficient}`` dicts and
shares no code with the package: Gaussian and sphere moments come from their
closed forms, and coefficient gaps are taken term by term.  The checks in
``workloads.py`` compare sbtlab's outputs against these.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def square(terms: dict) -> dict:
    """Coefficients of p*p for p given as {exponents: Fraction}."""
    out: dict = {}
    items = list(terms.items())
    for a1, c1 in items:
        for a2, c2 in items:
            width = max(len(a1), len(a2))
            key = tuple(
                (a1[j] if j < len(a1) else 0) + (a2[j] if j < len(a2) else 0)
                for j in range(width)
            )
            out[key] = out.get(key, 0) + c1 * c2
    return out


def gaussian_moment(terms: dict, t) -> Fraction:
    """E[p] under the centred Gaussian of per-coordinate variance t.

    Per monomial: the product over coordinates of (e-1)!! t^(e/2), zero when
    any exponent is odd.
    """
    t = Fraction(t)
    total = Fraction(0)
    for alpha, c in terms.items():
        if any(e % 2 for e in alpha):
            continue
        value = Fraction(c)
        for e in alpha:
            value *= _double_factorial(e - 1) * t ** (e // 2)
        total += value
    return total


def sphere_moment(terms: dict, n: int) -> Fraction:
    """E[p] under the normalised measure of the radius-sqrt(n) sphere in R^n.

    Per monomial of degree 2m with even exponents:
    prod (e-1)!! * n^m / (n (n+2) ... (n+2m-2)).
    """
    total = Fraction(0)
    for alpha, c in terms.items():
        if any(e % 2 for e in alpha):
            continue
        m = sum(alpha) // 2
        num = 1
        for e in alpha:
            num *= _double_factorial(e - 1)
        den = 1
        for i in range(m):
            den *= n + 2 * i
        total += Fraction(c) * Fraction(num * n ** m, den)
    return total


def rel_gap(value, reference) -> float:
    """|value - reference| / max(1, |reference|); NaN and inf never pass a <= test."""
    value = complex(value)
    reference = complex(reference)
    gap = abs(value - reference)
    return gap / max(1.0, abs(reference)) if math.isfinite(gap) else math.inf


def norm_gap(domain: float, rng: float) -> float:
    """Relative unitarity gap |domain - range| / |domain| (README criterion 1)."""
    gap = abs(domain - rng)
    if not math.isfinite(gap):
        return math.inf
    return gap / abs(domain) if domain else gap


def scaled_coeff_gap(left: dict, right: dict) -> float:
    """Largest coefficient difference over the largest coefficient (at least 1)."""
    keys = set(left) | set(right)
    if not keys:
        return 0.0
    gap = max(abs(complex(left.get(k, 0)) - complex(right.get(k, 0))) for k in keys)
    size = max(abs(complex(c)) for c in list(left.values()) + list(right.values()))
    out = gap / max(1.0, size)
    return out if math.isfinite(out) else math.inf


def dilate_holomorphic(terms: dict, lam: float) -> dict:
    """Coefficients of q(lam * a) for q given as {(alpha, beta): c}, beta empty."""
    return {
        (alpha, beta): complex(c) * lam ** (sum(alpha) + sum(beta))
        for (alpha, beta), c in terms.items()
    }
