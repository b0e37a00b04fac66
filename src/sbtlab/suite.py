"""The fixed polynomial test suite shared by the CLI verifier and the tests.

Monomials spanning degrees 1..6 and one to three variables, plus seeded
random integer-coefficient polynomials.  Everything is exact mode so the
operator identities can be checked bit-for-bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .polyalg import RealPoly

SUITE_SEED = 20240901
RANDOM_COUNT = 20


def _mono(*exps) -> RealPoly:
    return RealPoly({tuple(exps): 1})


MONOMIALS: list = [
    ("x1", _mono(1)),
    ("x1^2", _mono(2)),
    ("x1*x2", _mono(1, 1)),
    ("x1^3", _mono(3)),
    ("x1^2*x2", _mono(2, 1)),
    ("x1*x2*x3", _mono(1, 1, 1)),
    ("x1^4", _mono(4)),
    ("x1^2*x2^2", _mono(2, 2)),
    ("x1^5", _mono(5)),
    ("x1^3*x2^2", _mono(3, 2)),
    ("x1^6", _mono(6)),
    ("x1^2*x2^2*x3^2", _mono(2, 2, 2)),
]


def random_real_poly(rng: random.Random, k: int = 3, degree: int = 6,
                     terms: int = 5) -> RealPoly:
    """Random exact polynomial: small rational coefficients, degree <= degree."""
    out = {}
    for _ in range(terms):
        exps = [0] * k
        budget = rng.randint(1, degree)
        for _ in range(budget):
            exps[rng.randrange(k)] += 1
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if coeff:
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + coeff
    poly = RealPoly(out)
    if poly.is_zero():
        return _mono(1)
    return poly


def acceptance_suite(k: int = 3, degree: int = 6, seed: int = SUITE_SEED) -> list:
    """Labelled (name, polynomial) pairs: the fixed monomials plus RANDOM_COUNT random ones."""
    monos = [(name, p) for name, p in MONOMIALS
             if p.width() <= k and p.degree() <= degree]
    rng = random.Random(seed)
    return monos + [
        (f"rand{i}", random_real_poly(rng, k=k, degree=degree))
        for i in range(RANDOM_COUNT)
    ]
