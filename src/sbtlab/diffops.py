"""Differential operators on polynomial spaces.

Every operator here is a ``GroupGenerator``: a sum over commuting groups of
variables of lambda_g(m_g) + c_g * Lap_g, where m_g is a monomial's degree
in the group's variables, lambda_g(m) = a2*m^2 + a1*m and Lap_g is the
group's Laplacian.  The named operators (``LAPLACIAN``, ``EULER``,
``HERMITE``, ``G_K`` and the ``*_op`` constructors) write their groups once;
``apply`` is their action on ``RealPoly`` or ``CxPoly``, summed in integers
and rounded once for float input, and the semigroup module flows the same
groups.  ``basis_keys`` lists the monomials of the k-variable polynomials of
degree at most l, ordered by total degree then lexicographically, for the
checks that run over a whole graded basis.  Each operator keeps or lowers
the degree: its degree-preserving part scales a monomial by the sum of its
groups' lambda_g(m_g), and each Laplacian lowers the degree by two.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .polyalg import EXACT, FLOAT, CxPoly, RealPoly, _integer_form, _rational, mono_degree, trim


class DimensionError(ValueError):
    """Raised when a restricted operator needs more ambient dimensions."""


# ---------------------------------------------------------------------------
# group generators


class Group(NamedTuple):
    """a2*m^2 + a1*m on degree m in the group's variables, plus c times their Laplacian.

    ``side`` is "x" for real variables, "a" or "abar" for one side of the
    complexified ones; ``indices`` restricts the group to those coordinates
    (0-based), None meaning all of them.
    """

    side: str
    indices: tuple | None
    a2: object
    a1: object
    c: object

    def _part(self, key) -> tuple:
        if self.side == "x":
            return key
        return key[0] if self.side == "a" else key[1]

    def exponents(self, key) -> tuple:
        """The exponents this group reads from a term key."""
        exps = self._part(key)
        if self.indices is None:
            return exps
        return trim([exps[i] if i < len(exps) else 0 for i in self.indices])

    def substitute(self, key, sub: tuple):
        """key with this group's exponents replaced by sub."""
        exps = sub
        if self.indices is not None:
            out = list(self._part(key))
            out += [0] * (max(self.indices) + 1 - len(out))
            for i, j in enumerate(self.indices):
                out[j] = sub[i] if i < len(sub) else 0
            exps = trim(out)
        if self.side == "x":
            return exps
        return (exps, key[1]) if self.side == "a" else (key[0], exps)

    def disjoint(self, other: "Group") -> bool:
        if (self.side == "x") != (other.side == "x"):
            return False
        if self.side != other.side:
            return True
        return (self.indices is not None and other.indices is not None
                and not set(self.indices) & set(other.indices))


@lru_cache(maxsize=None)
def _laplacian_chain(alpha: tuple) -> tuple:
    """Lap^j x^alpha for j = 0, 1, ... while nonzero, as {exponents: int} maps."""
    chain = [{alpha: 1}]
    while True:
        lowered = {}
        for beta, c in chain[-1].items():
            for i, e in enumerate(beta):
                if e >= 2:
                    gamma = trim(beta[:i] + (e - 2,) + beta[i + 1 :])
                    lowered[gamma] = lowered.get(gamma, 0) + c * e * (e - 1)
        if not lowered:
            return tuple(chain)
        chain.append(lowered)


class _FlowKey:
    """One group's (a2, a1, c) for the semigroup's flow tables.

    Hashed and compared by identity, so a table lookup hashes no Fraction of
    the coefficients.  ``_flow_key`` hands out one per distinct (a2, a1, c)
    while it holds it; a key built after one was dropped names equal flows.
    """

    __slots__ = ("a2", "a1", "c")

    def __init__(self, a2, a1, c):
        self.a2, self.a1, self.c = a2, a1, c


_flow_key = lru_cache(maxsize=256)(_FlowKey)


@dataclass(frozen=True)
class GroupGenerator:
    """Sum over groups on disjoint variables of lambda_g(m_g) + c_g * Lap_g.

    ``n`` is the ambient dimension of an operator restricted from a sphere
    or quadric, None for the flat ones; such an operator acts only on
    polynomials in fewer than n variables.  Closed under ``+`` (groups on
    the same variables add their coefficients, the smaller n is kept) and
    scalar ``*``, which is what the exponential identities need.
    """

    groups: tuple
    n: int | None = None
    # each group's flow key, for the semigroup's flow tables
    flow_keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "flow_keys",
                           tuple(_flow_key(g.a2, g.a1, g.c) for g in self.groups))

    @property
    def is_complexified(self) -> bool:
        return any(g.side != "x" for g in self.groups)

    @property
    def family(self) -> type:
        """The polynomial family this generator acts on."""
        return CxPoly if self.is_complexified else RealPoly

    def check_domain(self, p) -> None:
        """Raise unless p is a polynomial this generator acts on."""
        if not isinstance(p, self.family):
            raise TypeError(
                f"this generator acts on {self.family.__name__}, got {type(p).__name__}"
            )
        if self.n is not None and p.width() >= self.n:
            raise DimensionError(
                f"polynomial in {p.width()} variables needs ambient dimension > {p.width()}, "
                f"got {self.n}"
            )

    def __add__(self, other):
        if not isinstance(other, GroupGenerator):
            return NotImplemented
        merged = {(g.side, g.indices): g for g in self.groups}
        for g in other.groups:
            h = merged.get((g.side, g.indices))
            if h is not None:
                g = g._replace(a2=h.a2 + g.a2, a1=h.a1 + g.a1, c=h.c + g.c)
            elif not all(g.disjoint(h) for h in merged.values()):
                raise ValueError("the groups of a sum must share no variables and not mix "
                                 "real and complexified ones")
            merged[(g.side, g.indices)] = g
        n = min((m for m in (self.n, other.n) if m is not None), default=None)
        return GroupGenerator(tuple(merged.values()), n)

    def __mul__(self, s):
        return GroupGenerator(
            tuple(g._replace(a2=s * g.a2, a1=s * g.a1, c=s * g.c) for g in self.groups), self.n
        )

    __rmul__ = __mul__

    def apply(self, p):
        """The generator's action on a polynomial, summed in integers (``_integer_action``).

        Exact p and rational group coefficients give an exact result.  A float
        p or group coefficient gives a float-mode result, as ``exp_graded``
        does: the exact action on the binary values, each part rounded once.
        """
        form = self._integer_action(p)
        exact = p.mode == EXACT and all(_rational(*g[2:]) for g in self.groups)  # a2, a1, c
        return p._from_integer_form(*form, EXACT if exact else FLOAT)

    def _integer_action(self, p):
        """The integer form (nums, den) of the exact action on p, before any rounding.

        Float coefficients are read at their binary values.  Checks p's
        domain; builds no polynomial, so a caller that only reads the
        integers (``polyalg._integer_distance``) makes no Fraction.
        """
        self.check_domain(p)
        nums, den = _integer_form(p)
        ratios = [[v.as_integer_ratio() for v in g[2:]] for g in self.groups]  # a2, a1, c
        common = math.lcm(*(d for row in ratios for _, d in row))
        scalars = [tuple(a * (common // b) for a, b in row) for row in ratios]
        if isinstance(p, RealPoly):
            terms = {key: s for key, s in self._act(nums, scalars).items() if s}
        else:
            # the scalars are real: the real and imaginary numerators act apart,
            # and both sums insert their keys in the same order
            re = self._act({key: v[0] for key, v in nums.items()}, scalars)
            im = self._act({key: v[1] for key, v in nums.items()}, scalars)
            terms = {key: (s, im[key]) for key, s in re.items() if s or im[key]}
        return terms, den * common

    def _act(self, coeffs: dict, scalars: list) -> dict:
        """sum over groups of (a2 m^2 + a1 m) c x^key + c Lap x^key, with (a2, a1, c) from scalars.

        Every key it reaches is stored, zero sums included, in the order reached.
        """
        terms = {}
        for key, coeff in coeffs.items():
            for g, (a2, a1, c) in zip(self.groups, scalars):
                sub = g.exponents(key)
                m = mono_degree(sub)
                terms[key] = terms.get(key, 0) + coeff * (a2 * m * m + a1 * m)
                chain = _laplacian_chain(sub) if c else ()
                for beta, v in chain[1].items() if len(chain) > 1 else ():
                    lowered = g.substitute(key, beta)
                    terms[lowered] = terms.get(lowered, 0) + coeff * c * v
        return terms


# ---------------------------------------------------------------------------
# the named operators

_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


def _one_side(indices, a2, a1, c) -> GroupGenerator:
    return GroupGenerator((Group("x", None if indices is None else tuple(indices), a2, a1, c),))


def _both_sides(a2, a1, c, n=None) -> GroupGenerator:
    return GroupGenerator(tuple(Group(side, None, a2, a1, c) for side in ("a", "abar")), n)


def ambient_dimension(name: str, n, least: int) -> int:
    """n as an int; ValueError unless it is an integer (of any integer type) >= least."""
    try:
        value = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} needs an integer ambient dimension, got n={n}") from None
    if value < least:
        raise ValueError(f"{name} needs ambient dimension n >= {least}, got n={value}")
    return value


def laplacian_op(indices=None) -> GroupGenerator:
    """Sum of the second derivatives in the coordinates ``indices`` (0-based, None for all)."""
    return _one_side(indices, 0, 0, 1)


def euler_op(indices=None) -> GroupGenerator:
    """Cauchy-Euler operator sum_j x_j d/dx_j: scales every monomial by its (partial) degree."""
    return _one_side(indices, 0, 1, 0)


LAPLACIAN = laplacian_op()
EULER = euler_op()
# Gaussian Dirichlet-form generator: laplacian minus Euler
HERMITE = GroupGenerator((Group("x", None, 0, -1, 1),))
# Large-dimension limit of gamma_n / n, and of its infinite-variable version:
#     -(1/2) sum_j (d^2/da_j^2 + d^2/dabar_j^2) + (1/2)(a da + abar dabar)
G_K = _both_sides(0, _HALF, -_HALF)


@lru_cache(maxsize=256, typed=True)
def spherical_laplacian_op(n: int) -> GroupGenerator:
    """Unique k-variable representative of the Laplacian on the sphere of radius sqrt(n) in R^n.

    On that sphere the Laplacian of a polynomial in k < n variables agrees
    with exactly one k-variable polynomial, namely

        laplacian(p) - (1/n) * (euler^2 + (n-2) euler) p.

    Memoized, apart for each argument type so that a float n is still
    rejected: each backward flow of a quadric norm or moment
    (``measures._backward_flow``) reads one, 2 048 per round of the
    benchmark's suite workload.
    """
    n = ambient_dimension("spherical_laplacian", n, 1)
    return GroupGenerator((Group("x", None, Fraction(-1, n), Fraction(2 - n, n), 1),), n)


def jsq_a_op(n: int) -> GroupGenerator:
    """Squared holomorphic angular momentum, restricted to the quadric a.a = n:

        -n * sum_j d^2/da_j^2 + (a da)^2 + (n-2)(a da).
    """
    n = ambient_dimension("jsq_a", n, 1)
    return GroupGenerator((Group("a", None, 1, n - 2, -n),), n)


def jsq_abar_op(n: int) -> GroupGenerator:
    """Antiholomorphic counterpart of :func:`jsq_a_op`, in the abar variables."""
    n = ambient_dimension("jsq_abar", n, 1)
    return GroupGenerator((Group("abar", None, 1, n - 2, -n),), n)


def gamma_n_op(n: int) -> GroupGenerator:
    """Gamma_n = (jsq_a + jsq_abar) / 2; a self-map of the 2k-variable polynomials."""
    n = ambient_dimension("gamma_n", n, 1)
    return _both_sides(_HALF, Fraction(n - 2, 2), Fraction(-n, 2), n)


def g_uv_op(k: int) -> GroupGenerator:
    """Real-coordinate form of ``G_K`` under a = u + iv with u, v real:

        (1/4)(-Lap_u + 2 u du + Lap_v + 2 v dv)

    acting on polynomials in 2k variables (u_1..u_k, v_1..v_k).
    """
    if not k:
        raise ValueError("g_uv needs half_k")
    return GroupGenerator((
        Group("x", tuple(range(k)), 0, _HALF, -_QUARTER),
        Group("x", tuple(range(k, 2 * k)), 0, _HALF, _QUARTER),
    ))


# ---------------------------------------------------------------------------
# graded monomial bases


def basis_keys(k: int, l: int, complexified: bool = False) -> list:
    """Term keys of the monomials of degree at most l in k variables.

    Real keys are exponent tuples; complexified keys are (a, abar) pairs of
    them, graded by a's degree plus abar's.  Ordered by total degree, then
    lexicographically, so the degree blocks are contiguous.
    """
    if k < 0 or l < 0:
        raise ValueError("need k >= 0 and l >= 0")
    singles = []
    for m in range(l + 1):
        for combo in combinations_with_replacement(range(k), m):
            exps = [0] * k
            for j in combo:
                exps[j] += 1
            singles.append(tuple(exps))
    if not complexified:
        return [trim(a) for a in sorted(singles, key=lambda a: (sum(a), a))]
    pairs = [(a, b) for a in singles for b in singles if sum(a) + sum(b) <= l]
    pairs.sort(key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab))
    return [(trim(a), trim(b)) for a, b in pairs]
