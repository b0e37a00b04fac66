"""Differential operators on polynomial spaces and their graded matrices.

Every operator here is a ``GroupGenerator``: a sum over commuting groups of
variables of lambda_g(m_g) + c_g * Lap_g, where m_g is a monomial's degree
in the group's variables, lambda_g(m) = a2*m^2 + a1*m and Lap_g is the
group's Laplacian.  The named operators (``LAPLACIAN``, ``EULER``,
``HERMITE``, ``G_K`` and the ``*_op`` constructors) write their groups once;
``apply`` is their exact action on ``RealPoly`` or ``CxPoly`` and the
semigroup module flows the same groups.  Matrix side: ``to_matrix`` realizes
an operator on the monomial basis of the k-variable polynomials of degree at
most l, ordered by total degree then lexicographically.
Degree-preserving-or-lowering operators are then block upper-triangular
(ascending-degree ordering) with their Euler eigenvalues sitting on the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .polyalg import (
    EXACT,
    FLOAT,
    CxPoly,
    GaussianRational,
    RealPoly,
    mono_degree,
    trim,
)


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
        """The generator's action on a polynomial.

        Exact for exact p and rational group coefficients; a float
        coefficient gives a float-mode result, as ``exp_graded`` does.
        """
        self.check_domain(p)
        if not all(isinstance(v, (int, Fraction)) for g in self.groups for v in (g.a2, g.a1, g.c)):
            p = p.to_float()
        terms = {}
        for key, coeff in p.terms.items():
            for g in self.groups:
                sub = g.exponents(key)
                m = mono_degree(sub)
                terms[key] = terms.get(key, 0) + coeff * (g.a2 * m * m + g.a1 * m)
                chain = _laplacian_chain(sub) if g.c else ()
                for beta, v in chain[1].items() if len(chain) > 1 else ():
                    lowered = g.substitute(key, beta)
                    terms[lowered] = terms.get(lowered, 0) + coeff * g.c * v
        return type(p)(terms, p.mode)


# ---------------------------------------------------------------------------
# the named operators

_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


def _one_side(variables, indices, a2, a1, c) -> GroupGenerator:
    if variables not in ("x", "a", "abar"):
        raise ValueError(f"variables must be 'x', 'a' or 'abar', got {variables!r}")
    return GroupGenerator((Group(variables, indices, a2, a1, c),))


def _both_sides(a2, a1, c, n=None) -> GroupGenerator:
    return GroupGenerator(tuple(Group(side, None, a2, a1, c) for side in ("a", "abar")), n)


def _radius2(name: str, n: int, b2) -> Fraction:
    """b2 (default n) of an operator restricted from the radius-sqrt(b2) sphere in R^n."""
    if n is None or n < 1:
        raise ValueError(f"{name} needs ambient dimension n >= 1")
    b2 = Fraction(n if b2 is None else b2)
    if b2 <= 0:
        raise ValueError(f"{name} needs b2 > 0")
    return b2


def laplacian_op(indices=None, variables="x") -> GroupGenerator:
    """Sum of the second derivatives in the coordinates ``indices`` (0-based, None for all).

    ``variables`` picks the real variables ("x") or one side, "a" or
    "abar", of the complexified ones.
    """
    return _one_side(variables, None if indices is None else tuple(indices), 0, 0, 1)


def euler_op(indices=None, variables="x") -> GroupGenerator:
    """Cauchy-Euler operator sum_j x_j d/dx_j: scales every monomial by its (partial) degree."""
    return _one_side(variables, None if indices is None else tuple(indices), 0, 1, 0)


LAPLACIAN = laplacian_op()
EULER = euler_op()
# Gaussian Dirichlet-form generator: laplacian minus Euler
HERMITE = GroupGenerator((Group("x", None, 0, -1, 1),))
# Large-dimension limit of gamma_n / n, and of its infinite-variable version:
#     -(1/2) sum_j (d^2/da_j^2 + d^2/dabar_j^2) + (1/2)(a da + abar dabar)
G_K = _both_sides(0, _HALF, -_HALF)


@lru_cache(maxsize=None)
def spherical_laplacian_op(n: int, b2=None) -> GroupGenerator:
    """Unique k-variable representative of the Laplacian on the radius-b sphere in R^n.

    On that sphere the Laplacian of a polynomial in k < n variables agrees
    with exactly one k-variable polynomial, namely

        laplacian(p) - (1/b^2) * (euler^2 + (n-2) euler) p.

    Memoized: every sphere transform builds one, about 2 000 per round of
    the benchmark's suite workload.
    """
    b2 = _radius2("spherical_laplacian", n, b2)
    return GroupGenerator((Group("x", None, -1 / b2, (2 - n) / b2, 1),), n)


def jsq_a_op(n: int, b2=None) -> GroupGenerator:
    """Squared holomorphic angular momentum, restricted to the quadric a.a = b^2:

        -b^2 * sum_j d^2/da_j^2 + (a da)^2 + (n-2)(a da).
    """
    b2 = _radius2("jsq_a", n, b2)
    return GroupGenerator((Group("a", None, 1, n - 2, -b2),), n)


def jsq_abar_op(n: int, b2=None) -> GroupGenerator:
    """Antiholomorphic counterpart of :func:`jsq_a_op`, in the abar variables."""
    b2 = _radius2("jsq_abar", n, b2)
    return GroupGenerator((Group("abar", None, 1, n - 2, -b2),), n)


def gamma_n_op(n: int, b2=None) -> GroupGenerator:
    """Gamma_n = (jsq_a + jsq_abar) / 2; a self-map of the 2k-variable polynomials."""
    b2 = _radius2("gamma_n", n, b2)
    return _both_sides(_HALF, Fraction(n - 2, 2), -b2 / 2, n)


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


def _real_monomials(k: int, l: int):
    basis = [()]
    for m in range(1, l + 1):
        block = set()
        for combo in combinations_with_replacement(range(k), m):
            exps = [0] * k
            for j in combo:
                exps[j] += 1
            block.add(tuple(exps))
        basis.extend(sorted(block))
    return basis


class PolySpace:
    """Ordered monomial basis of the k-variable polynomials of degree <= l.

    ``kind="real"`` enumerates x-monomials; ``kind="complex"`` enumerates
    (a, abar) bidegree monomials.  Basis order is total degree, then
    lexicographic, so degree blocks are contiguous.
    """

    def __init__(self, k: int, l: int, kind: str = "real"):
        if k < 0 or l < 0:
            raise ValueError("need k >= 0 and l >= 0")
        self.k = k
        self.l = l
        self.kind = kind
        self.family = RealPoly if kind == "real" else CxPoly
        if kind == "real":
            padded = sorted(_real_monomials(k, l), key=lambda a: (mono_degree(a), a))
            self.monomials = padded
            self.index = {trim(a): i for i, a in enumerate(padded)}
            self.degrees = [mono_degree(a) for a in padded]
        elif kind == "complex":
            pairs = []
            singles = _real_monomials(k, l)
            for a in singles:
                for b in singles:
                    if mono_degree(a) + mono_degree(b) <= l:
                        pairs.append((a, b))
            pairs.sort(key=lambda ab: (mono_degree(ab[0]) + mono_degree(ab[1]), ab))
            self.monomials = pairs
            self.index = {(trim(a), trim(b)): i for i, (a, b) in enumerate(pairs)}
            self.degrees = [mono_degree(a) + mono_degree(b) for a, b in pairs]
        else:
            raise ValueError(f"unknown space kind {kind!r}")

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def basis_poly(self, i: int, mode=EXACT):
        return self.family({self.monomials[i]: 1}, mode)

    def coords(self, p, dtype=None) -> np.ndarray:
        """Coefficient vector of p in this basis (raises if p does not fit)."""
        if not isinstance(p, self.family):
            raise TypeError(f"{self.kind} space expects a {self.family.__name__}")
        exact = p.mode == EXACT and dtype is None
        if exact:
            vec = np.zeros(self.dim, dtype=object)
            vec[:] = self.family._coeff(0, EXACT)
        else:
            vec = np.zeros(self.dim, dtype=self.family._float)
        for key, c in p.terms.items():
            if key not in self.index:
                raise ValueError(
                    f"monomial {key} outside basis of k={self.k}, l={self.l}"
                )
            vec[self.index[key]] = c if exact else self.family._float(c)
        return vec

    def poly_from_coords(self, vec, mode=FLOAT):
        return self.family({self.monomials[i]: v for i, v in enumerate(vec) if v}, mode)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of a linear operator on a graded monomial basis.

    ``entries[i, j]`` is the coefficient of basis monomial i in the image of
    basis monomial j, so matrix-vector products act on coefficient vectors.
    Exact matrices use object-dtype rational entries; float matrices use
    float64.
    """

    space: PolySpace
    entries: np.ndarray

    def __post_init__(self):
        n, m = self.entries.shape
        if n != m or n != self.space.dim:
            raise ValueError("operator matrix must be square of the basis dimension")

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, p):
        vec = self.space.coords(p, dtype=float if self.entries.dtype != object else None)
        out = self.entries.dot(vec)
        mode = EXACT if (self.entries.dtype == object and p.mode == EXACT) else FLOAT
        if mode == FLOAT and out.dtype == object:
            out = out.astype(self.space.family._float)
        return self.space.poly_from_coords(out, mode)


def _exact_entry(c):
    if isinstance(c, GaussianRational):
        if c.im:
            raise ValueError("operator matrix entries must be real")
        return c.re
    return Fraction(c)


def operator_matrix(apply_fn, space: PolySpace, exact: bool = True) -> OperatorMatrix:
    """Realize a symbolic operator on a graded basis, column by column."""
    if exact:
        entries = np.zeros((space.dim, space.dim), dtype=object)
        entries[:, :] = Fraction(0)
    else:
        entries = np.zeros((space.dim, space.dim))
    for j in range(space.dim):
        image = apply_fn(space.basis_poly(j, EXACT if exact else FLOAT))
        for key, c in image.terms.items():
            if key not in space.index:
                raise ValueError(
                    f"operator leaves the basis: produced {key} from column {j}"
                )
            if exact:
                value = _exact_entry(c)
            else:
                z = complex(c)
                if z.imag:
                    raise ValueError("operator matrix entries must be real")
                value = z.real
            entries[space.index[key], j] = value
    return OperatorMatrix(space, entries)


def to_matrix(gen: GroupGenerator, k: int, l: int, exact: bool = True) -> OperatorMatrix:
    """Matrix of an operator on the degree-graded basis of k variables."""
    space = PolySpace(k, l, "complex" if gen.is_complexified else "real")
    return operator_matrix(gen.apply, space, exact=exact)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on a shared basis."""
    if a.space is not b.space and a.space.monomials != b.space.monomials:
        raise ValueError("operator matrices live on different bases")
    return OperatorMatrix(a.space, a.entries.dot(b.entries) - b.entries.dot(a.entries))
