"""Differential operators on polynomial spaces and their graded matrices.

Symbolic side: each operator is a linear self-map of ``RealPoly`` or
``CxPoly``, built from coordinate second derivatives and Euler (degree)
operators.  Matrix side: ``to_matrix`` realizes an operator on the monomial
basis of the k-variable polynomials of degree at most l, ordered by total
degree then lexicographically.  Degree-preserving-or-lowering operators are
then block upper-triangular (ascending-degree ordering) with their Euler
eigenvalues sitting on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .polyalg import (
    EXACT,
    FLOAT,
    CxPoly,
    GaussianRational,
    RealPoly,
    mono_degree,
    pad,
    trim,
)


class DimensionError(ValueError):
    """Raised when a restricted operator needs more ambient dimensions."""


# ---------------------------------------------------------------------------
# symbolic building blocks


def _d2_real(p: RealPoly, j: int) -> RealPoly:
    terms = {}
    for a, c in p.terms.items():
        if j >= len(a) or a[j] < 2:
            continue
        e = a[j]
        key = a[:j] + (e - 2,) + a[j + 1 :]
        terms[trim(key)] = terms.get(trim(key), 0) + c * e * (e - 1)
    return RealPoly(terms, p.mode)


def _d2_cx(q: CxPoly, j: int, side: str) -> CxPoly:
    terms = {}
    for (a, b), c in q.terms.items():
        src = a if side == "a" else b
        if j >= len(src) or src[j] < 2:
            continue
        e = src[j]
        new = src[:j] + (e - 2,) + src[j + 1 :]
        key = (trim(new), b) if side == "a" else (a, trim(new))
        terms[key] = terms.get(key, 0) + c * e * (e - 1)
    return CxPoly(terms, q.mode)


def _euler_weight(exps, indices):
    if indices is None:
        return mono_degree(exps)
    return sum(exps[j] for j in indices if j < len(exps))


def laplacian(p, variables: str | None = None, indices=None):
    """Sum of coordinate second derivatives.

    For ``CxPoly`` pass ``variables="a"`` or ``"abar"`` to pick the side.
    ``indices`` restricts the sum to a subset of coordinates (0-based).
    """
    if isinstance(p, RealPoly):
        cols = range(p.width()) if indices is None else indices
        out = RealPoly.zero(p.mode)
        for j in cols:
            out = out + _d2_real(p, j)
        return out
    if variables not in ("a", "abar"):
        raise ValueError("complex laplacian needs variables='a' or 'abar'")
    cols = range(p.width()) if indices is None else indices
    out = CxPoly.zero(p.mode)
    for j in cols:
        out = out + _d2_cx(p, j, variables)
    return out


def euler(p, variables: str | None = None, indices=None):
    """Cauchy-Euler operator: scales every monomial by its (partial) degree."""
    if isinstance(p, RealPoly):
        terms = {}
        for a, c in p.terms.items():
            w = _euler_weight(a, indices)
            if w:
                terms[a] = c * w
        return RealPoly(terms, p.mode)
    if variables not in ("a", "abar"):
        raise ValueError("complex euler needs variables='a' or 'abar'")
    terms = {}
    for (a, b), c in p.terms.items():
        w = _euler_weight(a if variables == "a" else b, indices)
        if w:
            terms[(a, b)] = c * w
    return CxPoly(terms, p.mode)


def hermite(p: RealPoly) -> RealPoly:
    """Gaussian Dirichlet-form generator: laplacian minus Euler."""
    return laplacian(p) - euler(p)


def _coerce_b2(b2, mode):
    if mode == EXACT:
        if isinstance(b2, (int, Fraction)):
            return Fraction(b2)
        raise ValueError("exact-mode operators need a rational radius-squared")
    return float(b2)


def spherical_laplacian(p: RealPoly, n: int, b2) -> RealPoly:
    """Unique k-variable representative of the sphere Laplacian of p.

    On the radius-b sphere in n ambient dimensions the Laplacian of a
    polynomial in k < n variables agrees with exactly one k-variable
    polynomial, namely

        laplacian(p) - (1/b^2) * (euler^2 + (n-2) euler) p.
    """
    if p.width() >= n:
        raise DimensionError(
            f"polynomial in {p.width()} variables needs ambient dimension > {p.width()}, got {n}"
        )
    b2 = _coerce_b2(b2, p.mode)
    e1 = euler(p)
    correction = (euler(e1) + (n - 2) * e1).scale(
        Fraction(1, 1) / b2 if p.mode == EXACT else 1.0 / b2
    )
    return laplacian(p) - correction


def jsq_a(q: CxPoly, n: int, b2) -> CxPoly:
    """Squared holomorphic angular momentum, restricted to the quadric a.a = b^2:

        -b^2 * sum_j d^2/da_j^2 + (a da)^2 + (n-2)(a da).
    """
    if q.width() >= n:
        raise DimensionError(
            f"polynomial in {q.width()} variables needs ambient dimension > {q.width()}, got {n}"
        )
    b2 = _coerce_b2(b2, q.mode)
    e1 = euler(q, "a")
    return -laplacian(q, "a").scale(b2) + euler(e1, "a") + (n - 2) * e1


def jsq_abar(q: CxPoly, n: int, b2) -> CxPoly:
    """Antiholomorphic counterpart of :func:`jsq_a`."""
    if q.width() >= n:
        raise DimensionError(
            f"polynomial in {q.width()} variables needs ambient dimension > {q.width()}, got {n}"
        )
    b2 = _coerce_b2(b2, q.mode)
    e1 = euler(q, "abar")
    return -laplacian(q, "abar").scale(b2) + euler(e1, "abar") + (n - 2) * e1


def gamma_n(q: CxPoly, n: int, b2) -> CxPoly:
    """Half-sum of the squared angular momenta; a self-map of the 2k-variable polynomials."""
    s = jsq_a(q, n, b2) + jsq_abar(q, n, b2)
    return s.scale(Fraction(1, 2)) if q.mode == EXACT else s.scale(0.5)


def g_k(q: CxPoly) -> CxPoly:
    """Large-dimension limit of gamma_n / n:

        -(1/2) sum_j (d^2/da_j^2 + d^2/dabar_j^2) + (1/2)(a da + abar dabar).
    """
    half = Fraction(1, 2) if q.mode == EXACT else 0.5
    second = laplacian(q, "a") + laplacian(q, "abar")
    first = euler(q, "a") + euler(q, "abar")
    return (first - second).scale(half)


def g_uv(p: RealPoly, k: int) -> RealPoly:
    """Real-coordinate form of :func:`g_k` under a = u + iv with u, v real:

        (1/4)(-Lap_u + 2 u du + Lap_v + 2 v dv)

    acting on polynomials in 2k variables (u_1..u_k, v_1..v_k).
    """
    u = tuple(range(k))
    v = tuple(range(k, 2 * k))
    quarter = Fraction(1, 4) if p.mode == EXACT else 0.25
    out = (
        -laplacian(p, indices=u)
        + 2 * euler(p, indices=u)
        + laplacian(p, indices=v)
        + 2 * euler(p, indices=v)
    )
    return out.scale(quarter)


# ---------------------------------------------------------------------------
# operator specifications

_REAL_KINDS = {"laplacian", "euler", "hermite", "spherical_laplacian", "g_uv"}
_CX_KINDS = {"jsq_a", "jsq_abar", "gamma_n", "g_k"}


@dataclass(frozen=True)
class OperatorSpec:
    """Hashable tag naming one of the supported operators.

    ``n``/``b2`` parametrize the sphere and quadric families; ``variables``
    selects the real/holomorphic/antiholomorphic flavor of laplacian and
    euler; ``indices`` restricts those to a coordinate subset; ``half_k``
    fixes the u/v split of the real-coordinate g operator.
    """

    kind: str
    n: int | None = None
    b2: Fraction | None = None
    variables: str = "x"
    indices: tuple | None = None
    half_k: int | None = None

    def __post_init__(self):
        if self.kind not in _REAL_KINDS | _CX_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("spherical_laplacian", "jsq_a", "jsq_abar", "gamma_n"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.kind} needs ambient dimension n >= 1")
            if self.b2 is None or self.b2 <= 0:
                raise ValueError(f"{self.kind} needs b2 > 0")
        if self.kind == "g_uv" and not self.half_k:
            raise ValueError("g_uv needs half_k")

    @property
    def is_complexified(self) -> bool:
        return self.kind in _CX_KINDS or self.variables in ("a", "abar")

    def apply(self, p):
        if self.kind == "laplacian":
            var = None if isinstance(p, RealPoly) else self.variables
            return laplacian(p, var, self.indices)
        if self.kind == "euler":
            var = None if isinstance(p, RealPoly) else self.variables
            return euler(p, var, self.indices)
        if self.kind == "hermite":
            return hermite(p)
        if self.kind == "spherical_laplacian":
            return spherical_laplacian(p, self.n, self.b2)
        if self.kind == "jsq_a":
            return jsq_a(p, self.n, self.b2)
        if self.kind == "jsq_abar":
            return jsq_abar(p, self.n, self.b2)
        if self.kind == "gamma_n":
            return gamma_n(p, self.n, self.b2)
        if self.kind == "g_k":
            return g_k(p)
        if self.kind == "g_uv":
            return g_uv(p, self.half_k)
        raise AssertionError(self.kind)

    def __call__(self, p):
        return self.apply(p)


LAPLACIAN = OperatorSpec("laplacian")
EULER = OperatorSpec("euler")
HERMITE = OperatorSpec("hermite")
LAPLACIAN_A = OperatorSpec("laplacian", variables="a")
EULER_A = OperatorSpec("euler", variables="a")
G_K = OperatorSpec("g_k")
# The infinite-variable version acts on any finitely supported polynomial
# exactly as g_k does, so its restriction is the same operator tag.
G_INFTY_RESTRICTED = G_K


def spherical_laplacian_op(n: int, b2=None) -> OperatorSpec:
    return OperatorSpec("spherical_laplacian", n=n, b2=Fraction(b2 if b2 is not None else n))


def jsq_a_op(n: int, b2=None) -> OperatorSpec:
    return OperatorSpec("jsq_a", n=n, b2=Fraction(b2 if b2 is not None else n))


def jsq_abar_op(n: int, b2=None) -> OperatorSpec:
    return OperatorSpec("jsq_abar", n=n, b2=Fraction(b2 if b2 is not None else n))


def gamma_n_op(n: int, b2=None) -> OperatorSpec:
    return OperatorSpec("gamma_n", n=n, b2=Fraction(b2 if b2 is not None else n))


def g_uv_op(k: int) -> OperatorSpec:
    return OperatorSpec("g_uv", half_k=k)


def laplacian_op(indices=None, variables="x") -> OperatorSpec:
    return OperatorSpec(
        "laplacian", variables=variables, indices=None if indices is None else tuple(indices)
    )


def euler_op(indices=None, variables="x") -> OperatorSpec:
    return OperatorSpec(
        "euler", variables=variables, indices=None if indices is None else tuple(indices)
    )


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
        if self.kind == "real":
            return RealPoly({self.monomials[i]: 1}, mode)
        a, b = self.monomials[i]
        return CxPoly({(a, b): 1}, mode)

    def coords(self, p, dtype=None) -> np.ndarray:
        """Coefficient vector of p in this basis (raises if p does not fit)."""
        if self.kind == "real":
            if not isinstance(p, RealPoly):
                raise TypeError("real space expects a RealPoly")
        elif not isinstance(p, CxPoly):
            raise TypeError("complex space expects a CxPoly")
        if p.mode == EXACT and dtype is None:
            vec = np.zeros(self.dim, dtype=object)
            if self.kind == "real":
                vec[:] = Fraction(0)
            else:
                vec[:] = GaussianRational(0)
        else:
            vec = np.zeros(self.dim, dtype=complex if self.kind == "complex" else float)
        for key, c in p.terms.items():
            if key not in self.index:
                raise ValueError(
                    f"monomial {key} outside basis of k={self.k}, l={self.l}"
                )
            vec[self.index[key]] = c if p.mode == EXACT and dtype is None else (
                complex(c) if self.kind == "complex" else float(c)
            )
        return vec

    def poly_from_coords(self, vec, mode=FLOAT):
        if self.kind == "real":
            return RealPoly({self.monomials[i]: v for i, v in enumerate(vec) if v}, mode)
        return CxPoly({self.monomials[i]: v for i, v in enumerate(vec) if v}, mode)


def space_for(spec: OperatorSpec, k: int, l: int) -> PolySpace:
    return PolySpace(k, l, "complex" if spec.is_complexified else "real")


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
            out = out.astype(complex if self.space.kind == "complex" else float)
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


def to_matrix(spec: OperatorSpec, k: int, l: int, exact: bool = True) -> OperatorMatrix:
    """Matrix of the named operator on the degree-graded basis of k variables."""
    return operator_matrix(spec.apply, space_for(spec, k, l), exact=exact)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on a shared basis."""
    if a.space is not b.space and a.space.monomials != b.space.monomials:
        raise ValueError("operator matrices live on different bases")
    return OperatorMatrix(a.space, a.entries.dot(b.entries) - b.entries.dot(a.entries))
