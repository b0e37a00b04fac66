"""Exact moment integration against the five measure families.

* ``gauss``   -- product Gaussian of variance t on the real coordinates.
* ``xi``      -- complex product Gaussian with independent real/imaginary
                 parts of variances (2s-t)/2 and t/2 per coordinate.
* ``gamma``   -- the xi family at (s, t) = (e^T, e^T - 1); real/imaginary
                 variances (e^T+1)/2 and (e^T-1)/2.
* ``sphere``  -- normalized volume measure of the radius-b sphere in n
                 ambient dimensions.
* ``quadric`` -- heat-kernel measure on the complexified sphere; integrated
                 by pushing the integrand through the exponential of the
                 quadric operator and reading the result on the real points.

Gaussian moments are the heat flow read at the origin, one monomial at a
time: the constant coefficient of exp((t/2) Lap) x^alpha is
prod_i (alpha_i - 1)!! t^{|alpha|/2} when every alpha_i is even and 0
otherwise, so the cost follows the support of p.  They are exact in rational
mode; the pairing-sum oracle for the same quantity lives in ``oracle``.
Sphere monomial moments are computed with exact rational factorial ratios at
every n and only converted to float at the end, which keeps the convergence
experiments accurate at n = 10^4 and beyond.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import diffops, semigroup
from .diffops import DimensionError
from .polyalg import (
    EXACT,
    CxPoly,
    GaussianRational,
    RealPoly,
    mono_degree,
    mono_mul,
    trim,
)

_FAMILIES = ("gauss", "xi", "gamma", "sphere", "quadric")


@dataclass(frozen=True)
class MeasureSpec:
    """Tagged parameters of one measure family; validated on construction."""

    family: str
    t: object = None
    s: object = None
    T: object = None
    n: int | None = None
    b2: object = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown measure family {self.family!r}")
        if self.family == "gauss":
            if self.t is None or self.t <= 0:
                raise ValueError("gauss needs variance t > 0")
        elif self.family == "xi":
            if self.s is None or self.t is None or not 0 < self.t < 2 * self.s:
                raise ValueError("xi needs 0 < t < 2s")
        elif self.family == "gamma":
            if self.T is None or self.T <= 0:
                raise ValueError("gamma needs T > 0")
        elif self.family == "sphere":
            if self.n is None or self.n < 2:
                raise ValueError("sphere needs ambient dimension n >= 2")
            if self.b2 is None or self.b2 <= 0:
                raise ValueError("sphere needs b2 > 0")
        elif self.family == "quadric":
            if self.n is None or self.n < 2:
                raise ValueError("quadric needs ambient dimension n >= 2")
            if self.b2 is None or self.b2 <= 0:
                raise ValueError("quadric needs b2 > 0")
            if self.T is None or self.T <= 0:
                raise ValueError("quadric needs T > 0")

    @classmethod
    def gauss(cls, t):
        return cls("gauss", t=t)

    @classmethod
    def xi(cls, s, t):
        return cls("xi", s=s, t=t)

    @classmethod
    def gamma(cls, T):
        return cls("gamma", T=T)

    @classmethod
    def sphere(cls, n, b2=None):
        return cls("sphere", n=n, b2=n if b2 is None else b2)

    @classmethod
    def quadric(cls, n, T, b2=None):
        return cls("quadric", n=n, T=T, b2=n if b2 is None else b2)

    def to_json(self) -> str:
        raw = {k: v for k, v in asdict(self).items() if v is not None}
        for key, value in raw.items():
            if isinstance(value, Fraction):
                raw[key] = f"{value.numerator}/{value.denominator}"
        return json.dumps(raw, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MeasureSpec":
        raw = json.loads(text)
        for key, value in raw.items():
            if isinstance(value, str) and key != "family":
                num, _, den = value.partition("/")
                raw[key] = Fraction(int(num), int(den or "1"))
        return cls(**raw)


# ---------------------------------------------------------------------------
# Gaussian moments via the heat operator at zero

_DFACT = {}


def _double_factorial(n: int) -> int:
    # (-1)!! = 1 by convention
    if n <= 0:
        return 1
    if n not in _DFACT:
        out = 1
        for v in range(n, 0, -2):
            out *= v
        _DFACT[n] = out
    return _DFACT[n]


@lru_cache(maxsize=None)
def _pairings(alpha: tuple) -> int:
    """prod_i (alpha_i - 1)!! if every alpha_i is even, else 0.

    The number of ways to pair up the factors of x^alpha within each
    variable: the Gaussian moment at t = 1, and the numerator of the sphere
    moment.
    """
    out = 1
    for e in alpha:
        if e & 1:
            return 0
        out *= _double_factorial(e - 1)
    return out


def gaussian_moment(p: RealPoly, t):
    """Integral of p against the centered Gaussian of per-coordinate variance t.

    The heat flow exp((t/2) Lap) p read at the origin.  The constant
    coefficient of exp((t/2) Lap) x^alpha is the term j = |alpha|/2 of the
    terminating series, (t/2)^j / j! Lap^j x^alpha, which is
    prod_i (alpha_i - 1)!! t^{|alpha|/2} for even alpha and 0 otherwise, so
    each monomial is read off directly.  Exact for exact p and rational t;
    for exact p and float t the sum is exact (a float is a dyadic rational)
    and rounded once; float p sums in floats.
    """
    if not 0 < t < math.inf:
        raise ValueError("gaussian variance must be positive and finite")
    if p.mode != EXACT:
        t = float(t)
        return math.fsum(
            c * ways * t ** (mono_degree(alpha) // 2)
            for alpha, c in p.terms.items()
            if (ways := _pairings(alpha))
        )
    # exact coefficient sums by half-degree, then one power of t for each
    sums: dict = {}
    for alpha, c in p.terms.items():
        ways = _pairings(alpha)
        if ways:
            j = mono_degree(alpha) // 2
            sums[j] = sums.get(j, 0) + c * ways
    total = sum((c * Fraction(t) ** j for j, c in sums.items()), Fraction(0))
    return total if isinstance(t, (int, Fraction)) else float(total)


# ---------------------------------------------------------------------------
# complex Gaussian moments via pair counts


@lru_cache(maxsize=None)
def _pairing_ways(j: int, l: int) -> tuple:
    """Pairing counts of j a's and l abar's: tuples (cross pairs m, count)."""
    if (j - l) % 2 != 0:
        return ()
    out = []
    m = min(j, l)
    if (j - m) % 2 != 0:
        m -= 1
    while m >= 0:
        ways = (
            math.comb(j, m)
            * math.comb(l, m)
            * math.factorial(m)
            * _double_factorial(j - m - 1)
            * _double_factorial(l - m - 1)
        )
        out.append((m, ways))
        m -= 2
    return tuple(out)


def _pair_moment(j: int, l: int, c2, g2):
    """E[a^j abar^l] for a complex Gaussian with E[a^2] = c2 and E[a abar] = g2.

    Sum over pairings: m cross pairings weight g2 each, the leftovers pair
    within their own group and weight c2.  All terms are nonnegative when
    c2 >= 0 (the limiting-range family), so no cancellation occurs.
    """
    total = 0
    for m, ways in _pairing_ways(j, l):
        total += ways * g2 ** m * c2 ** ((j + l - 2 * m) // 2)
    return total


def _complex_gaussian_moment(q: CxPoly, c2, g2):
    exact = q.mode == EXACT and isinstance(c2, (int, Fraction)) and isinstance(g2, (int, Fraction))
    if exact:
        c2, g2 = Fraction(c2), Fraction(g2)
        total = GaussianRational(0)
    else:
        c2, g2 = float(c2), float(g2)
        total = 0j
    moments = {}  # (j, l) -> _pair_moment, shared by the terms of q
    for (a, b), coeff in q.terms.items():
        factor = Fraction(1) if exact else 1.0
        for j in range(max(len(a), len(b))):
            aj = a[j] if j < len(a) else 0
            bj = b[j] if j < len(b) else 0
            if aj or bj:
                pm = moments.get((aj, bj))
                if pm is None:
                    pm = moments[aj, bj] = _pair_moment(aj, bj, c2, g2)
                if not pm:
                    factor = None
                    break
                factor = factor * pm
        if factor is None:
            continue
        total = total + (coeff if exact else complex(coeff)) * factor
    return total


def xi_moment(q: CxPoly, s, t):
    """Integral of q against the two-parameter complex Gaussian (0 < t < 2s)."""
    if not 0 < t < 2 * s:
        raise ValueError(f"xi moments need 0 < t < 2s, got s={s}, t={t}")
    return _complex_gaussian_moment(q, s - t, s)


def gamma_moment(q: CxPoly, T):
    """Integral of q against the limiting-range Gaussian of parameter T > 0.

    Per coordinate E[a abar] = e^T and E[a^2] = 1.  (The value e^T, not
    2 e^T, is what the quadrature oracle and unitarity both confirm.)
    """
    if T <= 0:
        raise ValueError("gamma moments need T > 0")
    try:
        e_T = math.exp(T)
    except OverflowError:
        raise ValueError(f"gamma moments need e^T to fit in a float, got T={T}") from None
    return _complex_gaussian_moment(q, 1.0, e_T)


# ---------------------------------------------------------------------------
# sphere moments


@lru_cache(maxsize=None)
def sphere_mono_moment(alpha: tuple, n: int, b2) -> Fraction:
    """Exact moment of a monomial over the radius-sqrt(b2) sphere in R^n (memoized)."""
    alpha = trim(alpha)
    if len(alpha) > n:
        raise DimensionError(f"monomial in {len(alpha)} variables on an S^{n - 1}")
    num = _pairings(alpha)
    if not num:
        return Fraction(0)
    m = mono_degree(alpha) // 2
    den = Fraction(1)
    for i in range(m):
        den *= n + 2 * i
    return num / den * Fraction(b2) ** m


def sphere_moment(p: RealPoly, n: int, b2=None):
    """Integral of p against the normalized sphere measure (b2 defaults to n)."""
    b2 = n if b2 is None else b2
    if p.width() > n:
        raise DimensionError(
            f"polynomial in {p.width()} variables cannot live on an S^{n - 1}"
        )
    total = Fraction(0)
    for alpha, c in p.terms.items():
        mono = sphere_mono_moment(alpha, n, b2)
        if mono:
            total += (c if p.mode == EXACT else Fraction(c)) * mono
    return total if p.mode == EXACT else float(total)


# ---------------------------------------------------------------------------
# quadric moments
#
# The quadric operator splits into commuting holomorphic and antiholomorphic
# halves, each acting on a-degree-graded polynomials only.  Its exponential
# therefore factors monomial-wise, and the whole moment functional becomes a
# bilinear form  coeff(alpha, beta) -> K[alpha, beta]  with K = F S F^T:
# row alpha of F is the flow of x^alpha through the holomorphic half and S
# holds sphere moments of monomial products.  At tau = T/(2 b2) the
# holomorphic half -b2*Lap + Euler^2 + (n-2)*Euler is -(T/2) times the sphere
# Laplacian, so F is the sphere heat flow run backward for T/2.  K is built
# lazily, one table per (n, b2, T) that grows by a block of rows and columns
# whenever a moment brings holomorphic monomials it has not seen.  The direct
# route, which flows each term through both halves of gamma_n, is kept below
# as a cross-check.

_kernel_lock = threading.Lock()
_kernels: dict = {}


def _parity(alpha) -> tuple:
    out = [e & 1 for e in alpha]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class _KernelTable:
    """K = F S F^T on the holomorphic monomials seen so far at one (n, b2, T)."""

    def __init__(self, n: int, b2: Fraction, T: float):
        self.n, self.b2 = n, b2
        self.gen = diffops.spherical_laplacian_op(n, b2)
        self.t = -T / 2.0
        self.index = {}       # holomorphic monomial -> row and column of K
        self.columns = []     # support monomials of the flows, by column of F
        self.support = {}     # support monomial -> column of F
        self.by_parity = {}   # parity class -> columns (S vanishes across classes)
        self.flows = np.zeros((0, 0))
        self.kernel = np.zeros((0, 0))
        self.lock = threading.Lock()

    def _grow(self, new: list) -> None:
        flows = [semigroup.flow_monomial(self.gen, self.t, a) for a in new]
        old = len(self.index)
        for a in new:
            self.index[a] = len(self.index)
        for flow in flows:
            for gamma in flow:
                if gamma not in self.support:
                    self.support[gamma] = len(self.columns)
                    self.by_parity.setdefault(_parity(gamma), []).append(len(self.columns))
                    self.columns.append(gamma)
        f_all = np.zeros((len(self.index), len(self.columns)))
        f_all[:old, : self.flows.shape[1]] = self.flows
        for i, flow in enumerate(flows, old):
            for gamma, v in flow.items():
                f_all[i, self.support[gamma]] = v
        used = sorted({self.support[gamma] for flow in flows for gamma in flow})
        n, b2 = self.n, self.b2
        s_rows = np.zeros((len(used), len(self.columns)))
        for i, col in enumerate(used):
            gamma = self.columns[col]
            for j in self.by_parity[_parity(gamma)]:
                s_rows[i, j] = float(sphere_mono_moment(mono_mul(gamma, self.columns[j]), n, b2))
        try:
            with np.errstate(over="raise"):
                rows = f_all[old:, used].dot(s_rows).dot(f_all.T)
        except FloatingPointError:
            raise OverflowError("quadric kernel entries overflow a float") from None
        kernel = np.empty((len(self.index),) * 2)
        kernel[:old, :old] = self.kernel
        kernel[old:, :] = rows
        kernel[:old, old:] = rows[:, :old].T
        kernel[old:, old:] = (rows[:, old:] + rows[:, old:].T) / 2.0
        self.flows = f_all
        self.kernel = kernel

    def moment(self, q: CxPoly) -> complex:
        with self.lock:
            new = [a for ab in q.terms for a in ab if a not in self.index]
            if new:
                self._grow(list(dict.fromkeys(new)))
            rows = [self.index[a] for a, _ in q.terms]
            cols = [self.index[b] for _, b in q.terms]
            kernel = self.kernel
        coeffs = np.array([complex(c) for c in q.terms.values()])
        return complex(coeffs.dot(kernel[rows, cols]))


def _kernel_table(n: int, b2, T: float) -> _KernelTable:
    key = (n, Fraction(b2), T)
    with _kernel_lock:
        kernel = _kernels.get(key)
    if kernel is None:
        kernel = _KernelTable(*key)
        with _kernel_lock:
            kernel = _kernels.setdefault(key, kernel)
    return kernel


def quadric_moment(q: CxPoly, n: int, T, b2=None):
    """Integral of q against the heat-kernel measure on the complexified sphere.

    Equivalent to flowing q through exp((T/b2) * Gamma) and integrating the
    restriction to real points over the sphere.
    """
    b2 = n if b2 is None else b2
    k = q.width()
    if k >= n:
        raise DimensionError(
            f"quadric moments need ambient dimension > {k}, got {n}"
        )
    if T <= 0:
        raise ValueError("quadric moments need T > 0")
    if q.is_zero():
        return 0j
    return _kernel_table(n, b2, float(T)).moment(q)


def quadric_moment_direct(q: CxPoly, n: int, T, b2=None):
    """Reference route: flow q through exp((T/b2) Gamma), then integrate.

    Each term of q flows through the holomorphic and antiholomorphic groups
    of gamma_n in its own parametrization (not the kernel's sphere-Laplacian
    identity), and the restriction to real points is integrated over the
    sphere.  Slower than :func:`quadric_moment`; used to cross-check the
    factored kernel.
    """
    b2 = n if b2 is None else b2
    if q.width() >= n:
        raise DimensionError(
            f"quadric moments need ambient dimension > {q.width()}, got {n}"
        )
    flowed = semigroup.exp_graded(
        diffops.gamma_n_op(n, b2), float(T) / float(b2), q
    )
    total = 0j
    for alpha, coeff in flowed.as_real_monomials().items():
        mono = sphere_mono_moment(alpha, n, b2)
        if mono:
            total += complex(coeff) * float(mono)
    return total


# ---------------------------------------------------------------------------
# dispatch


def moment(spec: MeasureSpec, q):
    """Integral of q against the measure described by spec."""
    if spec.family == "gauss":
        return gaussian_moment(q, spec.t)
    if spec.family == "xi":
        return xi_moment(q, spec.s, spec.t)
    if spec.family == "gamma":
        return gamma_moment(q, spec.T)
    if spec.family == "sphere":
        return sphere_moment(q, spec.n, spec.b2)
    if spec.family == "quadric":
        return quadric_moment(q, spec.n, spec.T, spec.b2)
    raise AssertionError(spec.family)


def inner_product(q1, q2, spec: MeasureSpec):
    """L2 inner product <q1, q2> under the given measure.

    Real families take real polynomials; complex families take complexified
    ones and conjugate the second argument.
    """
    if spec.family in ("gauss", "sphere"):
        if not isinstance(q1, RealPoly) or not isinstance(q2, RealPoly):
            raise TypeError(f"{spec.family} inner products take real polynomials")
        return moment(spec, q1 * q2)
    if not isinstance(q1, CxPoly) or not isinstance(q2, CxPoly):
        raise TypeError(f"{spec.family} inner products take complexified polynomials")
    return moment(spec, q1 * q2.conjugate())
