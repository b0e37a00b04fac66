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

``moment(spec, q)`` integrates any polynomial; ``norm2(spec, f)`` gives the
squared L2 norm of f as a bilinear form over f's own terms, without forming
f*f or |f|^2.

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
    HolomorphicityError,
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


def _xi_params(s, t) -> tuple:
    if not 0 < t < 2 * s:
        raise ValueError(f"xi moments need 0 < t < 2s, got s={s}, t={t}")
    return s - t, s


def _gamma_params(T) -> tuple:
    if T <= 0:
        raise ValueError("gamma moments need T > 0")
    try:
        e_T = math.exp(T)
    except OverflowError:
        raise ValueError(f"gamma moments need e^T to fit in a float, got T={T}") from None
    return 1.0, e_T


def xi_moment(q: CxPoly, s, t):
    """Integral of q against the two-parameter complex Gaussian (0 < t < 2s)."""
    return _complex_gaussian_moment(q, *_xi_params(s, t))


def gamma_moment(q: CxPoly, T):
    """Integral of q against the limiting-range Gaussian of parameter T > 0.

    Per coordinate E[a abar] = e^T and E[a^2] = 1.  (The value e^T, not
    2 e^T, is what the quadrature oracle and unitarity both confirm.)
    """
    return _complex_gaussian_moment(q, *_gamma_params(T))


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
    return num * _sphere_radial(mono_degree(alpha) // 2, n, b2)


@lru_cache(maxsize=None)
def _sphere_radial(m: int, n: int, b2) -> Fraction:
    """b2^m / (n (n + 2) ... (n + 2m - 2)): a degree-2m sphere moment over its pairings."""
    den = 1
    for i in range(m):
        den *= n + 2 * i
    return Fraction(b2) ** m / den


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
# therefore factors monomial-wise, and the moment of a^alpha abar^beta is
# K[alpha, beta] = (F S F^T)[alpha, beta]: row alpha of F is the flow of
# x^alpha through the holomorphic half and S holds sphere moments of monomial
# products.  At tau = T/(2 b2) the holomorphic half -b2*Lap + Euler^2 +
# (n-2)*Euler is -(T/2) times the sphere Laplacian, so F is the sphere heat
# flow run backward for T/2.  Each call builds F on its own monomials and S
# on their flows' support, from the memoized monomial flows, so a value does
# not depend on what was computed before it.  The direct route, which flows
# each term through both halves of gamma_n, is kept below as a cross-check.


def _quadric_flows(monos: list, n: int, b2, T) -> tuple:
    """F, rows the backward sphere flows of ``monos``, and S on their support."""
    gen = diffops.spherical_laplacian_op(n, b2)
    flows = [semigroup.flow_monomial(gen, -float(T) / 2.0, a) for a in monos]
    support = {}
    for flow in flows:
        for gamma in flow:
            support.setdefault(gamma, len(support))
    f = np.zeros((len(monos), len(support)))
    for i, flow in enumerate(flows):
        for gamma, v in flow.items():
            f[i, support[gamma]] = v
    width = max(map(len, support), default=0)
    return f, _sphere_gram(_exponent_matrix(support, width), n, b2)


def _check_quadric(q: CxPoly, n: int, T) -> None:
    if q.width() >= n:
        raise DimensionError(
            f"quadric moments need ambient dimension > {q.width()}, got {n}"
        )
    if T <= 0:
        raise ValueError("quadric moments need T > 0")


def quadric_moment(q: CxPoly, n: int, T, b2=None):
    """Integral of q against the heat-kernel measure on the complexified sphere.

    Equivalent to flowing q through exp((T/b2) * Gamma) and integrating the
    restriction to real points over the sphere; computed as
    sum c_{alpha beta} (F S F^T)[alpha, beta] over q's own holomorphic and
    antiholomorphic monomials.
    """
    b2 = n if b2 is None else b2
    _check_quadric(q, n, T)
    if q.is_zero():
        return 0j
    monos = list(dict.fromkeys(a for ab in q.terms for a in ab))
    index = {a: i for i, a in enumerate(monos)}
    f, s = _quadric_flows(monos, n, b2, T)
    rows = f[[index[a] for a, _ in q.terms]]
    cols = f[[index[b] for _, b in q.terms]]
    coeffs = np.array([complex(c) for c in q.terms.values()])
    return _finite(complex(coeffs.dot((rows.dot(s) * cols).sum(axis=1))))


def quadric_moment_direct(q: CxPoly, n: int, T, b2=None):
    """Reference route: flow q through exp((T/b2) Gamma), then integrate.

    Each term of q flows through the holomorphic and antiholomorphic groups
    of gamma_n in its own parametrization (not the sphere-Laplacian identity
    behind :func:`quadric_moment`), and the restriction to real points is
    integrated over the sphere.  Slower than :func:`quadric_moment`; used to
    cross-check it.
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
# squared norms as bilinear forms over the polynomial's own terms


def _exponent_matrix(monos, width: int) -> np.ndarray:
    rows = [a + (0,) * (width - len(a)) for a in monos]
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def _table_product(table: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """G[a, b] = prod_j table[exps[a, j], exps[b, j]] for every pair of exponent rows."""
    gram = np.ones((len(exps), len(exps)))
    for column in exps.T:
        gram *= table[column[:, None], column[None, :]]
    return gram


def _sphere_gram(exps: np.ndarray, n: int, b2) -> np.ndarray:
    """S[g, d]: moment of x^(exps[g] + exps[d]) over the radius-sqrt(b2) sphere in R^n.

    The pairing counts (e - 1)!! factor over the coordinates, read from a
    table indexed by the exponents of g and d; the radial factor goes by the
    total degree.
    """
    top = int(exps.max(initial=0))
    double_factorials = np.array([0.0 if e & 1 else float(_double_factorial(e - 1))
                                  for e in range(2 * top + 1)])
    sums = np.add.outer(range(top + 1), range(top + 1))
    pairings = _table_product(double_factorials[sums], exps)
    degrees = exps.sum(axis=1)
    radial = np.zeros(2 * int(degrees.max(initial=0)) + 1)
    radial[::2] = [float(_sphere_radial(m, n, b2)) for m in range(len(radial[::2]))]
    return pairings * radial[np.add.outer(degrees, degrees)]


def _complex_gaussian_gram(exps: np.ndarray, c2, g2) -> np.ndarray:
    """M[a, b] = prod_j E[a^{alpha_j} abar^{beta_j}] over the exponent rows alpha, beta."""
    top = int(exps.max(initial=0))
    c2, g2 = float(c2), float(g2)
    try:
        table = np.array([[_pair_moment(j, l, c2, g2) for l in range(top + 1)]
                          for j in range(top + 1)], dtype=float)
    except OverflowError:
        raise OverflowError("complex Gaussian moments overflow a float") from None
    return _table_product(table, exps)


def _finite(value):
    if not math.isfinite(abs(value)):
        raise OverflowError("a moment or norm overflows a float")
    return value


def _hermitian_form(gram: np.ndarray, coeffs: np.ndarray) -> float:
    """conj(c)^T G c for a real symmetric G."""
    value = coeffs.real.dot(gram.dot(coeffs.real))
    if coeffs.imag.any():
        value += coeffs.imag.dot(gram.dot(coeffs.imag))
    return _finite(float(value))


def _parity(alpha) -> tuple:
    out = [e & 1 for e in alpha]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _real_norm2(p: RealPoly, radial) -> float:
    """sum p_alpha p_beta pairings(alpha + beta) radial(|alpha + beta| / 2), rounded once.

    Only pairs in the same parity class contribute.  The coefficients are
    brought to one denominator, so the sum runs over integers by half-degree.
    """
    ratios = [c.as_integer_ratio() for c in p.terms.values()]
    den = math.lcm(*(d for _, d in ratios))
    classes: dict = {}
    for alpha, (num, d) in zip(p.terms, ratios):
        classes.setdefault(_parity(alpha), []).append((alpha, num * (den // d)))
    sums: dict = {}
    for terms in classes.values():
        for i, (alpha, ca) in enumerate(terms):
            for j in range(i, len(terms)):
                beta, cb = terms[j]
                gamma = mono_mul(alpha, beta)
                m = mono_degree(gamma) // 2
                w = ca * cb * _pairings(gamma)
                sums[m] = sums.get(m, 0) + (w if i == j else 2 * w)
    weights = {m: radial(m) for m in sums}
    common = math.lcm(*(w.denominator for w in weights.values()))
    num = sum(s * w.numerator * (common // w.denominator)
              for s, w in zip(sums.values(), weights.values()))
    # int / int rounds once, correctly
    return num / (common * den * den)


def _holomorphic_terms(f) -> tuple:
    if not isinstance(f, CxPoly):
        raise TypeError("complex-family norms take complexified polynomials")
    if not f.is_holomorphic():
        raise HolomorphicityError("squared norms need a holomorphic polynomial")
    monos = [a for a, _ in f.terms]
    return monos, np.array([complex(c) for c in f.terms.values()])


def _quadric_norm2(f: CxPoly, n: int, T, b2) -> float:
    """conj(y)^T S y with y = F^T f, f flowed back through the sphere heat flow first."""
    _check_quadric(f, n, T)
    monos, coeffs = _holomorphic_terms(f)
    flows, s = _quadric_flows(monos, n, b2, T)
    return _hermitian_form(s, coeffs.dot(flows))


def norm2(spec: MeasureSpec, f) -> float:
    """Squared L2 norm of f under spec, as a bilinear form over f's own terms.

    * gauss, sphere (real f): sum p_alpha p_beta M(alpha + beta) over pairs
      in one parity class, summed exactly and rounded once, so for exact f
      it is ``float(moment(spec, f * f))`` bit for bit.
    * xi, gamma (holomorphic f): conj(f)^T M f with
      M[alpha, beta] = prod_j E[a^{alpha_j} abar^{beta_j}].
    * quadric (holomorphic f): conj(y)^T S y with y = F^T f, the sphere heat
      flow of f run backward for T/2, and S the sphere moments of products
      of y's monomials.
    """
    if spec.family in ("gauss", "sphere"):
        if not isinstance(f, RealPoly):
            raise TypeError(f"{spec.family} norms take real polynomials")
        if spec.family == "gauss":
            if not 0 < spec.t < math.inf:
                raise ValueError("gaussian variance must be positive and finite")
            t = Fraction(spec.t)
            return _real_norm2(f, lambda m: t ** m)
        if f.width() > spec.n:
            raise DimensionError(
                f"polynomial in {f.width()} variables cannot live on an S^{spec.n - 1}"
            )
        return _real_norm2(f, lambda m: _sphere_radial(m, spec.n, spec.b2))
    if spec.family == "quadric":
        return _quadric_norm2(f, spec.n, spec.T, spec.b2)
    monos, coeffs = _holomorphic_terms(f)
    params = _xi_params(spec.s, spec.t) if spec.family == "xi" else _gamma_params(spec.T)
    gram = _complex_gaussian_gram(_exponent_matrix(monos, f.width()), *params)
    return _hermitian_form(gram, coeffs)


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
