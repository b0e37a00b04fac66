"""Exact moment integration against the five measure families.

* ``gauss``   -- product Gaussian of variance t on the real coordinates.
* ``xi``      -- complex product Gaussian with independent real/imaginary
                 parts of variances (2s-t)/2 and t/2 per coordinate.
* ``gamma``   -- the xi family at (s, t) = (e^T, e^T - 1); real/imaginary
                 variances (e^T+1)/2 and (e^T-1)/2.
* ``sphere``  -- normalized volume measure of the sphere of radius sqrt(n)
                 in n ambient dimensions.
* ``quadric`` -- heat-kernel measure on the complexified sphere; integrated
                 by pushing the integrand through the exponential of the
                 quadric operator and reading the result on the real points.

Each measure is defined once, by its ``MeasureSpec``: the spec checks every
parameter on construction and each integrand in ``check``, and supplies the
numbers the routines read.  ``moment(spec, q)`` and ``norm2(spec, f)``, the
squared L2 norm as a bilinear form over f's own terms, share one routine per
measure kind; the per-family functions build a spec and call ``moment``.
Real moments are pairing counts prod_i (alpha_i - 1)!! times a radial weight
of |alpha|/2, summed over integers by half-degree and ended by one division,
which keeps the convergence experiments accurate at n = 10^4 and beyond.

Exactness: a moment is exact only when the input is exact and every
parameter is rational (gamma's e^T never is, and quadric moments go through
float flows).  Otherwise a real moment is the exact sum, rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import diffops, semigroup
from .diffops import DimensionError, ambient_dimension
from .polyalg import (
    EXACT,
    CxPoly,
    GaussianRational,
    HolomorphicityError,
    RealPoly,
    mono_degree,
    mono_mul,
)

# the positive, finite parameters of each family; sphere and quadric also
# take an integer ambient dimension n >= 2, the squared radius of their sphere
_PARAMS = {
    "gauss": ("t",),
    "xi": ("s", "t"),
    "gamma": ("T",),
    "sphere": (),
    "quadric": ("T",),
}
_REAL = ("gauss", "sphere")


@dataclass(frozen=True)
class MeasureSpec:
    """One measure: its family and parameters, checked once on construction."""

    family: str
    t: object = None
    s: object = None
    T: object = None
    n: int | None = None

    def __post_init__(self):
        names = _PARAMS.get(self.family)
        if names is None:
            raise ValueError(f"unknown measure family {self.family!r}")
        if self.family in ("sphere", "quadric"):
            object.__setattr__(self, "n", ambient_dimension(self.family, self.n, 2))
        for name in names:
            value = getattr(self, name)
            if value is None or not 0 < value < math.inf:
                raise ValueError(f"{self.family} needs {name} > 0 and finite, got {name}={value}")
        if self.family == "xi" and not self.t < 2 * self.s:
            raise ValueError(f"xi needs 0 < t < 2s, got s={self.s}, t={self.t}")
        if self.family == "gamma":
            try:
                math.exp(self.T)
            except OverflowError:
                raise ValueError(f"gamma needs e^T to fit in a float, got T={self.T}") from None

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
    def sphere(cls, n):
        return cls("sphere", n=n)

    @classmethod
    def quadric(cls, n, T):
        return cls("quadric", n=n, T=T)

    @property
    def rational(self) -> bool:
        """Whether every number the measure supplies is rational, so exact input stays exact."""
        return self.family in ("gauss", "xi", "sphere") and all(
            isinstance(getattr(self, name), (int, Fraction)) for name in _PARAMS[self.family]
        )

    def check(self, f) -> None:
        """Raise unless f is a polynomial this measure integrates."""
        real = self.family in _REAL
        if not isinstance(f, RealPoly if real else CxPoly):
            kind = "real" if real else "complexified"
            raise TypeError(f"{self.family} moments take {kind} polynomials")
        if self.family == "sphere" and f.width() > self.n:
            raise DimensionError(
                f"polynomial in {f.width()} variables cannot live on an S^{self.n - 1}"
            )
        if self.family == "quadric" and f.width() >= self.n:
            raise DimensionError(
                f"quadric moments need ambient dimension > {f.width()}, got {self.n}"
            )

    def radial(self, m: int) -> Fraction:
        """Moment of a degree-2m monomial of the real kinds over its pairing count."""
        if self.family == "gauss":
            return _gauss_radial(m, self.t)
        return _sphere_radial(m, self.n)

    def covariances(self) -> tuple:
        """(E[a^2], E[a abar]) per coordinate of the complex Gaussians xi and gamma."""
        if self.family == "xi":
            return self.s - self.t, self.s
        return 1.0, math.exp(self.T)


# ---------------------------------------------------------------------------
# real kinds: pairing counts times a radial weight

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


@lru_cache(maxsize=1024)
def _gauss_radial(m: int, t) -> Fraction:
    """t^m: a degree-2m Gaussian moment over its pairings."""
    return Fraction(t) ** m


@lru_cache(maxsize=None)
def _sphere_radial(m: int, n: int) -> Fraction:
    """n^m / (n (n + 2) ... (n + 2m - 2)): a degree-2m sphere moment over its pairings."""
    den = 1
    for i in range(m):
        den *= n + 2 * i
    return Fraction(n ** m, den)


def sphere_mono_moment(alpha: tuple, n: int) -> Fraction:
    """Exact moment of a monomial over the sphere of radius sqrt(n) in R^n (len(alpha) <= n)."""
    return _pairings(alpha) * _sphere_radial(mono_degree(alpha) // 2, n)


def _parity(alpha) -> tuple:
    out = [e & 1 for e in alpha]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _real_integral(spec: MeasureSpec, p: RealPoly, square: bool = False):
    """sum c_alpha pairings(alpha) radial(|alpha| / 2) over p's terms.

    With ``square`` the sum runs over pairs, p_alpha p_beta at alpha + beta:
    the squared norm, without forming p * p.  Only pairs in one parity class
    contribute.  The coefficients are brought to one denominator, so the
    sums run over integers by half-degree and end in one int / int division,
    which rounds once, correctly.  A moment of exact p under a rational
    spec is returned as that exact Fraction instead.
    """
    ratios = [c.as_integer_ratio() for c in p.terms.values()]
    den = math.lcm(*(d for _, d in ratios))
    coeffs = [num * (den // d) for num, d in ratios]
    sums: dict = {}
    if square:
        den *= den
        classes: dict = {}
        for alpha, c in zip(p.terms, coeffs):
            classes.setdefault(_parity(alpha), []).append((alpha, c))
        for terms in classes.values():
            for i, (alpha, ca) in enumerate(terms):
                for j in range(i, len(terms)):
                    beta, cb = terms[j]
                    gamma = mono_mul(alpha, beta)
                    m = mono_degree(gamma) // 2
                    w = ca * cb * _pairings(gamma)
                    sums[m] = sums.get(m, 0) + (w if i == j else 2 * w)
    else:
        for alpha, c in zip(p.terms, coeffs):
            ways = _pairings(alpha)
            if ways:
                m = mono_degree(alpha) // 2
                sums[m] = sums.get(m, 0) + c * ways
    weights = [spec.radial(m) for m in sums]
    common = math.lcm(*(w.denominator for w in weights))
    num = sum(s * w.numerator * (common // w.denominator)
              for s, w in zip(sums.values(), weights))
    if not square and p.mode == EXACT and spec.rational:
        return Fraction(num, common * den)
    return num / (common * den)


# ---------------------------------------------------------------------------
# complex Gaussians: per-coordinate pair moments


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


class _PairMoments(dict):
    """E[a^j abar^l] at key (j, l) for E[a^2] = c2 and E[a abar] = g2, filled as keys are read.

    Sum over pairings: m cross pairings weight g2 each, the leftovers pair
    within their own group and weight c2.  All terms are nonnegative when
    c2 >= 0 (the limiting-range family), so no cancellation occurs.
    """

    def __init__(self, c2, g2):
        super().__init__()
        self.c2, self.g2 = c2, g2

    def __missing__(self, key):
        j, l = key
        total = 0
        try:
            for m, ways in _pairing_ways(j, l):
                total += ways * self.g2 ** m * self.c2 ** ((j + l - 2 * m) // 2)
        except OverflowError:
            raise OverflowError("complex Gaussian moments overflow a float") from None
        self[key] = total
        return total


# one table per covariance pair and number type, shared by every moment and
# Gram product at those covariances: an entry depends on (j, l, c2, g2) alone
_pair_table = lru_cache(maxsize=256, typed=True)(_PairMoments)


def _pair_moments(spec: MeasureSpec, exact: bool) -> _PairMoments:
    """The pair-moment table of a complex Gaussian spec: Fractions when exact, else floats."""
    number = Fraction if exact else float
    return _pair_table(*map(number, spec.covariances()))


def _complex_gaussian_moment(spec: MeasureSpec, q: CxPoly):
    exact = q.mode == EXACT and spec.rational
    moments = _pair_moments(spec, exact)
    total = GaussianRational(0) if exact else 0j
    one = Fraction(1) if exact else 1.0
    for (a, b), coeff in q.terms.items():
        factor = one
        for j in range(max(len(a), len(b))):
            aj = a[j] if j < len(a) else 0
            bj = b[j] if j < len(b) else 0
            if aj or bj:
                pm = moments[aj, bj]
                if not pm:
                    break
                factor = factor * pm
        else:
            total = total + (coeff if exact else complex(coeff)) * factor
    return total if exact else _finite(total)


def _complex_gaussian_gram(spec: MeasureSpec, exps: np.ndarray) -> np.ndarray:
    """M[a, b] = prod_j E[a^{alpha_j} abar^{beta_j}] over the exponent rows alpha, beta."""
    moments = _pair_moments(spec, exact=False)
    used = set(exps.ravel().tolist())
    top = range(max(used, default=0) + 1)
    table = np.array([[moments[j, l] if j in used and l in used else 0.0 for l in top]
                      for j in top])
    return _table_product(table, exps)


# ---------------------------------------------------------------------------
# quadric moments
#
# The quadric operator splits into commuting holomorphic and antiholomorphic
# halves, each acting on a-degree-graded polynomials only.  Its exponential
# therefore factors monomial-wise, and the moment of a^alpha abar^beta is
# K[alpha, beta] = (F S F^T)[alpha, beta]: row alpha of F is the flow of
# x^alpha through the holomorphic half and S holds sphere moments of monomial
# products.  At tau = T/(2n) the holomorphic half -n*Lap + Euler^2 +
# (n-2)*Euler is -(T/2) times the sphere Laplacian, so F is the sphere heat
# flow run backward for T/2.  Each call builds F on its own monomials and S
# on their flows' support, from the memoized monomial flows, so a value does
# not depend on what was computed before it.  The direct route, which flows
# each term through both halves of gamma_n, is kept below as a cross-check.


def _quadric_flows(monos: list, spec: MeasureSpec) -> tuple:
    """F, rows the backward sphere flows of ``monos``, and S on their support."""
    gen = diffops.spherical_laplacian_op(spec.n)
    flows = [semigroup.flow_monomial(gen, -float(spec.T) / 2.0, a) for a in monos]
    support = {}
    for flow in flows:
        for gamma in flow:
            support.setdefault(gamma, len(support))
    f = np.zeros((len(monos), len(support)))
    for i, flow in enumerate(flows):
        for gamma, v in flow.items():
            f[i, support[gamma]] = v
    width = max(map(len, support), default=0)
    return f, _sphere_gram(_exponent_matrix(support, width), spec.n)


def _quadric_moment(spec: MeasureSpec, q: CxPoly):
    """sum c_{alpha beta} (F S F^T)[alpha, beta] over q's own monomials."""
    if q.is_zero():
        return 0j
    monos = list(dict.fromkeys(a for ab in q.terms for a in ab))
    index = {a: i for i, a in enumerate(monos)}
    f, s = _quadric_flows(monos, spec)
    rows = f[[index[a] for a, _ in q.terms]]
    cols = f[[index[b] for _, b in q.terms]]
    coeffs = np.array([complex(c) for c in q.terms.values()])
    return _finite(complex(coeffs.dot((rows.dot(s) * cols).sum(axis=1))))


def quadric_moment_direct(q: CxPoly, n: int, T):
    """Reference route: flow q through exp((T/n) Gamma), then integrate.

    Each term of q flows through the holomorphic and antiholomorphic groups
    of gamma_n in its own parametrization (not the sphere-Laplacian identity
    behind :func:`quadric_moment`), and the restriction to real points is
    integrated over the sphere.  Slower than :func:`quadric_moment`; used to
    cross-check it.
    """
    spec = MeasureSpec.quadric(n, T)
    spec.check(q)
    flowed = semigroup.exp_graded(diffops.gamma_n_op(n), float(T) / float(n), q)
    total = 0j
    for alpha, coeff in flowed.as_real_monomials().items():
        mono = sphere_mono_moment(alpha, n)
        if mono:
            total += complex(coeff) * float(mono)
    return total


# ---------------------------------------------------------------------------
# Gram tables over exponent rows


def _exponent_matrix(monos, width: int) -> np.ndarray:
    rows = [a + (0,) * (width - len(a)) for a in monos]
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def _table_product(table: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """G[a, b] = prod_j table[exps[a, j], exps[b, j]] for every pair of exponent rows."""
    gram = np.ones((len(exps), len(exps)))
    for column in exps.T:
        gram *= table[column[:, None], column[None, :]]
    return gram


def _sphere_gram(exps: np.ndarray, n: int) -> np.ndarray:
    """S[g, d]: moment of x^(exps[g] + exps[d]) over the sphere of radius sqrt(n) in R^n.

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
    radial[::2] = [float(_sphere_radial(m, n)) for m in range(len(radial[::2]))]
    return pairings * radial[np.add.outer(degrees, degrees)]


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


# ---------------------------------------------------------------------------
# moments and squared norms


def moment(spec: MeasureSpec, q):
    """Integral of q against the measure described by spec."""
    spec.check(q)
    if spec.family in _REAL:
        return _real_integral(spec, q)
    if spec.family == "quadric":
        return _quadric_moment(spec, q)
    return _complex_gaussian_moment(spec, q)


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
    spec.check(f)
    if spec.family in _REAL:
        return _real_integral(spec, f, square=True)
    if not f.is_holomorphic():
        raise HolomorphicityError("squared norms need a holomorphic polynomial")
    monos = [a for a, _ in f.terms]
    coeffs = np.array([complex(c) for c in f.terms.values()])
    if spec.family == "quadric":
        flows, s = _quadric_flows(monos, spec)
        return _hermitian_form(s, coeffs.dot(flows))
    gram = _complex_gaussian_gram(spec, _exponent_matrix(monos, f.width()))
    return _hermitian_form(gram, coeffs)


def gaussian_moment(p: RealPoly, t):
    """Integral of p against the centered Gaussian of per-coordinate variance t."""
    return moment(MeasureSpec.gauss(t), p)


def xi_moment(q: CxPoly, s, t):
    """Integral of q against the two-parameter complex Gaussian (0 < t < 2s)."""
    return moment(MeasureSpec.xi(s, t), q)


def gamma_moment(q: CxPoly, T):
    """Integral of q against the limiting-range Gaussian of parameter T > 0.

    Per coordinate E[a abar] = e^T and E[a^2] = 1.  (The value e^T, not
    2 e^T, is what the quadrature oracle and unitarity both confirm.)
    """
    return moment(MeasureSpec.gamma(T), q)


def sphere_moment(p: RealPoly, n: int):
    """Integral of p against the normalized measure on the sphere of radius sqrt(n) in R^n."""
    return moment(MeasureSpec.sphere(n), p)


def quadric_moment(q: CxPoly, n: int, T):
    """Integral of q against the heat-kernel measure on the complexified sphere.

    Equivalent to flowing q through exp((T/n) * Gamma) and integrating the
    restriction to real points over the sphere.
    """
    return moment(MeasureSpec.quadric(n, T), q)


def inner_product(q1, q2, spec: MeasureSpec):
    """L2 inner product <q1, q2> under the given measure.

    Real families take real polynomials; complex families take complexified
    ones and conjugate the second argument.
    """
    spec.check(q2)
    return moment(spec, q1 * (q2.conjugate() if isinstance(q2, CxPoly) else q2))
