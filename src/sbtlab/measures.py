"""Exact moment integration against the five measure families.

* ``gauss``   -- product Gaussian of variance t on the real coordinates.
* ``xi``      -- complex product Gaussian with independent real/imaginary
                 parts of variances (2s-t)/2 and t/2 per coordinate.
* ``gamma``   -- the xi family at (s, t) = (e^T, e^T - 1); real/imaginary
                 variances (e^T+1)/2 and (e^T-1)/2.
* ``sphere``  -- normalized volume measure of the sphere of radius sqrt(n)
                 in n ambient dimensions.
* ``quadric`` -- heat-kernel measure on the complexified sphere, the sphere
                 measure pushed through the heat flow: the moment of
                 a^alpha abar^beta is the sphere integral of the backward
                 sphere heat flows of x^alpha and x^beta.

Each measure is defined once, by its ``MeasureSpec``: the spec checks every
parameter on construction and each integrand in ``check``, and supplies the
numbers the routines read.  ``moment(spec, q)`` and ``norm2(spec, f)``, the
squared L2 norm as a bilinear form over f's own terms, share one routine per
measure kind; the per-family functions build a spec and call ``moment``.
Every moment and norm is one bilinear form of integer forms, coefficients
read at their exact binary rationals, summed in integers by degree and
divided once (``_flow_form``; a real moment reads q's memoized integer form,
a real norm keeps f's pair sums in its memo).  A real moment is the form of
q with the constant 1: pairing counts
prod_i (alpha_i - 1)!! weighted by one cached integer table N_m / D per
(t or n, top half-degree), which keeps the convergence experiments accurate
at n = 10^4 and beyond.  A complex moment or norm is the form of two flows
read from flow tables: backward sphere heat flows under the sphere's pair
sums for the quadric, holomorphic Hermite coefficients e^{(c2/2) Lap} under
the diagonal Hermite form for xi and gamma; a moment takes one form per
abar-monomial of q.

Exactness: a moment is exact only when the input is exact and every
parameter is rational (gamma's e^T never is, and quadric moments go through
float flows).  Otherwise each real moment or norm, each complex norm (Re and
Im apart for the quadric) and each abar-group of a complex moment is the
exact sum, rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import diffops, semigroup
from .diffops import DimensionError, ambient_dimension
from .polyalg import (
    EXACT,
    CxPoly,
    GaussianRational,
    HolomorphicityError,
    RealPoly,
    _integer_form,
    _ratio_form,
    _rational,
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
    # (E[a^2], E[a abar]) of xi and gamma, computed once, by the checks
    _covariances: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        if self.family == "xi":
            if not self.t < 2 * self.s:
                raise ValueError(f"xi needs 0 < t < 2s, got s={self.s}, t={self.t}")
            object.__setattr__(self, "_covariances", (self.s - self.t, self.s))
        if self.family == "gamma":
            try:
                object.__setattr__(self, "_covariances", (1.0, math.exp(self.T)))
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
        return self.family in ("gauss", "xi", "sphere") and _rational(
            *(getattr(self, name) for name in _PARAMS[self.family]))

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

    def covariances(self) -> tuple:
        """(E[a^2], E[a abar]) per coordinate of the complex Gaussians xi and gamma."""
        return self._covariances


# ---------------------------------------------------------------------------
# real kinds: pairing counts times a radial weight


@lru_cache(maxsize=1024)
def _radial_table(sphere: bool, x, top: int) -> tuple:
    """Integers N_0 .. N_top and D with N_m / D a degree-2m moment over its pairings.

    That is t^m for the Gaussian of variance x = t, and
    n^m / (n (n + 2) ... (n + 2m - 2)) for the sphere of ambient dimension x = n.
    """
    if sphere:
        # N_m = n^m (n + 2m) ... (n + 2 top - 2), D = n (n + 2) ... (n + 2 top - 2)
        tail = [1]
        for i in range(top - 1, -1, -1):
            tail.append(tail[-1] * (x + 2 * i))
        return [x ** m * tail[top - m] for m in range(top + 1)], tail[top]
    num, den = Fraction(x).as_integer_ratio()
    return [num ** m * den ** (top - m) for m in range(top + 1)], den ** top


@lru_cache(maxsize=None)
def _parity(alpha) -> tuple:
    out = [e & 1 for e in alpha]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def _pair_weight(alpha: tuple, beta: tuple) -> tuple:
    """(|gamma| / 2, prod_i (gamma_i - 1)!!) of gamma = alpha + beta, two monomials of one parity.

    The product counts the ways to pair up the factors of x^gamma within each
    variable: the Gaussian moment at t = 1, and the numerator of the sphere
    moment.
    """
    gamma = mono_mul(alpha, beta)
    return mono_degree(gamma) // 2, math.prod(math.prod(range(e - 1, 0, -2)) for e in gamma)


def _pair_sums(nums: dict, other: dict) -> dict:
    """{m: S_m}: the integer sums behind a bilinear form of two integer forms.

    S_m sums c_alpha c'_beta times the pairing count of alpha + beta
    (``_pair_weight``) over the pairs of numerators c of nums and c' of other
    in one parity class with |alpha + beta| = 2m: other's terms are sorted
    into parity classes, and each term of nums reads its own.  ``other is
    nums`` visits each unordered pair once: the sum over distinct pairs is
    doubled and the diagonal added.
    """
    sums: dict = {}
    classes: dict = {}
    for beta, c in other.items():
        classes.setdefault(_parity(beta), []).append((beta, c))
    if other is not nums:
        for alpha, ca in nums.items():
            for beta, cb in classes.get(_parity(alpha), ()):
                m, ways = _pair_weight(alpha, beta)
                sums[m] = sums.get(m, 0) + ca * cb * ways
        return sums
    for cls in classes.values():
        for (alpha, ca), (beta, cb) in combinations(cls, 2):
            m, ways = _pair_weight(alpha, beta)
            sums[m] = sums.get(m, 0) + ca * cb * ways
    sums = {m: 2 * s for m, s in sums.items()}
    for alpha, c in nums.items():
        m, ways = _pair_weight(alpha, alpha)
        sums[m] = sums.get(m, 0) + c * c * ways
    return sums


def _own_pair_sums(p: RealPoly) -> tuple:
    nums, den = _integer_form(p)
    return _pair_sums(nums, nums), den * den


def _radial_sum(spec: MeasureSpec, sums: dict, den: int, exact: bool = False):
    """sum_m S_m N_m / (D den) with the radial table of spec, in one int / int division.

    The sphere and quadric tables read n, the Gaussian tables t (gauss) or
    E[a abar] (xi and gamma).  The division rounds once, correctly;
    ``exact`` returns the Fraction instead.
    """
    sphere = spec.family in ("sphere", "quadric")
    x = spec.n if sphere else spec.t if spec.family == "gauss" else spec.covariances()[1]
    weights, common = _radial_table(sphere, x, max(sums, default=0))
    num = sum(s * weights[m] for m, s in sums.items())
    return Fraction(num, common * den) if exact else num / (common * den)


# ---------------------------------------------------------------------------
# complex kinds: bilinear forms of two flows
#
# The quadric operator splits into commuting holomorphic and antiholomorphic
# halves, each acting on a-degree-graded polynomials only, and at
# tau = T/(2n) the holomorphic half -n*Lap + Euler^2 + (n-2)*Euler is
# -(T/2) times the sphere Laplacian.  So the moment of a^alpha abar^beta is
# the sphere integral <F x^alpha, F x^beta> of two backward flows: F is the
# sphere heat flow run backward for T/2, read from the sphere Laplacian's
# flow table at time -T/2.
#
# The complex Gaussians read a flow too.  Per coordinate let c2 = E[a^2] and
# g2 = E[a abar].  The holomorphic Hermite polynomials e^{-(c2/2) Lap} a^beta
# are orthogonal with squared norms beta! g2^|beta| (van Eijndhoven and
# Meyers, J. Math. Anal. Appl. 146 (1990) 89), so x^alpha's coefficients in
# them are the monomial coefficients of F x^alpha, F = e^{(c2/2) Lap}, and
# E[a^alpha abar^beta] = sum_gamma gamma! g2^|gamma| (F x^alpha)_gamma (F x^beta)_gamma.
#
# Either way a moment is a bilinear form of two flows (``_flow_form``), summed
# exactly in integers and rounded once; only the flows may be floats.


@lru_cache(maxsize=None)
def _hermite_weight(beta: tuple) -> tuple:
    """(|beta|, beta!): a Hermite polynomial's degree, and its squared norm over g2^|beta|."""
    return mono_degree(beta), math.prod(map(math.factorial, beta))


def _form_sums(spec: MeasureSpec, nums: dict, other: dict) -> dict:
    """{m: S_m}: the integer sums behind the family's bilinear form of two numerator dicts.

    The pair sums of the moment of a product for gauss, sphere and quadric;
    for xi and gamma the Hermite form's sum of beta! c_beta c'_beta over
    |beta| = m, whose radial weight is g2^m.
    """
    if spec.family not in ("xi", "gamma"):
        return _pair_sums(nums, other)
    sums: dict = {}
    for beta, c in nums.items():
        d = other.get(beta)
        if d:
            m, weight = _hermite_weight(beta)
            sums[m] = sums.get(m, 0) + weight * c * d
    return sums


def _flow_form(spec: MeasureSpec, pairs, exact: bool = False):
    """sum B(u, v) over the pairs (u, v) of integer forms (nums, den), rounded once.

    B is the family's real bilinear form (``_form_sums``).  The pairs' sums
    go over one denominator and ``_radial_sum`` divides once; ``exact``
    returns the Fraction.  A pair (u, u) visits each unordered pair of u's
    terms once.
    """
    sums: dict = {}
    den = 1
    for (nums, d), (other, e) in pairs:
        part = _form_sums(spec, nums, other)
        if sums:  # both over the denominator den * d * e
            sums = {m: sums.get(m, 0) * d * e + part.get(m, 0) * den
                    for m in sums.keys() | part.keys()}
            den *= d * e
        else:
            sums, den = part, d * e
    return _radial_sum(spec, sums, den, exact)


def _backward_flow(spec: MeasureSpec, terms, exact: bool = False) -> tuple:
    """Real and imaginary parts of sum c F x^alpha over the (alpha, c) in terms, as dicts.

    F is e^{-(T/2) sphere Lap} (quadric) or e^{(c2/2) Lap} (xi and gamma),
    applied to a holomorphic f for its norm, or to the a-part of one
    abar-group, or to x^beta, for a moment.  ``exact`` flows exact
    coefficients at the exact time c2/2; otherwise the flow runs in floats.
    An entry may be 0.0 where flows cancel; it adds nothing to a form.
    """
    if spec.family == "quadric":
        gen, t = diffops.spherical_laplacian_op(spec.n), -float(spec.T) / 2.0
    else:
        c2 = spec.covariances()[0]
        gen, t = diffops.LAPLACIAN, Fraction(c2, 2) if exact else float(c2) / 2.0
    flow = semigroup.monomial_flows(gen, t)
    re: dict = {}
    im: dict = {}
    for alpha, c in terms:
        c = c if exact else complex(c)
        for part, x in zip((re, im), (c.re, c.im) if exact else (c.real, c.imag)):
            if x:
                for gamma, w in flow(alpha).items():
                    part[gamma] = part.get(gamma, 0) + x * w
    return re, im


def _complex_moment(spec: MeasureSpec, q: CxPoly, exact: bool):
    """sum of the forms <y_beta, F x^beta> over q's abar-monomials beta.

    y_beta = sum_alpha c_{alpha beta} F x^alpha gathers the terms that share
    beta, so each group is one form of two flows, Re and Im each summed
    exactly and rounded once.  ``exact`` (exact q under a rational spec)
    flows exactly and returns the exact GaussianRational.
    """
    by_abar: dict = {}
    for (alpha, beta), c in q.terms.items():
        group = by_abar.setdefault(beta, [])  # the groups' order is the order of their sum
        # every flow keeps each exponent's parity, and every family is even in
        # each coordinate, so a term of mixed parity integrates to 0
        if _parity(alpha) == _parity(beta):
            group.append((alpha, c))
    one = GaussianRational(1) if exact else 1
    total = [0, 0]
    for beta, terms in by_abar.items():
        x_beta = _backward_flow(spec, [(beta, one)], exact)[0]
        other = _ratio_form(x_beta)
        for i, part in enumerate(_backward_flow(spec, terms, exact)):
            if part:
                if spec.family != "quadric":
                    # the Hermite form is diagonal: only the keys part shares with x_beta count
                    part = {k: part[k] for k in x_beta if k in part}
                total[i] += _flow_form(spec, [(_ratio_form(part), other)], exact)
    return GaussianRational(*total) if exact else _finite(complex(*total))


def _finite(value):
    if not math.isfinite(abs(value)):
        raise OverflowError("a moment or norm overflows a float")
    return value


# ---------------------------------------------------------------------------
# moments and squared norms


def moment(spec: MeasureSpec, q):
    """Integral of q against spec's measure: for gauss and sphere the form of q with 1."""
    spec.check(q)
    exact = q.mode == EXACT and spec.rational
    if spec.family in _REAL:
        return _flow_form(spec, [(_integer_form(q), ({(): 1}, 1))], exact)
    return _complex_moment(spec, q, exact)


def norm2(spec: MeasureSpec, f) -> float:
    """Squared L2 norm of f under spec, as a bilinear form over f's own terms.

    * gauss, sphere (real f): sum p_alpha p_beta M(alpha + beta) over pairs
      in one parity class, summed exactly and rounded once, so for exact f
      it is ``float(moment(spec, f * f))`` bit for bit.
    * xi, gamma (holomorphic f): sum_beta beta! g2^|beta| |h_beta|^2 over
      f's holomorphic Hermite coefficients h = e^{(c2/2) Lap} f, summed
      exactly and rounded once; for exact f at rational (s, t) the flow is
      exact, so the xi norm is ``float(moment(spec, f.mod_square()).re)``.
    * quadric (holomorphic f): the sphere norm of y = sum f_alpha F x^alpha,
      the sphere heat flow of f run backward for T/2, as the real forms of
      Re y and Im y, each summed exactly and rounded once.

    The complex norms are ``_flow_form`` of f's flow with itself, the form
    ``moment`` takes of every complex integrand.
    """
    spec.check(f)
    if spec.family in _REAL:
        # kept in f's memo, so f's squared norms under every gauss and sphere
        # spec pay for its pair sums once
        sums, den = f._memoized("pair_sums", _own_pair_sums)
        return _radial_sum(spec, sums, den)
    if not f.is_holomorphic():
        raise HolomorphicityError("squared norms need a holomorphic polynomial")
    exact = f.mode == EXACT and spec.rational
    flows = _backward_flow(spec, [(a, c) for (a, _), c in f.terms.items()], exact)
    forms = [_ratio_form(part) for part in flows if part]
    if spec.family != "quadric":
        return _flow_form(spec, [(form, form) for form in forms])
    # Re y and Im y are two real sphere norms, each rounded once
    return _finite(sum((_flow_form(spec, [(form, form)]) for form in forms), 0.0))


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
