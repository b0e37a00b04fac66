"""Sparse multivariate polynomial algebra.

Two families of polynomials:

* ``RealPoly`` -- polynomials in real variables x1, x2, ...
* ``CxPoly``   -- polynomials in complexified pairs (a1, abar1), (a2, abar2), ...

Both are sparse maps from exponent tuples to coefficients and come in two
coefficient modes: ``"exact"`` (arbitrary-precision rationals, Gaussian
rationals for the complex case) and ``"float"`` (binary64 / complex128).
Modes never mix silently in ring operations; conversion is explicit via
``to_float()``.

Exponent tuples are canonicalized by trimming trailing zeros, so the same
polynomial compares equal no matter how many ambient variables it is read in.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add

import numpy as np

EXACT = "exact"
FLOAT = "float"

_MODES = (EXACT, FLOAT)


class ModeMismatchError(ValueError):
    """Raised when exact-mode and float-mode values meet in a ring operation."""


class HolomorphicityError(ValueError):
    """Raised when an operation requires a holomorphic polynomial."""


# ---------------------------------------------------------------------------
# multi-indices


def trim(exponents) -> tuple:
    """Canonical exponent tuple: trailing zeros removed, entries checked >= 0."""
    exps = tuple(int(e) for e in exponents)
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def mono_degree(exponents) -> int:
    return sum(exponents)


def mono_mul(a, b) -> tuple:
    """Product of two monomials: the sum of their canonical exponent tuples."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(map(_add, a, b)) + a[len(b):]


# ---------------------------------------------------------------------------
# coefficients


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("GaussianRational powers need a nonnegative integer")
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


def _real_coeff(value, mode):
    """Coerce a scalar into the coefficient domain of a RealPoly."""
    if mode == EXACT:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ModeMismatchError(f"exact mode rejects coefficient {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    raise ModeMismatchError(f"float mode rejects coefficient {value!r}")


def _cx_coeff(value, mode):
    """Coerce a scalar into the coefficient domain of a CxPoly."""
    if mode == EXACT:
        g = _as_gaussian(value)
        if g is NotImplemented:
            raise ModeMismatchError(f"exact mode rejects coefficient {value!r}")
        return g
    if isinstance(value, (int, float, complex)):
        return complex(value)
    raise ModeMismatchError(f"float mode rejects coefficient {value!r}")


def _check_modes(p, q):
    if p.mode != q.mode:
        raise ModeMismatchError(
            f"cannot combine {p.mode}-mode and {q.mode}-mode polynomials"
        )


# ---------------------------------------------------------------------------
# shared storage


class _Poly:
    """Immutable storage shared by RealPoly and CxPoly: a canonical term map.

    The public constructors validate their input.  Ring operations build
    their results with ``_trusted``, which stores a dict that is already
    canonical: trimmed keys and nonzero coefficients of the mode's type.
    """

    __slots__ = ("terms", "mode")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, terms: dict, mode: str):
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "mode", mode)
        return p

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers need a nonnegative integer")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return type(self).constant(1, self.mode) if out is None else out


class _Powers(dict):
    """points[:, j] ** e by (j, e), each computed once per evaluation."""

    def __init__(self, points: np.ndarray):
        super().__init__()
        self.points = points

    def __missing__(self, key):
        j, e = key
        out = self[key] = self.points[:, j] ** e
        return out


def _nonzero(terms: dict) -> dict:
    # float products and conversions can underflow to zero
    return {key: c for key, c in terms.items() if c}


# ---------------------------------------------------------------------------
# real polynomials


class RealPoly(_Poly):
    """Finitely supported map from exponent tuples to coefficients.

    Instances are immutable values; all operations return new polynomials.
    """

    __slots__ = ()

    def __init__(self, terms=None, mode=EXACT):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        clean = {}
        for alpha, c in (terms or {}).items():
            c = _real_coeff(c, mode)
            if c:
                clean[trim(alpha)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)

    # -- constructors

    @classmethod
    def zero(cls, mode=EXACT):
        return cls({}, mode)

    @classmethod
    def constant(cls, c, mode=EXACT):
        return cls({(): c}, mode)

    @classmethod
    def variable(cls, index: int, mode=EXACT):
        """The coordinate x_{index+1} (index is 0-based)."""
        return cls({(0,) * index + (1,): 1}, mode)

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((mono_degree(a) for a in self.terms), default=0)

    def width(self) -> int:
        """Smallest k such that the polynomial lies in the first k variables."""
        return max((len(a) for a in self.terms), default=0)

    def coefficient(self, alpha):
        return self.terms.get(trim(alpha), _real_coeff(0, self.mode))

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = RealPoly.constant(other, self.mode)
        if not isinstance(other, RealPoly):
            return NotImplemented
        _check_modes(self, other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            s = terms.get(a, 0) + c
            if s:
                terms[a] = s
            else:
                terms.pop(a, None)
        return RealPoly._trusted(terms, self.mode)

    __radd__ = __add__

    def __neg__(self):
        return RealPoly._trusted({a: -c for a, c in self.terms.items()}, self.mode)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RealPoly) else RealPoly.constant(-other, self.mode))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        if not isinstance(other, RealPoly):
            return NotImplemented
        _check_modes(self, other)
        terms = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = mono_mul(a1, a2)
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return RealPoly._trusted(terms, self.mode)

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _real_coeff(c, self.mode)
        if not c:
            return RealPoly.zero(self.mode)
        return RealPoly._trusted(
            _nonzero({a: c * v for a, v in self.terms.items()}), self.mode
        )

    def dilate(self, lam) -> "RealPoly":
        """Rescale the point: each total-degree-m term picks up lam**m.

        A float ``lam`` promotes an exact polynomial to float mode.
        """
        p = self
        if p.mode == EXACT and not isinstance(lam, (int, Fraction)):
            p = p.to_float()
        return RealPoly(
            {a: c * lam ** mono_degree(a) for a, c in p.terms.items()}, p.mode
        )

    # -- evaluation

    def evaluate(self, point):
        """Evaluate at a point (sequence of numbers, length >= width)."""
        point = list(point)
        if len(point) < self.width():
            raise ValueError(
                f"need {self.width()} coordinates, got {len(point)}"
            )
        total = 0
        for a, c in self.terms.items():
            v = c
            for j, e in enumerate(a):
                if e:
                    v = v * point[j] ** e
            total = total + v
        return total

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (n, k) array of sample points."""
        x = np.asarray(x)
        out = np.zeros(x.shape[0])
        power = _Powers(x)
        for a, c in self.terms.items():
            v = np.full(x.shape[0], float(c))
            for j, e in enumerate(a):
                if e:
                    v *= power[j, e]
            out += v
        return out

    # -- conversions and comparisons

    def to_float(self) -> "RealPoly":
        if self.mode == FLOAT:
            return self
        return RealPoly._trusted(
            _nonzero({a: float(c) for a, c in self.terms.items()}), FLOAT
        )

    def __eq__(self, other):
        if not isinstance(other, RealPoly):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def __repr__(self):
        return f"RealPoly({format_real(self)!r}, mode={self.mode!r})"

    def __str__(self):
        return format_real(self)


# ---------------------------------------------------------------------------
# complexified polynomials


class CxPoly(_Poly):
    """Polynomial in pairs (a_j, abar_j), stored as (alpha, beta) -> coefficient.

    ``alpha`` carries the a-exponents, ``beta`` the abar-exponents.  The
    polynomial is holomorphic iff every beta is empty.
    """

    __slots__ = ()

    def __init__(self, terms=None, mode=EXACT):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        clean = {}
        for (alpha, beta), c in (terms or {}).items():
            c = _cx_coeff(c, mode)
            if c:
                clean[(trim(alpha), trim(beta))] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def zero(cls, mode=EXACT):
        return cls({}, mode)

    @classmethod
    def constant(cls, c, mode=EXACT):
        return cls({((), ()): c}, mode)

    @classmethod
    def a(cls, index: int, mode=EXACT):
        return cls({((0,) * index + (1,), ()): 1}, mode)

    @classmethod
    def abar(cls, index: int, mode=EXACT):
        return cls({((), (0,) * index + (1,)): 1}, mode)

    def is_zero(self) -> bool:
        return not self.terms

    def is_holomorphic(self) -> bool:
        return all(not beta for _, beta in self.terms)

    def degree(self) -> int:
        """Total bidegree |alpha| + |beta|; 0 for the zero polynomial."""
        return max(
            (mono_degree(a) + mono_degree(b) for a, b in self.terms), default=0
        )

    def a_degree(self) -> int:
        return max((mono_degree(a) for a, _ in self.terms), default=0)

    def abar_degree(self) -> int:
        return max((mono_degree(b) for _, b in self.terms), default=0)

    def width(self) -> int:
        return max((max(len(a), len(b)) for a, b in self.terms), default=0)

    def coefficient(self, alpha, beta=()):
        return self.terms.get((trim(alpha), trim(beta)), _cx_coeff(0, self.mode))

    def __add__(self, other):
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
            other = CxPoly.constant(other, self.mode)
        if not isinstance(other, CxPoly):
            return NotImplemented
        _check_modes(self, other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return CxPoly._trusted(terms, self.mode)

    __radd__ = __add__

    def __neg__(self):
        return CxPoly._trusted({k: -c for k, c in self.terms.items()}, self.mode)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, CxPoly):
            return NotImplemented
        _check_modes(self, other)
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (mono_mul(a1, a2), mono_mul(b1, b2))
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return CxPoly._trusted(terms, self.mode)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _cx_coeff(c, self.mode)
        if not c:
            return CxPoly.zero(self.mode)
        return CxPoly._trusted(
            _nonzero({k: c * v for k, v in self.terms.items()}), self.mode
        )

    def conjugate(self) -> "CxPoly":
        """Swap a- and abar-exponents and conjugate every coefficient."""
        return CxPoly._trusted(
            {(b, a): c.conjugate() for (a, b), c in self.terms.items()}, self.mode
        )

    def mod_square(self) -> "CxPoly":
        """q * conjugate(q) for holomorphic q; real-valued on all points."""
        if not self.is_holomorphic():
            raise HolomorphicityError("mod_square needs a holomorphic polynomial")
        return self * self.conjugate()

    def dilate(self, lam) -> "CxPoly":
        """Rescale the point a -> lam*a (and abar -> conj(lam)*abar)."""
        p = self
        if p.mode == EXACT and not isinstance(lam, (int, Fraction, GaussianRational)):
            p = p.to_float()
        if p.mode == EXACT:
            lam = _as_gaussian(lam) if not isinstance(lam, GaussianRational) else lam
            lam_bar = lam.conjugate()
        else:
            lam = complex(lam)
            lam_bar = lam.conjugate()
        return CxPoly(
            {
                (a, b): c * lam ** mono_degree(a) * lam_bar ** mono_degree(b)
                for (a, b), c in p.terms.items()
            },
            p.mode,
        )

    def evaluate(self, point):
        """Evaluate at complex coordinates; abar-variables get conjugates."""
        point = [complex(z) for z in point]
        if len(point) < self.width():
            raise ValueError(
                f"need {self.width()} coordinates, got {len(point)}"
            )
        total = 0j
        for (a, b), c in self.terms.items():
            v = complex(c)
            for j, e in enumerate(a):
                if e:
                    v *= point[j] ** e
            for j, e in enumerate(b):
                if e:
                    v *= point[j].conjugate() ** e
            total += v
        return total

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (n, k) complex array."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[0], dtype=complex)
        power, power_bar = _Powers(z), _Powers(z.conjugate())
        for (a, b), c in self.terms.items():
            v = np.full(z.shape[0], complex(c))
            for j, e in enumerate(a):
                if e:
                    v *= power[j, e]
            for j, e in enumerate(b):
                if e:
                    v *= power_bar[j, e]
            out += v
        return out

    def as_real_monomials(self) -> dict:
        """Collapse to real points a = abar = x: map x-exponents to coefficients."""
        out = {}
        for (a, b), c in self.terms.items():
            key = mono_mul(a, b)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def to_float(self) -> "CxPoly":
        if self.mode == FLOAT:
            return self
        return CxPoly._trusted(
            _nonzero({k: complex(c) for k, c in self.terms.items()}), FLOAT
        )

    def __eq__(self, other):
        if not isinstance(other, CxPoly):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def __repr__(self):
        return f"CxPoly({format_cx(self)!r}, mode={self.mode!r})"

    def __str__(self):
        return format_cx(self)


# ---------------------------------------------------------------------------
# extension and distance


def holomorphic_extend(p: RealPoly) -> CxPoly:
    """Substitute x_j -> a_j; the result is holomorphic and restricts back to p."""
    lift = GaussianRational if p.mode == EXACT else complex
    return CxPoly._trusted({(a, ()): lift(c) for a, c in p.terms.items()}, p.mode)


def coeff_distance(p, q):
    """Max absolute coefficient difference; exact when both operands are exact."""
    if type(p) is not type(q):
        raise TypeError("cannot compare polynomials of different families")
    keys = set(p.terms) | set(q.terms)
    if p.mode == EXACT and q.mode == EXACT:
        best = Fraction(0)
        for key in keys:
            d = p.terms.get(key, 0) - q.terms.get(key, 0)
            if isinstance(d, GaussianRational):
                mag = max(abs(d.re), abs(d.im))
            else:
                mag = abs(d)
            if mag > best:
                best = mag
        return best
    pf = p.to_float()
    qf = q.to_float()
    return max(
        (abs(pf.terms.get(k, 0) - qf.terms.get(k, 0)) for k in keys), default=0.0
    )


# ---------------------------------------------------------------------------
# pretty printing


def _format_coeff(c):
    if isinstance(c, GaussianRational):
        if not c.im:
            return str(c.re)
        return f"({c.re}{'+' if c.im >= 0 else '-'}{abs(c.im)}i)"
    if isinstance(c, complex):
        if c.imag == 0:
            return repr(c.real)
        return repr(c)
    return str(c)


def _format_vars(alpha, name):
    parts = []
    for j, e in enumerate(alpha):
        if e == 1:
            parts.append(f"{name}{j + 1}")
        elif e > 1:
            parts.append(f"{name}{j + 1}^{e}")
    return "*".join(parts)


def format_real(p: RealPoly) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for a in sorted(p.terms, key=lambda a: (mono_degree(a), a)):
        mono = _format_vars(a, "x")
        coeff = _format_coeff(p.terms[a])
        bits.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(bits)


def format_cx(q: CxPoly) -> str:
    if q.is_zero():
        return "0"
    bits = []
    for a, b in sorted(
        q.terms, key=lambda k: (mono_degree(k[0]) + mono_degree(k[1]), k)
    ):
        mono = "*".join(x for x in (_format_vars(a, "a"), _format_vars(b, "abar")) if x)
        coeff = _format_coeff(q.terms[(a, b)])
        bits.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# JSON serialization: term lists [{a_exponents, abar_exponents, re, im}];
# exact rationals travel as "num/den" strings.


def _rational_to_json(x: Fraction):
    return f"{x.numerator}/{x.denominator}"


def _number_to_json(c):
    if isinstance(c, GaussianRational):
        return _rational_to_json(c.re), _rational_to_json(c.im)
    if isinstance(c, Fraction):
        return _rational_to_json(c), _rational_to_json(Fraction(0))
    if isinstance(c, complex):
        return c.real, c.imag
    return float(c), 0.0


def poly_to_json(p) -> list:
    rows = []
    if isinstance(p, RealPoly):
        items = sorted(
            ((a, ()) for a in p.terms), key=lambda k: (mono_degree(k[0]), k)
        )
        get = lambda key: p.terms[key[0]]
    else:
        items = sorted(
            p.terms, key=lambda k: (mono_degree(k[0]) + mono_degree(k[1]), k)
        )
        get = lambda key: p.terms[key]
    for key in items:
        re, im = _number_to_json(get(key))
        rows.append(
            {
                "a_exponents": list(key[0]),
                "abar_exponents": list(key[1]),
                "re": re,
                "im": im,
            }
        )
    return rows


def _json_number(value):
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or "1"))
    return float(value)


def real_poly_from_json(rows: list) -> RealPoly:
    terms = {}
    exact = all(isinstance(row["re"], str) for row in rows) if rows else True
    for row in rows:
        if row["abar_exponents"]:
            raise ValueError("real polynomial rows cannot carry abar exponents")
        re = _json_number(row["re"])
        im = _json_number(row["im"])
        if im:
            raise ValueError("real polynomial rows cannot carry imaginary parts")
        terms[tuple(row["a_exponents"])] = re
    return RealPoly(terms, EXACT if exact else FLOAT)


def cx_poly_from_json(rows: list) -> CxPoly:
    terms = {}
    exact = all(isinstance(row["re"], str) for row in rows) if rows else True
    for row in rows:
        re = _json_number(row["re"])
        im = _json_number(row["im"])
        key = (tuple(row["a_exponents"]), tuple(row["abar_exponents"]))
        terms[key] = GaussianRational(re, im) if exact else complex(re, im)
    return CxPoly(terms, EXACT if exact else FLOAT)
