"""Sparse multivariate polynomial algebra: one body, two families.

``_Poly`` writes every operation once: ring operations, scaling, dilation,
evaluation, conversion, comparison, printing and JSON reading.  A family
only says how a monomial key splits into exponent tuples, how keys
multiply, which coefficients and scalars it takes and how its variables
are named:

* ``RealPoly`` -- real variables x1, x2, ...; a key is one exponent tuple.
* ``CxPoly``   -- complexified pairs (a1, abar1), (a2, abar2), ...; a key is
  a pair (alpha, beta) of a- and abar-exponents.

Both come in two coefficient modes: ``"exact"`` (arbitrary-precision
rationals, Gaussian rationals for the complex case) and ``"float"``
(binary64 / complex128).  Neither modes nor families mix in ring
operations: mixed modes raise ``ModeMismatchError``, mixed families
``TypeError``.  Conversion is explicit via ``to_float()``.

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


def _pair_mul(k1, k2) -> tuple:
    """Product of two (alpha, beta) keys."""
    return mono_mul(k1[0], k2[0]), mono_mul(k1[1], k2[1])


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
# one polynomial body


class _Poly:
    """Immutable sparse polynomial: a canonical map from monomial keys to coefficients.

    A family sets ``_parts`` (key -> exponent tuples) and ``_join`` (back),
    ``_key_mul`` (product of two keys), ``_scalars`` (accepted by ring
    operations), ``_coeff`` (coefficient coercion), ``_float`` (float-mode
    coefficient type), ``_value`` (the arithmetic of ``evaluate``) and
    ``_names`` (one variable name per part).  Variables of a second part
    read the conjugate of the point's coordinates.

    The public constructors validate their input.  Ring operations build
    their results with ``_trusted``, which stores a dict that is already
    canonical: trimmed keys and nonzero coefficients of the mode's type.
    """

    __slots__ = ("terms", "mode")

    def __init__(self, terms=None, mode=EXACT):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        coeff, parts, join = self._coeff, self._parts, self._join
        clean = {}
        for key, c in (terms or {}).items():
            c = coeff(c, mode)
            if c:
                clean[join(*map(trim, parts(key)))] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, terms: dict, mode: str):
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "mode", mode)
        return p

    # -- constructors

    @classmethod
    def zero(cls, mode=EXACT):
        return cls({}, mode)

    @classmethod
    def constant(cls, c, mode=EXACT):
        # the key of the unit monomial: one empty exponent tuple per part
        return cls({cls._join(*((),) * len(cls._names)): c}, mode)

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def _key_degree(self, key) -> int:
        return sum(map(mono_degree, self._parts(key)))

    def _sorted_keys(self) -> list:
        """Keys in printing order: total degree, then the key itself."""
        return sorted(self.terms, key=lambda key: (self._key_degree(key), key))

    def degree(self) -> int:
        """Total degree (|alpha| + |beta| for pairs); 0 for the zero polynomial."""
        return max(map(self._key_degree, self.terms), default=0)

    def width(self) -> int:
        """Smallest k such that every part lies in its first k variables."""
        return max((len(m) for key in self.terms for m in self._parts(key)), default=0)

    # -- ring operations

    def _lift(self, other):
        """other as a polynomial of this family and mode; None for any other operand."""
        if isinstance(other, self._scalars):
            return self.constant(other, self.mode)
        if type(other) is not type(self):
            return None
        _check_modes(self, other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return self._trusted(terms, self.mode)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted({key: -c for key, c in self.terms.items()}, self.mode)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else (-self) + other

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        _check_modes(self, other)
        key_mul = self._key_mul
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = key_mul(k1, k2)
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return self._trusted(terms, self.mode)

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        return NotImplemented

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
        return self.constant(1, self.mode) if out is None else out

    def scale(self, c):
        c = self._coeff(c, self.mode)
        if not c:
            return self.zero(self.mode)
        return self._trusted(
            _nonzero({key: c * v for key, v in self.terms.items()}), self.mode
        )

    def dilate(self, lam):
        """Rescale the point x -> lam*x (a -> lam*a, abar -> conj(lam)*abar).

        A term picks up lam**|alpha| (times conj(lam)**|beta|).  A float or
        complex ``lam`` promotes an exact polynomial to float mode.
        """
        p = self
        if p.mode == EXACT and not isinstance(lam, (int, Fraction, GaussianRational)):
            p = p.to_float()
        lam = p._coeff(lam, p.mode)
        factors = (lam, lam.conjugate())
        terms = {}
        for key, c in p.terms.items():
            for f, mono in zip(factors, p._parts(key)):
                c = c * f ** mono_degree(mono)
            terms[key] = c
        return p._trusted(_nonzero(terms), p.mode)

    # -- evaluation

    def evaluate(self, point):
        """Evaluate at a point (sequence of numbers, length >= width).

        Real polynomials compute in the point's own arithmetic, so an exact
        point gives an exact value; complexified ones compute in complex
        floats, and abar_j reads the conjugate of coordinate j.
        """
        point = [self._value(z) for z in point]
        if len(point) < self.width():
            raise ValueError(
                f"need {self.width()} coordinates, got {len(point)}"
            )
        total = self._value(0)
        for key, c in self.terms.items():
            v = self._value(c)
            for side, mono in enumerate(self._parts(key)):
                for j, e in enumerate(mono):
                    if e:
                        v = v * (point[j].conjugate() if side else point[j]) ** e
            total = total + v
        return total

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (n, k) array of sample points."""
        dtype, parts = self._float, self._parts
        x = np.asarray(x, dtype=dtype)
        out = np.zeros(x.shape[0], dtype=dtype)
        power = _Powers(x)
        for key, c in self.terms.items():
            v = np.full(x.shape[0], dtype(c))
            for side, mono in enumerate(parts(key)):
                for j, e in enumerate(mono):
                    if e:
                        v *= power[side, j, e]
            out += v
        return out

    # -- conversions, comparisons and printing

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return self._trusted(
            _nonzero({key: self._float(c) for key, c in self.terms.items()}), FLOAT
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r}, mode={self.mode!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in self._sorted_keys():
            mono = "*".join(filter(None, map(_format_vars, self._parts(key), self._names)))
            coeff = _format_coeff(self.terms[key])
            bits.append(f"{coeff}*{mono}" if mono else coeff)
        return " + ".join(bits)

    @classmethod
    def _from_json(cls, rows: list):
        """Read ``poly_to_json`` rows: exact when every ``re`` and ``im`` is a
        "num/den" string, float when none is; any other mix is rejected."""
        strings = {isinstance(row[part], str) for row in rows for part in ("re", "im")}
        if len(strings) > 1:
            raise ValueError('JSON rows must write every number as a "num/den" string, or none')
        exact = False not in strings
        width = len(cls._names)
        terms = {}
        for row in rows:
            parts = (tuple(row["a_exponents"]), tuple(row["abar_exponents"]))
            re, im = _json_number(row["re"]), _json_number(row["im"])
            if width == 1 and (parts[1] or im):
                raise ValueError(
                    "real polynomial rows cannot carry abar exponents or imaginary parts"
                )
            c = re if width == 1 else GaussianRational(re, im) if exact else complex(re, im)
            terms[cls._join(*parts[:width])] = c
        return cls(terms, EXACT if exact else FLOAT)


class _Powers(dict):
    """Column powers by (side, j, e), each computed once per evaluation.

    Side 0 reads points[:, j], side 1 its conjugate.
    """

    def __init__(self, points: np.ndarray):
        super().__init__()
        self.points = points

    def __missing__(self, key):
        side, j, e = key
        column = self.points[:, j]
        out = self[key] = (column.conjugate() if side else column) ** e
        return out


def _nonzero(terms: dict) -> dict:
    # float products and conversions can underflow to zero
    return {key: c for key, c in terms.items() if c}


# ---------------------------------------------------------------------------
# the two families


class RealPoly(_Poly):
    """Polynomial in real variables x1, x2, ...: exponent tuple alpha -> coefficient.

    Instances are immutable values; all operations return new polynomials.
    """

    __slots__ = ()
    _names = ("x",)
    _scalars = (int, float, Fraction)
    _float = float
    _coeff = staticmethod(_real_coeff)
    _value = staticmethod(lambda z: z)
    _parts = staticmethod(lambda alpha: (alpha,))
    _join = staticmethod(lambda alpha: alpha)
    _key_mul = staticmethod(mono_mul)

    @classmethod
    def variable(cls, index: int, mode=EXACT):
        """The coordinate x_{index+1} (index is 0-based)."""
        return cls({(0,) * index + (1,): 1}, mode)

    def coefficient(self, alpha):
        return self.terms.get(trim(alpha), self._coeff(0, self.mode))


class CxPoly(_Poly):
    """Polynomial in pairs (a_j, abar_j), stored as (alpha, beta) -> coefficient.

    ``alpha`` carries the a-exponents, ``beta`` the abar-exponents.  The
    polynomial is holomorphic iff every beta is empty.
    """

    __slots__ = ()
    _names = ("a", "abar")
    _scalars = (int, float, complex, Fraction, GaussianRational)
    _float = complex
    _coeff = staticmethod(_cx_coeff)
    _value = complex
    _parts = staticmethod(lambda key: key)
    _join = staticmethod(lambda alpha, beta: (alpha, beta))
    _key_mul = staticmethod(_pair_mul)

    @classmethod
    def a(cls, index: int, mode=EXACT):
        return cls({((0,) * index + (1,), ()): 1}, mode)

    @classmethod
    def abar(cls, index: int, mode=EXACT):
        return cls({((), (0,) * index + (1,)): 1}, mode)

    def is_holomorphic(self) -> bool:
        return all(not beta for _, beta in self.terms)

    def a_degree(self) -> int:
        return max((mono_degree(a) for a, _ in self.terms), default=0)

    def abar_degree(self) -> int:
        return max((mono_degree(b) for _, b in self.terms), default=0)

    def coefficient(self, alpha, beta=()):
        return self.terms.get((trim(alpha), trim(beta)), self._coeff(0, self.mode))

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
    for key in p._sorted_keys():
        alpha, beta = (*p._parts(key), ())[:2]
        re, im = _number_to_json(p.terms[key])
        rows.append({"a_exponents": list(alpha), "abar_exponents": list(beta), "re": re, "im": im})
    return rows


def _json_number(value):
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or "1"))
    return float(value)


real_poly_from_json = RealPoly._from_json
cx_poly_from_json = CxPoly._from_json
