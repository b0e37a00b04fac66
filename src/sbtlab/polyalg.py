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

A polynomial never changes, so what its terms determine is computed once,
on first use, and kept in a private memo on the instance: its width, its
float image (``to_float()``), its integer form and, for ``measures``, the
half-degree pair sums behind its Gaussian and sphere squared norms and the
real and imaginary ``RealPoly`` parts of a holomorphic polynomial
(``"parts"``), which ``holomorphic_extend`` seeds with its input.  The
memo takes no part in equality, printing or JSON; threads that race on it
store equal values.

The integer form (``_integer_form``) is the polynomial over one common
denominator: ({key: numerator}, den) for a ``RealPoly``, ({key: (re, im)},
den) for a ``CxPoly``; a float coefficient reads as its exact binary
rational.  Products, scalings (a product with a constant), operator
actions (``diffops.GroupGenerator.apply``), distances, moments and pair
counts run on these integers in either mode.
An exact result builds each output ``Fraction`` once, instead of once per
product and once per sum, and keeps its own integer form in its memo, so
what reads it next does not convert again.  ``den`` is a common
denominator, not always the least one.

One float rule: a float result is the exact result on the binary values
of its inputs, rounded once per coefficient part (``_from_integer_form``),
so it does not depend on the order of a sum.  Graded flows
(``semigroup.exp_graded``) still sum their float weights in floats: with
flows on integer numerators a warm sphere unitarity report took 97 us, not 55.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import chain, count, cycle
from operator import add as _add, truediv

import numpy as np

EXACT = "exact"
FLOAT = "float"

_MODES = (EXACT, FLOAT)

# bytes per block of points an _EvalPlan evaluates: the block holds as many points
# as one row per distinct monomial fits in, so memory does not grow with the number
# of points; no value depends on it
EVAL_BLOCK_BYTES = 640 << 10


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

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        """A value from parts that are already Fractions: no conversion."""
        g = object.__new__(cls)
        g.re = re
        g.im = im
        return g

    def conjugate(self) -> "GaussianRational":
        return self._of(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a value equal to an int or a Fraction hashes as one, as a complex does
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self._of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return self._of(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self._of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return self._of(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("GaussianRational powers need a nonnegative integer")
        out = self._of(_ONE, _ZERO)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __complex__(self):
        re, im = self.re, self.im
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rational(*values) -> bool:
    """Whether every value is an int or a Fraction."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return False
    return True


def _as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational._of(Fraction(value), _ZERO)
    return NotImplemented


def _real_coeff(value, mode):
    """Coerce a scalar into the coefficient domain of a RealPoly."""
    if mode == EXACT:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ModeMismatchError(f"exact mode rejects coefficient {value!r}")
    if isinstance(value, (int, float)):
        return _finite(float(value))
    raise ModeMismatchError(f"float mode rejects coefficient {value!r}")


def _cx_coeff(value, mode):
    """Coerce a scalar into the coefficient domain of a CxPoly."""
    if mode == EXACT:
        g = _as_gaussian(value)
        if g is NotImplemented:
            raise ModeMismatchError(f"exact mode rejects coefficient {value!r}")
        return g
    if isinstance(value, (int, float, complex)):
        return _finite(complex(value))
    raise ModeMismatchError(f"float mode rejects coefficient {value!r}")


def _finite(c):
    # a float coefficient is read at its binary rational, which inf and nan do not have
    if not cmath.isfinite(c):
        raise ValueError(f"coefficients must be finite, got {c!r}")
    return c


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
    coefficient type), ``_exact`` (the exact value of a float-mode scalar),
    ``_value`` (the arithmetic of ``evaluate``) and
    ``_names`` (one variable name per part).  Variables of a second part
    read the conjugate of the point's coordinates.

    The public constructors validate their input.  Ring operations build
    their results with ``_trusted``, which stores a dict that is already
    canonical: trimmed keys and nonzero coefficients of the mode's type.
    """

    __slots__ = ("terms", "mode", "_memo")

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

    def _memoized(self, name: str, compute):
        """compute(self), kept under name in ``_memo``; only for what the terms determine."""
        try:
            memo = self._memo
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        try:
            return memo[name]
        except KeyError:
            value = memo[name] = compute(self)
            return value

    @classmethod
    def _trusted(cls, terms: dict, mode: str):
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "mode", mode)
        return p

    @classmethod
    def _from_integer_form(cls, nums: dict, den: int, mode=EXACT):
        """The polynomial nums / den in the given mode; nums holds no zero and den > 0.

        An exact one builds one ``Fraction`` per part and keeps (nums, den) as
        its integer form.  Every float coefficient computed from integers is
        rounded here: one correctly rounded int / int division per part, and
        a coefficient that underflows to zero is dropped.
        """
        if mode == FLOAT:
            rounded = cls._rounded
            return cls._trusted(_nonzero({key: rounded(v, den) for key, v in nums.items()}),
                                FLOAT)
        ratio = cls._ratio
        p = cls._trusted({key: ratio(v, den) for key, v in nums.items()}, EXACT)
        object.__setattr__(p, "_memo", {"integer": (nums, den)})
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
        return self._memoized("width", _width)

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
        other = self._lift(other)
        if other is None:
            return NotImplemented
        (nums, den), (other_nums, other_den) = _integer_form(self), _integer_form(other)
        return self._from_integer_form(
            self._numerator_product(nums, other_nums, self._key_mul), den * other_den, self.mode
        )

    __rmul__ = __mul__

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
        return self * self.constant(c, self.mode)

    def dilate(self, lam):
        """Rescale the point x -> lam*x (a -> lam*a, abar -> conj(lam)*abar).

        A term picks up lam**|alpha| (times conj(lam)**|beta|).  A float or
        complex ``lam`` promotes an exact polynomial to float mode.  A float
        result is the exact product on the binary values of the coefficients
        and lam, rounded once per coefficient part.
        """
        p = self
        if p.mode == EXACT and not isinstance(lam, (int, Fraction, GaussianRational)):
            p = p.to_float()
        lam = p._coeff(lam, p.mode)
        exact = p
        if p.mode == FLOAT:
            exact, lam = p._from_integer_form(*_integer_form(p)), p._exact(lam)
        factors = (lam, lam.conjugate())
        terms = {}
        for key, c in exact.terms.items():
            for f, mono in zip(factors, p._parts(key)):
                c = c * f ** mono_degree(mono)
            terms[key] = c
        dilated = p._trusted(_nonzero(terms), EXACT)
        return dilated if p.mode == EXACT else _float_image(dilated)

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
        """Vectorized evaluation on an (n, k) array of sample points, k >= width.

        Runs the polynomial's ``_EvalPlan`` with a workspace of its own, so
        memory does not grow with n.
        """
        x = np.asarray(x, dtype=self._float)
        width = self.width()
        if x.ndim != 2:
            raise ValueError(f"need an (n, {width}) array of points, got shape {x.shape}")
        if x.shape[1] < width:
            raise ValueError(f"need {width} coordinates, got {x.shape[1]}")
        plan = _EvalPlan(self)
        out = np.empty(x.shape[0], dtype=self._float)
        plan.run(x.T, out, plan.workspace(len(out)))
        return out

    # -- conversions, comparisons and printing

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return self._memoized("float", _float_image)

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


class _EvalPlan:
    """How ``eval_array`` evaluates one polynomial: built once, run on any points.

    The value is sum_i c_i X_i over the distinct monomials X_i of one part,
    and sum_a A_a * (sum_b C_ab B_b) over those of two, so |p|^2 of a
    10-term p costs 20 monomials, not 100 terms.  A second part reads the
    conjugate point, kept in conjugate rows.  One row rule places every
    monomial: one of a single factor is read from its coordinate, conjugate
    or power row, one of several factors gets a row of its own, and a
    constant reads a ones row.  Power e of a coordinate is power e - 1
    times the coordinate, one multiply each, so it carries e - 1 roundings:
    numpy sends ``column ** e`` for e >= 3 to libm ``pow``, some fifty
    times slower.  A monomial of several factors is the chain of products
    of its factors' rows in index order.

    A point's value does not depend on the block it is evaluated in: every
    sum runs in index order, one rounded product added at a time, and the
    plan keeps to whole-row operations (a broadcast one can buffer a copy of
    its operands).  No complex product is written over one of its operands:
    on a one-point block numpy takes that for a reduction, whose complex
    loop rounds differently.  So a chain alternates between the output row
    (free until the sum) and its monomial's row, and every c_i X_i and
    A_a * (sum_b C_ab B_b) goes to one scratch row before it is added.

    The steps are fixed here, on slots: the output row, the coordinates,
    then ``rows`` rows of a workspace the caller owns (``workspace``), so a
    caller can reuse one for every call; the plan holds no buffer.  Points
    go in blocks of ``step``: as many as one row per distinct monomial
    holds in EVAL_BLOCK_BYTES.
    """

    def __init__(self, p: _Poly):
        monos = [{} for _ in p._names]
        places = [
            tuple(seen.setdefault(mono, len(seen)) for seen, mono in zip(monos, p._parts(key)))
            for key in p.terms
        ]
        self.dtype = np.dtype(p._float)
        coeffs = np.zeros([len(seen) for seen in monos], dtype=self.dtype)
        for place, c in zip(places, p.terms.values()):
            coeffs[place] = p._float(c)
        table_rows = max(sum(map(len, monos)), 1)
        self.step = max(1, EVAL_BLOCK_BYTES // (table_rows * self.dtype.itemsize))
        self.width = p.width()
        base = 1 + self.width  # slot of workspace row 0; slot 1 + j is coordinate j
        slots = count(base)
        self.conjugates, self.ones, self.multiplies, values = [], [], [], []
        for side, seen in enumerate(monos):
            monomials = [tuple((j, e) for j, e in enumerate(mono) if e) for mono in seen]
            top = {}
            for j, e in chain.from_iterable(monomials):
                top[j] = max(top.get(j, 1), e)
            at = {}
            for j in sorted(top):
                at[j, 1] = next(slots) if side else 1 + j
                if side:
                    self.conjugates.append((1 + j, at[j, 1]))
                for e in range(2, top[j] + 1):
                    at[j, e] = next(slots)
                    self.multiplies.append((at[j, e - 1], at[j, 1], at[j, e]))
            column = []
            for factors in monomials:
                if not factors:
                    self.ones.append(next(slots))
                value = at[factors[0]] if factors else self.ones[-1]
                if len(factors) > 1:
                    row = next(slots)
                    for factor, target in zip(factors[1:], cycle(
                            (row, 0) if len(factors) % 2 == 0 else (0, row))):
                        self.multiplies.append((at[factor], value, target))
                        value = target
                column.append(value)
            values.append(column)
        # sum_b C_ab B_b over the last part's rows, times A_a over the first's if two
        self.coeffs, self.inner = coeffs.tolist(), values[-1]
        self.outer = self.term = None
        if len(values) > 1:
            self.outer, self.term = values[0], next(slots)
        self.scratch = next(slots)
        self.rows = self.scratch + 1 - base

    def workspace(self, points: int) -> np.ndarray:
        """A buffer for blocks of up to ``points`` points, reusable by any run of this plan."""
        return np.empty(self.rows * min(points, self.step), dtype=self.dtype)

    def run(self, cols, out: np.ndarray, work: np.ndarray) -> None:
        """Write the polynomial at the points whose coordinate j is cols[j] into out."""
        for start in range(0, len(out), self.step):
            size = min(self.step, len(out) - start)
            self._block([c[start:start + size] for c in cols[:self.width]],
                        out[start:start + size], work[:self.rows * size].reshape(self.rows, size))

    def _block(self, cols, out, work) -> None:
        slots = [out, *cols, *work]
        for src, dst in self.conjugates:
            np.conjugate(slots[src], out=slots[dst])
        for dst in self.ones:
            slots[dst].fill(1)
        for a, b, dst in self.multiplies:
            np.multiply(slots[a], slots[b], out=slots[dst])
        scratch = slots[self.scratch]

        def contract(total, coeffs):
            total.fill(0)
            for c, b in zip(coeffs, self.inner):
                total += np.multiply(c, slots[b], out=scratch)

        if self.outer is None:
            contract(out, self.coeffs)
            return
        term = slots[self.term]
        out.fill(0)
        for coeffs, a in zip(self.coeffs, self.outer):
            contract(term, coeffs)
            out += np.multiply(slots[a], term, out=scratch)


def _width(p: _Poly) -> int:
    # a RealPoly key is its one exponent tuple; a CxPoly key is a pair of them
    keys = p.terms if len(p._names) == 1 else chain.from_iterable(p.terms)
    return max(map(len, keys), default=0)


def _integer_form(p: _Poly) -> tuple:
    """(numerators, den): p's coefficients over one common denominator, memoized on p."""
    return p._memoized("integer", _integer_image)


def _ratio_form(coeffs: dict) -> tuple:
    """({key: numerator}, den): real coefficients (Fractions or floats) over their least
    common denominator, a power of two for floats."""
    ratios = [c.as_integer_ratio() for c in coeffs.values()]
    den = math.lcm(*(d for _, d in ratios))
    return dict(zip(coeffs, [a * (den // b) for a, b in ratios])), den


def _integer_image(p: _Poly) -> tuple:
    if not isinstance(p, CxPoly):
        return _ratio_form(p.terms)
    values = ((c.re, c.im) for c in p.terms.values()) if p.mode == EXACT else \
        ((c.real, c.imag) for c in p.terms.values())
    ratios = [(re.as_integer_ratio(), im.as_integer_ratio()) for re, im in values]
    den = math.lcm(*(d for parts in ratios for _, d in parts))
    nums = [(a * (den // b), c * (den // d)) for (a, b), (c, d) in ratios]
    return dict(zip(p.terms, nums)), den


def _real_numerator_product(nums: dict, other: dict, key_mul) -> dict:
    """The integer numerators of the product of two real integer forms, a zero sum dropped.

    Exact and float products alike; a float one is then rounded once
    (``_from_integer_form``), so its bits do not depend on the order of the sum.
    """
    terms = {}
    for k1, n1 in nums.items():
        for k2, n2 in other.items():
            key = key_mul(k1, k2)
            s = terms.get(key, 0) + n1 * n2
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return terms


def _gaussian_numerator_product(nums: dict, other: dict, key_mul) -> dict:
    """_real_numerator_product for (re, im) numerators: Gaussian-integer products."""
    terms = {}
    for k1, (a, b) in nums.items():
        for k2, (c, d) in other.items():
            key = key_mul(k1, k2)
            re, im = terms.get(key, (0, 0))
            re += a * c - b * d
            im += a * d + b * c
            if re or im:
                terms[key] = re, im
            else:
                terms.pop(key, None)
    return terms


def _float_image(p: _Poly) -> _Poly:
    return p._from_integer_form(*_integer_form(p), FLOAT)


def _nonzero(terms: dict) -> dict:
    # float results can underflow to zero
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
    _ratio = staticmethod(Fraction)
    _exact = staticmethod(Fraction)
    _rounded = staticmethod(truediv)
    _numerator_product = staticmethod(_real_numerator_product)
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
    _ratio = staticmethod(
        lambda num, den: GaussianRational._of(Fraction(num[0], den), Fraction(num[1], den))
    )
    _exact = staticmethod(lambda z: GaussianRational(z.real, z.imag))
    _rounded = staticmethod(lambda num, den: complex(num[0] / den, num[1] / den))
    _numerator_product = staticmethod(_gaussian_numerator_product)
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


# ---------------------------------------------------------------------------
# extension and distance


def holomorphic_extend(p: RealPoly) -> CxPoly:
    """Substitute x_j -> a_j; the result is holomorphic and restricts back to p."""
    if p.mode == EXACT:
        terms = {(a, ()): GaussianRational._of(c, _ZERO) for a, c in p.terms.items()}
    else:
        terms = {(a, ()): complex(c) for a, c in p.terms.items()}
    q = CxPoly._trusted(terms, p.mode)
    object.__setattr__(q, "_memo", {"parts": (p, None)})  # its real part is p
    return q


def coeff_distance(p, q):
    """Largest modulus of a coefficient difference, found in the two integer forms.

    An exact ``Fraction`` for exact operands: complexified ones when every gap
    is real, or else the exact largest squared modulus rounded once before its
    square root.  A float operand is read at its binary values and the exact
    distance rounded once to a float.
    """
    if type(p) is not type(q):
        raise TypeError("cannot compare polynomials of different families")
    d = _integer_distance(_integer_form(p), _integer_form(q), isinstance(p, RealPoly))
    return d if p.mode == q.mode == EXACT else float(d)


def _integer_distance(p_form: tuple, q_form: tuple, real: bool):
    """``coeff_distance`` of two polynomials from their integer forms, before any rounding."""
    (p_nums, p_den), (q_nums, q_den) = p_form, q_form
    keys = p_nums.keys() | q_nums.keys()
    den = p_den * q_den
    if real:
        gap = max((abs(p_nums.get(key, 0) * q_den - q_nums.get(key, 0) * p_den)
                   for key in keys), default=0)
        return Fraction(gap, den)
    gaps = []
    for key in keys:
        (a, b), (c, d) = p_nums.get(key, (0, 0)), q_nums.get(key, (0, 0))
        gaps.append((a * q_den - c * p_den, b * q_den - d * p_den))
    if not any(im for _, im in gaps):
        return Fraction(max((abs(re) for re, _ in gaps), default=0), den)
    return math.sqrt(Fraction(max(re * re + im * im for re, im in gaps), den * den))


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
    if not rows and p.mode == FLOAT:
        # [] reads back as exact, so a float zero writes one zero row
        rows.append({"a_exponents": [], "abar_exponents": [], "re": 0.0, "im": 0.0})
    return rows


def _json_number(value):
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or "1"))
    return float(value)


real_poly_from_json = RealPoly._from_json
cx_poly_from_json = CxPoly._from_json
