"""Shared oracles for the test suite.

The sympy bridge supplies an independent symbolic-differentiation route: the
package never imports sympy, so any agreement between the two is a real
cross-check, not a tautology.  The mpmath quadric reference likewise flows
in its own parametrization and precision, apart from the package's route.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import cycle, zip_longest

import mpmath
import numpy as np
import sympy

from sbtlab import diffops, polyalg, semigroup
from sbtlab.polyalg import FLOAT, CxPoly, GaussianRational, RealPoly, mono_degree, trim


def sympy_symbols(k: int):
    return sympy.symbols(f"x1:{k + 1}")


def _monomial(syms, alpha):
    return sympy.Mul(*(x ** e for x, e in zip(syms, alpha)))


def to_sympy(p: RealPoly, syms):
    expr = sympy.Integer(0)
    for alpha, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) \
            else sympy.Float(c)
        expr += term * _monomial(syms, alpha)
    return expr


def to_sympy_cx(q: CxPoly, a_syms, abar_syms):
    """An exact complexified polynomial, with a_j and abar_j as independent symbols."""
    expr = sympy.Integer(0)
    for (a, b), c in q.terms.items():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        expr += coeff * _monomial(a_syms, a) * _monomial(abar_syms, b)
    return expr


def from_sympy(expr, syms) -> RealPoly:
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for exps, coeff in poly.terms():
        coeff = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(coeff.p), int(coeff.q))
    return RealPoly(terms)


def sympy_hermite(p: RealPoly) -> RealPoly:
    """laplacian - euler by direct symbolic differentiation."""
    k = max(p.width(), 1)
    syms = sympy_symbols(k)
    expr = to_sympy(p, syms)
    out = sum(sympy.diff(expr, x, 2) - x * sympy.diff(expr, x) for x in syms)
    return from_sympy(out, syms)


def sympy_sphere_laplacian(p: RealPoly, n: int) -> RealPoly:
    """Angular-momentum route to the Laplacian on the sphere of radius sqrt(n) in R^n.

    Sums the squared rotation generators over all coordinate planes of the
    ambient space; generators involving an unused coordinate x_l (l > k)
    collapse to -x_j d_j + x_l^2 d_j^2, and the sphere constraint replaces
    sum_{l>k} x_l^2 by n - sum_{j<=k} x_j^2.  Completely independent of the
    polar-coordinate closed form used by the package.
    """
    k = max(p.width(), 1)
    assert k < n
    syms = sympy_symbols(k)
    expr = to_sympy(p, syms)
    total = sympy.Integer(0)
    for i in range(k):
        for j in range(i + 1, k):
            gen = lambda f: syms[i] * sympy.diff(f, syms[j]) - syms[j] * sympy.diff(f, syms[i])
            total += gen(gen(expr))
    tail = n - sum(x ** 2 for x in syms)
    for j in range(k):
        total += (n - k) * (-syms[j] * sympy.diff(expr, syms[j]))
        total += tail * sympy.diff(expr, syms[j], 2)
    return from_sympy(sympy.expand(total / n), syms)


def graded_matrices(gen, t, k: int, l: int):
    """(keys, flow, dense): exp(t*gen) and gen as float matrices on the graded (k, l) basis.

    Column j of ``flow`` is ``monomial_flows``'s flow of basis monomial
    ``keys[j]`` under t*gen, and column j of ``dense`` is ``gen.apply`` of it,
    so scipy's expm of t*dense is an independent reference for ``flow``.
    """
    keys = diffops.basis_keys(k, l, gen.family is CxPoly)
    index = {key: i for i, key in enumerate(keys)}
    flow = np.zeros((len(keys), len(keys)))
    dense = np.zeros((len(keys), len(keys)))
    for j, key in enumerate(keys):
        for beta, v in semigroup.monomial_flows(t * gen, 1.0)(key).items():
            flow[index[beta], j] = v
        for beta, c in gen.apply(gen.family({key: 1.0}, FLOAT)).terms.items():
            assert complex(c).imag == 0
            dense[index[beta], j] = complex(c).real
    return keys, flow, dense


def _lowered_chain(alpha: tuple) -> list:
    """Lap^j x^alpha for j = 0, 1, ... while nonzero, as {exponents: int} maps."""
    chain = [{alpha: 1}]
    while True:
        lowered = {}
        for beta, c in chain[-1].items():
            for i, e in enumerate(beta):
                if e >= 2:
                    gamma = beta[:i] + (e - 2,) + beta[i + 1:]
                    lowered[gamma] = lowered.get(gamma, 0) + c * e * (e - 1)
        if not lowered:
            return chain
        chain.append(lowered)


def _mp_group_flow(group, t, alpha: tuple) -> dict:
    """exp(t (lambda + c Lap)) x^alpha in mpmath, the divided differences summed directly.

    exp[z_0, ..., z_j] = sum_i e^{z_i} / prod_{k != i} (z_i - z_k) needs
    distinct nodes z = t lambda(m), t lambda(m - 2), ...; the working
    precision absorbs the cancellation of that sum.
    """
    m = sum(alpha)
    nodes = [t * (group.a2 * d * d + group.a1 * d) for d in range(m, -1, -2)]
    ct = t * group.c
    out = {}
    for j, level in enumerate(_lowered_chain(alpha)):
        z = nodes[:j + 1]
        weight = sum(mpmath.exp(zi) / mpmath.fprod(zi - zk for k, zk in enumerate(z) if k != i)
                     for i, zi in enumerate(z)) * ct ** j
        for beta, v in level.items():
            out[beta] = out.get(beta, 0) + weight * v
    return out


def _sphere_monomial_moment(gamma: tuple, n: int) -> Fraction:
    """Moment of x^gamma over the sphere of radius sqrt(n) in R^n, from its pairings."""
    if any(e % 2 for e in gamma):
        return Fraction(0)
    m = sum(gamma) // 2
    value = Fraction(n ** m, math.prod(n + 2 * i for i in range(m)))
    return value * math.prod(math.prod(range(e - 1, 0, -2)) for e in gamma)


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def linear_flow_weights_reference(a1, c, t, m: int) -> list:
    """exp[z_0, ..., z_j] (c t)^j for j = 0 .. m // 2 (j = 0 alone at c = 0), at 60 digits.

    The weights of a group with a2 = 0, whose nodes z_j = t a1 (m - 2j) are
    equally spaced with step h = -2 a1 t: the j-th forward difference of exp
    is e^{z_0} (e^h - 1)^j, so exp[z_0, ..., z_j] = e^{z_0} (e^h - 1)^j / (j! h^j),
    1 / j! at h = 0.  a1, c and t are read at their exact binary or rational
    values; the package's float nodes are not used.
    """
    with mpmath.workdps(60):
        a1, c, t = _mp(a1), _mp(c), _mp(t)
        h = -2 * a1 * t
        ratio = c * t * (mpmath.expm1(h) / h if h else 1)
        weights = [mpmath.exp(t * a1 * m)]
        for j in range(1, m // 2 + 1 if c else 1):
            weights.append(weights[-1] * ratio / j)
        return weights


def quadric_moment_reference(q: CxPoly, n: int, T) -> complex:
    """The moment of q under the quadric measure at (n, T), from a 60-digit evaluation.

    Each side of every term flows through its group of ``gamma_n_op(n)`` at
    time T/n, in that operator's own parametrization (not the backward
    sphere flow the package reads), and the restriction a = abar = x of the
    flowed term is integrated over the sphere exactly, monomial by monomial.
    """
    with mpmath.workdps(60):
        t = _mp(Fraction(T)) / n
        groups = {g.side: g._replace(a2=_mp(g.a2), a1=_mp(g.a1), c=_mp(g.c))
                  for g in diffops.gamma_n_op(n).groups}
        total = mpmath.mpc(0)
        for (alpha, beta), c in q.terms.items():
            c = mpmath.mpc(_mp(c.re), _mp(c.im)) if isinstance(c, GaussianRational) \
                else mpmath.mpc(complex(c))
            width = max(len(alpha), len(beta))
            left = _mp_group_flow(groups["a"], t, alpha + (0,) * (width - len(alpha)))
            right = _mp_group_flow(groups["abar"], t, beta + (0,) * (width - len(beta)))
            for a, u in left.items():
                for b, v in right.items():
                    mono = _sphere_monomial_moment(tuple(map(sum, zip(a, b))), n)
                    if mono:
                        total += c * u * v * _mp(mono)
        return complex(total)


def _pair_moment(j: int, l: int, c2: Fraction, g2: Fraction) -> Fraction:
    """E[a^j abar^l] of one coordinate, summed over the pairings of j a's and l abar's.

    A pairing with m cross pairs weighs g2^m c2^((j + l - 2m) / 2): the
    leftovers pair within their own side.
    """
    total = Fraction(0)
    for m in range(min(j, l), -1, -1):
        if (j - m) % 2 == 0 and (l - m) % 2 == 0:
            ways = (math.comb(j, m) * math.comb(l, m) * math.factorial(m)
                    * math.prod(range(j - m - 1, 0, -2)) * math.prod(range(l - m - 1, 0, -2)))
            total += ways * g2 ** m * c2 ** ((j + l - 2 * m) // 2)
    return total


def complex_gaussian_moment_reference(q: CxPoly, c2, g2) -> GaussianRational:
    """The moment of q under the complex Gaussian with E[a^2] = c2 and E[a abar] = g2, exactly.

    Each monomial's moment is a product of per-coordinate pairing counts
    (``_pair_moment``), not a flow, and the real and imaginary parts are two
    Fraction sums.  A float coefficient or parameter is read at its binary
    value.
    """
    c2, g2 = Fraction(c2), Fraction(g2)
    moments: dict = {}
    re = im = Fraction(0)
    for (alpha, beta), c in q.terms.items():
        factor = Fraction(1)
        for j, l in zip_longest(alpha, beta, fillvalue=0):
            if (j, l) not in moments:
                moments[j, l] = _pair_moment(j, l, c2, g2)
            factor *= moments[j, l]
        if factor:
            if not isinstance(c, GaussianRational):
                c = GaussianRational(complex(c).real, complex(c).imag)
            re += c.re * factor
            im += c.im * factor
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# term-by-term Fraction references for the integer-form routes


def fraction_product(p, q) -> dict:
    """The terms of p * q, one coefficient product and one sum at a time.

    A key whose running sum cancels is popped and, if reached again,
    re-inserted at the end, so the term order is part of the reference.
    """
    terms = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            key = p._key_mul(k1, k2)
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return terms


def fraction_apply(gen, p):
    """gen's action on p, one Fraction term at a time, through the validating constructor."""
    terms = {}
    for key, coeff in p.terms.items():
        for g in gen.groups:
            sub = g.exponents(key)
            m = mono_degree(sub)
            terms[key] = terms.get(key, 0) + coeff * (g.a2 * m * m + g.a1 * m)
            chain = _lowered_chain(sub) if g.c else ()
            for beta, v in chain[1].items() if len(chain) > 1 else ():
                lowered = g.substitute(key, trim(beta))
                terms[lowered] = terms.get(lowered, 0) + coeff * g.c * v
    return type(p)(terms, p.mode)


def fraction_squared_distance(p, q) -> Fraction:
    """The largest squared modulus of a coefficient difference of two exact polynomials."""
    best = Fraction(0)
    for key in set(p.terms) | set(q.terms):
        d = p.terms.get(key, 0) - q.terms.get(key, 0)
        d = d if isinstance(d, GaussianRational) else GaussianRational(d)
        best = max(best, d.re * d.re + d.im * d.im)
    return best


def quadric_norm2_reference(f: CxPoly, n: int, T) -> float:
    """The quadric squared norm of holomorphic f, its sphere sums taken pair by pair as Fractions.

    Re y and Im y of the backward flow y = sum f_alpha F x^alpha are read
    from ``monomial_flows`` with the float operations of the package, in f's
    term order; each part's sphere norm sums u v <x^a x^b> over every
    ordered pair of its terms as exact Fractions, with the sphere moments
    of ``_sphere_monomial_moment``, and the two exact norms are added and
    rounded once.
    """
    gen = diffops.spherical_laplacian_op(n)
    parts = ({}, {})
    for (alpha, _), c in f.terms.items():
        c = complex(c)
        for part, x in zip(parts, (c.real, c.imag)):
            if x:
                for gamma, w in semigroup.monomial_flows(gen, -float(T) / 2.0)(alpha).items():
                    part[gamma] = part.get(gamma, 0.0) + x * w
    return float(sum((Fraction(u) * Fraction(v) * _sphere_monomial_moment(
        tuple(i + j for i, j in zip_longest(a, b, fillvalue=0)), n)
        for part in parts for a, u in part.items() for b, v in part.items()), Fraction(0)))


def complex_moment_reference(spec, q: CxPoly) -> complex:
    """The float moment of q under a quadric, xi or gamma spec, its forms summed as Fractions.

    Every abar-group's y_beta = sum_alpha c F x^alpha and its F x^beta are
    read from ``monomial_flows`` with the float operations of the package, at
    its flow times and in q's term order.  The forms <y_beta, F x^beta> of
    every group are added pair by pair as exact Fractions, with the sphere
    moments of ``_sphere_monomial_moment`` (quadric) or the diagonal Hermite
    weights gamma! g2^|gamma| (xi and gamma), and each part is rounded once.
    """
    if spec.family == "quadric":
        gen, t = diffops.spherical_laplacian_op(spec.n), -float(spec.T) / 2.0

        def weight(a, b):
            return _sphere_monomial_moment(
                tuple(i + j for i, j in zip_longest(a, b, fillvalue=0)), spec.n)
    else:
        c2, g2 = spec.covariances()
        gen, t = diffops.LAPLACIAN, float(c2) / 2.0

        def weight(a, b):
            return Fraction(g2) ** sum(a) * math.prod(map(math.factorial, a)) if a == b else 0
    groups: dict = {}  # beta -> (Re y_beta, Im y_beta)
    for (alpha, beta), c in q.terms.items():
        c = complex(c)
        for part, x in zip(groups.setdefault(beta, ({}, {})), (c.real, c.imag)):
            if x:
                for gamma, w in semigroup.monomial_flows(gen, t)(alpha).items():
                    part[gamma] = part.get(gamma, 0.0) + x * w
    sums = [Fraction(0), Fraction(0)]
    for beta, parts in groups.items():
        x_beta = semigroup.monomial_flows(gen, t)(beta)
        for i, part in enumerate(parts):
            sums[i] += sum((Fraction(u) * Fraction(v) * weight(a, b) for a, u in part.items()
                            for b, v in x_beta.items()), Fraction(0))
    return complex(*map(float, sums))


def fraction_isserlis(p: RealPoly, t: Fraction) -> Fraction:
    """Gaussian moment of exact p at rational t, summed over pair partitions term by term."""
    total = Fraction(0)
    for alpha, c in p.terms.items():
        labels = tuple(j for j, e in enumerate(alpha) for _ in range(e))
        total += c * _matchings(labels) * Fraction(t) ** (len(labels) // 2)
    return total


def _matchings(labels: tuple) -> int:
    if len(labels) % 2:
        return 0
    if not labels:
        return 1
    first, rest = labels[0], labels[1:]
    return sum(_matchings(rest[:i] + rest[i + 1:]) for i, x in enumerate(rest) if x == first)


def exp_divided_differences_frozen(z, s: float) -> np.ndarray:
    """``semigroup._exp_divided_differences`` as it stood when the weights' bits were pinned.

    Kept verbatim, so tests can hold the faster routine to these bits: a
    stopping test after every Taylor term, and the shift, scale and
    bidiagonal built with numpy.
    """
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(z)) and math.isfinite(s)):
        raise ValueError("graded flows need a finite time")
    mid = (z.max() + z.min()) / 2.0
    y = z - mid
    radius = float(np.max(np.abs(y)))
    p = math.ceil(math.log2(2.0 * radius)) if radius > 0.5 else 0
    scale = 2.0 ** -p
    a = np.diag(y * scale) + np.diag(np.full(len(z) - 1, abs(s) * scale), 1)
    x = term = np.eye(len(z))
    try:
        with np.errstate(over="raise"):
            for k in range(1, len(z) + 40):
                term = term.dot(a) / k
                x = x + term
                if (np.abs(term) <= 2.0 ** -53 * x).all():
                    break
            for q in range(p):
                x = x.dot(x)
                np.fill_diagonal(x, np.exp(y * 2.0 ** (q + 1 - p)))
            row = x[0] * math.exp(mid)
    except FloatingPointError:
        raise OverflowError("graded-flow weights overflow a float") from None
    if s < 0:
        row[1::2] *= -1.0
    return row


def flow_weights_frozen(a2, a1, c, t, m: int) -> tuple:
    """``semigroup._flow_weights`` as it stood when the weights' bits were pinned.

    Its nodes are t * float(a2 d^2 + a1 d), a Fraction rounded by float()
    when a2 and a1 are rational; the rest of the flow goes to
    ``exp_divided_differences_frozen``.
    """
    def rational(*values):
        return all(isinstance(v, (int, Fraction)) for v in values)

    depth = m // 2 + 1 if c else 1
    if not a2 and not a1:
        if rational(c, t):
            ct = Fraction(c) * t
        else:
            t = float(t)
            ct = c * t
            if not (math.isfinite(t) and math.isfinite(ct)):
                raise ValueError("graded flows need a finite time")
        weights = [ct ** 0]
        for j in range(1, depth):
            weights.append(weights[-1] * ct / j)
        if isinstance(ct, float) and math.isinf(weights[-1]):
            raise OverflowError("graded-flow weights overflow a float")
        return tuple(weights)
    t = float(t)
    z = [t * float(a2 * d * d + a1 * d) for d in range(m, m - 2 * depth, -2)]
    if depth == 1 and math.isfinite(z[0]) and math.isfinite(c * t):
        return (math.exp(z[0]),)
    return tuple(exp_divided_differences_frozen(z, c * t).tolist())


class eval_plan_frozen:
    """``polyalg._EvalPlan`` as it stood before its one row rule, kept verbatim.

    Tests hold the plan to these bits.  How ``eval_array`` evaluated one
    polynomial: built once, run on any points.

    Each distinct monomial of each part has a row of a (monomials x points)
    table.  The value is sum_i c_i X_i for one part and
    sum_a A_a * (sum_b C_ab B_b) for two, so |p|^2 of a 10-term p costs 20
    rows, not 100 terms.  A second part reads the conjugate point.  A
    two-part plan reads a first power from its coordinate (or conjugate)
    row and gives it no table row; the block size still counts one per
    monomial, so the blocks are those of a table row for each.

    Power e of a coordinate is power e - 1 times the coordinate, one multiply
    each, so it carries e - 1 roundings: numpy sends ``column ** e`` for
    e >= 3 to libm ``pow``, some fifty times slower.  A power that is itself
    a monomial of the table is computed in its table row; the others take
    rows of their own.

    A point's value does not depend on the block it is evaluated in: every
    sum runs in index order, one rounded product added at a time, and the
    plan keeps to whole-row operations (a broadcast one can buffer a copy of
    its operands).  No complex product is written over one of its operands:
    on a one-point block numpy takes that for a reduction, whose complex
    loop rounds differently; a real product rounds alike on every path, so
    a real table row takes its own c_i X_i.

    The steps are fixed here, on slots: the output row (free until the sum,
    so it holds partial products), the coordinates, then ``rows`` rows of a
    workspace the caller owns (``workspace``), so a caller can reuse one for
    every call; the plan holds no buffer.  Points go in blocks of ``step``,
    whose tables take about EVAL_BLOCK_BYTES.
    """

    def __init__(self, p):
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
        self.step = max(1, polyalg.EVAL_BLOCK_BYTES // (table_rows * self.dtype.itemsize))
        self.width = p.width()
        base = 1 + self.width  # slot of workspace row 0; slot 1 + j is coordinate j
        rows = 0
        self.conjugates, self.ones, self.multiplies, tables, values = [], [], [], [], []
        for side, seen in enumerate(monos):
            monomials = [tuple((j, e) for j, e in enumerate(mono) if e) for mono in seen]
            table = []
            for factors in monomials:
                if len(monos) > 1 and len(factors) == 1 and factors[0][1] == 1:
                    # read from its coordinate row; only a one-part plan writes
                    # c_i X_i into the row of a first power
                    table.append(None)
                else:
                    table.append(base + rows)
                    rows += 1
            top, at = {}, {}
            for factors in monomials:
                for j, e in factors:
                    top[j] = max(top.get(j, 1), e)
            for j in sorted(top):
                at[j, 1] = 1 + j
                if side:
                    # a second part reads conjugated coordinates, kept in rows of their own
                    at[j, 1] = base + rows
                    self.conjugates.append((1 + j, base + rows))
                    rows += 1
            for slot, factors in zip(table, monomials):
                if len(factors) == 1 and factors[0][1] > 1:
                    at[factors[0]] = slot
            for j in sorted(top):
                for e in range(2, top[j] + 1):
                    if (j, e) not in at:
                        at[j, e] = base + rows
                        rows += 1
                    self.multiplies.append((at[j, e - 1], at[j, 1], at[j, e]))
            for slot, factors in zip(table, monomials):
                if not factors:
                    self.ones.append(slot)
                elif len(factors) > 1:
                    # partial products alternate between the output slot and the
                    # table row, ending in the row
                    value = at[factors[0]]
                    for factor, target in zip(factors[1:], cycle(
                            (slot, 0) if len(factors) % 2 == 0 else (0, slot))):
                        self.multiplies.append((at[factor], value, target))
                        value = target
            tables.append(table)
            values.append([at[f[0]] if len(f) == 1 else slot for slot, f in zip(table, monomials)])
        self.terms = self.pairs = None
        if len(monos) == 1:
            # (c_i, slot of X_i, table row that takes c_i X_i)
            self.terms = list(zip(coeffs.tolist(), values[0], tables[0]))
        else:
            self.pairs = list(zip(coeffs.tolist(), values[0]))
            self.second = values[1]
            self.term = base + rows  # and the scratch row after it
            rows += 2
        self.rows = rows

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
        out.fill(0)
        if self.pairs is None:
            for c, src, dst in self.terms:
                out += np.multiply(c, slots[src], out=slots[dst])
            return
        term, scratch = slots[self.term], slots[self.term + 1]
        for coeffs, a in self.pairs:
            term.fill(0)
            for c, b in zip(coeffs, self.second):
                term += np.multiply(c, slots[b], out=scratch)
            out += np.multiply(slots[a], term, out=scratch)


def seeded_rng(seed: int = 1234) -> random.Random:
    return random.Random(seed)
