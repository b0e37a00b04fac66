"""Exponentials of graded operators on polynomial spaces.

Three exponential routes, in decreasing order of exactness:

* ``exp_nilpotent`` -- terminating power series for strictly degree-lowering
  operators, exact in rational mode with rational time.
* ``exp_graded``    -- exp(t*A) applied to one polynomial.  The sphere
  Laplacian, Hermite, plain Laplacian and Euler generators have the form
  A = lambda_m + c*Laplacian on degree m, so each monomial flows as
  exp(tA) x^alpha = sum_j f[lambda_m, ..., lambda_{m-2j}] c^j Lap^j x^alpha
  with f = exp(t*): the Laplacian chain is exact integer arithmetic and the
  divided-difference weights come from the exponential of one small
  bidiagonal matrix per degree.  The cost follows the polynomial's terms,
  not the size of the graded basis.
  Other generators are realized as matrices on the degree-graded basis and
  exponentiated by ``expm_graded``: a block Parlett recurrence whose only
  transcendentals are the scalar ``exp`` of the diagonal entries, falling
  back to scaling-and-squaring when two degree blocks carry eigenvalues
  closer than ``COLLISION_TOL``.
* ``dilation_exp``  -- closed-form dilation semigroup of the Euler operator.

Also here: the commutation-relation exponential identities ("[X,Y] = aY"
factorizations) as a checkable report, and the four-factor dilation/heat
product that merges into the limiting-measure exponential.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import diffops
from .diffops import DimensionError, OperatorMatrix, OperatorSpec, PolySpace
from .polyalg import FLOAT, CxPoly, RealPoly, mono_degree, trim

# 7 float64 copies of a dim x dim matrix (the input, scipy.linalg.expm's
# 5-slice work array and the result) fit in 1 GiB
DEFAULT_DIM_CAP = 4096
COLLISION_TOL = 1e-8

_dim_cap = DEFAULT_DIM_CAP


class DimensionCapError(ValueError):
    """Raised when a graded exponential would exceed the dense-dimension cap."""


class NonNilpotentError(ValueError):
    """Raised when exp_nilpotent is fed an operator that fails to lower degree."""


class CommutationError(ValueError):
    """Raised when the [X, Y] = alpha*Y hypothesis does not hold."""


def set_dimension_cap(cap: int) -> None:
    global _dim_cap
    _dim_cap = int(cap)


def dimension_cap() -> int:
    return _dim_cap


# ---------------------------------------------------------------------------
# terminating series


def exp_nilpotent(op, t, q):
    """Finite sum exp(t*op) q for a strictly degree-lowering operator.

    Exact when ``q`` is exact and ``t`` is rational; a float ``t`` promotes
    the result to float mode.
    """
    apply = op.apply if isinstance(op, OperatorSpec) else op
    if not isinstance(t, (int, Fraction)) and q.mode == "exact":
        q = q.to_float()
    exact_time = isinstance(t, (int, Fraction)) and q.mode == "exact"
    if not exact_time:
        t = float(t)
    out = q
    term = q
    n = 0
    while not term.is_zero():
        n += 1
        prev_degree = term.degree()
        term = apply(term)
        if term.is_zero():
            break
        if term.degree() >= prev_degree:
            raise NonNilpotentError(
                f"operator failed to lower degree (still {term.degree()})"
            )
        term = term.scale(Fraction(t, n) if exact_time else t / n)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# triangular matrix exponential


def _structure(m: np.ndarray, blocks):
    """Classify a graded matrix: (is_upper_block_triangular, diag_blocks_diagonal)."""
    n = m.shape[0]
    mask_lower = np.zeros((n, n), dtype=bool)
    mask_offdiag = np.zeros((n, n), dtype=bool)
    for bi, sl_i in enumerate(blocks):
        for bj, sl_j in enumerate(blocks):
            if bi > bj:
                mask_lower[sl_i, sl_j] = True
        inner = np.ones((sl_i.stop - sl_i.start,) * 2, dtype=bool)
        np.fill_diagonal(inner, False)
        mask_offdiag[sl_i, sl_i] = inner
    upper = not np.any(m[mask_lower])
    diagonal_blocks = not np.any(m[mask_offdiag])
    return upper, diagonal_blocks


def _nonzero_blocks(m: np.ndarray, blocks) -> dict:
    """Strictly-upper nonzero blocks of a graded matrix, keyed by block pair."""
    out = {}
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            blk = m[blocks[i], blocks[j]]
            if np.any(blk):
                out[(i, j)] = blk
    return out


def _expm_nilpotent(m: np.ndarray, blocks) -> np.ndarray:
    """Terminating series for a strictly block-upper-triangular matrix.

    Powers are carried block-sparse; degree-lowering operators only populate
    a thin band of superdiagonal blocks, so this avoids dense products.
    """
    out = np.eye(m.shape[0])
    mblocks = _nonzero_blocks(m, blocks)
    power = {key: blk.copy() for key, blk in mblocks.items()}
    for key, blk in power.items():
        out[blocks[key[0]], blocks[key[1]]] += blk
    order = 1
    while power:
        order += 1
        if order > len(blocks) + 1:
            raise NonNilpotentError("matrix power series did not terminate")
        step = {}
        for (i, k), left in power.items():
            for (k2, j), right in mblocks.items():
                if k2 != k:
                    continue
                acc = left.dot(right)
                if (i, j) in step:
                    step[(i, j)] += acc
                else:
                    step[(i, j)] = acc
        power = {}
        for key, blk in step.items():
            blk = blk / order
            if np.any(blk):
                power[key] = blk
                out[blocks[key[0]], blocks[key[1]]] += blk
    return out


def expm_graded(m: np.ndarray, blocks, collision_tol: float = COLLISION_TOL) -> np.ndarray:
    """exp(m) for a degree-graded matrix.

    Exact-diagonal block Parlett recurrence when degree blocks have separated
    spectra; scaling-and-squaring fallback otherwise.
    """
    m = np.asarray(m, dtype=float)
    blocks = [b for b in blocks if b.stop > b.start]
    if m.shape[0] == 0:
        return m.copy()
    upper, diag_ok = _structure(m, blocks)
    if not (upper and diag_ok):
        return scipy.linalg.expm(m)
    d = np.diag(m)
    if not np.any(d):
        return _expm_nilpotent(m, blocks)
    # cross-block spectral separation
    for i in range(len(blocks)):
        di = d[blocks[i]]
        for j in range(i + 1, len(blocks)):
            dj = d[blocks[j]]
            if np.min(np.abs(di[:, None] - dj[None, :])) < collision_tol:
                return scipy.linalg.expm(m)
    mblocks = _nonzero_blocks(m, blocks)
    f = np.zeros_like(m)
    fblocks = {}
    for idx, sl in enumerate(blocks):
        f[sl, sl] = np.diag(np.exp(d[sl]))
        fblocks[(idx, idx)] = f[sl, sl]
    nb = len(blocks)
    for sep in range(1, nb):
        for i in range(nb - sep):
            j = i + sep
            sl_i, sl_j = blocks[i], blocks[j]
            c = np.zeros((sl_i.stop - sl_i.start, sl_j.stop - sl_j.start))
            for k in range(i, j):
                if (k, j) in mblocks and (i, k) in fblocks:
                    c += fblocks[(i, k)].dot(mblocks[(k, j)])
            for k in range(i + 1, j + 1):
                if (i, k) in mblocks and (k, j) in fblocks:
                    c -= mblocks[(i, k)].dot(fblocks[(k, j)])
            if np.any(c):
                blk = c / (d[sl_i][:, None] - d[sl_j][None, :])
                f[sl_i, sl_j] = blk
                fblocks[(i, j)] = blk
    return f


def expm_operator(a: OperatorMatrix) -> OperatorMatrix:
    """Matrix exponential of a realized operator, block structure aware."""
    entries = a.entries.astype(float) if a.entries.dtype == object else a.entries
    return OperatorMatrix(a.space, expm_graded(entries, a.space.block_slices))


# ---------------------------------------------------------------------------
# realized semigroup elements, cached


@dataclass(frozen=True)
class SemigroupElement:
    base: OperatorSpec
    time: float
    realized: OperatorMatrix


_space_cache: dict = {}
_matrix_cache: dict = {}
_realize_cache: dict = {}
_flow_cache: dict = {}
_cache_lock = threading.Lock()


def graded_space(k: int, l: int, kind: str) -> PolySpace:
    key = (k, l, kind)
    with _cache_lock:
        space = _space_cache.get(key)
    if space is None:
        space = PolySpace(k, l, kind)
        with _cache_lock:
            space = _space_cache.setdefault(key, space)
    return space


def _check_cap(op: OperatorSpec, k: int, l: int, cap=None):
    # complexified bases pair an a-monomial with an abar-monomial: 2k variables
    cap = _dim_cap if cap is None else cap
    dim = math.comb((2 * k if op.is_complexified else k) + l, l)
    if dim > cap:
        raise DimensionCapError(
            f"dim of the degree-{l} basis in {k} variables is {dim}, above the cap {cap}"
        )


# above this dimension, matrices are assembled in float directly; the exact
# object-array route costs ~10x more and buys nothing once exp() is involved
_EXACT_BUILD_LIMIT = 600


def base_matrix(op: OperatorSpec, k: int, l: int) -> OperatorMatrix:
    """Float matrix of op on the graded (k, l) basis, cached."""
    key = (op, k, l)
    with _cache_lock:
        cached = _matrix_cache.get(key)
    if cached is None:
        space = graded_space(k, l, "complex" if op.is_complexified else "real")
        exact_build = space.dim <= _EXACT_BUILD_LIMIT
        built = diffops.to_matrix(op, k, l, exact=exact_build)
        entries = built.entries.astype(float) if exact_build else built.entries
        cached = OperatorMatrix(space, entries)
        with _cache_lock:
            cached = _matrix_cache.setdefault(key, cached)
    return cached


def realize(op: OperatorSpec, t: float, k: int, l: int, dim_cap=None) -> SemigroupElement:
    """exp(t * op) on the graded (k, l) basis, memoized on (op, k, l, t)."""
    key = (op, k, l, float(t))
    with _cache_lock:
        element = _realize_cache.get(key)
    if element is not None:
        return element
    _check_cap(op, k, l, dim_cap)
    base = base_matrix(op, k, l)
    exp_entries = expm_graded(base.entries * float(t), base.space.block_slices)
    element = SemigroupElement(op, float(t), OperatorMatrix(base.space, exp_entries))
    with _cache_lock:
        element = _realize_cache.setdefault(key, element)
    return element


# ---------------------------------------------------------------------------
# graded flows, one monomial at a time

# operator kind -> (lambda, c): on degree m the generator acts as the scalar
# lambda(op, m) plus c times the Laplacian
_GRADED_FLOWS = {
    "spherical_laplacian": (lambda op, m: -Fraction(m * m + (op.n - 2) * m) / op.b2, 1),
    "hermite": (lambda op, m: -m, 1),
    "laplacian": (lambda op, m: 0, 1),
    "euler": (lambda op, m: m, 0),
}


def _graded_flow(op: OperatorSpec):
    """(lambda, c) of a generator with scalar degree blocks, else None."""
    if op.variables != "x" or op.indices is not None:
        return None
    return _GRADED_FLOWS.get(op.kind)


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


def _exp_divided_differences(z, s: float) -> np.ndarray:
    """s^j exp[z_0, ..., z_j] for j = 0 .. len(z) - 1.

    The first row of exp(B) for the bidiagonal B with diagonal z and
    superdiagonal s (Opitz), which stays accurate as the nodes merge, where
    the divided-difference quotients cancel.  Scaling and squaring: a Taylor
    series on the centred B / 2^p, whose diagonal is at most 1/2 in size,
    then p squarings.  With the sign of s taken out every entry is positive,
    so the squarings do not cancel; the diagonal is reset to exact
    exponentials after each (Al-Mohy and Higham, SIMAX 31, 2009).
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
    # entry (i, j) needs about j - i + 20 terms when |diagonal| <= 1/2
    for k in range(1, len(z) + 40):
        term = term.dot(a) / k
        x = x + term
        if np.all(np.abs(term) <= 2.0 ** -53 * x):
            break
    for q in range(p):
        x = x.dot(x)
        np.fill_diagonal(x, np.exp(y * 2.0 ** (q + 1 - p)))
    row = x[0] * math.exp(mid)
    if s < 0:
        row[1::2] *= -1.0
    return row


@lru_cache(maxsize=None)
def _flow_weights(op: OperatorSpec, t: float, m: int) -> np.ndarray:
    """f[lambda_m, ..., lambda_{m-2j}] (c t)^j for j = 0 .. m // 2, f = exp(t*)."""
    lam, c = _graded_flow(op)
    depth = m // 2 + 1 if c else 1
    weights = _exp_divided_differences([t * float(lam(op, m - 2 * j)) for j in range(depth)], c * t)
    weights.flags.writeable = False  # shared by every caller through the cache
    return weights


def flow_monomial(op: OperatorSpec, t: float, alpha: tuple) -> dict:
    """exp(t*op) x^alpha as {exponents: float}, memoized on (op, t, alpha).

    ``op`` must have scalar degree blocks (see ``_GRADED_FLOWS``); the exact
    chain Lap^j x^alpha is weighted by ``_flow_weights``.  The returned map
    is the cached one: callers read it and never change it.
    """
    key = (op, t, alpha)
    with _cache_lock:
        flowed = _flow_cache.get(key)
    if flowed is None:
        chain = _laplacian_chain(alpha) if _graded_flow(op)[1] else ({alpha: 1},)
        weights = _flow_weights(op, t, mono_degree(alpha))
        flowed = {
            beta: w * v for w, level in zip(weights.tolist(), chain) for beta, v in level.items()
        }
        with _cache_lock:
            flowed = _flow_cache.setdefault(key, flowed)
    return flowed


def exp_graded(op: OperatorSpec, t, q, k: int | None = None, l: int | None = None,
               dim_cap=None):
    """Apply exp(t*op) to q; returns a float-mode poly.

    Generators with scalar degree blocks flow q term by term; any other
    operator is realized as a matrix on the graded (k, l) basis, subject to
    the dimension cap.
    """
    if l is not None and q.degree() > l:
        raise ValueError(f"degree {q.degree()} exceeds the requested grade {l}")
    if _graded_flow(op) is None:
        k = max(k or 0, q.width())
        element = realize(op, t, k, q.degree() if l is None else l, dim_cap)
        return element.realized.apply(q.to_float())
    if not isinstance(q, RealPoly):
        raise TypeError(f"{op.kind} flows act on real polynomials")
    if op.n is not None and q.width() >= op.n:
        raise DimensionError(
            f"polynomial in {q.width()} variables needs ambient dimension > {q.width()}, "
            f"got {op.n}"
        )
    t = float(t)
    out = {}
    for alpha, c in q.terms.items():
        c = float(c)
        for beta, v in flow_monomial(op, t, alpha).items():
            out[beta] = out.get(beta, 0.0) + c * v
    return RealPoly._trusted({beta: v for beta, v in out.items() if v}, FLOAT)


def dilation_exp(lam, q):
    """exp(lam * Euler) as the closed-form dilation by e^lam."""
    if isinstance(q, RealPoly):
        return q.dilate(math.exp(lam))
    if isinstance(q, CxPoly):
        scale = np.exp(complex(lam))
        if scale.imag == 0:
            scale = scale.real
        return q.dilate(scale)
    raise TypeError(f"cannot dilate {type(q).__name__}")


# ---------------------------------------------------------------------------
# commutation-relation exponential identities


def _as_float_entries(x) -> np.ndarray:
    if isinstance(x, OperatorMatrix):
        return x.entries.astype(float) if x.entries.dtype == object else np.asarray(x.entries, dtype=float)
    return np.asarray(x, dtype=float)


def _phi_product(alpha: float) -> float:
    # alpha / (1 - e^{-alpha}), continuous value 1 at alpha = 0
    return 1.0 if alpha == 0 else alpha / -math.expm1(-alpha)


def _phi_reversed(alpha: float) -> float:
    # alpha / (e^{alpha} - 1), continuous value 1 at alpha = 0
    return 1.0 if alpha == 0 else alpha / math.expm1(alpha)


def _phi_merge(alpha: float) -> float:
    # (1 - e^{-alpha}) / alpha, continuous value 1 at alpha = 0
    return 1.0 if alpha == 0 else -math.expm1(-alpha) / alpha


@dataclass(frozen=True)
class BCHReport:
    """Deviations of the three single-commutator exponential identities."""

    alpha: float
    commutator_residual: float
    product_deviation: float
    reversed_deviation: float
    merge_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.product_deviation, self.reversed_deviation, self.merge_deviation)

    def ok(self, tol: float) -> bool:
        return self.max_deviation <= tol


def bch_check(x, y, alpha: float, hypothesis_tol: float = 1e-12) -> BCHReport:
    """Verify the exponential identities that follow from [X, Y] = alpha*Y.

        e^X e^Y   = e^{X + (alpha/(1-e^{-alpha})) Y}
        e^Y e^X   = e^{X + (alpha/(e^{alpha}-1)) Y}
        e^{X+Y}   = e^X e^{((1-e^{-alpha})/alpha) Y}

    The third is the splitting that turns a combined flow into a dilation
    followed by a plain heat flow.  Raises :class:`CommutationError` if the
    commutation hypothesis fails.
    """
    blocks = None
    if isinstance(x, OperatorMatrix):
        blocks = x.space.block_slices
    elif isinstance(y, OperatorMatrix):
        blocks = y.space.block_slices
    xm = _as_float_entries(x)
    ym = _as_float_entries(y)
    if blocks is None:
        blocks = [slice(0, xm.shape[0])]
    comm = xm.dot(ym) - ym.dot(xm)
    scale = max(1.0, np.max(np.abs(ym)))
    residual = float(np.max(np.abs(comm - alpha * ym)))
    if residual > hypothesis_tol * scale:
        raise CommutationError(
            f"[X, Y] differs from alpha*Y by {residual:.3e} (alpha={alpha})"
        )

    def ex(mat):
        return expm_graded(mat, blocks)

    dev_product = float(np.max(np.abs(ex(xm).dot(ex(ym)) - ex(xm + _phi_product(alpha) * ym))))
    dev_reversed = float(np.max(np.abs(ex(ym).dot(ex(xm)) - ex(xm + _phi_reversed(alpha) * ym))))
    dev_merge = float(np.max(np.abs(ex(xm + ym) - ex(xm).dot(ex(_phi_merge(alpha) * ym)))))
    return BCHReport(float(alpha), residual, dev_product, dev_reversed, dev_merge)


# ---------------------------------------------------------------------------
# the limiting-measure factorization


@dataclass(frozen=True)
class FactorizationReport:
    """Both sides of e^{Lap_u/2} e^{T G} as four-factor dilation/heat products."""

    k: int
    l: int
    time: float
    lhs: OperatorMatrix
    rhs: OperatorMatrix

    @property
    def max_deviation(self) -> float:
        return float(np.max(np.abs(self.lhs.entries - self.rhs.entries)))


def factor_quadric_limit(k: int, l: int, t: float) -> FactorizationReport:
    """Check e^{(1/2)Lap_u} e^{t G_k} against

        e^{(t/2) u du} e^{((e^t+1)/4) Lap_u} e^{(t/2) v dv} e^{((e^t-1)/4) Lap_v}

    on polynomials in (u_1..u_k, v_1..v_k) of degree at most l.
    """
    u = tuple(range(k))
    v = tuple(range(k, 2 * k))
    lap_u = base_matrix(diffops.laplacian_op(indices=u), 2 * k, l)
    lap_v = base_matrix(diffops.laplacian_op(indices=v), 2 * k, l)
    eul_u = base_matrix(diffops.euler_op(indices=u), 2 * k, l)
    eul_v = base_matrix(diffops.euler_op(indices=v), 2 * k, l)
    g = base_matrix(diffops.g_uv_op(k), 2 * k, l)
    space = g.space
    blocks = space.block_slices

    def ex(mat, coeff):
        return expm_graded(coeff * mat.entries, blocks)

    lhs = ex(lap_u, 0.5).dot(ex(g, t))
    et = math.exp(t)
    rhs = (
        ex(eul_u, t / 2.0)
        .dot(ex(lap_u, (et + 1.0) / 4.0))
        .dot(ex(eul_v, t / 2.0))
        .dot(ex(lap_v, (et - 1.0) / 4.0))
    )
    return FactorizationReport(
        k, l, float(t), OperatorMatrix(space, lhs), OperatorMatrix(space, rhs)
    )
