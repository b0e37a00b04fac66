"""The three workloads: seeded inputs, timed calls into sbtlab, and checks.

``build(workload, seed, round_index, size)`` returns the operations of one
round.  Each ``Op`` holds the call that is timed (it calls sbtlab's public
functions and nothing else) and a check that runs after it, untimed, and
returns a list of failure messages.  Inputs depend only on (workload, seed,
round index, size); the checks compare against ``reference`` or against a
property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from sbtlab import cli, limits, measures, oracle, transforms
from sbtlab.polyalg import RealPoly, holomorphic_extend

import reference as ref

UNITARITY_TOL = 1e-9      # README criterion 1
TWO_ROUTE_TOL = 1e-12     # limit_sbt against the dilated flat transform
MOMENT_TOL = 1e-12        # float moments against exact closed forms
QUAD_TOL = 1e-10          # gamma moments against Gauss-Hermite quadrature
MC_SIGMAS = 5.0           # Monte Carlo estimate within this many standard errors

SUITE_MONOMIALS = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
                   (4,), (2, 2), (5,), (3, 2), (6,), (2, 2, 2))
SUITE_NS = (5, 10, 25, 50)
SUITE_TS = (0.1, 0.5, 1.0, 2.0)
SUITE_RANDOM = 20
SUITE_PASSES = {"full": 4, "smoke": 1}

# (k, l, n): the exact sphere moments behind the quadric kernel cost more as
# n grows, so n is fixed per shape and only T and the coefficients are seeded
SCALE_SHAPES = ((3, 6, 7), (3, 8, 11), (4, 6, 13), (4, 8, 9), (5, 6, 17), (5, 8, 12))
# the dense (8, 10) basis has 43 758 monomials; its check fails today
# (see CHANGES.md), on this fixed input, whatever the seed
SCALE_FAULT_POLY = {(10,): Fraction(1), (0, 0, 0, 0, 0, 0, 0, 1): Fraction(1)}
SCALE_FAULT_N, SCALE_FAULT_T = 20, 1.0

FLAT_GROUPS = {"full": 24, "smoke": 3}
FLAT_DEGREES = (8, 8, 7, 6, 5, 4, 3, 2, 2, 1)
FLAT_MC_SAMPLES = 100_000


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(workload: str, seed: int, round_index: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}:{part}")


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def suite_poly(rng: random.Random, k: int = 3, degree: int = 6, terms: int = 5) -> dict:
    """Acceptance-suite style: five terms of random degree 1..degree."""
    out: dict = {}
    for _ in range(terms):
        exps = [0] * k
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(k)] += 1
        key = _trim(exps)
        out[key] = out.get(key, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    out = {a: c for a, c in out.items() if c}
    return out or {(1,): Fraction(1)}


def shaped_poly(rng: random.Random, k: int, degree: int, terms: int = 6) -> dict:
    """Width exactly k and degree exactly ``degree`` (k, degree >= 2 for terms <= 6)."""
    lead = [0] * k
    lead[k - 1] = 1
    for _ in range(degree - 1):
        lead[rng.randrange(k)] += 1
    out = {_trim(lead): _coeff(rng)}
    while len(out) < terms:
        exps = [0] * k
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(k)] += 1
        out.setdefault(_trim(exps), _coeff(rng))
    return out


def flat_poly(rng: random.Random, k: int) -> dict:
    """Ten distinct monomials with the fixed degree profile FLAT_DEGREES."""
    out: dict = {}
    for degree in FLAT_DEGREES:
        while True:
            exps = [0] * k
            for _ in range(degree):
                exps[rng.randrange(k)] += 1
            key = _trim(exps)
            if key not in out:
                out[key] = _coeff(rng)
                break
    return out


def _trim(exps) -> tuple:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def poly_text(terms: dict) -> str:
    """CLI syntax for a rational polynomial, e.g. ``-3/2*x1^2*x3 + 1/1*x2``."""
    parts = []
    for alpha, c in sorted(terms.items()):
        body = f"{abs(c.numerator)}/{c.denominator}" + "".join(
            f"*x{j + 1}^{e}" for j, e in enumerate(alpha) if e
        )
        sign = "-" if c < 0 else "+"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# checks


class _Refs:
    """Exact reference norms of one input, computed on first use."""

    def __init__(self, terms: dict):
        self.terms = terms
        self._sq = None
        self._cache: dict = {}

    def square(self) -> dict:
        if self._sq is None:
            self._sq = ref.square(self.terms)
        return self._sq

    def gauss_norm2(self, t=1) -> Fraction:
        key = ("gauss", Fraction(t))
        if key not in self._cache:
            self._cache[key] = ref.gaussian_moment(self.square(), t)
        return self._cache[key]

    def sphere_norm2(self, n: int) -> Fraction:
        key = ("sphere", n)
        if key not in self._cache:
            self._cache[key] = ref.sphere_moment(self.square(), n)
        return self._cache[key]


def _unitarity(label: str, res, domain_ref) -> list:
    errors = []
    gap = ref.norm_gap(res.domain_norm2, res.range_norm2)
    if not gap <= UNITARITY_TOL:
        errors.append(f"{label}: unitarity gap {gap:.3e} above {UNITARITY_TOL:g}")
    dgap = ref.rel_gap(res.domain_norm2, domain_ref)
    if not dgap <= MOMENT_TOL:
        errors.append(f"{label}: domain norm {res.domain_norm2!r} vs exact "
                      f"{float(domain_ref)!r} (gap {dgap:.3e})")
    return errors


def _sphere_op(label, p, refs, n, T) -> Op:
    return Op(label, lambda: transforms.unitarity_report(p, transforms.Sphere(n, T)),
              lambda res: _unitarity(label, res, refs.sphere_norm2(n)))


def _limit_op(label, p, refs, T, outputs=None) -> Op:
    def check(res):
        if outputs is not None:
            outputs[label] = res.output
        return _unitarity(label, res, refs.gauss_norm2(1))

    return Op(label, lambda: transforms.unitarity_report(p, transforms.Limit(T)), check)


def _euclidean_two_route_op(label, p, refs, T, limit_label, outputs) -> Op:
    t = 1.0 - math.exp(-T)

    def check(res):
        errors = _unitarity(label, res, refs.gauss_norm2(1))
        limit_out = outputs.pop(limit_label, None)
        if limit_out is not None:
            flat = ref.dilate_holomorphic(res.output.terms, math.exp(-T / 2.0))
            gap = ref.scaled_coeff_gap(limit_out.terms, flat)
            if not gap <= TWO_ROUTE_TOL:
                errors.append(f"{label}: limit_sbt vs dilated flat transform gap {gap:.3e}")
        return errors

    return Op(label, lambda: transforms.unitarity_report(p, transforms.Euclidean(1.0, t)),
              check)


# ---------------------------------------------------------------------------
# suite-unitarity: warm passes over freshly seeded acceptance suites


def _suite(seed: int, round_index: int, size: str) -> list:
    ops = []
    outputs: dict = {}
    for pass_index in range(SUITE_PASSES[size]):
        rng = _rng("suite-unitarity", seed, round_index, f"pass{pass_index}")
        inputs = [(f"m{i}", {alpha: Fraction(1)}) for i, alpha in enumerate(SUITE_MONOMIALS)]
        inputs += [(f"r{i}", suite_poly(rng)) for i in range(SUITE_RANDOM)]
        for name, terms in inputs:
            p = RealPoly(terms)
            refs = _Refs(terms)
            for T in SUITE_TS:
                base = f"p{pass_index}/{name}/T={T}"
                for n in SUITE_NS:
                    ops.append(_sphere_op(f"{base}/sphere/n={n}", p, refs, n, T))
                ops.append(_limit_op(f"{base}/limit", p, refs, T, outputs))
                ops.append(_euclidean_two_route_op(f"{base}/euclidean", p, refs, T,
                                                   f"{base}/limit", outputs))
    return ops


# ---------------------------------------------------------------------------
# scale-cold: growing dense shapes, each seen once, plus the converge sweeps


def _cli_call(argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def _sweep_check(label, expect_value, expect_reference, ref_tol=MOMENT_TOL):
    """Check every row of a converge JSON table against closed forms in N."""

    def check(result):
        code, text = result
        if code != 0:
            return [f"{label}: exit code {code}"]
        try:
            rows = json.loads(text)["rows"]
        except (ValueError, KeyError) as exc:
            return [f"{label}: unreadable output ({exc})"]
        if len(rows) < 3:
            return [f"{label}: only {len(rows)} rows"]
        errors = []
        for row in rows:
            n = row["N"]
            for column, want, tol in (("value", expect_value(n), MOMENT_TOL),
                                      ("reference", expect_reference(n), ref_tol)):
                got = row[column]
                if not isinstance(got, (int, float)):
                    errors.append(f"{label}: N={n} {column} {got!r} is not real")
                    continue
                gap = ref.rel_gap(got, want)
                if not gap <= tol:
                    errors.append(f"{label}: N={n} {column} {got!r} vs {float(want)!r}")
        return errors

    return check


def _scale(seed: int, round_index: int, size: str) -> list:
    # a smoke round is a full round: each shape is its own check
    rng = _rng("scale-cold", seed, round_index)
    ops = []
    for k, l, n in SCALE_SHAPES:
        terms = shaped_poly(rng, k, l)
        p, refs = RealPoly(terms), _Refs(terms)
        T = round(rng.uniform(0.2, 2.0), 3)
        ops.append(_sphere_op(f"k={k},l={l}/sphere/n={n}/T={T}", p, refs, n, T))
        ops.append(_limit_op(f"k={k},l={l}/limit/T={T}", p, refs, T))
    fault = RealPoly(SCALE_FAULT_POLY)
    fault_refs = _Refs(SCALE_FAULT_POLY)
    ops.append(_sphere_op("k=8,l=10/sphere", fault, fault_refs, SCALE_FAULT_N, SCALE_FAULT_T))
    ops.append(_limit_op("k=8,l=10/limit", fault, fault_refs, SCALE_FAULT_T))

    T = round(rng.uniform(0.2, 2.0), 3)
    ts = repr(T)
    diagram_terms = shaped_poly(rng, rng.randint(2, 3), rng.randint(2, 4), terms=3)
    diagram_refs = _Refs(diagram_terms)
    sweeps = (
        ("sphere-moment", "x1^4", [],
         lambda n: Fraction(3 * n, n + 2), lambda n: 3, MOMENT_TOL),
        ("quadric-moment", "a1abar1", ["--T", ts],
         lambda n: math.exp(T * (n - 1) / n), lambda n: math.exp(T), MOMENT_TOL),
        ("transform", "x1", ["--T", ts],
         lambda n: abs(math.exp(-T * (n - 1) / (2 * n)) - math.exp(-T / 2)),
         lambda n: 0.0, MOMENT_TOL),
        ("diagram", poly_text(diagram_terms), ["--T", ts],
         diagram_refs.sphere_norm2, lambda n: diagram_refs.gauss_norm2(1), UNITARITY_TOL),
    )
    for quantity, poly, extra, want_value, want_ref, ref_tol in sweeps:
        argv = ["converge", "--quantity", quantity, "--poly", poly, "--format", "json"] + extra
        label = f"converge/{quantity}/T={T}"
        ops.append(Op(label, _cli_call(argv),
                      _sweep_check(label, want_value, want_ref, ref_tol)))
    return ops


# ---------------------------------------------------------------------------
# flat-oracle: larger polynomials through routes that build no graded matrix


def _flat(seed: int, round_index: int, size: str) -> list:
    rng = _rng("flat-oracle", seed, round_index)
    ops = []
    for group in range(FLAT_GROUPS[size]):
        k = 4 + group % 3
        terms = flat_poly(rng, k)
        p, refs = RealPoly(terms), _Refs(terms)
        base = f"g{group}/k={k}"
        t = round(rng.uniform(0.1, 1.9), 3)
        ops.append(_flat_euclidean_op(f"{base}/euclidean/t={t}", p, refs, t))
        var = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        ops.append(_gaussian_op(f"{base}/gaussian/t={var}", p, refs, var))
        ops.append(_laplacian_op(f"{base}/laplacian-limit", p, terms))
        p2 = RealPoly(flat_poly(rng, 2))
        T = round(rng.uniform(0.2, 1.5), 3)
        ops.append(_gamma_op(f"{base}/gamma-quadrature/T={T}", p2, T))
        n = rng.randint(k + 1, 40)
        ops.append(_mc_op(f"{base}/mc-sphere/n={n}", p, terms, n, rng.randrange(2 ** 31)))
    return ops


def _flat_euclidean_op(label, p, refs, t) -> Op:
    return Op(label, lambda: transforms.unitarity_report(p, transforms.Euclidean(1.0, t)),
              lambda res: _unitarity(label, res, refs.gauss_norm2(1)))


def _gaussian_op(label, p, refs, var) -> Op:
    def call():
        square = p * p
        return measures.gaussian_moment(square, var), oracle.isserlis_moment(square, var)

    def check(res):
        heat, pairs = res
        exact = refs.gauss_norm2(var)
        if heat == exact and pairs == exact:
            return []
        return [f"{label}: heat route {heat!r}, pair partitions {pairs!r}, exact {exact!r}"]

    return Op(label, call, check)


def _laplacian_op(label, p, terms) -> Op:
    # sphere Laplacian minus Hermite is -(E^2 - 2E)/n: diagonal on monomials
    want = max(abs(c * sum(a) * (sum(a) - 2)) for a, c in terms.items())

    def check(table):
        errors = []
        for n, dist in zip(table.ns, table.values):
            if not ref.rel_gap(n * dist, want) <= MOMENT_TOL:
                errors.append(f"{label}: n={n} n*distance {n * dist!r} vs {float(want)!r}")
        return errors

    return Op(label, lambda: limits.laplacian_limit(p), check)


def _gamma_op(label, p2, T) -> Op:
    def call():
        square = holomorphic_extend(p2).mod_square()
        family = measures.MeasureSpec.gamma(T)
        return (measures.gamma_moment(square, T),
                oracle.quad_gauss_moment(square, family, square.degree() // 2 + 1).value)

    def check(res):
        analytic, quad = res
        if ref.rel_gap(analytic, quad) <= QUAD_TOL:
            return []
        return [f"{label}: analytic {analytic!r} vs quadrature {quad!r}"]

    return Op(label, call, check)


def _mc_op(label, p, terms, n, mc_seed) -> Op:
    def call():
        return (measures.sphere_moment(p, n),
                oracle.mc_sphere_moment(p, n, samples=FLAT_MC_SAMPLES, seed=mc_seed))

    def check(res):
        analytic, est = res
        exact = ref.sphere_moment(terms, n)
        errors = []
        if analytic != exact:
            errors.append(f"{label}: sphere moment {analytic!r} vs exact {exact!r}")
        z = abs(est.value - float(exact)) / est.std_error if est.std_error > 0 else math.inf
        if not z <= MC_SIGMAS:
            errors.append(f"{label}: Monte Carlo {est.value!r} is {z:.2f} standard errors "
                          f"from {float(exact)!r}")
        return errors

    return Op(label, call, check)


BUILDERS = {"suite-unitarity": _suite, "scale-cold": _scale, "flat-oracle": _flat}


def build(workload: str, seed: int, round_index: int, size: str = "full") -> list:
    return BUILDERS[workload](seed, round_index, size)
