"""Command-line driver: isometry tables, convergence sweeps, invariant checks.

Output is machine readable: CSV with fixed columns
(N, T, quantity, value, reference, abs_error, rel_error) or JSON mirroring
the same rows as objects.  Exit codes: 0 success, 1 tolerance/assertion
failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction

from . import diffops, limits, measures, oracle, semigroup, suite, transforms
from .diffops import DimensionError
from .polyalg import CxPoly, RealPoly, coeff_distance, holomorphic_extend, trim

CSV_COLUMNS = ("N", "T", "quantity", "value", "reference", "abs_error", "rel_error")

PRESETS = {
    "one": "1",
    "x1": "x1",
    "x1sq": "x1^2",
    "mixed": "x1*x2 + x1^2*x3 - 1/2",
}

CX_PRESETS = ("a1abar1", "a1sq")


class PolyParseError(ValueError):
    """Parse failure carrying a 1-based column offset."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


# ---------------------------------------------------------------------------
# polynomial parsing: c*x1^a*x2^b +/- ...

_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_VAR = re.compile(r"x(\d+)")
_EXP = re.compile(r"\d+")


def parse_poly(text: str) -> RealPoly:
    """Parse an inline polynomial; raises PolyParseError citing the column."""
    pos = 0
    n = len(text)

    def err(message, at):
        raise PolyParseError(message, at + 1)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_factor():
        nonlocal pos
        skip_ws()
        if pos >= n:
            err("expected a coefficient or variable", pos)
        if text[pos] == "x":
            m = _VAR.match(text, pos)
            if not m:
                err("expected a variable index after 'x'", pos)
            index = int(m.group(1))
            if index < 1:
                err("variable indices start at 1", pos)
            pos = m.end()
            power = 1
            if pos < n and text[pos] == "^":
                pos += 1
                m2 = _EXP.match(text, pos)
                if not m2:
                    err("expected an integer exponent after '^'", pos)
                power = int(m2.group(0))
                pos = m2.end()
            return "var", index - 1, power
        m = _NUMBER.match(text, pos)
        if not m:
            err(f"unexpected character {text[pos]!r}", pos)
        literal = m.group(0)
        pos = m.end()
        if "." in literal or "e" in literal or "E" in literal:
            return "num", float(literal), True
        if pos < n and text[pos] == "/":
            slash = pos
            pos += 1
            m2 = _EXP.match(text, pos)
            if not m2:
                err("expected a denominator after '/'", pos)
            den = int(m2.group(0))
            if den == 0:
                err("zero denominator", slash)
            pos = m2.end()
            return "num", Fraction(int(literal), den), False
        return "num", Fraction(int(literal)), False

    # exact sums, float literals at their binary values; with any float literal each
    # is rounded once, and one that does not fit is reported at its last term
    acc, last = {}, {}  # monomial -> coefficient, column of its last term
    saw_float = False
    first = True
    skip_ws()
    if pos >= n:
        err("empty polynomial", pos)
    while pos < n:
        skip_ws()
        if pos >= n:
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        elif not first:
            err(f"expected '+' or '-', found {text[pos]!r}", pos)
        first = False
        skip_ws()
        start = pos
        coeff = Fraction(sign)
        exps: dict = {}
        while True:
            kind, *payload = parse_factor()
            if kind == "var":
                index, power = payload
                exps[index] = exps.get(index, 0) + power
            else:
                value, is_float = payload
                if is_float and not math.isfinite(value):
                    err("coefficient overflows a float", start)
                saw_float = saw_float or is_float
                coeff = coeff * Fraction(value)
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            break
        key = trim(tuple(exps.get(j, 0) for j in range(max(exps, default=-1) + 1)))
        acc[key] = acc.get(key, 0) + coeff
        last[key] = start
    if saw_float:
        for key, c in acc.items():
            try:
                acc[key] = float(c)  # one int / int division, as to_float()
            except OverflowError:
                err("coefficient overflows a float", last[key])
    return RealPoly(acc, "float" if saw_float else "exact")


def _check_suite_shape(k: int, deg: int) -> None:
    """Raise unless --k and --deg are at least 1, as the random suite polynomials need."""
    for option, value in (("--k", k), ("--deg", deg)):
        if value < 1:
            raise ValueError(f"{option} must be at least 1, got {value}")


def _check_tol(tol) -> None:
    """Raise unless --tol is None or a number >= 0; NaN and negative gates pass no run."""
    if tol is not None and not tol >= 0:
        raise ValueError(f"--tol must be a number >= 0, got {tol}")


def resolve_polys(spec: str, k: int = 3, deg: int = 6, seed: int | None = None):
    """Map a --poly argument to labelled polynomials."""
    if spec == "suite":
        _check_suite_shape(k, deg)
        return suite.acceptance_suite(
            k=k, degree=deg, seed=suite.SUITE_SEED if seed is None else seed
        )
    if spec in PRESETS:
        return [(spec, parse_poly(PRESETS[spec]))]
    return [(spec, parse_poly(spec))]


def resolve_cx_poly(spec: str) -> tuple:
    if spec == "a1abar1":
        return spec, CxPoly.a(0) * CxPoly.abar(0)
    if spec == "a1sq":
        return spec, CxPoly.a(0) * CxPoly.a(0)
    if spec.startswith("modsq:"):
        p = parse_poly(spec[len("modsq:"):])
        return spec, holomorphic_extend(p).mod_square()
    raise PolyParseError(
        f"complex integrands are {', '.join(CX_PRESETS)} or modsq:<poly>", 1
    )


# ---------------------------------------------------------------------------
# grids and output


def _numbers(fields, kind, error: str) -> tuple:
    """kind(x) for each field; ValueError(error) if one does not parse."""
    try:
        return tuple(map(kind, fields))
    except ValueError:
        raise ValueError(error) from None


def parse_n_grid(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        lo, hi = _numbers(text.split("..", 1), int, f"bad N range {text!r}")
        if lo < 2 or hi < lo:
            raise ValueError(f"bad N range {text!r}")
        grid = {n for n in limits.DEFAULT_N_GRID if lo <= n <= hi}
        grid.update((lo, hi))
        return tuple(sorted(grid))
    fields = [x for x in text.split(",") if x.strip()]
    values = tuple(sorted(set(_numbers(fields, int, f"bad N grid {text!r}"))))
    if not values:
        raise ValueError("empty N grid")
    return values


def parse_t_list(text: str) -> tuple:
    values = _numbers([x for x in text.split(",") if x.strip()], float, f"bad T list {text!r}")
    if not values or not all(0 < t < math.inf for t in values):
        raise ValueError(f"bad T list {text!r}")
    return values


def _fmt(value):
    if isinstance(value, complex):
        if abs(value.imag) < 1e-12 * max(1.0, abs(value.real)):
            return value.real
        return f"{value.real}{value.imag:+}j"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def write_rows(rows, fmt: str, out_path, footer: dict | None = None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in CSV_COLUMNS])
        for key, value in (footer or {}).items():
            writer.writerow(["", "", key, _fmt(value), "", "", ""])
        text = buf.getvalue()
    else:
        obj = {"rows": [{k: _fmt(v) for k, v in row.items()} for row in rows]}
        if footer:
            obj.update({k: _fmt(v) for k, v in footer.items()})
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# isometry command


def cmd_isometry(args) -> int:
    _check_tol(args.tol)
    polys = resolve_polys(args.poly, k=args.k, deg=args.deg, seed=args.seed)
    t_list = parse_t_list(args.T)
    rows = []
    for label, p in polys:
        for t in t_list:
            if args.transform == "sphere":
                tags = [
                    (n, transforms.Sphere(n, t)) for n in parse_n_grid(args.N)
                ]
            elif args.transform == "limit":
                tags = [("", transforms.Limit(t))]
            else:
                tags = [("", transforms.Euclidean(args.s, t))]
            for n, tag in tags:
                report = transforms.unitarity_report(p, tag)
                rows.append(
                    {
                        "N": n,
                        "T": t,
                        "quantity": f"{args.transform}-isometry [{label}]",
                        "value": report.range_norm2,
                        "reference": report.domain_norm2,
                        "abs_error": abs(report.range_norm2 - report.domain_norm2),
                        "rel_error": report.rel_error,
                    }
                )
    write_rows(rows, args.format, args.out)
    # a NaN gap passes no tolerance
    return 0 if all(row["rel_error"] <= args.tol for row in rows) else 1


# ---------------------------------------------------------------------------
# convergence command


def cmd_converge(args) -> int:
    ns = parse_n_grid(args.N)
    t_list = parse_t_list(args.T)
    if len(t_list) > 1:
        raise ValueError(f"converge takes one --T value, got {args.T!r}")
    t = t_list[0]
    complex_integrand = args.quantity == "quadric-moment"
    poly = args.poly
    if poly is None:
        poly = "a1abar1" if complex_integrand else "x1"
    if poly == "suite":
        raise ValueError("converge sweeps one polynomial; --poly suite is for isometry")
    if complex_integrand:
        label, q = resolve_cx_poly(poly)
        table = limits.measure_limit(q, "quadric", T=t, ns=ns)
    else:
        [(label, p)] = resolve_polys(poly)
        if args.quantity == "laplacian":
            table = limits.laplacian_limit(p, ns)
        elif args.quantity == "sphere-moment":
            table = limits.measure_limit(p, "sphere", ns=ns)
        elif args.quantity == "transform":
            table = limits.transform_limit(p, t, ns)
        else:
            table = limits.diagram_convergence(p, t, ns)
    rows = table.csv_rows()
    for row in rows:
        row["quantity"] = f"{row['quantity']} [{label}]"
    write_rows(rows, args.format, args.out, footer={"fitted_rate": table.fitted_rate})
    return 0


# ---------------------------------------------------------------------------
# verify command


def _verify_checks(k: int, deg: int, seed: int, tol_override):
    """Yield (name, passed, detail) for every module invariant."""
    import random

    from . import polyalg

    rng = random.Random(seed)
    polys = [suite.random_real_poly(rng, k=k, degree=deg) for _ in range(6)]

    def tol(default):
        return default if tol_override is None else tol_override

    # -- polynomial ring laws
    a, b, c = polys[0], polys[1], polys[2]
    ok = (a * (b + c)) == (a * b + a * c) and (a * b) * c == a * (b * c)
    yield "ring-axioms", ok, "distributivity and associativity on random inputs"

    ext = holomorphic_extend
    ok = ext(a * b) == ext(a) * ext(b)
    yield "extend-homomorphism", ok, "holomorphic extension respects products"

    qa = ext(a) * CxPoly.abar(0) + CxPoly.a(1).scale(polyalg.GaussianRational(0, 1))
    ok = qa.conjugate().conjugate() == qa
    yield "conjugate-involution", ok, "double conjugation is the identity"

    ok = a.dilate(Fraction(2)).dilate(Fraction(3, 2)) == a.dilate(Fraction(3))
    yield "dilate-composition", ok, "dilations compose multiplicatively"

    # -- operators
    eul, lap = diffops.EULER, diffops.LAPLACIAN
    ok = all(
        eul.apply(lap.apply(m)) - lap.apply(eul.apply(m)) == lap.apply(m).scale(-2)
        for m in (RealPoly({key: 1}) for key in diffops.basis_keys(k, deg))
    )
    yield "euler-laplacian-commutator", ok, "[Euler, Lap] = -2 Lap exactly"

    t_bch = 1.0
    rep = semigroup.bch_check((-t_bch / 2.0) * diffops.EULER, (t_bch / 2.0) * diffops.LAPLACIAN,
                              t_bch, k, deg)
    ok = rep.ok(tol(1e-11))
    yield "bch-dilation-heat", ok, f"max deviation {rep.max_deviation:.2e}"

    rep = semigroup.bch_check(t_bch * diffops.g_uv_op(1), 0.5 * diffops.laplacian_op(indices=(0,)),
                              -t_bch, 2, min(deg, 6))
    ok = rep.ok(tol(1e-11))
    yield "bch-limit-measure", ok, f"max deviation {rep.max_deviation:.2e}"

    fac = semigroup.factor_quadric_limit(1, min(deg, 6), 1.0)
    ok = fac.max_deviation <= tol(1e-11)
    yield "quadric-factorization", ok, f"max deviation {fac.max_deviation:.2e}"

    # -- semigroups
    p = polys[3]
    t1, t2 = 0.3, 0.9
    lhs = semigroup.exp_graded(diffops.HERMITE, t1 + t2, p)
    rhs = semigroup.exp_graded(diffops.HERMITE, t1, semigroup.exp_graded(diffops.HERMITE, t2, p))
    ok = coeff_distance(lhs, rhs) <= tol(1e-12)
    yield "semigroup-law", ok, f"distance {float(coeff_distance(lhs, rhs)):.2e}"

    lam = -0.4
    lhs = semigroup.dilation_exp(lam, p.to_float())
    rhs = semigroup.exp_graded(diffops.EULER, lam, p)
    ok = coeff_distance(lhs, rhs) <= tol(1e-13)
    yield "dilation-vs-euler-exp", ok, f"distance {float(coeff_distance(lhs, rhs)):.2e}"

    big_t = 0.7
    route_a = transforms.limit_sbt(p, big_t)
    route_b = transforms.euclidean_sbt(p, 1.0, 1.0 - math.exp(-big_t)).dilate(
        math.exp(-big_t / 2.0)
    )
    ok = coeff_distance(route_a, route_b) <= tol(1e-12)
    yield "two-route-limit-transform", ok, (
        f"distance {float(coeff_distance(route_a, route_b)):.2e}"
    )

    # -- unitarity
    gaps = [
        transforms.unitarity_report(p, tag).rel_error
        for p in polys[:4]
        for tag in (
            transforms.Sphere(max(k + 2, 7), 0.8),
            transforms.Limit(0.8),
            transforms.Euclidean(1.0, 0.6),
        )
    ]
    worst = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    ok = worst <= tol(1e-9)
    yield "unitarity", ok, f"worst relative norm gap {worst:.2e}"

    # -- oracles
    ok = True
    for p in polys[:3]:
        if measures.gaussian_moment(p * p, Fraction(1)) != oracle.isserlis_moment(
            p * p, Fraction(1)
        ):
            ok = False
    yield "isserlis-vs-heat", ok, (
        "pair-partition sums equal the per-monomial heat-at-zero moments exactly"
    )

    q = holomorphic_extend(
        RealPoly({(2,): 1, (0, 1): 1, (): Fraction(1, 2)})
    )
    sq = q.mod_square()
    order = sq.degree() // 2 + 1
    quad = oracle.quad_gauss_moment(sq, measures.MeasureSpec.gamma(1.0), order)
    direct = measures.gamma_moment(sq, 1.0)
    gap = abs(complex(quad.value) - complex(direct)) / max(1.0, abs(complex(direct)))
    ok = gap <= tol(1e-12)
    yield "quadrature-vs-gamma", ok, f"relative gap {gap:.2e}"

    est = oracle.mc_sphere_moment(suite.MONOMIALS[6][1], 50, samples=200_000, seed=seed)
    ref = float(measures.sphere_moment(suite.MONOMIALS[6][1], 50))
    ok = abs(est.value - ref) <= 4 * est.std_error
    yield "mc-vs-sphere", ok, (
        f"|{est.value:.5f} - {ref:.5f}| vs 4*se={4 * est.std_error:.5f}"
    )

    big_t = 0.9
    q = holomorphic_extend(polys[5]).to_float()
    lhs = measures.gamma_moment(q * q.conjugate(), big_t)
    rhs = measures.xi_moment(
        (q * q.conjugate()).dilate(math.exp(big_t / 2.0)), 1.0, 1.0 - math.exp(-big_t)
    )
    gap = abs(complex(lhs) - complex(rhs)) / max(1.0, abs(complex(lhs)))
    ok = gap <= tol(1e-12)
    yield "gamma-as-dilated-xi", ok, f"relative gap {gap:.2e}"

    # E|a1|^2 = e^{T(n-1)/n}: x1 is a sphere eigenfunction; E[a1^2] = 1
    n, big_t = 7, 0.8
    gap = max(abs(measures.quadric_moment(CxPoly.a(0) * CxPoly.abar(0), n, big_t)
                  - math.exp(big_t * (n - 1) / n)),
              abs(measures.quadric_moment(CxPoly.a(0) * CxPoly.a(0), n, big_t) - 1.0))
    ok = gap <= tol(1e-10)
    yield "quadric-closed-form", ok, f"gap {gap:.2e}"


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    _check_suite_shape(args.k, args.deg)
    if args.seed < 0:
        # checked first: the Monte Carlo check near the end would reject it
        raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
    failures = 0
    for name, ok, detail in _verify_checks(args.k, args.deg, args.seed, args.tol):
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{'OK' if not failures else 'FAILED'}: {failures} failing invariant(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbtlab",
        description="verification tables for sphere transforms and their limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    iso = sub.add_parser("isometry", help="domain vs range norms of a transform")
    iso.add_argument("--poly", default="suite",
                     help="inline polynomial, preset name, or 'suite'")
    iso.add_argument("--transform", choices=("sphere", "limit", "euclidean"),
                     default="sphere")
    iso.add_argument("--N", default="5,10,25,50", help="comma list or lo..hi")
    iso.add_argument("--T", default="1.0", help="comma list of times")
    iso.add_argument("--s", type=float, default=1.0,
                     help="domain variance for the euclidean transform")
    iso.add_argument("--k", type=int, default=3,
                     help="variable count of the random suite polynomials")
    iso.add_argument("--deg", "--max-degree", dest="deg", type=int, default=6,
                     help="max degree of the random suite polynomials")
    iso.add_argument("--seed", type=int, default=None,
                     help="seed for the random part of the suite")
    iso.add_argument("--tol", type=float, default=1e-9)
    iso.add_argument("--format", choices=("csv", "json"), default="csv")
    iso.add_argument("--out", default=None)

    conv = sub.add_parser("converge", help="large-dimension convergence sweep")
    conv.add_argument("--quantity", required=True, choices=(
        "laplacian", "sphere-moment", "quadric-moment", "transform", "diagram"))
    conv.add_argument("--poly",
                      help="inline polynomial or preset (default x1); quadric-moment "
                           "takes a1abar1 (the default), a1sq, or modsq:<poly>")
    conv.add_argument("--N", default="10..10000", help="comma list or lo..hi")
    conv.add_argument("--T", default="1.0")
    conv.add_argument("--format", choices=("csv", "json"), default="csv")
    conv.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the module invariants")
    ver.add_argument("--k", type=int, default=2, help="variable count")
    ver.add_argument("--deg", "--max-degree", dest="deg", type=int, default=6)
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--tol", type=float, default=None,
                     help="override every check tolerance (tighten to force failures)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up on each call, so a replaced cmd_* function is the one that runs
        return globals()["cmd_" + args.command](args)
    except AssertionError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except (PolyParseError, DimensionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # written once the handler has let go of the traceback: its frames hold
    # the memory that ran out, and printing inside it can fail again
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
