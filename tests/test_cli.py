import json
import math
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sbtlab import cli, transforms
from sbtlab.cli import PolyParseError, main, parse_n_grid, parse_poly
from sbtlab.polyalg import RealPoly


# ---------------------------------------------------------------------------
# inline polynomial parser


def test_parse_simple_terms():
    assert parse_poly("x1") == RealPoly.variable(0)
    assert parse_poly("3*x1^2*x2 - 1") == RealPoly({(2, 1): 3, (): -1})
    assert parse_poly("1/2*x1 + x1") == RealPoly({(1,): Fraction(3, 2)})
    assert parse_poly("2") == RealPoly.constant(2)


def test_parse_float_coefficients_switch_mode():
    p = parse_poly("0.5*x1^2")
    assert p.mode == "float"
    assert p.terms[(2,)] == 0.5


def test_parse_signs_and_whitespace():
    assert parse_poly(" - x1 + 2 * x2 ") == RealPoly({(1,): -1, (0, 1): 2})


def test_parse_errors_cite_columns():
    with pytest.raises(PolyParseError) as info:
        parse_poly("x1 + @")
    assert "column 6" in str(info.value)
    with pytest.raises(PolyParseError) as info:
        parse_poly("x1^")
    assert "column 4" in str(info.value)
    with pytest.raises(PolyParseError) as info:
        parse_poly("3/0*x1")
    assert "column 2" in str(info.value)
    with pytest.raises(PolyParseError):
        parse_poly("")


def test_parse_n_grid():
    assert parse_n_grid("5,10,25") == (5, 10, 25)
    grid = parse_n_grid("10..10000")
    assert grid[0] == 10 and grid[-1] == 10000 and len(grid) >= 5
    with pytest.raises(ValueError):
        parse_n_grid("100..10")


# ---------------------------------------------------------------------------
# commands


def test_isometry_exit_zero_and_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main([
        "isometry", "--poly", "x1", "--N", "10,100", "--T", "1.0",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,T,quantity,value,reference,abs_error,rel_error"
    assert len(lines) == 3


def test_isometry_trivial_constant(tmp_path):
    out = tmp_path / "one.csv"
    code = main([
        "isometry", "--poly", "one", "--N", "10", "--T", "0.5", "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1.0)
    assert float(row[4]) == pytest.approx(1.0)


def test_isometry_precondition_violation_exits_two(capsys):
    code = main([
        "isometry", "--poly", "x1*x2*x3*x4*x5", "--N", "3", "--T", "1.0",
    ])
    assert code == 2
    assert "error: polynomial in 5 variables needs ambient dimension > 5, got 3" in \
        capsys.readouterr().err


def test_isometry_overtight_tolerance_exits_one(tmp_path):
    code = main([
        "isometry", "--poly", "x1^4", "--N", "10,25", "--T", "1.0",
        "--tol", "1e-20", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 1


def test_converge_csv_footer(tmp_path):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--quantity", "laplacian", "--poly", "x1",
        "--N", "10,100,1000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert "fitted_rate" in lines[-1]
    assert abs(float(lines[-1].split(",")[3]) - 1.0) < 1e-9


def test_converge_zero_error_quantity_reports_inf(tmp_path):
    out = tmp_path / "inf.csv"
    code = main([
        "converge", "--quantity", "transform", "--poly", "x1sq",
        "--N", "10,100,1000", "--T", "1.0", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().strip().splitlines()[-1].split(",")[3] == "inf"


def test_converge_json_output(tmp_path):
    out = tmp_path / "conv.json"
    code = main([
        "converge", "--quantity", "sphere-moment", "--poly", "x1^4",
        "--N", "10,100", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["rows"]) == 2
    assert obj["rows"][0]["abs_error"] == pytest.approx(0.5)


def test_identical_config_gives_identical_bytes(tmp_path):
    args = [
        "converge", "--quantity", "quadric-moment", "--poly", "a1abar1",
        "--N", "10,100", "--T", "0.7", "--format", "json",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_small_run(capsys):
    code = main(["verify", "--k", "2", "--deg", "4", "--seed", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in captured
    assert captured.count("PASS") >= 15


@pytest.mark.parametrize("argv,option", [
    (["isometry", "--poly", "suite", "--k", "0"], "--k"),
    (["isometry", "--poly", "suite", "--deg", "0"], "--deg"),
    (["verify", "--k", "0"], "--k"),
    (["verify", "--max-degree", "0"], "--deg"),
], ids=["isometry-k", "isometry-deg", "verify-k", "verify-max-degree"])
def test_empty_random_suite_exits_two(argv, option, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {option} must be at least 1, got 0" in captured.err
    assert captured.out == ""


def test_verify_overtight_tolerance_fails(capsys):
    code = main(["verify", "--k", "2", "--deg", "4", "--tol", "1e-20"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_isometry_exits_two_where_the_forward_flow_overflows(capsys):
    # the euclidean output e^{Lap/2} p = 1.5e308 (x1^2 + 2) overflows in the float sum of the flow
    argv = ["isometry", "--poly", "1.5e308*x1^2 + 1.5e308", "--transform", "euclidean", "--T", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: overflow: a flowed coefficient does not fit in a float\n"
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "-1e-9"])
def test_isometry_rejects_a_nan_or_negative_tolerance(tol, capsys):
    # a NaN or negative gate would fail even a zero gap
    assert main(["isometry", "--poly", "x1", "--N", "5", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "error: --tol must be a number >= 0" in captured.err and captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "-1e-9"])
def test_verify_rejects_a_nan_or_negative_tolerance(tol, capsys):
    assert main(["verify", "--k", "2", "--deg", "3", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "error: --tol must be a number >= 0" in captured.err and captured.out == ""


def test_verify_rejects_a_negative_seed_before_any_check(capsys):
    # the Monte Carlo check near the end cannot take it, so no check runs
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be an integer >= 0, got -1\n"


def test_converge_diagram_quantity(tmp_path):
    out = tmp_path / "diag.csv"
    code = main([
        "converge", "--quantity", "diagram", "--poly", "x1sq",
        "--N", "10,30,100,300", "--T", "1.0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 4 rows + rate footer


def test_isometry_suite_seed_changes_rows(tmp_path):
    base = ["isometry", "--poly", "suite", "--N", "7", "--T", "0.5",
            "--k", "2", "--deg", "3", "--format", "json"]
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "1", "--out", str(b)]) == 0
    assert main(base + ["--seed", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_isometry_beyond_the_dense_basis(tmp_path):
    # the (8, 10) basis has 43 758 monomials; the sphere flow never builds it
    out = tmp_path / "big.json"
    code = main([
        "isometry", "--poly", "x1^10 + x8", "--N", "50", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1 and rows[0]["rel_error"] <= 1e-9


def test_converge_rejects_several_times(capsys):
    code = main([
        "converge", "--quantity", "transform", "--poly", "x1", "--N", "10,100",
        "--T", "0.5,1.0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--T" in err


@pytest.mark.parametrize("option,value,message", [
    ("--N", "5,abc", "bad N grid '5,abc'"),
    ("--N", "10.5", "bad N grid '10.5'"),
    ("--N", "10..x", "bad N range '10..x'"),
    ("--T", "1,abc", "bad T list '1,abc'"),
], ids=["N-word", "N-fraction", "N-range-word", "T-word"])
def test_unreadable_list_is_named_by_its_option(option, value, message, capsys):
    assert main(["isometry", "--poly", "x1", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["isometry", "--poly", "1e400*x1", "--transform", "limit"],
    ["isometry", "--poly", "1e400*x1"],
    ["converge", "--quantity", "transform", "--poly", "1e400*x1", "--N", "10,100"],
    ["isometry", "--poly", "x1", "--transform", "limit", "--T", "800"],
    ["isometry", "--poly", "x1", "--T", "nan"],
    ["converge", "--quantity", "diagram", "--poly", "1e200*x1^2", "--N", "10,100"],
    ["isometry", "--poly", "x1^6", "--N", "5", "--T", "400"],
    ["isometry", "--poly", "1e155*x1^2", "--transform", "limit", "--T", "400"],
    ["converge", "--quantity", "sphere-moment", "--poly", "x1^4", "--N", "1,5,10"],
], ids=["limit-1e400", "sphere-1e400", "converge-1e400", "limit-T800", "T-nan",
        "diagram-overflow", "flow-weight-overflow", "limit-moment-overflow",
        "sphere-moment-N1"])
def test_non_finite_or_overflowing_input_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_limit_range_norm_overflows_only_on_the_moments_it_reads(capsys):
    # the range norm sums powers of e^T times the output's squared Hermite
    # coefficients in integers and reads no pair moment such as
    # E[a1^2 abar1^2] = 2 e^800 + 1, so it overflows only where the norm does
    assert main(["isometry", "--poly", "x1", "--transform", "limit", "--T", "700"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == ",700.0,limit-isometry [x1],1.0,1.0,0.0,0.0"
    for poly, T in (("x1^2", "400"), ("x1^6", "200")):
        assert main(["isometry", "--poly", poly, "--transform", "limit", "--T", T]) == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[6]) <= 1e-9


def test_limit_row_whose_forward_flow_underflows_is_finite_and_fails_the_tolerance(capsys):
    # x1^6 at T = 400: the output's top coefficient e^-1200 underflows to 0
    # in the forward flow, so the row is printed with a finite gap above
    # --tol, and the run fails
    assert main(["isometry", "--poly", "x1^6", "--transform", "limit", "--T", "400"]) == 1
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out
    row = out.splitlines()[1].split(",")
    assert 1e-9 < float(row[6]) < math.inf


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the output's top coefficients "
                                       "e^{-Tm/2} underflow a float")
@pytest.mark.parametrize("poly, T", [("x1^6", "400"), ("x1^34", "82"), ("x1^35", "82"),
                                     ("x1^36", "82"), ("x1^15", "200"), ("x1^21", "200")])
def test_limit_transform_is_unitary_at_large_T(poly, T, capsys):
    assert main(["isometry", "--poly", poly, "--transform", "limit", "--T", T]) == 0
    assert float(capsys.readouterr().out.splitlines()[1].split(",")[6]) <= 1e-9


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n" and captured.out == ""


def test_out_of_memory_line_is_written_after_the_failed_frames_are_freed(monkeypatch):
    # the traceback holds the frames of the failed command, and with them the
    # memory that ran out; the error line is written only once they are freed
    freed = []

    class Held:
        def __del__(self):
            freed.append(True)

    def exhausted(args):
        held = Held()  # noqa: F841 -- a local of the failing frame
        raise MemoryError

    written = []

    class Stderr:
        def write(self, text):
            written.append((text, bool(freed)))

        def flush(self):
            pass

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["verify"]) == 2
    monkeypatch.undo()
    assert "".join(text for text, _ in written) == "error: out of memory\n"
    assert all(after for _, after in written)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_isometry_that_exhausts_its_address_space_exits_two_with_one_line():
    # a child caps its own address space 32 MiB above its size after import,
    # which keeps the cap clear of the BLAS threads' reservations; the degree
    # 168 input's Laplacian chain outgrows it within a few seconds
    import os
    import subprocess

    import sbtlab

    src = str(Path(sbtlab.__file__).resolve().parent.parent)
    code = ("import os, resource, sys\n"
            "from sbtlab.cli import main\n"
            "size = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20),) * 2)\n"
            "sys.exit(main(sys.argv[1:]))\n")
    argv = ["isometry", "--poly", "*".join(f"x{i}^24" for i in range(1, 8)), "--N", "10",
            "--T", "1"]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (out.returncode, out.stderr) == (2, "error: out of memory\n")


def test_degree_60_sphere_row_is_finite_and_fails_the_tolerance(capsys):
    # x1^60 at (n, T) = (5, 1) loses digits in the backward sphere flow: the
    # row is printed with a finite gap above --tol, and the run fails
    assert main(["isometry", "--poly", "x1^60", "--N", "5", "--T", "1"]) == 1
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out
    row = out.splitlines()[1].split(",")
    assert 1e-9 < float(row[6]) < math.inf


def test_float_sphere_moment_reference_is_rounded_once(capsys):
    # the Gaussian limit of a float input is its exact moment, rounded once
    argv = ["converge", "--quantity", "sphere-moment", "--poly", "0.3*x1^4+0.7*x1^2*x2^2-0.1",
            "--N", "10,100"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert [row.split(",")[4] for row in rows] == ["1.5", "1.5"]


def test_converge_quadric_moment_defaults_to_a1abar1(capsys):
    # each quantity has its own default integrand: x1, or a1abar1 for quadric-moment
    base = ["converge", "--quantity", "quadric-moment", "--N", "10,100"]
    assert main(base) == 0
    default = capsys.readouterr()
    assert main(base + ["--poly", "a1abar1"]) == 0
    assert default == capsys.readouterr()
    assert "[a1abar1]" in default.out


@pytest.mark.parametrize("quantity", [
    "laplacian", "sphere-moment", "quadric-moment", "transform", "diagram"])
def test_converge_rejects_the_suite(quantity, capsys):
    # a sweep follows one polynomial; the suite is for isometry
    assert main(["converge", "--quantity", quantity, "--poly", "suite", "--N", "10,100"]) == 2
    captured = capsys.readouterr()
    assert "error: converge sweeps one polynomial" in captured.err and captured.out == ""


def test_unwritable_out_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "f.csv"
    assert main(["isometry", "--poly", "x1", "--N", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.exists()


def _readme_cli_examples():
    """(argv, expected stdout) of each `$ sbtlab ...` line of the README's console
    blocks that is followed by output, up to the next blank or `$` line."""
    examples, current, console = [], None, False
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            console, current = line == "```console", None
        elif not console:
            continue
        elif line.startswith("$ sbtlab "):
            current = (shlex.split(line[2:], comments=True)[1:], [])
            examples.append(current)
        elif line.startswith("$ ") or not line:
            current = None
        elif current is not None:
            current[1].append(line)
    return [(argv, "".join(f"{out}\n" for out in lines)) for argv, lines in examples if lines]


def test_readme_cli_output_is_what_the_cli_prints(capsys):
    examples = _readme_cli_examples()
    assert examples
    for argv, expected in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, argv


def test_parse_rejects_non_finite_coefficients():
    with pytest.raises(PolyParseError) as info:
        parse_poly("x2 - 1e400*x1")
    assert "column 6" in str(info.value)
    with pytest.raises(PolyParseError) as info:
        parse_poly("x2 + 1e200*1e200*x1")
    assert "column 6" in str(info.value)


def test_parsed_float_coefficients_do_not_depend_on_term_order():
    # the exact sum of the three binary values, rounded once
    for text in ("0.1*x1 + 0.2*x1 + 0.3*x1", "0.3*x1 + 0.2*x1 + 0.1*x1",
                 "0.2*x1 + 0.3*x1 + 0.1*x1"):
        assert parse_poly(text).terms[(1,)].hex() == "0x1.3333333333333p-1"
    # x2^0 is the monomial 1, and x1*x2^0 is x1
    assert parse_poly("x2^0 + 1") == RealPoly.constant(2)
    assert parse_poly("x1*x2^0 + 0.5*x1") == RealPoly({(1,): 1.5}, "float")
    # a product of literals is rounded once too
    assert parse_poly("0.1*0.2*0.3*x1").terms[(1,)] == float(
        Fraction(0.1) * Fraction(0.2) * Fraction(0.3))


def test_parse_reports_only_a_rounded_coefficient_that_overflows():
    assert parse_poly("1e308*x1 + 1e308*x1 - 1e308*x1").terms == {(1,): 1e308}
    assert parse_poly("1e200*1e200*x1 - 1e200*1e200*x1 + x2").terms == {(0, 1): 1.0}
    with pytest.raises(PolyParseError) as info:
        parse_poly("1e308*x1 + 1e308*x1 + x2")
    assert "column 12" in str(info.value)


def test_a_nan_gap_fails_the_tolerance(monkeypatch, capsys):
    def nan_report(p, tag):
        return transforms.TransformResult(p, None, tag, 1.0, math.nan)

    monkeypatch.setattr(transforms, "unitarity_report", nan_report)
    assert main(["isometry", "--poly", "x1", "--N", "10,100", "--T", "1.0"]) == 1
    assert ",nan,nan" in capsys.readouterr().out
    assert main(["verify", "--k", "2", "--deg", "3"]) == 1
    assert "FAIL unitarity: worst relative norm gap nan" in capsys.readouterr().out


def test_cold_import_needs_only_numpy():
    # the package and its CLI run on numpy alone; scipy, sympy, mpmath and
    # hypothesis serve the tests
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sbtlab

    src = str(Path(sbtlab.__file__).resolve().parent.parent)
    code = ("import sys, sbtlab, sbtlab.cli; "
            "print(sorted(m for m in ('scipy', 'sympy', 'mpmath', 'hypothesis') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_python_m_sbtlab_prints_the_readme_block():
    import os
    import subprocess
    import sys

    import sbtlab

    src = str(Path(sbtlab.__file__).resolve().parent.parent)
    argv = ["isometry", "--poly", "x1", "--N", "10,100", "--T", "1.0"]
    [expected] = [out for args, out in _readme_cli_examples() if args == argv]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "sbtlab", *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == expected


def test_calls_in_one_process_print_what_a_fresh_process_prints(monkeypatch, capsys):
    # one parser serves every main() call: no subcommand's defaults or flags
    # reach the next call, and --help and the usage errors read as before
    import os
    import subprocess

    import sbtlab

    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal's width
    env = {**os.environ, "PYTHONPATH": str(Path(sbtlab.__file__).resolve().parent.parent)}
    runs = [
        ["isometry", "--poly", "x1^2", "--N", "5", "--T", "0.5,1", "--tol", "0", "--format", "json"],
        ["converge", "--quantity", "laplacian", "--N", "10,100"],
        ["isometry", "--poly", "x1^2", "--N", "5"],
        ["verify", "--deg", "2", "--tol", "1e-300"],
        ["isometry", "--help"],
        ["converge", "--quantity", "bogus"],
        ["verify", "--seed", "x"],
        [],
    ]
    for argv in runs:
        fresh = subprocess.run([sys.executable, "-m", "sbtlab", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
