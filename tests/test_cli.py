import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from harmgraphs import boundary, cli, harmonic, interp
from harmgraphs.cli import EXIT_CHECK_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from harmgraphs.exact import ShapeError, SingularMatrixError
from harmgraphs.partitions import partitions_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "--family", "young-zz:e=3,t=2", "--mu", "2")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_parameter_error_exits_2(capsys):
    code, _, err = run(capsys, "phi", "--family", "young-zz:e=3,t=0", "--mu", "1")
    assert code == EXIT_USAGE
    assert "forbidden" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "phi", "--family", "nope:t=1", "--mu", "1")
    assert code == EXIT_USAGE


def test_measure_csv_rows_sum_to_one(capsys):
    code, out, _ = run(
        capsys, "measure", "--family", "kingman:t=1,alpha=0", "--n", "4", "--out", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "check,instance,lhs,rhs,ok"
    body = [l for l in lines[1:] if l.startswith("measure")]
    assert len(body) == 5  # partitions of 4
    assert lines[-1].startswith("normalization") and lines[-1].endswith("True")


def test_check_harmonic_passes(capsys):
    code, out, _ = run(
        capsys, "check-harmonic", "--family", "trunc-young:lambda=2+1", "--levels", "5"
    )
    assert code == EXIT_OK
    assert "summary:" in out and "0 failed" in out


def test_check_harmonic_positivity_failure(capsys):
    code, out, _ = run(
        capsys, "check-harmonic", "--family", "schur:t=-1/2", "--levels", "4"
    )
    assert code == EXIT_CHECK_FAILED
    assert "FAIL  positivity" in out


def test_check_harmonic_forbidden_parameter_is_usage_error(capsys):
    code, out, err = run(
        capsys, "check-harmonic", "--family", "schur:t=-1", "--levels", "4"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --family:" in err and "forbidden" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == EXIT_USAGE
    assert "invalid choice: 'nonsense'" in err


def test_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    listed = {line.split()[0]: line.split(None, 1)[1] for line in out.split("commands:\n")[1].splitlines()}
    assert listed == {name: command.help for name, command in cli._COMMANDS.items()}


SUITE_FLAGS = {name for suite in cli._SUITES.values() for names, _ in suite.flags for name in names}


@pytest.mark.parametrize("suite", cli._SUITES)
def test_a_suite_accepts_only_the_flags_it_reads(capsys, suite):
    declared = {name for names, _ in cli._SUITES[suite].flags for name in names}
    for flag in sorted(SUITE_FLAGS - declared):
        code, out, err = run(capsys, "verify", suite, flag, "1")
        assert (code, out) == (EXIT_USAGE, ""), flag
        assert f"unrecognized arguments: {flag} 1" in err
    code, out, _ = run(capsys, "verify", suite, "--help")
    assert code == EXIT_OK
    assert out.startswith(f"usage: harmgraphs verify {suite} ")


def _flag_cell(names, kwargs):
    bound = getattr(kwargs.get("type"), "bound", None)
    if "choices" in kwargs:
        bound = "one of " + ", ".join(kwargs["choices"])
    text = "/".join(f"`{n}`" for n in names) + f" {kwargs['default'] or 'none'}"
    return f"{text} ({bound})" if bound else text


def test_readme_suite_table_matches_the_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = line.strip("|").split(" | ")
        if line.startswith("| `") and cells[0].strip(" `") in cli._SUITES:
            rows[cells[0].strip(" `")] = cells[1].strip()
    assert rows == {
        name: "; ".join(_flag_cell(*flag) for flag in suite.flags)
        for name, suite in cli._SUITES.items()
    }


def _readme_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["harmgraphs"]]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples_run(capsys, argv):
    # every example is a route that exists: it checks and reports, never a usage error
    code, out, err = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED), err
    assert out and not err


def test_integral_verify_single_instance(capsys):
    code, out, _ = run(
        capsys,
        "integral-verify",
        "--graph",
        "kingman",
        "--lambda",
        "1+1",
        "--mu",
        "2",
    )
    assert code == EXIT_OK
    assert "lhs=3/5 rhs=3/5" in out


def test_integral_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "integral-verify",
        "--graph",
        "young",
        "--lambda",
        "2+1",
        "--mu",
        "1+1",
        "--out",
        "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "harmgraphs-report/1"
    assert doc["summary"] == {"passed": 1, "failed": 0}
    (row,) = doc["rows"]
    assert row["check"] == "selberg-young"
    assert row["lhs"] == row["rhs"]


def test_density_command(capsys):
    code, out, _ = run(
        capsys, "density", "--graph", "young", "--lambda", "1+1", "--at", "3/4,1/4"
    )
    assert code == EXIT_OK
    assert out.strip() == "45/16"


def test_young_density_at_repeated_coordinates(capsys):
    # the squared Vandermonde vanishes there, whatever the size of lambda
    code, out, _ = run(
        capsys, "density", "--graph", "young", "--lambda", "13+1", "--at", "1/2,1/2"
    )
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_dims_command(capsys):
    code, out, _ = run(capsys, "dims", "--kind", "schur", "--level", "4")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "level,partition,dim"
    assert "4,3+1,2" in out


def test_converge_small(capsys):
    code, out, _ = run(
        capsys,
        "converge",
        "--family",
        "trunc-kingman:lambda=1+1",
        "--n",
        "30,60",
        "--ratio-tol",
        "0.2",
        "--out",
        "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    checks = {row["check"] for row in doc["rows"]}
    assert "convergence-mass" in checks and "convergence-monotone" in checks


def test_reports_are_deterministic(capsys):
    argv = [
        "verify",
        "pfaffian",
        "--points",
        "4",
        "--max-size",
        "6",
        "--seed",
        "11",
        "--out",
        "json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_workers_match_serial(capsys):
    base = ["verify", "selberg", "--graph", "gamma", "--max-size", "3", "--out", "json"]
    _, serial, _ = run(capsys, *base)
    _, parallel, _ = run(capsys, *base, "--workers", "4")
    assert serial == parallel


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "measure",
        "--family",
        "schur:t=3",
        "--n",
        "3",
        "--out",
        "csv",
        "--output",
        str(path),
    )
    assert code == EXIT_OK
    assert path.exists()
    assert "wrote" in out
    assert path.read_text().startswith("check,instance")


def test_density_inside_the_face(capsys):
    code, out, _ = run(capsys, "density", "--graph", "schur", "--lambda", "3+1", "--at", "2/3,1/3")
    assert code == EXIT_OK
    assert out.strip() == "40/27"


@pytest.mark.parametrize(
    "graph,lam,point,value",
    [
        # 12 * m_21(3/4, 1/4)
        ("kingman", "2+1", "3/4,1/4", "9/4"),
        ("kingman", "3+1+1", "1/2,1/4,1/8", "2205/256"),
        # 6 * alpha beta / (alpha + beta) at the hook (1|1)
        ("gamma", "2+1", "1/2;1/4", "1"),
        ("gamma", "3+2", "1/2,1/8;1/4,1/16", "15"),
    ],
)
def test_density_values_on_the_kingman_and_gamma_faces(capsys, graph, lam, point, value):
    code, out, _ = run(capsys, "density", "--graph", graph, "--lambda", lam, "--at", point)
    assert code == EXIT_OK
    assert out.strip() == value


def test_gamma_density_point_needs_two_blocks(capsys):
    code, out, err = run(capsys, "density", "--graph", "gamma", "--lambda", "2+1", "--at", "1/2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "alpha;beta" in err


@pytest.mark.parametrize("graph,lam", [("young", "2+1"), ("kingman", "2+1"), ("schur", "3+1")])
@pytest.mark.parametrize(
    "point,message",
    [
        ("1/2", "2 coordinates, got 1"),
        ("1/2,1/4,1/8", "2 coordinates, got 3"),
        ("1/2,-1/4", "nonnegative"),
        ("3,4", "sum <= 1"),
        ("2/3,1/2", "sum <= 1"),
    ],
    ids=["too-few", "too-many", "negative", "far-outside", "sum-above-one"],
)
def test_density_rejects_points_outside_the_face(capsys, graph, lam, point, message):
    code, out, err = run(capsys, "density", "--graph", graph, "--lambda", lam, "--at", point)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(
        capsys, "measure", "--family", "young-zz:e=1,t=1", "--n", "3", "--output", str(target)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "--output" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "pfaffian", "--max-size", "1"), "--max-size: must be an integer >= 2"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "-5"), "--n"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "0"), "--n"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10,0"), "--n"),
        (("converge", "--family", "young-zz:e=1,t=1", "--n", "5"), "truncated family"),
        (("verify", "pieri", "--max-size", "-1"), "--max-size: must be an integer >= 0"),
        (("verify", "pieri", "--points", "0"), "--points: must be an integer >= 1"),
        (("verify", "kernels", "--levels", "0"), "--levels: must be an integer >= 1"),
        (("verify", "kernels", "--levels", "-3"), "--levels: must be an integer >= 1"),
        (("verify", "kernels", "--points", "0"), "--points: must be an integer >= 1"),
        (("verify", "selberg", "--graph", "nope"), "--graph"),
        (("verify", "selberg", "--graph", "nope", "--lam", "2+1"), "--graph"),
        # one route per check: phi, check-harmonic and integral-verify
        (("verify", "selberg", "--graph", "young", "--lam", "2+1"), "unrecognized arguments: --lam"),
        (("eval", "phi", "--family", "schur:t=3", "--mu", "2+1"), "invalid choice: 'eval'"),
        (("verify", "harmonicity"), "invalid choice: 'harmonicity'"),
        (("verify", "dimension-ratio", "--graph", "kingman"), "unrecognized arguments: --graph"),
        # suite flags follow the suite name
        (("verify", "--seed", "7", "pieri"), "--seed: flags follow the suite name"),
        (("--levels", "3", "check-harmonic"), "--levels: flags follow the command name"),
        # ranges that admit no check
        (("verify", "pfaffian", "--points", "0"), "--points: must be an integer >= 1"),
        (("verify", "interpolation", "--max-size", "-2"), "--max-size: must be an integer >= 1"),
        (("verify", "interpolation", "--max-size", "0"), "--max-size: must be an integer >= 1"),
        (("verify", "staircase", "--k-max", "0"), "--k-max: must be an integer >= 1"),
        (("verify", "lattice", "--levels", "0"), "--levels: must be an integer >= 1"),
        (("verify", "dimension-ratio", "--mu-max", "-1"), "--mu-max: must be an integer >= 0"),
        (("verify", "degeneration", "--levels", "-1"), "--levels: must be an integer >= 0"),
        (("verify", "dimensions", "--max-size", "-1", "--strict-max-size", "-1"),
         "--max-size: must be an integer >= 0"),
        (("verify", "selberg", "--graph", "schur", "--max-size", "1"), "the selberg suite"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10", "--resolution", "0"),
         "--resolution"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10", "--resolution", "-2"),
         "--resolution"),
        # a separation fraction outside (0, 1) selects no vertex or every vertex
        *[(("converge", "--family", "trunc-young:lambda=2+1", "--n", "10", "--interior", f),
           "--interior") for f in ("3", "0", "-1", "1")],
        (("dims", "--kind", "young", "--level", "3", "--max-length", "-1"), "--max-length"),
        (("phi", "--family", "young-zz:e=1,t=2", "--mu", "2+3"),
         "parts must be nonincreasing: (2, 3)"),
        # the face checks lambda as its truncated family does
        (("density", "--graph", "kingman", "--lambda", "0", "--at", "1/2"),
         "kingman face needs a nonempty partition"),
        (("density", "--graph", "schur", "--lambda", "0", "--at", "1/2"),
         "schur face needs a nonempty strict partition"),
        # a malformed number names its flag
        (("density", "--graph", "kingman", "--lambda", "2+1", "--at", "1/2,"), "--at"),
        (("density", "--graph", "kingman", "--lambda", "2+1", "--at", "1/0,1/2"), "--at"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10,x"), "--n"),
        # a repeated level would compare a distance with itself
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "5,5"),
         "argument --n: levels must be distinct, got '5,5'"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10", "--interior", "x"),
         "--interior"),
        # a family parameter the family does not read, or reads twice, is named
        (("phi", "--family", "young-zz:e=1,t=2,foo=3", "--mu", "1"),
         "family 'young-zz' has no parameter 'foo'"),
        (("phi", "--family", "trunc-young:lambda=2+1,theta=2", "--mu", "1"),
         "family 'trunc-young' has no parameter 'theta'"),
        (("phi", "--family", "schur:t=2,t=3", "--mu", "1"), "family parameter 't' is given twice"),
        (("phi", "--family", "gamma:lambda=2+1,cap=x", "--mu", "1"),
         "gamma parameter 'cap' must be a positive integer, not 'x'"),
        # the cap errors name the spec key
        (("phi", "--family", "gamma:lambda=2+1,cap=0", "--mu", "1"),
         "gamma parameter 'cap' must be a positive integer, not 0"),
        (("check-harmonic", "--family", "gamma:lambda=2+1,cap=8", "--levels", "9"),
         "cap=8 exceeded at |mu| = 9; raise cap"),
        # a malformed family value names its key
        (("phi", "--family", "jack:e=1,t=1,theta=1/0", "--mu", "1"),
         "family parameter 'theta': malformed value '1/0'"),
        (("phi", "--family", "young-zz:e=x,t=2", "--mu", "1"),
         "family parameter 'e': malformed value 'x'"),
        (("phi", "--family", "trunc-young:lambda=2+x", "--mu", "1"),
         "family parameter 'lambda': malformed value '2+x'"),
        # a tolerance or precision no partial sum can meet
        *[(("verify", "gauss", "--tol", t), "--tol: must be a positive finite number")
          for t in ("0", "-1")],
        *[(("verify", "gauss", "--precision", b), "--precision: must be an integer >= 1") for b in ("0", "-5")],
        # a tolerance no ratio can meet, and levels below the start vertex
        *[(("converge", "--family", "trunc-young:lambda=2+1", "--n", "10", "--ratio-tol", t),
           "--ratio-tol: must be a positive finite number") for t in ("-1", "0", "nan", "inf")],
        (("check-harmonic", "--family", "young-zz:e=1,t=1", "--levels", "0"), "--levels: must be an integer >= 1"),
        (("measure", "--family", "young-zz:e=1,t=1", "--n", "-1"), "--n: must be an integer >= 0"),
        (("dims", "--kind", "young", "--level", "-1"), "--level: must be an integer >= 0"),
        # an unknown or malformed graph kind names its flag and the value
        *[(("dims", "--kind", k, "--level", "3"),
           f"argument --kind: graph kind {k!r} is none of young, jack(theta > 0), kingman, schur")
          for k in ("foo", "strict", "jack(1/0)", "jack(x)")],
        # a malformed partition or family spec names its flag
        (("phi", "--family", "young-zz:e=1,t=1", "--mu", "abc"),
         "argument --mu: invalid literal for int() with base 10: 'abc'"),
        (("integral-verify", "--graph", "young", "--lambda", "2+x"),
         "argument --lambda: invalid literal for int() with base 10: 'x'"),
        (("phi", "--family", "nope", "--mu", "1"), "argument --family: unknown family 'nope'"),
    ],
    ids=["pfaffian-size-1", "converge-negative-n", "converge-zero-n", "converge-zero-in-list",
         "converge-untruncated", "pieri-negative-size", "pieri-no-points", "kernels-zero-levels",
         "kernels-negative-levels", "kernels-no-points", "selberg-unknown-graph",
         "selberg-unknown-graph-single", "selberg-lam-refused", "eval-refused",
         "verify-harmonicity-refused", "dimension-ratio-graph",
         "verify-flag-before-suite", "flag-before-command", "pfaffian-no-points", "interpolation-negative-size", "interpolation-zero-size",
         "staircase-zero-k", "lattice-zero-levels", "dimension-ratio-negative-mu",
         "degeneration-negative-levels", "dimensions-negative-sizes", "selberg-schur-size-1",
         "converge-zero-resolution",
         "converge-negative-resolution", "converge-interior-3", "converge-interior-0",
         "converge-interior-negative", "converge-interior-1", "dims-negative-max-length",
         "phi-increasing-mu", "density-kingman-empty-lambda", "density-schur-empty-lambda",
         "density-malformed-at", "density-zero-denominator", "converge-malformed-n",
         "converge-repeated-n", "converge-malformed-interior", "family-unknown-key",
         "family-key-of-another-family", "family-repeated-key", "family-malformed-cap",
         "family-zero-cap", "check-harmonic-past-the-cap",
         "family-zero-denominator", "family-malformed-rational", "family-malformed-partition",
         "gauss-zero-tol", "gauss-negative-tol", "gauss-zero-precision",
         "gauss-negative-precision", "converge-negative-ratio-tol", "converge-zero-ratio-tol",
         "converge-nan-ratio-tol", "converge-infinite-ratio-tol", "check-harmonic-zero-levels",
         "measure-negative-n", "dims-negative-level", "dims-unknown-kind", "dims-strict-kind",
         "dims-jack-zero-denominator", "dims-jack-malformed-theta", "phi-malformed-mu",
         "integral-verify-malformed-lambda", "phi-unknown-family"],
)
def test_out_of_domain_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,rows",
    [
        # mu = () at one point: s, m, s*, m* and P*
        (("verify", "pieri", "--max-size", "0", "--points", "1"), 5),
        # mu = () at one point, on the Young and the Kingman graph
        (("verify", "kernels", "--levels", "1", "--points", "1"), 2),
        # mu = () at n = 1, bounds and idempotent; mu = (1) has no level above it
        (("verify", "lattice", "--levels", "1"), 2),
    ],
    ids=["pieri-smallest", "kernels-smallest", "lattice-smallest"],
)
def test_smallest_accepted_suites_run_checks(capsys, argv, rows):
    code, out, _ = run(capsys, *argv, "--out", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["rows"]) == rows


@pytest.mark.parametrize(
    "graph,lam,mu",
    [
        ("young", "1+1+1+1+1+1", "1+1"),
        ("young", "7+6+5+4+3+2+1", "3+2+1"),
        ("schur", "7+5+4+3+2+1", "6+5+4+3+2+1"),
        ("gamma", "6+6+6+6+6+6", "7+6+6+6+6+6"),
        # mu = (): one Pfaffian and one determinant by de Bruijn's formula
        ("schur", "6+5+4+3+2+1", "0"),
        ("gamma", "6+6+6+6+6+6", "0"),
        # kingman: one rising-power monomial table of lambda, not its 6! or 7!/4! arrangements
        ("kingman", "1+1+1+1+1+1", "0"),
        ("kingman", "6+5+4+3+2+1", "2+1"),
        ("kingman", "4+3+2+1+1+1+1", "3+1"),
    ],
)
def test_integral_verify_on_faces_wider_than_the_expansion_cap(capsys, graph, lam, mu):
    # determinant, Pfaffian and table routes: no permutation or matching is expanded
    code, out, _ = run(capsys, "integral-verify", "--graph", graph, "--lambda", lam, "--mu", mu)
    assert code == EXIT_OK
    assert out.endswith("summary: 1 passed, 0 failed\n")


def test_gamma_family_never_calls_the_generator_basis_engine(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("the generator-basis engine is a test oracle")

    monkeypatch.setattr(interp, "_basis_inverse", refuse)
    code, out, _ = run(
        capsys, "check-harmonic", "--family", "gamma:lambda=2+1,cap=14", "--levels", "14"
    )
    assert code == EXIT_OK
    assert "0 failed" in out


def _count_monomial_tables(monkeypatch, module):
    """Patch module's `monomial_tables` to count closures built and tables filled from them."""
    counts = {"closures": 0, "tables": 0, "points": []}

    def counted(shapes):
        counts["closures"] += 1
        table = interp.monomial_tables(shapes)

        def fill(xs, power):
            counts["tables"] += 1
            counts["points"].append(tuple(xs))
            return table(xs, power)

        return fill

    monkeypatch.setattr(module, "monomial_tables", counted)
    return counts


def test_pieri_fills_an_m_and_an_m_star_table_per_point_from_one_closure(monkeypatch, capsys):
    counts = _count_monomial_tables(monkeypatch, cli)
    code, out, _ = run(capsys, "verify", "pieri", "--points", "3", "--max-size", "4")
    assert code == EXIT_OK and "0 failed" in out
    assert counts["closures"] == 1 and counts["tables"] == 2 * 3


def test_kernels_fill_one_m_table_per_point(monkeypatch, capsys):
    counts = _count_monomial_tables(monkeypatch, boundary)
    code, out, _ = run(capsys, "verify", "kernels", "--points", "4", "--levels", "5")
    assert code == EXIT_OK and "0 failed" in out
    assert counts["closures"] == 1 and counts["tables"] == 4


def test_selberg_kingman_sweep_fills_one_table_per_family_and_size(monkeypatch, capsys):
    # every face partition of size <= 6 and length 1 to 3 is one TruncKingman, whose level
    # form reads its mus of each size 0 to 6 from one m* closure of them
    counts = _count_monomial_tables(monkeypatch, harmonic)
    code, out, _ = run(capsys, "verify", "selberg", "--graph", "kingman", "--max-size", "6")
    assert code == EXIT_OK and "0 failed" in out
    families = [lam for n in range(1, 7) for lam in partitions_of(n) if lam.length <= 3]
    assert counts["closures"] == counts["tables"] == 7 * len(families) == 7 * 22
    assert sorted(counts["points"]) == sorted(7 * [tuple(-p - 1 for p in lam.parts) for lam in families])


def test_trunc_kingman_harmonicity_builds_one_closure_per_level(monkeypatch):
    counts = _count_monomial_tables(monkeypatch, harmonic)
    assert harmonic.check_harmonicity(harmonic.parse_family("trunc-kingman:lambda=2+1+1"), 8).ok
    assert counts["closures"] == counts["tables"] == 9  # levels 0 to 8


@pytest.mark.parametrize(
    "family,n,rows", [("trunc-kingman:lambda=2+1+1", "60", 331), ("trunc-young:lambda=3+1", "2000", 1001)]
)
def test_truncated_measure_reads_its_face(family, n, rows):
    # the face's level weights, one row per vertex within the width: the sweep over every
    # partition of n ran out of memory at n = 60
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["-m", "harmgraphs.cli", "measure", "--family", family, "--n", n]
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.count(f"PASS  measure  n={n} lambda=") == rows and "0 failed" in out.stdout


def test_width3_converge_runs_in_bounded_memory():
    # each level is streamed as runs and none is held as a list: under a 200 MB address-space
    # cap (on the child only) the level of 1 335 334 vertices at n = 4000 reaches its report
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["-m", "harmgraphs.cli", "converge", "--family", "trunc-young:lambda=2+1+1", "--n", "4000"]
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
    out = subprocess.run(
        [sys.executable, *argv, "--interior", "1/8"], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap,
    )
    assert "MemoryError" not in out.stderr
    assert out.returncode == EXIT_OK, out.stderr
    assert "interior=83834" in out.stdout and "0 failed" in out.stdout


@pytest.mark.parametrize(
    "error,code",
    [
        (SingularMatrixError("singular system"), EXIT_INTERNAL),
        (ShapeError("ragged rows"), EXIT_INTERNAL),
        (ValueError("a domain error"), EXIT_USAGE),
    ],
)
def test_internal_errors_exit_apart_from_usage_errors(monkeypatch, capsys, error, code):
    def broken(m):
        raise error

    monkeypatch.setattr(cli, "det", broken)
    got, out, err = run(capsys, "verify", "pfaffian")
    assert got == code
    assert out == ""
    assert str(error) in err
    assert err.startswith("internal error:" if code == EXIT_INTERNAL else "error:")


def test_zero_division_escapes_main(monkeypatch):
    def broken(m):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "det", broken)
    with pytest.raises(ZeroDivisionError):
        main(["verify", "pfaffian"])


def test_converge_runs_without_loading_mpmath():
    # only `verify gauss` computes in floats; every other start skips the import
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = (
        "import contextlib, io, sys\n"
        "import harmgraphs.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['converge', '--family', 'trunc-young:lambda=2+1', '--n', '50,100'])\n"
        "print(rc, 'mpmath' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(EXIT_CHECK_FAILED), "False"]


def test_import_builds_no_dataclass():
    # the records and values are named tuples and plain classes, so a cold start
    # imports neither dataclasses nor the inspect (and ast, dis) it pulls in
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import harmgraphs.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
