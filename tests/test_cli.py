import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from harmgraphs import cli, interp
from harmgraphs.cli import EXIT_CHECK_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from harmgraphs.exact import ShapeError, SingularMatrixError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "--family", "young-zz:e=3,t=2", "--mu", "2")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_eval_alias(capsys):
    code, out, _ = run(capsys, "eval", "phi", "--family", "schur:t=3", "--mu", "2+1")
    assert code == EXIT_OK
    assert out.strip() == "1/5"


def test_parameter_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "phi", "--family", "young-zz:e=3,t=0", "--mu", "1")
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


def test_verify_harmonicity_positivity_failure(capsys):
    code, out, _ = run(
        capsys, "verify", "harmonicity", "--family", "schur:t=-1/2", "--levels", "4"
    )
    assert code == EXIT_CHECK_FAILED
    assert "FAIL  positivity" in out


def test_verify_forbidden_parameter_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "harmonicity", "--family", "schur:t=-1", "--levels", "4"
    )
    assert code == EXIT_USAGE


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == EXIT_USAGE
    assert "available" in err


def test_verify_selberg_single_instance(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "selberg",
        "--graph",
        "kingman",
        "--lam",
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
        (("verify", "pfaffian", "--max-size", "1"), "--max-size >= 2"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "-5"), "--n"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "0"), "--n"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10,0"), "--n"),
        (("converge", "--family", "young-zz:e=1,t=1", "--n", "5"), "truncated family"),
        (("verify", "pieri", "--max-size", "-1"), "--max-size >= 0"),
        (("verify", "pieri", "--points", "0"), "--points >= 1"),
        (("verify", "kernels", "--levels", "0"), "--levels >= 1"),
        (("verify", "kernels", "--levels", "-3"), "--levels >= 1"),
        (("verify", "kernels", "--points", "0"), "--points >= 1"),
        (("verify", "selberg", "--graph", "nope"), "--graph"),
        (("verify", "selberg", "--graph", "nope", "--lam", "2+1"), "--graph"),
        (("verify", "selberg", "--lam", "2+1"), "needs one face: pass --graph"),
        # ranges that admit no check
        (("verify", "pfaffian", "--points", "0"), "the pfaffian suite"),
        (("verify", "interpolation", "--max-size", "-2"), "the interpolation suite"),
        (("verify", "interpolation", "--max-size", "0"), "the interpolation suite"),
        (("verify", "staircase", "--k-max", "0"), "the staircase suite"),
        (("verify", "lattice", "--levels", "0"), "the lattice suite"),
        (("verify", "dimension-ratio", "--mu-max", "-1"), "the dimension-ratio suite"),
        (("verify", "degeneration", "--levels", "-1"), "the degeneration suite"),
        (("verify", "dimensions", "--max-size", "-1", "--strict-max-size", "-1"),
         "the dimensions suite"),
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
        # the kingman arrangements still expand l!/prod(r_v!) terms
        (("integral-verify", "--graph", "kingman", "--lambda", "1+1+1+1+1+1"),
         "face dimension 6 exceeds the permutation-expansion cap 5"),
        # a malformed number names its flag
        (("density", "--graph", "kingman", "--lambda", "2+1", "--at", "1/2,"), "--at"),
        (("density", "--graph", "kingman", "--lambda", "2+1", "--at", "1/0,1/2"), "--at"),
        (("converge", "--family", "trunc-young:lambda=2+1", "--n", "10,x"), "--n"),
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
        # a malformed family value names its key
        (("phi", "--family", "jack:e=1,t=1,theta=1/0", "--mu", "1"),
         "family parameter 'theta': malformed value '1/0'"),
        (("phi", "--family", "young-zz:e=x,t=2", "--mu", "1"),
         "family parameter 'e': malformed value 'x'"),
        (("phi", "--family", "trunc-young:lambda=2+x", "--mu", "1"),
         "family parameter 'lambda': malformed value '2+x'"),
    ],
    ids=["pfaffian-size-1", "converge-negative-n", "converge-zero-n", "converge-zero-in-list",
         "converge-untruncated", "pieri-negative-size", "pieri-no-points", "kernels-zero-levels",
         "kernels-negative-levels", "kernels-no-points", "selberg-unknown-graph",
         "selberg-unknown-graph-single", "selberg-single-without-graph",
         "pfaffian-no-points", "interpolation-negative-size", "interpolation-zero-size",
         "staircase-zero-k", "lattice-zero-levels", "dimension-ratio-negative-mu",
         "degeneration-negative-levels", "dimensions-negative-sizes", "converge-zero-resolution",
         "converge-negative-resolution", "converge-interior-3", "converge-interior-0",
         "converge-interior-negative", "converge-interior-1", "dims-negative-max-length",
         "phi-increasing-mu", "density-kingman-empty-lambda", "density-schur-empty-lambda",
         "integral-verify-kingman-above-cap", "density-malformed-at", "density-zero-denominator",
         "converge-malformed-n", "converge-malformed-interior", "family-unknown-key",
         "family-key-of-another-family", "family-repeated-key", "family-malformed-cap",
         "family-zero-denominator", "family-malformed-rational", "family-malformed-partition"],
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
    ],
)
def test_integral_verify_on_faces_wider_than_the_expansion_cap(capsys, graph, lam, mu):
    # determinant routes: no permutation or matching is expanded
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
