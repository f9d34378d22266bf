"""Command-line surface: evaluation, enumeration, verification suites.

Reports are deterministic (fixed ordering, seeded randomness, no
timestamps): identical invocations produce byte-identical output.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parameter error, 3 internal error (a singular or misshapen matrix).

Each command and `verify` suite declares only the flags it reads, each
number with its range (`_COMMANDS`, `_SUITES`), and only the parser of the
one that runs is built; argparse names any other flag or value, and only
checks across flags or of files are hand-written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction
from math import isfinite, perm
from typing import Callable, NamedTuple

from . import __version__
from .exact import (
    RationalMatrix,
    ShapeError,
    SingularMatrixError,
    as_rational,
    det,
    format_bigfloat,
    format_rational,
    integer_point,
    pfaffian,
)
from .graphs import (
    KINGMAN,
    SCHUR,
    YOUNG,
    covers_up,
    dim_closed_form,
    dims_csv,
    jack_weight,
    parse_kind,
    sweep,
)
from .harmonic import (
    JackZZ,
    YoungZZ,
    check_harmonicity,
    lattice_level_sums,
    level_measure,
    parse_family,
)
from .interp import (
    complete_numerators,
    gauss_2f1_check,
    jacobi_trudi_det,
    monomial_tables,
    pstar_values,
    schur_t_functional,
    shifted_schur_columns,
)
from .boundary import (
    FACES,
    ThomaPoint,
    convergence_experiment,
    density_spec,
    kingman_kernel_table,
    run_vertices,
    selberg_rows,
    young_kernel_table,
)
from .partitions import Partition, partitions_of, partitions_up_to

REPORT_SCHEMA = "harmgraphs-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class Report:
    def __init__(self, command: str):
        self.command, self.rows = command, []

    def add(self, check: str, instance: str, lhs, rhs, ok: bool) -> None:
        self.rows.append(
            {
                "check": check,
                "instance": instance,
                "lhs": _encode(lhs),
                "rhs": _encode(rhs),
                "ok": bool(ok),
            }
        )

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r["ok"])

    @property
    def failed(self) -> int:
        return len(self.rows) - self.passed

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "rows": self.rows,
            "summary": {"passed": self.passed, "failed": self.failed},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["check", "instance", "lhs", "rhs", "ok"])
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            mark = "PASS" if row["ok"] else "FAIL"
            detail = f"  lhs={row['lhs']} rhs={row['rhs']}" if row["lhs"] or row["rhs"] else ""
            lines.append(f"{mark}  {row['check']}  {row['instance']}{detail}")
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines) + "\n"


def _encode(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _emit(report: Report, args) -> int:
    fmt, output = args.out, args.output
    payload = {"text": report.to_text, "json": report.to_json, "csv": report.to_csv}[fmt]()
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --output {output}: {exc.strerror}") from exc
        print(f"wrote {output}")
        if fmt == "text":
            print(f"summary: {report.passed} passed, {report.failed} failed")
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.failed == 0 else EXIT_CHECK_FAILED


def _parsed(parse):
    """An argparse `type` from a parser of a flag's text: argparse names the flag of a
    value the parser refuses, with the parser's own message."""

    def read(text: str):
        try:
            return parse(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _ranged(parse, ok, bound: str):
    """An argparse `type`: one number that `parse` reads and `ok` accepts; `bound`
    names those in the usage error and in the README's table of suite flags."""
    read = _parsed(parse)

    def check(text: str):
        value = read(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    check.bound = bound
    return check


def _at_least(k: int):
    return _ranged(int, lambda v: v >= k, f"an integer >= {k}")


_POSITIVE = _ranged(float, lambda v: v > 0 and isfinite(v), "a positive finite number")


def _levels(text: str) -> list[int]:
    """An argparse `type`: comma-separated distinct levels, each at least 1."""
    ns = [_at_least(1)(n) for n in text.split(",")]
    if len(set(ns)) < len(ns):
        raise argparse.ArgumentTypeError(f"levels must be distinct, got {text!r}")
    return ns


# ---------------------------------------------------------------------------
# plain evaluation commands
# ---------------------------------------------------------------------------

def cmd_phi(args) -> int:
    print(format_rational(args.family.phi(args.mu)))
    return EXIT_OK


def cmd_measure(args) -> int:
    family = args.family
    if family.face:  # a truncated family: its face's level weights, one per vertex within the width
        scale, runs = FACES[family.face].level_weights(family, args.n)
        weights = [(lam, scale * v) for lam, v in run_vertices(runs)]
    else:
        weights = level_measure(family, args.n).weights
    report = Report(command="measure")
    for lam, weight in weights:
        report.add("measure", f"n={args.n} lambda={lam}", weight, None, True)
    xs, q = integer_point([w for _, w in weights])
    total = Fraction(sum(xs), q)
    report.add("normalization", f"n={args.n} total", total, Fraction(1), total == 1)
    return _emit(report, args)


def cmd_check_harmonic(args) -> int:
    report = Report(command="check-harmonic")
    spec = args.family.spec_string()
    hc = check_harmonicity(args.family, args.levels)
    bad = {v.mu: (v.lhs, v.rhs) for v in hc.violations}
    for mu, _ in hc.phi_values:
        if mu.size == args.levels:
            break
        report.add("harmonicity", f"{spec} mu={mu}", *bad.get(mu, (None, None)), mu not in bad)
    for n, total in enumerate(hc.level_masses[1:], start=1):
        report.add("normalization", f"{spec} n={n}", total, Fraction(1), total == 1)
    for mu, val in hc.phi_values:
        report.add("positivity", f"{spec} phi({mu})", val, None, val >= 0)
    return _emit(report, args)


def cmd_dims(args) -> int:
    sys.stdout.write(dims_csv(args.level, args.kind, max_length=args.max_length))
    return EXIT_OK


def cmd_density(args) -> int:
    spec = density_spec(args.graph, args.lam)
    blocks, point = FACES[args.graph].blocks, args.at
    if len(point) != blocks:
        layout = ";".join(("alpha", "beta")[:blocks])
        raise ValueError(f"--at: a {args.graph} point is {layout} ({blocks} ';'-separated parts), got {len(point)}")
    if len(point) == 1:  # the alpha;beta points of the gamma face have no range check yet
        point = point[0]
        if any(a < 0 for a in point) or sum(point) > 1:
            raise ValueError("a face point needs nonnegative coordinates with sum <= 1")
    print(format_rational(spec.density(point)))
    return EXIT_OK


def cmd_integral_verify(args) -> int:
    report = Report(command="integral-verify")
    _add_selberg_rows(report, args.graph, args.lam, [args.mu])
    return _emit(report, args)


def cmd_converge(args) -> int:
    rep = convergence_experiment(
        args.family,
        args.n,
        resolution=args.resolution,
        interior_fraction=args.interior,
        ratio_tolerance=args.ratio_tol,
    )
    report = Report(command="converge")
    for row in rep.rows:
        report.add(
            "convergence-mass", f"{rep.family} n={row.n}", Fraction(1), None, row.mass_is_one
        )
        report.add(
            "convergence-ratio",
            f"{rep.family} n={row.n} interior={row.interior_points}",
            format_bigfloat(row.max_ratio_error),
            f"tol={rep.ratio_tolerance}",
            rep.ratio_ok(row),
        )
        report.add(
            "convergence-distance",
            f"{rep.family} n={row.n} bins={args.resolution}",
            format_bigfloat(row.binned_distance),
            None,
            True,
        )
    report.add(
        "convergence-monotone",
        f"{rep.family} n={','.join(str(r.n) for r in rep.rows)}",
        None,
        None,
        rep.distances_decreasing,
    )
    return _emit(report, args)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_interpolation(args, report: Report) -> None:
    cap = args.max_size
    strict = partitions_up_to(cap, strict=True)
    # P* at each strict diagram point, for every strict mu at least as large
    p_star = {
        lam: pstar_values([mu for mu in strict if mu.size >= lam.size], lam.parts)
        for lam in strict
    }
    # s* and m* at each diagram point from one column set and one m* table, which
    # serve every mu (both are stable under zero padding); there they are integers
    columns = {lam: shifted_schur_columns(lam.parts, 1, cap, cap) for lam in partitions_up_to(cap)}
    table = monomial_tables(columns)
    m_star = {lam: table(lam.parts, 1) for lam in columns}
    for n in range(1, cap + 1):
        for mu in partitions_of(n):
            for m in range(n + 1):
                for lam in partitions_of(m):
                    if lam == mu:
                        continue
                    s_val = jacobi_trudi_det(mu, columns[lam])
                    m_val = m_star[lam][mu.parts]
                    report.add(
                        "interpolation-vanishing",
                        f"s*/m* mu={mu} lambda={lam}",
                        s_val,
                        m_val,
                        s_val == 0 and m_val == 0,
                    )
        for mu in partitions_of(n, strict=True):
            for m in range(n + 1):
                for lam in partitions_of(m, strict=True):
                    if lam == mu:
                        continue
                    val = p_star[lam][mu]
                    report.add(
                        "interpolation-vanishing",
                        f"P* mu={mu} lambda={lam}",
                        val,
                        Fraction(0),
                        val == 0,
                    )


def _random_point(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(size)
    )


def _suite_pieri(args, report: Report) -> None:
    rng = random.Random(args.seed)
    cap = args.max_size
    shapes = partitions_up_to(cap + 1)
    strict_shapes = [lam for lam in shapes if lam.is_strict]
    # every vertex of size <= cap with its up-edges, young and kingman side by side
    levels = list(zip(sweep(YOUNG, cap + 1), sweep(KINGMAN, cap + 1)))[:-1]
    table = monomial_tables(shapes)
    for trial in range(args.points):
        x = _random_point(rng, cap + 1)
        xs, q = integer_point(x)
        p1 = sum(xs)  # p_1(x) = p1 / q
        # each value, an integer over q^|lam|, is read once as a left side and again
        # under every down-cover; each point's h, s* columns, m and m* serve every lam
        h = [complete_numerators(xs, cap + 1)] * (cap + 1)
        h_star = shifted_schur_columns(xs, q, cap + 1, cap + 1)
        s = {lam: jacobi_trudi_det(lam, h) for lam in shapes}
        s_star = {lam: jacobi_trudi_det(lam, h_star) for lam in shapes}
        m, m_star = table(xs, 0), table(xs, q)
        p_star = pstar_values(strict_shapes, x)
        for (n, young_rows, _, _), (_, kingman_rows, _, _) in levels:
            den = q ** (n + 1)  # both sides of each relation at level n
            for (mu, _, young_covers), (_, _, kingman_covers) in zip(young_rows, kingman_rows):
                sides = (
                    ("pieri-classical", "schur", s[mu] * p1,
                     sum(s[lam] for lam, _ in young_covers)),
                    ("pieri-classical", "monomial", m[mu.parts] * p1,
                     sum(k * m[lam.parts] for lam, k in kingman_covers)),
                    ("pieri-interpolation", "s*", s_star[mu] * p1,
                     n * q * s_star[mu] + sum(s_star[lam] for lam, _ in young_covers)),
                    ("pieri-interpolation", "m*", m_star[mu.parts] * p1,
                     n * q * m_star[mu.parts] + sum(k * m_star[lam.parts] for lam, k in kingman_covers)),
                )
                for check, name, lhs, rhs in sides:
                    report.add(
                        check, f"{name} mu={mu} point#{trial}",
                        Fraction(lhs, den), Fraction(rhs, den), lhs == rhs,
                    )
            for mu in partitions_of(n, strict=True):
                lhs = p_star[mu] * p1 / q
                rhs = n * p_star[mu] + sum(
                    (p_star[lam] for lam in covers_up(mu, SCHUR)), Fraction(0)
                )
                report.add(
                    "pieri-interpolation", f"P* mu={mu} point#{trial}", lhs, rhs, lhs == rhs
                )


def _suite_dimensions(args, report: Report) -> None:
    def check(kind, lam, rec):
        closed = dim_closed_form(lam, kind)
        report.add("dimension-oracle", f"{kind} {lam}", rec, closed, rec == closed)

    levels = zip(sweep(YOUNG, args.max_size), sweep(KINGMAN, args.max_size))
    for (_, young_rows, _, _), (_, kingman_rows, _, _) in levels:
        for (lam, young_dim, _), (_, kingman_dim, _) in zip(young_rows, kingman_rows):
            check(YOUNG, lam, young_dim)
            check(KINGMAN, lam, kingman_dim)
    for _, rows, _, _ in sweep(SCHUR, args.strict_max_size):
        for lam, rec, _ in rows:
            check(SCHUR, lam, rec)


def _suite_dimension_ratio(args, report: Report) -> None:
    """dim(mu, lam) / dim(lam) = s*_mu(lam) / n(n - 1)...(n - |mu| + 1) at n = |lam|,
    s* read from one column set per diagram (s* is stable under zero padding)."""
    d0 = {lam: d for _, rows, _, _ in sweep(YOUNG, args.lam_max) for lam, d, _ in rows}
    columns = {lam: shifted_schur_columns(lam.parts, 1, args.mu_max, args.mu_max) for lam in d0}
    for nn in range(args.mu_max + 1):
        for mu in partitions_of(nn):
            for n_lam, rows, _, _ in sweep(YOUNG, args.lam_max, start=mu):
                dims = {lam: d for lam, d, _ in rows}
                for lam in partitions_of(n_lam):
                    lhs = Fraction(dims.get(lam, 0), d0[lam])
                    rhs = Fraction(jacobi_trudi_det(mu, columns[lam]), perm(n_lam, nn))
                    report.add(
                        "dimension-ratio", f"mu={mu} lambda={lam}", lhs, rhs, lhs == rhs
                    )


def _suite_selberg(args, report: Report) -> None:
    shapes = [p for size in range(1, args.max_size + 1) for p in partitions_of(size)]
    for name, face in FACES.items():
        if args.graph not in ("all", name):
            continue
        for s in face.sweep:
            mus = [Partition(), *(mu for mu in shapes if face.admits(mu, s))]
            for lam in shapes:
                if face.family.accepts(lam) and getattr(lam, face.family.stat) == s:
                    _add_selberg_rows(report, name, lam, mus)


def _add_selberg_rows(report: Report, graph: str, lam: Partition, mus: list[Partition]) -> None:
    for res in selberg_rows(graph, lam, mus):
        report.add(f"selberg-{res.graph}", f"lambda={res.lam} mu={res.mu}", res.lhs, res.rhs, res.equal)


def _suite_staircase(args, report: Report) -> None:
    shapes = [mu for n in range(args.max_size + 1) for mu in partitions_of(n, strict=True)]
    for k in range(1, args.k_max + 1):
        stair = Partition(range(k, 0, -1))
        t = Fraction(-k * (k + 1), 2)
        spec = schur_t_functional(t, 2 * args.max_size + 4)
        point = tuple(Fraction(p) for p in stair.parts)
        lhs_values = pstar_values(shapes, spec)
        rhs_values = pstar_values(shapes, point)
        for mu in shapes:
            lhs, rhs = lhs_values[mu], rhs_values[mu]
            report.add("staircase", f"t={t} staircase={stair} mu={mu}", lhs, rhs, lhs == rhs)


def _suite_pfaffian(args, report: Report) -> None:
    rng = random.Random(args.seed)
    for trial in range(args.points):
        size = 2 * rng.randint(1, args.max_size // 2)
        entries = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                val = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                entries[i][j] = val
                entries[j][i] = -val
        m = RationalMatrix(entries)
        pf = pfaffian(m)
        dd = det(m)
        report.add(
            "pfaffian-square", f"size={size} trial#{trial}", pf * pf, dd, pf * pf == dd
        )


def _suite_kernels(args, report: Report) -> None:
    rng = random.Random(args.seed)
    points = []
    for _ in range(args.points):
        a1 = Fraction(rng.randint(1, 4), 12)
        a2 = Fraction(rng.randint(0, 3), 16)
        b1 = Fraction(rng.randint(0, 3), 16)
        alpha = tuple(sorted((a1, a2), reverse=True))
        points.append(ThomaPoint(alpha, (b1,) if b1 else ()))
    shapes = partitions_up_to(args.levels)
    # every vertex below the top level with its weighted up-edges, shared by the points
    levels = {kind: list(sweep(kind, args.levels))[:-1] for kind in (YOUNG, KINGMAN)}
    kingman = kingman_kernel_table([ThomaPoint(om.alpha) for om in points], shapes)
    for idx, om in enumerate(points):
        tables = ((YOUNG, young_kernel_table(om, shapes)), (KINGMAN, next(kingman)))
        # a level's kernels share the denominator c * scale^n, so each cover
        # sum compares in ints and one Fraction forms per side
        for kind, (nums, scale, c) in tables:
            for n, rows, _, _ in levels[kind]:
                for mu, _, edges in rows:
                    r = sum(w * nums[lam] for lam, w in edges)
                    report.add(
                        "kernel-harmonicity",
                        f"{kind.name} point#{idx} mu={mu}",
                        Fraction(nums[mu], c * scale**n),
                        Fraction(r, c * scale ** (n + 1)),
                        nums[mu] * scale == r,
                    )


def _suite_gauss(args, report: Report) -> None:
    triples = [
        (Fraction(1, 2), Fraction(1, 3), Fraction(25)),
        (Fraction(-3), Fraction(5, 7), Fraction(9, 2)),
        (Fraction(2), Fraction(3, 4), Fraction(31, 2)),
        (Fraction(-1, 5), Fraction(7, 3), Fraction(18)),
        (Fraction(5, 4), Fraction(1, 6), Fraction(22, 3)),
    ]
    for a, b, c in triples:
        ok = gauss_2f1_check(a, b, c, tol=args.tol, precision=args.precision)
        report.add(
            "gauss-summation", f"a={a} b={b} c={c} tol={args.tol}", None, None, ok
        )


def _suite_degeneration(args, report: Report) -> None:
    y = YoungZZ(Fraction(3), Fraction(2))
    j = JackZZ(Fraction(3), Fraction(2), Fraction(1))
    for n, rows, _, _ in sweep(YOUNG, args.levels):  # the Jack graph at theta = 1
        (js, jq), (ys, yq) = j.level_phi(n, rows), y.level_phi(n, rows)
        for (mu, _, _), a, b in zip(rows, js, ys):
            a, b = Fraction(a, jq), Fraction(b, yq)
            report.add("jack-young-degeneration", f"mu={mu}", a, b, a == b)
    for _, rows, _, _ in sweep(KINGMAN, args.levels + 1):  # the edges out of levels 0 .. levels
        for mu, _, edges in rows:
            for lam, kappa0 in edges:
                at_zero = jack_weight(mu, lam, 0)
                report.add(
                    "jack-kingman-degeneration", f"{mu} -> {lam}", at_zero, kappa0, at_zero == kappa0
                )


def _suite_lattice(args, report: Report) -> None:
    f1 = YoungZZ(Fraction(1), Fraction(5, 4))
    f2 = YoungZZ(Fraction(5, 6), Fraction(1, 6))
    for mu in (Partition(), Partition([1])):
        if mu.size >= args.levels:
            continue
        here = f1.phi(mu)
        bound = here + f2.phi(mu)
        rows = lattice_level_sums(f1, f2, mu, args.levels)
        prev_join = prev_meet = None
        for n, join, meet, _ in rows:
            ok = join <= bound and meet >= 0
            if prev_join is not None:
                ok = ok and join >= prev_join and meet <= prev_meet
            report.add("lattice-bounds", f"mu={mu} n={n}", join, meet, ok)
            prev_join, prev_meet = join, meet
        # the join of f1 with itself is its own level sum
        for n, _, _, same in rows:
            report.add("lattice-idempotent", f"mu={mu} n={n}", same, here, same == here)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Command(NamedTuple):
    run: Callable | None
    flags: tuple  # (option strings, add_argument keywords) of each argument it reads
    help: str | None = None
    named: str | None = None  # what its `_names` flags name ("command", "suite"); argv's rest follows


def _flag(*names: str, **kwargs):
    # a default is the text a user would type: argparse parses it like the flag
    return names, kwargs


def _int(name: str, least: int, default: int):
    return _flag(name, type=_at_least(least), default=str(default))


def _add_flags(parser: argparse.ArgumentParser, flags) -> argparse.ArgumentParser:
    for names, kwargs in flags:
        parser.add_argument(*names, **kwargs)
    return parser


def _parser(prog: str, command: _Command, **kwargs) -> argparse.ArgumentParser:
    return _add_flags(argparse.ArgumentParser(prog=prog, **kwargs), command.flags)


def _names(what: str, table: dict) -> tuple:
    """A `what` name from `table`, then the rest of argv, which only the parser of that
    name reads: so only the parser of the command or suite that runs is built."""
    help = f"the {what}'s flags, which {what.upper()} --help lists"
    return _flag(what, choices=table), _flag("flags", nargs=argparse.REMAINDER, help=help)


def _parse(parser: argparse.ArgumentParser, command: _Command, argv: list[str]) -> argparse.Namespace:
    # argparse would take the value of a flag before the name for the name; help and
    # version, or a prefix of them, are the parser's own
    first = argv[0] if argv else ""
    own = any(option.startswith(first) for option in ("-h", "--help", "--version"))
    if command.named and first.startswith("-") and not own:
        parser.error(f"{first}: flags follow the {command.named} name")
    return parser.parse_args(argv)


_SEED, _POINTS = _flag("--seed", type=int, default="20240801"), _int("--points", 1, 5)
_OUTPUT = (
    _flag("--out", choices=["text", "json", "csv"], default="text", help="report format"),
    _flag("--output", default=None, help="write the report to this path"),
)

_SUITES = {
    "interpolation": _Command(_suite_interpolation, (_int("--max-size", 1, 5),)),
    "pieri": _Command(_suite_pieri, (_int("--max-size", 0, 5), _POINTS, _SEED)),
    "dimensions": _Command(_suite_dimensions, (
        _int("--max-size", 0, 5), _int("--strict-max-size", 0, 8))),
    "dimension-ratio": _Command(_suite_dimension_ratio, (
        _int("--mu-max", 0, 3), _int("--lam-max", 0, 6))),
    "selberg": _Command(_suite_selberg, (
        _flag("--graph", choices=["all", *FACES], default="all"),
        _int("--max-size", 1, 5),
        _flag("--workers", type=_at_least(1), default="1",
              help="accepted for compatibility; suites run serially"),
    )),
    "staircase": _Command(_suite_staircase, (_int("--max-size", 0, 5), _int("--k-max", 1, 3))),
    "pfaffian": _Command(_suite_pfaffian, (_int("--max-size", 2, 5), _POINTS, _SEED)),
    "kernels": _Command(_suite_kernels, (_int("--levels", 1, 8), _POINTS, _SEED)),
    "gauss": _Command(_suite_gauss, (
        _flag("--tol", type=_POSITIVE, default="1e-20"), _int("--precision", 1, 128))),
    "degeneration": _Command(_suite_degeneration, (_int("--levels", 0, 8),)),
    "lattice": _Command(_suite_lattice, (_int("--levels", 1, 8),)),
}


def cmd_verify(args) -> int:
    # no abbreviations, or --mu would pass for --mu-max
    suite = _SUITES[args.suite]
    parser = _parser(f"harmgraphs verify {args.suite}", suite, allow_abbrev=False)
    suite_args = _add_flags(parser, _OUTPUT).parse_args(args.flags)
    report = Report(command=f"verify {args.suite}")
    suite.run(suite_args, report)
    if not report.rows:
        raise ValueError(f"the {args.suite} suite admits no check in the given ranges")
    return _emit(report, suite_args)


# parse_family is looked up when a value is read, so a patched one is the one called
_FAMILY = _flag("--family", type=_parsed(lambda text: parse_family(text)), required=True)
_PARTITION = _parsed(Partition.parse)
_FACE = (_flag("--graph", required=True, choices=list(FACES)),
         _flag("--lambda", dest="lam", type=_PARTITION, required=True))
_COMMANDS = {
    "phi": _Command(cmd_phi, (_FAMILY, _flag("--mu", type=_PARTITION, required=True)),
                    "evaluate a family at one partition"),
    "measure": _Command(cmd_measure, (_FAMILY, _flag("--n", type=_at_least(0), required=True), *_OUTPUT),
                        "level measure of a family"),
    "check-harmonic": _Command(cmd_check_harmonic, (_FAMILY, _int("--levels", 1, 8), *_OUTPUT),
                               "exact harmonicity/normalization/positivity"),
    "dims": _Command(cmd_dims, (
        _flag("--kind", type=_parsed(parse_kind), required=True, help="young | jack(theta) | kingman | schur"),
        _flag("--level", type=_at_least(0), required=True),
        _flag("--max-length", type=_at_least(0), default=None),
    ), "CSV dump of one level's dimensions"),
    "density": _Command(cmd_density, (
        *_FACE,
        _flag("--at", required=True, help="comma-separated coordinates; gamma: alpha;beta", type=_parsed(
            lambda text: tuple(tuple(map(as_rational, b.split(","))) for b in text.split(";")))),
    ), "evaluate a face density at a rational point"),
    "integral-verify": _Command(cmd_integral_verify, (
        *_FACE, _flag("--mu", type=_PARTITION, default="0"), *_OUTPUT,
    ), "one exact integral identity, both sides"),
    "converge": _Command(cmd_converge, (
        _FAMILY,
        _flag("--n", type=_levels, required=True, help="comma-separated distinct levels"),
        _int("--resolution", 2, 20),
        _flag("--interior", type=_ranged(as_rational, lambda v: 0 < v < 1, "strictly between 0 and 1"),
              default="1/5", help="interior separation fraction"),
        _flag("--ratio-tol", type=_POSITIVE, default="0.05"),
        *_OUTPUT,
    ), "level measures against the limit density"),
    "verify": _Command(cmd_verify, _names("suite", _SUITES), "run a verification suite", named="suite"),
}
_TOP = _Command(None, (
    _flag("--version", action="version", version=f"%(prog)s {__version__}"), *_names("command", _COMMANDS),
), named="command")


def build_parser() -> argparse.ArgumentParser:
    """The top level, which reads the command name; `main` builds that command's parser."""
    listing = "".join(f"\n  {name:<17}{command.help}" for name, command in _COMMANDS.items())
    return _parser(
        "harmgraphs", _TOP, description="Exact harmonic functions on multiplicative graded graphs",
        epilog="commands:" + listing, formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), _TOP, sys.argv[1:] if argv is None else argv)
        command = _COMMANDS[args.command]
        return command.run(_parse(_parser(f"harmgraphs {args.command}", command), command, args.flags))
    except SystemExit as exc:  # argparse's --help, --version or usage error
        return exc.code
    except (SingularMatrixError, ShapeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
