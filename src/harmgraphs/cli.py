"""Command-line surface: evaluation, enumeration, verification suites.

Reports are deterministic (fixed ordering, seeded randomness, no
timestamps): identical invocations produce byte-identical output.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parameter error, 3 internal error (a singular or misshapen matrix).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import perm

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
    edge_multiplicity,
    jack_weight,
    parse_kind,
    sweep,
)
from .harmonic import (
    FamilyError,
    HarmonicFamily,
    JackZZ,
    YoungZZ,
    check_harmonicity,
    lattice_level_sums,
    level_measure,
    parse_family,
)
from .interp import (
    complete_numerators,
    falling_power,
    gauss_2f1_check,
    jacobi_trudi_det,
    permutation_sum,
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
    selberg_rows,
    young_kernel_table,
)
from .partitions import Partition, partitions_of, partitions_up_to

REPORT_SCHEMA = "harmgraphs-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass
class Report:
    command: str
    rows: list[dict] = field(default_factory=list)

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
        return sum(1 for r in self.rows if not r["ok"])

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
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            mark = "PASS" if row["ok"] else "FAIL"
            detail = ""
            if row["lhs"] != "" or row["rhs"] != "":
                detail = f"  lhs={row['lhs']} rhs={row['rhs']}"
            lines.append(f"{mark}  {row['check']}  {row['instance']}{detail}")
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines) + "\n"


def _encode(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _emit(report: Report, args) -> int:
    fmt = getattr(args, "out", None) or "text"
    if fmt == "json":
        payload = report.to_json()
    elif fmt == "csv":
        payload = report.to_csv()
    else:
        payload = report.to_text()
    output = getattr(args, "output", None)
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


def _partition(text: str) -> Partition:
    return Partition.parse(text)


def _number(flag: str, text: str, parse=as_rational):
    """One numeric field of a flag; a malformed field is a usage error naming the flag."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: malformed number {text!r}") from None


# ---------------------------------------------------------------------------
# plain evaluation commands
# ---------------------------------------------------------------------------

def cmd_phi(args) -> int:
    family = parse_family(args.family)
    value = family.phi(_partition(args.mu))
    print(format_rational(value))
    return EXIT_OK


def cmd_measure(args) -> int:
    family = parse_family(args.family)
    measure = level_measure(family, args.n)
    report = Report(command="measure")
    for lam, weight in measure.weights:
        report.add("measure", f"n={args.n} lambda={lam}", weight, None, True)
    total = measure.total()
    report.add("normalization", f"n={args.n} total", total, Fraction(1), total == 1)
    return _emit(report, args)


def cmd_check_harmonic(args) -> int:
    family = parse_family(args.family)
    report = _harmonicity_report(family, args.levels)
    return _emit(report, args)


def _harmonicity_report(family: HarmonicFamily, levels: int) -> Report:
    report = Report(command="check-harmonic")
    spec = family.spec_string()
    hc = check_harmonicity(family, levels)
    bad = {v.mu: v for v in hc.violations}
    for mu, _ in hc.phi_values:
        if mu.size == levels:
            break
        v = bad.get(mu)
        if v is None:
            report.add("harmonicity", f"{spec} mu={mu}", None, None, True)
        else:
            report.add("harmonicity", f"{spec} mu={mu}", v.lhs, v.rhs, False)
    for n, total in enumerate(hc.level_masses[1:], start=1):
        report.add("normalization", f"{spec} n={n}", total, Fraction(1), total == 1)
    for mu, val in hc.phi_values:
        report.add("positivity", f"{spec} phi({mu})", val, None, val >= 0)
    return report


def cmd_dims(args) -> int:
    kind = parse_kind(args.kind)
    if args.max_length is not None and args.max_length < 0:
        raise ValueError("--max-length must be >= 0")
    sys.stdout.write(dims_csv(args.level, kind, max_length=args.max_length))
    return EXIT_OK


def cmd_density(args) -> int:
    spec = density_spec(args.graph, _partition(getattr(args, "lambda")))
    blocks, texts = FACES[args.graph].blocks, args.at.split(";")
    if len(texts) != blocks:
        raise ValueError(f"a {args.graph} point is {';'.join(('alpha', 'beta')[:blocks])}, got {args.at!r}")
    point = tuple(tuple(_number("--at", s) for s in text.split(",")) for text in texts)
    if len(point) == 1:  # the alpha;beta points of the gamma face have no range check yet
        point = point[0]
        if any(a < 0 for a in point) or sum(point) > 1:
            raise ValueError("a face point needs nonnegative coordinates with sum <= 1")
    print(format_rational(spec.density(point)))
    return EXIT_OK


def cmd_integral_verify(args) -> int:
    report = Report(command="integral-verify")
    _add_selberg_rows(report, args.graph, _partition(getattr(args, "lambda")), [_partition(args.mu)])
    return _emit(report, args)


def cmd_converge(args) -> int:
    family = parse_family(args.family)
    n_values = [_number("--n", s, int) for s in args.n.split(",")]
    if min(n_values) < 1:
        raise ValueError("every --n value must be at least 1")
    if args.resolution < 1:
        raise ValueError("--resolution must be at least 1")
    interior = _number("--interior", args.interior)
    if not 0 < interior < 1:
        raise ValueError("--interior must lie strictly between 0 and 1")
    rep = convergence_experiment(
        family,
        n_values,
        resolution=args.resolution,
        interior_fraction=interior,
        ratio_tolerance=args.ratio_tol,
    )
    report = Report(command="converge")
    for row in rep.rows:
        report.add(
            "convergence-mass", f"{family.spec_string()} n={row.n}", Fraction(1), None, row.mass_is_one
        )
        report.add(
            "convergence-ratio",
            f"{family.spec_string()} n={row.n} interior={row.interior_points}",
            format_bigfloat(row.max_ratio_error),
            f"tol={rep.ratio_tolerance}",
            rep.ratio_ok(row),
        )
        report.add(
            "convergence-distance",
            f"{family.spec_string()} n={row.n} bins={args.resolution}",
            format_bigfloat(row.binned_distance),
            None,
            True,
        )
    report.add(
        "convergence-monotone",
        f"{family.spec_string()} n={','.join(str(r.n) for r in rep.rows)}",
        None,
        None,
        rep.distances_decreasing,
    )
    return _emit(report, args)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_harmonicity(args, report: Report) -> None:
    family = parse_family(args.family)
    sub = _harmonicity_report(family, args.levels)
    report.rows.extend(sub.rows)


def _suite_interpolation(args, report: Report) -> None:
    cap = args.max_size
    strict = partitions_up_to(cap, strict=True)
    # P* at each strict diagram point, for every strict mu at least as large
    p_star = {
        lam: pstar_values([mu for mu in strict if mu.size >= lam.size], lam.parts)
        for lam in strict
    }
    # s* at each diagram point from one column set, which serves every mu (s* is
    # stable under zero padding); s* and m* there are integers
    columns = {lam: shifted_schur_columns(lam.parts, 1, cap, cap) for lam in partitions_up_to(cap)}
    falling = falling_power(1)
    for n in range(1, cap + 1):
        for mu in partitions_of(n):
            for m in range(n + 1):
                for lam in partitions_of(m):
                    if lam == mu:
                        continue
                    s_val = jacobi_trudi_det(mu, columns[lam])
                    m_val = permutation_sum(mu, lam.parts, falling)
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
    if args.max_size < 0:
        raise ValueError("the pieri suite needs --max-size >= 0")
    if args.points < 1:
        raise ValueError("the pieri suite needs --points >= 1")
    rng = random.Random(args.seed)
    cap = args.max_size
    shapes = partitions_up_to(cap + 1)
    strict_shapes = [lam for lam in shapes if lam.is_strict]
    # every vertex of size <= cap with its up-edges, young and kingman side by side
    levels = list(zip(sweep(YOUNG, cap + 1), sweep(KINGMAN, cap + 1)))[:-1]
    for trial in range(args.points):
        x = _random_point(rng, cap + 1)
        xs, q = integer_point(x)
        p1 = sum(xs)  # p_1(x) = p1 / q
        # each value, an integer over q^|lam|, is read once as a left side and
        # again under every down-cover; each point's h and s* columns serve every lam
        h = [complete_numerators(xs, cap + 1)] * (cap + 1)
        h_star = shifted_schur_columns(xs, q, cap + 1, cap + 1)
        falling = falling_power(q)
        s = {lam: jacobi_trudi_det(lam, h) for lam in shapes}
        m = {lam: permutation_sum(lam, xs, pow) for lam in shapes}
        s_star = {lam: jacobi_trudi_det(lam, h_star) for lam in shapes}
        m_star = {lam: permutation_sum(lam, xs, falling) for lam in shapes}
        p_star = pstar_values(strict_shapes, x)
        for (n, young_rows), (_, kingman_rows) in levels:
            den = q ** (n + 1)  # both sides of each relation at level n
            for (mu, _, young_covers), (_, _, kingman_covers) in zip(young_rows, kingman_rows):
                sides = (
                    ("pieri-classical", "schur", s[mu] * p1,
                     sum(s[lam] for lam, _ in young_covers)),
                    ("pieri-classical", "monomial", m[mu] * p1,
                     sum(k * m[lam] for lam, k in kingman_covers)),
                    ("pieri-interpolation", "s*", s_star[mu] * p1,
                     n * q * s_star[mu] + sum(s_star[lam] for lam, _ in young_covers)),
                    ("pieri-interpolation", "m*", m_star[mu] * p1,
                     n * q * m_star[mu] + sum(k * m_star[lam] for lam, k in kingman_covers)),
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
    for (_, young_rows), (_, kingman_rows) in levels:
        for (lam, young_dim, _), (_, kingman_dim, _) in zip(young_rows, kingman_rows):
            check(YOUNG, lam, young_dim)
            check(KINGMAN, lam, kingman_dim)
    for _, rows in sweep(SCHUR, args.strict_max_size):
        for lam, rec, _ in rows:
            check(SCHUR, lam, rec)


def _suite_dimension_ratio(args, report: Report) -> None:
    """dim(mu, lam) / dim(lam) = s*_mu(lam) / n(n - 1)...(n - |mu| + 1) at n = |lam|,
    s* read from one column set per diagram (s* is stable under zero padding)."""
    d0 = {lam: d for _, rows in sweep(YOUNG, args.lam_max) for lam, d, _ in rows}
    columns = {lam: shifted_schur_columns(lam.parts, 1, args.mu_max, args.mu_max) for lam in d0}
    for nn in range(args.mu_max + 1):
        for mu in partitions_of(nn):
            for n_lam, rows in sweep(YOUNG, args.lam_max, start=mu):
                dims = {lam: d for lam, d, _ in rows}
                for lam in partitions_of(n_lam):
                    lhs = Fraction(dims.get(lam, 0), d0[lam])
                    rhs = Fraction(jacobi_trudi_det(mu, columns[lam]), perm(n_lam, nn))
                    report.add(
                        "dimension-ratio", f"mu={mu} lambda={lam}", lhs, rhs, lhs == rhs
                    )


def _suite_selberg(args, report: Report) -> None:
    faces = ", ".join(FACES)
    if args.graph != "all" and args.graph not in FACES:
        raise ValueError(f"unknown --graph {args.graph!r}; choose all or one of {faces}")
    if getattr(args, "lam", None):
        if args.graph == "all":
            raise ValueError(f"a single identity (--lam) needs one face: pass --graph as one of {faces}")
        work = [(args.graph, _partition(args.lam), [_partition(args.mu or "0")])]
    else:
        work = _selberg_sweep(args.graph, args.max_size)
    for graph, lam, mus in work:
        _add_selberg_rows(report, graph, lam, mus)


def _add_selberg_rows(report: Report, graph: str, lam: Partition, mus: list[Partition]) -> None:
    for res in selberg_rows(graph, lam, mus):
        report.add(f"selberg-{res.graph}", f"lambda={res.lam} mu={res.mu}", res.lhs, res.rhs, res.equal)


def _selberg_sweep(graph: str, max_size: int) -> list[tuple[str, Partition, list[Partition]]]:
    work: list[tuple[str, Partition, list[Partition]]] = []
    shapes = [p for size in range(1, max_size + 1) for p in partitions_of(size)]
    for name, face in FACES.items():
        if graph not in ("all", name):
            continue
        for s in face.sweep:
            mus = [Partition(), *(mu for mu in shapes if face.admits(mu, s))]
            work += [(name, lam, mus) for lam in shapes if face.accepts(lam) and getattr(lam, face.stat) == s]
    return work


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
    if args.max_size < 2:
        raise ValueError("the pfaffian suite needs --max-size >= 2")
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
    if args.levels < 1:
        raise ValueError("the kernels suite needs --levels >= 1")
    if args.points < 1:
        raise ValueError("the kernels suite needs --points >= 1")
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
    for idx, om in enumerate(points):
        tables = (
            (YOUNG, young_kernel_table(om, shapes)),
            (KINGMAN, kingman_kernel_table(ThomaPoint(om.alpha), shapes)),
        )
        # a level's kernels share the denominator c * scale^n, so each cover
        # sum compares in ints and one Fraction forms per side
        for kind, (nums, scale, c) in tables:
            for n, rows in levels[kind]:
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
    for mu in partitions_up_to(args.levels):
        a = j.phi(mu)
        b = y.phi(mu)
        report.add("jack-young-degeneration", f"mu={mu}", a, b, a == b)
    for n in range(args.levels + 1):
        for mu in partitions_of(n):
            for lam in covers_up(mu, YOUNG):
                at_zero = jack_weight(mu, lam, 0)
                kappa0 = edge_multiplicity(mu, lam, KINGMAN)
                report.add(
                    "jack-kingman-degeneration",
                    f"{mu} -> {lam}",
                    at_zero,
                    kappa0,
                    at_zero == kappa0,
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


_SUITES = {
    "harmonicity": _suite_harmonicity,
    "interpolation": _suite_interpolation,
    "pieri": _suite_pieri,
    "dimensions": _suite_dimensions,
    "dimension-ratio": _suite_dimension_ratio,
    "selberg": _suite_selberg,
    "staircase": _suite_staircase,
    "pfaffian": _suite_pfaffian,
    "kernels": _suite_kernels,
    "gauss": _suite_gauss,
    "degeneration": _suite_degeneration,
    "lattice": _suite_lattice,
}


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        print(f"unknown suite {args.suite!r}; available: {', '.join(sorted(_SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    report = Report(command=f"verify {args.suite}")
    _SUITES[args.suite](args, report)
    if not report.rows:
        raise ValueError(f"the {args.suite} suite admits no check in the given ranges")
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=["text", "json", "csv"], default=None, help="report format")
    p.add_argument("--output", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmgraphs",
        description="Exact harmonic functions on multiplicative graded graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="evaluate a family at one partition")
    p.add_argument("--family", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("eval", help="evaluate (alias surface: eval phi ...)")
    p.add_argument("what", choices=["phi"])
    p.add_argument("--family", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("measure", help="level measure of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("check-harmonic", help="exact harmonicity/normalization/positivity")
    p.add_argument("--family", required=True)
    p.add_argument("--levels", type=int, default=8)
    _add_output_options(p)
    p.set_defaults(func=cmd_check_harmonic)

    p = sub.add_parser("dims", help="CSV dump of one level's dimensions")
    p.add_argument("--kind", required=True, help="young | jack(theta) | kingman | schur")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-length", type=int, default=None)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("density", help="evaluate a face density at a rational point")
    p.add_argument("--graph", required=True, choices=list(FACES))
    p.add_argument("--lambda", required=True)
    p.add_argument("--at", required=True, help="comma-separated coordinates; gamma: alpha;beta")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("integral-verify", help="one exact integral identity, both sides")
    p.add_argument("--graph", required=True, choices=list(FACES))
    p.add_argument("--lambda", required=True)
    p.add_argument("--mu", default="0")
    _add_output_options(p)
    p.set_defaults(func=cmd_integral_verify)

    p = sub.add_parser("converge", help="level measures against the limit density")
    p.add_argument("--family", required=True)
    p.add_argument("--n", required=True, help="comma-separated level list")
    p.add_argument("--resolution", type=int, default=20)
    p.add_argument("--interior", default="1/5", help="interior separation fraction")
    p.add_argument("--ratio-tol", type=float, default=0.05)
    _add_output_options(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=", ".join(sorted(_SUITES)))
    p.add_argument("--family", default="young-zz:e=3,t=2")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--strict-max-size", type=int, default=8)
    p.add_argument("--mu-max", type=int, default=3)
    p.add_argument("--lam-max", type=int, default=6)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--graph", default="all")
    p.add_argument("--lam", "--lambda", dest="lam", default=None, help="single identity: lambda")
    p.add_argument("--mu", default=None, help="single identity: mu")
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--tol", type=float, default=1e-20)
    p.add_argument("--precision", type=int, default=128)
    p.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; suites run serially"
    )
    _add_output_options(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularMatrixError, ShapeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FamilyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
