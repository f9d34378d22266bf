"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Every exact criterion asserts rational equality; the two experiment
criteria (asymptotics, hypergeometric summation) use their stated
tolerances.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

from fractions import Fraction as F

from harmgraphs.boundary import (
    ThomaPoint,
    convergence_experiment,
    kingman_kernel,
    selberg_verify,
    young_kernel,
)
from harmgraphs.exact import pochhammer
from harmgraphs.graphs import (
    KINGMAN,
    SCHUR,
    YOUNG,
    covers_up,
    dim,
    dim_closed_form,
    edge_multiplicity,
    jack_weight,
)
from harmgraphs.harmonic import (
    JackZZ,
    KingmanTA,
    SchurT,
    TruncKingman,
    TruncYoung,
    YoungZZ,
    check_harmonicity,
    lattice_bound_approx,
    level_measure,
)
from harmgraphs.interp import (
    factorial_monomial_eval,
    gauss_2f1_check,
    pstar_eval,
    schur_t_functional,
    shifted_schur_at_diagram,
)
from harmgraphs.partitions import Partition, partitions_of, partitions_up_to
from oracles import (
    functional_on_shifted_schur,
    pstar_closed_form,
    young_zz_closed_form,
    young_zz_functional,
)

P = Partition

YOUNG_SETS = [(F(1), F(5, 4)), (F(5, 6), F(1, 6)), (F(1, 2), F(1, 3))]
JACK_THETAS = [F(1, 2), F(1), F(2)]
KINGMAN_SETS = [(F(1), F(1, 2)), (F(2), F(0)), (F(1, 2), F(1, 3))]
SCHUR_SETS = [F(3), F(1, 2), F(7, 3)]

_FAMILY_RUNS = None


def _family_runs():
    global _FAMILY_RUNS
    if _FAMILY_RUNS is None:
        runs = []
        for e, t in YOUNG_SETS:
            runs.append((YoungZZ(e, t), 8))
        for theta in JACK_THETAS:
            for e, zz in YOUNG_SETS:
                runs.append((JackZZ(e, zz, theta), 8))
        for t, a in KINGMAN_SETS:
            runs.append((KingmanTA(t, a), 8))
        for t in SCHUR_SETS:
            runs.append((SchurT(t), 10))
        _FAMILY_RUNS = runs
    return _FAMILY_RUNS


def _report(num: int, text: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_harmonicity_suites():
    ok = True
    for family, levels in _family_runs():
        report = check_harmonicity(family, levels)
        if not report.ok:
            ok = False
        if not family.admissible().ok:
            ok = False
    _report(1, "exact harmonicity for all family suites at admissible parameters", ok)


def test_criterion_02_normalization():
    ok = True
    for family, levels in _family_runs():
        for n in range(1, levels + 1):
            if level_measure(family, n).total() != 1:
                ok = False
    _report(2, "level measures sum to exactly 1 in every suite run", ok)


def test_criterion_03_dimension_oracles():
    ok = True
    for n in range(10):
        for lam in partitions_of(n):
            if dim(P(), lam, YOUNG) != dim_closed_form(lam, YOUNG):
                ok = False
            if dim(P(), lam, KINGMAN) != dim_closed_form(lam, KINGMAN):
                ok = False
    for n in range(13):
        for lam in partitions_of(n, strict=True):
            if dim(P(), lam, SCHUR) != dim_closed_form(lam, SCHUR):
                ok = False
    _report(3, "path recursion equals closed dimension formulas (<=9, strict <=12)", ok)


def test_criterion_04_interpolation_property():
    ok = True
    for n in range(1, 7):
        for mu in partitions_of(n):
            for m in range(n + 1):
                for lam in partitions_of(m):
                    if lam == mu:
                        continue
                    if shifted_schur_at_diagram(mu, lam) != 0:
                        ok = False
                    point = tuple(F(p) for p in lam.parts) or (F(0),)
                    if factorial_monomial_eval(mu, point) != 0:
                        ok = False
        for mu in partitions_of(n, strict=True):
            for m in range(n + 1):
                for lam in partitions_of(m, strict=True):
                    if lam == mu:
                        continue
                    if pstar_eval(mu, tuple(F(p) for p in lam.parts)) != 0:
                        ok = False
    _report(4, "interpolation vanishing on smaller diagrams for all three families", ok)


def test_criterion_05_functional_engine_cross_validation():
    ok = True
    pairs = YOUNG_SETS + [(F(7, 3), F(9, 2)), (F(-1, 2), F(11, 7))]
    for e, t in pairs:
        spec = young_zz_functional(e, t, 6)
        for mu in partitions_up_to(6):
            if functional_on_shifted_schur(mu, spec) != young_zz_closed_form(e, t, mu):
                ok = False
    for t in (F(3, 7), F(-5, 3), F(9, 4)):
        spec = schur_t_functional(t, 18)
        for n in range(9):
            for mu in partitions_of(n, strict=True):
                if pstar_eval(mu, spec) != pstar_closed_form(t, mu):
                    ok = False
    _report(5, "generator-value engine equals both closed product formulas", ok)


def test_criterion_06_staircase_identity():
    # the one-parameter functional with scalar t equals evaluation at the
    # staircase (k, ..., 1) exactly when t = -k(k+1)/2, i.e. minus the
    # staircase size; the scalars t = k(1-k)/2 for k = 2, 3 are the
    # staircases (1) and (2, 1) under that pairing
    ok = True
    for k in (1, 2, 3):
        stair = P(range(k, 0, -1))
        t = F(-k * (k + 1), 2)
        assert t == F((k + 1) * (1 - (k + 1)), 2)  # same scalars, shifted label
        spec = schur_t_functional(t, 18)
        point = tuple(F(p) for p in stair.parts)
        for n in range(7):
            for mu in partitions_of(n, strict=True):
                if pstar_eval(mu, spec) != pstar_eval(mu, point):
                    ok = False
    _report(6, "staircase specialization identity, scalar = -(staircase size)", ok)


def test_criterion_07_selberg_integrals():
    ok = True
    checked = 0
    # row-face identity on the width-l Young faces, l = 2, 3
    for l in (2, 3):
        for ln in range(l, 7):
            for lam in (p for p in partitions_of(ln) if p.length == l):
                for mn in range(0, 7):
                    for mu in partitions_of(mn, max_length=l):
                        res = selberg_verify("young", lam, mu)
                        checked += 1
                        if not res.equal or (mu.size == 0 and res.lhs != 1):
                            ok = False
    # monomial identity on Kingman faces, l <= 3
    for l in (1, 2, 3):
        for ln in range(l, 7):
            for lam in (p for p in partitions_of(ln) if p.length == l):
                for mn in range(0, 7):
                    for mu in partitions_of(mn, max_length=l):
                        res = selberg_verify("kingman", lam, mu)
                        checked += 1
                        if not res.equal or (mu.size == 0 and res.lhs != 1):
                            ok = False
    # strict-face identity, l = 2, 3, full-length mu plus the mass case
    for l in (2, 3):
        for ln in range(l, 7):
            for lam in (p for p in partitions_of(ln, strict=True) if p.length == l):
                res = selberg_verify("schur", lam, P())
                checked += 1
                if not res.equal or res.lhs != 1:
                    ok = False
                for mn in range(1, 7):
                    for mu in (p for p in partitions_of(mn, strict=True) if p.length == l):
                        res = selberg_verify("schur", lam, mu)
                        checked += 1
                        if not res.equal:
                            ok = False
    # hook-face identity, depth 1 and 2, full-depth mu plus the mass case
    for d in (1, 2):
        for ln in range(1, 7):
            for lam in (p for p in partitions_of(ln) if p.depth == d):
                res = selberg_verify("gamma", lam, P())
                checked += 1
                if not res.equal or res.lhs != 1:
                    ok = False
                for mn in range(1, 7):
                    for mu in (p for p in partitions_of(mn) if p.depth == d):
                        res = selberg_verify("gamma", lam, mu)
                        checked += 1
                        if not res.equal:
                            ok = False
    _report(7, f"all {checked} finite-face integral identities hold exactly", ok)


def test_criterion_08_dimension_ratio_identity():
    ok = True
    for n in range(5):
        for mu in partitions_of(n):
            for big in range(n, 9):
                for lam in partitions_of(big):
                    lhs = F(dim(mu, lam, YOUNG), dim(P(), lam, YOUNG))
                    rhs = (-1) ** n * shifted_schur_at_diagram(mu, lam) / pochhammer(
                        F(-big), n
                    )
                    if lhs != rhs:
                        ok = False
    _report(8, "dimension-ratio identity on the Young graph (|mu|<=4, |lam|<=8)", ok)


def test_criterion_09_degenerations():
    ok = True
    young = YoungZZ(F(1), F(5, 4))
    jacky = JackZZ(F(1), F(5, 4), F(1))
    for mu in partitions_up_to(7):
        if jacky.phi(mu) != young.phi(mu):
            ok = False
    for n in range(8):
        for mu in partitions_of(n):
            for lam in covers_up(mu, YOUNG):
                if jack_weight(mu, lam, 0) != edge_multiplicity(mu, lam, KINGMAN):
                    ok = False
    _report(9, "deformed family at 1 equals Young; multiplicities at 0 equal Kingman", ok)


def test_criterion_10_asymptotics():
    ok = True
    for family in (TruncYoung(P([2, 1])), TruncKingman(P([1, 1]))):
        rep = convergence_experiment(
            family, [500, 1000, 2000], interior_fraction=F(1, 5), ratio_tolerance=0.05
        )
        final = rep.rows[-1]
        if not (final.n == 2000 and final.max_ratio_error <= 0.05):
            ok = False
        if not rep.distances_decreasing:
            ok = False
        if not all(row.mass_is_one for row in rep.rows):
            ok = False
    _report(10, "interior ratios within 5% at n=2000 and binned distances decrease", ok)


def test_criterion_11_gauss_summation():
    triples = [
        (F(1, 2), F(1, 3), F(25)),
        (F(-3), F(5, 7), F(9, 2)),
        (F(2), F(3, 4), F(31, 2)),
        (F(-1, 5), F(7, 3), F(18)),
        (F(5, 4), F(1, 6), F(22, 3)),
    ]
    ok = all(gauss_2f1_check(a, b, c, tol=1e-20, precision=128) for a, b, c in triples)
    _report(11, "hypergeometric partial sums match the Gamma-ratio within 1e-20", ok)


def test_criterion_12_kernel_harmonicity():
    ok = True
    young_points = [
        ThomaPoint((F(1, 2), F(1, 4)), (F(1, 8),)),
        ThomaPoint((F(1, 3), F(1, 5))),
        ThomaPoint((F(2, 5),), (F(1, 5), F(1, 10))),
        ThomaPoint((F(1, 6), F(1, 6), F(1, 6))),
        ThomaPoint((), (F(1, 2), F(1, 4))),
    ]
    for om in young_points:
        for n in range(6):
            for mu in partitions_of(n):
                lhs = young_kernel(mu, om)
                rhs = sum((young_kernel(lam, om) for lam in covers_up(mu, YOUNG)), F(0))
                if lhs != rhs:
                    ok = False
    kingman_points = [
        ThomaPoint((F(1, 2), F(1, 4))),
        ThomaPoint((F(1, 3), F(1, 5))),
        ThomaPoint((F(2, 5), F(1, 5), F(1, 10))),
        ThomaPoint((F(5, 6),)),
        ThomaPoint(()),
    ]
    for om in kingman_points:
        for n in range(6):
            for mu in partitions_of(n):
                lhs = kingman_kernel(mu, om)
                rhs = sum(
                    (
                        edge_multiplicity(mu, lam, KINGMAN) * kingman_kernel(lam, om)
                        for lam in covers_up(mu, KINGMAN)
                    ),
                    F(0),
                )
                if lhs != rhs:
                    ok = False
    _report(12, "boundary kernels are exactly harmonic through level 6", ok)


def test_criterion_13_lattice_approximations():
    ok = True
    f1 = YoungZZ(F(1), F(5, 4))
    f2 = YoungZZ(F(5, 6), F(1, 6))
    for mu in (P(), P([1]), P([2])):
        rows = lattice_bound_approx(f1, f2, mu, 8)
        if [n for n, _, _ in rows] != list(range(mu.size + 1, 9)):
            ok = False
        joins = [join for _, join, _ in rows]
        meets = [meet for _, _, meet in rows]
        bound = f1.phi(mu) + f2.phi(mu)
        if not all(joins[i] <= joins[i + 1] for i in range(len(joins) - 1)):
            ok = False
        if not all(meets[i] >= meets[i + 1] for i in range(len(meets) - 1)):
            ok = False
        if not all(0 <= m and j <= bound for j, m in zip(joins, meets)):
            ok = False
        if any(join != f1.phi(mu) for _, join, _ in lattice_bound_approx(f1, f1, mu, 8)):
            ok = False
        if any(meet != f2.phi(mu) for _, _, meet in lattice_bound_approx(f2, f2, mu, 8)):
            ok = False
    _report(13, "join/meet approximations are monotone, bounded, idempotent", ok)
