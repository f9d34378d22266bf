import pickle
from fractions import Fraction as F

import pytest

from harmgraphs import cli
from harmgraphs import boundary, harmonic
from harmgraphs.boundary import FACES, ThomaPoint, convergence_experiment, selberg_rows
from harmgraphs.exact import RationalMatrix, pochhammer
from harmgraphs.graphs import YOUNG, GraphKind, dim, jack
from harmgraphs.harmonic import (
    FamilyError,
    GammaShaped,
    JackZZ,
    KingmanTA,
    SchurT,
    TruncKingman,
    TruncSchur,
    TruncYoung,
    YoungZZ,
    check_harmonicity,
    lattice_bound_approx,
    lattice_level_sums,
    level_measure,
    parse_family,
)
from harmgraphs.interp import H_STAR, FunctionalSpec
from harmgraphs.partitions import Partition, partitions_of, partitions_up_to
from oracles import functional_on_shifted_schur, pstar_closed_form, young_zz_functional

P = Partition

YOUNG_PARAMS = [(F(3), F(2)), (F(1), F(5, 4)), (F(5, 6), F(1, 6))]
KINGMAN_PARAMS = [(F(1), F(1, 2)), (F(2), F(0)), (F(1, 2), F(1, 3))]
SCHUR_PARAMS = [F(3), F(1, 2), F(7, 3)]


def test_phi_normalized_at_empty_and_one():
    families = [
        YoungZZ(F(3), F(2)),
        JackZZ(F(3), F(2), F(1, 2)),
        KingmanTA(F(1), F(1, 2)),
        SchurT(F(3)),
        TruncYoung(P([2, 1])),
        GammaShaped(P([2, 1])),
        TruncKingman(P([1, 1])),
        TruncSchur(P([2, 1])),
    ]
    for fam in families:
        assert fam.phi(P()) == 1, fam.spec_string()
        assert fam.phi(P([1])) == 1, fam.spec_string()


def test_young_family_level_two_values():
    fam = YoungZZ(F(3), F(2))
    assert fam.phi(P([2])) == F(2 + 3 + 1, 2 * 3)
    assert fam.phi(P([1, 1])) == F(2 - 3 + 1, 2 * 3)
    assert fam.phi(P([2])) + fam.phi(P([1, 1])) == 1


def test_schur_family_level_three_values():
    fam = SchurT(F(3))
    assert fam.phi(P([3])) == F(4, 5)
    assert fam.phi(P([2, 1])) == F(1, 5)
    assert fam.phi(P([3])) + fam.phi(P([2, 1])) == fam.phi(P([2]))


def test_kingman_family_level_two_values():
    t, a = F(1), F(1, 2)
    fam = KingmanTA(t, a)
    assert fam.phi(P([2])) == (1 - a) / (t + 1)
    assert fam.phi(P([1, 1])) == (t + a) / (2 * (t + 1))


def test_trunc_young_point_and_value():
    fam = TruncYoung(P([1, 1]))
    assert fam.point() == (F(-4), F(-2))
    assert fam.phi(P([1])) == 1
    assert fam.phi(P([1, 1, 1])) == 0  # beyond the width


def test_forbidden_scalars_rejected():
    with pytest.raises(FamilyError):
        YoungZZ(F(3), F(0))
    with pytest.raises(FamilyError):
        YoungZZ(F(3), F(-2))
    with pytest.raises(FamilyError):
        SchurT(F(0))
    with pytest.raises(FamilyError):
        KingmanTA(F(-1), F(1, 2))
    # zero is legal on the Kingman side (the leading factor cancels)
    assert KingmanTA(F(0), F(1, 2)).phi(P([1, 1])) == F(1, 4)
    with pytest.raises(FamilyError):
        JackZZ(F(1), F(1), F(0))
    with pytest.raises(FamilyError):
        TruncYoung(P([3]))
    with pytest.raises(FamilyError):
        TruncSchur(P([2, 2]))


@pytest.mark.parametrize("e,t", YOUNG_PARAMS)
def test_young_harmonicity(e, t):
    assert check_harmonicity(YoungZZ(e, t), 8).ok


@pytest.mark.parametrize("theta", [F(1, 2), F(1), F(2)])
@pytest.mark.parametrize("e,zz", [(F(3), F(2)), (F(1), F(5, 4)), (F(1, 2), F(2, 3))])
def test_jack_harmonicity(theta, e, zz):
    assert check_harmonicity(JackZZ(e, zz, theta), 7).ok


@pytest.mark.parametrize("t,a", KINGMAN_PARAMS)
def test_kingman_harmonicity(t, a):
    assert check_harmonicity(KingmanTA(t, a), 8).ok


@pytest.mark.parametrize("t", SCHUR_PARAMS)
def test_schur_harmonicity(t):
    assert check_harmonicity(SchurT(t), 10).ok


def test_truncated_harmonicity():
    assert check_harmonicity(TruncYoung(P([2, 1])), 7).ok
    assert check_harmonicity(TruncKingman(P([2, 1])), 7).ok
    assert check_harmonicity(TruncSchur(P([2, 1])), 8).ok
    assert check_harmonicity(GammaShaped(P([2, 1])), 7).ok
    assert check_harmonicity(GammaShaped(P([2, 2])), 7).ok


def test_harmonicity_detector_catches_corruption():
    fam = YoungZZ(F(3), F(2))

    class Corrupted(YoungZZ):
        def level_phi(self, n, rows):
            xs, q = YoungZZ.level_phi(self, n, rows)
            return [x + q if lam == P([2]) else x for (lam, _, _), x in zip(rows, xs)], q

    bad = Corrupted(F(3), F(2))
    report = check_harmonicity(bad, 4)
    assert not report.ok
    # the corrupted vertex shows up at its parent and at itself, and nowhere else
    assert [v.mu for v in report.violations] == [P([1]), P([2])]
    assert dict(report.phi_values)[P([2])] == fam.phi(P([2])) + 1
    assert check_harmonicity(fam, 4).ok


class CountingYoungZZ(YoungZZ):
    """Records each level the level form reads, and each one-vertex phi."""

    def level_phi(self, n, rows):
        self.calls.append((n, [lam for lam, _, _ in rows]))
        return YoungZZ.level_phi(self, n, rows)

    def phi(self, mu):
        self.calls.append(mu)
        return YoungZZ.phi(self, mu)


def counting_family(e=F(1), t=F(5, 4)):
    fam = CountingYoungZZ(e, t)
    object.__setattr__(fam, "calls", [])
    return fam


# levels 0..8 of the Young graph hold 67 vertices
VERTICES_THROUGH_8 = sum(len(partitions_of(n)) for n in range(9))
LEVELS_THROUGH_8 = [(n, partitions_of(n)) for n in range(9)]


def test_check_harmonicity_reads_the_level_form_once_per_level():
    fam = counting_family()
    report = check_harmonicity(fam, 8)
    assert report.ok and report.checked == VERTICES_THROUGH_8 - len(partitions_of(8))
    assert fam.calls == LEVELS_THROUGH_8  # and never phi at one vertex
    assert [mu for mu, _ in report.phi_values] == list(partitions_up_to(8))
    assert report.level_masses == (F(1),) * 9


def test_check_harmonic_command_reads_the_level_form_once_per_level(monkeypatch, capsys):
    fam = counting_family()
    monkeypatch.setattr(cli, "parse_family", lambda spec: fam)
    assert cli.main(["check-harmonic", "--family", "young-zz:e=1,t=5/4", "--levels", "8"]) == 0
    assert "summary: 120 passed, 0 failed" in capsys.readouterr().out
    assert fam.calls == LEVELS_THROUGH_8


def test_level_measures_normalize():
    families = [
        YoungZZ(F(3), F(2)),
        JackZZ(F(1), F(5, 4), F(2)),
        KingmanTA(F(2), F(0)),
        SchurT(F(7, 3)),
        TruncYoung(P([2, 1])),
        TruncKingman(P([1, 1])),
        TruncSchur(P([2, 1])),
        GammaShaped(P([2, 1])),
    ]
    for fam in families:
        for n in range(1, 7):
            measure = level_measure(fam, n)
            assert measure.total() == 1, (fam.spec_string(), n)


def test_level_one_measure_is_point_mass():
    fam = YoungZZ(F(3), F(2))
    measure = level_measure(fam, 1)
    assert measure.as_dict() == {P([1]): F(1)}


def test_kingman_alpha_zero_is_single_parameter_structure():
    # at alpha = 0 the family is the classical one-parameter structure:
    # phi(mu) = t^length * prod (part-1)! / multiplicities / (t)_n
    fam = KingmanTA(F(2), F(0))
    for n in range(1, 7):
        for mu in partitions_of(n):
            expected = F(2) ** mu.length
            for p in mu.parts:
                for v in range(1, p):
                    expected *= v
            for r in mu.multiplicities().values():
                for v in range(1, r + 1):
                    expected /= v
            expected /= pochhammer(F(2), n)
            assert fam.phi(mu) == expected
        assert level_measure(fam, n).total() == 1


def test_trunc_young_support():
    fam = TruncYoung(P([1, 1]))
    measure = level_measure(fam, 5)
    assert all(lam.length <= 2 for lam in measure.support())


def test_gamma_support_is_bounded_depth():
    fam = GammaShaped(P([2, 1]))
    measure = level_measure(fam, 5)
    assert all(lam.depth <= 1 for lam in measure.support())
    assert fam.phi(P([2, 2])) == 0


def test_gamma_degree_cap_enforced():
    fam = GammaShaped(P([2, 1]), degree_cap=4)
    with pytest.raises(FamilyError):
        fam.phi(P([5]))


def test_jack_at_one_equals_young():
    young = YoungZZ(F(3), F(2))
    jacky = JackZZ(F(3), F(2), F(1))
    for mu in partitions_up_to(7):
        assert jacky.phi(mu) == young.phi(mu)


def test_young_engine_cross_check():
    # closed product equals the shifted Jacobi-Trudi value of the functional
    for e, t in YOUNG_PARAMS:
        fam = YoungZZ(e, t)
        spec = young_zz_functional(e, t, 6)
        for mu in partitions_up_to(6):
            engine = (
                (-1) ** mu.size
                * functional_on_shifted_schur(mu, spec)
                / pochhammer(t, mu.size)
            )
            assert engine == fam.phi(mu)


def test_schur_engine_cross_check():
    # closed product must match the full one-row -> two-row -> Pfaffian chain
    from harmgraphs.interp import pstar_eval, schur_t_functional

    for t in SCHUR_PARAMS:
        fam = SchurT(t)
        spec = schur_t_functional(t, 18)
        for n in range(9):
            for mu in partitions_of(n, strict=True):
                engine = (-1) ** n * pstar_eval(mu, spec) / pochhammer(t, n)
                assert fam.phi(mu) == engine
                assert pstar_eval(mu, spec) == pstar_closed_form(t, mu)


def test_degenerate_kingman_witness():
    # t = -k*alpha with negative alpha: nonnegative but vanishing somewhere
    fam = KingmanTA(F(1), F(-1, 2))  # k = 2, alpha = -1/2
    assert check_harmonicity(fam, 6).ok
    values = [fam.phi(mu) for n in range(7) for mu in partitions_of(n)]
    assert all(v >= 0 for v in values)
    assert any(v == 0 for v in values)
    assert all(fam.phi(mu) == 0 for mu in partitions_of(5) if mu.length > 2)


def test_admissibility_regions():
    assert YoungZZ(F(1), F(5, 4)).admissible().ok  # conjugate pair 1/2 +- i
    assert YoungZZ(F(5, 6), F(1, 6)).admissible().ok  # real pair in (0,1)
    assert not YoungZZ(F(3), F(2)).admissible().ok
    assert not YoungZZ.params_admissible(F(2), F(3, 4)).ok  # roots straddle 1
    assert KingmanTA(F(1), F(1, 2)).admissible().ok
    assert not KingmanTA.params_admissible(F(-1), F(1, 2)).ok
    assert not KingmanTA(F(1), F(-1, 2)).admissible().ok
    assert SchurT(F(3)).admissible().ok
    assert not SchurT.params_admissible(F(-1)).ok
    surrogate = JackZZ(F(1), F(5, 4), F(1, 2)).admissible(surrogate_level=4)
    assert surrogate.ok and surrogate.surrogate


def test_family_spec_round_trip():
    # each spec with one that differs in a single parameter
    specs = [
        ("young-zz:e=3,t=2", "young-zz:e=3,t=5/2"),
        ("jack:e=3,t=2,theta=1/2", "jack:e=3,t=2,theta=1"),
        ("kingman:t=1,alpha=1/2", "kingman:t=1,alpha=1/3"),
        ("schur:t=3", "schur:t=4"),
        ("trunc-young:lambda=2+1", "trunc-young:lambda=3+1"),
        ("trunc-kingman:lambda=1+1", "trunc-kingman:lambda=2+1"),
        ("trunc-schur:lambda=2+1", "trunc-schur:lambda=3+1"),
        ("gamma:lambda=2+1,cap=8", "gamma:lambda=2+1,cap=9"),
    ]
    families = [parse_family(text) for text, _ in specs]
    assert len({type(fam) for fam in families}) == len(specs)
    for fam, (_, other) in zip(families, specs):
        again = parse_family(fam.spec_string())
        assert again.spec_string() == fam.spec_string()
        assert again == fam and hash(again) == hash(fam) and again is not fam
        fam.phi(P([1]))  # a family that fills its cache on first use stays equal
        assert again == fam and hash(again) == hash(fam)
        pickled = pickle.loads(pickle.dumps(fam))  # and so does its pickled copy
        assert pickled == again and hash(pickled) == hash(again)
        assert parse_family(other) != fam
        with pytest.raises(AttributeError):
            fam.lam = P([5])
    # the same parameter on another graph is another family
    assert parse_family("trunc-young:lambda=2+1") != parse_family("trunc-kingman:lambda=2+1")
    with pytest.raises(FamilyError):
        parse_family("young-zz:e=3")
    with pytest.raises(FamilyError):
        parse_family("mystery:t=1")
    with pytest.raises(FamilyError):
        parse_family("young-zz:e=3,t=0")


@pytest.mark.parametrize(
    "make,other,attr",
    [
        (lambda: jack(F(1, 2)), lambda: jack(F(1, 3)), "theta"),
        (lambda: GraphKind("kingman"), lambda: GraphKind("young"), "name"),
        (lambda: ThomaPoint((F(1, 2),), (F(1, 4),)), lambda: ThomaPoint((F(1, 2),)), "beta"),
        (lambda: FunctionalSpec(H_STAR, (1, F(1, 2))), lambda: FunctionalSpec(H_STAR, (1, 2)), "values"),
        (lambda: level_measure(YoungZZ(F(3), F(2)), 3), lambda: level_measure(YoungZZ(F(3), F(2)), 2), "n"),
    ],
    ids=["graph-kind-jack", "graph-kind", "thoma-point", "functional-spec", "level-measure"],
)
def test_values_are_immutable_and_equal_by_value(make, other, attr):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1
    assert other() != a
    with pytest.raises(AttributeError):
        setattr(a, attr, getattr(other(), attr))
    assert a == b


def test_values_families_and_reports_pickle():
    # a worker process receives a family or sends a report back by pickle
    values = [P([2, 1]), P(), P([3, 1]).frobenius(), RationalMatrix([[1, F(1, 2)], [F(-3), 4]])]
    for value in values:
        again = pickle.loads(pickle.dumps(value))
        assert again == value and type(again) is type(value)
        with pytest.raises(AttributeError):
            again.parts = ()
    # a truncated family travels as its parameters, and evaluates alike on the other side
    for fam in (TruncYoung(P([2, 1])), TruncKingman(P([2, 1]))):
        again = pickle.loads(pickle.dumps(fam))
        assert again == fam and again == type(fam)(fam.lam) and hash(again) == hash(type(fam)(fam.lam))
        assert [again.phi(mu) for mu in partitions_of(5)] == [fam.phi(mu) for mu in partitions_of(5)]
        report = check_harmonicity(fam, 5)
        assert pickle.loads(pickle.dumps(report)) == report
    assert pickle.loads(pickle.dumps(GammaShaped(P([2, 1])))).lam.depth == 1


@pytest.mark.parametrize(
    "family",
    [
        TruncYoung(P([2, 1])),
        TruncKingman(P([2, 1, 1])),
        TruncSchur(P([3, 1])),
        GammaShaped(P([2, 1]), degree_cap=6),
    ],
    ids=str,
)
def test_families_carry_no_hidden_state(monkeypatch, family):
    # a family is a value: evaluating it, checking it, integrating against it and sweeping its
    # measure leave its attributes and its pickle as they were (the Selberg rows read this family)
    face = FACES[family.face]
    selberg = lambda lam, mus: (family, face.selberg(lam, mus)[1])
    monkeypatch.setitem(boundary.FACES, family.face, face._replace(selberg=selberg))
    s = getattr(family.lam, face.stat)
    mus = [mu for mu in partitions_up_to(5) if not mu.size or face.admits(mu, s)]
    before = dict(vars(family)), len(pickle.dumps(family))
    family.phi(P([2, 1]))
    assert check_harmonicity(family, 6).ok
    assert all(row.equal for row in selberg_rows(family.face, family.lam, mus))
    convergence_experiment(family, [5, 6])
    assert (vars(family), len(pickle.dumps(family))) == before


@pytest.mark.parametrize(
    "family,n",
    [
        (TruncYoung(P([2, 1])), 7),
        (TruncKingman(P([2, 1, 1])), 7),
        (TruncSchur(P([3, 1])), 7),
        (GammaShaped(P([2, 1])), 7),  # depth 1: the rows of depth 2 read 0
        (GammaShaped(P([3, 3, 1]), degree_cap=9), 9),  # depth 2: 3+3+3 reads 0
    ],
    ids=str,
)
def test_truncated_families_read_zero_exactly_past_their_support(family, n):
    # the four truncated families share one level form, which reads the support from one
    # statistic of lam: the length, or on gamma the depth
    assert vars(type(family))["level_phi"] is harmonic._Truncated.level_phi
    mus = partitions_of(n, strict=family.kind.strict)
    xs, _ = family.level_phi(n, [(mu, None, ()) for mu in mus])
    past = [getattr(mu, family.stat) > getattr(family.lam, family.stat) for mu in mus]
    assert [x == 0 for x in xs] == past
    assert any(past) and not all(past)


def test_gamma_level_form_keeps_the_depth_and_cap_rules():
    # a vertex past the depth reads 0 at any level; a level past the cap raises only if it
    # has a vertex within the depth, and a sweep past the cap raises at its first such level
    family = GammaShaped(P([2, 1]), degree_cap=3)
    assert family.lam.depth == 1
    assert family.phi(P([2, 2])) == 0
    assert family.level_phi(4, [(P([2, 2]), None, ()), (P([3, 3]), None, ())])[0] == [0, 0]
    with pytest.raises(FamilyError, match=r"^cap=3 exceeded at \|mu\| = 4; raise cap$"):
        family.phi(P([3, 1]))
    with pytest.raises(FamilyError, match=r"^cap=3 exceeded at \|mu\| = 4; raise cap$"):
        check_harmonicity(family, 4)
    assert check_harmonicity(family, 3).ok


def test_lattice_bounds_monotone():
    f1 = YoungZZ(F(1), F(5, 4))
    f2 = YoungZZ(F(5, 6), F(1, 6))
    for mu in (P(), P([1])):
        rows = lattice_bound_approx(f1, f2, mu, 8)
        assert [n for n, _, _ in rows] == list(range(mu.size + 1, 9))
        joins = [join for _, join, _ in rows]
        meets = [meet for _, _, meet in rows]
        bound = f1.phi(mu) + f2.phi(mu)
        assert all(joins[i] <= joins[i + 1] for i in range(len(joins) - 1))
        assert all(meets[i] >= meets[i + 1] for i in range(len(meets) - 1))
        assert all(j <= bound for j in joins)
        assert all(m >= 0 for m in meets)


def test_lattice_same_family_is_identity():
    fam = YoungZZ(F(1), F(5, 4))
    for mu in (P(), P([1]), P([2, 1])):
        rows = lattice_bound_approx(fam, fam, mu, 7)
        assert [n for n, _, _ in rows] == list(range(mu.size + 1, 8))
        for _, join, meet in rows:
            assert join == meet == fam.phi(mu)


def test_lattice_reads_the_level_form_once_per_family_per_level():
    phi_fam = counting_family()
    psi_fam = counting_family(F(5, 6), F(1, 6))
    mu = P([2, 1])
    rows = lattice_bound_approx(phi_fam, psi_fam, mu, 7)
    above = [(n, [lam for lam in partitions_of(n) if lam.contains(mu)]) for n in range(4, 8)]
    assert phi_fam.calls == psi_fam.calls == above
    assert [n for n, _, _ in rows] == [4, 5, 6, 7]
    for (n, join, meet), (_, level) in zip(rows, above):
        pairs = [(dim(mu, lam, YOUNG), YoungZZ.phi(phi_fam, lam), YoungZZ.phi(psi_fam, lam))
                 for lam in level]
        assert join == sum((d * max(a, b) for d, a, b in pairs), F(0))
        assert meet == sum((d * min(a, b) for d, a, b in pairs), F(0))


def test_closed_form_sweeps_take_no_hook_product_or_conjugate(monkeypatch):
    # the level forms read dims from the sweep and boxes from row tables
    calls = []
    for name in ("hook_product", "conjugate"):
        original = getattr(Partition, name)
        monkeypatch.setattr(
            Partition, name, lambda self, original=original, name=name: calls.append(name) or original(self)
        )
    pairs = [
        (YoungZZ(F(1), F(5, 4)), YoungZZ(F(5, 6), F(1, 6))),
        (SchurT(F(3)), SchurT(F(-1, 2))),
        (KingmanTA(F(1), F(1, 2)), KingmanTA(F(0), F(1, 3))),
    ]
    for fam, other in pairs:
        assert check_harmonicity(fam, 8).ok
        for mu in (P(), P([1]), P([2, 1])):
            assert lattice_level_sums(fam, other, mu, 7)
    assert calls == []
    P([2, 1]).hook_product()  # the guard sees a call
    assert calls == ["hook_product", "conjugate"]


def test_lattice_rejects_bad_input():
    f1 = YoungZZ(F(1), F(5, 4))
    with pytest.raises(ValueError):
        lattice_bound_approx(f1, f1, P([1]), 1)
    with pytest.raises(ValueError):
        lattice_bound_approx(f1, f1, P([2, 1]), 2)
    with pytest.raises(ValueError):
        lattice_bound_approx(f1, SchurT(F(3)), P(), 3)
