from fractions import Fraction as F

import pytest

from harmgraphs import boundary
from harmgraphs.boundary import (
    FACES,
    ConvergenceReport,
    ThomaPoint,
    convergence_experiment,
    density_spec,
    kingman_kernel,
    run_vertices,
    selberg_rows,
    selberg_verify,
    young_kernel,
)
from harmgraphs.exact import quotient_pfaffian, round_bits
from harmgraphs.graphs import KINGMAN, YOUNG, covers_up, edge_multiplicity, sweep
from harmgraphs.harmonic import GammaShaped, TruncKingman, TruncSchur, TruncYoung
from harmgraphs.interp import jacobi_trudi
from harmgraphs.partitions import Partition, partitions_of, partitions_up_to
from oracles import (
    dirichlet_integral,
    embed_frobenius,
    embed_rows,
    fraction_convergence_row,
    integer_convergence_row,
    simplex_monomial_integral,
    simplex_pair_integral,
    young_h_series,
)

P = Partition


# ---------------------------------------------------------------------------
# points and embeddings
# ---------------------------------------------------------------------------

def test_thoma_point_validation():
    pt = ThomaPoint((F(1, 2), F(1, 4)), (F(1, 8),))
    assert pt.gamma == F(1, 8)
    with pytest.raises(ValueError):
        ThomaPoint((F(1, 4), F(1, 2)))  # not ordered
    with pytest.raises(ValueError):
        ThomaPoint((F(3, 4),), (F(1, 2),))  # sums above 1
    with pytest.raises(ValueError):
        ThomaPoint((F(-1, 4),))


def test_embed_rows():
    assert embed_rows(P([3, 1]), 4) == (F(3, 4), F(1, 4))
    assert embed_rows(P([4]), 4) == (F(1),)
    with pytest.raises(ValueError):
        embed_rows(P([3, 1]), 5)


def test_embed_frobenius():
    alpha, beta = embed_frobenius(P([2, 1]), 3)
    assert alpha == (F(1, 2),)
    assert beta == (F(1, 2),)


# ---------------------------------------------------------------------------
# exact integrals
# ---------------------------------------------------------------------------

def test_dirichlet_examples():
    assert dirichlet_integral([1, 1]) == F(1, 2)
    assert dirichlet_integral([2, 2]) == F(1, 12)
    assert dirichlet_integral([1, 1, 1]) == F(1, 12)
    with pytest.raises(ValueError):
        dirichlet_integral([0, 1])


def test_simplex_monomial_matches_dirichlet():
    # ordered value = unordered value / l!
    assert simplex_monomial_integral([1, 1]) == 2 * dirichlet_integral([2, 2])
    assert simplex_monomial_integral([0, 0, 0]) == 6 * dirichlet_integral([1, 1, 1])


def test_simplex_pair_integral_cases():
    # int x y/(x+y) over x+y=1 is int x(1-x) = 1/6
    assert simplex_pair_integral([1, 1], [(0, 1)]) == F(1, 6)
    # int x/(x+y) over x+y=1 is 1/2
    assert simplex_pair_integral([1, 0], [(0, 1)]) == F(1, 2)
    # int x y z/(x+y) over the 2-simplex: radial reduction gives 1/72
    assert simplex_pair_integral([1, 1, 1], [(0, 1)]) == F(1, 72)
    # no pairs is the plain Dirichlet value: int x^2 (1 - x) = 1/12
    assert simplex_pair_integral([2, 1], []) == simplex_monomial_integral([2, 1]) == F(1, 12)
    with pytest.raises(ValueError):
        simplex_pair_integral([1, 1, 1], [(0, 1), (1, 2)])


def test_simplex_pair_integral_reads_pairs_once():
    # the pairs are counted as they are read, so an iterator gives the list's value
    pairs = [(0, 1), (2, 3)]
    assert simplex_pair_integral([1, 2, 0, 3], iter(pairs)) == F(1, 6720)
    assert simplex_pair_integral([1, 2, 0, 3], pairs) == F(1, 6720)


def test_simplex_pair_integral_against_iterated_quadrature():
    # two disjoint pairs on four variables, cross-checked by symbolic
    # iterated integration of the radial form by hand:
    # int x1^1 y1^1 x2^0 y2^0 /((x1+y1)(x2+y2)) with sum = 1
    # = B(2,2)*B(1,1) * Dirichlet(s1^(3-1) s2^(1-1)) ordered on s1+s2=1
    # = (1/6)*(1) * int s1^2 ds1-style = (1/6)*Gamma(3)Gamma(1)/Gamma(4)
    got = simplex_pair_integral([1, 1, 0, 0], [(0, 1), (2, 3)])
    assert got == F(1, 6) * F(2, 6)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_young_density_example():
    spec = density_spec("young", P([1, 1]))
    assert spec.constant == 60
    assert spec.density((F(3, 4), F(1, 4))) == F(45, 16)


def test_kingman_density_example():
    spec = density_spec("kingman", P([1, 1]))
    assert spec.constant == 12
    assert spec.density((F(3, 4), F(1, 4))) == 12 * F(3, 16)


def test_quotient_pfaffian_is_exact_on_integers():
    # (3 - 2)/(3 + 2) * (3 - 1)/(3 + 1) * (2 - 1)/(2 + 1), as one integer pair
    for values, expected in [([], (1, 1)), ([3, 1], (2, 4)), ([3, 2, 1], (2, 60)), ([1, -1], (2, 0))]:
        got = quotient_pfaffian(values)
        assert all(type(v) is int for v in got) and got == expected


def test_schur_density_collision_rejected():
    spec = density_spec("schur", P([2, 1]))
    with pytest.raises(ValueError):
        spec.density((F(1, 2), F(1, 2)))
    assert spec.density((F(3, 4), F(1, 4))) > 0


@pytest.mark.parametrize(
    "graph,lam,point",
    [
        ("young", P([2, 1]), (F(1, 2),)),
        ("young", P([2, 1]), (F(1, 2), F(1, 4), F(1, 8))),
        ("kingman", P([2, 1]), (F(1, 2),)),
        ("kingman", P([2, 1]), (F(1, 2), F(1, 4), F(1, 8))),
        ("schur", P([3, 1]), (F(1, 2),)),
        ("schur", P([3, 1]), (F(1, 2), F(1, 4), F(1, 8))),
        # depth 2: each of alpha and beta has two coordinates
        ("gamma", P([3, 2]), ((F(1, 2), F(1, 8)), (F(1, 4),))),
        ("gamma", P([3, 2]), ((F(1, 2), F(1, 8)), (F(1, 4), F(1, 16), F(1, 32)))),
    ],
    ids=["young-short", "young-long", "kingman-short", "kingman-long", "schur-short", "schur-long",
         "gamma-short-beta", "gamma-long-beta"],
)
def test_density_rejects_points_of_the_wrong_dimension(graph, lam, point):
    with pytest.raises(ValueError, match="face has"):
        density_spec(graph, lam).density(point)


def test_density_masses_are_one():
    # mass-1 is the empty-mu case of the matching integral identity
    for graph, lam in [
        ("young", P([1, 1])),
        ("young", P([2, 1])),
        ("young", P([2, 2, 1])),
        ("kingman", P([1, 1])),
        ("kingman", P([3, 1, 1])),
        ("schur", P([2, 1])),
        ("schur", P([3, 2, 1])),
        ("gamma", P([2, 1])),
        ("gamma", P([2, 2])),
        ("gamma", P([3, 3, 2])),
    ]:
        res = selberg_verify(graph, lam, P())
        assert res.lhs == 1
        assert res.equal, (graph, lam)


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------

def test_selberg_young_hand_example():
    res = selberg_verify("young", P([1, 1]), P([1]))
    assert res.lhs == 1 and res.rhs == 1


def test_selberg_kingman_hand_example():
    res = selberg_verify("kingman", P([1, 1]), P([2]))
    assert res.lhs == F(3, 5) and res.equal


def test_selberg_sweep_young():
    for l in (2, 3):
        for ln in range(l, 7):
            for lam in (p for p in partitions_of(ln) if p.length == l):
                for mn in range(0, 7):
                    for mu in partitions_of(mn, max_length=l):
                        assert selberg_verify("young", lam, mu).equal, (lam, mu)


def test_selberg_sweep_kingman():
    for l in (1, 2, 3):
        for ln in range(l, 7):
            for lam in (p for p in partitions_of(ln) if p.length == l):
                for mn in range(0, 7):
                    for mu in partitions_of(mn, max_length=l):
                        assert selberg_verify("kingman", lam, mu).equal, (lam, mu)


def test_selberg_sweep_schur():
    for l in (2, 3):
        for ln in range(l, 7):
            for lam in (p for p in partitions_of(ln, strict=True) if p.length == l):
                assert selberg_verify("schur", lam, P()).equal, lam
                for mn in range(1, 7):
                    for mu in (p for p in partitions_of(mn, strict=True) if p.length == l):
                        assert selberg_verify("schur", lam, mu).equal, (lam, mu)


def test_selberg_sweep_gamma():
    for d in (1, 2):
        for ln in range(1, 7):
            for lam in (p for p in partitions_of(ln) if p.depth == d):
                assert selberg_verify("gamma", lam, P()).equal, lam
                for mn in range(1, 7):
                    for mu in (p for p in partitions_of(mn) if p.depth == d):
                        assert selberg_verify("gamma", lam, mu).equal, (lam, mu)


def test_selberg_rows_per_lambda_match_one_row_at_a_time():
    # one family per lambda (for gamma with the cap of the largest mu) gives the values
    # of one family per row, on the groups `verify selberg --max-size 5` reads
    shapes = [p for p in partitions_up_to(5) if p.size]
    for name, face in FACES.items():
        groups = [
            (lam, [P(), *(mu for mu in shapes if face.admits(mu, s))])
            for s in face.sweep
            for lam in shapes
            if face.family.accepts(lam) and getattr(lam, face.family.stat) == s
        ]
        assert groups, name
        for lam, mus in groups:
            assert selberg_rows(name, lam, mus) == [selberg_verify(name, lam, mu) for mu in mus]


def test_selberg_rejects_unsupported_shapes():
    with pytest.raises(ValueError):
        selberg_verify("schur", P([3, 2, 1]), P([2, 1]))  # 0 < length < 3
    with pytest.raises(ValueError):
        selberg_verify("gamma", P([3, 3, 2]), P([2]))  # 0 < depth < 2
    with pytest.raises(ValueError):
        selberg_verify("young", P([2, 1]), P([1, 1, 1]))  # mu too long
    with pytest.raises(ValueError, match="no exact route"):
        selberg_verify("schur", P([3, 1]), P([1, 1]))  # mu not strict
    # no face is capped: the kingman integral is one monomial table of lam, and the schur
    # and gamma mu = () integrals are one Pfaffian and one determinant, at any width
    assert selberg_verify("kingman", P([1] * 6), P([1])).equal
    assert selberg_verify("kingman", P([1] * 6), P()).equal
    assert selberg_verify("schur", P([6, 5, 4, 3, 2, 1]), P()).equal
    assert selberg_verify("gamma", P([6] * 6), P()).equal
    assert selberg_verify("young", P([6, 5, 4, 3, 2, 1]), P([1])).equal


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_degree_one_values():
    om = ThomaPoint((F(1, 3), F(1, 5)), (F(1, 7),))
    assert young_kernel(P([1]), om) == 1
    assert kingman_kernel(P([1]), ThomaPoint((F(1, 3), F(1, 5)))) == 1
    assert young_kernel(P(), om) == 1


def test_young_kernel_column_vanishing():
    # a single unit alpha coordinate kills the column of height two
    om = ThomaPoint((F(1),))
    assert young_kernel(P([1, 1]), om) == 0


def test_kingman_kernel_monomial_case():
    om = ThomaPoint((F(1, 2), F(1, 2)))
    assert kingman_kernel(P([2]), om) == F(1, 2)
    assert kingman_kernel(P([1, 1]), om) == F(1, 4)


def test_kingman_kernel_rejects_beta():
    with pytest.raises(ValueError):
        kingman_kernel(P([1]), ThomaPoint((F(1, 2),), (F(1, 4),)))


BOUNDARY_POINTS = [
    ThomaPoint((F(1, 2), F(1, 4)), (F(1, 8),)),
    ThomaPoint((F(1, 3), F(1, 5))),
    ThomaPoint((F(2, 5),), (F(1, 5), F(1, 10))),
    ThomaPoint((F(1, 6), F(1, 6), F(1, 6))),
    ThomaPoint((), (F(1, 2), F(1, 4))),
]


@pytest.mark.parametrize("om", BOUNDARY_POINTS)
def test_young_kernel_harmonicity(om):
    for n in range(6):
        for mu in partitions_of(n):
            lhs = young_kernel(mu, om)
            rhs = sum((young_kernel(lam, om) for lam in covers_up(mu, YOUNG)), F(0))
            assert lhs == rhs, mu


def test_one_series_per_point_serves_every_mu():
    # young_kernel builds its own series of order |mu| + 1
    for om in BOUNDARY_POINTS:
        h = young_h_series(om, 7)
        for mu in partitions_up_to(6):
            assert jacobi_trudi(mu, h) == young_kernel(mu, om), (om, mu)


@pytest.mark.parametrize(
    "om",
    [
        ThomaPoint((F(1, 2), F(1, 4))),
        ThomaPoint((F(1, 3), F(1, 5))),
        ThomaPoint((F(2, 5), F(1, 5), F(1, 10))),
        ThomaPoint((F(5, 6),)),
        ThomaPoint(()),
    ],
)
def test_kingman_kernel_harmonicity(om):
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
            assert lhs == rhs, mu


def test_kingman_density_matches_kernel_form():
    # the width-l density is the constant times the plain monomial kernel
    # value at interior points (gamma = 0 on the face)
    lam = P([2, 1])
    spec = density_spec("kingman", lam)
    alpha = (F(3, 5), F(2, 5))
    om = ThomaPoint(alpha)
    assert om.gamma == 0
    assert spec.density(alpha) == spec.constant * kingman_kernel(lam, om)


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------

def test_convergence_smoke_small():
    rep = convergence_experiment(TruncYoung(P([2, 1])), [4, 8])
    assert isinstance(rep, ConvergenceReport)
    assert all(row.mass_is_one for row in rep.rows)
    assert [row.n for row in rep.rows] == [4, 8]


def test_convergence_smoke_strict_and_hook_faces():
    # the experiment must run (exact masses, ratio bookkeeping) on the
    # faces without a polynomial bin integral as well
    rep = convergence_experiment(TruncSchur(P([2, 1])), [6, 10])
    assert all(row.mass_is_one for row in rep.rows)
    rep = convergence_experiment(GammaShaped(P([2, 1])), [5, 7])
    assert all(row.mass_is_one for row in rep.rows)


def test_convergence_trunc_young():
    rep = convergence_experiment(
        TruncYoung(P([2, 1])), [200, 400, 4000], interior_fraction=F(1, 5)
    )
    errs = [row.max_ratio_error for row in rep.rows]
    assert errs[2] < errs[1] < errs[0]
    assert rep.distances_decreasing
    assert all(row.mass_is_one for row in rep.rows)


def test_convergence_trunc_kingman():
    rep = convergence_experiment(
        TruncKingman(P([1, 1])), [200, 400, 4000], interior_fraction=F(1, 5)
    )
    assert rep.rows[-1].max_ratio_error < 0.01
    assert all(row.mass_is_one for row in rep.rows)
    assert rep.distances_decreasing


@pytest.mark.parametrize(
    "family,ns,gap",
    [
        (TruncYoung(P([2, 1])), [4, 30], F(1, 5)),
        (TruncYoung(P([3, 2, 1])), [24], F(1, 5)),
        (TruncYoung(P([2, 1, 1])), [60], F(1, 8)),
        (TruncKingman(P([2, 1])), [40, 41], F(1, 5)),
        (TruncKingman(P([2, 1, 1])), [30], F(1, 5)),
        (TruncKingman(P([2, 1, 1])), [100], F(1, 8)),
        (TruncKingman(P([2, 2, 1])), [48], F(1, 8)),
        (TruncSchur(P([3, 1])), [20], F(1, 5)),
        (GammaShaped(P([2, 1])), [5, 7], F(1, 5)),
        (GammaShaped(P([3, 2, 2]), degree_cap=9), [8, 9], F(1, 5)),
    ],
    ids=str,
)
def test_convergence_rows_match_the_fraction_loop(family, ns, gap):
    # each row is the exact level quantity, rounded once (the ratio error again to 53 bits)
    rep = convergence_experiment(family, ns, resolution=7, interior_fraction=gap)
    for row in rep.rows:
        mass, interior, err, distance = fraction_convergence_row(family, row.n, 7, gap)
        assert row.mass_is_one == (mass == 1)
        assert row.interior_points == interior
        assert row.max_ratio_error == round_bits(round_bits(err, 128), 53)
        assert row.binned_distance == round_bits(distance, 128)


@pytest.mark.parametrize(
    "family,top",
    [
        (TruncYoung(P([2, 1, 1])), 30),
        (TruncKingman(P([2, 1, 1])), 30),
        (TruncSchur(P([3, 1])), 30),
        (GammaShaped(P([2, 1]), degree_cap=12), 12),
    ],
    ids=str,
)
def test_face_level_weights_are_the_nonzero_level_measure(family, top):
    # `measure` prints a truncated family's face weights: the sweep within the width, one
    # level form per level, is the oracle (the gamma face has no width, and keeps its zeros)
    level_weights = FACES[family.face].level_weights
    for n, rows, dq, _ in sweep(family.kind, top, max_length=getattr(family, "width", None)):
        scale, runs = level_weights(family, n)
        xs, q = family.level_phi(n, rows)
        measure = [(nu, F(d * x, dq * q)) for (nu, d, _), x in zip(rows, xs)]
        face = [(nu, scale * v) for nu, v in run_vertices(runs)]
        assert [row for row in face if row[1]] == [row for row in measure if row[1]]
        assert all(w for _, w in face) or family.face == "gamma"


@pytest.mark.parametrize(
    "family,ns,gap",
    [
        (TruncYoung(P([2, 1, 1])), [300, 301], F(1, 8)),
        (TruncYoung(P([3, 2])), [500, 999], F(1, 5)),
        (TruncYoung(P([3, 2, 1])), [150], F(1, 7)),
        (TruncKingman(P([2, 1, 1])), [200, 201], F(1, 8)),
        (TruncKingman(P([2, 2])), [400, 401], F(1, 5)),
        (TruncKingman(P([1, 1, 1])), [240], F(1, 6)),  # 240 = 6 * 40: one interior vertex in all
        (TruncKingman(P([4])), [300], F(1, 5)),
        (TruncYoung(P([2, 1, 1, 1])), [110], F(1, 14)),  # a prefix fall is tested at width 4
        (TruncKingman(P([1, 1, 1, 1])), [110], F(1, 12)),
        (TruncSchur(P([3, 1])), [60], F(1, 5)),
        (GammaShaped(P([2, 1]), degree_cap=12), [12], F(1, 5)),
        (GammaShaped(P([3, 2, 2]), degree_cap=16), [16], F(1, 16)),  # depth 2
    ],
    ids=str,
)
def test_streamed_rows_match_the_list_based_loop(family, ns, gap):
    # the whole row, exactly, against the per-vertex integer loop over the listed level
    rep = convergence_experiment(family, ns, resolution=13, interior_fraction=gap)
    assert list(rep.rows) == [integer_convergence_row(family, n, 13, gap) for n in ns]


@pytest.mark.parametrize(
    "family",
    [TruncYoung(P([2, 1])), TruncYoung(P([2, 1, 1])), TruncKingman(P([3])), TruncKingman(P([1, 1])),
     TruncKingman(P([2, 2, 1]))],
    ids=str,
)
def test_every_vertex_within_the_width_carries_mass(family):
    # so a level's support is the sum of its run lengths
    for n in range(61):
        scale, runs = FACES[family.face].level_weights(family, n)
        values = list(run_vertices(runs))
        assert [nu for nu, _ in values] == partitions_of(n, max_length=family.width)
        assert all(v > 0 for _, v in values) and scale > 0
    rows = convergence_experiment(family, range(1, 61)).rows
    sizes = [len(partitions_of(n, max_length=family.width)) for n in range(1, 61)]
    assert [row.support_size for row in rows] == sizes


def test_convergence_evaluates_only_the_heads_of_runs(monkeypatch):
    # width 2: each level is one run; its weights and its interior forms are read from
    # the first degree + 1 points, plus one determinant for the density constant
    calls = []
    det = boundary.integer_det
    monkeypatch.setattr(boundary, "integer_det", lambda m: calls.append(m) or det(m))
    lam = P([3, 1])
    rep = convergence_experiment(TruncYoung(lam), [400])
    degree = boundary.FACES["young"].degree(lam)
    assert rep.rows[0].interior_points > degree + 1
    assert len(calls) <= 2 * (degree + 1) + 1


def test_convergence_rejects_infinite_families():
    from harmgraphs.harmonic import YoungZZ

    with pytest.raises(ValueError):
        convergence_experiment(YoungZZ(F(3), F(2)), [10])


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_convergence_rejects_fewer_than_two_bins(resolution):
    # one bin made every binned distance 0, and none divided by zero in the bin edges
    with pytest.raises(ValueError, match=f"resolution must be at least 2, got {resolution}"):
        convergence_experiment(TruncYoung(P([2, 1])), [500, 1000], resolution=resolution)
