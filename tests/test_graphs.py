import hashlib
from fractions import Fraction as F
from math import comb

import pytest

from harmgraphs.graphs import (
    GraphKind,
    KINGMAN,
    SCHUR,
    YOUNG,
    covers_up,
    dim,
    dim_closed_form,
    dims_csv,
    edge_multiplicity,
    jack,
    jack_weight,
    level,
    parse_kind,
    sweep,
    top_level,
)
from harmgraphs.partitions import Partition, partitions_of, partitions_up_to

P = Partition


def test_kind_construction():
    assert parse_kind("young") is YOUNG
    assert parse_kind("jack(1/2)").theta == F(1, 2)
    assert str(jack(F(1, 3))) == "jack(1/3)"
    with pytest.raises(ValueError):
        GraphKind("jack")
    with pytest.raises(ValueError):
        GraphKind("jack", F(-1))
    with pytest.raises(ValueError):
        GraphKind("young", F(1))
    # an unknown kind, a jack theta that is no positive rational: one ValueError naming the kinds
    for text in ("foo", "strict", "jack", "jack(0)", "jack(1/0)", "jack(x)"):
        with pytest.raises(ValueError, match="is none of young, jack"):
            parse_kind(text)


def test_covers_by_kind():
    assert covers_up(P(), SCHUR) == [P([1])]
    assert covers_up(P([1]), YOUNG) == [P([2]), P([1, 1])]
    assert covers_up(P([1]), SCHUR) == [P([2])]
    with pytest.raises(ValueError):
        covers_up(P([2, 2]), SCHUR)


def test_level_enumeration():
    assert len(level(4, YOUNG)) == 5
    assert [p.parts for p in level(4, SCHUR)] == [(4,), (3, 1)]
    assert level(0, KINGMAN) == [P()]
    assert [p.parts for p in level(4, YOUNG, max_length=2)] == [(4,), (3, 1), (2, 2)]


def test_edge_multiplicity_examples():
    theta = F(1, 5)
    assert edge_multiplicity(P([1]), P([2]), jack(theta)) == 1
    assert edge_multiplicity(P([1]), P([1, 1]), jack(theta)) == 2 / (1 + theta)
    assert edge_multiplicity(P([1]), P([1, 1]), KINGMAN) == 2
    assert edge_multiplicity(P([2, 1]), P([2, 2]), KINGMAN) == 2
    assert edge_multiplicity(P([3]), P([3, 1]), YOUNG) == 1
    with pytest.raises(ValueError):
        edge_multiplicity(P([1]), P([3]), YOUNG)
    with pytest.raises(ValueError):
        jack_weight(P([1]), P([1, 1]), F(-1))


def test_edge_multiplicity_rejects_exactly_the_non_edges():
    # every ordered pair of partitions of size <= 8, on each kind: a ValueError
    # exactly when lam does not cover mu in that graph, and on the covers the
    # weights whose sha256 the two-pass cover check (size, then containment) gave
    pool = partitions_up_to(8)
    digest = hashlib.sha256()
    for kind in (YOUNG, KINGMAN, SCHUR, jack(1), jack(F(1, 2)), jack(3), jack(F(2, 3))):
        for mu in pool:
            for lam in pool:
                edge = lam.size == mu.size + 1 and lam.contains(mu)
                if kind.strict:
                    edge = edge and mu.is_strict and lam.is_strict
                if not edge:
                    with pytest.raises(ValueError):
                        edge_multiplicity(mu, lam, kind)
                    continue
                w = edge_multiplicity(mu, lam, kind)
                digest.update(f"{kind}|{mu}|{lam}|{w}\n".encode())
    assert digest.hexdigest() == "f22972f289fdc3ef0f253c3ab5230c6a4a3945f4417207de15b225defd0e36a3"


def test_jack_multiplicities_at_one_are_unit():
    one = jack(F(1))
    for n in range(7):
        for mu in partitions_of(n):
            for lam in covers_up(mu, one):
                assert edge_multiplicity(mu, lam, one) == 1


def test_jack_degenerates_to_kingman_at_zero():
    # the weight is exact at theta = 0, where it is the Kingman multiplicity
    for n in range(9):
        for mu in partitions_of(n):
            for lam in covers_up(mu, YOUNG):
                assert jack_weight(mu, lam, 0) == edge_multiplicity(mu, lam, KINGMAN)


def test_dim_examples():
    assert dim(P(), P([2, 1]), YOUNG) == 2
    assert dim(P(), P([2, 1]), KINGMAN) == 3
    assert dim(P(), P([2, 1]), SCHUR) == 1
    assert dim(P([1]), P([1]), YOUNG) == 1
    assert dim(P([2]), P([1, 1]), YOUNG) == 0


def test_dim_deep_paths():
    # a single 1200-step path: deeper than any recursion limit
    assert dim(P(), P([1200]), YOUNG) == 1
    # two-row standard tableaux are counted by the Catalan numbers
    assert dim(P(), P([100, 100]), YOUNG) == comb(200, 100) // 101


def test_dim_rejects_non_strict_schur_vertices():
    with pytest.raises(ValueError):
        dim(P(), P([2, 2]), SCHUR)


def test_sweep_levels_match_level_enumeration():
    for kind in (YOUNG, SCHUR, jack(F(1, 2))):
        seen = [n for n, *_ in sweep(kind, 7)]
        assert seen == list(range(8))
        for n, rows, _, _ in sweep(kind, 7):
            assert [lam for lam, _, _ in rows] == level(n, kind)
    for n, rows, _, _ in sweep(KINGMAN, 8, max_length=2):
        assert [lam for lam, _, _ in rows] == level(n, KINGMAN, max_length=2)


def test_sweep_edges_carry_the_edge_weights():
    kind = jack(F(2, 3))
    for n, rows, _, wq in sweep(kind, 5):
        for mu, _, edges in rows:
            expected = [] if n == 5 else covers_up(mu, kind)
            assert [nu for nu, _ in edges] == expected
            for nu, w in edges:
                assert F(w, wq) == edge_multiplicity(mu, nu, kind)


def test_sweep_yields_integers_on_every_graph():
    for kind in (YOUNG, KINGMAN, SCHUR, jack(F(1, 2)), jack(F(7, 3))):
        for start, within in ((P(), None), (P([1]), P([4, 3, 1]))):
            for _, rows, dq, wq in sweep(kind, 8, start, within):
                assert type(dq) is type(wq) is int
                assert all(type(d) is int and all(type(w) is int for _, w in edges) for _, d, edges in rows)


def test_sweep_from_a_vertex_within_a_bound():
    levels = list(sweep(YOUNG, 5, start=P([2, 1]), within=P([3, 2])))
    assert all(dq == wq == 1 for _, _, dq, wq in levels)
    rows = {n: level_rows for n, level_rows, _, _ in levels}
    assert sorted(rows) == [3, 4, 5]
    assert [(lam, d) for lam, d, _ in rows[4]] == [(P([3, 1]), 1), (P([2, 2]), 1)]
    assert [(lam, d) for lam, d, _ in rows[5]] == [(P([3, 2]), 2)]


def test_sweep_rejects_a_start_outside_its_graph_or_bound():
    # a non-strict start on the strict graph is refused at once, even when
    # the sweep never leaves the start's level
    with pytest.raises(ValueError, match="strict"):
        top_level(SCHUR, 4, start=P([2, 2]))
    with pytest.raises(ValueError, match="strict"):
        next(sweep(SCHUR, 6, start=P([2, 1, 1])))
    with pytest.raises(ValueError, match="outside"):
        next(sweep(YOUNG, 5, start=P([3]), within=P([2, 2])))
    assert top_level(YOUNG, 4, start=P([2, 2])) == ([(P([2, 2]), 1, [])], 1)
    assert top_level(SCHUR, 4, start=P([3, 1])) == ([(P([3, 1]), 1, [])], 1)


def test_dim_closed_form_examples():
    assert dim_closed_form(P([2, 2]), YOUNG) == 2
    assert dim_closed_form(P([1, 1, 1]), KINGMAN) == 6
    assert dim_closed_form(P([3, 2, 1]), SCHUR) == 2
    with pytest.raises(ValueError):
        dim_closed_form(P([2]), jack(F(1, 2)))


def test_dimension_oracles_small():
    for n in range(10):
        for lam in partitions_of(n):
            assert dim(P(), lam, YOUNG) == dim_closed_form(lam, YOUNG)
            assert dim(P(), lam, KINGMAN) == dim_closed_form(lam, KINGMAN)
    for n in range(13):
        for lam in partitions_of(n, strict=True):
            assert dim(P(), lam, SCHUR) == dim_closed_form(lam, SCHUR)


@pytest.mark.parametrize("kind", [YOUNG, KINGMAN, SCHUR, jack(F(2, 3))])
def test_branching_consistency(kind):
    # dim(mu, lam) = sum over nu covering mu of kappa(mu, nu) dim(nu, lam)
    for n_mu in range(4):
        for mu in partitions_of(n_mu, strict=kind.strict):
            for n_lam in range(n_mu + 1, 9):
                for lam in partitions_of(n_lam, strict=kind.strict):
                    lhs = dim(mu, lam, kind)
                    rhs = sum(
                        (
                            edge_multiplicity(mu, nu, kind) * dim(nu, lam, kind)
                            for nu in covers_up(mu, kind)
                        ),
                        F(0),
                    )
                    assert lhs == rhs, (mu, lam)


def test_dims_csv_format():
    text = dims_csv(3, YOUNG)
    lines = text.strip().splitlines()
    assert lines[0] == "level,partition,dim"
    assert lines[1] == "3,3,1"
    assert lines[2] == "3,2+1,2"
    assert lines[3] == "3,1+1+1,1"
