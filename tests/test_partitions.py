import random
from fractions import Fraction as F

import pytest

from harmgraphs.partitions import (
    FrobeniusCoords,
    Partition,
    level_runs,
    partitions_of,
    partitions_up_to,
)
from oracles import reverse_tableaux

P = Partition


def test_construction_and_value_semantics():
    assert P([3, 2, 1, 0, 0]).parts == (3, 2, 1)
    assert P([3, 2, 1]) == P((3, 2, 1))
    assert hash(P([2, 1])) == hash(P([2, 1]))
    with pytest.raises(ValueError):
        P([1, 2])
    with pytest.raises(ValueError):
        P([-1])


def test_text_and_json_forms():
    assert str(P([3, 2, 1])) == "3+2+1"
    assert str(P()) == "0"
    assert P.parse("3+2+1") == P([3, 2, 1])
    assert P.parse("0") == P()


def test_conjugate_involution_and_sizes():
    rng = random.Random(1)
    for n in range(10):
        for mu in partitions_of(n):
            assert mu.conjugate().conjugate() == mu
            assert mu.conjugate().size == n
            assert sum(k * r for k, r in mu.multiplicities().items()) == n


def test_box_statistics():
    mu = P([4, 2, 1])
    assert mu.arm(1, 1) == 3
    assert mu.leg(1, 1) == 2
    assert mu.hook(1, 1) == 6
    assert mu.content(2, 1) == -1
    assert mu.theta_content(1, 1, F(1, 2)) == 0
    assert mu.theta_content(3, 1, F(1, 2)) == -1
    # content and theta-content agree at theta = 1
    for (i, j) in mu.boxes():
        assert mu.theta_content(i, j, 1) == mu.content(i, j)


def test_conjugation_swaps_arm_and_leg():
    for n in range(10):
        for mu in partitions_of(n):
            conj = mu.conjugate()
            for (i, j) in mu.boxes():
                assert mu.arm(i, j) == conj.leg(j, i)
                assert mu.leg(i, j) == conj.arm(j, i)


def test_covers_examples():
    assert P().up_covers() == [P([1])]
    assert P([1]).up_covers() == [P([2]), P([1, 1])]
    assert P([1]).up_covers(strict=True) == [P([2])]
    assert P([2, 1]).down_covers() == [P([2]), P([1, 1])]
    assert P([2]).down_covers(strict=True) == [P([1])]
    assert P([1]).down_covers() == [P()]


def test_covers_adjoint():
    for n in range(9):
        for mu in partitions_of(n):
            for lam in mu.up_covers():
                assert mu in lam.down_covers()
        for lam in partitions_of(n + 1):
            for mu in lam.down_covers():
                assert lam in mu.up_covers()


def _validated_covers(mu, delta, strict):
    """One box added (delta = 1) or removed (delta = -1) in each row where
    the rows stay nonincreasing, built by the validating constructor."""
    out = []
    for i in range(mu.length + (delta > 0)):
        parts = list(mu.parts) + [0]
        parts[i] += delta
        if all(a >= b for a, b in zip(parts, parts[1:])):
            cand = P(parts)
            if not strict or cand.is_strict:
                out.append(cand)
    return sorted(out, reverse=True)


def test_trusted_covers_match_validated_construction():
    for n in range(11):
        for strict in (False, True):
            for mu in partitions_of(n, strict=strict):
                assert P(mu.parts).parts == mu.parts
                for delta, covers in ((1, mu.up_covers(strict)), (-1, mu.down_covers(strict))):
                    assert covers == _validated_covers(mu, delta, strict)
                    for nu in covers:
                        assert P(nu.parts).parts == nu.parts
    # the strict filter also applies above a non-strict vertex
    assert P([1, 1]).up_covers(strict=True) == [P([2, 1])]
    assert P([2, 2]).down_covers(strict=True) == [P([2, 1])]


def test_level_counts():
    assert len(partitions_of(4)) == 5
    assert [p.parts for p in partitions_of(4, strict=True)] == [(4,), (3, 1)]
    assert partitions_of(0) == [P()]
    assert len(partitions_of(9)) == 30
    assert len(partitions_of(6, max_length=2)) == 4
    assert len(partitions_of(10, max_length=2, strict=True)) == 5
    assert partitions_of(5, max_length=0) == []
    wide = [p.parts for p in partitions_of(2000, max_length=2)]
    assert wide == [(2000,)] + [(2000 - k, k) for k in range(1, 1001)]


def _product_coefficients(parts, order, strict=False):
    """Coefficients of q^0..q^order in prod 1/(1 - q^k) over k in parts, or in
    prod (1 + q^k) if strict, multiplied in one factor at a time."""
    c = [1] + [0] * order
    for k in parts:
        steps = range(order, k - 1, -1) if strict else range(k, order + 1)
        for m in steps:
            c[m] += c[m - k]
    return c


def test_level_counts_match_generating_functions():
    order = 40
    every = range(1, order + 1)
    assert [len(partitions_of(n)) for n in every] == _product_coefficients(every, order)[1:]
    strict = _product_coefficients(every, order, strict=True)
    assert [len(partitions_of(n, strict=True)) for n in every] == strict[1:]
    # at most k parts is, by conjugation, parts at most k
    for k in range(1, 7):
        bounded = _product_coefficients(range(1, k + 1), order)
        assert [len(partitions_of(n, max_length=k)) for n in range(order + 1)] == bounded


def test_levels_decreasing_lexicographic():
    for n in range(1, 10):
        for strict in (False, True):
            seq = [p.parts for p in partitions_of(n, strict=strict)]
            assert seq == sorted(seq, reverse=True)


def test_level_runs_expand_to_the_bounded_level():
    # one run per prefix, each a nonempty interval of the (l-1)-th part, the runs and their
    # vertices in decreasing lexicographic order, and nothing else
    for l in range(1, 6):
        for n in range(31):
            runs = list(level_runs(n, l))
            assert all(len(p) == l and m >= 1 for p, m in runs)
            assert len({p[:-2] for p, _ in runs}) == len(runs)
            steps = [(*p[:-2], p[-2] - j, p[-1] + j) if j else p for p, m in runs for j in range(m)]
            assert [Partition(v) for v in steps] == partitions_of(n, max_length=l)


def test_frobenius_examples():
    fc = P([3, 3, 1]).frobenius()
    assert fc.p == (2, 1) and fc.q == (2, 0)
    assert P([3, 3, 1]).depth == 2


def test_frobenius_reads_the_arms_and_legs():
    # arms and legs from the parts and the column lengths, and |mu| = sum(p) + sum(q) + depth
    for n in range(13):
        for mu in partitions_of(n):
            d = sum(1 for i, part in enumerate(mu.parts, 1) if part >= i)
            columns = [sum(1 for part in mu.parts if part >= j) for j in range(1, d + 1)]
            want = (tuple(mu.parts[i] - i - 1 for i in range(d)), tuple(c - i - 1 for i, c in enumerate(columns)))
            fc = mu.frobenius()
            assert fc == FrobeniusCoords(*want) and type(fc.p) is tuple and type(fc.q) is tuple
            assert sum(fc.p) + sum(fc.q) + mu.depth == n and mu.depth == d


def test_reverse_tableaux_counts():
    assert len(list(reverse_tableaux(P([1]), 2))) == 2
    assert len(list(reverse_tableaux(P([1, 1]), 2))) == 1
    assert len(list(reverse_tableaux(P([2]), 1))) == 1
    # the single filling of a column pair puts the larger entry on top
    (filling,) = reverse_tableaux(P([1, 1]), 2)
    assert filling == ((2,), (1,))


def test_reverse_tableaux_constraints():
    for filling in reverse_tableaux(P([3, 2]), 3):
        for row in filling:
            assert all(row[i] >= row[i + 1] for i in range(len(row) - 1))
        for j in range(2):
            assert filling[0][j] > filling[1][j]


def test_shifted_diagram_content_identity():
    # product over shifted boxes of (t1+c)(t2+c) with t1+t2 = 1, t1*t2 = 2t
    # equals the product over ordinary boxes of (2t + (j-1)j)
    rng = random.Random(4)
    for n in range(1, 9):
        for mu in partitions_of(n, strict=True):
            t = F(rng.randint(-9, 9), rng.randint(1, 7))
            lhs = F(1)
            for (i, j) in mu.shifted_boxes():
                c = j - i
                # (t1+c)(t2+c) = t1 t2 + c(t1+t2) + c^2 = 2t + c + c^2
                lhs *= 2 * t + c + c * c
            rhs = F(1)
            for (i, j) in mu.boxes():
                rhs *= 2 * t + (j - 1) * j
            assert lhs == rhs


def test_shifted_boxes_need_strict():
    with pytest.raises(ValueError):
        list(P([2, 2]).shifted_boxes())


def test_partitions_up_to_ordering():
    seq = partitions_up_to(3)
    assert seq[0] == P()
    sizes = [p.size for p in seq]
    assert sizes == sorted(sizes)
