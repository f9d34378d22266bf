import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from harmgraphs.exact import pochhammer, SingularMatrixError
from harmgraphs.graphs import KINGMAN, SCHUR, YOUNG, covers_up, dim, edge_multiplicity
from harmgraphs.interp import (
    FunctionalSpec,
    apply_functional,
    diagram_point,
    express_in_generator_basis,
    factorial_monomial_eval,
    gauss_2f1_check,
    h_star_values,
    monomial_eval,
    pstar_eval,
    pstar_one_row_numerators,
    pstar_two_row_table,
    schur_eval,
    schur_t_functional,
    shifted_schur_at_diagram,
    shifted_schur_eval,
    shifted_schur_h_coeffs,
)
from harmgraphs.partitions import Partition, partitions_of, partitions_up_to
from oracles import (
    boxes,
    content,
    evaluation_functional,
    falling_factorial,
    functional_on_shifted_schur,
    hook,
    multiplicities,
    pstar_closed_form,
    schur_bialternant,
    schur_tableau,
    shifted_schur_bialternant,
    shifted_schur_tableau,
    super_evaluation_functional,
    super_h_star_values,
    young_zz_closed_form,
    young_zz_functional,
)

P = Partition


def rand_point(rng, k):
    return tuple(F(rng.randint(-30, 30), rng.randint(1, 11)) for _ in range(k))


# ---------------------------------------------------------------------------
# classical evaluation
# ---------------------------------------------------------------------------

def test_schur_linear_case():
    x = (F(2), F(5, 3), F(-1, 2))
    assert schur_eval(P([1]), x) == sum(x)
    assert monomial_eval(P([1]), x) == sum(x)


def test_schur_elementary_case():
    assert schur_eval(P([1, 1]), (F(1, 2), F(1, 3))) == F(1, 6)


def test_schur_principal_specialization():
    # value at k ones equals the hook-content product
    for k in (2, 3, 4):
        ones = tuple(F(1) for _ in range(k))
        for n in range(1, 6):
            for mu in partitions_of(n):
                expected = F(1)
                for (i, j) in boxes(mu):
                    expected *= F(k + content(i, j), hook(mu, i, j))
                assert schur_eval(mu, ones) == expected
                assert schur_tableau(mu, ones) == expected


def test_schur_routes_agree():
    rng = random.Random(17)
    for _ in range(12):
        x = rand_point(rng, 4)
        if len(set(x)) < 4:
            continue
        for n in range(5):
            for mu in partitions_of(n):
                assert schur_eval(mu, x) == schur_tableau(mu, x) == schur_bialternant(mu, x)


def test_schur_bialternant_rejects_collisions():
    with pytest.raises(ValueError):
        schur_bialternant(P([2]), (F(1), F(1)))


def test_monomial_padding_and_short_points():
    assert monomial_eval(P([2, 1, 1]), (F(1), F(2))) == 0
    assert monomial_eval(P([2]), (F(2), F(3))) == 4 + 9


def test_monomials_match_the_distinct_arrangements_at_seven_points():
    # one pass over the coordinates against the sum over the distinct
    # arrangements of the zero-padded parts, every mu with |mu| <= 7
    x = (F(3, 2), F(-2), F(1, 3), F(5), F(-7, 4), F(0), F(2, 5))
    for mu in partitions_up_to(7):
        padded = mu.parts + (0,) * (len(x) - mu.length)
        for value, power in (
            (monomial_eval, lambda a, e: a**e),
            (factorial_monomial_eval, falling_factorial),
        ):
            expected = F(0)
            for perm in set(permutations(padded)):
                term = F(1)
                for xi, e in zip(x, perm):
                    term *= power(xi, e)
                expected += term
            assert value(mu, x) == expected, mu


# ---------------------------------------------------------------------------
# shifted Schur
# ---------------------------------------------------------------------------

def test_shifted_schur_degree_one_is_size():
    for n in range(7):
        for lam in partitions_of(n):
            assert shifted_schur_at_diagram(P([1]), lam) == n


def test_shifted_schur_specialization_at_repeated_point():
    # value at k copies of -w is the signed content/hook product
    rng = random.Random(23)
    for k in (2, 3):
        for _ in range(4):
            w = F(rng.randint(-12, 12), rng.randint(1, 7))
            x = tuple(-w for _ in range(k))
            for n in range(1, 5):
                for mu in partitions_of(n, max_length=k):
                    expected = F(1)
                    for (i, j) in boxes(mu):
                        c = content(i, j)
                        expected *= F(k + c) * (w + c) / hook(mu, i, j)
                    expected *= (-1) ** n
                    assert shifted_schur_eval(mu, x) == expected
                    assert shifted_schur_tableau(mu, x) == expected


def test_shifted_schur_routes_agree():
    rng = random.Random(31)
    count = 0
    while count < 20:
        x = rand_point(rng, 4)
        shifted = [x[i] + (len(x) - 1 - i) for i in range(len(x))]
        if len(set(shifted)) < len(x):
            continue
        count += 1
        for n in range(6):
            for mu in partitions_of(n):
                expected = shifted_schur_tableau(mu, x)
                assert shifted_schur_eval(mu, x) == shifted_schur_bialternant(mu, x) == expected


def test_shifted_schur_interpolation_vanishing():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for m in range(n + 1):
                for lam in partitions_of(m):
                    if lam == mu:
                        continue
                    assert shifted_schur_at_diagram(mu, lam) == 0


def test_shifted_schur_collision_reported():
    # the shifted coordinates (0+1, 1+0) collide
    with pytest.raises(SingularMatrixError):
        shifted_schur_bialternant(P([2]), (F(0), F(1)))
    # the Jacobi-Trudi determinant has no denominator at the same point
    assert shifted_schur_eval(P([2]), (F(0), F(1))) == shifted_schur_tableau(
        P([2]), (F(0), F(1))
    )


def test_factorial_monomial_interpolation_vanishing():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for m in range(n + 1):
                for lam in partitions_of(m):
                    if lam == mu:
                        continue
                    point = tuple(F(p) for p in lam.parts) or (F(0),)
                    assert factorial_monomial_eval(mu, point) == 0


def test_factorial_monomial_repeated_point_product():
    # value at k equal coordinates collapses to the closed product
    rng = random.Random(41)
    for k in (2, 3, 4):
        a = F(rng.randint(-9, 9), rng.randint(1, 5))
        x = tuple(a for _ in range(k))
        for n in range(1, 6):
            for mu in partitions_of(n, max_length=k):
                expected = falling_factorial(F(k), mu.length)
                for r in multiplicities(mu).values():
                    for v in range(1, r + 1):
                        expected /= v
                for part in mu.parts:
                    expected *= falling_factorial(a, part)
                assert factorial_monomial_eval(mu, x) == expected


# ---------------------------------------------------------------------------
# one-row series values
# ---------------------------------------------------------------------------

def test_h_star_series_on_diagrams():
    assert h_star_values((F(1),), 3) == [F(1), F(0), F(0)]
    assert h_star_values((F(2),), 4) == [F(2), F(2), F(0), F(0)]


def test_h_star_equals_one_row_shifted_schur():
    rng = random.Random(53)
    for _ in range(10):
        x = rand_point(rng, 3)
        vals = h_star_values(x, 5)
        for m in range(1, 6):
            assert vals[m - 1] == shifted_schur_tableau(P([m]), x)
    # and on diagrams against the determinant route, at the points whose
    # values fill the rows of the generator matrix
    for n in range(7):
        for lam in partitions_of(n):
            vals = h_star_values(diagram_point(lam, max(1, lam.length)), 6)
            for m in range(1, 7):
                assert vals[m - 1] == shifted_schur_at_diagram(P([m]), lam)


def test_super_values_match_diagram_values():
    # at the split-diagonal point of a diagram the two-alphabet series
    # reproduces the ordinary one-row values
    half = F(1, 2)
    for n in range(7):
        for lam in partitions_of(n):
            fc = lam.frobenius()
            xs = tuple(p + half for p in fc.p)
            ys = tuple(q + half for q in fc.q)
            got = super_h_star_values(xs, ys, 6)
            want = h_star_values(tuple(F(p) for p in lam.parts), 6)
            assert got == want


def test_q_one_row_doubling():
    # D_m = Q^m 2 P*_(m): the doubled one-row values, integers over Q = 1 here
    x = (F(2), F(1))
    assert pstar_one_row_numerators(x, 5) == ([6, 12, 0, 0, 0], 1)


def test_one_row_p_numerators_are_ints():
    for x in ((), (2, 1), (F(2, 3), F(-1), F(0))):
        one_row, q = pstar_one_row_numerators(x, 5)
        assert len(one_row) == 5 and all(type(d) is int for d in one_row) and type(q) is int


# ---------------------------------------------------------------------------
# factorial Schur P pipeline
# ---------------------------------------------------------------------------

def test_pstar_degree_one_is_size():
    for n in range(1, 8):
        for lam in partitions_of(n, strict=True):
            point = tuple(F(p) for p in lam.parts)
            assert pstar_eval(P([1]), point) == n


def test_pstar_interpolation_vanishing():
    for n in range(1, 7):
        for mu in partitions_of(n, strict=True):
            for m in range(n + 1):
                for lam in partitions_of(m, strict=True):
                    if lam == mu:
                        continue
                    point = tuple(F(p) for p in lam.parts)
                    assert pstar_eval(mu, point) == 0
    assert pstar_eval(P([2]), (F(1),)) == 0


def two_row_values(source, count, bound):
    """P*_(p,k) read from the integer table, T_(p,k) / (4 Q^(p+k))."""
    one_row, q = pstar_one_row_numerators(source, count)
    return {k: F(v, 4 * q ** sum(k)) for k, v in pstar_two_row_table(one_row, q, bound).items()}


def test_pstar_antisymmetry_convention():
    # the table holds p > q only; pstar_eval extends it antisymmetrically
    point = (F(3), F(1))
    one_row, q = pstar_one_row_numerators(point, 8)
    table = pstar_two_row_table(one_row, q, 8)
    assert table and all(p > q for p, q in table)
    assert pstar_eval(P([3, 1]), point) == F(table[(3, 1)], 4 * q**4) != 0


def test_pstar_two_row_table_extends_to_a_larger_bound():
    # an entry reads only entries of the same or lower p + q, so rebuilding
    # at a larger bound keeps every value already read
    rng = random.Random(17)
    sources = [schur_t_functional(F(7, 3), 24), (F(-4), F(-2)), (F(5, 2), F(-1, 3), F(3))]
    sources += [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)) for _ in range(3)]
    for source in sources:
        for b in range(13):
            wide = two_row_values(source, 24, 2 * b)
            assert two_row_values(source, 24, b) == {k: v for k, v in wide.items() if sum(k) <= b}


def test_pstar_pipeline_matches_closed_form():
    rng = random.Random(61)
    for _ in range(4):
        t = F(rng.randint(-15, 15), rng.randint(1, 9))
        spec = schur_t_functional(t, 18)
        for n in range(9):
            for mu in partitions_of(n, strict=True):
                assert pstar_eval(mu, spec) == pstar_closed_form(t, mu)


def test_pstar_rejects_non_strict():
    with pytest.raises(ValueError):
        pstar_eval(P([2, 2]), (F(1), F(2)))


def test_pstar_functional_requires_enough_values():
    spec = schur_t_functional(F(1), 3)
    with pytest.raises(ValueError):
        pstar_one_row_numerators(spec, 5)


def test_staircase_functional_is_staircase_evaluation():
    # the t-functional with t = -k(k+1)/2 is evaluation at (k, ..., 1)
    for k in (1, 2, 3):
        stair = P(range(k, 0, -1))
        t = F(-k * (k + 1), 2)
        spec = schur_t_functional(t, 18)
        point = tuple(F(p) for p in stair.parts)
        for n in range(7):
            for mu in partitions_of(n, strict=True):
                assert pstar_eval(mu, spec) == pstar_eval(mu, point)


def test_staircase_two_row_consistency():
    # two-row values under the staircase functionals match evaluations
    for k in (2, 3, 4):
        t = F(-k * (k + 1), 2)
        spec = schur_t_functional(t, 16)
        point = tuple(F(p) for p in range(k, 0, -1))
        assert two_row_values(spec, 12, 12) == two_row_values(point, 12, 12)


# ---------------------------------------------------------------------------
# Pieri relations under evaluation
# ---------------------------------------------------------------------------

def test_pieri_relations_at_random_points():
    rng = random.Random(71)
    shapes = partitions_up_to(6)
    for _ in range(20):
        x = rand_point(rng, 6)
        p1 = sum(x, F(0))
        # each value is read as a left side and again under every down-cover
        s = {lam: schur_eval(lam, x) for lam in shapes}
        m = {lam: monomial_eval(lam, x) for lam in shapes}
        s_star = {lam: shifted_schur_eval(lam, x) for lam in shapes}
        m_star = {lam: factorial_monomial_eval(lam, x) for lam in shapes}
        p_star = {lam: pstar_eval(lam, x) for lam in shapes if lam.is_strict}
        for n in range(6):
            for mu in partitions_of(n):
                kingman_covers = [
                    (edge_multiplicity(mu, lam, KINGMAN), lam) for lam in covers_up(mu, KINGMAN)
                ]
                lhs = s[mu] * p1
                rhs = sum((s[lam] for lam in covers_up(mu, YOUNG)), F(0))
                assert lhs == rhs
                lhs = m[mu] * p1
                rhs = sum((k * m[lam] for k, lam in kingman_covers), F(0))
                assert lhs == rhs
                lhs = s_star[mu] * p1
                rhs = n * s_star[mu] + sum((s_star[lam] for lam in covers_up(mu, YOUNG)), F(0))
                assert lhs == rhs
                lhs = m_star[mu] * p1
                rhs = n * m_star[mu] + sum((k * m_star[lam] for k, lam in kingman_covers), F(0))
                assert lhs == rhs
            for mu in partitions_of(n, strict=True):
                lhs = p_star[mu] * p1
                rhs = n * p_star[mu] + sum((p_star[lam] for lam in covers_up(mu, SCHUR)), F(0))
                assert lhs == rhs


def test_dimension_ratio_identity():
    # dim(mu, lam)/dim(lam) = (-1)^n s*_mu(lam) / (-N)_n on the Young graph
    for n in range(5):
        for mu in partitions_of(n):
            for big in range(n, 9):
                for lam in partitions_of(big):
                    lhs = F(dim(mu, lam, YOUNG), dim(P(), lam, YOUNG))
                    rhs = (-1) ** n * shifted_schur_at_diagram(mu, lam) / pochhammer(
                        F(-big), n
                    )
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# generator-basis engine (the test oracle) and functional values
# ---------------------------------------------------------------------------

def test_express_unit_vector_for_generators():
    for m in (1, 2, 3):
        target = {
            lam: shifted_schur_at_diagram(P([m]), lam) for lam in partitions_up_to(m)
        }
        coeffs = express_in_generator_basis(target, m)
        assert coeffs == {P([m]): F(1)}


def test_express_round_trip_on_shifted_schur():
    for n in range(1, 8):
        for mu in partitions_of(n):
            target = {
                lam: shifted_schur_at_diagram(mu, lam) for lam in partitions_up_to(n)
            }
            coeffs = express_in_generator_basis(target, n)
            # re-evaluate the expansion on diagrams and compare
            for lam in partitions_up_to(n):
                spec = evaluation_functional(tuple(F(p) for p in lam.parts), n)
                val = apply_functional(coeffs, spec)
                assert val == target[lam]


def test_h_coeffs_match_the_solve_over_evaluated_targets():
    # the column read against the old route: evaluate s*_mu on every
    # diagram of size <= |mu| and solve for the coefficients
    for n in range(7):
        for mu in partitions_of(n):
            target = {lam: shifted_schur_at_diagram(mu, lam) for lam in partitions_up_to(n)}
            expected = express_in_generator_basis(target, n)
            got = shifted_schur_h_coeffs(mu.parts)
            assert dict(got) == {rho.parts: c for rho, c in expected.items()}


def test_apply_functional_zero_spec():
    spec = FunctionalSpec("h-star", (F(0),) * 6)
    for n in range(1, 5):
        for mu in partitions_of(n):
            assert functional_on_shifted_schur(mu, spec) == 0


def test_engine_matches_two_parameter_closed_form():
    rng = random.Random(83)
    pairs = [(F(3), F(2)), (F(1), F(5, 4)), (F(-1, 2), F(1, 3)), (F(7, 3), F(9, 2)), (F(0), F(11, 7))]
    for e, t in pairs:
        spec = young_zz_functional(e, t, 6)
        for n in range(7):
            for mu in partitions_of(n):
                assert functional_on_shifted_schur(mu, spec) == young_zz_closed_form(e, t, mu)


def test_engine_matches_diagram_evaluation():
    for lam in (P([3, 1]), P([2, 2, 1])):
        spec = evaluation_functional(tuple(F(p) for p in lam.parts), 5)
        for n in range(6):
            for mu in partitions_of(n):
                assert functional_on_shifted_schur(mu, spec) == shifted_schur_at_diagram(mu, lam)


def test_functional_spec_validation():
    spec = young_zz_functional(F(1), F(2), 4)
    assert spec.t == -spec.values[0]
    assert spec.g(0) == 1
    with pytest.raises(ValueError):
        spec.g(9)
    with pytest.raises(ValueError):
        FunctionalSpec("nonsense", (F(1),))


def test_super_functional_drives_engine():
    # the value under the split-diagonal functional of a diagram equals
    # the plain evaluation at that diagram
    lam = P([3, 2])
    fc = lam.frobenius()
    half = F(1, 2)
    spec = super_evaluation_functional(
        [p + half for p in fc.p], [q + half for q in fc.q], 5
    )
    for n in range(6):
        for mu in partitions_of(n):
            assert functional_on_shifted_schur(mu, spec) == shifted_schur_at_diagram(mu, lam)


# ---------------------------------------------------------------------------
# hypergeometric summation
# ---------------------------------------------------------------------------

def test_gauss_trivial_case():
    assert gauss_2f1_check(F(0), F(1, 2), F(5), tol=1e-25)


def test_gauss_terminating_and_generic():
    assert gauss_2f1_check(F(-3), F(5, 7), F(9, 2), tol=1e-30)
    assert gauss_2f1_check(F(1, 2), F(1, 3), F(25), tol=1e-20)


def test_gauss_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gauss_2f1_check(F(1), F(1), F(3, 2))  # c - a - b <= 0
    with pytest.raises(ValueError):
        gauss_2f1_check(F(1, 2), F(1, 2), F(-2))  # c nonpositive integer


@pytest.mark.parametrize("tol,precision,message", [
    (0.0, 128, "tol must be positive"),
    (-1.0, 128, "tol must be positive"),
    (float("nan"), 128, "tol must be positive"),
    (1e-20, 0, "precision must be at least 1"),
    (1e-20, -5, "precision must be at least 1"),
])
def test_gauss_rejects_a_tolerance_or_precision_no_sum_can_meet(tol, precision, message):
    # at tol <= 0 no partial sum could pass, and below one bit there is no precision
    with pytest.raises(ValueError, match=message):
        gauss_2f1_check(F(1, 2), F(1, 3), F(25), tol=tol, precision=precision)
