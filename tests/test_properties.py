"""Property-based checks of the level sweep, the Jack weights, the
interpolation-polynomial evaluators, the product-form one-row series, the
truncated level weights, the exact Selberg integrals, the closed-form and
the finite-width families on random admissible inputs, and the integer
level sums of the harmonicity check and the lattice bounds against their
Fraction loops."""

from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harmgraphs.boundary import (
    FACES,
    _differences,
    _factorial_det,
    _integrate_monomial_times_cauchy,
    _integrate_monomial_times_pfaffian,
    _jump,
    _run_sum,
    _walk,
    convergence_experiment,
    kingman_density_constant,
    run_vertices,
    selberg_verify,
    young_density_constant,
)
from harmgraphs.exact import SingularMatrixError, integer_point, pochhammer, round_bits
from harmgraphs.graphs import (
    KINGMAN,
    SCHUR,
    YOUNG,
    covers_up,
    dim,
    dim_closed_form,
    edge_multiplicity,
    jack,
    level,
    sweep,
)
from harmgraphs.harmonic import (
    GammaShaped,
    HarmonicFamily,
    JackZZ,
    KingmanTA,
    SchurT,
    TruncKingman,
    TruncSchur,
    TruncYoung,
    YoungZZ,
    check_harmonicity,
    lattice_level_sums,
)
from harmgraphs.interp import (
    H_STAR,
    FunctionalSpec,
    _product_series,
    apply_functional,
    factorial_monomial_eval,
    monomial_eval,
    monomial_tables,
    pstar_eval,
    schur_eval,
    shifted_schur_at_diagram,
    shifted_schur_eval,
    shifted_schur_h_coeffs,
)
from harmgraphs.partitions import Partition, partitions_of
from oracles import (
    boxes,
    cauchy_integral_by_permutations,
    closed_form_phi,
    content,
    fraction_convergence_row,
    fraction_falling,
    fraction_harmonicity,
    fraction_lattice_sums,
    fraction_permutation_sum,
    fraction_power,
    fraction_sweep,
    functional_on_shifted_schur,
    hook,
    jack_hook_dim,
    multiplicities,
    pfaffian_integral_by_matchings,
    pstar_closed_form,
    schur_tableau,
    shifted_schur_bialternant,
    shifted_schur_tableau,
    simplex_monomial_integral,
    young_zz_closed_form,
)
from harmgraphs.series import factorial_series_from_rational, poly_mul

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

rows = st.lists(st.integers(1, 8), max_size=4).map(lambda xs: Partition(sorted(xs, reverse=True)))
strict_rows = st.sets(st.integers(1, 8), max_size=4).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)
rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 9))
positive = st.builds(F, st.integers(1, 20), st.integers(1, 9))
small = st.integers(0, 9).flatmap(lambda n: st.sampled_from(partitions_of(n)))


@st.composite
def nested_pairs(draw):
    """A partition lam with |lam| <= 9 and a random mu inside it."""
    lam = draw(small)
    caps = [draw(st.integers(0, p)) for p in lam.parts]
    mu = [min(caps[: i + 1]) for i in range(len(caps))]
    return Partition(mu), lam


@PROPERTY
@given(st.sampled_from([YOUNG, KINGMAN]), rows)
def test_dim_matches_closed_form(kind, lam):
    assert dim(Partition(), lam, kind) == dim_closed_form(lam, kind)


@PROPERTY
@given(strict_rows)
def test_strict_dim_matches_closed_form(lam):
    assert dim(Partition(), lam, SCHUR) == dim_closed_form(lam, SCHUR)


@PROPERTY
@given(st.sampled_from([YOUNG, KINGMAN, SCHUR]), st.integers(0, 8))
def test_full_sweep_matches_closed_form(kind, top):
    for _, level_rows, dq, _ in sweep(kind, top):
        assert dq == 1
        for lam, d, _ in level_rows:
            assert d == dim_closed_form(lam, kind)


@PROPERTY
@given(nested_pairs())
def test_dimension_ratio_identity(pair):
    mu, lam = pair
    k, n = mu.size, lam.size
    lhs = F(dim(mu, lam, YOUNG), dim(Partition(), lam, YOUNG))
    rhs = (-1) ** k * shifted_schur_at_diagram(mu, lam) / pochhammer(F(-n), k)
    assert lhs == rhs


@PROPERTY
@given(rationals, rationals, positive)
def test_jack_family_is_harmonic(e, zz, theta):
    # JackZZ's phi is a closed product independent of the edge weights, so
    # the cover sums pin every Jack weight through level 6, and the unit
    # level masses check the swept Jack dimensions
    t = zz / theta
    assume(not (t.denominator == 1 and t <= 0))
    report = check_harmonicity(JackZZ(e, zz, theta), 6)
    assert report.ok
    assert report.level_masses == (1,) * 7


@st.composite
def points_and_shapes(draw):
    """A rational point with 1 to 4 coordinates and a mu with |mu| <= 5 that fits in it."""
    x = tuple(draw(st.lists(rationals, min_size=1, max_size=4)))
    mu = draw(st.integers(0, 5).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    assume(mu.length <= len(x))
    return mu, x


def _shifted(x):
    return [xi + (len(x) - 1 - i) for i, xi in enumerate(x)]


@PROPERTY
@given(points_and_shapes())
def test_shifted_schur_determinant_matches_tableau_sum(case):
    mu, x = case
    assume(len(set(_shifted(x))) == len(x))
    assert shifted_schur_bialternant(mu, x) == shifted_schur_tableau(mu, x)


@st.composite
def truncated_young_shapes(draw):
    """A lam of length 2 to 4 and a mu with |mu| <= 8 and no more rows."""
    lam = Partition(sorted(draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)), reverse=True))
    n = draw(st.integers(0, 8))
    return lam, draw(st.sampled_from(partitions_of(n, max_length=lam.length)))


@PROPERTY
@given(truncated_young_shapes())
def test_truncated_young_value_matches_the_bialternant(case):
    # the reflected point's shifted coordinates -lam_i - (l - i) - 1 are distinct
    # and the level form, times (-1)^|mu| (t)_|mu|, is s*_mu there
    lam, mu = case
    family = TruncYoung(lam)
    (x,), q = family.level_phi(mu.size, [(mu, None, ())])
    value = F(x, q) * (-1) ** mu.size * pochhammer(family.t, mu.size)
    assert value == shifted_schur_bialternant(mu, family.point())


@PROPERTY
@given(points_and_shapes(), st.data())
def test_shifted_schur_determinant_rejects_colliding_coordinates(case, data):
    mu, x = case
    assume(len(x) >= 2)
    i = data.draw(st.integers(0, len(x) - 2))
    j = data.draw(st.integers(i + 1, len(x) - 1))
    # x_j + (k-1-j) = x_i + (k-1-i)
    x = x[:j] + (x[i] + (j - i),) + x[j + 1 :]
    with pytest.raises(SingularMatrixError):
        shifted_schur_bialternant(mu, x)


@PROPERTY
@given(st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))),
       st.lists(rationals, min_size=6, max_size=6))
def test_shifted_jacobi_trudi_matches_the_engine(mu, values):
    spec = FunctionalSpec(H_STAR, tuple(values))
    expected = apply_functional(shifted_schur_h_coeffs(mu.parts), spec)
    assert functional_on_shifted_schur(mu, spec) == expected


@PROPERTY
@given(points_and_shapes(), st.data())
def test_jacobi_trudi_matches_tableau_sums_at_colliding_points(case, data):
    # x_j = x_i collides the bialternant of s, x_j = x_i + (j - i) that of s*
    mu, x = case
    assume(len(x) >= 2)
    i = data.draw(st.integers(0, len(x) - 2))
    j = data.draw(st.integers(i + 1, len(x) - 1))
    shift = data.draw(st.sampled_from([0, j - i]))
    x = x[:j] + (x[i] + shift,) + x[j + 1 :]
    assert schur_eval(mu, x) == schur_tableau(mu, x)
    assert shifted_schur_eval(mu, x) == shifted_schur_tableau(mu, x)


@PROPERTY
@given(st.integers(2, 3), rationals, st.data())
def test_jacobi_trudi_at_thirteen_boxes_and_a_repeated_point(k, w, data):
    # both values at k equal coordinates are closed content/hook products
    mu = data.draw(st.sampled_from(partitions_of(13, max_length=k)))
    classical = F(1)
    shifted = F(1)
    for (i, j) in boxes(mu):
        c = content(i, j)
        classical *= w * (k + c) / hook(mu, i, j)
        shifted *= -(k + c) * (w + c) / hook(mu, i, j)
    assert schur_eval(mu, (w,) * k) == classical
    assert shifted_schur_eval(mu, (-w,) * k) == shifted


def _arrangement_sum(mu, x, power):
    padded = mu.parts + (0,) * (len(x) - mu.length)
    total = F(0)
    for exponents in set(permutations(padded)):
        term = F(1)
        for xi, e in zip(x, exponents):
            term *= power(xi, e)
        total += term
    return total


def _falling(a, e):
    out = F(1)
    for j in range(e):
        out *= a - j
    return out


@PROPERTY
@given(points_and_shapes())
def test_monomials_match_the_arrangement_sum(case):
    mu, x = case
    assert monomial_eval(mu, x) == _arrangement_sum(mu, x, lambda a, e: a**e)
    assert factorial_monomial_eval(mu, x) == _arrangement_sum(mu, x, _falling)


def _removals(shapes):
    """The shapes with every partition reached from them by removing parts, and ()."""
    return {sub for mu in shapes for r in range(mu.length + 1) for sub in combinations(mu.parts, r)} | {()}


@PROPERTY
@given(
    st.lists(st.integers(0, 7).flatmap(lambda n: st.sampled_from(partitions_of(n))), max_size=4),
    st.lists(st.integers(-9, 9), max_size=4),
    st.integers(1, 5),
)
@example([], [], 1)
@example([Partition(), Partition([4, 1])], [-2, -2], 2)  # a repeated coordinate
@example([Partition([2, 2, 1]), Partition([1, 1, 1, 1, 1])], [0, -4, 7], 3)  # longer than the point
@example([Partition([3, 3, 1]), Partition([3, 1, 1])], [5, 0, 0, -1], 4)  # shared removals
def test_monomial_tables_match_the_fraction_pass_and_the_arrangement_sum(shapes, xs, q):
    # one closure of the shapes; m and m* of every partition in it at X/Q from two tables,
    # and m at X in rising powers (step -1) from a third
    table = monomial_tables(shapes)
    m, m_star, m_rising = table(xs, 0), table(xs, q), table(xs, -1)
    assert set(m) == set(m_star) == set(m_rising) == _removals(shapes)
    rising = lambda a, e: fraction_falling(a + e - 1, e)
    for parts, value in m_rising.items():
        assert value == fraction_permutation_sum(Partition(parts), [F(v) for v in xs], rising)
    x = [F(v, q) for v in xs]
    for parts in m:
        nu = Partition(parts)
        values = F(m[parts], q**nu.size), F(m_star[parts], q**nu.size)
        oracle = fraction_permutation_sum(nu, x, fraction_power), fraction_permutation_sum(nu, x, fraction_falling)
        assert values == oracle
        if nu.length <= len(x):
            assert values == (_arrangement_sum(nu, x, lambda a, e: a**e), _arrangement_sum(nu, x, _falling))
        else:
            assert values == (0, 0)


narrow = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from([p for p in partitions_of(n) if p.length <= 4])
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([TruncYoung, TruncKingman]), narrow, st.integers(1, 60))
# runs longer than degree + 1, with coordinate collisions at their ends (kingman) or inside
@example(TruncKingman, Partition([3, 1]), 40)
@example(TruncKingman, Partition([3, 1]), 41)
@example(TruncKingman, Partition([2, 2, 1]), 36)
@example(TruncYoung, Partition([2, 1, 1]), 50)
@example(TruncYoung, Partition([3, 2]), 64)
# wider than `narrow` draws: the kingman face's rising-power table at widths 5 to 7
@example(TruncKingman, Partition([2, 1, 1, 1, 1, 1]), 14)
@example(TruncKingman, Partition([1] * 7), 10)
@example(TruncKingman, Partition([5, 4, 3, 2, 1]), 18)
def test_level_weights_match_dimension_times_value(family_type, lam, n):
    # the young and kingman faces build each weight from small binomials, carried along
    # runs, and one constant per level; dim * phi, phi from the family's level form, is the oracle
    assume(family_type is TruncKingman or lam.length >= 2)
    family = family_type(lam)
    rows = [(nu, None, ()) for nu in level(n, family.kind, max_length=family.width)]
    xs, q = family.level_phi(n, rows)
    expected = [(nu, dim_closed_form(nu, family.kind) * F(x, q)) for (nu, _, _), x in zip(rows, xs)]
    scale, runs = FACES[family.face].level_weights(family, n)
    assert [(nu, scale * v) for nu, v in run_vertices(runs)] == expected


@st.composite
def runs_of_values(draw):
    """(f, run, s, e): a polynomial f of degree 0 .. 8, a run of 1 .. 3 (degree + 1) vertices
    with f's differences at its first min(length, degree + 1), and an interval s <= e of it,
    empty, of one index, or up to the whole run."""
    degree = draw(st.integers(0, 8))
    coefficients = draw(st.lists(st.integers(-9, 9), min_size=degree + 1, max_size=degree + 1))
    f = lambda j: sum(c * j**i for i, c in enumerate(coefficients))
    m = draw(st.integers(1, 3 * (degree + 1)))
    s = draw(st.integers(0, m))
    e = draw(st.integers(s, m))
    return f, ((2 * m, 0), m, _differences(f(j) for j in range(min(m, degree + 1)))), s, e


@settings(derandomize=True, max_examples=150, deadline=None)
@given(runs_of_values())
def test_run_helpers_match_direct_evaluation(case):
    # the differences at the run's head: the offset jump, the walk and the closed-form run
    # sum each against f evaluated vertex by vertex
    f, run, s, e = case
    _, m, diffs = run
    # a run shorter than degree + 1 knows f only on its own vertices; a longer one everywhere
    past = len(diffs) if len(diffs) < m else 0
    if past or s < m:
        assert _jump(diffs, s)[: past or 1] == _differences(f(j) for j in range(s, s + (past or 1)))
    walk = _walk(diffs, s)
    assert [next(walk) for _ in range(e - s + past)] == [f(j) for j in range(s, e + past)]
    assert _run_sum(diffs, e) == sum(map(f, range(e)))
    assert list(run_vertices([run])) == [(Partition([2 * m - j, j]), f(j)) for j in range(m)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from([TruncYoung, TruncKingman]),
    st.integers(2, 3).flatmap(lambda l: st.lists(st.integers(1, 3), min_size=l, max_size=l)),
    st.integers(1, 60),
    st.integers(2, 12).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
    st.integers(2, 20),
)
@example(TruncYoung, [2, 1], 30, (1, 3), 20)  # one interior vertex, (20, 10)
@example(TruncKingman, [2, 1, 1], 36, (1, 6), 7)  # one interior vertex, (18, 12, 6)
@example(TruncYoung, [3, 1], 20, (1, 2), 4)  # no interior vertex
@example(TruncKingman, [1, 1, 1], 2, (1, 4), 5)  # n below the width
@example(TruncKingman, [2, 2, 1], 10, (1, 5), 3)  # the last run ends at (4, 3, 3)
@example(TruncKingman, [2, 2], 40, (1, 5), 20)  # the run ends at (20, 20)
def test_streamed_rows_match_the_fraction_loop(family_type, parts, n, fraction, resolution):
    # young and kingman at widths 2 and 3, equal parts of lam included: every field of the
    # streamed row against one Fraction operation per term over the listed level
    family, gap = family_type(Partition(sorted(parts, reverse=True))), F(*fraction)
    [row] = convergence_experiment(family, [n], resolution=resolution, interior_fraction=gap).rows
    mass, interior, err, distance = fraction_convergence_row(family, n, resolution, gap)
    assert row.support_size == len(partitions_of(n, max_length=family.width))
    assert row.mass_is_one == (mass == 1)
    assert row.interior_points == interior
    assert row.max_ratio_error == round_bits(round_bits(err, 128), 53)
    assert row.binned_distance == round_bits(distance, 128)


# ---------------------------------------------------------------------------
# Selberg integrals: each reduction against the full signed expansion
# ---------------------------------------------------------------------------

def _sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))


def _signed_sum(a, integral):
    """sum over sigma of sgn(sigma) integral(a permuted by sigma): one alternant expanded."""
    return sum(
        (_sign(s) * integral([a[i] for i in s]) for s in permutations(range(len(a)))), F(0)
    )


def _monomial_integral(a, b):
    return simplex_monomial_integral([x + y for x, y in zip(a, b)])


@st.composite
def exponent_pairs(draw, max_length=4):
    l = draw(st.integers(1, max_length))
    block = st.lists(st.integers(0, 6), min_size=l, max_size=l)
    return draw(block), draw(block)


@PROPERTY
@given(exponent_pairs())
def test_factorial_det_is_the_expanded_alternant_pair(pair):
    # sum over sigma, tau of sgn sgn I(a_sigma + b_tau) = l! det[(a_i + b_j)!] / (l + sum - 1)!
    a, b = pair
    l = len(a)
    expanded = _signed_sum(a, lambda x: _signed_sum(b, lambda y: _monomial_integral(x, y)))
    assert expanded == factorial(l) * F(_factorial_det(a, b), factorial(l + sum(a) + sum(b) - 1))


@PROPERTY
@given(exponent_pairs())
def test_pfaffian_integral_keeps_one_alternant_term(pair):
    a, _ = pair
    l = len(a)
    expanded = _signed_sum(a, lambda x: _integrate_monomial_times_pfaffian(l, x))
    assert expanded == factorial(l) * _integrate_monomial_times_pfaffian(l, a)


@PROPERTY
@given(exponent_pairs(max_length=3))
def test_cauchy_integral_keeps_one_term_per_alternant(pair):
    p, q = pair
    d = len(p)
    expanded = _signed_sum(
        p, lambda x: _signed_sum(q, lambda y: _integrate_monomial_times_cauchy(x, y))
    )
    assert expanded == factorial(d) ** 2 * _integrate_monomial_times_cauchy(p, q)


@PROPERTY
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
@example([0])
@example([2, 2, 0])
@example([3, 3, 1, 0, 0])
def test_pfaffian_integral_is_the_matching_expansion(e):
    # de Bruijn's one Pfaffian against the sum over perfect matchings, odd l bordered
    assert _integrate_monomial_times_pfaffian(len(e), e) == pfaffian_integral_by_matchings(len(e), e)


@PROPERTY
@given(exponent_pairs(max_length=4))
@example(([0, 0], [0, 0]))
@example(([2, 2, 1], [1, 0, 1]))
def test_cauchy_integral_is_the_permutation_expansion(pair):
    # de Bruijn's one determinant against the sum over the d! permutations
    p, q = pair
    assert _integrate_monomial_times_cauchy(p, q) == cauchy_integral_by_permutations(p, q)


def _inside(lam):
    """A partition with length(mu) <= length(lam) and parts at most 4, possibly empty."""
    return st.lists(st.integers(1, 4), max_size=lam.length).map(
        lambda xs: Partition(sorted(xs, reverse=True))
    )


narrow_pairs = (
    st.lists(st.integers(1, 4), min_size=1, max_size=4)
    .map(lambda xs: Partition(sorted(xs, reverse=True)))
    .flatmap(lambda lam: st.tuples(st.just(lam), _inside(lam)))
)


@PROPERTY
@given(narrow_pairs)
@example((Partition([5, 5, 5, 5, 5]), Partition()))
@example((Partition([4, 3, 2, 1, 1]), Partition()))
def test_young_selberg_matches_the_double_expansion(pair):
    # at mu = 0 this pins young_density_constant: the expansion has mass 1
    lam, mu = pair
    assume(lam.length >= 2)
    l = lam.length
    a = [mu.part(i) + l - i for i in range(1, l + 1)]
    b = [lam.part(i) + l - i for i in range(1, l + 1)]
    expanded = _signed_sum(a, lambda x: _signed_sum(b, lambda y: _monomial_integral(x, y)))
    res = selberg_verify("young", lam, mu)
    assert res.rhs == young_density_constant(lam) * expanded / factorial(l)
    assert res.equal


@PROPERTY
@given(narrow_pairs)
# past the face dimension 5 that once capped the arrangement sum in the library
@example((Partition([1] * 7), Partition()))
@example((Partition([3, 3, 2, 2, 1, 1, 1]), Partition([2, 2, 1])))
@example((Partition([4, 3, 2, 1, 1, 1, 1]), Partition([3, 1])))
def test_kingman_selberg_matches_the_double_expansion(pair):
    lam, mu = pair
    l = lam.length
    padded = mu.parts + (0,) * (l - mu.length)
    arrangements = lambda parts: set(permutations(parts))
    expanded = sum(
        (_monomial_integral(x, y) for x in arrangements(padded) for y in arrangements(lam.parts)),
        F(0),
    )
    res = selberg_verify("kingman", lam, mu)
    assert res.rhs == kingman_density_constant(lam) * expanded / factorial(l)
    assert res.equal


# a small pool, so that repeated poles, repeated zeros and a zero u + a
# meeting a pole u - b (a = -b) are all common
shifts = st.sampled_from([F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(2)])


@PROPERTY
@given(st.lists(st.tuples(shifts, shifts), max_size=6), st.integers(0, 12))
@example([(F(1), F(2)), (F(3), F(2)), (F(0), F(2))], 12)  # a triple pole
@example([(F(1), F(2)), (F(1), F(-1)), (F(1), F(0))], 12)  # a triple zero
@example([(F(1), F(3)), (F(-3), F(1, 2))], 12)  # the second zero cancels the first pole
@example([(F(-5, 2), F(5, 2))], 12)  # one factor equal to 1
def test_product_series_matches_the_rational_expansion(factors, count):
    num, den = [F(1)], [F(1)]
    for a, b in factors:
        num = poly_mul(num, [a, F(1)])
        den = poly_mul(den, [-b, F(1)])
    assert _product_series(factors, count) == factorial_series_from_rational(num, den, count)


# ---------------------------------------------------------------------------
# closed-form families: the integer products against the products box by box
# ---------------------------------------------------------------------------

def _box_pochhammer(t, n):
    out = F(1)
    for k in range(n):
        out *= t + k
    return out


def _box_young_zz(e, t, mu):
    out = F(1)
    for (i, j) in boxes(mu):
        c = content(i, j)
        out *= F(t + c * e + c * c, hook(mu, i, j))
    return out * (-1) ** mu.size


def _box_pstar(t, mu):
    out = F(1)
    for (i, j) in boxes(mu):
        out *= 2 * t + (j - 1) * j
    denom = F(2) ** mu.length
    for p in mu.parts:
        denom *= factorial(p)
    out /= denom
    for i in range(1, mu.length + 1):
        for j in range(i + 1, mu.length + 1):
            out *= F(mu.part(i) - mu.part(j), mu.part(i) + mu.part(j))
    return out * (-1) ** mu.size


def _box_jack_phi(e, zz, theta, mu):
    out, cols = F(1), mu.conjugate()
    for (i, j) in boxes(mu):
        c = F(j - 1) - theta * (i - 1)
        arm, leg = mu.part(i) - j, cols.part(j) - i
        out *= (zz + c * e + c * c) / (arm + theta * leg + theta)
    return out / _box_pochhammer(zz / theta, mu.size)


def _box_kingman_phi(t, alpha, mu):
    out = F(1)
    for p in mu.parts:
        out *= factorial(p - 1)
    for r in multiplicities(mu).values():
        out /= factorial(r)
    for i in range(1, mu.length):
        out *= t + i * alpha
    for k in range(1, mu.size):
        out /= t + k
    for (i, j) in boxes(mu):
        if j >= 2:
            out *= 1 - alpha / (j - 1)
    return out


def _legal_t(t, allow_zero=False):
    return not (t.denominator == 1 and (t < 0 or (t == 0 and not allow_zero)))


thetas = st.one_of(st.integers(1, 4).map(F), positive)


@PROPERTY
@given(rationals, st.integers(0, 12))
@example(F(-3), 5)  # a factor t + k = 0
@example(F(-7, 2), 9)
def test_pochhammer_matches_the_product(t, n):
    assert pochhammer(t, n) == _box_pochhammer(t, n)


@PROPERTY
@given(rationals, rationals, small)
@example(F(-3, 2), F(7, 3), Partition([4, 2, 1]))
@example(F(5), F(0), Partition([3, 3]))
def test_young_zz_closed_form_matches_the_box_product(e, t, mu):
    assert young_zz_closed_form(e, t, mu) == _box_young_zz(e, t, mu)
    if _legal_t(t):
        expected = _box_young_zz(e, t, mu) * (-1) ** mu.size / _box_pochhammer(t, mu.size)
        assert YoungZZ(e, t).phi(mu) == expected


@PROPERTY
@given(rationals, strict_rows)
@example(F(0), Partition([5, 3, 1]))
def test_pstar_closed_form_matches_the_box_product(t, mu):
    assert pstar_closed_form(t, mu) == _box_pstar(t, mu)
    if _legal_t(t):
        expected = _box_pstar(t, mu) * (-1) ** mu.size / _box_pochhammer(t, mu.size)
        assert SchurT(t).phi(mu) == expected


@PROPERTY
@given(rationals, rationals, thetas, small)
@example(F(1, 2), F(9, 2), F(3, 2), Partition([3, 2, 2, 1]))
@example(F(-2), F(3), F(2), Partition([4, 1, 1]))
def test_jack_phi_matches_the_box_product(e, zz, theta, mu):
    assume(_legal_t(zz / theta))
    assert JackZZ(e, zz, theta).phi(mu) == _box_jack_phi(e, zz, theta, mu)


@PROPERTY
@given(st.one_of(st.just(F(0)), rationals), st.one_of(st.just(F(0)), rationals), small)
@example(F(0), F(1, 2), Partition([3, 3, 2, 1, 1]))
@example(F(3, 4), F(0), Partition([4, 2, 2]))
@example(F(0), F(0), Partition([1]))
def test_kingman_phi_matches_the_box_product(t, alpha, mu):
    assume(_legal_t(t, allow_zero=True))
    assert KingmanTA(t, alpha).phi(mu) == _box_kingman_phi(t, alpha, mu)


@st.composite
def level_form_families(draw):
    """One of the four closed-form families at legal parameters: t may be a negative
    non-integer, Kingman's t may be 0, and theta is an integer or a fraction p/q."""
    which = draw(st.sampled_from(["young-zz", "jack", "kingman", "schur"]))
    if which == "young-zz":
        return YoungZZ(draw(rationals), draw(rationals.filter(_legal_t)))
    if which == "jack":
        theta = draw(thetas)
        return JackZZ(draw(rationals), draw(rationals.filter(lambda zz: _legal_t(zz / theta))), theta)
    if which == "kingman":
        legal = rationals.filter(lambda t: _legal_t(t, allow_zero=True))
        return KingmanTA(draw(st.one_of(st.just(F(0)), legal)), draw(rationals))
    return SchurT(draw(rationals.filter(_legal_t)))


def _closed_product(family, mu):
    """phi(mu) from the box products: the Young and strict closed forms kept as oracles,
    and the Jack and Kingman products box by box."""
    if isinstance(family, YoungZZ):
        return closed_form_phi(young_zz_closed_form(family.e, family.t, mu), family.t, mu.size)
    if isinstance(family, SchurT):
        return closed_form_phi(pstar_closed_form(family.t, mu), family.t, mu.size)
    if isinstance(family, JackZZ):
        return _box_jack_phi(family.e, family.zz, family.theta, mu)
    return _box_kingman_phi(family.t, family.alpha, mu)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(level_form_families())
@example(YoungZZ(F(1, 3), F(-7, 2)))
@example(SchurT(F(-5, 3)))
@example(KingmanTA(F(0), F(1, 2)))
@example(KingmanTA(F(0), F(-3, 2)))
@example(JackZZ(F(1, 2), F(-9, 2), F(2, 3)))
def test_level_form_matches_the_closed_product(family):
    # every level through 10, on the family's own sweep and its total dims
    for n, rows, _, _ in sweep(family.kind, 10):
        xs, q = family.level_phi(n, rows)
        assert q > 0
        assert [F(x, q) for x in xs] == [_closed_product(family, lam) for lam, _, _ in rows]


# admissible parameters by construction: a conjugate pair (e^2 < 4t), and
# 0 <= alpha < 1 with t > -alpha
@st.composite
def young_zz_params(draw):
    e = draw(rationals)
    return e, e * e / 4 + draw(positive)


@st.composite
def kingman_params(draw):
    b = draw(st.integers(1, 9))
    alpha = F(draw(st.integers(0, b - 1)), b)
    # t = 0 is admissible exactly when alpha > 0
    offset = draw(st.one_of(st.just(alpha), positive) if alpha else positive)
    return offset - alpha, alpha


@PROPERTY
@given(young_zz_params())
def test_young_zz_family_is_harmonic_with_unit_mass(params):
    family = YoungZZ(*params)
    assert family.admissible().ok
    report = check_harmonicity(family, 7)
    assert report.ok
    assert set(report.level_masses) == {1}


@PROPERTY
@given(kingman_params())
def test_kingman_family_is_harmonic_with_unit_mass(params):
    family = KingmanTA(*params)
    assert family.admissible().ok
    report = check_harmonicity(family, 7)
    assert report.ok
    assert set(report.level_masses) == {1}


@PROPERTY
@given(positive)
def test_schur_family_is_harmonic_with_unit_mass(t):
    family = SchurT(t)
    assert family.admissible().ok
    report = check_harmonicity(family, 9)
    assert report.ok
    assert set(report.level_masses) == {1}


# the finite-width families at random admissible lambda: phi is harmonic and
# every level carries mass 1 (the gamma face's cap covers every level checked)
FINITE_LEVELS = 6
nonempty = st.integers(1, 7).flatmap(lambda n: st.sampled_from(partitions_of(n)))
finite_families = st.one_of(
    nonempty.filter(lambda lam: lam.length >= 2).map(TruncYoung),
    nonempty.map(TruncKingman),
    nonempty.filter(lambda lam: lam.is_strict).map(TruncSchur),
    nonempty.map(lambda lam: GammaShaped(lam, FINITE_LEVELS)),
)


@PROPERTY
@given(finite_families)
def test_finite_family_is_harmonic_with_unit_mass(family):
    report = check_harmonicity(family, FINITE_LEVELS)
    assert report.violations == ()
    assert set(report.level_masses) == {1}


@PROPERTY
@given(
    st.integers(1, 8).flatmap(lambda n: st.sampled_from(partitions_of(n, strict=True))),
    st.lists(st.sets(st.integers(1, 20), max_size=4), min_size=1, max_size=8),
    st.sampled_from(["drawn", "largest first", "smallest first"]),
)
def test_trunc_schur_table_serves_mu_in_any_order(lam, part_sets, order):
    # the level form reads any mix of mu from one table built for them all; each value must
    # match a table built for that mu alone.  The table does not depend on the level n, which
    # only brings the factor (-1)^n / (t)_n, undone here
    mus = [Partition(sorted(parts, reverse=True)) for parts in part_sets]
    if order != "drawn":
        mus.sort(key=lambda mu: mu.part(1) + mu.part(2), reverse=order == "largest first")
    family = TruncSchur(lam)
    n = max(mu.size for mu in mus)
    xs, q = family.level_phi(n, [(mu, None, ()) for mu in mus])
    factor = (-1) ** n * pochhammer(family.t, n)
    assert [F(x, q) * factor for x in xs] == [pstar_eval(mu, family.point()) for mu in mus]
    assert family == TruncSchur(lam) and hash(family) == hash(TruncSchur(lam))


# ---------------------------------------------------------------------------
# the sweep's edges, and the integer level sums against the Fraction loops
# ---------------------------------------------------------------------------

kinds = st.one_of(st.sampled_from([YOUNG, KINGMAN, SCHUR]), thetas.map(jack))


@PROPERTY
@given(kinds, nested_pairs(), st.booleans(), st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 4))
def test_sweep_edges_are_the_weighted_covers(kind, pair, bounded, max_length, extra):
    start, within = pair
    assume(start.is_strict or not kind.strict)
    within = within if bounded else None
    top = start.size + extra
    for n, rows, _, wq in sweep(kind, top, start, within, max_length):
        for lam, _, edges in rows:
            expected = [
                (nu, edge_multiplicity(lam, nu, kind))
                for nu in (covers_up(lam, kind) if n < top else ())
                if (max_length is None or nu.length <= max_length)
                and (within is None or within.contains(nu))
            ]
            assert [(nu, F(w, wq)) for nu, w in edges] == expected


small_thetas = st.builds(F, st.integers(1, 5), st.integers(1, 5))


@PROPERTY
@given(
    st.one_of(st.sampled_from([YOUNG, KINGMAN, SCHUR]), small_thetas.map(jack)),
    nested_pairs(), st.booleans(), st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 5),
)
@example(jack(F(2, 5)), (Partition(), Partition()), False, None, 9)
def test_integer_sweep_matches_the_fraction_loop(kind, pair, bounded, max_length, extra):
    # D/dq and W/wq against one Fraction multiply and add per edge, dq = wq = 1 off the Jack
    # graph, and the Jack dims from the empty partition against the hook formula
    start, within = pair
    assume(start.is_strict or not kind.strict)
    within = within if bounded else None
    top = start.size + extra
    args = kind, top, start, within, max_length
    for (_, rows, dq, wq), (_, expected) in zip(sweep(*args), fraction_sweep(*args), strict=True):
        assert kind.name == "jack" or dq == wq == 1
        assert [(lam, F(d, dq), [(nu, F(w, wq)) for nu, w in edges]) for lam, d, edges in rows] == expected
        if kind.name == "jack" and not start.parts:
            assert [F(d, dq) for _, d, _ in rows] == [jack_hook_dim(lam, kind.theta) for lam, _, _ in rows]


@dataclass(frozen=True)
class ScaledAt(HarmonicFamily):
    """`base` with phi scaled by `factor` at the one vertex `at`."""

    base: HarmonicFamily
    at: Partition
    factor: F

    @property
    def kind(self):
        return self.base.kind

    def phi(self, mu):
        value = self.base.phi(mu)
        return value * self.factor if mu == self.at else value

    def level_phi(self, n, rows):
        return integer_point([self.phi(lam) for lam, _, _ in rows])

    def spec_string(self):
        return f"{self.base} scaled by {self.factor} at {self.at}"


@st.composite
def closed_form_families(draw):
    """One of the four closed-form families at legal random parameters, or a TruncYoung."""
    which = draw(st.sampled_from(["young-zz", "jack", "kingman", "schur", "trunc-young"]))
    if which == "young-zz":
        return YoungZZ(draw(rationals), draw(rationals.filter(_legal_t)))
    if which == "jack":
        theta = draw(thetas)
        zz = draw(rationals.filter(lambda zz: _legal_t(zz / theta)))
        return JackZZ(draw(rationals), zz, theta)
    if which == "kingman":
        return KingmanTA(draw(rationals.filter(lambda t: _legal_t(t, allow_zero=True))), draw(rationals))
    if which == "schur":
        return SchurT(draw(rationals.filter(_legal_t)))
    return TruncYoung(draw(nonempty.filter(lambda lam: lam.length >= 2)))


@PROPERTY
@given(closed_form_families(), st.integers(1, 6), st.data())
def test_integer_level_sums_match_the_fraction_loops(family, levels, data):
    # the family scaled at one vertex breaks harmonicity there (lhs) and at its
    # down covers (rhs), unless phi vanishes at that vertex
    vertices = [lam for n in range(levels + 1) for lam in level(n, family.kind)]
    at = data.draw(st.sampled_from(vertices))
    wrong = ScaledAt(family, at, data.draw(rationals.filter(lambda x: x != 1)))
    assert check_harmonicity(family, levels) == fraction_harmonicity(family, levels)
    report = check_harmonicity(wrong, levels)
    assert report == fraction_harmonicity(wrong, levels)
    assert bool(report.violations) == (family.phi(at) != 0)
    mu = data.draw(st.sampled_from([lam for lam in vertices if lam.size < levels]))
    for pair in ((family, wrong), (wrong, family)):
        assert lattice_level_sums(*pair, mu, levels) == fraction_lattice_sums(*pair, mu, levels)
