"""The point evaluators against plain-Fraction routes and tableau sums.

s, s*, m, m* and h* are computed on integer numerators over one common
denominator; each is checked here against the one-operation-per-term
`Fraction` route and, for s and s*, the reverse-tableau sum, at random
rational points with mixed denominators and zero, negative and repeated
coordinates.  The face densities at the embedded points nu/n are checked
against s_lam V^2 and m_lam in Fraction, and on all four faces against the
rational face formulas of the oracle.  The per-point tables the identity
suites read (h numerators, s* columns, m and m* passes, the kernel tables at
a Thoma point) are checked against the one-mu evaluators and the Fraction
h-series.  The integer P* numerators (one-row, two-row and Pfaffian) are
checked against the Fraction pipeline at points and under t-functionals.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmgraphs.boundary import (
    ThomaPoint,
    density_spec,
    density_value,
    kingman_kernel,
    kingman_kernel_table,
    young_kernel,
    young_kernel_table,
)
from harmgraphs.exact import integer_point
from harmgraphs.harmonic import GammaShaped
from harmgraphs.interp import (
    H_STAR,
    FunctionalSpec,
    complete_numerators,
    diagram_point,
    factorial_monomial_eval,
    h_star_values,
    jacobi_trudi,
    jacobi_trudi_det,
    monomial_eval,
    monomial_tables,
    pstar_one_row_numerators,
    pstar_pfaffian,
    pstar_two_row_table,
    pstar_values,
    schur_eval,
    schur_t_functional,
    shifted_schur_at_diagram,
    shifted_schur_columns,
    shifted_schur_eval,
)
from harmgraphs.partitions import Partition, partitions_of, partitions_up_to
from oracles import (
    functional_on_shifted_schur,
    fraction_density,
    fraction_falling,
    fraction_h_star_values,
    fraction_jacobi_trudi,
    fraction_permutation_sum,
    fraction_power,
    fraction_pstar,
    fraction_pstar_one_row,
    fraction_pstar_two_row_table,
    fraction_schur,
    fraction_shifted_schur,
    fraction_vandermonde,
    schur_tableau,
    shifted_schur_tableau,
    super_h_star_values,
    young_h_series,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

P = Partition
coordinates = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12])),
)
shapes = st.integers(0, 7).flatmap(lambda n: st.sampled_from(partitions_of(n)))


@st.composite
def points(draw, min_length=0, max_length=5):
    """min_length to max_length coordinates; half the time one coordinate repeats another."""
    x = draw(st.lists(coordinates, min_size=min_length, max_size=max_length))
    if len(x) >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, len(x) - 1))
        x[j] = x[draw(st.integers(0, j - 1))]
    return tuple(x)


EXAMPLES = [
    (P(), ()),
    (P(), (F(3, 4), F(-1, 6))),
    (P([3, 2, 1]), (F(1, 2), F(2, 3))),  # longer than the point: the value is 0
    (P([2, 1]), (F(5, 6), F(5, 6), F(-3, 4))),
    (P([4, 2, 1]), (F(0), F(-7, 12), F(7, 12), F(1, 7))),
]


def with_examples(test):
    for mu, x in EXAMPLES:
        test = example(mu, x)(test)
    return test


@PROPERTY
@given(shapes, points())
@with_examples
def test_schur_eval_matches_tableau_sum_and_fraction_route(mu, x):
    value = schur_eval(mu, x)
    assert isinstance(value, F)
    assert value == fraction_schur(mu, x)
    if x and mu.length <= len(x):
        assert value == schur_tableau(mu, x)


@PROPERTY
@given(shapes, points())
@with_examples
def test_shifted_schur_eval_matches_tableau_sum_and_fraction_route(mu, x):
    value = shifted_schur_eval(mu, x)
    assert isinstance(value, F)
    assert value == fraction_shifted_schur(mu, x)
    if x and mu.length <= len(x):
        assert value == shifted_schur_tableau(mu, x)


@PROPERTY
@given(shapes, points(max_length=6))
@with_examples
def test_monomials_match_the_fraction_pass(mu, x):
    assert monomial_eval(mu, x) == fraction_permutation_sum(mu, x, fraction_power)
    assert factorial_monomial_eval(mu, x) == fraction_permutation_sum(mu, x, fraction_falling)
    assert isinstance(monomial_eval(mu, x), F)
    assert isinstance(factorial_monomial_eval(mu, x), F)


@PROPERTY
@given(points(min_length=1, max_length=6))
@example((F(1, 2), F(1, 2)))  # fewer coordinates than the longest mu: those values are 0
@example((F(0), F(-7, 12), F(7, 12), F(1, 7), F(5, 6), F(5, 6)))
def test_one_table_per_point_reads_every_mu(x):
    # the h numerators, s* columns and m, m* tables built once at the point serve every mu
    xs, q = integer_point(x)
    h = [complete_numerators(xs, 6)] * 6
    h_star = shifted_schur_columns(xs, q, 6, 6)
    table = monomial_tables(partitions_up_to(6))
    m, m_star = table(xs, 0), table(xs, q)
    for mu in partitions_up_to(6):
        den = q**mu.size
        assert F(jacobi_trudi_det(mu, h), den) == schur_eval(mu, x)
        assert F(jacobi_trudi_det(mu, h_star), den) == shifted_schur_eval(mu, x)
        assert F(m[mu.parts], den) == monomial_eval(mu, x)
        assert F(m_star[mu.parts], den) == factorial_monomial_eval(mu, x)


@PROPERTY
@given(st.integers(0, 7).flatmap(lambda n: st.sampled_from(partitions_of(n))), st.integers(0, 8))
@example(P([3, 2, 1]), 8)
@example(P(), 0)
def test_one_column_set_per_diagram_serves_every_mu_at_any_padding(lam, pad):
    # s* and m* are stable under zero padding: columns and the m* table of the diagram
    # padded to any length agree with the one-mu evaluators, which pad to the length of mu
    xs = list(lam.parts) + [0] * pad
    columns = shifted_schur_columns(xs, 1, 6, 6)
    m_star = monomial_tables(partitions_up_to(6))(xs, 1)
    for mu in partitions_up_to(6):
        assert jacobi_trudi_det(mu, columns) == shifted_schur_at_diagram(mu, lam)
        point = diagram_point(lam, max(1, lam.length, mu.length))
        assert m_star[mu.parts] == factorial_monomial_eval(mu, point)


@PROPERTY
@given(points(), st.integers(0, 7))
@example((), 3)
@example((F(1, 2), F(1, 2)), 0)
def test_h_star_values_match_the_fraction_running_sum(x, count):
    values = h_star_values(x, count)
    assert values == fraction_h_star_values(x, count)
    assert all(isinstance(v, F) for v in values)
    if x:
        assert values == [shifted_schur_tableau(P([m]), x) for m in range(1, count + 1)]


@PROPERTY
@given(shapes, points())
def test_jacobi_trudi_at_fraction_values_matches_the_fraction_route(mu, x):
    # any sequence, not only a graded one: entries keep their own denominators
    h = [F(1)] + list(x) + [F(k, 5) for k in range(mu.size)]
    for shifted in (False, True):
        assert jacobi_trudi(mu, h, shifted) == fraction_jacobi_trudi(mu, h, shifted)


def test_jacobi_trudi_needs_h0_equal_to_one():
    # the grading h_n Q^n clears h_1, h_2, ... but would leave a fractional h_0 behind
    with pytest.raises(ValueError, match="h_0 = 1"):
        jacobi_trudi(P([1, 1]), [F(1, 2), F(1, 3), F(1, 4)])


@PROPERTY
@given(st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))),
       st.lists(coordinates, min_size=6, max_size=6))
def test_functional_on_shifted_schur_matches_the_fraction_route(mu, values):
    spec = FunctionalSpec(H_STAR, tuple(values))
    expected = fraction_jacobi_trudi(mu, (F(1),) + tuple(values), shifted=True)
    assert functional_on_shifted_schur(mu, spec) == expected


strict_shapes = st.sets(st.integers(1, 9), max_size=5).map(lambda s: P(sorted(s, reverse=True)))
pstar_sources = st.one_of(points(max_length=6), coordinates.map(lambda t: schur_t_functional(t, 18)))


@PROPERTY
@given(st.lists(strict_shapes, min_size=1, max_size=4), pstar_sources)
@example([P([5, 4, 3, 2, 1]), P([9, 7, 1])], (F(0), F(-7, 12), F(7, 12), F(7, 12), F(1, 5)))
@example([P([6, 4, 3, 1]), P([2])], (F(1, 2), F(1, 2), F(-3)))
@example([P([5, 3, 2, 1]), P([8, 5])], schur_t_functional(F(-5, 3), 18))
@example([P([3, 2, 1]), P()], ())
def test_pstar_integers_match_the_fraction_pipeline(mus, source):
    # one-row D_m / (2 Q^m), two-row T / (4 Q^(p+k)) and Pfaffian N / (2^l Q^|mu|)
    # against the Fraction pipeline, strict mu up to length 5
    bound = max(mu.part(1) + mu.part(2) for mu in mus)
    one_row, q = pstar_one_row_numerators(source, bound)
    fraction_one_row = fraction_pstar_one_row(source, bound)
    assert [F(d, 2 * q**m) for m, d in enumerate(one_row, 1)] == fraction_one_row
    table = pstar_two_row_table(one_row, q, bound)
    expected = fraction_pstar_two_row_table(fraction_one_row, bound)
    assert {k: F(v, 4 * q ** sum(k)) for k, v in table.items()} == expected
    values = pstar_values(mus, source)
    for mu in mus:
        numerator = pstar_pfaffian(mu, one_row, table)
        assert type(numerator) is int
        assert F(numerator, 2**mu.length * q**mu.size) == values[mu] == fraction_pstar(mu, source)


def split_diagonal_values(fc, cap):
    """The two-alphabet series at the reflected split-diagonal point (-p - 1/2; -q - 1/2)."""
    half = F(1, 2)
    return super_h_star_values([-p - half for p in fc.p], [-q - half for q in fc.q], cap)


def test_gamma_shaped_phi_matches_the_fraction_route():
    for lam in (P([2, 1]), P([3, 2, 2]), P([1, 1]), P([4, 3, 3, 1])):
        family = GammaShaped(lam, degree_cap=8)
        g = [F(1), *split_diagonal_values(lam.frobenius(), 8)]
        for n in range(9):
            for mu in partitions_of(n):
                if mu.depth > lam.depth:
                    continue
                value = fraction_jacobi_trudi(mu, g, shifted=True) * (-1) ** n
                for k in range(n):
                    value /= family.t + k
                assert family.phi(mu) == value, (lam, mu)


# partitions of depth 1 to 3, parts up to 13: the rows past the third are at most 3 boxes long
gamma_lambdas = st.lists(st.integers(1, 13), min_size=1, max_size=13).map(
    lambda parts: Partition([p if i < 3 else min(p, 3) for i, p in enumerate(sorted(parts, reverse=True))])
)


@PROPERTY
@given(gamma_lambdas, st.integers(1, 10))
def test_gamma_shaped_columns_are_the_integer_series(lam, cap):
    assert 1 <= lam.depth <= 3
    family = GammaShaped(lam, cap)
    assert family.columns[0] == [1, *split_diagonal_values(lam.frobenius(), cap)]
    assert all(type(v) is int for column in family.columns for v in column)


@st.composite
def embedded_points(draw, width):
    """nu/n for a partition nu of at most `width` rows and n >= |nu|."""
    n = draw(st.integers(1, 60))
    parts = []
    for _ in range(width):
        room = n - sum(parts)
        parts.append(draw(st.integers(0, min(room, parts[-1]) if parts else room)))
    return tuple(F(p, n) for p in parts)


faces = st.sampled_from([P([1, 1]), P([2, 1]), P([3, 2]), P([2, 1, 1]), P([3, 2, 1]), P([2, 2, 1, 1])])


@PROPERTY
@given(faces, st.data())
def test_young_face_density_is_s_lambda_times_vandermonde_squared(lam, data):
    spec = density_spec("young", lam)
    alpha = data.draw(st.one_of(embedded_points(lam.length), points(lam.length, lam.length)))
    expected = spec.constant * fraction_schur(lam, alpha) * fraction_vandermonde(alpha) ** 2
    assert spec.density(alpha) == expected


@PROPERTY
@given(faces, st.data())
def test_kingman_face_density_is_m_lambda(lam, data):
    spec = density_spec("kingman", lam)
    alpha = data.draw(st.one_of(embedded_points(lam.length), points(lam.length, lam.length)))
    expected = spec.constant * fraction_permutation_sum(lam, alpha, fraction_power)
    assert spec.density(alpha) == expected


FACE_LAMBDAS = {
    "young": [P([1, 1]), P([2, 1]), P([3, 2]), P([2, 1, 1]), P([3, 2, 1])],
    "kingman": [P([1]), P([2, 1]), P([2, 2]), P([3, 1, 1])],
    "schur": [P([1]), P([2, 1]), P([3, 1]), P([4, 2, 1])],
    "gamma": [P([1]), P([2, 1]), P([3, 1, 1]), P([3, 2]), P([3, 3, 2])],  # depth 1 or 2
}


def over(denominators):
    return st.builds(F, st.integers(1, 24), st.sampled_from(denominators))


@st.composite
def face_cases(draw):
    """(graph, lam, point): any coordinates on the young and kingman faces; distinct
    positive ones on the schur face (its Pfaffian form rejects collisions); on the
    gamma face, positive alpha and beta over disjoint sets of denominators."""
    graph = draw(st.sampled_from(sorted(FACE_LAMBDAS)))
    lam = draw(st.sampled_from(FACE_LAMBDAS[graph]))
    if graph == "gamma":
        d = lam.depth
        alpha = draw(st.lists(over([2, 4, 8]), min_size=d, max_size=d))
        point = tuple(alpha), tuple(draw(st.lists(over([3, 5, 7, 9]), min_size=d, max_size=d)))
    elif graph == "schur":
        point = tuple(draw(st.lists(over([1, 2, 3, 5, 12]), min_size=lam.length, max_size=lam.length,
                                    unique=True)))
    else:
        point = draw(points(lam.length, lam.length))
    return graph, lam, point


@PROPERTY
@given(face_cases())
@example(("gamma", P([3, 2]), ((F(3, 4), F(1, 8)), (F(2, 5), F(1, 15)))))
@example(("schur", P([4, 2, 1]), (F(1, 2), F(1, 3), F(1, 12))))
def test_density_value_matches_the_fraction_formulas(case):
    # the integer form over Q^degree against the face formula in Fraction at the point
    graph, lam, point = case
    assert density_value(density_spec(graph, lam), point) == fraction_density(graph, lam, point)


@st.composite
def thoma_alphas(draw):
    """A nonincreasing nonnegative alpha of 0 to 4 coordinates with sum <= 1."""
    alpha = sorted(draw(st.lists(coordinates.map(abs), max_size=4)), reverse=True)
    scale = sum(alpha, F(0)) + draw(st.integers(1, 3))
    return ThomaPoint(tuple(a / scale for a in alpha))


def fraction_kingman_kernel(mu, omega):
    """The sum over k <= r_1(mu) of gamma^k/k! m_nu(alpha), nu = mu less k parts 1, in Fraction."""
    r1 = mu.multiplicity(1)
    rest = [p for p in mu.parts if p != 1]
    expected = F(0)
    for k in range(r1 + 1):
        nu = P(rest + [1] * (r1 - k))
        weight = omega.gamma**k
        for j in range(2, k + 1):
            weight /= j
        expected += weight * fraction_permutation_sum(nu, omega.alpha, fraction_power)
    return expected


@PROPERTY
@given(shapes, thoma_alphas())
@example(P([1, 1, 1]), ThomaPoint(()))
@example(P([3, 1, 1]), ThomaPoint((F(1, 2), F(1, 2))))
def test_kingman_kernel_is_the_fraction_sum_over_removed_ones(mu, omega):
    assert kingman_kernel(mu, omega) == fraction_kingman_kernel(mu, omega)


@st.composite
def thoma_points(draw):
    """alpha and beta of 0 to 3 and 0 to 2 nonnegative coordinates, zeros among them,
    scaled so that gamma is 0, 1/2 or 2/3 of the total mass (1 when there is none)."""
    alpha = sorted(draw(st.lists(coordinates.map(abs), max_size=3)), reverse=True)
    beta = sorted(draw(st.lists(coordinates.map(abs), max_size=2)), reverse=True)
    mass = sum(alpha + beta, F(0))
    scale = mass * draw(st.sampled_from([1, 2, 3])) or 1
    return ThomaPoint(tuple(a / scale for a in alpha), tuple(b / scale for b in beta))


def kernel_value(table, mu):
    numerators, scale, constant = table
    return F(numerators[mu], constant * scale**mu.size)


@PROPERTY
@given(thoma_points())
@example(ThomaPoint((F(1, 2), F(1, 3)), (F(1, 6),)))  # gamma = 0
@example(ThomaPoint((F(1, 3), F(1, 4))))  # beta = ()
@example(ThomaPoint((F(1, 2), F(0)), (F(1, 4),)))  # alpha_2 = 0
@example(ThomaPoint(()))  # gamma = 1
def test_kernel_tables_match_the_fraction_h_series(omega):
    # one integer table per point against Jacobi-Trudi over the Fraction h-series,
    # and its kingman twin (beta folded into gamma) against the Fraction sum
    shapes = partitions_up_to(6)
    h = young_h_series(omega, 7)
    alpha_only = ThomaPoint(omega.alpha)
    young = young_kernel_table(omega, shapes)
    [kingman] = kingman_kernel_table([alpha_only], shapes)
    for mu in shapes:
        assert kernel_value(young, mu) == fraction_jacobi_trudi(mu, h)
        assert kernel_value(kingman, mu) == fraction_kingman_kernel(mu, alpha_only)
    # the one-mu case clears the point with F = |mu|! instead of 6!
    for mu in (P([2, 1]), P([1, 1, 1, 1]), P([5, 1])):
        assert young_kernel(mu, omega) == fraction_jacobi_trudi(mu, h)
