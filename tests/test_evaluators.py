"""The point evaluators against plain-Fraction routes and tableau sums.

s, s*, m, m* and h* are computed on integer numerators over one common
denominator; each is checked here against the one-operation-per-term
`Fraction` route and, for s and s*, the reverse-tableau sum, at random
rational points with mixed denominators and zero, negative and repeated
coordinates.  The face densities at the embedded points nu/n are checked
against s_lam V^2 and m_lam in Fraction, and on all four faces against the
rational face formulas of the oracle.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmgraphs.boundary import ThomaPoint, density_spec, density_value, kingman_kernel
from harmgraphs.harmonic import GammaShaped
from harmgraphs.interp import (
    H_STAR,
    FunctionalSpec,
    factorial_monomial_eval,
    functional_on_shifted_schur,
    h_star_values,
    jacobi_trudi,
    monomial_eval,
    schur_eval,
    shifted_schur_eval,
)
from harmgraphs.partitions import Partition, partitions_of
from oracles import (
    fraction_density,
    fraction_falling,
    fraction_h_star_values,
    fraction_jacobi_trudi,
    fraction_permutation_sum,
    fraction_power,
    fraction_schur,
    fraction_shifted_schur,
    fraction_vandermonde,
    schur_tableau,
    shifted_schur_tableau,
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


@PROPERTY
@given(st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))),
       st.lists(coordinates, min_size=6, max_size=6))
def test_functional_on_shifted_schur_matches_the_fraction_route(mu, values):
    spec = FunctionalSpec(H_STAR, tuple(values))
    expected = fraction_jacobi_trudi(mu, (F(1),) + tuple(values), shifted=True)
    assert functional_on_shifted_schur(mu, spec) == expected


def test_gamma_shaped_phi_matches_the_fraction_route():
    for lam in (P([2, 1]), P([3, 2, 2]), P([1, 1])):
        family = GammaShaped.from_partition(lam, degree_cap=8)
        g = (F(1),) + family.functional.values
        for n in range(9):
            for mu in partitions_of(n):
                if mu.depth > family.depth:
                    continue
                value = fraction_jacobi_trudi(mu, g, shifted=True) * (-1) ** n
                for k in range(n):
                    value /= family.t + k
                assert family.phi(mu) == value, (lam, mu)


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


@PROPERTY
@given(shapes, thoma_alphas())
@example(P([1, 1, 1]), ThomaPoint(()))
@example(P([3, 1, 1]), ThomaPoint((F(1, 2), F(1, 2))))
def test_kingman_kernel_is_the_fraction_sum_over_removed_ones(mu, omega):
    r1 = mu.multiplicity(1)
    rest = [p for p in mu.parts if p != 1]
    expected = F(0)
    for k in range(r1 + 1):
        nu = P(rest + [1] * (r1 - k))
        weight = omega.gamma**k
        for j in range(2, k + 1):
            weight /= j
        expected += weight * fraction_permutation_sum(nu, omega.alpha, fraction_power)
    assert kingman_kernel(mu, omega) == expected
