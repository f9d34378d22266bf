import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmgraphs.exact import (
    RationalMatrix,
    ShapeError,
    SingularMatrixError,
    as_rational,
    det,
    format_bigfloat,
    format_rational,
    integer_det,
    integer_pfaffian,
    invert_matrix,
    parse_rational,
    pfaffian,
    pochhammer,
    round_bits,
    solve_linear,
)
from oracles import (
    falling_factorial,
    format_mpf,
    fraction_det,
    fraction_pfaffian,
    mpf_fraction,
    parse_bigfloat,
    to_bigfloat,
)

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)


def test_rational_wire_format():
    assert format_rational(F(5, 3)) == "5/3"
    assert format_rational(F(4, 2)) == "2"
    assert parse_rational("5/3") == F(5, 3)
    assert parse_rational("-7") == F(-7)
    assert as_rational("3/4") == F(3, 4)


def test_float_coercion_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_pochhammer_base_cases():
    assert pochhammer(F(3, 2), 1) == F(3, 2)
    assert pochhammer(F(7, 5), 0) == 1
    assert pochhammer(1, 6) == 720  # (1)_n = n!


def test_falling_factorial_cases():
    assert falling_factorial(-4, 2) == 20
    assert falling_factorial(F(1, 2), 0) == 1
    assert falling_factorial(F(5, 2), 2) == F(15, 4)
    assert falling_factorial(3, 5) == 0
    assert isinstance(falling_factorial(7, 3), F)

    def product(a, k):
        out = F(1)
        for j in range(k):
            out *= a - j
        return out

    rng = random.Random(11)
    cases = [(-rng.randint(1, 100), rng.randint(0, 12)) for _ in range(20)]
    cases += [(0, k) for k in range(4)]
    cases += [(a, rng.randint(a + 1, a + 6)) for a in (rng.randint(0, 30) for _ in range(10))]
    cases += [(rng.randint(0, 40), rng.randint(0, 12)) for _ in range(10)]
    cases += [(F(rng.randint(-50, 50), rng.randint(2, 9)), rng.randint(0, 12)) for _ in range(30)]
    for a, k in cases:
        assert falling_factorial(a, k) == product(F(a), k), (a, k)


def test_integer_det_matches_fraction_det():
    rng = random.Random(13)
    for size in range(0, 6):
        for _ in range(10):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            if size >= 2 and rng.random() < 0.3:
                rows[0][0] = 0  # the first pivot needs a row swap
            assert integer_det(rows) == fraction_det(rows)
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0
    assert integer_det([[0, 2], [0, 5]]) == 0
    assert integer_det([]) == 1
    with pytest.raises(ShapeError):
        integer_det([[1, 2]])


def test_pochhammer_composition_property():
    rng = random.Random(7)
    for _ in range(25):
        t = F(rng.randint(-20, 20), rng.randint(1, 9))
        m = rng.randint(0, 10)
        n = rng.randint(0, 10)
        assert pochhammer(t, m + n) == pochhammer(t, m) * pochhammer(t + m, n)


def test_det_small_cases():
    assert det(RationalMatrix([[F(5, 3)]])) == F(5, 3)
    assert det(RationalMatrix([[6, 2], [2, 1]])) == 2
    assert det(RationalMatrix([[1, 2, 3], [1, 2, 3], [0, 1, 5]])) == 0


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        det(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_alternating_and_multilinear():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        m = RationalMatrix(rows)
        swapped = RationalMatrix([rows[1], rows[0], rows[2]])
        assert det(swapped) == -det(m)
        c = F(rng.randint(1, 7), rng.randint(1, 3))
        extra = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        combo = RationalMatrix(
            [[c * rows[0][j] + extra[j] for j in range(3)], rows[1], rows[2]]
        )
        alone = RationalMatrix([extra, rows[1], rows[2]])
        assert det(combo) == c * det(m) + det(alone)


# entries with mixed denominators, about a third of them zero
entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12])),
)


@st.composite
def square_matrices(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


@PROPERTY
@given(square_matrices())
@example([])
@example([[F(-5, 7)]])
@example([[F(0), F(1, 2)], [F(3, 4), F(5, 6)]])  # the leading pivot is zero
@example([[F(1, 2), F(1, 3), F(1)], [F(1), F(2, 3), F(2)], [F(5), F(0), F(1, 7)]])  # singular
@example([[F(1, 2), F(2, 3), F(3, 4)], [F(5, 6), F(7, 12), F(1, 5)], [F(-1, 7), F(4), F(9, 10)]])
def test_det_matches_fraction_elimination(rows):
    assert det(RationalMatrix(rows)) == fraction_det(rows)


def test_det_explicit_cases():
    assert det(RationalMatrix([])) == 1
    assert det(RationalMatrix([[F(-5, 7)]])) == F(-5, 7)
    assert det(RationalMatrix([[0, F(1, 2)], [F(3, 4), F(5, 6)]])) == F(-3, 8)
    assert det(RationalMatrix([[F(1, 2), F(1, 3)], [F(3, 2), 1]])) == 0
    assert det(RationalMatrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])) == F(1, 14) - F(1, 15)
    assert isinstance(det(RationalMatrix([[2, 1], [1, 1]])), F)


@st.composite
def skew_matrices(draw, max_half=4):
    n = 2 * draw(st.integers(0, max_half))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(entries)
            rows[i][j], rows[j][i] = v, -v
    return RationalMatrix(rows)


@PROPERTY
@given(skew_matrices(max_half=5))
def test_pfaffian_squares_to_det_at_random_skew_matrices(m):
    assert pfaffian(m) ** 2 == det(m) == fraction_det(m.rows)


@PROPERTY
@given(skew_matrices(max_half=5))
@example(RationalMatrix([]))
@example(RationalMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]))  # swap: Pf = -1
@example(RationalMatrix([[0, 0, 0, 0], [0, 0, 1, 2], [0, -1, 0, 3], [0, -2, -3, 0]]))  # zero row
def test_pfaffian_matches_signed_expansion(m):
    # the zero-heavy entries make pivot swaps and singular matrices common
    assert pfaffian(m) == fraction_pfaffian(m.rows)


def test_integer_pfaffian_cases():
    assert integer_pfaffian([]) == 1
    assert integer_pfaffian([[0, -5], [5, 0]]) == -5
    # a[0][1] = 0: row and column 1 swap with 2, and the sign flips
    swap = [[0, 0, 2, 3], [0, 0, 5, 7], [-2, -5, 0, 11], [-3, -7, -11, 0]]
    assert integer_pfaffian(swap) == 0 * 11 - 2 * 7 + 3 * 5 == 1
    # a zero pivot inside the elimination, after the first pair
    later = [[0, 1, 1, 1, 1, 1], [-1, 0, 1, 1, 1, 1], [-1, -1, 0, 0, 2, 3],
             [-1, -1, 0, 0, 4, 5], [-1, -1, -2, -4, 0, 6], [-1, -1, -3, -5, -6, 0]]
    assert integer_pfaffian(later) == fraction_pfaffian(later) == 2
    zero_row = [[0, 0, 0, 0], [0, 0, 4, 1], [0, -4, 0, 9], [0, -1, -9, 0]]
    assert integer_pfaffian(zero_row) == 0
    with pytest.raises(ShapeError):
        integer_pfaffian([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    with pytest.raises(ShapeError):
        integer_pfaffian([[0, 1], [-1]])


def test_pfaffian_two_by_two():
    a = F(7, 3)
    assert pfaffian(RationalMatrix([[0, a], [-a, 0]])) == a


def test_pfaffian_four_by_four_expansion():
    e = {}
    rng = random.Random(3)
    for i in range(4):
        for j in range(i + 1, 4):
            e[(i, j)] = F(rng.randint(-6, 6), rng.randint(1, 4))
    rows = [[F(0)] * 4 for _ in range(4)]
    for (i, j), v in e.items():
        rows[i][j] = v
        rows[j][i] = -v
    expected = e[(0, 1)] * e[(2, 3)] - e[(0, 2)] * e[(1, 3)] + e[(0, 3)] * e[(1, 2)]
    assert pfaffian(RationalMatrix(rows)) == expected


def test_pfaffian_quotient_product_identity():
    # entries (m_i - m_j)/(m_i + m_j) padded by a column of ones equal the
    # plain product over pairs
    mu = [F(3), F(2), F(1)]
    size = 4
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(3):
        for j in range(3):
            if i != j:
                rows[i][j] = (mu[i] - mu[j]) / (mu[i] + mu[j])
        rows[i][3] = F(1)
        rows[3][i] = F(-1)
    expected = F(1, 5) * F(2, 4) * F(1, 3)
    assert pfaffian(RationalMatrix(rows)) == expected


def test_pfaffian_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        pfaffian(RationalMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        pfaffian(RationalMatrix([[0, 1], [1, 0]]))


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_pfaffian_squares_to_det(size):
    rng = random.Random(size)
    for _ in range(6):
        rows = [[F(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = F(rng.randint(-7, 7), rng.randint(1, 5))
                rows[i][j] = v
                rows[j][i] = -v
        m = RationalMatrix(rows)
        assert pfaffian(m) ** 2 == det(m)


def test_pfaffian_ten_by_ten_matches_signed_expansion():
    rng = random.Random(99)
    size = 10
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = F(rng.randint(-4, 4), rng.randint(1, 3))
            rows[i][j] = v
            rows[j][i] = -v
    m = RationalMatrix(rows)
    assert pfaffian(m) == fraction_pfaffian(rows)
    assert pfaffian(m) ** 2 == det(m)


def test_solve_identity_and_roundtrip():
    rng = random.Random(5)
    b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
    assert solve_linear(RationalMatrix.identity(4), b) == b
    for _ in range(10):
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        m = RationalMatrix(rows)
        if det(m) == 0:
            continue
        x = solve_linear(m, b)
        assert m.mul_vector(x) == b


def test_solve_errors_distinguished():
    singular = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve_linear(singular, [1, 1])
    with pytest.raises(ShapeError):
        solve_linear(RationalMatrix([[1, 2], [3, 4]]), [1, 2, 3])
    with pytest.raises(ShapeError):
        solve_linear(RationalMatrix([[1, 2, 3], [4, 5, 6]]), [1, 2])


def test_invert_matrix_round_trip():
    m = RationalMatrix([[2, 1], [7, 4]])
    inv = invert_matrix(m)
    assert inv.mul_vector([1, 0]) == [F(4), F(-7)]
    ident = RationalMatrix.identity(2)
    got = RationalMatrix([[sum(m.rows[i][k] * inv.rows[k][j] for k in range(2)) for j in range(2)] for i in range(2)])
    assert got == ident


def _sparse_matrices(seed, count):
    """Seeded random rational matrices of sizes 1-12, about half zeros.

    Every other matrix has a zero diagonal in its leading half, so the
    elimination must swap rows to find a pivot.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        size = rng.randint(1, 12)
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.5 else F(0) for _ in range(size)]
            for _ in range(size)
        ]
        if k % 2:
            for i in range(size // 2 + 1):
                rows[i][i] = F(0)
        out.append(RationalMatrix(rows))
    return out


def _inverse_by_columns(m):
    n = m.nrows
    cols = [solve_linear(m, [F(i == j) for i in range(n)]) for j in range(n)]
    return RationalMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def _product(a, b):
    n = a.nrows
    return RationalMatrix(
        [[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]
    )


def test_invert_matrix_matches_column_solves():
    invertible = [m for m in _sparse_matrices(2024, 42) if det(m) != 0]
    assert len(invertible) >= 30
    assert any(m.rows[0][0] == 0 for m in invertible)
    for m in invertible:
        inv = invert_matrix(m)
        assert inv == _inverse_by_columns(m)
        assert _product(m, inv) == RationalMatrix.identity(m.nrows)


def test_singular_detected_exactly_when_det_vanishes():
    rng = random.Random(17)
    singular = [m for m in _sparse_matrices(31, 100) if det(m) == 0]
    # a repeated row is singular whatever the entries
    rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)] for _ in range(4)]
    singular.append(RationalMatrix(rows + [rows[2]]))
    assert len(singular) >= 5
    for m in singular:
        with pytest.raises(SingularMatrixError, match="singular system"):
            invert_matrix(m)
        with pytest.raises(SingularMatrixError, match="singular system"):
            solve_linear(m, [F(1)] * m.nrows)


def test_non_square_rejected_by_inverse_and_solve():
    wide = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError):
        invert_matrix(wide)
    with pytest.raises(ShapeError):
        solve_linear(wide, [1, 2])


def test_solve_linear_on_sparse_matrices():
    rng = random.Random(8)
    for m in _sparse_matrices(2024, 42):
        if det(m) == 0:
            continue
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m.nrows)]
        x = solve_linear(m, b)
        assert m.mul_vector(x) == b


def test_bigfloat_round_trip():
    x = round_bits(F(1, 3), 160)
    text = format_bigfloat(x, precision=160)
    assert text.endswith("@160")
    assert text == format_mpf(to_bigfloat(F(1, 3), 160), 160)
    back, prec = parse_bigfloat(text)
    assert prec == 160
    assert abs(mpf_fraction(back) - x) < F(1, 10**40)


@st.composite
def bigfloat_cases(draw):
    """(precision, q): a rational, a rational times a power of ten (either side
    of the fixed layout's bounds), a signed dyadic up to 2^+-200, or a tie, a
    dyadic with p + 1 significant bits that lies halfway between two p-bit floats."""
    precision = draw(st.sampled_from((53, 128, 160)))
    kind = draw(st.sampled_from(("rational", "decimal", "dyadic", "tie")))
    if kind == "rational":
        return precision, draw(st.fractions())
    if kind == "decimal":
        return precision, draw(st.fractions(-10, 10)) * F(10) ** draw(st.integers(-20, 60))
    sign = draw(st.sampled_from((1, -1)))
    if kind == "tie":
        mantissa = 2 * draw(st.integers(2 ** (precision - 1), 2**precision - 1)) + 1
    else:
        mantissa = draw(st.integers(1, 2 ** (precision + 12)))
    return precision, sign * mantissa * F(2) ** draw(st.integers(-200, 200))


@PROPERTY
@given(bigfloat_cases())
@example((53, F(0)))
@example((128, F(0)))
@example((53, F(2**53 + 1)))  # a tie that rounds down to the even mantissa
@example((53, -F(2**53 + 3)))  # a tie that rounds up to it
@example((128, F(2**129 + 3, 2**300)))
@example((160, F(2) ** 200))
@example((160, -F(2) ** -200))
@example((128, F(-1, 3)))
@example((53, F(3, 10**4)))  # the last exponent printed in fixed layout at 17 digits ...
@example((53, F(3, 10**5)))  # ... and the first in exponent layout
@example((53, F(10**16 + 7)))
@example((53, F(10**17 + 3)))
def test_format_bigfloat_matches_mpmath(case):
    precision, q = case
    x = round_bits(q, precision)
    reference = to_bigfloat(q, precision)
    assert x == mpf_fraction(reference)
    assert format_bigfloat(x, precision) == format_mpf(reference, precision)


def test_round_bits_twice_is_the_float_of_an_abs_outside_the_working_precision():
    # the convergence ratio error: an mpf made at 128 bits, then abs() at mpmath's default 53
    for q in (F(1, 3), F(-2, 7), F(10**40 + 1, 10**40), F(2**60 + 2**7 + 1, 2**61)):
        assert round_bits(round_bits(abs(q), 128), 53) == mpf_fraction(abs(to_bigfloat(q, 128)))


def test_format_bigfloat_rejects_an_exponent_beyond_the_printed_range():
    with pytest.raises(ValueError):
        format_bigfloat(F(2) ** 4000)
