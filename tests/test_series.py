from fractions import Fraction as F

import pytest

from harmgraphs.series import (
    factorial_series_from_rational,
    poly_add,
    poly_eval,
    poly_integral,
    poly_mul,
    poly_shift,
    poly_sub,
)
from oracles import (
    SeriesPoleError,
    evaluate_factorial_series,
    exp_series,
    extract_series_coeffs,
    falling_factorial,
    geometric_series,
    series_mul,
)


def test_poly_basic_ops():
    a = [F(1), F(2)]  # 1 + 2u
    b = [F(0), F(0), F(3)]  # 3u^2
    assert poly_add(a, b) == [F(1), F(2), F(3)]
    assert poly_sub(a, a) == []
    assert poly_mul(a, a) == [F(1), F(4), F(4)]
    assert poly_eval(poly_mul(a, b), F(2)) == (1 + 4) * 12
    # (u + 1)(u + 2)
    assert poly_mul([F(1), F(1)], [F(2), F(1)]) == [F(2), F(3), F(1)]


def test_poly_shift():
    # p(u) = u^2; p(u+1) = u^2 + 2u + 1
    assert poly_shift([F(0), F(0), F(1)], 1) == [F(1), F(2), F(1)]
    p = [F(3), F(-1), F(2)]
    q = poly_shift(p, F(5, 2))
    for x in (F(0), F(1), F(-7, 3)):
        assert poly_eval(q, x) == poly_eval(p, x + F(5, 2))


def test_poly_integral():
    # integral of 3u^2 is u^3
    anti = poly_integral([F(0), F(0), F(3)])
    assert poly_eval(anti, 2) - poly_eval(anti, 1) == 7


def test_truncated_series_helpers():
    geo = geometric_series(F(1, 2), 4)
    assert geo == [F(1), F(1, 2), F(1, 4), F(1, 8)]
    ex = exp_series(F(1), 4)
    assert ex == [F(1), F(1), F(1, 2), F(1, 6)]
    prod = series_mul(geo, ex, 3)
    assert prod[0] == 1 and prod[1] == F(3, 2)


def test_factorial_series_trivial():
    # constant 1 has all coefficients zero
    assert factorial_series_from_rational([F(1)], [F(1)], 5) == [F(0)] * 5
    # (u+1)/u = 1 + 1/u
    assert factorial_series_from_rational([F(1), F(1)], [F(0), F(1)], 4) == [
        F(1),
        F(0),
        F(0),
        F(0),
    ]


def test_factorial_series_requires_monic_ratio():
    with pytest.raises(ValueError):
        factorial_series_from_rational([F(2), F(2)], [F(0), F(1)], 3)


def test_factorial_series_matches_resubstitution():
    # terminating source: coefficients re-evaluate to the function
    num = poly_mul([F(2), F(1)], [F(3), F(1)])  # (u+2)(u+3)
    den = poly_mul([F(-1), F(1)], [F(0), F(1)])  # (u-1)u
    coeffs = factorial_series_from_rational(num, den, 6)
    assert coeffs[:3] == [F(6), F(12), F(0)]
    for u in (F(5), F(7), F(19, 2)):
        expected = poly_eval(num, u) / poly_eval(den, u)
        assert evaluate_factorial_series(coeffs, u) == expected


def test_factorial_series_nonterminating_source():
    # a generic one-variable source never terminates; its coefficients are
    # falling factorial powers of the coordinate, an independent oracle
    for a in (F(1, 2), F(-3, 4), F(7, 5)):
        num = [F(1), F(1)]  # u + 1
        den = [F(1) - a, F(1)]  # u + 1 - a
        coeffs = factorial_series_from_rational(num, den, 8)
        assert coeffs == [falling_factorial(a, m) for m in range(1, 9)]
        assert all(c != 0 for c in coeffs)


def test_extract_series_coeffs_triangular():
    # sample the rational function (u+1)(u+3)/((u-1)u) ... has a pole at 1,
    # so use a pole-free terminating example first: (u+1)/u at u=1..4
    values = lambda u: F(u + 1, u)
    assert extract_series_coeffs(values, 4) == [F(1), F(0), F(0), F(0)]


def test_extract_series_coeffs_all_zero():
    assert extract_series_coeffs(lambda u: F(1), 5) == [F(0)] * 5


def test_extract_series_coeffs_shifted_window():
    # (u+2)(u+3)/((u-1)u) has a pole at u = 1; coefficients terminate at 3
    num = poly_mul([F(2), F(1)], [F(3), F(1)])
    den = poly_mul([F(-1), F(1)], [F(0), F(1)])
    values = lambda u: poly_eval(num, F(u)) / poly_eval(den, F(u))
    got = extract_series_coeffs(values, 5, poles=(0, 1), truncation=3)
    assert got == [F(6), F(12), F(0), F(0), F(0)]
    with pytest.raises(SeriesPoleError):
        extract_series_coeffs(values, 5, poles=(0, 1))


def test_extraction_routes_agree_on_diagram_sources():
    # both routes on the terminating source of a diagram
    from harmgraphs.interp import h_star_values
    from harmgraphs.partitions import Partition

    lam = Partition([3, 1])
    num = poly_mul([F(1), F(1)], [F(2), F(1)])  # (u+1)(u+2)
    den = poly_mul([F(-2), F(1)], [F(1), F(1)])  # (u-2)(u+1)
    algebraic = factorial_series_from_rational(num, den, 6)
    sampled = extract_series_coeffs(
        lambda u: poly_eval(num, F(u)) / poly_eval(den, F(u)),
        6,
        poles=(2,),
        truncation=4,
    )
    assert algebraic == sampled
    assert algebraic == h_star_values([F(3), F(1)], 6)
