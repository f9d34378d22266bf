"""Dense polynomial helpers over Q and factorial-series extraction.

The generating series used by the interpolation machinery live in the
inverse falling-factorial basis 1/(u(u-1)...(u-m+1)).  Their sources are
explicit rational functions of u, so coefficients are extracted exactly
by algebraic expansion (multiply by u, read off the value at infinity,
shift u -> u+1, repeat).  The sampling-based extraction at integer points
is a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import as_rational

Poly = list[Fraction]  # coefficients, index = power of u


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def poly_trim(p: Sequence[Fraction]) -> Poly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    return poly_add(a, [-c for c in b])


def poly_scale(a: Sequence[Fraction], s) -> Poly:
    s = as_rational(s)
    return poly_trim([c * s for c in a])


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_eval(p: Sequence[Fraction], x) -> Fraction:
    x = as_rational(x)
    out = Fraction(0)
    for c in reversed(list(p)):
        out = out * x + c
    return out


def poly_shift(p: Sequence[Fraction], c) -> Poly:
    """Compose with a translation: returns q with q(u) = p(u + c)."""
    c = as_rational(c)
    out = poly_trim([as_rational(a) for a in p])
    # Horner's rule run in place on the coefficient list (Taylor shift)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def poly_integral(p: Sequence[Fraction]) -> Poly:
    """Antiderivative with zero constant term."""
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]


# ---------------------------------------------------------------------------
# factorial series
# ---------------------------------------------------------------------------

def factorial_series_from_rational(num: Sequence[Fraction], den: Sequence[Fraction], count: int) -> list[Fraction]:
    """First `count` coefficients g_m of num/den = 1 + sum g_m/(u falling m).

    Requires deg num == deg den with leading-coefficient ratio 1 (the
    series has constant term 1).  Exact for every rational source,
    including the non-terminating ones where integer sampling fails.
    """
    num = poly_trim([as_rational(c) for c in num])
    den = poly_trim([as_rational(c) for c in den])
    if not den:
        raise ZeroDivisionError("zero denominator")
    if len(num) != len(den) or num[-1] != den[-1]:
        raise ValueError("rational source must tend to 1 at infinity")
    rem = poly_sub(num, den)  # deg rem < deg den
    coeffs: list[Fraction] = []
    for _ in range(count):
        u_rem = [Fraction(0)] + rem  # multiply by u; rem is trimmed
        g = u_rem[-1] / den[-1] if len(u_rem) == len(den) else Fraction(0)
        coeffs.append(g)
        rem = poly_shift(poly_sub(u_rem, poly_scale(den, g)), 1)
        den = poly_shift(den, 1)
    return coeffs
