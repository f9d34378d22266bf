"""Exact rational arithmetic kernels.

Everything downstream (partitions, graphs, interpolation polynomials,
harmonic families, boundary integrals) reduces to arithmetic over Q.
This module holds the shared primitives: rational parsing/formatting, a
rational point as integer numerators over one denominator (`integer_point`),
Pochhammer products, exact dense linear algebra (one determinant algorithm,
fraction-free Bareiss elimination on integers; one Pfaffian algorithm,
fraction-free skew elimination on integers, and Schur's quotient Pfaffian in
closed form as one integer pair; linear solve and inverse over
`fractions.Fraction`), and the binary floats of the convergence reports as
dyadic rationals: a rational rounded once to a bit precision (`round_bits`)
and printed in mpmath's decimal layout from integers (`format_bigfloat`).
mpmath is loaded only by the Gauss summation check (`interp.gauss_2f1_check`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log, prod
from typing import Sequence

DEFAULT_PRECISION = 128


class ShapeError(ValueError):
    """Matrix/vector dimensions do not fit the requested operation."""


class SingularMatrixError(ValueError):
    """A linear solve hit a singular (or numerically empty) system."""


# ---------------------------------------------------------------------------
# rational scalars
# ---------------------------------------------------------------------------

def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError("refusing to coerce a float to an exact rational")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse the wire form 'p/q' (or plain 'p')."""
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(value))


def integer_point(values) -> tuple[list[int], int]:
    """(X, Q): Q the lcm of the denominators, x_i = X_i / Q.  A value homogeneous of
    degree d is its value at X over Q^d; in one graded by degree, such as a falling
    factorial, each integer shift c becomes c Q."""
    point = [v if isinstance(v, int) else as_rational(v) for v in values]
    q = lcm(*(x.denominator for x in point))
    return [x.numerator * (q // x.denominator) for x in point], q


def pochhammer(t, n: int) -> Fraction:
    """Rising factorial (t)_n = t (t+1) ... (t+n-1), with (t)_0 = 1.

    For t = p/q this is the integer product of p + kq over k < n, divided
    by q^n once.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    t = as_rational(t)
    p, q = t.numerator, t.denominator
    return Fraction(prod(range(p, p + n * q, q)), q**n)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class RationalMatrix:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", len(data[0]) if data else 0)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):  # pickle rebuilds through __init__, not past the guard
        return type(self), (self.rows,)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]})"

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_skew_symmetric(self) -> bool:
        if not self.is_square:
            return False
        n = self.nrows
        return all(self.rows[i][j] == -self.rows[j][i] for i in range(n) for j in range(i, n))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def mul_vector(self, v: Sequence) -> list[Fraction]:
        vec = [as_rational(x) for x in v]
        if len(vec) != self.ncols:
            raise ShapeError("vector length does not match column count")
        return [sum((x * v for x, v in zip(row, vec) if x and v), Fraction(0)) for row in self.rows]


def det(m: RationalMatrix) -> Fraction:
    """Exact determinant: `integer_det` of the rows cleared of their denominators,
    over the product of the lcms that cleared them."""
    if not m.is_square:
        raise ShapeError("determinant needs a square matrix")
    rows = [integer_point(row) for row in m.rows]
    return Fraction(integer_det([x for x, _ in rows]), prod(q for _, q in rows))


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division is exact, so no Fraction forms."""
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def pfaffian(m: RationalMatrix) -> Fraction:
    """Exact Pfaffian of an even-dimensional skew-symmetric matrix: `integer_pfaffian`
    of D m D, D the diagonal of the row lcms, over their product (Pf(D m D) = det(D) Pf(m))."""
    if not m.is_square:
        raise ShapeError("pfaffian needs a square matrix")
    if m.nrows % 2 != 0:
        raise ShapeError("pfaffian needs even dimension")
    if not m.is_skew_symmetric():
        raise ValueError("pfaffian needs a skew-symmetric matrix")
    rows = [integer_point(row) for row in m.rows]
    scales = [q for _, q in rows]
    cleared = [[x * q for x, q in zip(xs, scales)] for xs, _ in rows]
    return Fraction(integer_pfaffian(cleared), prod(scales))


def integer_pfaffian(rows: Sequence[Sequence[int]]) -> int:
    """Exact Pfaffian of an even-dimensional skew-symmetric integer matrix by
    fraction-free skew elimination, one pivot pair (p, p + 1) at a time.  After a
    pair, entry (i, j) is the Pfaffian of the principal minor on the pivot rows and
    {i, j}, and the Pfaffian analogue of Desnanot-Jacobi (Knuth, "Overlapping
    Pfaffians", 1996) divides it exactly by the previous pivot: no Fraction forms."""
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a) or n % 2:
        raise ShapeError("pfaffian needs an even-dimensional square matrix")
    sign, prev = 1, 1
    for p in range(0, n - 2, 2):
        q = p + 1
        if a[p][q] == 0:
            pivot = next((j for j in range(q + 1, n) if a[p][j] != 0), None)
            if pivot is None:
                return 0
            a[q], a[pivot] = a[pivot], a[q]
            for row in a:
                row[q], row[pivot] = row[pivot], row[q]
            sign = -sign
        top, second, pq = a[p], a[q], a[p][q]
        for i in range(q + 1, n):
            row, pi, qi = a[i], top[i], second[i]
            for j in range(i + 1, n):
                row[j] = (pq * row[j] - pi * second[j] + top[j] * qi) // prev
                a[j][i] = -row[j]
        prev = pq
    return sign * a[-2][-1] if n else 1


def quotient_pfaffian(values: Sequence[int]) -> tuple[int, int]:
    """prod_{i<j} (v_i - v_j) and prod_{i<j} (v_i + v_j) on integers: Schur's Pfaffian
    Pf[(v_i - v_j)/(v_i + v_j)], bordered by ones when the size is odd, as one
    numerator and one denominator."""
    num = den = 1
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            num *= a - b
            den *= a + b
    return num, den


def _gauss_jordan(aug: list[list[Fraction]], n: int) -> None:
    """Reduce [A | B] in place to [I | A^-1 B], A being the leading n x n block."""
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        top = aug[col] = [x / scale for x in aug[col]]
        cols = [c for c, x in enumerate(top) if x != 0]
        for row in aug:
            f = row[col]
            if f != 0 and row is not top:
                for c in cols:
                    row[c] -= f * top[c]


def solve_linear(a: RationalMatrix, b: Sequence) -> list[Fraction]:
    """Exact solution of a x = b; SingularMatrixError on rank deficiency."""
    if not a.is_square:
        raise ShapeError("solve_linear needs a square matrix")
    if len(b) != a.nrows:
        raise ShapeError("right-hand side length does not match")
    aug = [list(row) + [as_rational(x)] for row, x in zip(a.rows, b)]
    _gauss_jordan(aug, a.nrows)
    return [row[-1] for row in aug]


def invert_matrix(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse by one Gauss-Jordan pass on [m | I]; SingularMatrixError if singular."""
    if not m.is_square:
        raise ShapeError("inverse needs a square matrix")
    aug = [list(row) + list(e) for row, e in zip(m.rows, RationalMatrix.identity(m.nrows).rows)]
    _gauss_jordan(aug, m.nrows)
    return RationalMatrix([row[m.nrows:] for row in aug])


# ---------------------------------------------------------------------------
# binary floats as dyadic rationals (experiments only; never in exact identities)
# ---------------------------------------------------------------------------

_LOG2_10 = log(10, 2)


def round_bits(value, precision: int = DEFAULT_PRECISION) -> Fraction:
    """value rounded to `precision` significant bits, ties to even, as a dyadic
    Fraction: the binary float mpmath.fdiv gives at that working precision."""
    q = as_rational(value)
    n, d = abs(q.numerator), q.denominator
    if not n:
        return Fraction(0)

    # the scale s puts n 2^s / d in [2^(p-1), 2^(p+1)); one lower if it is past 2^p
    s = precision - n.bit_length() + d.bit_length()
    if n << max(s, 0) >= d << (precision - min(s, 0)):
        s -= 1
    num, den = (n << s, d) if s >= 0 else (n, d << -s)
    m, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    m = -m if q < 0 else m
    return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)


def format_bigfloat(value, precision: int = DEFAULT_PRECISION) -> str:
    """Decimal serialization with an explicit precision tag, 'digits@bits'.

    The value is rounded to `precision` bits and printed with
    int(0.30103 precision) + 2 digits exactly as mpmath.nstr(x, digits,
    strip_zeros=False) prints it (`to_digits_exp` and `to_str` in
    mpmath.libmp.libmpf), in integers.
    """
    digits = max(1, int(precision * 0.30103) + 2)
    return f"{_decimal_string(round_bits(value, precision), digits)}@{precision}"


def _decimal_string(x: Fraction, dps: int) -> str:
    if not x:
        return "0.0"
    sign = "-" if x < 0 else ""
    # x = man 2^exp, man odd, with bc bits
    man, den = abs(x.numerator), x.denominator
    exp = 1 - den.bit_length()
    if den == 1:
        exp = (man & -man).bit_length() - 1
        man >>= exp
    bc = man.bit_length()
    if abs(exp + bc) > 3500:
        raise ValueError("binary exponent out of the range this printer reproduces")
    # dps + 3 digits rounded toward zero: |x| in binary fixed point, then decimal
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    text = str(fixed * 10**fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    # round half up on the first digit dropped
    if len(text) > dps and text[dps] in "56789":
        text = str(int(text[:dps]) + 1)
        if len(text) > dps:
            text, exponent = text[:dps], exponent + 1
    else:
        text = text[:dps]
    # fixed layout for leading digits near the unit
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            text = "0" * -exponent + text
        else:
            split = exponent + 1
            text += "0" * (split - dps)
        exponent = 0
    body = sign + text[:split] + "." + text[split:]
    if exponent == 0:
        return body
    return f"{body}e{exponent:+d}"
