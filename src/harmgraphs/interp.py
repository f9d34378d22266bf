"""Classical and interpolation symmetric polynomials at rational points.

Three families of inhomogeneous interpolation polynomials drive the
harmonic-function constructions: shifted Schur (Young/Jack side),
factorial monomial (Kingman side) and factorial Schur P (strict side):

* Schur and shifted Schur: one Jacobi-Trudi determinant in the one-row
  values, at a point or under a multiplicative functional; the one-row
  generators h* and the other product-form series by one O(count)
  recurrence per factor, on integers when the factors are.  The
  determinant is always one integer determinant (a rational sequence is
  graded onto integer numerators first), and it serves every s and s*
  value: points, diagram points, the reflected points of the truncated
  Young family, the integer gamma columns, the functionals and the Thoma
  points of the kernels.  The falling-factorial bialternant and the
  reverse-tableau sums are test oracles;
* monomial and factorial monomial: one pass over the coordinates fills a table of
  every shape of a set and the partitions below it by removed parts
  (`monomial_tables`) in powers of an integer step c: m at c = 0, m* at Q, rising at -1;
* factorial Schur P: one-row series -> two-row table -> Pfaffian, on integer
  numerators D_m = 2 Q^m P*_(m) and T_(p,k) = 4 Q^(p+k) P*_(p,k); the integer
  Pfaffian is Q^|mu| Q*_mu = 2^l(mu) Q^|mu| P*_mu.  `pstar_pfaffians` builds one
  list and one table per point or functional for a set of shapes and reads
  every mu from them: lengths up to 2 directly, longer mu as a Pfaffian.

At a point x = X/Q (`exact.integer_point`) s, s*, m, m*, h* and P* are graded
values of the integer numerators X, with one Fraction formed per value.  A
caller that evaluates many mu at one point builds its h numerators
(`complete_numerators`), s* columns (`shifted_schur_columns`) or P* table
once and reads each mu by `jacobi_trudi_det`, m and m* from one table each of
`monomial_tables` (its closure built once per shape set), and P* by `pstar_pfaffian`.

A multiplicative functional is a list of generator values.  The
generator-basis engine, which expands a target over products of h*
generators by one exact inverse per degree, is not reached from the
CLI: it stays in the package only because the benchmark's tracer wraps its
functions, until the benchmark traces the code the CLI runs (see ROADMAP).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import mul
from typing import Mapping, Sequence

from .exact import (
    RationalMatrix,
    SingularMatrixError,
    as_rational,
    integer_det,
    integer_pfaffian,
    integer_point,
    invert_matrix,
)
from .partitions import Partition, partitions_up_to

Point = tuple[Fraction, ...]


def diagram_point(lam: Partition, length: int | None = None) -> Point:
    """The coordinates of a diagram, zero-padded to the requested length."""
    l = max(lam.length, length or 0)
    return tuple(Fraction(lam.part(i)) for i in range(1, l + 1))


# ---------------------------------------------------------------------------
# Jacobi-Trudi, classical Schur and monomial evaluation
# ---------------------------------------------------------------------------

def shifted_columns(h: Sequence, count: int, scale: int = 1) -> list[list]:
    """S^0 h, ..., S^(count-1) h with (Sg)_n = g_n + (n - 1) g_(n-1), from 1/((u-1) falling m)
    = 1/(u falling m) + m/(u falling (m+1)).  On numerators G_n over scale^n the shift
    reads G_n + (n - 1) scale G_(n-1)."""
    columns = [list(h)]
    for _ in range(1, count):
        g = columns[-1]
        columns.append(g[:1] + [g[n] + (n - 1) * scale * g[n - 1] for n in range(1, len(g))])
    return columns


def jacobi_trudi_det(mu: Partition, columns: Sequence[Sequence[int]]) -> int:
    """det[c_j(mu_i - i + j)] over integer columns that reach index mu_1 + l(mu) - 1, one
    `integer_det`.  Entry (i, j) has degree mu_i - i + j, so on graded numerators c_j(n)
    over Q^n the value is this determinant over Q^|mu|."""
    rows = [
        [columns[j][k] if (k := p - i + j) >= 0 else 0 for j in range(mu.length)]
        for i, p in enumerate(mu.parts)
    ]
    return integer_det(rows)


def jacobi_trudi(mu: Partition, h: Sequence, shifted: bool = False) -> Fraction:
    """det[c_j(mu_i - i + j)] over rational h_0 = 1, h_1, ..., h_k with k >= |mu|.

    Classical: every column c_j is h, giving s_mu.  Shifted: c_j = S^(j-1) h,
    giving pi(s*_mu) when h_m = pi(h*_m) (Okounkov-Olshanski 1997).  The
    sequence is graded first: with Q the lcm of its denominators, h_n Q^n is
    an integer, so the value is one integer determinant over Q^|mu|.
    """
    if h[0] != 1:
        raise ValueError("a Jacobi-Trudi sequence starts at h_0 = 1")
    xs, q = integer_point(h[1:])
    graded = [1] + [x * q**n for n, x in enumerate(xs)]  # h_(n+1) = X_n / Q
    columns = shifted_columns(graded, mu.length, q) if shifted else [graded] * mu.length
    return Fraction(jacobi_trudi_det(mu, columns), q**mu.size)


def complete_numerators(xs: Sequence[int], count: int, ys: Sequence[int] = ()) -> list[int]:
    """1, h_1, ..., h_count: the coefficients of prod(1 + y_j u) / prod(1 - x_i u) on
    integers, the complete homogeneous h_k(X), or with ys the supersymmetric h_k(X / Y).
    h_k has degree k, so at a point X/Q it is this numerator over Q^k."""
    h = [1] + [0] * count
    for y in ys:
        for k in range(count, 0, -1):
            h[k] += y * h[k - 1]
    for x in xs:
        for k in range(1, count + 1):
            h[k] += x * h[k - 1]
    return h


def schur_eval(mu: Partition, x) -> Fraction:
    """Classical Schur polynomial s_mu at a finite point: Jacobi-Trudi in
    the complete homogeneous h_k on the integer numerators X of x = X/Q,
    so s_mu(x) = s_mu(X)/Q^|mu|, which is 0 past l(mu) > len(x) by itself."""
    xs, q = integer_point(x)
    h = complete_numerators(xs, mu.size)
    return Fraction(jacobi_trudi_det(mu, [h] * mu.length), q**mu.size)


def monomial_eval(mu: Partition, x) -> Fraction:
    """Monomial symmetric polynomial m_mu at a finite point x = X/Q: m_mu(X)/Q^|mu|
    on the integer numerators, the one-mu case of `monomial_tables`."""
    xs, q = integer_point(x)
    return Fraction(monomial_tables([mu])(xs, 0)[mu.parts], q**mu.size)


def factorial_monomial_eval(mu: Partition, x) -> Fraction:
    """Factorial monomial m*_mu: ordinary powers replaced by falling powers, at x = X/Q
    the integer products of X - jQ over j < k, so one integer over Q^|mu| (step Q)."""
    xs, q = integer_point(x)
    return Fraction(monomial_tables([mu])(xs, q)[mu.parts], q**mu.size)


def monomial_tables(shapes):
    """table(X, c): m_nu on integer coordinates X (zeros on the rest) in the powers
    x(x - c) ... (x - (p - 1)c) of an integer step c, keyed by parts, for the shapes and every
    nu reached from them by removing parts: c = 0 gives m, c = Q the falling powers of m* at
    X/Q (over Q^|nu|), c = -1 rising powers.  Each coordinate x, one pass, turns T[nu] into
    T[nu] + sum_p T[nu less p] pw(p) over the distinct parts p of nu, each power pw(p) the one
    before times x - (p - 1)c, taking nu in decreasing order so that each reads T[nu less p]
    before it moves; T[()] = 1."""
    steps = {}
    todo = [mu.parts for mu in shapes]
    for nu in todo:
        if nu not in steps:
            steps[nu] = {p: nu[:i] + nu[i + 1 :] for i, p in enumerate(nu)}  # any copy of p: one nu
            todo += steps[nu].values()
    closure = sorted(steps.items(), reverse=True)  # nu less p sorts below nu
    top = max(max(steps, default=()), default=0)  # the largest part heads the largest nu

    def table(xs, c: int):
        values = dict.fromkeys(steps, 0) | {(): 1}
        for x in xs:
            pw = list(accumulate((x - p * c for p in range(top)), mul, initial=1))
            for nu, rests in closure:
                for p, rest in rests.items():
                    values[nu] += values[rest] * pw[p]
        return values

    return table


# ---------------------------------------------------------------------------
# shifted Schur evaluation
# ---------------------------------------------------------------------------

def shifted_schur_eval(mu: Partition, x) -> Fraction:
    """Shifted Schur polynomial s*_mu at a finite point: the shifted
    Jacobi-Trudi determinant in h*(x), valid at every rational point (0 past
    l(mu) > len(x)), in its graded form on the numerators of h*(x) over powers of Q."""
    xs, q = integer_point(x)
    columns = shifted_schur_columns(xs, q, mu.length, mu.part(1) + mu.length - 1)
    return Fraction(jacobi_trudi_det(mu, columns), q**mu.size)


def shifted_schur_columns(xs: Sequence[int], q: int, length: int, count: int) -> list[list[int]]:
    """S^0 h*, ..., S^(length-1) h* through h*_count at X/Q, on numerators over Q^n:
    s*_mu(X/Q) is `jacobi_trudi_det(mu, columns)` over Q^|mu| for every mu with
    l(mu) <= length and mu_1 + l(mu) - 1 <= count, the highest index the determinant
    reads.  s* is stable under zero padding, so the columns of a diagram at its own
    length serve every mu, longer ones included."""
    h = _product_series([(i * q, x - i * q) for i, x in enumerate(xs, 1)], count, q)
    return shifted_columns([1, *h], length, q)


def shifted_schur_at_diagram(mu: Partition, lam: Partition) -> Fraction:
    """s*_mu evaluated at the coordinate sequence of a diagram."""
    return shifted_schur_eval(mu, diagram_point(lam, max(1, lam.length, mu.length)))


# ---------------------------------------------------------------------------
# one-row generating series
# ---------------------------------------------------------------------------

def _product_series(factors: Sequence[tuple], count: int, scale: int = 1) -> list:
    """g_1..g_count of prod (u + a)/(u - b) = 1 + sum g_m/(u falling m) over (a, b).

    From 1/((u falling m)(u - b)) = sum_k (b - m) falling k / (u falling (m + k + 1)),
    one factor is O(count): g'_n = g_n + (a + b) T_n, T_1 = 1, T_(n+1) = (b - n + 1) T_n + g_n.
    The values are ints when every a and b is, and int zeros when there is no factor.  On
    numerators A, B over scale the shift n - 1 becomes (n - 1) scale, and G_n = scale^n g_n.
    """
    g = [0] * count
    for a, b in factors:
        t = 1
        for i, gi in enumerate(g):
            g[i] = gi + (a + b) * t
            t = (b - i * scale) * t + gi
    return g


def h_star_values(x, count: int) -> list[Fraction]:
    """Values of the one-row shifted Schur generators h*_1..h*_count at x: the coefficients
    of prod_i (u + i)/(u + i - x_i) = 1 + sum_m h*_m/(u falling m).  At x = X/Q that is
    the first of the `shifted_schur_columns`, h*_m an integer over Q^m; the one-row
    reverse-tableau sum is the test oracle."""
    xs, q = integer_point(x)
    h = shifted_schur_columns(xs, q, 1, count)[0][1:]
    return [Fraction(v, q**m) for m, v in enumerate(h, 1)]


# ---------------------------------------------------------------------------
# multiplicative functionals
# ---------------------------------------------------------------------------

H_STAR = "h-star"
P_STAR = "p-star-one-row"


class FunctionalSpec(namedtuple("FunctionalSpec", "family values")):
    """A multiplicative functional given by its one-row generator values.

    `family` names the generator alphabet: h-star generates the shifted
    symmetric algebra, p-star-one-row the odd-power-sum subalgebra.
    The scalar t is minus the value on the degree-one generator.
    """

    __slots__ = ()

    def __new__(cls, family: str, values):
        if family not in (H_STAR, P_STAR):
            raise ValueError(f"unknown generator family {family!r}")
        return super().__new__(cls, family, tuple(as_rational(v) for v in values))

    @property
    def degree_cap(self) -> int:
        return len(self.values)

    @property
    def t(self) -> Fraction:
        """-pi(generator_1); the denominator parameter of the extrapolation."""
        if not self.values:
            raise ValueError("empty functional has no degree-one value")
        return -self.values[0]

    def g(self, m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        if m > len(self.values):
            raise ValueError(f"functional only carries generator values up to degree {len(self.values)}")
        return self.values[m - 1]


def schur_t_functional(t, cap: int) -> FunctionalSpec:
    """One-row generator values of the t-functional on the strict side.

    The m-th value is (-1)^m/(2 m!) times the product of (2t + c(c+1))
    over c = 0..m-1; hypergeometric summation identifies the series with
    the staircase evaluations at t = -k(k+1)/2.
    """
    t = as_rational(t)
    vals = []
    prod = Fraction(1)
    for m in range(1, cap + 1):
        c = m - 1
        prod *= 2 * t + c * (c + 1)
        vals.append(prod * (-1) ** m / (2 * factorial(m)))
    return FunctionalSpec(P_STAR, tuple(vals))


# ---------------------------------------------------------------------------
# factorial Schur P pipeline: one-row -> two-row -> Pfaffian, on integers
# ---------------------------------------------------------------------------

def pstar_one_row_numerators(source, count: int) -> tuple[list[int], int]:
    """(D, Q) with D_m = 2 Q^m P*_(m) for m = 1..count, integers.

    At a point x = X/Q the product of (u + 1 + x_i)/(u + 1 - x_i), whose coefficients
    are 2 P*_(m) (Q*_(m), Ivanov's factorial Q-function), is expanded on the factors
    (Q + X_i, X_i - Q) over Q.  A functional's values v_m give D_m = 2 v_m Q^m, Q the
    lcm of their denominators.
    """
    if isinstance(source, FunctionalSpec):
        if source.family != P_STAR:
            raise ValueError("functional must carry one-row P generator values")
        if count > source.degree_cap:
            raise ValueError("functional does not carry enough generator values")
        xs, q = integer_point(source.values[:count])
        return [2 * x * q ** (m - 1) for m, x in enumerate(xs, 1)], q
    xs, q = integer_point(source)
    return _product_series([(q + x, x - q) for x in xs], count, q), q


def pstar_two_row_table(one_row: Sequence[int], q: int, bound: int) -> dict[tuple[int, int], int]:
    """T_(p,k) = 4 Q^(p+k) P*_(p,k) for all p > k >= 1 with p + k <= bound, integers.

    Built by double induction from the one-row numerators D: the k = 1 row
    comes from the degree-lowering relation, fixed by interpolation vanishing at
    the one-row diagram of size p + 1, higher k from the four-term relation.  An
    entry reads only entries of the same or lower p + k, so it does not depend on
    the bound: a larger table extends a smaller one.
    """
    if len(one_row) < bound:
        raise ValueError(f"need one-row values up to degree {bound}")
    d = lambda m: one_row[m - 1]
    table: dict[tuple[int, int], int] = {}
    for p in range(2, bound):
        table[(p, 1)] = d(p) * d(1) - 2 * p * q * d(p) - 2 * d(p + 1)
    for k in range(2, bound):
        for p in range(k + 1, bound - k + 1):
            rhs = d(p) * d(k) - d(p + 1) * d(k - 1) - (p - k + 1) * q * d(p) * d(k - 1)
            table[(p, k)] = rhs - table[(p + 1, k - 1)] - (p + k - 1) * q * table[(p, k - 1)]
    return table


def pstar_pfaffian(mu: Partition, one_row: Sequence[int], table) -> int:
    """Q^|mu| Q*_mu = 2^l(mu) Q^|mu| P*_mu of a strict partition, an integer, from one-row
    numerators up to degree mu_1 and a two-row table up to mu_1 + mu_2.

    Lengths up to 2 are read from the list and the table.  Longer mu take
    `integer_pfaffian` of [T_(mu_i, mu_j)], extended antisymmetrically; odd lengths
    are bordered by the D_(mu_i) with a zero corner.  Scaling row i by 2 Q^(mu_i)
    takes the Pfaffian of the P* values to this integer.
    """
    if not mu.is_strict:
        raise ValueError("factorial Schur P needs a strict partition")
    parts = mu.parts
    if mu.length <= 1:
        return one_row[parts[0] - 1] if parts else 1
    if mu.length == 2:
        return table[parts]
    rows = [[table[(p, r)] if p > r else -table[(r, p)] if p < r else 0 for r in parts] for p in parts]
    if mu.length % 2:
        rows = [row + [one_row[p - 1]] for row, p in zip(rows, parts)]
        rows.append([-one_row[p - 1] for p in parts] + [0])
    return integer_pfaffian(rows)


def pstar_pfaffians(shapes: Sequence[Partition], source) -> tuple[list[int], int]:
    """([Q^|mu| Q*_mu for each strict shape], Q) under one point or functional, from one
    one-row list and one two-row table sized by the largest mu_1 + mu_2: P*_mu is that
    integer over 2^l(mu) Q^|mu|."""
    bound = max((mu.part(1) + mu.part(2) for mu in shapes), default=0)
    one_row, q = pstar_one_row_numerators(source, bound)
    table = pstar_two_row_table(one_row, q, bound)
    return [pstar_pfaffian(mu, one_row, table) for mu in shapes], q


def pstar_values(shapes: Sequence[Partition], source) -> dict[Partition, Fraction]:
    """P* of each strict shape under one point or functional (`pstar_pfaffians`), each one Fraction."""
    xs, q = pstar_pfaffians(shapes, source)
    return {mu: Fraction(x, 2**mu.length * q**mu.size) for mu, x in zip(shapes, xs)}


def pstar_eval(mu: Partition, source) -> Fraction:
    """Factorial Schur P value of a strict partition under a point/functional."""
    return pstar_values([mu], source)[mu]


# ---------------------------------------------------------------------------
# generator-basis expansion and functional application (traced by the benchmark)
# ---------------------------------------------------------------------------

class SingularBasisError(SingularMatrixError):
    """The degree-capped evaluation system degenerated (should not happen)."""


@lru_cache(maxsize=4)
def _basis_inverse(n: int) -> tuple[tuple[Partition, ...], tuple[Partition, ...], RationalMatrix]:
    # an element of degree <= n is fixed by its values on the diagrams of
    # size <= n, and the h*-products indexed by the same set span that space
    diagrams = basis = tuple(partitions_up_to(n))
    rows = []
    for lam in diagrams:
        h = h_star_values(diagram_point(lam, max(1, lam.length)), n)
        row = []
        for rho in basis:
            val = Fraction(1)
            for part in rho.parts:
                val *= h[part - 1]
            row.append(val)
        rows.append(row)
    matrix = RationalMatrix(rows)
    try:
        inverse = invert_matrix(matrix)
    except SingularMatrixError as exc:  # pragma: no cover - would falsify uniqueness
        raise SingularBasisError(
            f"degree-{n} evaluation system is singular; interpolation uniqueness fails"
        ) from exc
    return diagrams, basis, inverse


def express_in_generator_basis(
    target_values: Mapping[Partition, Fraction], n: int
) -> dict[Partition, Fraction]:
    """Coefficients of a degree-<=n element over products of h* generators.

    The element is identified by its values on all diagrams of size <= n
    (interpolation uniqueness); the returned map sends an exponent
    partition rho to the coefficient of the product of h*_{rho_i}.
    """
    diagrams, basis, inverse = _basis_inverse(n)
    vec = [as_rational(target_values[lam]) for lam in diagrams]
    coeffs = inverse.mul_vector(vec)
    return {rho: c for rho, c in zip(basis, coeffs) if c != 0}


def shifted_schur_h_coeffs(mu_parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """h*-product expansion of s*_mu: H(mu) times column mu of the inverse, since s*_mu
    vanishes on the other diagrams of size <= |mu| and equals the hook product H(mu) at mu."""
    mu = Partition(mu_parts)
    diagrams, basis, inverse = _basis_inverse(mu.size)
    col = diagrams.index(mu)
    hooks = mu.hook_product()
    coeffs = ((rho.parts, hooks * row[col]) for rho, row in zip(basis, inverse.rows) if row[col])
    return tuple(sorted(coeffs, reverse=True))


def apply_functional(coeffs, spec: FunctionalSpec) -> Fraction:
    """Evaluate a functional on an h*-product expansion by multiplicativity."""
    if spec.family != H_STAR:
        raise ValueError("expansion over h* products needs an h-star functional")
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    total = Fraction(0)
    for rho, c in items:
        parts = rho.parts if isinstance(rho, Partition) else tuple(rho)
        val = as_rational(c)
        for m in parts:
            val *= spec.g(m)
        total += val
    return total


# ---------------------------------------------------------------------------
# hypergeometric summation check (high precision, not exact)
# ---------------------------------------------------------------------------

GAUSS_MAX_TERMS = 200_000


def gauss_2f1_check(
    a,
    b,
    c,
    tol: float = 1e-20,
    precision: int = 128,
) -> bool:
    """Partial sums of 2F1(a,b;c;1) against the Gamma-ratio closed form.

    Requires c - a - b > 0 (convergence), c not a nonpositive integer, a
    positive tolerance and a precision of at least one bit.  Terms are
    accumulated at the requested binary precision until they fall three
    orders below the tolerance, the series terminates, or GAUSS_MAX_TERMS
    terms are summed.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if precision < 1:
        raise ValueError(f"precision must be at least 1 bit, got {precision}")
    # the closed form needs the Gamma function at rationals, the one float
    # the package computes; importing mpmath here spares every other start
    import mpmath

    def to_mpf(q: Fraction) -> mpmath.mpf:
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

    a = as_rational(a)
    b = as_rational(b)
    c = as_rational(c)
    if c <= 0 and c.denominator == 1:
        raise ValueError("c must not be a nonpositive integer")
    if c - a - b <= 0:
        raise ValueError("series diverges unless c - a - b > 0")
    with mpmath.workprec(precision):
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        m = 0
        cutoff = mpmath.mpf(tol) / 1000
        while m < GAUSS_MAX_TERMS:
            ratio_num = (a + m) * (b + m)
            ratio_den = (c + m) * (m + 1)
            term = term * mpmath.mpf(ratio_num.numerator) / mpmath.mpf(ratio_num.denominator)
            term = term * mpmath.mpf(ratio_den.denominator) / mpmath.mpf(ratio_den.numerator)
            if term == 0:
                break
            total += term
            m += 1
            if abs(term) < cutoff:
                break
        closed = (
            mpmath.gamma(to_mpf(c))
            * mpmath.gamma(to_mpf(c - a - b))
            / mpmath.gamma(to_mpf(c - a))
            / mpmath.gamma(to_mpf(c - b))
        )
        return bool(abs(total - closed) < mpmath.mpf(tol))
