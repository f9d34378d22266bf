"""Reference routes, kept here so the tests compare the library against an
independent computation rather than against itself.

The library evaluates on integer numerators over one common denominator and
takes every determinant and Pfaffian by fraction-free elimination. Most routes
here are the straightforward ones it replaced, in plain `Fraction` arithmetic
with one operation per term (the Pfaffian's first-row expansion among them).
The reverse-tableau sums and the bialternants for s and s* are the other
classical formulas for the values the library takes by Jacobi-Trudi. The
sampling extraction of factorial-series coefficients cross-checks the
algebraic one, and the functionals packaged as h* values drive the shifted
Jacobi-Trudi determinant and the generator-basis engine.  Factorial Schur P*
is the Fraction pipeline the library runs on integer numerators: one-row
values, the two-row table by its recurrences, and the first-row Pfaffian
expansion.  The Thoma h-series of the kernels is multiplied out as truncated
Fraction power series, where the library builds one integer series per
point. The mpmath
conversions are the float layer `exact.round_bits` and
`exact.format_bigfloat` reproduce in integers. The face densities are the
rational formulas at the point itself, where `boundary` evaluates one
homogeneous integer form on the point's numerators.  The μ = ∅ Selberg
integrals against the quotient Pfaffian and the Cauchy determinant are
expanded over perfect matchings and permutations into disjoint-pair simplex
integrals, where the library takes one Pfaffian or determinant by de Bruijn's
formula.  The convergence rows
come twice, both over the listed level, vertex by vertex, where the library
streams runs: in `Fraction`s at the points `embed_rows` and `embed_frobenius`
give, and in integers, fast enough for n in the hundreds; both take each
level weight as dim times phi rather than the face's own formula.  The
harmonicity check and the lattice level sums run over the library's sweep
one vertex at a time in `Fraction`s, where the library brings each level to
one denominator.  The
closed products of the Young and strict families are taken one vertex at a
time, with the hook product and Schur's quotient Pfaffian, where the library
reads a level from row tables and the sweep's dims.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import mpmath

from harmgraphs.boundary import FACES, ConvergenceRow, density_spec
from harmgraphs.exact import (
    RationalMatrix,
    SingularMatrixError,
    as_rational,
    integer_det,
    integer_point,
    quotient_pfaffian,
    round_bits,
    solve_linear,
)
from harmgraphs.graphs import dim_closed_form, level, sweep, top_level
from harmgraphs.harmonic import HarmonicityReport, HarmonicityViolation
from harmgraphs.partitions import EMPTY, Partition
from harmgraphs.interp import (
    H_STAR,
    FunctionalSpec,
    _product_series,
    as_point,
    h_star_values,
    jacobi_trudi,
    super_h_star_values,
)
from harmgraphs.series import poly_eval, poly_integral, poly_scale


def falling_factorial(a, k: int) -> Fraction:
    """Falling factorial a (a-1) ... (a-k+1), with the empty product 1.

    For a = p/q this is the integer product of p - jq over j < k, divided
    by q^k once.
    """
    if k < 0:
        raise ValueError("falling_factorial needs k >= 0")
    a = as_rational(a)
    p, q = a.numerator, a.denominator
    return Fraction(prod(range(p, p - k * q, -q)), q**k)


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        out *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return out if sign == 1 else -out


def fraction_pfaffian(rows) -> Fraction:
    """Pfaffian by recursive expansion along the first row over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, n):
        if a[0][j] != 0:
            keep = [r for r in range(1, n) if r != j]
            minor = [[a[r][c] for c in keep] for r in keep]
            total += (-1) ** (j - 1) * a[0][j] * fraction_pfaffian(minor)
    return total


def fraction_jacobi_trudi(mu, h, shifted=False) -> Fraction:
    """det[c_j(mu_i - i + j)], c_1 = h and c_(j+1) = S c_j with (Sg)_n = g_n + (n - 1) g_(n-1)
    when shifted, else c_j = h for every j."""
    m = mu.length
    columns = [[Fraction(v) for v in h]]
    for _ in range(1, m):
        g = columns[-1]
        if shifted:
            g = g[:1] + [g[n] + (n - 1) * g[n - 1] for n in range(1, len(g))]
        columns.append(g)
    at = lambda j, k: columns[j][k] if k >= 0 else Fraction(0)
    return fraction_det([[at(j, mu.part(i + 1) - i + j) for j in range(m)] for i in range(m)])


def fraction_complete_homogeneous(x, count):
    """h_0 .. h_count at x, accumulated one coordinate at a time."""
    h = [Fraction(1)] + [Fraction(0)] * count
    for xi in x:
        for k in range(1, len(h)):
            h[k] += xi * h[k - 1]
    return h


def fraction_h_star_values(x, count):
    """h*_1 .. h*_count at x: the one-row reverse-tableau sum, summed over the last index."""
    values = []
    ending = [Fraction(0)] * len(x)
    for j in range(count):
        tail = Fraction(1) if j == 0 else Fraction(0)
        for t in reversed(range(len(x))):
            tail += ending[t]
            ending[t] = (x[t] - j) * tail
        values.append(sum(ending, Fraction(0)))
    return values


def fraction_schur(mu, x) -> Fraction:
    if mu.length > len(x):
        return Fraction(0)
    return fraction_jacobi_trudi(mu, fraction_complete_homogeneous(x, mu.size))


def fraction_shifted_schur(mu, x) -> Fraction:
    if mu.length > len(x):
        return Fraction(0)
    return fraction_jacobi_trudi(mu, [Fraction(1)] + fraction_h_star_values(x, mu.size), True)


def series_mul(a, b, order: int) -> list[Fraction]:
    """Product of two power series kept to degree < order."""
    out = [Fraction(0)] * order
    for i, ca in enumerate(a[:order]):
        for j, cb in enumerate(b[: order - i]):
            out[i + j] += ca * cb
    return out


def geometric_series(ratio, order: int) -> list[Fraction]:
    """1/(1 - ratio*u) to degree < order."""
    r = as_rational(ratio)
    out = [Fraction(1)]
    for _ in range(order - 1):
        out.append(out[-1] * r)
    return out


def exp_series(coeff, order: int) -> list[Fraction]:
    """exp(coeff*u) to degree < order."""
    c = as_rational(coeff)
    out = [Fraction(1)]
    for k in range(1, order):
        out.append(out[-1] * c / k)
    return out


def young_h_series(omega, order: int) -> list[Fraction]:
    """h_0 .. h_(order-1) at a Thoma point, the series exp(gamma u) prod(1 + beta_i u)
    / prod(1 - alpha_i u) multiplied out in Fractions, one factor at a time."""
    series = exp_series(omega.gamma, order)
    for b in omega.beta:
        series = series_mul(series, [Fraction(1), b], order)
    for a in omega.alpha:
        series = series_mul(series, geometric_series(a, order), order)
    return series


def fraction_power(a, e):
    return Fraction(a) ** e


def fraction_falling(a, e):
    out = Fraction(1)
    for j in range(e):
        out *= a - j
    return out


def fraction_permutation_sum(mu, x, power) -> Fraction:
    """Sum over the distinct arrangements of mu's parts on the coordinates of
    x (zeros elsewhere) of the product of power(x_i, part), by one pass over
    the coordinates keyed by the multiplicities still to place."""
    if mu.length > len(x):
        return Fraction(0)
    mult = mu.multiplicities()
    values = tuple(mult)
    sums = {tuple(mult.values()): Fraction(1)}
    for xi in x:
        ahead = dict(sums)
        for state, s in sums.items():
            for k, r in enumerate(state):
                if r:
                    key = state[:k] + (r - 1,) + state[k + 1 :]
                    ahead[key] = ahead.get(key, Fraction(0)) + s * power(xi, values[k])
        sums = ahead
    return sums.get((0,) * len(values), Fraction(0))


def fraction_vandermonde(x) -> Fraction:
    out = Fraction(1)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            out *= Fraction(x[i]) - x[j]
    return out


def reverse_tableaux(mu, k: int):
    """Fillings of mu with entries in {1..k} decreasing weakly along rows
    and strictly down columns, emitted as row tuples."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shape = mu.parts
    if not shape:
        yield ()
        return

    rows: list[list[int]] = [[] for _ in shape]

    def fill(cell: int):
        if cell == mu.size:
            yield tuple(tuple(r) for r in rows)
            return
        # row-major position of the next cell
        i = 0
        consumed = cell
        while consumed >= shape[i]:
            consumed -= shape[i]
            i += 1
        j = consumed
        hi = k
        if j > 0:
            hi = min(hi, rows[i][j - 1])
        if i > 0:
            hi = min(hi, rows[i - 1][j] - 1)
        for v in range(hi, 0, -1):
            rows[i].append(v)
            yield from fill(cell + 1)
            rows[i].pop()

    yield from fill(0)


def schur_tableau(mu, x) -> Fraction:
    """s_mu(x) as the sum over reverse tableaux with entries <= len(x)."""
    total = Fraction(0)
    for filling in reverse_tableaux(mu, len(x)):
        term = Fraction(1)
        for (i, j) in mu.boxes():
            term *= x[filling[i - 1][j - 1] - 1]
        total += term
    return total


def shifted_schur_tableau(mu, x) -> Fraction:
    """s*_mu(x): the same sum with each box factor x_T - (j - i)."""
    total = Fraction(0)
    for filling in reverse_tableaux(mu, len(x)):
        term = Fraction(1)
        for (i, j) in mu.boxes():
            term *= x[filling[i - 1][j - 1] - 1] - (j - i)
        total += term
    return total


def schur_bialternant(mu, x) -> Fraction:
    """s_mu(x) = det[x_i^(mu_j + k - j)] / V(x); needs pairwise-distinct coordinates."""
    k = len(x)
    if len(set(x)) != k:
        raise ValueError("bialternant route needs pairwise-distinct coordinates")
    rows = [[Fraction(x[i]) ** (mu.part(j + 1) + (k - 1 - j)) for j in range(k)] for i in range(k)]
    return fraction_det(rows) / fraction_vandermonde(x)


def shifted_schur_bialternant(mu, x) -> Fraction:
    """s*_mu(x) as the falling-factorial bialternant; needs x_i + (k - i) pairwise distinct.

    With Q the common denominator of x, the shifted coordinates are A_i / Q
    for integers A_i.  Column j of the numerator is an integer column over
    Q^(m_j), m_j = mu_j + k - j, and the Vandermonde an integer over
    Q^(k(k-1)/2), so the value is one integer determinant over V(A) Q^|mu|.
    """
    k = len(x)
    if mu.length > k:
        return Fraction(0)
    xs, q = integer_point(x)
    shifted = [a + (k - 1 - i) * q for i, a in enumerate(xs)]
    # falling factorials are monic, so det[(a_i) falling (k-1-j)] is the Vandermonde product
    denom = prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
    if denom == 0:
        raise SingularMatrixError("shifted coordinates collide; bialternant denominator vanishes")
    exponents = [mu.part(j + 1) + (k - 1 - j) for j in range(k)]
    rows = [[prod(range(a, a - m * q, -q)) for m in exponents] for a in shifted]
    return Fraction(integer_det(rows), denom * q**mu.size)


def young_zz_functional(e, t, cap: int) -> FunctionalSpec:
    """The two-parameter multiplicative functional on the shifted algebra.

    Parameters enter through the symmetric combinations e = z + z' and
    t = z z'; the m-th generator value is (-1)^m / m! times the product
    of (t + c e + c^2) over c = 0..m-1.
    """
    e = as_rational(e)
    t = as_rational(t)
    vals = []
    value = Fraction(1)
    for m in range(1, cap + 1):
        c = m - 1
        value *= t + c * e + c * c
        vals.append(value * (-1) ** m / factorial(m))
    return FunctionalSpec(H_STAR, tuple(vals))


def evaluation_functional(x, cap: int) -> FunctionalSpec:
    """Evaluation at a point, packaged as h*-generator values."""
    return FunctionalSpec(H_STAR, tuple(h_star_values(x, cap)))


def super_evaluation_functional(xs, ys, cap: int) -> FunctionalSpec:
    """The two-alphabet series at (xs; ys), packaged as h*-generator values."""
    return FunctionalSpec(H_STAR, tuple(super_h_star_values(xs, ys, cap)))


def functional_on_shifted_schur(mu, spec: FunctionalSpec) -> Fraction:
    """pi(s*_mu): the library's shifted Jacobi-Trudi determinant in pi's generator values."""
    if spec.family != H_STAR:
        raise ValueError("shifted Schur values need an h-star functional")
    return jacobi_trudi(mu, [spec.g(m) for m in range(mu.size + 1)], shifted=True)


def fraction_pstar_one_row(source, count: int) -> list[Fraction]:
    """P*_(1..count) in Fraction: a functional's own values, or at the point itself half
    the coefficients of prod (u + 1 + x_i)/(u + 1 - x_i)."""
    if isinstance(source, FunctionalSpec):
        return list(source.values[:count])
    return [v / 2 for v in _product_series([(1 + x, x - 1) for x in as_point(source)], count)]


def fraction_pstar_two_row_table(one_row, bound: int) -> dict[tuple[int, int], Fraction]:
    """P*_(p,k) for p > k >= 1, p + k <= bound, by the degree-lowering and four-term
    relations on the one-row values in Fraction."""
    r = lambda m: one_row[m - 1]
    table = {}
    for p in range(2, bound):
        table[(p, 1)] = r(p) * r(1) - p * r(p) - r(p + 1)
    for k in range(2, bound):
        for p in range(k + 1, bound - k + 1):
            rhs = r(p) * r(k) - r(p + 1) * r(k - 1) - (p - k + 1) * r(p) * r(k - 1)
            table[(p, k)] = rhs - table[(p + 1, k - 1)] - (p + k - 1) * table[(p, k - 1)]
    return table


def fraction_pstar(mu, source) -> Fraction:
    """P*_mu by the Fraction pipeline: one-row values, the two-row table, and the
    first-row expansion of the Pfaffian of the two-row values, bordered by the
    one-row values with a zero corner at odd length."""
    bound = mu.part(1) + mu.part(2)
    one_row = fraction_pstar_one_row(source, bound)
    table = fraction_pstar_two_row_table(one_row, bound)
    parts = mu.parts
    if mu.length <= 1:
        return one_row[parts[0] - 1] if parts else Fraction(1)
    rows = [[table.get((p, r), 0) - table.get((r, p), 0) for r in parts] for p in parts]
    if mu.length % 2:
        rows = [row + [one_row[p - 1]] for row, p in zip(rows, parts)]
        rows.append([-one_row[p - 1] for p in parts] + [0])
    return fraction_pfaffian(rows)


class SeriesPoleError(ValueError):
    """A sample point hit a pole and no valid shifted window exists."""


def evaluate_factorial_series(coeffs, u) -> Fraction:
    """1 + sum g_m/(u falling m) for a finite coefficient list."""
    u = as_rational(u)
    out = Fraction(1)
    basis = Fraction(1)
    for m, g in enumerate(coeffs, start=1):
        basis *= u - (m - 1)
        if basis == 0:
            if any(c != 0 for c in coeffs[m - 1 :]):
                raise ZeroDivisionError("series hit a vanishing basis element")
            break
        out += g / basis
    return out


def extract_series_coeffs(values, degree: int, poles=(), truncation=None) -> list[Fraction]:
    """Recover g_1..g_degree of 1 + sum g_m/(u falling m) from samples.

    Samples at u = 1..degree give a triangular system because the basis
    elements with m > u vanish there.  That shortcut is valid only when
    the sampled function *is* the finite sum, i.e. the coefficients
    terminate; `truncation` states the last possibly-nonzero index.
    When a pole sits in the triangular window the window shifts past
    max(pole, truncation) and the square system is solved exactly.
    """
    pole_set = {int(p) for p in poles}
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return []
    if not (pole_set & set(range(1, degree + 1))):
        coeffs: list[Fraction] = []
        for n in range(1, degree + 1):
            rhs = as_rational(values(n)) - 1
            for m, g in enumerate(coeffs, start=1):
                rhs -= g / falling_factorial(n, m)
            coeffs.append(rhs * falling_factorial(n, n))
        return coeffs
    if truncation is None:
        raise SeriesPoleError(
            "pole at an integer sample and no truncation bound; cannot shift the window"
        )
    top = max(truncation, 1)
    start = max(max(pole_set, default=0) + 1, top, degree + 1)
    samples = list(range(start, start + top))
    rows = [[Fraction(1) / falling_factorial(n, m) for m in range(1, top + 1)] for n in samples]
    rhs = [as_rational(values(n)) - 1 for n in samples]
    sol = solve_linear(RationalMatrix(rows), rhs)
    sol += [Fraction(0)] * max(0, degree - top)
    return sol[:degree]


def embed_rows(nu, n: int) -> tuple[Fraction, ...]:
    """Row-scaling embedding of a level-n vertex: coordinates nu_i / n."""
    if nu.size != n or n < 1:
        raise ValueError("need |nu| = n >= 1")
    return tuple(Fraction(p, n) for p in nu.parts)


def embed_frobenius(nu, n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Split-diagonal embedding: ((P_i + 1/2)/n ; (Q_i + 1/2)/n)."""
    if nu.size != n or n < 1:
        raise ValueError("need |nu| = n >= 1")
    fc = nu.frobenius()
    half = Fraction(1, 2)
    return (
        tuple((p + half) / n for p in fc.p),
        tuple((q + half) / n for q in fc.q),
    )


def dirichlet_integral(kappas) -> Fraction:
    """Ordered-simplex Dirichlet value (1/l!)*prod((k_i-1)!)/(sum(k)-1)!.

    Valid termwise for symmetric integrands expanded into monomials.
    """
    ks = [int(k) for k in kappas]
    if any(k < 1 for k in ks):
        raise ValueError("parameters must be >= 1")
    num = 1
    for k in ks:
        num *= factorial(k - 1)
    return Fraction(num, factorial(len(ks)) * factorial(sum(ks) - 1))


def simplex_monomial_integral(exponents) -> Fraction:
    """Unordered-simplex integral of a monomial over sum(x) = 1, by the Dirichlet
    formula prod(e_i!) / (N + sum(e) - 1)!."""
    es = [int(e) for e in exponents]
    if any(e < 0 for e in es):
        raise ValueError("exponents must be >= 0")
    return Fraction(prod(map(factorial, es)), factorial(len(es) + sum(es) - 1))


def simplex_pair_integral(exponents, pairs) -> Fraction:
    """Unordered-simplex integral of a monomial over disjoint pair denominators.

    Computes the integral of prod(x_i^e_i) / prod((x_a + x_b)) where the
    pairs (a, b) are disjoint index pairs.  Radial reduction inside each
    pair yields a Beta factor and a merged Dirichlet variable, giving

        prod(e_i!) / ( prod(e_a + e_b + 1) * (N + sum(e) - P - 1)! )

    with N variables and P pairs; with no pairs, the Dirichlet monomial integral.
    """
    es = [int(e) for e in exponents]
    if any(e < 0 for e in es):
        raise ValueError("exponents must be >= 0")
    seen: set[int] = set()
    denom, order = 1, len(es) + sum(es) - 1
    for a, b in pairs:
        if a in seen or b in seen or a == b:
            raise ValueError("pairs must be disjoint")
        seen.update((a, b))
        denom *= es[a] + es[b] + 1
        order -= 1
    return Fraction(prod(map(factorial, es)), denom * factorial(order))


def _matchings(indices: list[int]):
    """Perfect matchings with Pfaffian signs over an even index list."""
    if not indices:
        yield 1, []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        rest = indices[1:k] + indices[k + 1 :]
        for sign, pairs in _matchings(rest):
            yield sign * (-1) ** (k - 1), [(first, indices[k])] + pairs


def pfaffian_integral_by_matchings(l: int, exponents) -> Fraction:
    """Unordered integral of x^exponents times Pf[(x_i - x_j)/(x_i + x_j)]
    (1-bordered if l is odd), expanded over perfect matchings: each numerator
    x_a - x_b splits into two monomials, and each term is a disjoint-pair integral."""
    total = Fraction(0)
    for msign, pairs in _matchings(list(range(l + l % 2))):
        real_pairs = [(a, b) for a, b in pairs if b < l]  # a border pair carries entry 1
        stack = [(Fraction(msign), list(exponents), 0)]
        while stack:
            coef, exps, idx = stack.pop()
            if idx == len(real_pairs):
                total += coef * simplex_pair_integral(exps, real_pairs)
                continue
            a, b = real_pairs[idx]
            up, down = list(exps), list(exps)
            up[a] += 1
            down[b] += 1
            stack.append((coef, up, idx + 1))
            stack.append((-coef, down, idx + 1))
    return total


def cauchy_integral_by_permutations(p, q) -> Fraction:
    """Unordered integral of x^p y^q times det[1/(x_i + y_j)] over 2d variables,
    expanded over the d! permutations into disjoint-pair integrals."""
    d = len(p)
    exps = list(p) + list(q)
    total = Fraction(0)
    for perm in permutations(range(d)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total += sign * simplex_pair_integral(exps, [(i, d + perm[i]) for i in range(d)])
    return total


def to_bigfloat(value, precision: int) -> mpmath.mpf:
    """Correctly rounded conversion of a rational to a binary float."""
    q = Fraction(value)
    with mpmath.workprec(precision):
        return mpmath.fdiv(q.numerator, q.denominator)


def format_mpf(x, precision: int) -> str:
    """mpmath's decimal serialization with a precision tag, 'digits@bits'."""
    digits = max(1, int(precision * 0.30103) + 2)
    with mpmath.workprec(precision):
        body = mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)
    return f"{body}@{precision}"


def parse_bigfloat(text: str) -> tuple[mpmath.mpf, int]:
    """Inverse of `format_mpf`; returns (value, precision_bits)."""
    body, _, tag = text.partition("@")
    precision = int(tag)
    with mpmath.workprec(precision):
        return mpmath.mpf(body), precision


def mpf_fraction(x: mpmath.mpf) -> Fraction:
    """The exact value of a binary float."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)


def fraction_alternant(x, exponents) -> Fraction:
    return fraction_det([[Fraction(xi) ** e for e in exponents] for xi in x])


def fraction_quotient_pfaffian(x) -> Fraction:
    out = Fraction(1)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            out *= Fraction(x[i] - x[j]) / (x[i] + x[j])
    return out


def fraction_density(graph, lam, point) -> Fraction:
    """The face density at a rational point, each face formula in Fraction at the
    point itself: s_lam V^2 as alternant times V (young), m_lam (kingman),
    alternant times the quotient Pfaffian (schur), and on gamma two alternants
    times the Cauchy determinant det[1/(a_i + b_j)] by elimination."""
    constant = FACES[graph].constant(lam)
    if graph == "young":
        staircase = [lam.part(i) + len(point) - i for i in range(1, len(point) + 1)]
        return constant * fraction_alternant(point, staircase) * fraction_vandermonde(point)
    if graph == "kingman":
        return constant * fraction_permutation_sum(lam, point, fraction_power)
    if graph == "schur":
        return constant * fraction_alternant(point, lam.parts) * fraction_quotient_pfaffian(point)
    alpha, beta = point
    fc = lam.frobenius()
    cauchy = fraction_det([[1 / (Fraction(a) + b) for b in beta] for a in alpha])
    return constant * fraction_alternant(alpha, fc.p) * fraction_alternant(beta, fc.q) * cauchy


def fraction_interior(blocks, gap) -> bool:
    """Every block nonempty, ending at or above the gap, with consecutive
    differences at or above it."""
    return all(
        block and block[-1] >= gap and all(a - b >= gap for a, b in zip(block, block[1:]))
        for block in blocks
    )


def fraction_convergence_row(family, n, resolution, interior_fraction):
    """(mass, interior points, max |ratio - 1|, binned distance) at level n, one
    Fraction operation per term, each vertex at the point embed_rows or
    embed_frobenius gives.  The level weights are dim(nu) phi(nu), the dimensions
    from the sweep up the family's graph (within its width: a path only adds rows)."""
    face, lam = FACES[family.face], family.lam
    l = face.blocks * getattr(lam, face.stat)
    rows = top_level(family.kind, n, max_length=getattr(family, "width", None))
    weights = [(nu, d * family.phi(nu)) for nu, d, _ in rows]
    binned = l == 2 and face.polynomial is not None
    lo, width = Fraction(1, 2), Fraction(1, 2 * resolution)
    bins = [Fraction(0)] * resolution
    interior, max_err = 0, Fraction(0)
    for nu, w in weights:
        if w == 0:
            continue
        if face.blocks == 1:
            point, blocks = embed_rows(nu, n), [nu.parts]
        else:
            fc = nu.frobenius()
            point, blocks = embed_frobenius(nu, n), [fc.p, fc.q]
        if binned:
            bins[min(int((point[0] - lo) / width), resolution - 1)] += w
        if sum(map(len, blocks)) == l and fraction_interior(blocks, interior_fraction * n):
            dens = fraction_density(family.face, lam, point)
            if dens > 0:
                max_err = max(max_err, abs(w * n ** (l - 1) / dens - 1))
                interior += 1
    distance = Fraction(0)
    if binned:
        anti = poly_integral(poly_scale(face.polynomial(lam), face.constant(lam)))
        for i in range(resolution):
            exact = poly_eval(anti, lo + (i + 1) * width) - poly_eval(anti, lo + i * width)
            distance += abs(bins[i] - exact)
    return sum(w for _, w in weights), interior, max_err, distance


def integer_convergence_row(family, n, resolution, interior_fraction):
    """`convergence_experiment`'s row at level n by a list-based integer loop: the whole
    level listed, each weight dim(nu) times phi from the family's level form over one
    denominator, and every vertex embedded, binned, tested for the interior and compared with
    its density form one at a time.  Fast enough for n in the hundreds, where the Fraction
    loop is not."""
    face, lam = FACES[family.face], family.lam
    spec = density_spec(family.face, lam)
    l, degree, form = spec.face_dim, face.degree(lam), face.density(lam)
    vertices = level(n, family.kind, max_length=getattr(family, "width", None))
    xs, den = family.level_phi(n, [(nu, None, ()) for nu in vertices])
    support = [(nu, dim_closed_form(nu, family.kind).numerator * x) for nu, x in zip(vertices, xs) if x]
    q = face.embed((), n)[1]
    k = Fraction(n ** (l - 1) * q**degree, den) / spec.constant
    binned = l == 2 and face.polynomial is not None
    gap = interior_fraction * n
    bins = [0] * resolution
    err, err_den, interior = 0, 1, 0
    for nu, w in support:
        point, _, blocks = face.embed(nu.parts, n)
        if binned:
            i = 2 * resolution * point[0] // q - resolution
            bins[min(i, resolution - 1)] += w
        if sum(map(len, blocks)) == l and fraction_interior(blocks, gap):
            f = form(point)
            if f > 0:
                a = k.denominator * f.numerator
                e = abs(k.numerator * w * f.denominator - a)
                if e * err_den > err * a:
                    err, err_den = e, a
                interior += 1
    distance = Fraction(0)
    if binned:
        anti = poly_integral(poly_scale(face.polynomial(lam), spec.constant))
        edges = [poly_eval(anti, Fraction(resolution + i, 2 * resolution)) for i in range(resolution + 1)]
        distance = sum(abs(Fraction(c, den) - (b - a)) for c, a, b in zip(bins, edges, edges[1:]))
    return ConvergenceRow(
        n, len(support), sum(w for _, w in support) == den, interior,
        round_bits(round_bits(Fraction(err, err_den)), 53), round_bits(Fraction(distance)),
    )


def fraction_harmonicity(family, max_level):
    """`check_harmonicity`'s report, each cover sum and level mass accumulated
    in Fractions one vertex at a time."""
    checked = 0
    violations = []
    values = []
    masses = []
    ahead = {EMPTY: family.phi(EMPTY)}
    for n, rows in sweep(family.kind, max_level):
        here, ahead = ahead, {}
        mass = Fraction(0)
        for mu, d, edges in rows:
            lhs = here[mu]
            rhs = Fraction(0)
            for lam, w in edges:
                if lam not in ahead:
                    ahead[lam] = family.phi(lam)
                rhs += w * ahead[lam]
            if n < max_level:
                checked += 1
                if lhs != rhs:
                    violations.append(HarmonicityViolation(mu, lhs, rhs))
            values.append((mu, lhs))
            mass += d * lhs
        masses.append(mass)
    return HarmonicityReport(
        family.spec_string(), max_level, checked, tuple(violations), tuple(values), tuple(masses)
    )


def fraction_lattice_sums(phi_fam, psi_fam, mu, top):
    """`lattice_level_sums`'s rows (n, join, meet, phi_sum), each sum accumulated
    in Fractions one vertex at a time."""
    out = []
    for n, rows in sweep(phi_fam.kind, top, start=mu):
        if n == mu.size:
            continue
        join = meet = phi_sum = Fraction(0)
        for lam, d, _ in rows:
            a, b = phi_fam.phi(lam), psi_fam.phi(lam)
            join += d * max(a, b)
            meet += d * min(a, b)
            phi_sum += d * a
        out.append((n, join, meet, phi_sum))
    return out


# ---------------------------------------------------------------------------
# the closed products of the Young and strict families, one vertex at a time
# ---------------------------------------------------------------------------

def young_zz_closed_form(e, t, mu: Partition) -> Fraction:
    """Closed product for the two-parameter functional on shifted Schur:
    (-1)^|mu| times the product over the boxes of (t + c e + c^2)/hook, c the
    content.  With t = tp/tq and e = ep/eq a box contributes the integer
    tp eq + c ep tq + c^2 tq eq, and (tq eq)^|mu| is divided out once."""
    e = as_rational(e)
    t = as_rational(t)
    tp, tq, ep, eq = t.numerator, t.denominator, e.numerator, e.denominator
    a, b, d = tp * eq, ep * tq, tq * eq
    num = prod(a + c * (b + c * d) for i, p in enumerate(mu.parts) for c in range(-i, p - i))
    return Fraction((-1) ** mu.size * num, mu.hook_product() * d**mu.size)


def pstar_closed_form(t, mu: Partition) -> Fraction:
    """Closed product for the t-functional on a factorial Schur P basis element:
    (-1)^|mu| prod over boxes of (2t + (j-1)j) / (2^l prod mu_i!), times Schur's quotient
    Pfaffian; with t = tp/tq each box is 2tp + (j-1)j tq over tq."""
    if not mu.is_strict:
        raise ValueError("needs a strict partition")
    t = as_rational(t)
    tp, tq = t.numerator, t.denominator
    parts = mu.parts
    num, den = quotient_pfaffian(parts)
    num *= prod(2 * tp + (j - 1) * j * tq for p in parts for j in range(1, p + 1))
    den *= 2 ** len(parts) * tq**mu.size * prod(map(factorial, parts))
    return Fraction((-1) ** mu.size * num, den)


def closed_form_phi(value: Fraction, t, n: int) -> Fraction:
    """phi = (-1)^n value / (t)_n of a family whose functional gives `value` at a size-n
    vertex, as one Fraction: (t)_n is the integer product of tp + k tq over k < n, over tq^n."""
    t = as_rational(t)
    tp, tq = t.numerator, t.denominator
    return Fraction((-1) ** n * value.numerator * tq**n, value.denominator * prod(range(tp, tp + n * tq, tq)))
