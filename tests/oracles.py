"""Reference routes in plain `Fraction` arithmetic, one operation per term.

The library evaluates on integer numerators over one common denominator and
takes every determinant and Pfaffian by fraction-free elimination. These are
the straightforward routes it replaced (the Pfaffian's first-row expansion
among them), and the reverse-tableau sums and the bialternant for s and s*,
kept here so the tests compare the library against an independent
computation rather than against itself. The mpmath
conversions are the float layer `exact.round_bits` and
`exact.format_bigfloat` reproduce in integers. The face densities are the
rational formulas at the point itself, where `boundary` evaluates one
homogeneous integer form on the point's numerators, and the convergence loop
is the one `boundary.convergence_experiment` runs on integers, at the points
`embed_rows` and `embed_frobenius` give.
"""

from fractions import Fraction

import mpmath

from harmgraphs.boundary import FACES, embed_frobenius, embed_rows
from harmgraphs.partitions import reverse_tableaux
from harmgraphs.series import poly_eval, poly_integral, poly_scale


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
    embed_frobenius gives."""
    face, lam = FACES[family.face], family.lam
    l = face.blocks * getattr(lam, face.stat)
    scale, values = face.level_weights(family, n)
    weights = [(nu, scale * v) for nu, v in values]
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
