"""Boundary faces, limit densities, exact Selberg-type integrals, kernels.

The probability densities attached to the truncated families live on
finite-dimensional faces of the boundary simplex.  Every integral
needed here reduces to closed form on the standard simplex:

* a monomial x^e integrates by the Dirichlet formula
  I(e) = prod(e_i!) / (N + sum(e) - 1)!, which is symmetric in e and
  whose denominator depends only on sum(e);
* so in a product of two antisymmetric factors one factor may be fixed
  to its identity term: the rest of the signed sum is l! times one
  term, and two alternants integrate to Andreief's determinant
  l! det[(a_i + b_j)!] / (l + sum(a) + sum(b) - 1)!;
* a leftover Cauchy determinant or quotient Pfaffian expands over
  permutations/perfect matchings into terms whose denominators are
  sums over *disjoint* variable pairs, and each such term integrates
  exactly by a per-pair radial (Beta) reduction.

That makes the μ = ∅ mass-one checks exact as well, not just the
full-length alternant cases.  The truncated family and the density
constant depend on λ alone, so `selberg_rows` builds them once per λ.

Each face (young, kingman, schur, gamma) is one `Face` record in the
`FACES` table, keyed by the `face` string of its truncated family: its
λ check, width, density, vertex embedding, level weights, Selberg setup
and sweep, and width-2 density polynomial.  A density is the constant times
F(X) / Q^degree(λ) at a point X/Q, F one form on the integer numerators, so
`convergence_experiment` needs one rational scale per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb, factorial, lcm, perm, prod
from typing import Callable

from .exact import as_rational, integer_det, integer_point, pochhammer, round_bits
from .graphs import dim_closed_form, level
from .harmonic import (
    GammaShaped,
    HarmonicFamily,
    TruncKingman,
    TruncSchur,
    TruncYoung,
    level_measure,
)
from .interp import _distinct_perms, _permutation_sum, _vandermonde, jacobi_trudi
from .partitions import Partition
from .series import (
    Poly,
    exp_series,
    geometric_series,
    poly_add,
    poly_eval,
    poly_integral,
    poly_mul,
    poly_scale,
    poly_sub,
    series_mul,
)


# ---------------------------------------------------------------------------
# boundary points and embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThomaPoint:
    """A finite-support boundary point: two ordered nonnegative lists."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...] = ()

    def __post_init__(self):
        alpha = tuple(as_rational(a) for a in self.alpha)
        beta = tuple(as_rational(b) for b in self.beta)
        for seq in (alpha, beta):
            if any(x < 0 for x in seq):
                raise ValueError("coordinates must be nonnegative")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("coordinates must be nonincreasing")
        if sum(alpha) + sum(beta) > 1:
            raise ValueError("coordinate sums must not exceed 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def gamma(self) -> Fraction:
        return 1 - sum(self.alpha, Fraction(0)) - sum(self.beta, Fraction(0))


def embed_rows(nu: Partition, n: int) -> tuple[Fraction, ...]:
    """Row-scaling embedding of a level-n vertex: coordinates nu_i / n."""
    if nu.size != n or n < 1:
        raise ValueError("need |nu| = n >= 1")
    return tuple(Fraction(p, n) for p in nu.parts)


def embed_frobenius(nu: Partition, n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Split-diagonal embedding: ((P_i + 1/2)/n ; (Q_i + 1/2)/n)."""
    if nu.size != n or n < 1:
        raise ValueError("need |nu| = n >= 1")
    fc = nu.frobenius()
    half = Fraction(1, 2)
    return (
        tuple((p + half) / n for p in fc.p),
        tuple((q + half) / n for q in fc.q),
    )


# ---------------------------------------------------------------------------
# exact simplex integration
# ---------------------------------------------------------------------------

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
    """Unordered-simplex integral of a monomial over sum(x) = 1."""
    return simplex_pair_integral(exponents, ())


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


# ---------------------------------------------------------------------------
# densities on the faces
# ---------------------------------------------------------------------------

def _factorial_det(a, b) -> int:
    """det[(a_i + b_j)!]: the simplex integral of two alternants in exponents
    a and b, times (l + sum(a) + sum(b) - 1)! / l!."""
    return integer_det([[factorial(x + y) for y in b] for x in a])


def _plus_staircase(mu: Partition, l: int) -> list[int]:
    """mu + delta with delta = (l - 1, ..., 1, 0), mu padded to length l."""
    return [mu.part(i) + l - i for i in range(1, l + 1)]


def young_density_constant(lam: Partition) -> Fraction:
    l = lam.length
    return Fraction(
        factorial(lam.size + l * l - 1),
        _factorial_det(_plus_staircase(lam, l), _plus_staircase(Partition(), l)),
    )


def _alternant(xs, exponents) -> int:
    """det[x_i^(e_j)] on integer coordinates, homogeneous of degree sum(e)."""
    return integer_det([[x**e for e in exponents] for x in xs])


def _quotient_pfaffian(values) -> Fraction:
    """prod_{i<j} (v_i - v_j)/(v_i + v_j), the Pfaffian of the quotient matrix
    bordered by ones when the size is odd: one Fraction, homogeneous of degree 0."""
    pairs = [(a, b) for i, a in enumerate(values) for b in values[i + 1 :]]
    return Fraction(prod(a - b for a, b in pairs), prod(a + b for a, b in pairs))


def _cauchy(xs, ys) -> Fraction:
    """det[1/(x_i + y_j)] = V(x) V(y) / prod(x_i + y_j) by Cauchy's evaluation,
    homogeneous of degree -len(x); x_i + y_j = 0 raises ZeroDivisionError."""
    return Fraction(_vandermonde(xs) * _vandermonde(ys), prod(x + y for x in xs for y in ys))


def schur_density_constant(lam: Partition) -> Fraction:
    pf = _quotient_pfaffian([p + 1 for p in lam.parts])  # (lam_i - lam_j)/(lam_i + lam_j + 2)
    return factorial(lam.size + lam.length - 1) / (prod(map(factorial, lam.parts)) * pf)


def kingman_density_constant(lam: Partition) -> Fraction:
    orders = prod(map(factorial, lam.multiplicities().values()))
    return Fraction(factorial(lam.size + lam.length - 1) * orders, prod(map(factorial, lam.parts)))


def gamma_density_constant(lam: Partition) -> Fraction:
    fc = lam.frobenius()
    hooks = prod(factorial(p) * factorial(q) for p, q in zip(fc.p, fc.q))
    return factorial(lam.size - 1) / (_cauchy([p + 1 for p in fc.p], fc.q) * hooks)


@dataclass(frozen=True)
class DensitySpec:
    """A face density: graph tag, source partition, exact normalization."""

    graph: str
    lam: Partition
    constant: Fraction
    face_dim: int

    def density(self, point) -> Fraction:
        return density_value(self, point)


def density_spec(graph: str, lam: Partition) -> DensitySpec:
    if graph not in FACES:
        raise ValueError(f"unknown graph {graph!r}")
    face = FACES[graph]
    if not face.accepts(lam):
        raise ValueError(f"{graph} face needs {face.needs}")
    return DensitySpec(graph, lam, face.constant(lam), face.blocks * getattr(lam, face.stat))


def density_value(spec: DensitySpec, point) -> Fraction:
    """Exact density at a rational face point.

    A point is an alpha tuple of the face width, or on a two-block face
    (gamma) an (alpha_tuple, beta_tuple) pair.  Its blocks are cleared to
    integer numerators over one Q, and the density is the constant times the
    face's form F, homogeneous of degree d, at the numerators over Q^d.  Only
    the schur face's Pfaffian form rejects coordinate collisions.
    """
    face = FACES[spec.graph]
    blocks = [tuple(b) for b in ((point,) if face.blocks == 1 else point)]
    s = getattr(spec.lam, face.stat)
    want, got = [s] * face.blocks, [len(b) for b in blocks]
    if got != want:
        shape, given = (";".join(map(str, counts)) for counts in (want, got))
        raise ValueError(f"the {spec.graph} face has {shape} coordinates, got {given}")
    xs, q = integer_point(sum(blocks, ()))
    form = face.density(spec.lam, *(xs[i : i + s] for i in range(0, len(xs), s)))
    return spec.constant * form / Fraction(q) ** face.degree(spec.lam)


def _schur_density(lam: Partition, xs) -> Fraction:
    if len(set(xs)) != len(xs):
        raise ValueError("coordinate collision in a Pfaffian form")
    # P_lam * Pf^2 = alternant * Pf since length(lam) = face length
    return _alternant(xs, lam.parts) * _quotient_pfaffian(xs)


def _gamma_density(lam: Partition, xs, ys) -> Fraction:
    fc = lam.frobenius()
    return _alternant(xs, fc.p) * _alternant(ys, fc.q) * _cauchy(xs, ys)


# ---------------------------------------------------------------------------
# exact Selberg-type verification
# ---------------------------------------------------------------------------

_EXPANSION_CAP = 5


@dataclass(frozen=True)
class SelbergResult:
    graph: str
    lam: Partition
    mu: Partition
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _check_cap(l: int) -> None:
    """Bound the routes that expand permutations or perfect matchings."""
    if l > _EXPANSION_CAP:
        raise ValueError(
            f"face dimension {l} exceeds the permutation-expansion cap {_EXPANSION_CAP}"
        )


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _matchings(indices: list[int]):
    """Perfect matchings with Pfaffian signs over an even index list."""
    if not indices:
        yield 1, []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        partner = indices[k]
        rest = indices[1:k] + indices[k + 1 :]
        for sign, pairs in _matchings(rest):
            yield sign * (-1) ** (k - 1), [(first, partner)] + pairs


def _integrate_monomial_times_pfaffian(l: int, exponents) -> Fraction:
    """Unordered integral of x^exponents times the quotient Pfaffian.

    The Pfaffian of [(x_i - x_j)/(x_i + x_j)] (1-bordered if l is odd)
    expands over matchings into disjoint-pair denominators; each term
    then integrates in closed form.
    """
    size = l + (l % 2)
    total = Fraction(0)
    for msign, pairs in _matchings(list(range(size))):
        real_pairs = [(a, b) for a, b in pairs if a < l and b < l]
        # border pairs carry entry 1 and leave their real index unpaired
        stack = [(Fraction(msign), list(exponents), 0)]
        while stack:
            coef, exps, idx = stack.pop()
            if idx == len(real_pairs):
                total += coef * simplex_pair_integral(exps, real_pairs)
                continue
            a, b = real_pairs[idx]
            up = list(exps)
            up[a] += 1
            down = list(exps)
            down[b] += 1
            stack.append((coef, up, idx + 1))
            stack.append((-coef, down, idx + 1))
    return total


def _integrate_monomial_times_cauchy(p, q) -> Fraction:
    """Unordered integral of x^p y^q times det[1/(x_i + y_j)] over 2d variables.

    The Cauchy determinant expands over permutations into disjoint-pair
    denominators; each term then integrates in closed form.
    """
    d = len(p)
    exps = list(p) + list(q)
    total = Fraction(0)
    for perm in permutations(range(d)):
        pairs = [(i, d + perm[i]) for i in range(d)]
        total += _perm_sign(perm) * simplex_pair_integral(exps, pairs)
    return total


def selberg_rows(graph: str, lam: Partition, mus: list[Partition]) -> list[SelbergResult]:
    """Both sides, exactly, of the finite-face integral identity at lam, for each mu.

    The left side is the truncated-family harmonic value; the right side
    is the normalized face integral, computed exactly: two alternants
    integrate to one determinant of factorials, and an alternant against
    a Pfaffian or Cauchy factor keeps only its identity term, since the
    Dirichlet closed form is symmetric in the variables.  The family and
    the density constant are built once.  Shapes without an exact route are rejected.
    """
    spec, face = density_spec(graph, lam), FACES[graph]
    s = getattr(lam, face.stat)
    for mu in mus:
        if mu.size and not face.admits(mu, s):
            raise ValueError(f"no exact route for mu = {mu} at lambda = {lam} on the {graph} face")
    family, integral = face.selberg(lam, mus)
    return [SelbergResult(graph, lam, mu, family.phi(mu), spec.constant * integral(mu)) for mu in mus]


def selberg_verify(graph: str, lam: Partition, mu: Partition) -> SelbergResult:
    """The identity of `selberg_rows` at one mu."""
    return selberg_rows(graph, lam, [mu])[0]


def _alternant_integral(a, b) -> Fraction:
    """Unordered simplex integral of alt_a * alt_b over l!, alt_e = det[x_i^e_j]."""
    return Fraction(_factorial_det(a, b), factorial(len(a) + sum(a) + sum(b) - 1))


def _young_selberg(lam: Partition, mus: list[Partition]):
    l = lam.length
    a = _plus_staircase(lam, l)
    integral = lambda mu: _alternant_integral(_plus_staircase(mu, l), a)
    return TruncYoung(lam), integral


def _kingman_selberg(lam: Partition, mus: list[Partition]):
    l = lam.length
    _check_cap(l)
    arrangements = list(_distinct_perms(lam.parts))

    def integral(mu: Partition) -> Fraction:
        mu_pad = mu.parts + (0,) * (l - mu.length)
        # m_mu sums x^e over the l!/prod(r_v!) arrangements e of mu_pad; by
        # symmetry each integrates against m_lam to the value mu_pad gives
        arranged = ([a + b for a, b in zip(mu_pad, e)] for e in arrangements)
        total = sum(map(simplex_monomial_integral, arranged))
        return total / prod(factorial(mu_pad.count(v)) for v in set(mu_pad))

    return TruncKingman(lam), integral


def _schur_selberg(lam: Partition, mus: list[Partition]):
    l = lam.length

    def integral(mu: Partition) -> Fraction:
        if mu.length == l:
            # both alternants of full length; the squared Pfaffian cancels
            return _alternant_integral(mu.parts, lam.parts)
        # mu = (): each term of alt_lam integrates against the Pfaffian like the first
        _check_cap(l)
        return _integrate_monomial_times_pfaffian(l, lam.parts)

    return TruncSchur(lam), integral


def _gamma_selberg(lam: Partition, mus: list[Partition]):
    fc = lam.frobenius()
    d = fc.depth
    # the generator values up to degree |mu| do not depend on the cap
    family = GammaShaped(fc, degree_cap=max([1, *(mu.size for mu in mus)]))

    def integral(mu: Partition) -> Fraction:
        if mu.depth == d:
            # the Cauchy factors cancel; one alternant pair per coordinate block
            mf = mu.frobenius()
            size = sum(mf.p) + sum(mf.q) + sum(fc.p) + sum(fc.q)
            dets = _factorial_det(mf.p, fc.p) * _factorial_det(mf.q, fc.q)
            return Fraction(dets, factorial(2 * d + size - 1))
        # mu = (): each term of either alternant integrates against the Cauchy factor like the first
        _check_cap(d)
        return _integrate_monomial_times_cauchy(fc.p, fc.q)

    return family, integral


# ---------------------------------------------------------------------------
# boundary kernels
# ---------------------------------------------------------------------------

def young_h_series(omega: ThomaPoint, order: int) -> Poly:
    """h_0 .. h_{order-1} at a finite-support point, from exp(gamma*u) *
    prod(1 + beta_i u) / prod(1 - alpha_i u); truncation leaves the lower
    coefficients unchanged, so order N + 1 serves every |mu| <= N."""
    series: Poly = exp_series(omega.gamma, order)
    for b in omega.beta:
        series = series_mul(series, [Fraction(1), b], order)
    for a in omega.alpha:
        series = series_mul(series, geometric_series(a, order), order)
    return series


def young_kernel(mu: Partition, omega: ThomaPoint) -> Fraction:
    """Extreme-point kernel on the Young graph at a finite-support point:
    the Jacobi-Trudi determinant in the point's complete homogeneous values."""
    return jacobi_trudi(mu, young_h_series(omega, mu.size + 1))


def kingman_kernel(mu: Partition, omega: ThomaPoint) -> Fraction:
    """Extended monomial kernel on the Kingman graph, the sum over k <= r_1(mu) of
    gamma^k/k! m_nu(alpha), nu = mu less k parts 1: at (alpha, gamma) = (X, G)/Q
    each term has degree |mu|, so it is sum G^k (r_1!/k!) m_nu(X) over r_1! Q^|mu|."""
    if omega.beta:
        raise ValueError("kingman boundary points carry no beta coordinates")
    r1 = mu.multiplicity(1)
    rest = [p for p in mu.parts if p != 1]
    (*xs, g), q = integer_point((*omega.alpha, omega.gamma))
    total = 0
    for k in range(r1 + 1):
        nu = Partition(rest + [1] * (r1 - k))
        total += g**k * perm(r1, r1 - k) * _permutation_sum(nu, xs, pow)
    return Fraction(total, factorial(r1) * q**mu.size)


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    support_size: int
    mass_is_one: bool
    interior_points: int
    max_ratio_error: Fraction  # binary floats, as dyadic rationals
    binned_distance: Fraction


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    rows: tuple[ConvergenceRow, ...]
    ratio_tolerance: float

    def ratio_ok(self, row: ConvergenceRow) -> bool:
        """The pointwise ratio is within tolerance, or the row has no interior point."""
        return row.max_ratio_error <= self.ratio_tolerance or row.interior_points == 0

    @property
    def distances_decreasing(self) -> bool:
        ds = [row.binned_distance for row in self.rows]
        return all(ds[i + 1] < ds[i] for i in range(len(ds) - 1))


def convergence_experiment(
    family: HarmonicFamily,
    n_values,
    resolution: int = 20,
    interior_fraction: Fraction = Fraction(1, 4),
    ratio_tolerance: float = 0.05,
) -> ConvergenceReport:
    """Compare exact level measures against the limiting face density.

    For each n: checks the exact unit mass, the pointwise ratio
    measure * n^(face_dim - 1) / density on interior vertices, and a
    binned total-variation-style distance on width-2 faces.  Interior
    means every row at least interior_fraction * n and consecutive rows
    separated by at least interior_fraction * n; near the diagonal the
    density degenerates (squared Vandermonde) and the pointwise ratio
    has no limit, so those vertices are excluded from the ratio check.
    """
    if family.face is None:
        raise ValueError("convergence experiments need a truncated family")
    face = FACES[family.face]
    spec = density_spec(family.face, family.lam)
    l, interior_fraction = spec.face_dim, as_rational(interior_fraction)
    # the binned distance integrates the density polynomial of a width-2 face
    # over the bins [(r + i)/2r, (r + i + 1)/2r) of alpha_1 in [1/2, 1]
    binned = l == 2 and face.polynomial is not None
    if binned:
        anti = poly_integral(poly_scale(face.polynomial(spec.lam), spec.constant))
        edges = [poly_eval(anti, Fraction(resolution + i, 2 * resolution)) for i in range(resolution + 1)]
        exact_bins = [right - left for left, right in zip(edges, edges[1:])]
    rows = []
    for n in sorted(int(n) for n in n_values):
        scale, values = face.level_weights(family, n)
        # M_n = unit * w on the support, each w an integer over one denominator
        den = lcm(*(v.denominator for _, v in values))
        support = [(nu, v.numerator * (den // v.denominator)) for nu, v in values if v]
        unit = scale / den
        # every vertex embeds over one q, so M_n n^(l-1) / density at X/q is k w / F(X);
        # |ratio - 1| is kept as an integer numerator and denominator: the maximum is exact
        q = face.embed(support[0][0], n)[1]
        k = unit * n ** (l - 1) * Fraction(q) ** face.degree(spec.lam) / spec.constant
        err, err_den = 0, 1
        interior = 0
        bins = [0] * resolution
        gap = interior_fraction.numerator * n
        for nu, w in support:
            xs, _, blocks = face.embed(nu, n)
            if binned:
                i = 2 * resolution * xs[0][0] // q - resolution
                bins[min(i, resolution - 1)] += w
            if sum(map(len, blocks)) == l and _rows_separated(blocks, gap, interior_fraction.denominator):
                form = face.density(spec.lam, *xs)
                if form > 0:
                    a = k.denominator * form.numerator
                    e = abs(k.numerator * w * form.denominator - a)
                    if e * err_den > err * a:
                        err, err_den = e, a
                    interior += 1
        distance = Fraction(0)
        if binned:
            distance = sum((abs(unit * c - b) for c, b in zip(bins, exact_bins)), Fraction(0))
        rows.append(
            ConvergenceRow(
                n=n,
                support_size=len(support),
                mass_is_one=unit * sum(w for _, w in support) == 1,
                interior_points=interior,
                # rounded to exact.DEFAULT_PRECISION bits (round_bits' default, the
                # precision format_bigfloat tags) and then to 53: the ratio error the
                # recorded converge reports print (an mpf made at 128 bits whose abs()
                # ran at mpmath's default 53); the distance is a true 128-bit float
                max_ratio_error=round_bits(round_bits(Fraction(err, err_den)), 53),
                binned_distance=round_bits(distance),
            )
        )
    return ConvergenceReport(family.spec_string(), tuple(rows), ratio_tolerance)


def _rows_separated(blocks, gap: int, q: int) -> bool:
    """Interior test for blocks that fill the face, at gap = p n for the fraction p/q:
    each block ends at an x with q x >= gap and has consecutive differences d with q d >= gap
    (the density degenerates at coordinate collisions, so those carry no pointwise limit)."""
    return all(
        block and q * block[-1] >= gap and all(q * (a - b) >= gap for a, b in zip(block, block[1:]))
        for block in blocks
    )


# The level measure of a truncated family on its face, as a scale and one value per
# level-n vertex of width at most l: M_n(nu) = scale * value.  Docstrings write (x)_k for
# the rising factorial, V(x) = prod_{i<j} (x_i - x_j), l for the face width, and pad
# nu with zeros to length l.

def _level_constant(family: HarmonicFamily, n: int) -> Fraction:
    """On the young and kingman faces t is a positive integer, so the
    per-level constant c_n = n!/(t)_n = (t-1)!/(n+1)_(t-1) is a small
    fraction and every weight is c_n times a small integer; no factorial
    of n forms."""
    t = int(family.t)
    return factorial(t - 1) / pochhammer(n + 1, t - 1)


def _young_weights(family: TruncYoung, n: int) -> tuple[Fraction, list[tuple[Partition, int]]]:
    """With A_i = lam_i + l - i and B_j = nu_j + l - j,
    M_n(nu) = c_n V(B) det[(B_j + 1)_(A_i)] / (V(A) prod_i A_i!),
    the falling-factorial bialternant of s* at the reflected point
    times dim(nu), column j divided by B_j!; the signs cancel to +1.
    The matrix entries over A_i! are the binomials C(A_i + B_j, A_i), so
    the scale is c_n / V(A) and each value an integer."""
    a = _plus_staircase(family.lam, family.width)
    values = []
    for nu in level(n, family.kind, max_length=family.width):
        b = _plus_staircase(nu, len(a))
        weight = _vandermonde(b) * integer_det([[comb(ai + bj, ai) for bj in b] for ai in a])
        values.append((nu, weight))
    return _level_constant(family, n) / _vandermonde(a), values


def _kingman_weights(family: TruncKingman, n: int) -> tuple[Fraction, list[tuple[Partition, int]]]:
    """M_n(nu) = c_n sum_sigma prod_i (nu_sigma(i) + 1)_(lam_i) / lam_i!, over the
    distinct arrangements sigma of nu; each factor is the binomial C(lam_i + nu_sigma(i), lam_i),
    so the scale is c_n and each value an integer."""
    lam, values = family.lam, []
    for nu in level(n, family.kind, max_length=family.width):
        padded = nu.parts + (0,) * (lam.length - nu.length)
        arranged = (zip(lam.parts, e) for e in _distinct_perms(padded))
        values.append((nu, sum(prod(comb(p + e, p) for p, e in pairs) for pairs in arranged)))
    return _level_constant(family, n), values


def _schur_weights(family: TruncSchur, n: int) -> tuple[Fraction, list[tuple[Partition, Fraction]]]:
    """M_n(nu) = dim_closed_form(nu) value(nu) (-1)^n / (t)_n."""
    vertices = level(n, family.kind, max_length=family.width)
    values = [(nu, dim_closed_form(nu, family.kind) * family.value(nu)) for nu in vertices]
    return (-1) ** n / pochhammer(family.t, n), values


def _gamma_weights(family: GammaShaped, n: int) -> tuple[Fraction, list[tuple[Partition, Fraction]]]:
    """The level measure, up to the family's degree cap."""
    if n > family.degree_cap:
        raise ValueError(
            f"level {n} exceeds the family degree cap {family.degree_cap}; raise degree_cap"
        )
    return Fraction(1), list(level_measure(family, n).weights)


def _embed_hooks(nu: Partition, n: int):
    """The split-diagonal point ((2P + 1; 2Q + 1) over 2n), and the Frobenius
    coordinates as its blocks."""
    fc = nu.frobenius()
    return [[2 * p + 1 for p in fc.p], [2 * q + 1 for q in fc.q]], 2 * n, [fc.p, fc.q]


def _width2_monomial(e1: int, e2: int) -> Poly:
    """alpha_1^e1 alpha_2^e2 on the width-2 face, alpha_2 = 1 - alpha_1, in alpha_1."""
    return [Fraction(0)] * e1 + [Fraction((-1) ** k * comb(e2, k)) for k in range(e2 + 1)]


def _young_polynomial(lam: Partition) -> Poly:
    e1, e2 = lam.part(1) + 1, lam.part(2)
    alternant = poly_sub(_width2_monomial(e1, e2), _width2_monomial(e2, e1))
    return poly_mul(alternant, [Fraction(-1), Fraction(2)])  # times alpha_1 - alpha_2


# ---------------------------------------------------------------------------
# the face table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """One boundary face, each per-face quantity a plain function.  A point has
    `blocks` coordinate tuples (alpha; or alpha, beta) of stat(lam) each, so the
    width is blocks * stat(lam).  The defaults describe a face of rows."""

    accepts: Callable[[Partition], bool]  # lam has a density on the face; if not, ...
    needs: str  # ... the error says the face needs this
    constant: Callable[[Partition], Fraction]
    # (lam, *integer blocks X) -> F(X), the density over its constant at X/Q times Q^degree(lam)
    density: Callable[..., int | Fraction]
    degree: Callable[[Partition], int]  # F is homogeneous of this degree
    level_weights: Callable  # (family, n) -> (scale, [(nu, value)]), M_n(nu) = scale * value
    selberg: Callable  # (lam, mus) -> (family, normalized face integral of each mu)
    sweep: tuple[int, ...]  # the Selberg sweep's values of stat(lam), ...
    admits: Callable[[Partition, int], bool]  # ... and each mu != () with an exact route at stat(lam)
    blocks: int = 1
    stat: str = "length"  # a Partition attribute
    # (nu, n) -> (blocks X, level denominator Q, interior-test blocks), nu at X/Q; here nu/n
    embed: Callable = lambda nu, n: ([nu.parts], n, [nu.parts])
    polynomial: Callable[[Partition], Poly] | None = None  # width-2 density over its constant


FACES: dict[str, Face] = {
    "young": Face(
        accepts=lambda lam: lam.length >= 2, needs="length >= 2", constant=young_density_constant,
        # s_lam * V^2 = alternant * V, which also holds at coordinate collisions
        density=lambda lam, xs: _alternant(xs, _plus_staircase(lam, len(xs))) * _vandermonde(xs),
        degree=lambda lam: lam.size + lam.length * (lam.length - 1),
        level_weights=_young_weights, selberg=_young_selberg,
        sweep=(2, 3), admits=lambda mu, s: mu.length <= s, polynomial=_young_polynomial,
    ),
    "kingman": Face(
        accepts=lambda lam: lam.length >= 1, needs="a nonempty partition",
        constant=kingman_density_constant, degree=lambda lam: lam.size,
        density=lambda lam, xs: _permutation_sum(lam, xs, pow),  # m_lam
        level_weights=_kingman_weights, selberg=_kingman_selberg,
        sweep=(1, 2, 3), admits=lambda mu, s: mu.length <= s,
        # m_lam at (alpha_1, 1 - alpha_1)
        polynomial=lambda lam: reduce(poly_add, (_width2_monomial(*e) for e in _distinct_perms(lam.parts))),
    ),
    "schur": Face(
        accepts=lambda lam: lam.is_strict and lam.length >= 1, needs="a nonempty strict partition",
        constant=schur_density_constant, density=_schur_density, degree=lambda lam: lam.size,
        level_weights=_schur_weights, selberg=_schur_selberg,
        sweep=(2, 3), admits=lambda mu, s: mu.is_strict and mu.length == s,
    ),
    "gamma": Face(
        accepts=lambda lam: lam.depth >= 1, needs="depth >= 1",
        # sum(p) + sum(q) - depth
        constant=gamma_density_constant, density=_gamma_density, degree=lambda lam: lam.size - 2 * lam.depth,
        level_weights=_gamma_weights, selberg=_gamma_selberg,
        sweep=(1, 2), admits=lambda mu, s: mu.depth == s, blocks=2, stat="depth", embed=_embed_hooks,
    ),
}
