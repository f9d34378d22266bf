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
* a monomial against the leftover quotient Pfaffian or Cauchy determinant
  integrates by de Bruijn's formula (1955): each matching or permutation
  term factors over its disjoint pairs over the same (N + sum(e) - 1)!, so
  the integral is one Pfaffian or determinant of per-pair integrals;
* m_mu against m_lam sums the Dirichlet values of mu + f over the
  arrangements f of lam, and prod(mu_i + f_i)! = prod(mu_i!) prod (mu_i + 1)_(f_i),
  so the sum is m_lam at mu + 1 in rising powers, one `monomial_tables` closure
  of lam (prod(r_v + 1) entries, one pass per coordinate); the kingman level
  weight at nu is that same sum at nu over `_orders`(nu).

No face is capped, and each μ = ∅ mass-one row sets a density constant in
closed form against the integral by another route: on young the product
(|λ| + l² − 1)! / (prod A_i! V(A)), A = λ + δ, against Andreief's
determinant; on kingman (|λ| + l − 1)! prod r_v! / prod λ_i! against the
monomial table; on schur Schur's product (`quotient_pfaffian`) against de
Bruijn's Pfaffian; on gamma Cauchy's product against de Bruijn's
determinant.  The truncated family and the density constant depend on λ
alone, so `selberg_rows` builds them once per λ; the kernel tables likewise
clear a Thoma point once for every μ.

Each face (young, kingman, schur, gamma) is one `Face` record in the
`FACES` table, keyed by the `face` string of its truncated family: that
family, whose λ check and statistic it reads, and the face's density,
vertex embedding, level weights, Selberg setup and sweep, and width-2
density polynomial.  A density is the constant times
F(X) / Q^degree(λ) at a point X/Q, F one form on the integer numerators, so
`convergence_experiment` needs one rational scale per level.  A face's level
weights are a stream of runs (start, length, diffs): the vertices start,
start + e_l − e_(l−1), ..., and the forward differences of their values at
start.  On the young and kingman faces a run is one prefix ν_1 ... ν_(l-2) of
`partitions.level_runs`, and F and the level weight are polynomials of
degree(λ) along it, so a level's mass and its width-2 bins are closed-form run
sums, and the interior test, linear in the run index, selects one interval,
the only place where weights and forms are walked vertex by vertex (the
kingman weight's `_orders`(nu) is the prefix's only inside a run, so that face
parts each run's first and last vertex off as runs of one).  On the schur and
gamma faces each vertex is a run of one, read by the same loop.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exact import RationalMatrix, as_rational, det, integer_det, integer_point, pfaffian, pochhammer
from .exact import quotient_pfaffian, round_bits
from .graphs import dim_closed_form, level
from .harmonic import (
    GammaShaped,
    HarmonicFamily,
    TruncKingman,
    TruncSchur,
    TruncYoung,
)
from .interp import complete_numerators, jacobi_trudi_det, monomial_tables
from .partitions import Partition, _orders, level_runs
from .series import Poly, poly_add, poly_eval, poly_integral, poly_mul, poly_scale, poly_sub


# ---------------------------------------------------------------------------
# boundary points
# ---------------------------------------------------------------------------

class ThomaPoint(namedtuple("ThomaPoint", "alpha beta")):
    """A finite-support boundary point: two ordered nonnegative lists."""

    __slots__ = ()

    def __new__(cls, alpha, beta=()):
        alpha = tuple(as_rational(a) for a in alpha)
        beta = tuple(as_rational(b) for b in beta)
        for seq in (alpha, beta):
            if any(x < 0 for x in seq):
                raise ValueError("coordinates must be nonnegative")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("coordinates must be nonincreasing")
        if sum(alpha) + sum(beta) > 1:
            raise ValueError("coordinate sums must not exceed 1")
        return super().__new__(cls, alpha, beta)

    @property
    def gamma(self) -> Fraction:
        return 1 - sum(self.alpha, Fraction(0)) - sum(self.beta, Fraction(0))


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


def _vandermonde(values) -> int:
    """prod_{i<j} (v_i - v_j) on integers."""
    n = len(values)
    return prod(values[i] - values[j] for i in range(n) for j in range(i + 1, n))


def young_density_constant(lam: Partition) -> Fraction:
    # with A = lam + delta, the mass det[(A_i + delta_j)!] is prod(A_i!) det[(A_i + 1)_(delta_j)],
    # and that determinant is V(A)
    a = _plus_staircase(lam, lam.length)
    return Fraction(factorial(lam.size + lam.length**2 - 1), prod(map(factorial, a)) * _vandermonde(a))


def _alternant(xs, exponents) -> int:
    """det[x_i^(e_j)] on integer coordinates, homogeneous of degree sum(e)."""
    return integer_det([[x**e for e in exponents] for x in xs])


def _cauchy(xs, ys) -> Fraction:
    """det[1/(x_i + y_j)] = V(x) V(y) / prod(x_i + y_j) by Cauchy's evaluation,
    homogeneous of degree -len(x); x_i + y_j = 0 raises ZeroDivisionError."""
    return Fraction(_vandermonde(xs) * _vandermonde(ys), prod(x + y for x in xs for y in ys))


def schur_density_constant(lam: Partition) -> Fraction:
    num, den = quotient_pfaffian([p + 1 for p in lam.parts])  # (lam_i - lam_j)/(lam_i + lam_j + 2)
    return Fraction(factorial(lam.size + lam.length - 1) * den, prod(map(factorial, lam.parts)) * num)


def kingman_density_constant(lam: Partition) -> Fraction:
    orders = _orders(lam.parts)
    return Fraction(factorial(lam.size + lam.length - 1) * orders, prod(map(factorial, lam.parts)))


def gamma_density_constant(lam: Partition) -> Fraction:
    fc = lam.frobenius()
    hooks = prod(factorial(p) * factorial(q) for p, q in zip(fc.p, fc.q))
    return factorial(lam.size - 1) / (_cauchy([p + 1 for p in fc.p], fc.q) * hooks)


class DensitySpec(NamedTuple):
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
    if not face.family.accepts(lam):
        raise ValueError(f"{graph} face needs {face.family.needs}")
    return DensitySpec(graph, lam, face.constant(lam), face.blocks * getattr(lam, face.family.stat))


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
    want, got = [getattr(spec.lam, face.family.stat)] * face.blocks, [len(b) for b in blocks]
    if got != want:
        shape, given = (";".join(map(str, counts)) for counts in (want, got))
        raise ValueError(f"the {spec.graph} face has {shape} coordinates, got {given}")
    xs, q = integer_point(sum(blocks, ()))
    return spec.constant * face.density(spec.lam)(xs) / Fraction(q) ** face.degree(spec.lam)


def _young_density(lam: Partition):
    a = _plus_staircase(lam, lam.length)
    # s_lam * V^2 = alternant * V, which also holds at coordinate collisions
    return lambda xs: _alternant(xs, a) * _vandermonde(xs)


def _kingman_density(lam: Partition):
    table = monomial_tables([lam])  # one closure for every point
    return lambda xs: table(xs, 0)[lam.parts]  # m_lam


def _schur_density(lam: Partition, xs) -> Fraction:
    if len(set(xs)) != len(xs):
        raise ValueError("coordinate collision in a Pfaffian form")
    # P_lam * Pf^2 = alternant * Pf since length(lam) = face length; Pf is homogeneous of degree 0
    num, den = quotient_pfaffian(xs)
    return Fraction(_alternant(xs, lam.parts) * num, den)


def _gamma_density(lam: Partition):
    fc, d = lam.frobenius(), lam.depth  # a point is the alpha block, then the beta block
    return lambda x: _alternant(x[:d], fc.p) * _alternant(x[d:], fc.q) * _cauchy(x[:d], x[d:])


# ---------------------------------------------------------------------------
# exact Selberg-type verification
# ---------------------------------------------------------------------------

class SelbergResult(NamedTuple):
    graph: str
    lam: Partition
    mu: Partition
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _integrate_monomial_times_pfaffian(l: int, exponents) -> Fraction:
    """Unordered integral of x^exponents times Pf[(x_i - x_j)/(x_i + x_j)] (1-bordered
    if l is odd), by de Bruijn: a pair a, b of a matching integrates to
    e_a! e_b! (e_a - e_b)/(e_a + e_b + 2) and a bordered index to e_a!, over the
    (l + sum(e) - 1)! common to every matching, so the sum is one Pfaffian."""
    e, f = list(exponents), [factorial(x) for x in exponents]
    w = [[Fraction(f[i] * f[j] * (e[i] - e[j]), e[i] + e[j] + 2) for j in range(l)] for i in range(l)]
    if l % 2:
        w = [row + [fi] for row, fi in zip(w, f)] + [[-fi for fi in f] + [0]]
    return pfaffian(RationalMatrix(w)) / factorial(l + sum(e) - 1)


def _integrate_monomial_times_cauchy(p, q) -> Fraction:
    """Unordered integral of x^p y^q times det[1/(x_i + y_j)] over 2d variables, by
    de Bruijn: a pair x_i, y_j of a permutation integrates to p_i! q_j!/(p_i + q_j + 1),
    over the (d + sum(p) + sum(q) - 1)! common to every permutation."""
    rows = [[Fraction(factorial(a) * factorial(b), a + b + 1) for b in q] for a in p]
    return det(RationalMatrix(rows)) / factorial(len(p) + sum(p) + sum(q) - 1)


def selberg_rows(graph: str, lam: Partition, mus: list[Partition]) -> list[SelbergResult]:
    """Both sides, exactly, of the finite-face integral identity at lam, for each mu.

    The left side is the truncated-family harmonic value; the right side
    is the normalized face integral, computed exactly: two alternants
    integrate to one determinant of factorials, and an alternant against
    a Pfaffian or Cauchy factor keeps only its identity term, since the
    Dirichlet closed form is symmetric in the variables; that term is one
    Pfaffian or determinant by de Bruijn's formula.  On the kingman face m_mu
    against m_lam is m_lam in rising powers at mu + 1, read from one monomial table
    of lam.  So at mu = () each face checks its constant's closed product against an
    elimination (young, schur, gamma) or that table (kingman).  The family and the
    density constant are built once, and the family's level form reads the mus of
    each size at once, with no dims or edges.  Shapes without an exact route are
    rejected; no face is capped.
    """
    spec, face = density_spec(graph, lam), FACES[graph]
    s = getattr(lam, face.family.stat)
    by_size: dict[int, list[int]] = {}  # the indices of the mus of each size
    for i, mu in enumerate(mus):
        if mu.size and not face.admits(mu, s):
            raise ValueError(f"no exact route for mu = {mu} at lambda = {lam} on the {graph} face")
        by_size.setdefault(mu.size, []).append(i)
    family, integral = face.selberg(lam, mus)
    phi = {}
    for n, at in by_size.items():
        xs, q = family.level_phi(n, [(mus[i], None, ()) for i in at])
        phi.update((i, Fraction(x, q)) for i, x in zip(at, xs))
    return [SelbergResult(graph, lam, mu, phi[i], spec.constant * integral(mu)) for i, mu in enumerate(mus)]


def selberg_verify(graph: str, lam: Partition, mu: Partition) -> SelbergResult:
    """The identity of `selberg_rows` at one mu."""
    return selberg_rows(graph, lam, [mu])[0]


def _alternant_integral(*pairs) -> Fraction:
    """Unordered simplex integral of prod alt_a * alt_b over the pairs (a, b), each pair on
    variables of its own, over l! per pair, alt_e = det[x_i^e_j]: by Andreief one
    det[(a_i + b_j)!] per pair over the (N + sum of every exponent - 1)! common to them."""
    size, dets = -1, 1
    for a, b in pairs:
        size += len(a) + sum(a) + sum(b)
        dets *= _factorial_det(a, b)
    return Fraction(dets, factorial(size))


def _young_selberg(lam: Partition, mus: list[Partition]):
    l = lam.length
    a = _plus_staircase(lam, l)
    integral = lambda mu: _alternant_integral((_plus_staircase(mu, l), a))
    return TruncYoung(lam), integral


def _kingman_rising(lam: Partition) -> Callable[[Sequence[int]], int]:
    """e -> m_lam(e + 1) in rising powers, prod_i (e_i + 1)_(f_i) summed over the arrangements f
    of lam: the kingman face's Dirichlet sum, which its Selberg integral and level weights read,
    from one `monomial_tables` closure of lam (prod(r_v + 1) entries, one pass per coordinate)."""
    table = monomial_tables([lam])
    return lambda e: table([x + 1 for x in e], -1)[lam.parts]


def _kingman_selberg(lam: Partition, mus: list[Partition]):
    l = lam.length
    rising = _kingman_rising(lam)  # one closure for every mu

    def integral(mu: Partition) -> Fraction:
        mu_pad = mu.parts + (0,) * (l - mu.length)
        # m_mu sums x^e over the l!/prod(r_v!) arrangements e of mu_pad; by symmetry each
        # integrates against m_lam to the value mu_pad gives: prod(mu_i!) m_lam(mu_pad + 1) in
        # rising powers over (l + |mu| + |lam| - 1)!
        order = factorial(l + mu.size + lam.size - 1) * _orders(mu_pad)
        return Fraction(prod(map(factorial, mu.parts)) * rising(mu_pad), order)

    return TruncKingman(lam), integral


def _schur_selberg(lam: Partition, mus: list[Partition]):
    l = lam.length

    def integral(mu: Partition) -> Fraction:
        if mu.length == l:
            # both alternants of full length; the squared Pfaffian cancels
            return _alternant_integral((mu.parts, lam.parts))
        # mu = (): each term of alt_lam integrates against the Pfaffian like the first,
        # and that one is a Pfaffian of pair integrals
        return _integrate_monomial_times_pfaffian(l, lam.parts)

    return TruncSchur(lam), integral


def _gamma_selberg(lam: Partition, mus: list[Partition]):
    fc, d = lam.frobenius(), lam.depth
    # the generator values up to degree |mu| do not depend on the cap
    family = GammaShaped(lam, degree_cap=max([1, *(mu.size for mu in mus)]))

    def integral(mu: Partition) -> Fraction:
        if mu.depth == d:
            # the Cauchy factors cancel; one alternant pair per coordinate block
            mf = mu.frobenius()
            return _alternant_integral((mf.p, fc.p), (mf.q, fc.q))
        # mu = (): each term of either alternant integrates against the Cauchy factor like
        # the first, and that one is a determinant of pair integrals
        return _integrate_monomial_times_cauchy(fc.p, fc.q)

    return family, integral


# ---------------------------------------------------------------------------
# boundary kernels
# ---------------------------------------------------------------------------

def young_kernel_table(
    omega: ThomaPoint, shapes: Sequence[Partition]
) -> tuple[dict[Partition, int], int, int]:
    """Extreme-point kernels s_mu(omega) on the Young graph for every mu in shapes,
    as (numerators, scale, constant): s_mu is numerators[mu] over constant * scale^|mu|,
    so one level's kernels share one denominator.  Each is the Jacobi-Trudi determinant
    in h_k, the coefficients of exp(gamma u) prod(1 + beta_i u) / prod(1 - alpha_i u).

    At (alpha; beta; gamma) = (A; B; G)/Q, with P the integer series of
    prod(1 + B_i u) / prod(1 - A_i u), h_k = sum_j G^j P_(k-j) / (j! Q^k).  With
    F = N!, N the largest |mu|, h_k is the integer sum_j (F^k / j!) G^j P_(k-j)
    over (F Q)^k, so each s_mu is one integer determinant over (F Q)^|mu|.
    """
    top = max((mu.size for mu in shapes), default=0)
    (*xs, g), q = integer_point((*omega.alpha, *omega.beta, omega.gamma))
    p = complete_numerators(xs[: len(omega.alpha)], top, xs[len(omega.alpha) :])
    f = factorial(top)
    h = [sum(f**k // factorial(j) * g**j * p[k - j] for j in range(k + 1)) for k in range(top + 1)]
    columns = [h] * max((mu.length for mu in shapes), default=0)
    return {mu: jacobi_trudi_det(mu, columns) for mu in shapes}, f * q, 1


def kingman_kernel_table(
    omegas: Iterable[ThomaPoint], shapes: Sequence[Partition]
) -> Iterator[tuple[dict[Partition, int], int, int]]:
    """Extended monomial kernels on the Kingman graph, as in `young_kernel_table`, one table
    per point of omegas: sum_k gamma^k/k! m_nu(alpha) over k <= r_1(mu), nu = mu less k parts
    1.  At (alpha, gamma) = (X, G)/Q, with F = r! for r the largest r_1(mu), that is sum_k
    G^k (F/k!) m_nu(X) over F Q^|mu|, each m_nu(X) read from the point's `monomial_tables` m."""
    table = monomial_tables(shapes)
    f = factorial(max((mu.multiplicity(1) for mu in shapes), default=0))
    for omega in omegas:
        if omega.beta:
            raise ValueError("kingman boundary points carry no beta coordinates")
        (*xs, g), q = integer_point((*omega.alpha, omega.gamma))
        m = table(xs, 0)
        numerators = {}
        for mu in shapes:
            ks = range(mu.multiplicity(1) + 1)  # the parts 1 come last
            numerators[mu] = sum(g**k * (f // factorial(k)) * m[mu.parts[: mu.length - k]] for k in ks)
        yield numerators, q, f


def young_kernel(mu: Partition, omega: ThomaPoint) -> Fraction:
    """The Young kernel of one mu: the one-mu case of `young_kernel_table`."""
    numerators, scale, constant = young_kernel_table(omega, [mu])
    return Fraction(numerators[mu], constant * scale**mu.size)


def kingman_kernel(mu: Partition, omega: ThomaPoint) -> Fraction:
    """The Kingman kernel of one mu: the one-mu case of `kingman_kernel_table`."""
    [(numerators, scale, constant)] = kingman_kernel_table([omega], [mu])
    return Fraction(numerators[mu], constant * scale**mu.size)


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------

class ConvergenceRow(NamedTuple):
    n: int
    support_size: int
    mass_is_one: bool
    interior_points: int
    max_ratio_error: Fraction  # binary floats, as dyadic rationals
    binned_distance: Fraction


class ConvergenceReport(NamedTuple):
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
    interior_fraction: Fraction = Fraction(1, 5),
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
    Each level is read as the face's runs, one at a time: the mass and the
    bins are closed-form run sums, and only the interior interval of a run
    is walked vertex by vertex.
    """
    if family.face is None:
        raise ValueError("convergence experiments need a truncated family")
    face = FACES[family.face]
    spec = density_spec(family.face, family.lam)
    l, interior_fraction = spec.face_dim, as_rational(interior_fraction)
    degree, form = face.degree(spec.lam), face.density(spec.lam)
    # the binned distance integrates the density polynomial of a width-2 face
    # over the bins [(r + i)/2r, (r + i + 1)/2r) of alpha_1 in [1/2, 1]
    binned = l == 2 and face.polynomial is not None
    if binned:
        anti = poly_integral(poly_scale(face.polynomial(spec.lam), spec.constant))
        edges = [poly_eval(anti, Fraction(resolution + i, 2 * resolution)) for i in range(resolution + 1)]
        exact_bins = [right - left for left, right in zip(edges, edges[1:])]
    rows = []
    for n in sorted(int(n) for n in n_values):
        # M_n = scale * v on each vertex; every vertex embeds over one q, so
        # M_n n^(l-1) / density at X/q is k v / F(X); |ratio - 1| is kept as an
        # integer numerator and denominator: the maximum is exact
        scale, runs = face.level_weights(family, n)
        q = face.embed((), n)[1]
        k = scale * n ** (l - 1) * Fraction(q) ** degree / spec.constant
        gap = -(-interior_fraction.numerator * n // interior_fraction.denominator)  # the least x >= fraction * n
        # bin i holds the vertices whose first coordinate x has lows[i] <= x < lows[i + 1]
        lows = [-(-(resolution + i) * q // (2 * resolution)) for i in range(resolution)]
        bins = [0] * resolution
        support = total = interior = err = 0
        err_den = 1
        for start, m, diffs in runs:
            support += m if diffs[0] else 0  # a run carries mass at every vertex or at none
            total += _run_sum(diffs, m)
            xs, _, blocks = face.embed(start, n)
            if binned:  # at width 2 the first coordinate is xs[0] - j: each bin is one interval of the run
                sums = [_run_sum(diffs, min(max(xs[0] - x + 1, 0), m)) for x in lows] + [0]
                bins = [c + a - b for c, a, b in zip(bins, sums, sums[1:])]
            inner = _interior(blocks, gap, m) if sum(map(len, blocks)) == l else range(0)
            forms = _differences(form(_step(xs, j)) for j in inner[: len(diffs)])
            for _, w, f in zip(inner, _walk(diffs, inner.start), _walk(forms, 0)):
                if f > 0:
                    a = k.denominator * f.numerator
                    e = abs(k.numerator * w * f.denominator - a)
                    if e * err_den > err * a:
                        err, err_den = e, a
                    interior += 1
        distance = Fraction(0)
        if binned:
            distance = sum((abs(scale * c - b) for c, b in zip(bins, exact_bins)), Fraction(0))
        rows.append(
            ConvergenceRow(
                n=n,
                support_size=support,
                mass_is_one=scale * total == 1,
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


def _step(p, j: int) -> tuple[int, ...]:
    """The j-th vertex of the run from p: p + j (e_l - e_(l-1))."""
    return (*p[:-2], p[-2] - j, p[-1] + j) if j else p


def _differences(values) -> list:
    """Delta^k f(0) for k < len(values), from the values f(0), f(1), ...."""
    out = list(values)
    for k in range(1, len(out)):
        out[k:] = map(sub, out[k:], out[k - 1 : -1])
    return out


def _jump(diffs, s: int) -> list:
    """Delta^k f(s) = sum_i C(s, i) Delta^(k + i) f(0) for k < len(diffs): exact at every
    s < len(diffs), and everywhere when f has degree below len(diffs)."""
    binomials = [comb(s, i) for i in range(len(diffs))]
    return [sum(map(mul, binomials, diffs[k:])) for k in range(len(diffs))]


def _walk(diffs, s: int) -> Iterator:
    """f(s), f(s + 1), ..., one add per difference per step."""
    column = _jump(diffs, s)[::-1]  # Delta^K f(x) down to f(x), at the current x
    while True:
        yield column[-1]
        column = [column[0], *map(add, column[1:], column)]  # Delta^i f(x + 1) = Delta^i f(x) + Delta^(i+1) f(x)


def _run_sum(diffs, e: int) -> int:
    """f(0) + ... + f(e - 1) = sum_k Delta^k f(0) C(e, k + 1)."""
    return sum(d * comb(e, k) for k, d in enumerate(diffs, 1))


def run_vertices(runs: Iterable[tuple]) -> Iterator[tuple[Partition, int]]:
    """Each vertex of the runs, as a partition, with its value, in level order."""
    for start, m, diffs in runs:
        for j, v in zip(range(m), _walk(diffs, 0)):
            yield Partition._trusted(tuple(filter(None, _step(start, j)))), v


def _interior(blocks, gap: int, m: int) -> range:
    """The indices j < m of a run at which each block ends at gap or above and falls by gap or
    more from each coordinate to the next (the density degenerates at coordinate collisions, so
    those carry no pointwise limit).  Along a run of more than one vertex, which has one block,
    the last two coordinates move by -j and +j, so the last three falls (the last coordinate
    falling to 0) move by j, -2j and j: one interval of j."""
    falls = [x - y for block in blocks for x, y in zip(block, (*block[1:], 0))]
    *fixed, a, b, c = gap, gap, gap, *falls
    if min(fixed) < gap:
        return range(0)
    return range(max(0, gap - a, gap - c), min(m - 1, (b - gap) // 2) + 1)


# The level measure of a truncated family on its face, as a scale and runs of values:
# M_n(nu) = scale * v.  Docstrings write (x)_k for the rising factorial, V(x) = prod_{i<j}
# (x_i - x_j), l for the face width, and pad nu with zeros to length l.

def _level_runs(family: HarmonicFamily, n: int, weight: Callable, runs) -> tuple[Fraction, Iterator[tuple]]:
    """c_n = n!/(t)_n, and a run (p, m, diffs) for each (p, m) of runs, the level-n vertices of
    at most l rows: the differences of the weights, a polynomial of the face degree along the
    run, at its first min(m, degree + 1) vertices.  On the young and kingman faces t is a
    positive integer, so c_n = (t-1)!/(n+1)_(t-1) is a small fraction and every weight is c_n
    times a small integer; no factorial of n forms."""
    t, degree = int(family.t), FACES[family.face].degree(family.lam)
    runs = ((p, m, _differences(weight(_step(p, j)) for j in range(min(m, degree + 1)))) for p, m in runs)
    return factorial(t - 1) / pochhammer(n + 1, t - 1), runs


def _young_weights(family: TruncYoung, n: int) -> tuple[Fraction, Iterator[tuple]]:
    """With A_i = lam_i + l - i and B_j = nu_j + l - j,
    M_n(nu) = c_n V(B) det[(B_j + 1)_(A_i)] / (V(A) prod_i A_i!),
    the falling-factorial bialternant of s* at the reflected point
    times dim(nu), column j divided by B_j!; the signs cancel to +1.
    The matrix entries over A_i! are the binomials C(A_i + B_j, A_i), so
    the scale is c_n / V(A) and each value an integer."""
    l = family.width
    a, staircase = _plus_staircase(family.lam, l), range(l - 1, -1, -1)

    def weight(nu) -> int:
        b = list(map(add, nu, staircase))
        return _vandermonde(b) * integer_det([[comb(ai + bj, ai) for bj in b] for ai in a])

    c, runs = _level_runs(family, n, weight, level_runs(n, l))
    return c / _vandermonde(a), runs


def _kingman_weights(family: TruncKingman, n: int) -> tuple[Fraction, Iterator[tuple]]:
    """M_n(nu) = c_n sum_sigma prod_i (nu_sigma(i) + 1)_(lam_i) / lam_i! over the distinct
    arrangements sigma of nu, an integer times c_n.  The sum over all l! orderings, which counts
    each arrangement `_orders`(nu) times, is prod r_v(lam)! m_lam(nu + 1) in rising powers over
    prod lam_i!: the Selberg integral's Dirichlet sum (`_kingman_rising`), a polynomial.  Only inside
    a run, whose last two parts are distinct, nonzero and below the prefix, is `_orders`(nu) the
    prefix's, so each run's first and last vertex stand as runs of one."""
    lam, rising = family.lam, _kingman_rising(family.lam)
    orders, factorials = _orders(lam.parts), prod(map(factorial, lam.parts))

    def weight(nu) -> int:
        return orders * rising(nu) // (factorials * _orders(nu))

    def runs():
        for p, m in level_runs(n, family.width):
            yield p, 1
            if m > 2:
                yield _step(p, 1), m - 2
            if m > 1:
                yield _step(p, m - 1), 1

    return _level_runs(family, n, weight, runs())


def _vertex_weights(family: HarmonicFamily, n: int) -> tuple[Fraction, Iterator[tuple]]:
    """The schur and gamma faces: M_n(nu) = dim_closed_form(nu) phi(nu), phi from the family's
    level form over 1/q, each vertex a run of one: the vertices of at most the width's rows, or
    on the gamma face (width None) the whole level, its zeros past the depth kept."""
    vertices = level(n, family.kind, max_length=family.width)
    xs, q = family.level_phi(n, [(nu, None, ()) for nu in vertices])
    dims = (dim_closed_form(nu, family.kind).numerator for nu in vertices)
    return Fraction(1, q), ((nu.parts, 1, [d * x]) for nu, d, x in zip(vertices, dims, xs))


def _embed_hooks(parts, n: int):
    """The split-diagonal point ((2P + 1; 2Q + 1) over 2n), and the Frobenius
    coordinates as its blocks."""
    fc = Partition(parts).frobenius()
    return [2 * x + 1 for x in fc.p + fc.q], 2 * n, [fc.p, fc.q]


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

class Face(NamedTuple):
    """One boundary face, each per-face quantity a plain function, and its truncated family,
    whose declaration the face reads: the family's `face` is the face's name, its key in
    `FACES`; the lam the family `accepts` has a density on the face, and any other is refused
    with what the family `needs`.  A point has `blocks` coordinate tuples (alpha; or alpha,
    beta) of the family's stat(lam) each, so the width is blocks * stat(lam).  The defaults
    describe a face of rows."""

    family: type[HarmonicFamily]  # a truncated family
    constant: Callable[[Partition], Fraction]
    # lam -> (X -> F(X)), F(X) the density over its constant at X/Q times Q^degree(lam); a point X
    # is the integer coordinates of its blocks in turn
    density: Callable[[Partition], Callable]
    degree: Callable[[Partition], int]  # F is homogeneous of this degree; on young and kingman,
    # F and the level weights are polynomials of this degree along each run
    # (family, n) -> (scale, runs), M_n = scale * v: each run (start, length, diffs) is the vertices
    # `_step(start, j)`, j < length, with v(j) the polynomial of forward differences diffs at 0
    level_weights: Callable
    selberg: Callable  # (lam, mus) -> (family, normalized face integral of each mu)
    sweep: tuple[int, ...]  # the Selberg sweep's values of stat(lam), ...
    admits: Callable[[Partition, int], bool]  # ... and each mu != () with an exact route at stat(lam)
    blocks: int = 1
    # (parts of nu, n) -> (point X, level denominator Q, interior-test blocks), nu at X/Q; here nu/n
    embed: Callable = lambda p, n: (p, n, [p])
    polynomial: Callable[[Partition], Poly] | None = None  # width-2 density over its constant


FACES: dict[str, Face] = {face.family.face: face for face in (
    Face(
        family=TruncYoung, constant=young_density_constant, density=_young_density,
        degree=lambda lam: lam.size + lam.length * (lam.length - 1),
        level_weights=_young_weights, selberg=_young_selberg,
        sweep=(2, 3), admits=lambda mu, s: mu.length <= s, polynomial=_young_polynomial,
    ),
    Face(
        family=TruncKingman, constant=kingman_density_constant, degree=lambda lam: lam.size,
        density=_kingman_density,
        level_weights=_kingman_weights, selberg=_kingman_selberg,
        sweep=(1, 2, 3), admits=lambda mu, s: mu.length <= s,
        # m_lam at (alpha_1, 1 - alpha_1), the sum over the arrangements of lam's two parts
        polynomial=lambda lam: reduce(poly_add, (_width2_monomial(*e) for e in {lam.parts, lam.parts[::-1]})),
    ),
    Face(
        family=TruncSchur, constant=schur_density_constant, degree=lambda lam: lam.size,
        density=lambda lam: lambda xs: _schur_density(lam, xs),
        level_weights=_vertex_weights, selberg=_schur_selberg,
        sweep=(2, 3), admits=lambda mu, s: mu.is_strict and mu.length == s,
    ),
    Face(
        family=GammaShaped,
        # sum(p) + sum(q) - depth
        constant=gamma_density_constant, density=_gamma_density, degree=lambda lam: lam.size - 2 * lam.depth,
        # past the degree cap the family's level form raises
        level_weights=_vertex_weights, selberg=_gamma_selberg,
        sweep=(1, 2), admits=lambda mu, s: mu.depth == s, blocks=2, embed=_embed_hooks,
    ),
)}
