"""Closed-form harmonic families, harmonicity checks and level measures.

A family packages exact parameters plus a phi(mu) evaluator.  phi is
normalized to 1 at the empty partition, and harmonicity means the value
at a vertex equals the multiplicity-weighted sum over its upper covers.
Four infinite families (two-parameter Young, its Jack deformation, the
two-parameter Kingman family, the one-parameter strict family) are closed
products over the boxes, read one level at a time (`level_phi`) from
per-row tables and the sweep's dims.  Four truncated families share one level
form (`_Truncated`): each vanishes past one statistic of its lam, the length
(gamma: the depth), and reads a level's phi from one integer table of its
point, built for that level's vertices (gamma: once per family, through its
degree cap).  phi(mu) is a family's level form at one vertex.  A family is
immutable, and equal and hashed by its type and spec string, that is by its
parameters.  Each family class declares its data, and the base classes hold
the rules that read it.  Every family declares its spec once: its `name` and
its `spec_keys`, the (key, attribute) pairs in spec order, which are also its
constructor's arguments; `spec_string` prints them and `parse_family` reads
them through the one `FAMILIES` table.  A closed-form family declares its
nonnegativity region, `params_admissible`, and `admissible` reads it at the
spec values; any other family gets the surrogate, the sign of phi through a
level.  A truncated family declares its boundary `face`, the `least`
statistic of lam it accepts and what it `needs` of lam in words; `accepts`,
which its constructor and its face both call, reads the first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import factorial, lcm, prod
from operator import getitem, mul
from typing import NamedTuple

from .exact import as_rational, integer_point
from .graphs import GraphKind, KINGMAN, SCHUR, YOUNG, dim_closed_form, jack, sweep, top_level
from .interp import (
    _product_series,
    jacobi_trudi_det,
    monomial_tables,
    pstar_pfaffians,
    shifted_columns,
    shifted_schur_columns,
)
from .partitions import EMPTY, Partition, _orders


class FamilyError(ValueError):
    """Invalid family parameters (forbidden scalar, wrong shape, ...)."""


def _row_tables(a: int, b: int, d: int, n: int, p: int = 1, q: int = 1) -> list[list[int]]:
    """Row i's products of a + c (b + c d) over its first m boxes, m <= n/(i + 1), at the
    contents c = jq - pi (0-based): the box factors of the Young (p = q = 1) and Jack families."""
    boxes = [range(-p * i, n // (i + 1) * q - p * i, q) for i in range(n)]
    return [list(accumulate(map(lambda c: a + c * (b + c * d), cs), mul, initial=1)) for cs in boxes]


def _over_rising(xs: list[int], den: int, t: Fraction, n: int, first: int = 0):
    """(xs, q) for x / (den (tp + first tq) ... (tp + (n - 1) tq)), t = tp/tq, the sign in xs."""
    tp, tq = t.numerator, t.denominator
    q = den * prod(range(tp + first * tq, tp + n * tq, tq))
    return (xs, q) if q > 0 else ([-x for x in xs], -q)


def _reject_nonpositive_integer_t(t: Fraction, allow_zero: bool = False) -> None:
    if t.denominator == 1 and (t < 0 or (t == 0 and not allow_zero)):
        raise FamilyError(f"denominator parameter t = {t} hits a forbidden value")


class AdmissibleReport(NamedTuple):
    ok: bool
    reason: str
    surrogate: bool = False


class HarmonicFamily:
    """Interface: a graph kind, an exact phi, and the spec: its `name` and `spec_keys`, the
    (key, attribute) pairs in spec order.  A closed-form family also declares its
    nonnegativity region, `params_admissible` of its spec values, which `admissible` reads;
    any other family is judged by the surrogate."""

    kind: GraphKind
    name: str
    spec_keys: tuple[tuple[str, str], ...]
    face: str | None = None  # the boundary face of a truncated family
    params_admissible = None  # a closed-form family's region, a staticmethod

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.phi, cls.level_phi = cls.phi, cls.level_phi  # each family's own, where the tracer wraps them

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and other.spec_string() == self.spec_string()

    def __hash__(self):
        return hash((type(self), self.spec_string()))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"

    def phi(self, mu: Partition) -> Fraction:
        """The level form at the one vertex mu, with its dim in closed form (none on the Jack
        graph, whose closed form is a test oracle, and JackZZ reads none)."""
        if self.kind.strict and not mu.is_strict:
            raise FamilyError("strict-graph family evaluated at a non-strict partition")
        d = None if self.kind.name == "jack" else dim_closed_form(mu, self.kind).numerator
        (x,), q = self.level_phi(mu.size, [(mu, d, ())])
        return Fraction(x, q)

    def level_phi(self, n: int, rows) -> tuple[list[int], int]:
        """phi on a level of the sweep, its rows (lam, D, edges) with dims D/dq counted from the
        empty partition, as integer numerators over one denominator q > 0; here the phi values of
        a family that defines only `phi` (each family here has its own), made so.  YoungZZ and
        SchurT read D as dim(lam), on graphs where dq = 1; no other family reads D."""
        return integer_point([self.phi(lam) for lam, _, _ in rows])

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        """The family's closed-form region `params_admissible` at its spec values, where it
        declares one; else the surrogate, the first negative phi in level order through
        surrogate_level, read from `check_harmonicity`'s phi values (a level below 1 is its
        ValueError)."""
        if self.params_admissible:
            return self.params_admissible(*(getattr(self, attr) for _, attr in self.spec_keys))
        for lam, value in check_harmonicity(self, surrogate_level).phi_values:
            if value < 0:
                return AdmissibleReport(False, f"surrogate: phi({lam}) < 0", surrogate=True)
        return AdmissibleReport(
            True, f"surrogate: all phi >= 0 through level {surrogate_level}", surrogate=True
        )

    def spec_string(self) -> str:
        return f"{self.name}:" + ",".join(f"{key}={getattr(self, attr)}" for key, attr in self.spec_keys)

    def __str__(self):
        return self.spec_string()


class YoungZZ(HarmonicFamily):
    """Two-parameter family on the Young graph via e = z+z', t = zz'."""

    kind, name, spec_keys = YOUNG, "young-zz", (("e", "e"), ("t", "t"))

    def __init__(self, e, t):
        object.__setattr__(self, "e", as_rational(e))
        object.__setattr__(self, "t", as_rational(t))
        _reject_nonpositive_integer_t(self.t)

    def level_phi(self, n: int, rows) -> tuple[list[int], int]:
        """phi(lam) is the product over the boxes of (t + c e + c^2)/hook, c the content, over
        (t)_n.  With t = tp/tq, e = ep/eq a box gives the integer tq eq (t + c e + c^2), read from
        row tables, and the hook product is n!/dim(lam), so the level is over n! eq^n tq^n (t)_n."""
        (tp, tq), (ep, eq) = self.t.as_integer_ratio(), self.e.as_integer_ratio()
        tables = _row_tables(tp * eq, ep * tq, tq * eq, n)
        xs = [w * prod(map(getitem, tables, lam.parts)) for lam, w, _ in rows]
        return _over_rising(xs, factorial(n) * eq**n, self.t, n)

    @staticmethod
    def params_admissible(e, t) -> AdmissibleReport:
        """Nondegeneracy region in the (e, t) encoding.

        Conjugate pair iff the discriminant of X^2 - eX + t is negative;
        the real case needs both roots inside one open unit interval
        (m, m+1), tested through the sign of the quadratic at m and m+1.
        """
        e = as_rational(e)
        t = as_rational(t)
        disc = e * e - 4 * t
        if disc < 0:
            return AdmissibleReport(True, "conjugate nonreal pair")
        half = e / 2
        if half.denominator == 1 and disc > 0:
            return AdmissibleReport(False, "real roots straddle an integer midpoint")
        m = half.numerator // half.denominator  # floor
        q_m = Fraction(m) ** 2 - e * m + t
        q_m1 = Fraction(m + 1) ** 2 - e * (m + 1) + t
        if q_m > 0 and q_m1 > 0:
            return AdmissibleReport(True, f"real pair inside ({m}, {m + 1})")
        return AdmissibleReport(False, "real roots not inside an open unit interval")


class JackZZ(HarmonicFamily):
    """Deformed two-parameter family; zz is z*z', the scalar is t = zz/theta."""

    name, spec_keys = "jack", (("e", "e"), ("t", "zz"), ("theta", "theta"))

    def __init__(self, e, zz, theta):
        object.__setattr__(self, "e", as_rational(e))
        object.__setattr__(self, "zz", as_rational(zz))
        object.__setattr__(self, "theta", as_rational(theta))
        if self.theta <= 0:
            raise FamilyError("theta must be > 0")
        if self.t.denominator == 1 and self.t <= 0:
            raise FamilyError(f"t = {self.zz}, theta = {self.theta}: the ratio t/theta = {self.t} hits a forbidden value")

    @property
    def t(self) -> Fraction:
        return self.zz / self.theta

    @property
    def kind(self) -> GraphKind:
        return jack(self.theta)

    def level_phi(self, n: int, rows) -> tuple[list[int], int]:
        """The product over the boxes of (zz + c e + c^2)/(arm + theta leg + theta),
        c = (j - 1) - theta (i - 1), over (t)_n.  With theta = p/q, c = C/q for C = jq - pi
        (0-based) and a box's factor is the integer zq eq q^2 (zz + c e + c^2), from row tables,
        over (arm q + p (leg + 1)) zq eq q, taken per vertex: the dims give the other hook
        product, dim(lam) prod (arm + 1 + theta leg) = n!.  The level is over the lcm of those."""
        (p, q), (zp, zq) = self.theta.as_integer_ratio(), self.zz.as_integer_ratio()
        ep, eq = self.e.as_integer_ratio()
        tables = _row_tables(zp * eq * q * q, ep * zq * q, zq * eq, n, p, q)
        nums, dens = [], []
        for lam, _, _ in rows:
            ps, cs = lam.parts, lam.conjugate().parts
            nums.append(prod(map(getitem, tables, ps)))
            dens.append(prod((r - j - 1) * q + p * (cs[j] - i) for i, r in enumerate(ps) for j in range(r)))
        common, scale = lcm(*dens), self.t.denominator**n
        xs = [x * scale * (common // den) for x, den in zip(nums, dens)]
        return _over_rising(xs, common * (zq * eq * q) ** n, self.t, n)


class KingmanTA(HarmonicFamily):
    """Two-parameter partition-structure family on the Kingman graph."""

    kind, name, spec_keys = KINGMAN, "kingman", (("t", "t"), ("alpha", "alpha"))

    def __init__(self, t, alpha):
        object.__setattr__(self, "t", as_rational(t))
        object.__setattr__(self, "alpha", as_rational(alpha))
        _reject_nonpositive_integer_t(self.t, allow_zero=True)

    def level_phi(self, n: int, rows) -> tuple[list[int], int]:
        """prod over parts of (1 - alpha)_(p-1) over prod r_k! (r_k the multiplicities),
        times (t + alpha) ... (t + (l-1) alpha) over (t + 1) ... (t + n - 1): the leading t
        of the scalar and of (t)_n cancels, which makes t = 0 legal.  With t = tp/tq and
        alpha = ap/aq, the products of tq (v aq - ap) (0 < v < p; n - l factors in all) and
        of tp aq + i ap tq (0 < i < l) are tables, times n!/prod r_k!, over
        n! aq^(n-1) tq^(n-1) (t + 1)_(n-1)."""
        if not n:
            return [1], 1
        (tp, tq), (ap, aq) = self.t.as_integer_ratio(), self.alpha.as_integer_ratio()
        parts_of = [0, *accumulate(range(tq * (aq - ap), tq * (n * aq - ap), tq * aq), mul, initial=1)]
        lengths = [0, *accumulate([tp * aq + i * ap * tq for i in range(1, n)], mul, initial=1)]
        fact, ps = factorial(n), [lam.parts for lam, _, _ in rows]
        xs = [lengths[len(p)] * prod(map(parts_of.__getitem__, p)) * fact // _orders(p) for p in ps]
        return _over_rising(xs, fact * aq ** (n - 1), self.t, n, first=1)

    @staticmethod
    def params_admissible(t, alpha) -> AdmissibleReport:
        t = as_rational(t)
        alpha = as_rational(alpha)
        if 0 <= alpha < 1 and t > -alpha:
            return AdmissibleReport(True, "0 <= alpha < 1 and t > -alpha")
        return AdmissibleReport(False, "outside 0 <= alpha < 1, t > -alpha")


class SchurT(HarmonicFamily):
    """One-parameter family on the graph of strict partitions."""

    kind, name, spec_keys = SCHUR, "schur", (("t", "t"),)

    def __init__(self, t):
        object.__setattr__(self, "t", as_rational(t))
        _reject_nonpositive_integer_t(self.t)

    def level_phi(self, n: int, rows) -> tuple[list[int], int]:
        """phi(lam) is the product over the boxes of 2t + (j - 1) j, j the column, over 2^l (t)_n,
        times dim(lam)/n!.  With t = tp/tq a row of m boxes gives 2 U(m)/tq^m from one table,
        U(m) = tp (2tp + 2tq) ... (2tp + (m - 1) m tq), so the level is over n! tq^n (t)_n."""
        tp, tq = self.t.as_integer_ratio()
        U = [1, *accumulate(map(lambda j: 2 * tp + (j - 1) * j * tq, range(2, n + 1)), mul, initial=tp)]
        xs = [w * prod(map(U.__getitem__, lam.parts)) for lam, w, _ in rows]
        return _over_rising(xs, factorial(n), self.t, n)

    @staticmethod
    def params_admissible(t) -> AdmissibleReport:
        t = as_rational(t)
        if t > 0:
            return AdmissibleReport(True, "t > 0")
        return AdmissibleReport(False, "t <= 0")


class _Truncated(HarmonicFamily):
    """A truncated family, supported on the diagrams mu with stat(mu) <= stat(lam): the rows
    (l(mu) <= width = l(lam)), or on gamma the diagonal (depth); t = |lam| + width and the
    point -lam - 1 unless the family sets its own.  phi(mu) is (-1)^|mu| I_mu / (t)_|mu| for
    the family's interpolation polynomial I at the point.  Each family declares the `least`
    stat(lam) it accepts (on the strict graph lam is strict too), and what it `needs` of lam
    in words: the constructor refuses any lam that `accepts` does not, and the family's
    boundary face reads `accepts`, `needs` and `stat` for its densities."""

    spec_keys, stat, least = (("lambda", "lam"),), "length", 1  # stat: a Partition attribute
    needs: str

    @classmethod
    def accepts(cls, lam: Partition) -> bool:
        return getattr(lam, cls.stat) >= cls.least and (not cls.kind.strict or lam.is_strict)

    def __init__(self, lam: Partition):
        if not self.accepts(lam):
            raise FamilyError(f"family {self.name!r} needs {self.needs}, got lambda = {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def width(self) -> int:
        return self.lam.length

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width)

    def point(self) -> tuple[int, ...]:
        return tuple(-p - 1 for p in self.lam.parts)

    def level_phi(self, n: int, rows) -> tuple[list[int], int]:
        """(-1)^n I_mu / (t)_n on the rows, 0 past the support: `_interpolants` reads the rows
        within it, integers over one denominator, from one table of the point built for
        exactly them.  Neither dims nor edges are read."""
        stat, bound = self.stat, getattr(self.lam, self.stat)
        within = [getattr(lam, stat) <= bound for lam, _, _ in rows]
        values, den = self._interpolants([lam for (lam, _, _), ok in zip(rows, within) if ok])
        values = iter(values)
        xs = [next(values) if ok else 0 for ok in within]
        return _over_rising(xs, (-1) ** n * den, self.t, n)


class TruncYoung(_Truncated):
    """Finite-width family: shifted Schur evaluation at the reflected point -lam_i - 2(l - i) - 1."""

    kind, face, name, needs, least = YOUNG, "young", "trunc-young", "length >= 2", 2

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width**2)

    def point(self) -> tuple[int, ...]:
        l = self.width
        return tuple(-self.lam.part(i) - 2 * (l - i) - 1 for i in range(1, l + 1))

    def _interpolants(self, mus: list[Partition]) -> tuple[list[int], int]:
        """s*_mu at the point, each a shifted Jacobi-Trudi determinant (the one s* route) over
        the point's columns through max(mu_1 + l(mu) - 1), the highest index the mus read."""
        count = max([0, *(mu.part(1) + mu.length - 1 for mu in mus)])
        columns = shifted_schur_columns(self.point(), 1, self.width, count)
        return [jacobi_trudi_det(mu, columns) for mu in mus], 1


class GammaShaped(_Truncated):
    """Hook-bounded family driven by the two-alphabet generator values.

    Supported on the diagrams of at most depth(lam) diagonal boxes, with t = |lam|.  At the
    reflected split-diagonal point (-p - 1/2; -q - 1/2), (p | q) the Frobenius coordinates
    of lam, each factor of the two-alphabet series is (u - q_i)/(u + p_i + 1), so the
    generator values g and the shifted Jacobi-Trudi columns S^(j-1) g are integers, built
    once per family through the degree cap; I_mu is their integer determinant.
    """

    kind, face, stat, width = YOUNG, "gamma", "depth", None
    name, spec_keys, needs = "gamma", (("lambda", "lam"), ("cap", "degree_cap")), "depth >= 1"

    def __init__(self, lam: Partition, degree_cap: int = 8):
        super().__init__(lam)
        if not isinstance(degree_cap, int) or degree_cap < 1:
            raise FamilyError(f"gamma parameter 'cap' must be a positive integer, not {degree_cap!r}")
        g = _product_series([(-q, -p - 1) for p, q in zip(*lam.frobenius())], degree_cap)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "columns", shifted_columns([1, *g], degree_cap))

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size)

    def _interpolants(self, mus: list[Partition]) -> tuple[list[int], int]:
        """The determinant at each mu; a level past the degree cap with a vertex within the
        depth is a FamilyError."""
        if mus and mus[0].size > self.degree_cap:
            raise FamilyError(f"cap={self.degree_cap} exceeded at |mu| = {mus[0].size}; raise cap")
        return [jacobi_trudi_det(mu, self.columns) for mu in mus], 1

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return super().admissible(min(surrogate_level, self.degree_cap))


class TruncKingman(_Truncated):
    """Finite-width family: factorial monomial evaluation at -lam - 1."""

    kind, face, name, needs = KINGMAN, "kingman", "trunc-kingman", "a nonempty partition"

    def _interpolants(self, mus: list[Partition]) -> tuple[list[int], int]:
        """m*_mu at the point, from one table over the closure of the mus."""
        table = monomial_tables(mus)(self.point(), 1)
        return [table[mu.parts] for mu in mus], 1


class TruncSchur(_Truncated):
    """Finite-width strict family: factorial Schur P at the integer point -lam - 1."""

    kind, face, name, needs = SCHUR, "schur", "trunc-schur", "a nonempty strict partition"

    def _interpolants(self, mus: list[Partition]) -> tuple[list[int], int]:
        """P*_mu at the point from one P* table through max(mu_1 + mu_2) (`pstar_pfaffians`, Q = 1
        at an integer point): an integer over 2^l(mu), brought to one denominator 2^max(l(mu))."""
        xs, _ = pstar_pfaffians(mus, self.point())
        top = max([0, *(mu.length for mu in mus)])
        return [x << top - mu.length for mu, x in zip(mus, xs)], 2**top


# ---------------------------------------------------------------------------
# family-spec strings
# ---------------------------------------------------------------------------

FAMILIES: dict[str, type[HarmonicFamily]] = {
    cls.name: cls
    for cls in (YoungZZ, JackZZ, KingmanTA, SchurT, TruncYoung, TruncKingman, TruncSchur, GammaShaped)
}

# a spec value is a rational but for these keys; gamma's cap passes any text that is not
# decimal digits on, for the constructor to refuse
_READERS = {"lambda": Partition.parse, "cap": lambda text: int(text) if text.isdecimal() else text}


def parse_family(spec: str) -> HarmonicFamily:
    """Parse compact family strings like 'young-zz:e=3,t=2' or 'schur:t=3': the family's
    `spec_keys` in order, gamma's cap 8 if absent.  An unknown, repeated, missing or malformed
    parameter is a FamilyError."""
    name, _, body = spec.strip().partition(":")
    name = name.strip().lower()
    kv: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, _, value = item.partition("=")
            key = key.strip().lower()
            if not value:
                raise FamilyError(f"malformed family parameter {item!r}")
            if key in kv:
                raise FamilyError(f"family parameter {key!r} is given twice")
            kv[key] = value.strip()
    if name not in FAMILIES:
        raise FamilyError(f"unknown family {name!r}")
    args = []
    for key, _ in FAMILIES[name].spec_keys:
        text = kv.pop(key, "8" if key == "cap" else None)
        if text is None:
            raise FamilyError(f"family {name!r} is missing parameter {key!r}")
        try:
            args.append(_READERS.get(key, as_rational)(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FamilyError(f"family parameter {key!r}: malformed value {text!r} ({exc})") from None
    family = FAMILIES[name](*args)
    if kv:
        raise FamilyError(f"family {name!r} has no parameter {', '.join(map(repr, kv))}")
    return family


# ---------------------------------------------------------------------------
# harmonicity, measures, lattice bounds
# ---------------------------------------------------------------------------

class HarmonicityViolation(NamedTuple):
    mu: Partition
    lhs: Fraction
    rhs: Fraction


class HarmonicityReport(NamedTuple):
    """Harmonicity below max_level; phi_values (level by level, dec-lex)
    and level_masses (total of dim * phi per level) run through max_level."""

    family: str
    max_level: int
    checked: int
    violations: tuple[HarmonicityViolation, ...]
    phi_values: tuple[tuple[Partition, Fraction], ...]
    level_masses: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_harmonicity(family: HarmonicFamily, max_level: int) -> HarmonicityReport:
    """Verify the cover-sum identity exactly for all vertices below max_level.

    One sweep up the graph, which gives each level's dims and edge weights
    as integers over one denominator each (1 but on the Jack graph); the
    family's level form reads each level's phi once, as integer numerators
    over one more, so cover sums compare and level masses add in ints.  A
    Fraction forms for each reported phi, each level mass and the two sides
    of a violation.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    checked, violations, values, masses = 0, [], [], []
    below = None  # the rows of the level below, their phi numerators and denominator
    for n, rows, dq, wq in sweep(family.kind, max_level):
        xs, q = family.level_phi(n, rows)
        masses.append(Fraction(sum(d * x for (_, d, _), x in zip(rows, xs)), dq * q))
        if below:
            lower, lower_xs, lower_q = below
            at = {lam: x for (lam, _, _), x in zip(rows, xs)}
            for (mu, _, edges), x in zip(lower, lower_xs):
                # phi(mu) = x / lower_q against the cover sum r / (wq q), one wq per sweep
                r = sum(w * at[lam] for lam, w in edges)
                if x * wq * q != r * lower_q:
                    lhs, rhs = Fraction(x, lower_q), Fraction(r, wq * q)
                    violations.append(HarmonicityViolation(mu, lhs, rhs))
            checked += len(lower)
        values += [(lam, Fraction(x, q)) for (lam, _, _), x in zip(rows, xs)]
        below = rows, xs, q
    return HarmonicityReport(
        family.spec_string(), max_level, checked, tuple(violations), tuple(values), tuple(masses)
    )


class LevelMeasure(NamedTuple):
    """The probability distribution dim * phi on one level."""

    n: int
    weights: tuple[tuple[Partition, Fraction], ...]

    def total(self) -> Fraction:
        return sum((w for _, w in self.weights), Fraction(0))

    def as_dict(self) -> dict[Partition, Fraction]:
        return dict(self.weights)

    def support(self) -> list[Partition]:
        return [p for p, w in self.weights if w != 0]


def level_measure(family: HarmonicFamily, n: int, max_length: int | None = None) -> LevelMeasure:
    rows, dq = top_level(family.kind, n, max_length=max_length)
    xs, q = family.level_phi(n, rows)  # a path to lam stays within l(lam) rows: dims are total
    return LevelMeasure(n, tuple((lam, Fraction(d * x, q * dq)) for (lam, d, _), x in zip(rows, xs)))


def lattice_level_sums(
    phi_fam: HarmonicFamily,
    psi_fam: HarmonicFamily,
    mu: Partition,
    top: int,
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """One row (n, join, meet, phi_sum) per level |mu| < n <= top, from one
    sweep up from mu: the sums over level-n lam of dim(mu, lam) times the
    max, the min and the first of phi(lam), psi(lam).  By harmonicity the
    last is phi(mu) at every level.  Each family's level form reads a level
    once, from its total dims (a sweep from the empty partition in lockstep
    when mu is not), and the sweep from mu gives its dims over one more
    denominator (1 but on the Jack graph), so the sums run in ints and each
    forms one Fraction."""
    if phi_fam.kind != psi_fam.kind:
        raise ValueError("families must live on the same graph")
    if mu.size >= top:
        raise ValueError("need |mu| < top")
    out = []
    totals = islice(sweep(phi_fam.kind, top), mu.size, None) if mu.parts else None
    for n, rows, dq, _ in sweep(phi_fam.kind, top, start=mu):
        whole = rows
        if totals:  # the level's rows from the empty partition that contain mu, in order
            whole = [row for row in next(totals)[1] if row[0].contains(mu)]
        if n == mu.size:
            continue
        (xs, q), (ys, r) = phi_fam.level_phi(n, whole), psi_fam.level_phi(n, whole)
        join = meet = phi_sum = 0
        for (_, d, _), x, y in zip(rows, xs, ys):
            a, b = x * r, y * q
            join, meet, phi_sum = join + d * max(a, b), meet + d * min(a, b), phi_sum + d * a
        out.append((n, *(Fraction(s, dq * q * r) for s in (join, meet, phi_sum))))
    return out


def lattice_bound_approx(
    phi_fam: HarmonicFamily,
    psi_fam: HarmonicFamily,
    mu: Partition,
    top: int,
) -> list[tuple[int, Fraction, Fraction]]:
    """Join and meet approximations at mu, one row (n, join, meet) per level
    |mu| < n <= top; see `lattice_level_sums`."""
    return [(n, join, meet) for n, join, meet, _ in lattice_level_sums(phi_fam, psi_fam, mu, top)]
