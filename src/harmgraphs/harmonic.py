"""Closed-form harmonic families, harmonicity checks and level measures.

A family packages exact parameters plus a phi(mu) evaluator.  phi is
normalized to 1 at the empty partition, and harmonicity means the value
at a vertex equals the multiplicity-weighted sum over its upper covers.
Four infinite families (two-parameter Young, its Jack deformation, the
two-parameter Kingman family, the one-parameter strict family) evaluate
through closed products; four truncated families route through the
interpolation machinery and vanish outside a finite-width subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .exact import as_rational, pochhammer
from .graphs import GraphKind, KINGMAN, SCHUR, YOUNG, jack, level, sweep, top_level
from .interp import (
    FunctionalSpec,
    _shifted_schur_det,
    factorial_monomial_eval,
    jacobi_trudi_det,
    pstar_closed_form,
    pstar_one_row_values,
    pstar_pfaffian,
    pstar_two_row_table,
    shifted_columns,
    super_evaluation_functional,
    young_zz_closed_form,
)
from .partitions import EMPTY, FrobeniusCoords, Partition


class FamilyError(ValueError):
    """Invalid family parameters (forbidden scalar, wrong shape, ...)."""


def _reject_nonpositive_integer_t(t: Fraction, allow_zero: bool = False) -> None:
    if t.denominator == 1 and (t < 0 or (t == 0 and not allow_zero)):
        raise FamilyError(f"denominator parameter t = {t} hits a forbidden value")


@dataclass(frozen=True)
class AdmissibleReport:
    ok: bool
    reason: str
    surrogate: bool = False


class HarmonicFamily:
    """Interface: a graph kind, an exact phi, and an admissibility verdict."""

    kind: GraphKind
    face: str | None = None  # the boundary face of a truncated family

    def phi(self, mu: Partition) -> Fraction:
        raise NotImplementedError

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.spec_string()

    def _surrogate_nonnegative(self, surrogate_level: int) -> AdmissibleReport:
        for n in range(surrogate_level + 1):
            for lam in level(n, self.kind):
                if self.phi(lam) < 0:
                    return AdmissibleReport(
                        False, f"surrogate: phi({lam}) < 0", surrogate=True
                    )
        return AdmissibleReport(
            True, f"surrogate: all phi >= 0 through level {surrogate_level}", surrogate=True
        )


@dataclass(frozen=True)
class YoungZZ(HarmonicFamily):
    """Two-parameter family on the Young graph via e = z+z', t = zz'."""

    e: Fraction
    t: Fraction
    kind: GraphKind = field(default=YOUNG, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "e", as_rational(self.e))
        object.__setattr__(self, "t", as_rational(self.t))
        _reject_nonpositive_integer_t(self.t)

    def phi(self, mu: Partition) -> Fraction:
        value = young_zz_closed_form(self.e, self.t, mu)
        return value * (-1) ** mu.size / pochhammer(self.t, mu.size)

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

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self.params_admissible(self.e, self.t)

    def spec_string(self) -> str:
        return f"young-zz:e={self.e},t={self.t}"


@dataclass(frozen=True)
class JackZZ(HarmonicFamily):
    """Deformed two-parameter family; zz is z*z', the scalar is t = zz/theta."""

    e: Fraction
    zz: Fraction
    theta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "e", as_rational(self.e))
        object.__setattr__(self, "zz", as_rational(self.zz))
        object.__setattr__(self, "theta", as_rational(self.theta))
        if self.theta <= 0:
            raise FamilyError("theta must be > 0")
        _reject_nonpositive_integer_t(self.t)

    @property
    def t(self) -> Fraction:
        return self.zz / self.theta

    @property
    def kind(self) -> GraphKind:
        return jack(self.theta)

    def phi(self, mu: Partition) -> Fraction:
        """The product over the boxes of (zz + c e + c^2)/(arm + theta leg + theta),
        c = (j - 1) - theta (i - 1), over (t)_|mu|.  With theta = p/q a box's
        content is C/q for an integer C, so its factor is the integer
        zp eq q^2 + C ep zq q + C^2 zq eq over (arm q + p (leg + 1)) zq eq q."""
        p, q = self.theta.numerator, self.theta.denominator
        zp, zq = self.zz.numerator, self.zz.denominator
        ep, eq = self.e.numerator, self.e.denominator
        a, b, d = zp * eq * q * q, ep * zq * q, zq * eq
        cols = mu.conjugate().parts
        num = den = 1
        for i, row in enumerate(mu.parts):
            for j in range(row):
                c = j * q - p * i
                num *= a + c * (b + c * d)
                den *= (row - j - 1) * q + p * (cols[j] - i)
        return Fraction(num, den * (d * q) ** mu.size) / pochhammer(self.t, mu.size)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(surrogate_level)

    def spec_string(self) -> str:
        return f"jack:e={self.e},t={self.zz},theta={self.theta}"


@dataclass(frozen=True)
class KingmanTA(HarmonicFamily):
    """Two-parameter partition-structure family on the Kingman graph."""

    t: Fraction
    alpha: Fraction
    kind: GraphKind = field(default=KINGMAN, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", as_rational(self.t))
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        _reject_nonpositive_integer_t(self.t, allow_zero=True)

    def phi(self, mu: Partition) -> Fraction:
        """prod over parts of (1 - alpha)_(p-1) over prod r_k! (r_k the
        multiplicities), times (t + alpha) ... (t + (l-1) alpha) over
        (t + 1) ... (t + n - 1): the common leading t of the scalar and of
        (t)_n cancels, which is what makes t = 0 legal here.  With t = tp/tq
        and alpha = ap/aq every factor is an integer over tq, aq or tq aq."""
        if not mu.parts:
            return Fraction(1)
        tp, tq = self.t.numerator, self.t.denominator
        ap, aq = self.alpha.numerator, self.alpha.denominator
        n, l = mu.size, mu.length
        num = prod(v * aq - ap for p in mu.parts for v in range(1, p))
        num *= prod(tp * aq + i * ap * tq for i in range(1, l)) * tq ** (n - l)
        den = prod(map(factorial, mu.multiplicities().values())) * aq ** (n - 1)
        return Fraction(num, den * prod(range(tp + tq, tp + n * tq, tq)))

    @staticmethod
    def params_admissible(t, alpha) -> AdmissibleReport:
        t = as_rational(t)
        alpha = as_rational(alpha)
        if 0 <= alpha < 1 and t > -alpha:
            return AdmissibleReport(True, "0 <= alpha < 1 and t > -alpha")
        return AdmissibleReport(False, "outside 0 <= alpha < 1, t > -alpha")

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self.params_admissible(self.t, self.alpha)

    def spec_string(self) -> str:
        return f"kingman:t={self.t},alpha={self.alpha}"


@dataclass(frozen=True)
class SchurT(HarmonicFamily):
    """One-parameter family on the graph of strict partitions."""

    t: Fraction
    kind: GraphKind = field(default=SCHUR, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", as_rational(self.t))
        _reject_nonpositive_integer_t(self.t)

    def phi(self, mu: Partition) -> Fraction:
        if not mu.is_strict:
            raise FamilyError("strict-graph family evaluated at a non-strict partition")
        value = pstar_closed_form(self.t, mu)
        return value * (-1) ** mu.size / pochhammer(self.t, mu.size)

    @staticmethod
    def params_admissible(t) -> AdmissibleReport:
        t = as_rational(t)
        if t > 0:
            return AdmissibleReport(True, "t > 0")
        return AdmissibleReport(False, "t <= 0")

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self.params_admissible(self.t)

    def spec_string(self) -> str:
        return f"schur:t={self.t}"


@dataclass(frozen=True)
class TruncYoung(HarmonicFamily):
    """Finite-width family: shifted Schur evaluation at a reflected point.

    Supported on diagrams with at most length(lam) rows; the evaluation
    point has coordinates -lam_i - 2(l - i) - 1.
    """

    lam: Partition
    kind: GraphKind = field(default=YOUNG, init=False, repr=False, compare=False)
    face = "young"

    def __post_init__(self):
        if self.lam.length < 2:
            raise FamilyError("truncated Young family needs length >= 2")

    @property
    def width(self) -> int:
        return self.lam.length

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width**2)

    def point(self) -> tuple[Fraction, ...]:
        l = self.width
        return tuple(Fraction(-self.lam.part(i) - 2 * (l - i) - 1) for i in range(1, l + 1))

    def value(self, mu: Partition) -> Fraction:
        """s*_mu at the point by the bialternant, whose shifted coordinates
        -lam_i - (l - i) - 1 are distinct; phi is (-1)^|mu| value / (t)_|mu|."""
        return _shifted_schur_det(mu, self.point())

    def phi(self, mu: Partition) -> Fraction:
        if mu.length > self.width:
            return Fraction(0)
        return self.value(mu) * (-1) ** mu.size / pochhammer(self.t, mu.size)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(surrogate_level)

    def spec_string(self) -> str:
        return f"trunc-young:lambda={self.lam}"


@dataclass(frozen=True)
class GammaShaped(HarmonicFamily):
    """Hook-bounded family driven by the two-alphabet generator values.

    Supported on diagrams whose diagonal has at most depth(fc) boxes;
    generator values are taken at the reflected split-diagonal point
    (-p - 1/2; -q - 1/2) with the shifted Jacobi-Trudi columns S^(j-1) g,
    once per family, and phi reads one determinant in those columns.
    """

    fc: FrobeniusCoords
    degree_cap: int = 8
    kind: GraphKind = field(default=YOUNG, init=False, repr=False, compare=False)
    lam: Partition = field(init=False, repr=False, compare=False)  # the face partition
    functional: FunctionalSpec = field(init=False, repr=False, compare=False)
    columns: list = field(init=False, repr=False, compare=False)
    face = "gamma"

    def __post_init__(self):
        object.__setattr__(self, "lam", self.fc.to_partition())
        if self.fc.depth < 1:
            raise FamilyError("gamma-shaped family needs depth >= 1")
        if self.degree_cap < 1:
            raise FamilyError("degree cap must be >= 1")
        half = Fraction(1, 2)
        xs = [-p - half for p in self.fc.p]
        ys = [-q - half for q in self.fc.q]
        object.__setattr__(self, "functional", super_evaluation_functional(xs, ys, self.degree_cap))
        object.__setattr__(self, "columns", shifted_columns([1, *self.functional.values], self.degree_cap))

    @staticmethod
    def from_partition(lam: Partition, degree_cap: int = 8) -> "GammaShaped":
        return GammaShaped(lam.frobenius(), degree_cap)

    @property
    def depth(self) -> int:
        return self.fc.depth

    @property
    def t(self) -> Fraction:
        return Fraction(self.fc.size)

    def phi(self, mu: Partition) -> Fraction:
        if mu.depth > self.depth:
            return Fraction(0)
        if mu.size > self.degree_cap:
            raise FamilyError(
                f"degree cap {self.degree_cap} exceeded at |mu| = {mu.size}; raise degree_cap"
            )
        val = jacobi_trudi_det(mu, self.columns)
        return val * (-1) ** mu.size / pochhammer(self.t, mu.size)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(min(surrogate_level, self.degree_cap))

    def spec_string(self) -> str:
        return f"gamma:lambda={self.lam},cap={self.degree_cap}"


@dataclass(frozen=True)
class TruncKingman(HarmonicFamily):
    """Finite-width family: factorial monomial evaluation at -lam - 1."""

    lam: Partition
    kind: GraphKind = field(default=KINGMAN, init=False, repr=False, compare=False)
    face = "kingman"

    def __post_init__(self):
        if self.lam.length < 1:
            raise FamilyError("truncated Kingman family needs a nonempty partition")

    @property
    def width(self) -> int:
        return self.lam.length

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width)

    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(-p - 1) for p in self.lam.parts)

    def value(self, mu: Partition) -> Fraction:
        """m*_mu at the point; phi is (-1)^|mu| value / (t)_|mu| on the support."""
        return factorial_monomial_eval(mu, self.point())

    def phi(self, mu: Partition) -> Fraction:
        if mu.length > self.width:
            return Fraction(0)
        return self.value(mu) * (-1) ** mu.size / pochhammer(self.t, mu.size)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(surrogate_level)

    def spec_string(self) -> str:
        return f"trunc-kingman:lambda={self.lam}"


@dataclass(frozen=True)
class TruncSchur(HarmonicFamily):
    """Finite-width strict family: factorial Schur P at -lam - 1, each mu read (past length 2
    as a Pfaffian) from one one-row list and one two-row table for the point.  A mu past the
    bound rebuilds both at max(twice the bound, mu_1 + mu_2); table entries do not depend on
    the bound."""

    lam: Partition
    kind: GraphKind = field(default=SCHUR, init=False, repr=False, compare=False)
    pstar: tuple = field(default=((), {}), init=False, repr=False, compare=False)  # (one_row, table)
    face = "schur"

    def __post_init__(self):
        if not self.lam.is_strict or self.lam.length < 1:
            raise FamilyError("truncated strict family needs a nonempty strict partition")

    @property
    def width(self) -> int:
        return self.lam.length

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width)

    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(-p - 1) for p in self.lam.parts)

    def phi(self, mu: Partition) -> Fraction:
        if not mu.is_strict:
            raise FamilyError("strict-graph family evaluated at a non-strict partition")
        if mu.length > self.width:
            return Fraction(0)
        return self.value(mu) * (-1) ** mu.size / pochhammer(self.t, mu.size)

    def value(self, mu: Partition) -> Fraction:
        """P*_mu at the point; phi is (-1)^|mu| value / (t)_|mu|."""
        need = mu.part(1) + mu.part(2)
        one_row, table = self.pstar
        if need > len(one_row):
            bound = max(2 * len(one_row), need)
            one_row = pstar_one_row_values(self.point(), bound)
            table = pstar_two_row_table(one_row, bound)
            object.__setattr__(self, "pstar", (one_row, table))
        return pstar_pfaffian(mu, one_row, table)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(surrogate_level)

    def spec_string(self) -> str:
        return f"trunc-schur:lambda={self.lam}"


# ---------------------------------------------------------------------------
# family-spec strings
# ---------------------------------------------------------------------------

def parse_family(spec: str) -> HarmonicFamily:
    """Parse compact family strings like 'young-zz:e=3,t=2' or 'schur:t=3'.  An unknown,
    repeated or malformed parameter is a FamilyError."""
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

    def value(key: str, parse=as_rational):
        text = kv.pop(key)
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FamilyError(f"family parameter {key!r}: malformed value {text!r} ({exc})") from None

    try:
        if name == "young-zz":
            family = YoungZZ(value("e"), value("t"))
        elif name == "jack":
            family = JackZZ(value("e"), value("t"), value("theta"))
        elif name == "kingman":
            family = KingmanTA(value("t"), value("alpha"))
        elif name == "schur":
            family = SchurT(value("t"))
        elif name == "trunc-young":
            family = TruncYoung(value("lambda", Partition.parse))
        elif name == "gamma":
            cap = kv.pop("cap", "8")
            if not cap.isdecimal():
                raise FamilyError(f"gamma parameter 'cap' must be a positive integer, not {cap!r}")
            family = GammaShaped.from_partition(value("lambda", Partition.parse), int(cap))
        elif name == "trunc-kingman":
            family = TruncKingman(value("lambda", Partition.parse))
        elif name == "trunc-schur":
            family = TruncSchur(value("lambda", Partition.parse))
        else:
            raise FamilyError(f"unknown family {name!r}")
    except KeyError as exc:
        raise FamilyError(f"family {name!r} is missing parameter {exc}") from None
    if kv:
        raise FamilyError(f"family {name!r} has no parameter {', '.join(map(repr, kv))}")
    return family


# ---------------------------------------------------------------------------
# harmonicity, measures, lattice bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicityViolation:
    mu: Partition
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class HarmonicityReport:
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

    One sweep up the graph: phi is evaluated once per vertex, one level
    ahead of the vertices whose cover sums need it, and each edge weight
    once.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
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


@dataclass(frozen=True)
class LevelMeasure:
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
    rows = top_level(family.kind, n, max_length=max_length)
    return LevelMeasure(n, tuple((lam, d * family.phi(lam)) for lam, d, _ in rows))


def lattice_level_sums(
    phi_fam: HarmonicFamily,
    psi_fam: HarmonicFamily,
    mu: Partition,
    top: int,
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """One row (n, join, meet, phi_sum) per level |mu| < n <= top, from one
    sweep up from mu: the sums over level-n lam of dim(mu, lam) times the
    max, the min and the first of phi(lam), psi(lam).  By harmonicity the
    last is phi(mu) at every level."""
    if phi_fam.kind != psi_fam.kind:
        raise ValueError("families must live on the same graph")
    if mu.size >= top:
        raise ValueError("need |mu| < top")
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


def lattice_bound_approx(
    phi_fam: HarmonicFamily,
    psi_fam: HarmonicFamily,
    mu: Partition,
    top: int,
) -> list[tuple[int, Fraction, Fraction]]:
    """Join and meet approximations at mu, one row (n, join, meet) per level
    |mu| < n <= top; see `lattice_level_sums`."""
    return [(n, join, meet) for n, join, meet, _ in lattice_level_sums(phi_fam, psi_fam, mu, top)]
