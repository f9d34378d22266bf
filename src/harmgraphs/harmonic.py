"""Closed-form harmonic families, harmonicity checks and level measures.

A family packages exact parameters plus a phi(mu) evaluator.  phi is
normalized to 1 at the empty partition, and harmonicity means the value
at a vertex equals the multiplicity-weighted sum over its upper covers.
Four infinite families (two-parameter Young, its Jack deformation, the
two-parameter Kingman family, the one-parameter strict family) evaluate
through closed products; four truncated families route through the
interpolation machinery and vanish outside a finite-width subgraph.
A family is immutable, and equal and hashed by its type and spec string:
by its parameters, never by the tables a truncated family fills on use.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import mul
from typing import NamedTuple

from .exact import as_rational, integer_point, pochhammer
from .graphs import GraphKind, KINGMAN, SCHUR, YOUNG, jack, level, sweep, top_level
from .interp import (
    _product_series,
    falling_power,
    jacobi_trudi_det,
    permutation_sum,
    pstar_closed_form,
    pstar_one_row_numerators,
    pstar_pfaffian,
    pstar_two_row_table,
    shifted_columns,
    shifted_schur_columns,
    young_zz_closed_form,
)
from .partitions import EMPTY, FrobeniusCoords, Partition


class FamilyError(ValueError):
    """Invalid family parameters (forbidden scalar, wrong shape, ...)."""


def _over_rising(num: int, den: int, t: Fraction, n: int) -> Fraction:
    """num / (den (t)_n) as one Fraction, (t)_n being the integer product of
    tp + k tq over k < n, over tq^n."""
    tp, tq = t.numerator, t.denominator
    return Fraction(num * tq**n, den * prod(range(tp, tp + n * tq, tq)))


def _reject_nonpositive_integer_t(t: Fraction, allow_zero: bool = False) -> None:
    if t.denominator == 1 and (t < 0 or (t == 0 and not allow_zero)):
        raise FamilyError(f"denominator parameter t = {t} hits a forbidden value")


class AdmissibleReport(NamedTuple):
    ok: bool
    reason: str
    surrogate: bool = False


class HarmonicFamily:
    """Interface: a graph kind, an exact phi, and an admissibility verdict."""

    kind: GraphKind
    face: str | None = None  # the boundary face of a truncated family

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and other.spec_string() == self.spec_string()

    def __hash__(self):
        return hash((type(self), self.spec_string()))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"

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


class YoungZZ(HarmonicFamily):
    """Two-parameter family on the Young graph via e = z+z', t = zz'."""

    kind = YOUNG

    def __init__(self, e, t):
        object.__setattr__(self, "e", as_rational(e))
        object.__setattr__(self, "t", as_rational(t))
        _reject_nonpositive_integer_t(self.t)

    def phi(self, mu: Partition) -> Fraction:
        value = young_zz_closed_form(self.e, self.t, mu)
        return _over_rising((-1) ** mu.size * value.numerator, value.denominator, self.t, mu.size)

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


class JackZZ(HarmonicFamily):
    """Deformed two-parameter family; zz is z*z', the scalar is t = zz/theta."""

    def __init__(self, e, zz, theta):
        object.__setattr__(self, "e", as_rational(e))
        object.__setattr__(self, "zz", as_rational(zz))
        object.__setattr__(self, "theta", as_rational(theta))
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
        return _over_rising(num, den * (d * q) ** mu.size, self.t, mu.size)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(surrogate_level)

    def spec_string(self) -> str:
        return f"jack:e={self.e},t={self.zz},theta={self.theta}"


class KingmanTA(HarmonicFamily):
    """Two-parameter partition-structure family on the Kingman graph."""

    kind = KINGMAN

    def __init__(self, t, alpha):
        object.__setattr__(self, "t", as_rational(t))
        object.__setattr__(self, "alpha", as_rational(alpha))
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


class SchurT(HarmonicFamily):
    """One-parameter family on the graph of strict partitions."""

    kind = SCHUR

    def __init__(self, t):
        object.__setattr__(self, "t", as_rational(t))
        _reject_nonpositive_integer_t(self.t)

    def phi(self, mu: Partition) -> Fraction:
        if not mu.is_strict:
            raise FamilyError("strict-graph family evaluated at a non-strict partition")
        value = pstar_closed_form(self.t, mu)
        return _over_rising((-1) ** mu.size * value.numerator, value.denominator, self.t, mu.size)

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


class _FiniteWidth(HarmonicFamily):
    """A truncated family, supported on the diagrams of at most width = l(lam) rows;
    t = |lam| + width and the point -lam - 1 unless the family sets its own."""

    @property
    def width(self) -> int:
        return self.lam.length

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width)

    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(-p - 1) for p in self.lam.parts)

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(surrogate_level)


class TruncYoung(_FiniteWidth):
    """Finite-width family: shifted Schur evaluation at a reflected point.

    Supported on diagrams with at most length(lam) rows; the evaluation
    point has coordinates -lam_i - 2(l - i) - 1.  Its shifted Jacobi-Trudi
    columns are built once per family, and rebuilt to twice the reach when
    some mu reads past them.
    """

    kind, face = YOUNG, "young"
    columns = ()

    def __init__(self, lam: Partition):
        if lam.length < 2:
            raise FamilyError("truncated Young family needs length >= 2")
        object.__setattr__(self, "lam", lam)

    @property
    def t(self) -> Fraction:
        return Fraction(self.lam.size + self.width**2)

    def point(self) -> tuple[Fraction, ...]:
        l = self.width
        return tuple(Fraction(-self.lam.part(i) - 2 * (l - i) - 1) for i in range(1, l + 1))

    def value(self, mu: Partition) -> Fraction:
        """s*_mu at the point by the shifted Jacobi-Trudi determinant, the one s*
        route, over the family's columns; phi is (-1)^|mu| value / (t)_|mu|."""
        if mu.length > self.width:
            return Fraction(0)
        reach = mu.part(1) + mu.length - 1
        columns = self.columns
        if not columns or len(columns[0]) <= reach:
            xs = [int(x) for x in self.point()]
            columns = shifted_schur_columns(xs, 1, self.width, max(2 * reach, 8))
            object.__setattr__(self, "columns", columns)
        return Fraction(jacobi_trudi_det(mu, columns))

    def phi(self, mu: Partition) -> Fraction:
        if mu.length > self.width:
            return Fraction(0)
        return self.value(mu) * (-1) ** mu.size / pochhammer(self.t, mu.size)

    def spec_string(self) -> str:
        return f"trunc-young:lambda={self.lam}"


class GammaShaped(HarmonicFamily):
    """Hook-bounded family driven by the two-alphabet generator values.

    Supported on diagrams whose diagonal has at most depth(fc) boxes.  At the
    reflected split-diagonal point (-p - 1/2; -q - 1/2) each factor of the
    two-alphabet series is (u - q_i)/(u + p_i + 1), so the generator values g
    and the shifted Jacobi-Trudi columns S^(j-1) g are integers, built once per
    family; phi(mu) is (-1)^|mu| D / (t)_|mu| for their integer determinant D.
    """

    kind, face = YOUNG, "gamma"

    def __init__(self, fc: FrobeniusCoords, degree_cap: int = 8):
        if fc.depth < 1:
            raise FamilyError("gamma-shaped family needs depth >= 1")
        if degree_cap < 1:
            raise FamilyError("degree cap must be >= 1")
        g = _product_series([(-q, -p - 1) for p, q in zip(fc.p, fc.q)], degree_cap)
        object.__setattr__(self, "fc", fc)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "lam", fc.to_partition())  # the face partition
        object.__setattr__(self, "columns", shifted_columns([1, *g], degree_cap))

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
        n, t = mu.size, self.fc.size
        d = jacobi_trudi_det(mu, self.columns)
        return Fraction((-1) ** n * d, prod(range(t, t + n)))

    def admissible(self, surrogate_level: int = 6) -> AdmissibleReport:
        return self._surrogate_nonnegative(min(surrogate_level, self.degree_cap))

    def spec_string(self) -> str:
        return f"gamma:lambda={self.lam},cap={self.degree_cap}"


class TruncKingman(_FiniteWidth):
    """Finite-width family: factorial monomial evaluation at -lam - 1."""

    kind, face = KINGMAN, "kingman"

    def __init__(self, lam: Partition):
        if lam.length < 1:
            raise FamilyError("truncated Kingman family needs a nonempty partition")
        object.__setattr__(self, "lam", lam)

    def value(self, mu: Partition) -> Fraction:
        """m*_mu at the integer point; phi is (-1)^|mu| value / (t)_|mu| on the support."""
        return Fraction(permutation_sum(mu, [-p - 1 for p in self.lam.parts], falling_power(1)))

    def phi(self, mu: Partition) -> Fraction:
        if mu.length > self.width:
            return Fraction(0)
        return self.value(mu) * (-1) ** mu.size / pochhammer(self.t, mu.size)

    def spec_string(self) -> str:
        return f"trunc-kingman:lambda={self.lam}"


class TruncSchur(_FiniteWidth):
    """Finite-width strict family: factorial Schur P at the integer point -lam - 1, each mu
    read (past length 2 as an integer Pfaffian) from the `interp` one-row numerators and
    two-row table of the point, so P*_mu is that integer over 2^l(mu).  A mu past the bound
    rebuilds both at max(twice the bound, mu_1 + mu_2); table entries do not depend on the
    bound."""

    kind, face = SCHUR, "schur"
    pstar = ((), {})  # (one_row, table)

    def __init__(self, lam: Partition):
        if not lam.is_strict or lam.length < 1:
            raise FamilyError("truncated strict family needs a nonempty strict partition")
        object.__setattr__(self, "lam", lam)

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
            one_row, _ = pstar_one_row_numerators(self.point(), bound)  # an integer point: Q = 1
            table = pstar_two_row_table(one_row, 1, bound)
            object.__setattr__(self, "pstar", (one_row, table))
        return Fraction(pstar_pfaffian(mu, one_row, table), 2**mu.length)

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

    One sweep up the graph evaluates phi once per vertex.  `integer_point`
    brings each level's phi values to one denominator, and its dims and its
    edge weights to one more each (1 but on the Jack graph), so the cover
    sums compare and the level masses add in ints.  A Fraction forms only
    for each level mass and for the two sides of a violation.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    checked, violations, values, masses = 0, [], [], []
    below = None  # the rows of the level below, their phi numerators and denominator
    for _, rows in sweep(family.kind, max_level):
        phis = [family.phi(lam) for lam, _, _ in rows]
        xs, q = integer_point(phis)
        ds, dq = integer_point([d for _, d, _ in rows])
        masses.append(Fraction(sum(map(mul, ds, xs)), dq * q))
        if below:
            lower, lower_xs, lower_q = below
            at = {lam: x for (lam, _, _), x in zip(rows, xs)}
            ws, wq = integer_point([w for _, _, edges in lower for _, w in edges])
            ws = iter(ws)
            for (mu, _, edges), x in zip(lower, lower_xs):
                # phi(mu) = x / lower_q against the cover sum r / (wq q)
                r = sum(w * at[lam] for (lam, _), w in zip(edges, ws))
                if x * wq * q != r * lower_q:
                    lhs, rhs = Fraction(x, lower_q), Fraction(r, wq * q)
                    violations.append(HarmonicityViolation(mu, lhs, rhs))
            checked += len(lower)
        values += [(lam, v) for (lam, _, _), v in zip(rows, phis)]
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
    last is phi(mu) at every level.  Each level's phi and psi values share
    one denominator (`integer_point`) and its dims another (1 but on the
    Jack graph), so the sums run in ints and each forms one Fraction."""
    if phi_fam.kind != psi_fam.kind:
        raise ValueError("families must live on the same graph")
    if mu.size >= top:
        raise ValueError("need |mu| < top")
    out = []
    for n, rows in sweep(phi_fam.kind, top, start=mu):
        if n == mu.size:
            continue
        lams = [lam for lam, _, _ in rows]
        xs, q = integer_point([phi_fam.phi(lam) for lam in lams] + [psi_fam.phi(lam) for lam in lams])
        ds, dq = integer_point([d for _, d, _ in rows])
        pairs = list(zip(ds, xs, xs[len(lams) :]))
        join = sum(d * max(a, b) for d, a, b in pairs)
        meet = sum(d * min(a, b) for d, a, b in pairs)
        phi_sum = sum(d * a for d, a, _ in pairs)
        out.append((n, *(Fraction(s, dq * q) for s in (join, meet, phi_sum))))
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
