"""The four multiplicative graded graphs on partitions.

Vertices are partitions graded by size; edges add one box.  Edge
multiplicities: Young and Schur carry weight 1, Kingman carries the row
multiplicity of the grown row, and the Jack deformation carries a
product over the column of the new box, rational in its parameter and
exact down to parameter 0.  Weighted path dimensions come from one level
sweep that pushes dim(start, .) up the covers, holding two levels at a
time and reading each weight from the row it grows, all in integers: a
level's dims share one denominator and its edge weights another, both 1
but on the Jack graph, where the weights' denominator is one product over
the legs a box can have.  The closed forms serve as oracles: Young,
Kingman and strict here, and the Jack hook formula in the tests.
"""

from __future__ import annotations

import csv
import io
from collections import deque, namedtuple
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Callable, Iterator

from .exact import as_rational, quotient_pfaffian
from .partitions import EMPTY, Partition, _grown_rows, partitions_of


class GraphKind(namedtuple("GraphKind", "name theta")):
    """One of the four graphs; Jack carries its deformation parameter."""

    __slots__ = ()

    def __new__(cls, name: str, theta: Fraction | None = None):
        if name not in ("young", "jack", "kingman", "schur"):
            raise ValueError(f"unknown graph kind {name!r}")
        if name == "jack":
            if theta is None or as_rational(theta) <= 0:
                raise ValueError("jack graph needs theta > 0")
            theta = as_rational(theta)
        elif theta is not None:
            raise ValueError(f"{name} graph takes no parameter")
        return super().__new__(cls, name, theta)

    @property
    def strict(self) -> bool:
        return self.name == "schur"

    def __str__(self):
        if self.name == "jack":
            return f"jack({self.theta})"
        return self.name


YOUNG = GraphKind("young")
KINGMAN = GraphKind("kingman")
SCHUR = GraphKind("schur")


def jack(theta) -> GraphKind:
    return GraphKind("jack", as_rational(theta))


def parse_kind(text: str) -> GraphKind:
    """young | jack(theta) | kingman | schur; any other text raises ValueError."""
    text = text.strip().lower()
    try:
        if text.startswith("jack"):
            return jack(text[4:].strip("():="))
        return {"young": YOUNG, "kingman": KINGMAN, "schur": SCHUR}[text]
    except (KeyError, ValueError, ZeroDivisionError):
        raise ValueError(f"graph kind {text!r} is none of young, jack(theta > 0), kingman, schur") from None


# ---------------------------------------------------------------------------
# covers and levels
# ---------------------------------------------------------------------------

def covers_up(mu: Partition, kind: GraphKind) -> list[Partition]:
    """All one-box-larger vertices of the graph, decreasing lexicographic."""
    if kind.strict and not mu.is_strict:
        raise ValueError("schur graph vertices must be strict partitions")
    return mu.up_covers(strict=kind.strict)


def level(n: int, kind: GraphKind, max_length: int | None = None) -> list[Partition]:
    """All vertices of size n, optionally truncated by length."""
    return partitions_of(n, max_length=max_length, strict=kind.strict)


# ---------------------------------------------------------------------------
# edge multiplicities
# ---------------------------------------------------------------------------

def _new_box(mu: Partition, lam: Partition) -> int:
    """The row (0-based) of the one box lam adds to mu, read in one pass: the
    first row where the parts differ grows by one, the rest agree."""
    a, b = mu.parts, lam.parts
    if 0 <= len(b) - len(a) <= 1:
        i = next((k for k, p in enumerate(a) if p != b[k]), len(a))
        if i < len(b) and b[i] == (a[i] if i < len(a) else 0) + 1 and a[i + 1 :] == b[i + 1 :]:
            return i
    raise ValueError(f"{lam} does not cover {mu}")


def _jack_row_weight(parts: tuple[int, ...], i: int, p: int, q: int) -> tuple[int, int]:
    """(num, den): the Jack weight num/den at theta = p/q of the edge into `parts` that grows
    row i, a product over rows 0 .. i - 1 of the new box's column (`jack_weight`); each factor
    times q is an integer.  With m = leg + 1 and T(a) = a q + p m, den's factor at arm a is
    T(a) T(a + 1), or m T(1) at a = 0."""
    j = parts[i]
    num = den = 1
    for k in range(i):
        a, l = parts[k] - j, i - 1 - k
        num *= (a * q + p * (l + 2) if a else l + 2) * ((a + 1) * q + p * l)
        den *= (a * q + p * (l + 1) if a else l + 1) * ((a + 1) * q + p * (l + 1))
    return num, den


def jack_weight(mu: Partition, lam: Partition, theta) -> Fraction:
    """Jack edge weight kappa_theta(mu -> lam), exact for every theta >= 0.

    A product over the boxes of mu in the column of the new box, with
    a = arm and l = leg, of (a + theta(l+2))(a + 1 + theta l) over
    (a + theta(l+1))(a + 1 + theta(l+1)); an arm-0 box has the common
    factor theta cancelled, so theta = 0 gives the Kingman multiplicity.
    """
    i = _new_box(mu, lam)
    theta = as_rational(theta)
    if theta < 0:
        raise ValueError("jack weight needs theta >= 0")
    return Fraction(*_jack_row_weight(lam.parts, i, theta.numerator, theta.denominator))


def _row_weight(kind: GraphKind, n: int) -> tuple[Callable, int]:
    """(weight, wq) for the edges out of levels 0 .. n: weight(parts, i) is wq times the weight
    of the edge into `parts` that grows row i (0-based), an integer.  wq = 1 and the weight is 1,
    or on Kingman the count of the new part, except on the Jack graph.  There an edge out of a
    level up to n has one den factor (`_jack_row_weight`) at each leg m - 1 < n, of arm at most
    n - m, so it divides m T(1) ... T(n + 1 - m), and wq is the product of those over m."""
    if kind.theta:
        p, q = kind.theta.numerator, kind.theta.denominator
        wq = prod(m * prod(a * q + p * m for a in range(1, n + 2 - m)) for m in range(1, n + 1))

        def weight(parts, i):
            num, den = _jack_row_weight(parts, i, p, q)
            return wq * num // den

        return weight, wq
    if kind.name == "kingman":
        return (lambda parts, i: parts.count(parts[i])), 1
    return (lambda parts, i: 1), 1


def edge_multiplicity(mu: Partition, lam: Partition, kind: GraphKind) -> int | Fraction:
    """Weight of the edge mu -> lam, an int except on the Jack graph; rejects non-edges."""
    if kind.theta:
        return jack_weight(mu, lam, kind.theta)
    i = _new_box(mu, lam)
    if kind.strict and not (mu.is_strict and lam.is_strict):
        raise ValueError("schur edges join strict partitions")
    return _row_weight(kind, 0)[0](lam.parts, i)


# ---------------------------------------------------------------------------
# weighted path dimensions
# ---------------------------------------------------------------------------

def sweep(
    kind: GraphKind,
    top: int,
    start: Partition = EMPTY,
    within: Partition | None = None,
    max_length: int | None = None,
) -> Iterator[tuple[int, list, int, int]]:
    """Push dim(start, .) up the graph one level at a time, holding two levels.

    Yields (n, rows, dq, wq) for n = |start| .. top, in integers: each level-n
    vertex lam reachable from start, in decreasing lexicographic order, as
    (lam, D, edges) with dim(start, lam) = D/dq, where edges lists the up-edges
    (nu, W) into level n + 1 with weight W/wq, each read from the row nu grows.
    dq = wq = 1 but on the Jack graph, where one wq serves every level and
    the dims are pushed over dq wq, then brought to lowest terms by their
    gcd.  Vertices stay inside `within`, which must contain start, and at
    most `max_length` rows long; on the strict graph start must be strict.
    """
    if kind.strict and not start.is_strict:
        raise ValueError("schur graph vertices must be strict partitions")
    if within is not None and not within.contains(start):
        raise ValueError(f"the start vertex {start} lies outside {within}")
    length_cap, strict = top if max_length is None else max_length, kind.strict
    frontier, dq = {start.parts: [start, 1]}, 1  # parts -> [vertex, D]
    weight, wq = _row_weight(kind, top - 1)
    for n in range(start.size, top + 1):
        ahead: dict[tuple[int, ...], list] = {}
        rows = []
        for parts in sorted(frontier, reverse=True):
            lam, d = frontier[parts]
            edges = []
            for i, nu in _grown_rows(parts) if n < top else ():
                if len(nu) > length_cap or (within is not None and nu[i] > within.part(i + 1)):
                    continue  # lam lies inside `within`, so only the grown row can leave it
                if strict and i and nu[i - 1] == nu[i]:
                    continue
                w = weight(nu, i)
                slot = ahead.get(nu) or ahead.setdefault(nu, [Partition._trusted(nu), 0])
                slot[1] += d * w
                edges.append((slot[0], w))
            rows.append((lam, d, edges))
        yield n, rows, dq, wq
        frontier, dq = ahead, dq * wq
        if dq > 1:
            g = gcd(dq, *(slot[1] for slot in ahead.values()))
            dq //= g
            for slot in ahead.values():
                slot[1] //= g


def top_level(kind: GraphKind, top: int, start: Partition = EMPTY, **restrict) -> tuple[list, int]:
    """(rows, dq) of the last level of `sweep(kind, top, start, **restrict)`."""
    if top < start.size:
        raise ValueError("the top level lies below the start vertex")
    ((_, rows, dq, _),) = deque(sweep(kind, top, start, **restrict), maxlen=1)
    return rows, dq


def dim(mu: Partition, lam: Partition, kind: GraphKind) -> int | Fraction:
    """Sum of edge-weight products over all increasing paths mu -> lam."""
    if kind.strict and not (mu.is_strict and lam.is_strict):
        raise ValueError("schur graph vertices must be strict partitions")
    if not lam.contains(mu):
        return 0
    (((_, d, _),), dq) = top_level(kind, lam.size, start=mu, within=lam)
    return Fraction(d, dq) if kind.theta and lam != mu else d


def dim_closed_form(lam: Partition, kind: GraphKind) -> Fraction:
    """Closed-form total dimension.  Young: n!/(hook product); Kingman: n!/prod lam_i!;
    strict: that times Schur's quotient Pfaffian prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j).
    The Jack graph's, n!/prod (arm + 1 + theta leg), is a test oracle; here it is rejected."""
    n = lam.size
    if kind.name == "young":
        return Fraction(factorial(n), lam.hook_product())
    if kind.name not in ("kingman", "schur"):
        raise ValueError("no closed form for the jack graph; use the recursion")
    if kind.strict and not lam.is_strict:
        raise ValueError("schur dimension needs a strict partition")
    num, den = quotient_pfaffian(lam.parts) if kind.strict else (1, 1)
    return Fraction(factorial(n) * num, prod(map(factorial, lam.parts)) * den)


def dims_csv(n: int, kind: GraphKind, max_length: int | None = None) -> str:
    """CSV dump 'level,partition,dim' for one level (exact p/q strings, one Fraction per row)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "partition", "dim"])
    rows, dq = top_level(kind, n, max_length=max_length)
    writer.writerows([n, lam, Fraction(d, dq)] for lam, d, _ in rows)
    return buf.getvalue()
