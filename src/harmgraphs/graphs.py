"""The four multiplicative graded graphs on partitions.

Vertices are partitions graded by size; edges add one box.  Edge
multiplicities: Young and Schur carry weight 1, Kingman carries the row
multiplicity of the grown row, and the Jack deformation carries a
product over the column of the new box, rational in its parameter and
exact down to parameter 0.  Weighted path dimensions come from one level
sweep that pushes dim(start, .) up the covers, holding two levels at a
time and reading each weight from the row it grows; the closed forms
serve as oracles where they exist.
"""

from __future__ import annotations

import csv
import io
from collections import deque, namedtuple
from fractions import Fraction
from math import factorial, prod
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


def _jack_row_weight(parts: tuple[int, ...], i: int, p: int, q: int) -> Fraction:
    """The Jack weight at theta = p/q of the edge into `parts` that grows row i: every
    factor times q is an integer, over rows 0 .. i - 1 of the new box's column."""
    j = parts[i]
    num = den = 1
    for k in range(i):
        a, l = parts[k] - j, i - 1 - k
        num *= (a * q + p * (l + 2) if a else l + 2) * ((a + 1) * q + p * l)
        den *= (a * q + p * (l + 1) if a else l + 1) * ((a + 1) * q + p * (l + 1))
    return Fraction(num, den)


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
    return _jack_row_weight(lam.parts, i, theta.numerator, theta.denominator)


def _row_weight(kind: GraphKind) -> Callable[[tuple[int, ...], int], int | Fraction]:
    """The weight of the edge into `parts` that grows row i (0-based), as a function of
    (parts, i): 1, the count of the new part on Kingman, `jack_weight`'s product on Jack."""
    if kind.name == "jack":
        p, q = kind.theta.numerator, kind.theta.denominator
        return lambda parts, i: _jack_row_weight(parts, i, p, q)
    if kind.name == "kingman":
        return lambda parts, i: parts.count(parts[i])
    return lambda parts, i: 1


def edge_multiplicity(mu: Partition, lam: Partition, kind: GraphKind) -> int | Fraction:
    """Weight of the edge mu -> lam, an int except on the Jack graph; rejects non-edges."""
    i = _new_box(mu, lam)
    if kind.strict and not (mu.is_strict and lam.is_strict):
        raise ValueError("schur edges join strict partitions")
    return _row_weight(kind)(lam.parts, i)


# ---------------------------------------------------------------------------
# weighted path dimensions
# ---------------------------------------------------------------------------

def sweep(
    kind: GraphKind,
    top: int,
    start: Partition = EMPTY,
    within: Partition | None = None,
    max_length: int | None = None,
) -> Iterator[tuple[int, list]]:
    """Push dim(start, .) up the graph one level at a time, holding two levels.

    Yields (n, rows) for n = |start| .. top: each level-n vertex lam
    reachable from start, in decreasing lexicographic order, as
    (lam, dim(start, lam), edges), where edges lists the up-edges
    (nu, weight) into level n + 1, each weight read from the row nu grows.
    Vertices stay inside `within`, which must contain start, and at most
    `max_length` rows long; on the strict graph start must be strict.
    Dimensions are ints where the weights are (every graph but Jack).
    """
    if kind.strict and not start.is_strict:
        raise ValueError("schur graph vertices must be strict partitions")
    if within is not None and not within.contains(start):
        raise ValueError(f"the start vertex {start} lies outside {within}")
    weight = _row_weight(kind)
    length_cap = top if max_length is None else max_length
    frontier = {start.parts: [start, 1]}  # parts -> [vertex, dim]
    for n in range(start.size, top + 1):
        ahead: dict[tuple[int, ...], list] = {}
        rows = []
        for parts in sorted(frontier, reverse=True):
            lam, d = frontier[parts]
            edges = []
            for i, nu in _grown_rows(parts) if n < top else ():
                if len(nu) > length_cap or (within is not None and nu[i] > within.part(i + 1)):
                    continue  # lam lies inside `within`, so only the grown row can leave it
                if kind.strict and i and nu[i - 1] == nu[i]:
                    continue
                w = weight(nu, i)
                slot = ahead.get(nu) or ahead.setdefault(nu, [Partition._trusted(nu), 0])
                slot[1] += d * w
                edges.append((slot[0], w))
            rows.append((lam, d, edges))
        yield n, rows
        frontier = ahead


def top_level(kind: GraphKind, top: int, start: Partition = EMPTY, **restrict) -> list:
    """The rows of the last level of `sweep(kind, top, start, **restrict)`."""
    if top < start.size:
        raise ValueError("the top level lies below the start vertex")
    ((_, rows),) = deque(sweep(kind, top, start, **restrict), maxlen=1)
    return rows


def dim(mu: Partition, lam: Partition, kind: GraphKind) -> int | Fraction:
    """Sum of edge-weight products over all increasing paths mu -> lam."""
    if kind.strict and not (mu.is_strict and lam.is_strict):
        raise ValueError("schur graph vertices must be strict partitions")
    if not lam.contains(mu):
        return 0
    ((_, d, _),) = top_level(kind, lam.size, start=mu, within=lam)
    return d


def dim_closed_form(lam: Partition, kind: GraphKind) -> Fraction:
    """Closed-form total dimension; the Jack graph has none and is rejected.  Young:
    n!/(hook product); Kingman: n!/prod lam_i!; strict: that times Schur's quotient
    Pfaffian prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j)."""
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
    """CSV dump 'level,partition,dim' for one level (exact p/q strings)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "partition", "dim"])
    for lam, d, _ in top_level(kind, n, max_length=max_length):
        writer.writerow([n, str(lam), str(d)])
    return buf.getvalue()
