"""Partitions, strict partitions, Frobenius coordinates and the hook product.

Partitions are immutable value objects (no trailing zeros ever stored)
with structural equality; every enumeration in the package is emitted in
decreasing lexicographic order so goldens stay deterministic.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterator, NamedTuple


class Partition:
    """A nonincreasing tuple of positive integers, possibly empty."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        cleaned = tuple(p for p in parts if p != 0)
        if any(p < 0 for p in cleaned):
            raise ValueError(f"negative part in {parts!r}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts must be nonincreasing: {parts!r}")
        object.__setattr__(self, "parts", cleaned)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition from a tuple already known to be positive and nonincreasing."""
        out = object.__new__(cls)
        object.__setattr__(out, "parts", parts)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Partition is immutable")

    def __reduce__(self):  # pickle rebuilds through __init__, not past the guard
        return type(self), (self.parts,)

    # -- basic protocol --

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "+".join(str(p) for p in self.parts) if self.parts else "0"

    def __lt__(self, other):
        return self.parts < other.parts

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the text form '3+2+1' ('0' or '' is the empty partition)."""
        text = text.strip()
        if text in ("", "0"):
            return Partition()
        return Partition(int(s) for s in text.split("+"))

    # -- sizes and shapes --

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row length with the zero-extension convention, 1-based."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return EMPTY
        return Partition._trusted(
            tuple(sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1))
        )

    def multiplicity(self, k: int) -> int:
        """Number of parts equal to k."""
        return sum(1 for p in self.parts if p == k)

    @property
    def is_strict(self) -> bool:
        return _is_strict(self.parts)

    def contains(self, other: "Partition") -> bool:
        return other.length <= self.length and all(
            other.parts[i] <= self.parts[i] for i in range(other.length)
        )

    # -- boxes --

    def hook_product(self) -> int:
        """The product of all hook lengths, the columns read from the conjugate once."""
        cols = self.conjugate().parts
        return prod(p - j + cols[j] - i - 1 for i, p in enumerate(self.parts) for j in range(p))

    # -- covers --

    def up_covers(self, strict: bool = False) -> list["Partition"]:
        """All partitions one box above, in decreasing lexicographic order."""
        return [Partition._trusted(g) for _, g in _grown_rows(self.parts) if not strict or _is_strict(g)]

    # -- Frobenius coordinates --

    def frobenius(self) -> "FrobeniusCoords":
        d, conj = self.depth, self.conjugate().parts
        arms = tuple(part - i for i, part in enumerate(self.parts[:d], 1))
        legs = tuple(c - i for i, c in enumerate(conj[:d], 1))
        return FrobeniusCoords(arms, legs)

    @property
    def depth(self) -> int:
        """Number of diagonal boxes."""
        d = 0
        while self.part(d + 1) >= d + 1:
            d += 1
        return d


class FrobeniusCoords(NamedTuple):
    """Arm/leg lengths (p_1,...,p_d | q_1,...,q_d) along the diagonal; `Partition.frobenius` makes them."""

    p: tuple[int, ...]
    q: tuple[int, ...]


EMPTY = Partition()


def _is_strict(parts: tuple[int, ...]) -> bool:
    return all(a > b for a, b in zip(parts, parts[1:]))


def _orders(parts) -> int:
    """prod_v r_v! over the multiplicities r_v of the values in parts."""
    return 1 if len(set(parts)) == len(parts) else prod(factorial(parts.count(v)) for v in set(parts))


def _grown_rows(parts: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(i, parts with row i grown by one box) for each row i (0-based) that can grow, a
    new last row included: the covers one box above, decreasing lexicographic."""
    ext = parts + (0,)
    return [
        (i, parts[:i] + (p + 1,) + parts[i + 1 :]) for i, p in enumerate(ext) if i == 0 or ext[i - 1] > p
    ]


def partitions_of(n: int, max_length: int | None = None, strict: bool = False) -> list[Partition]:
    """All partitions of n (strict if requested), decreasing lexicographic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    slots = n if max_length is None else min(max_length, n)
    return [Partition._trusted(p) for p in _fill(n, n, slots, strict)]


def _fill(rest: int, cap: int, slots: int, strict: bool) -> Iterator[tuple[int, ...]]:
    """Part tuples summing to rest, decreasing lexicographic: parts at most
    cap, at most `slots` of them, strictly decreasing if `strict`."""
    if rest == 0:
        yield ()
        return
    for first in range(min(rest, cap), 0, -1):
        if first * slots < rest:  # no smaller first part can fill the rows left
            return
        for tail in _fill(rest - first, first - 1 if strict else first, slots - 1, strict):
            yield (first,) + tail


def level_runs(n: int, l: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The partitions of n of at most l >= 1 rows as runs, decreasing lexicographic: (p, m)
    for the m partitions p, p + e_l - e_(l-1), ..., p + (m - 1)(e_l - e_(l-1)), p the parts
    padded with zeros to length l.  There is one run per prefix p_1 ... p_(l-2), listed by
    a recursion over the prefix: each part goes from the largest that fits down to the
    smallest that leaves the rows after it no larger, and the last two rows are the run."""
    if l == 1:
        yield (n,), 1
        return

    def runs(prefix, rest, cap, slots):
        if slots == 2:
            a = min(cap, rest)
            yield (*prefix, a, rest - a), a - (rest + 1) // 2 + 1
            return
        for first in range(min(rest, cap), -(-rest // slots) - 1, -1):
            yield from runs((*prefix, first), rest - first, first, slots - 1)

    yield from runs((), n, n, l)


def partitions_up_to(n: int, strict: bool = False) -> list[Partition]:
    """All partitions of size 0..n, sizes ascending, dec-lex within a size."""
    out: list[Partition] = []
    for m in range(n + 1):
        out.extend(partitions_of(m, strict=strict))
    return out
