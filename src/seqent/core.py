"""Exact partitions of [0,1) and [0,1)^2 and the Shannon entropy functional.

All measures are `fractions.Fraction` values and every set operation here is
closed over the rationals.  Floating point enters exactly once: in
:func:`shannon_entropy`, which evaluates ``-sum(p*log2(p))`` at 80 bits of
working precision and rounds the result to a float.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import MAX_JOIN_CUTS, MAX_TILING_CELLS, BudgetError, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)

# Working precision (bits of mantissa) for the final log evaluation.
ENTROPY_PRECISION = 80


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and exact strings like '13/21' to Fraction.

    Floats are rejected: they would silently break exactness at the source.
    """
    if isinstance(x, float):
        raise ValidationError(f"floating literal {x!r} not accepted; use an exact fraction")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"cannot parse {x!r} as an exact fraction: {exc}") from exc


def as_integer(value, what: str) -> int:
    """value as an int; a float, a bool or a string raises instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):  # int: fast path
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_real(value, what: str) -> float:
    """value as a finite float; a bool, a string, a NaN or an infinity raises."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int or a Fraction past the float range
            if math.isfinite(real := float(value)):
                return real
    raise ValidationError(f"{what} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class ProbabilityVector:
    """Vector of nonnegative rational masses summing exactly to 1."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValidationError("probability vector must be nonempty")
        if any(e < 0 for e in entries):
            raise ValidationError("probability vector has a negative entry")
        if sum(entries) != 1:
            raise ValidationError(f"probability vector sums to {sum(entries)}, not 1")

    @classmethod
    def from_numerators(cls, numerators: list[int], denominator: int) -> "ProbabilityVector":
        """The masses n / denominator of integer numerators, checked with one
        integer sum; equal numerators share one Fraction."""
        if not numerators or min(numerators) < 0 or sum(numerators) != denominator:
            raise ValidationError(f"{len(numerators)} numerators over {denominator} are not "
                                  f"nonnegative with sum {denominator}")
        masses = {n: Fraction(n, denominator) for n in set(numerators)}
        vector = object.__new__(cls)
        object.__setattr__(vector, "entries", tuple(map(masses.__getitem__, numerators)))
        return vector

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def shannon_entropy(p: ProbabilityVector) -> float:
    """Shannon entropy in bits (0*log(0) = 0), summed over the distinct masses
    in sorted order, so it does not depend on the order of the atoms."""
    return entropy_of_groups(sorted(Counter(p.entries).items()))


def entropy_of_groups(groups: Iterable[tuple[Fraction, int]]) -> float:
    """-sum(count * m * log2(m)) over (mass m, count) pairs in the given order,
    at ENTROPY_PRECISION bits; :func:`shannon_entropy` passes its masses sorted.
    mpmath is imported here, on the first exact entropy, not with seqent."""
    import mpmath

    with mpmath.workprec(ENTROPY_PRECISION):
        total = mpmath.mpf(0)
        for mass, count in groups:
            if mass == 0:
                continue
            x = mpmath.mpf(mass.numerator) / mass.denominator
            total -= count * x * mpmath.log(x, 2)
        return float(total)


def _check_hashable(labels) -> None:
    """ValidationError unless every label can key its atom's measure."""
    try:
        hash(tuple(labels))
    except TypeError as exc:
        raise ValidationError(f"partition labels must be hashable: {exc}") from exc


@dataclass(frozen=True)
class IntervalPartition:
    """Finite labeled partition of [0,1) into half-open intervals.

    ``cuts`` are strictly increasing, start at 0 and stay below 1; gap i is
    ``[cuts[i], cuts[i+1])`` (the last gap wraps to 1) and carries
    ``labels[i]``.  An atom of the partition is the union of all gaps
    sharing a label, so non-adjacent gaps may repeat a label.
    """

    cuts: tuple[Fraction, ...]
    labels: tuple[Hashable, ...]

    def __post_init__(self):
        cuts = tuple(as_fraction(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not cuts or cuts[0] != 0:
            raise ValidationError("cuts must start at 0")
        if any(b <= a for a, b in zip(cuts, cuts[1:])) or cuts[-1] >= 1:
            raise ValidationError("cuts must be strictly increasing inside [0,1)")
        if len(labels) != len(cuts):
            raise ValidationError("need exactly one label per gap")
        _check_hashable(labels)

    @classmethod
    def from_cut_list(cls, cuts, labels=None) -> "IntervalPartition":
        cuts = tuple(as_fraction(c) for c in cuts)
        if labels is None:
            labels = tuple(range(len(cuts)))
        return cls(cuts, tuple(labels))

    @classmethod
    def from_lattice(cls, cuts: list[int], Q: int, labels: tuple) -> "IntervalPartition":
        """The partition with cuts c / Q, unchecked: for strictly increasing
        integer cuts from 0 below Q and one hashable label per cut, as a join
        of a checked partition has them."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "cuts", tuple(Fraction(c, Q) for c in cuts))
        object.__setattr__(partition, "labels", labels)
        return partition

    @classmethod
    def dyadic(cls, level: int) -> "IntervalPartition":
        """The 2**level equal dyadic intervals, distinctly labeled; BudgetError,
        before any is built, past MAX_JOIN_CUTS, which any join of them exceeds."""
        if (level := as_integer(level, "dyadic level")) < 0:
            raise ValidationError("dyadic level must be >= 0")
        if level >= MAX_JOIN_CUTS.bit_length():  # 2^level > MAX_JOIN_CUTS
            raise BudgetError(f"dyadic level {level} makes 2^{level} cuts, budget {MAX_JOIN_CUTS}")
        n = 2**level
        return cls(tuple(Fraction(k, n) for k in range(n)), tuple(range(n)))

    @classmethod
    def halves(cls) -> "IntervalPartition":
        return cls.dyadic(1)

    def label_at(self, x: Fraction) -> Hashable:
        """Label of the gap containing x (gaps are right-open)."""
        if not 0 <= x < 1:
            raise ValidationError(f"{x} outside [0,1)")
        i = bisect.bisect_right(self.cuts, x) - 1
        return self.labels[i]

    def measures_by_label(self) -> dict[Hashable, Fraction]:
        """Exact total measure per distinct label, in first-occurrence order."""
        out: dict[Hashable, Fraction] = {}
        for label, a, b in zip(self.labels, self.cuts, self.cuts[1:] + (ONE,)):
            out[label] = out.get(label, ZERO) + (b - a)
        return out


def partition_measures(xi) -> ProbabilityVector:
    """Exact atom-measure vector of a labeled partition (one entry per label)."""
    return ProbabilityVector(tuple(xi.measures_by_label().values()))


@dataclass(frozen=True)
class Rect:
    """Axis-parallel half-open rectangle [x0,x1) x [y0,y1)."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValidationError(f"degenerate rectangle {self}")

    @property
    def area(self) -> Fraction:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def check_tiling(rects: Sequence[Rect], what: str) -> tuple[tuple, tuple, np.ndarray]:
    """The cell grid of rectangles that tile the unit square exactly: the
    sorted distinct x edges and y edges (0 and 1 included) and the index of
    the one rectangle holding each (x gap, y gap) cell.  ValidationError if a
    rectangle leaves the square, two share a cell or a cell is left over;
    BudgetError, before the table is built, past MAX_TILING_CELLS cells.
    ``what`` names the rectangles in the message ("source", "image", ...)."""
    for i, r in enumerate(rects):
        if r.x0 < 0 or r.x1 > 1 or r.y0 < 0 or r.y1 > 1:
            raise ValidationError(f"{what} rectangle {i} leaves the unit square")
    xs = tuple(sorted({ZERO, ONE, *(v for r in rects for v in (r.x0, r.x1))}))
    ys = tuple(sorted({ZERO, ONE, *(v for r in rects for v in (r.y0, r.y1))}))
    cells = (len(xs) - 1) * (len(ys) - 1)
    if cells > MAX_TILING_CELLS:
        raise BudgetError(f"{what} rectangles make {cells} grid cells, budget {MAX_TILING_CELLS}")
    owner = np.full((len(xs) - 1, len(ys) - 1), -1, dtype=np.intp)
    for j, r in enumerate(rects):
        cell = owner[bisect.bisect_left(xs, r.x0):bisect.bisect_left(xs, r.x1),
                     bisect.bisect_left(ys, r.y0):bisect.bisect_left(ys, r.y1)]
        if (cell >= 0).any():
            raise ValidationError(f"{what} rectangles overlap at indices ({cell[cell >= 0].min()},{j})")
        cell[...] = j
    if (owner < 0).any():
        raise ValidationError(f"{what} rectangle areas do not sum to 1 (gap in the tiling)")
    return xs, ys, owner


def tile_at(grid: tuple[tuple, tuple, np.ndarray], x, y) -> int:
    """Index of the rectangle that holds the point (x, y) of the unit square,
    read from its tiling's :func:`check_tiling` grid."""
    xs, ys, owner = grid
    return int(owner[bisect.bisect_right(xs, x) - 1, bisect.bisect_right(ys, y) - 1])


@dataclass(frozen=True)
class RectanglePartition:
    """Labeled partition of the unit square into axis-parallel rectangles;
    ``grid`` (not a field) is the :func:`check_tiling` grid of the atoms."""

    atoms: tuple[tuple[Rect, Hashable], ...]

    def __post_init__(self):
        atoms = tuple((r, lab) for r, lab in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "grid", check_tiling([r for r, _ in atoms], "partition"))
        _check_hashable(lab for _, lab in atoms)

    @classmethod
    def quadrants(cls) -> "RectanglePartition":
        h = Fraction(1, 2)
        return cls(
            (
                (Rect(0, h, 0, h), 0),
                (Rect(h, 1, 0, h), 1),
                (Rect(0, h, h, 1), 2),
                (Rect(h, 1, h, 1), 3),
            )
        )

    @classmethod
    def vertical_halves(cls) -> "RectanglePartition":
        h = Fraction(1, 2)
        return cls(((Rect(0, h, 0, 1), 0), (Rect(h, 1, 0, 1), 1)))

    @classmethod
    def dyadic(cls, x_level: int, y_level: int) -> "RectanglePartition":
        x_level, y_level = as_integer(x_level, "x level"), as_integer(y_level, "y level")
        if min(x_level, y_level) < 0:
            raise ValidationError("dyadic levels must be >= 0")
        if x_level + y_level >= MAX_TILING_CELLS.bit_length():  # 2^(x+y) > MAX_TILING_CELLS
            raise BudgetError(f"dyadic levels ({x_level}, {y_level}) make 2^{x_level + y_level} "
                              f"grid cells, budget {MAX_TILING_CELLS}")
        nx, ny = 2**x_level, 2**y_level
        atoms = []
        for i in range(nx):
            for j in range(ny):
                atoms.append(
                    (
                        Rect(Fraction(i, nx), Fraction(i + 1, nx), Fraction(j, ny), Fraction(j + 1, ny)),
                        (i, j),
                    )
                )
        return cls(tuple(atoms))

    def label_at(self, pt) -> Hashable:
        x, y = pt
        if not (0 <= x < 1 and 0 <= y < 1):
            raise ValidationError(f"{pt} outside the unit square")
        return self.atoms[tile_at(self.grid, x, y)][1]

    def measures_by_label(self) -> dict[Hashable, Fraction]:
        out: dict[Hashable, Fraction] = {}
        for r, lab in self.atoms:
            out[lab] = out.get(lab, ZERO) + r.area
        return out
