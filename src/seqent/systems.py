"""Exact measure-preserving systems.

* :class:`IntervalExchange` -- piecewise translations of [0,1), closed under
  composition, inverse and integer powers, all computed exactly on the
  integer lattice of the common denominator (:class:`IetLattice`).
* :class:`RotationSpec` / :func:`golden_rotation` -- high-denominator
  continued-fraction convergents standing in for irrational angles, with a
  hard aliasing guard.
* :class:`RectangleExchange` -- exact exchanges of axis-parallel rectangles
  tiling the unit square.
* :class:`BakerMap` -- the planar model of the fair 2-symbol shift.
* :class:`BernoulliSystem` -- symbolic product-measure shift.

Maps are right-continuous: all pieces are half-open ``[a, b)``, so behavior
at cut points is deterministic and composition is associative off a finite set.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (ONE, ZERO, ProbabilityVector, Rect, as_fraction, as_integer, check_tiling,
                   shannon_entropy, tile_at)
from .errors import AliasingError, BudgetError, DomainError, ValidationError, MAX_POWER
from .segments import SegmentSet

# Aliasing guard: a rotation by p/q may only be iterated while
# (iteration time) * (interval count) stays below q / ALIAS_SAFETY.
ALIAS_SAFETY = 1000


@dataclass(frozen=True)
class IntervalExchange:
    """Interval exchange transformation of [0,1).

    ``lengths[i]`` is the length of the i-th domain subinterval (left to
    right); ``permutation[i]`` is the position that subinterval occupies in
    the image, also counted from the left.  ``alias_limit``, when set, is an
    integer >= 1 that bounds ``|power| * interval_count`` for any requested
    power.  ``cuts`` and ``translations`` (not fields) are the left end of
    each subinterval and the shift that moves it.
    """

    lengths: tuple[Fraction, ...]
    permutation: tuple[int, ...]
    alias_limit: int | None = None

    def __post_init__(self):
        lengths = tuple(as_fraction(v) for v in self.lengths)
        perm = tuple(as_integer(p, "permutation entry") for p in self.permutation)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "permutation", perm)
        if not lengths or any(v <= 0 for v in lengths):
            raise ValidationError("lengths must be positive")
        if sum(lengths) != 1:
            raise ValidationError("lengths must sum exactly to 1")
        if sorted(perm) != list(range(len(lengths))):
            raise ValidationError("permutation must be a bijection on the intervals")
        if self.alias_limit is not None and as_integer(self.alias_limit, "alias_limit") < 1:
            raise ValidationError(f"alias_limit must be >= 1, got {self.alias_limit}")
        cuts = [ZERO]
        for v in lengths[:-1]:
            cuts.append(cuts[-1] + v)
        object.__setattr__(self, "cuts", tuple(cuts))
        # left endpoint of each interval's image: a running sum in image order
        image_left = [ZERO] * len(lengths)
        left = ZERO
        for i in sorted(range(len(lengths)), key=perm.__getitem__):
            image_left[i] = left
            left += lengths[i]
        object.__setattr__(self, "translations", tuple(image_left[i] - cuts[i] for i in range(len(lengths))))

    # -- structure ---------------------------------------------------------

    @classmethod
    def identity(cls) -> "IntervalExchange":
        return cls((ONE,), (0,))

    @classmethod
    def rotation(cls, alpha, alias_limit: int | None = None) -> "IntervalExchange":
        """Rotation x -> x + alpha (mod 1) as a 2-interval exchange."""
        alpha = as_fraction(alpha) % 1
        if alpha == 0:
            return cls((ONE,), (0,), alias_limit=alias_limit)
        return cls((ONE - alpha, alpha), (1, 0), alias_limit=alias_limit)

    def __len__(self):
        return len(self.lengths)

    # -- action ------------------------------------------------------------

    def apply(self, x: Fraction) -> Fraction:
        x = as_fraction(x)
        if not 0 <= x < 1:
            raise DomainError(f"{x} outside [0,1)")
        i = bisect.bisect_right(self.cuts, x) - 1
        return x + self.translations[i]

    def inverse(self) -> "IntervalExchange":
        return IetLattice.of(self).inverse.to_iet(self.alias_limit)

    def compose(self, other: "IntervalExchange") -> "IntervalExchange":
        """The exchange realizing ``self o other`` pointwise off cut points."""
        Q = math.lcm(*(v.denominator for v in self.lengths + other.lengths))
        limits = [lim for lim in (self.alias_limit, other.alias_limit) if lim is not None]
        return IetLattice.of(self, Q).compose(IetLattice.of(other, Q)).to_iet(
            min(limits) if limits else None)

    def power(self, m: int) -> "IntervalExchange":
        """m-fold iterate (see :func:`powers_of`)."""
        return powers_of(self, [m])[m]


def int_dtype(bound: int):
    """int64 when integers of absolute value below 2*bound cannot overflow it,
    otherwise Python ints in object arrays."""
    return np.int64 if bound < 2**62 else object


def lattice_ints(values: Iterable[Fraction], Q: int) -> np.ndarray:
    """Rationals on the lattice of step 1/Q (each denominator divides Q), in
    units of 1/Q, as an array of :func:`int_dtype` (Q)."""
    return np.array([v.numerator * (Q // v.denominator) for v in values], dtype=int_dtype(Q))


@dataclass(frozen=True, eq=False)
class IetLattice:
    """An interval exchange on the integer lattice of step 1/Q.

    Piece k is ``[cuts[k], cuts[k+1])`` (the last ends at Q) and is moved by
    ``trans[k]``, all in units of 1/Q.  Every cut and translation of every
    power of a rational exchange lies on the lattice of the lcm Q of its
    length denominators, so all map algebra here is exact integer arithmetic
    (see :func:`int_dtype` for the array type).
    """

    Q: int
    cuts: np.ndarray
    trans: np.ndarray

    @classmethod
    def of(cls, T: IntervalExchange, Q: int | None = None) -> "IetLattice":
        """T on the lattice of step 1/Q (default: the lcm of its length denominators)."""
        Q = Q or math.lcm(*(v.denominator for v in T.lengths))
        return cls(Q, lattice_ints(T.cuts, Q), lattice_ints(T.translations, Q))

    def scaled(self, factor: int) -> "IetLattice":
        """The same map on the lattice of step 1/(Q*factor)."""
        dtype = int_dtype(self.Q * factor)
        return IetLattice(self.Q * factor, self.cuts.astype(dtype) * factor,
                          self.trans.astype(dtype) * factor)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x + self.trans[np.searchsorted(self.cuts, x, side="right") - 1]

    @cached_property
    def inverse(self) -> "IetLattice":
        """The inverse map, built once: a join places xi's edges with each
        power's inverse, and the powers sweep composes with the same one."""
        image = self.cuts + self.trans
        order = np.argsort(image, kind="stable")
        return IetLattice(self.Q, image[order], -self.trans[order])

    def compose(self, inner: "IetLattice") -> "IetLattice":
        """``self o inner``, with neighbouring pieces of equal translation
        merged (which also drops repeated cuts)."""
        cuts = np.sort(np.concatenate((inner.cuts, inner.inverse.apply(self.cuts))), kind="stable")
        trans = self.apply(inner.apply(cuts)) - cuts
        keep = np.ones(len(cuts), dtype=bool)
        keep[1:] = trans[1:] != trans[:-1]
        return IetLattice(self.Q, cuts[keep], trans[keep])

    @cached_property
    def shift(self) -> int | None:
        """rho if every translation is rho mod Q (x -> x + rho mod Q, a rotation), else None."""
        shifts = set((self.trans % self.Q).tolist())
        return shifts.pop() if len(shifts) == 1 else None

    def powers(self, times: Iterable[int]) -> Iterator[tuple[int, "IetLattice"]]:
        """(t, self^t) for each distinct t: 0 first, then one increasing
        sweep per sign.  Each step composes the previous power with the
        repeated squares of the base that make up the gap, so consecutive
        times cost one composition each and a gap g costs O(log g)."""
        times = set(times)
        zero = np.zeros(1, dtype=self.cuts.dtype)
        identity = IetLattice(self.Q, zero, zero)
        vars(identity)["inverse"] = identity  # its own, without a build
        if 0 in times:
            yield 0, identity
        for sign in (1, -1):
            squares = [self if sign > 0 else self.inverse]  # base^(2^j)
            cur, k = identity, 0
            for target in sorted(abs(t) for t in times if t * sign > 0):
                gap, j = target - k, 0
                while gap:
                    if j == len(squares):
                        squares.append(squares[-1].compose(squares[-1]))
                    if gap & 1:
                        cur = squares[j].compose(cur)
                    gap, j = gap >> 1, j + 1
                k = target
                yield sign * target, cur

    def to_iet(self, alias_limit: int | None) -> IntervalExchange:
        lengths = np.diff(np.append(self.cuts, self.Q))
        rank = np.empty(len(self.cuts), dtype=np.intp)
        rank[np.argsort(self.cuts + self.trans, kind="stable")] = np.arange(len(self.cuts))
        return IntervalExchange(tuple(Fraction(int(v), self.Q) for v in lengths),
                                tuple(int(r) for r in rank), alias_limit=alias_limit)


def check_powers(T, times: Sequence[int]) -> None:
    """Raise before any work if a requested power of T exceeds MAX_POWER or,
    for an interval exchange, the aliasing guard."""
    m = max((abs(t) for t in times), default=0)
    if m > MAX_POWER:
        raise BudgetError(f"|power| {m} exceeds MAX_POWER {MAX_POWER}")
    limit = T.alias_limit if isinstance(T, IntervalExchange) else None
    if limit is not None and m * len(T) > limit:
        raise AliasingError(
            f"power {m} with {len(T)} intervals exceeds aliasing guard {limit}")


def powers_of(T: IntervalExchange, times: Sequence[int]) -> dict[int, IntervalExchange]:
    """Powers T^t for each requested t, from one increasing sweep per sign on
    T's integer lattice (:meth:`IetLattice.powers`)."""
    times = [as_integer(t, "power") for t in times]
    check_powers(T, times)
    return {
        t: U.to_iet(T.alias_limit) if t else IntervalExchange.identity()
        for t, U in IetLattice.of(T).powers(times)
    }


# -- rotations via continued-fraction convergents ---------------------------


def fibonacci_numbers(n: int) -> list[int]:
    """First n Fibonacci numbers, F_1 = F_2 = 1."""
    fibs = [1, 1]
    while len(fibs) < n:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs[:n]


@dataclass(frozen=True)
class RotationSpec:
    """A rational convergent standing in for an irrational rotation angle.

    ``alpha = p/q`` in lowest terms, with q > ALIAS_SAFETY; all iteration
    requests must respect ``alias_limit = q // ALIAS_SAFETY``.
    """

    alpha: Fraction

    def __post_init__(self):
        alpha = as_fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not 0 < alpha < 1:
            raise ValidationError("rotation angle must lie in (0,1)")
        if alpha.denominator <= ALIAS_SAFETY:
            raise ValidationError(
                f"denominator {alpha.denominator} too small for a convergent stand-in"
            )

    @property
    def alias_limit(self) -> int:
        return self.alpha.denominator // ALIAS_SAFETY

    def to_iet(self) -> IntervalExchange:
        return IntervalExchange.rotation(self.alpha, alias_limit=self.alias_limit)


def golden_rotation(order: int = 41) -> RotationSpec:
    """Golden-mean convergent F_{order-1}/F_order; its rigidity times are the
    Fibonacci numbers below F_order (:func:`fibonacci_numbers`)."""
    if as_integer(order, "order") < 20:
        raise ValidationError("order must be >= 20 to clear the aliasing guard")
    fibs = fibonacci_numbers(order)
    return RotationSpec(Fraction(fibs[-2], fibs[-1]))


# -- rectangle exchanges -----------------------------------------------------


@dataclass(frozen=True)
class RectangleExchange:
    """Exchange of axis-parallel rectangles tiling [0,1)^2.

    ``sources[i]`` is translated by ``translations[i]``; both the sources and
    their images must tile the unit square exactly.  ``grid`` (not a field)
    is the :func:`~seqent.core.check_tiling` grid of the sources.
    """

    sources: tuple[Rect, ...]
    translations: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        sources = tuple(self.sources)
        translations = tuple((as_fraction(dx), as_fraction(dy)) for dx, dy in self.translations)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "translations", translations)
        if len(sources) != len(translations):
            raise ValidationError("need one translation per source rectangle")
        object.__setattr__(self, "grid", check_tiling(sources, "source"))
        check_tiling(self.images(), "image")

    def images(self) -> tuple[Rect, ...]:
        return tuple(
            Rect(r.x0 + dx, r.x1 + dx, r.y0 + dy, r.y1 + dy)
            for r, (dx, dy) in zip(self.sources, self.translations)
        )

    @classmethod
    def identity(cls) -> "RectangleExchange":
        return cls((Rect(0, 1, 0, 1),), ((ZERO, ZERO),))

    @classmethod
    def vertical_swap(cls) -> "RectangleExchange":
        h = Fraction(1, 2)
        return cls(
            (Rect(0, h, 0, 1), Rect(h, 1, 0, 1)),
            ((h, ZERO), (-h, ZERO)),
        )

    @classmethod
    def product_rotations(cls, alpha, beta) -> "RectangleExchange":
        """Torus translation (x,y) -> (x+alpha, y+beta) as a 4-rectangle exchange."""
        a, b = as_fraction(alpha) % 1, as_fraction(beta) % 1
        if a == 0 or b == 0:
            raise ValidationError("use nonzero angles for the product construction")
        ca, cb = ONE - a, ONE - b
        return cls(
            (
                Rect(0, ca, 0, cb),
                Rect(ca, 1, 0, cb),
                Rect(0, ca, cb, 1),
                Rect(ca, 1, cb, 1),
            ),
            ((a, b), (a - 1, b), (a, b - 1), (a - 1, b - 1)),
        )

    def apply(self, pt) -> tuple[Fraction, Fraction]:
        x, y = as_fraction(pt[0]), as_fraction(pt[1])
        if not (0 <= x < 1 and 0 <= y < 1):
            raise DomainError(f"point {pt} outside the unit square")
        dx, dy = self.translations[tile_at(self.grid, x, y)]
        return (x + dx, y + dy)

    def inverse(self) -> "RectangleExchange":
        return RectangleExchange(
            self.images(), tuple((-dx, -dy) for dx, dy in self.translations)
        )


@dataclass(frozen=True, eq=False)
class RectLattice:
    """A rectangle exchange on the integer lattice of step 1/Q.

    Row k of ``sources`` is source rectangle k as (x0, x1, y0, y1) and row k
    of ``trans`` its translation (dx, dy), in units of 1/Q.  Q is the lcm of
    the denominators of the sources, the translations and the ``extra``
    values (a partition's edges), so every comparison the exchange and the
    partition make is exact integer arithmetic (see :func:`int_dtype`).
    """

    Q: int
    sources: np.ndarray
    trans: np.ndarray

    @classmethod
    def of(cls, T: RectangleExchange, extra: Iterable[Fraction] = ()) -> "RectLattice":
        """T on its lattice, with ``grid`` (not a field): T's grid
        (:func:`~seqent.core.check_tiling`) as its x edges inside (0, Q), the
        same y edges, and the x and y translation of each (x gap, y gap) cell
        between them, flattened row by row."""
        corners = [v for r in T.sources for v in (r.x0, r.x1, r.y0, r.y1)]
        shifts = [v for d in T.translations for v in d]
        Q = math.lcm(*(v.denominator for v in (*corners, *shifts, *extra)))
        lattice = cls(Q, lattice_ints(corners, Q).reshape(-1, 4), lattice_ints(shifts, Q).reshape(-1, 2))
        xs, ys, owner = T.grid
        cell = owner.ravel()
        object.__setattr__(lattice, "grid", (lattice_ints(xs[1:-1], Q), lattice_ints(ys[1:-1], Q),
                                             lattice.trans[cell, 0], lattice.trans[cell, 1]))
        return lattice

    def apply(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exchange on arrays of lattice cells: cell (X, Y) is the square
        [X, X+1) x [Y, Y+1) / Q, which lies in one source (looked up by its
        gaps among the sources' edges) and moves with it."""
        xs, ys, dx, dy = self.grid
        cell = np.searchsorted(xs, X, side="right") * (len(ys) + 1) + np.searchsorted(ys, Y, side="right")
        return X + dx[cell], Y + dy[cell]


def interior_discontinuity_segments(T: RectangleExchange):
    """Axis-parallel boundary segments of the exchange's image rectangles that
    lie strictly inside the unit square: the seams the forward map creates.
    The set where T is discontinuous (its source-side seams) is this set for
    ``T.inverse()``.  Returns (vertical, horizontal) segment lists as
    (coordinate, lo, hi) triples; ValidationError unless T is a rectangle
    exchange.
    """
    if not isinstance(T, RectangleExchange):
        raise ValidationError(f"seams are those of a rectangle exchange, not {type(T).__name__}")
    vertical = []
    horizontal = []
    for r in T.images():
        for x in (r.x0, r.x1):
            if 0 < x < 1:
                vertical.append((x, r.y0, r.y1))
        for y in (r.y0, r.y1):
            if 0 < y < 1:
                horizontal.append((y, r.x0, r.x1))
    return vertical, horizontal


def discontinuity_length(T: RectangleExchange) -> Fraction:
    """Exact total length of the interior image-side discontinuity segments."""
    s = SegmentSet()
    vertical, horizontal = interior_discontinuity_segments(T)
    for x, lo, hi in vertical:
        s.add_vertical(x, lo, hi)
    for y, lo, hi in horizontal:
        s.add_horizontal(y, lo, hi)
    return s.total_length()


# -- baker's map -------------------------------------------------------------


@dataclass(frozen=True)
class BakerMap:
    """Invertible planar model of the fair 2-symbol Bernoulli shift.

    (x,y) -> (2x mod 1, (y + b)/2) with b the leading binary digit of x.
    Conjugate to the left shift on two-sided binary sequences, with x
    carrying coordinates 0,1,2,... and y carrying -1,-2,...
    """

    def apply(self, pt) -> tuple[Fraction, Fraction]:
        x, y = as_fraction(pt[0]), as_fraction(pt[1])
        if not (0 <= x < 1 and 0 <= y < 1):
            raise DomainError(f"point {pt} outside the unit square")
        b = 1 if x >= Fraction(1, 2) else 0
        return ((2 * x) % 1, (y + b) / 2)


# -- Bernoulli systems -------------------------------------------------------


@dataclass(frozen=True)
class BernoulliSystem:
    """Two-sided Bernoulli shift with exact product measure."""

    symbol_masses: tuple[Fraction, ...]

    def __post_init__(self):
        masses = tuple(as_fraction(v) for v in self.symbol_masses)
        object.__setattr__(self, "symbol_masses", masses)
        ProbabilityVector(masses)  # validates

    @classmethod
    def fair(cls) -> "BernoulliSystem":
        return cls((Fraction(1, 2), Fraction(1, 2)))

    @property
    def symbol_entropy_bits(self) -> float:
        return shannon_entropy(ProbabilityVector(self.symbol_masses))
