"""Weak-operator-limit diagnostics: correlations, distances to the
independence projection and to the identity, mixing/rigidity scans, and
triple-correlation statistics.

The weak-operator pseudometric is evaluated against a dyadic test family
with geometric level weights.  Every distance is sigma-normalized: each pair
(A,B) contributes its matrix coefficient deviation divided by sigma(A)sigma(B),
as for the centered indicators (1_A - mu(A))/sigma(A).  Without it the fixed
thresholds of the rigidity/mixing diagnostics would be dominated by a handful
of coarse sets.

All correlation matrices come from one exact integer kernel,
:func:`_numerators`, which returns the requested times in stacks.  For an
interval exchange whose lengths have lcm denominator Q, with sets of depth d,
every cut, translation and dyadic endpoint of every power is a multiple of
1/G, G = Q * 2^d, so the powers are integer arrays
(:class:`~seqent.systems.IetLattice`) from one lattice sweep, and each
power's gaps fill its 2^d x 2^d matrix of cells in the lattice's integers.
A set pair's numerator sums its cells: the complete dyadic family reads its
level pairs by halving the rows, then the columns (:func:`_pooled`), any
other family its pairs from prefix sums (:func:`_read`), so no path holds a
matrix of the complete family.  For the
baker map a test rectangle is a (mask, bits) pair over shift coordinates.
Pair and triple correlations are one exact mass, :func:`_mass`.

Every distance is one formula, and every target is admissible: Theta is 1
Theta and the identity 0 Theta + 1 T^0.  A pair's weight and sigma_a *
sigma_b depend only on the levels of its sets (a set of level l has measure
2^-l), so d(m) = sum over level pairs lp of c_lp * S_lp(m): S_lp is the exact
integer sum of |D * C_ab - t_ab| over the family's pairs of that level pair, C
= G * mu(T^-m A_a intersect A_b), t the target's numerators scaled by D, and
c_lp = w_lp / (sigma_a * sigma_b * D * G) is one float (:func:`_distances`,
all in integers of :func:`~seqent.systems.int_dtype`).  Under a rotation
C_ab depends only on the level pair and the class of u_a - u_b in steps of
the smaller set, and a power's overlaps are a window of 2^|l_a - l_b| + 1
consecutive classes; in the complete dyadic family every class holds the same
pairs, so S_lp has a closed form in the shift, O(1) per level pair and power
(:func:`_rotation_distances`), and any other family takes the kernel.  One
float step, :func:`_combine`, turns S into distances, so the paths agree bit
for bit because their sums are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import ONE, ZERO, IntervalPartition, as_fraction, as_integer, as_real
from .errors import MAX_TEST_PAIRS, BudgetError, ValidationError
from .seqentropy import _join_gaps
from .systems import (
    BakerMap,
    IetLattice,
    IntervalExchange,
    check_powers,
    int_dtype,
)


# -- test sets and families ----------------------------------------------------


def check_test_pairs(n_sets: int, what: str) -> None:
    """Raise before any work if n_sets evaluated test sets, ``what`` in the
    message, have more than MAX_TEST_PAIRS ordered pairs, each of which every
    scanned power evaluates."""
    if n_sets * n_sets > MAX_TEST_PAIRS:
        raise BudgetError(
            f"{n_sets} {what} make {n_sets * n_sets} pairs per power, budget {MAX_TEST_PAIRS}")


@dataclass(frozen=True)
class TestSet1D:
    """Dyadic interval [k/2^level, (k+1)/2^level)."""

    level: int
    k: int

    def __post_init__(self):
        level, k = as_integer(self.level, "level"), as_integer(self.k, "index")
        if level < 0 or not 0 <= k < 2**level:
            raise ValidationError(f"bad dyadic interval ({level},{k})")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "k", k)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.k, 2**self.level)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.k + 1, 2**self.level)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 2**self.level)


@dataclass(frozen=True)
class TestSet2D:
    """Dyadic rectangle; doubles as a bit-cylinder of the baker shift.

    Coordinates k >= 0 of the shift carry x-bit k+1, coordinates k < 0
    carry y-bit -k, so the rectangle fixes coords 0..xlevel-1 and
    -1..-ylevel.
    """

    xlevel: int
    xk: int
    ylevel: int
    yk: int

    def __post_init__(self):
        xlevel, xk = as_integer(self.xlevel, "x level"), as_integer(self.xk, "x index")
        ylevel, yk = as_integer(self.ylevel, "y level"), as_integer(self.yk, "y index")
        if xlevel < 0 or not 0 <= xk < 2**xlevel:
            raise ValidationError("bad dyadic x-interval")
        if ylevel < 0 or not 0 <= yk < 2**ylevel:
            raise ValidationError("bad dyadic y-interval")
        for name, value in zip(("xlevel", "xk", "ylevel", "yk"), (xlevel, xk, ylevel, yk)):
            object.__setattr__(self, name, value)

    @property
    def level(self) -> int:
        return self.xlevel + self.ylevel

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 2**self.level)


def check_sets(T, sets) -> None:
    """Raise ValidationError unless T has an exact correlation path for the test
    sets: TestSet1D under an interval exchange, TestSet2D under the baker map."""
    if not isinstance(T, (IntervalExchange, BakerMap)):
        raise ValidationError(f"no exact correlation path for {type(T).__name__}: only "
                              "interval exchanges and the baker map have one")
    want = TestSet1D if isinstance(T, IntervalExchange) else TestSet2D
    if not all(isinstance(s, want) for s in sets):
        raise ValidationError(f"test sets under {type(T).__name__} must be {want.__name__}")


@dataclass(frozen=True)
class TestFamily:
    """Dyadic test sets with geometric level weights.

    The weight of the ordered pair (i,j) is 2^-(level_i + level_j),
    normalized so all pair weights sum to 1; the family always contains
    the full space (level 0).
    """

    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValidationError("test family must be nonempty")
        if {type(s) for s in self.sets} not in ({TestSet1D}, {TestSet2D}):
            raise ValidationError("test family members must be all TestSet1D or all TestSet2D")
        if min(s.level for s in self.sets) != 0:
            raise ValidationError("test family must include the full space")

    @classmethod
    def dyadic_intervals(cls, depth: int) -> "TestFamily":
        """All dyadic intervals of level 0..depth (2^(depth+1)-1 sets)."""
        depth = as_integer(depth, "depth")
        check_test_pairs(2 ** (min(depth, 62) + 1) - 1, "test sets")  # (any depth past 62 is over)
        sets = [TestSet1D(l, k) for l in range(depth + 1) for k in range(2**l)]
        return cls(tuple(sets))

    @classmethod
    def dyadic_rectangles(cls, depth: int) -> "TestFamily":
        """All dyadic rectangles with per-axis level <= depth // 2."""
        per_axis = as_integer(depth, "depth") // 2
        check_test_pairs((2 ** (min(per_axis, 31) + 1) - 1) ** 2, "test sets")
        sets = [
            TestSet2D(i, a, j, b)
            for i in range(per_axis + 1)
            for a in range(2**i)
            for j in range(per_axis + 1)
            for b in range(2**j)
        ]
        return cls(tuple(sets))

    def __len__(self):
        return len(self.sets)


# -- the integer-lattice correlation kernel ---------------------------------------

# Entries of one stack: BLOCK_ENTRIES // 4^d powers of cell matrices at depth d.
BLOCK_ENTRIES = 3 * 2**15


def _cells(T: IntervalExchange, times: list[int], depth: int):
    """(G, iterator of (times, C)) for an interval exchange (:func:`_numerators`).
    The sorted union of a power U's cuts, the cell edges and U^-1(edges) cuts
    [0, G) into gaps, each of which lies in one piece of U and one cell and maps
    into one cell (a repeated point makes a gap of length 0); one scatter-add
    per power, as it comes, puts their lengths at (image cell, cell) of one
    array in the lattice's dtype, which the caller may overwrite: it is zeroed
    after each stack."""
    D = 1 << depth
    lattice = IetLattice.of(T).scaled(D)
    G, unit, dtype = lattice.Q, lattice.Q >> depth, lattice.cuts.dtype  # unit: a cell's length
    width = min(max(1, BLOCK_ENTRIES >> 2 * depth), len(times))
    R = np.zeros((width, D, D), dtype=dtype)  # [k, image cell, cell], reused
    edges, end = np.arange(D, dtype=dtype) * unit, np.array([G], dtype=dtype)  # cells' left ends

    def blocks():
        stack, left = [], len(times)  # the times of this stack; the times not yet yielded
        for m, U in lattice.powers(times):
            x = np.sort(np.concatenate((U.cuts, edges, U.inverse.apply(edges), end)))  # gaps' ends
            place = (U.apply(x[:-1]) // unit + len(stack) * D) * D + x[:-1] // unit
            np.add.at(R.reshape(-1), place.astype(np.intp, copy=False), np.diff(x))
            stack.append(m)
            if len(stack) == min(width, left):
                yield stack, R[:len(stack)]
                R[:len(stack)] = 0
                stack, left = [], left - len(stack)

    return G, blocks()


def _pooled(C: np.ndarray, depth: int):
    """(l_a, l_b, P) for every pair of levels, each from ``depth`` down to 0: P[k, a, b]
    sums the cell matrix C[k] over the image cells of interval (l_a, a) and the cells
    of (l_b, b), read by halving C's rows, then its columns, one level at a time."""
    for la in range(depth, -1, -1):
        P = C
        for lb in range(depth, -1, -1):
            yield la, lb, P
            P = P[..., ::2] + P[..., 1::2] if lb else P
        C = C[:, ::2] + C[:, 1::2] if la else C


def _read(T, C: np.ndarray, sets) -> np.ndarray:
    """The sets' matrices of a stack C of :func:`_numerators`: the baker map's
    as they are, an interval exchange's summed over each pair's cells from the
    2-D prefix sums of its cell matrices (exact: every partial sum is at most G)."""
    if isinstance(T, BakerMap):
        return C
    k, level = np.array([(s.k, s.level) for s in sets]).T
    lo, hi = (k << level.max() - level)[:, None], ((k + 1) << level.max() - level)[:, None]
    P = np.zeros((len(C), C.shape[1] + 1, C.shape[2] + 1), dtype=C.dtype)
    P[:, 1:, 1:] = C.cumsum(axis=1).cumsum(axis=2)
    return P[:, hi, hi.T] - P[:, lo, hi.T] - P[:, hi, lo.T] + P[:, lo, lo.T]


def _cylinder_word(s: TestSet2D, offset: int) -> tuple[int, int]:
    """(mask, bits) of a test rectangle's cylinder: shift coordinate c is bit c + offset,
    so the x index lies reversed from bit offset up and the y index just below it."""
    x = int(f"{s.xk:0{s.xlevel}b}"[::-1], 2)
    return ((1 << s.level) - 1) << (offset - s.ylevel), x << offset | s.yk << (offset - s.ylevel)


def _baker_blocks(times: list[int], sets):
    """(G, iterator of ([m], C)) for the baker map, one power per stack, with
    C[0] = 4^level * mu(S^-m A intersect B) for shift cylinders: A shifted by
    m and B are consistent iff their bits agree where both masks are set, and
    then the measure is 2^-(number of bits fixed by either)."""
    xl = np.array([s.xlevel for s in sets])
    yl = np.array([s.ylevel for s in sets])
    level = xl + yl
    span = int(xl.max() + yl.max())  # |m| >= span leaves no coordinate shared
    top = 2 * int(level.max())
    dtype = int_dtype(2 ** max(3 * span, top))
    offset = int(yl.max()) + span
    mask, bits = np.array([_cylinder_word(s, offset) for s in sets], dtype=dtype).T
    one = np.ones((), dtype=dtype)

    def block(m: int) -> np.ndarray:
        if abs(m) >= span:
            return np.outer(one << (top // 2 - level), one << (top // 2 - level))[None]
        sa, sb = (mask << m, bits << m) if m >= 0 else (mask >> -m, bits >> -m)
        clash = (sb[:, None] ^ bits) & sa[:, None] & mask != 0
        shared = np.maximum(np.minimum(xl[:, None] + m, xl) - np.maximum(m - yl[:, None], -yl), 0)
        C = one << (top - level[:, None] - level + shared)
        C[clash] = 0
        return C[None]

    return 2**top, (([m], block(m)) for m in times)


def _checked_times(T, ms, sets) -> list[int]:
    """The distinct times ``ms``, sorted, once T and the sets have an exact
    path, every time is an integer within the power budget, and the pairs
    each power evaluates are within MAX_TEST_PAIRS: all before any work."""
    check_sets(T, sets)
    times = sorted({as_integer(m, "time") for m in ms})
    check_powers(T, times)
    check_test_pairs(len(sets), "test sets")  # a family may repeat sets
    if isinstance(T, IntervalExchange):
        depth = max(s.level for s in sets)
        check_test_pairs(2 ** (min(depth, 62) + 1) - 1,  # (any depth past 62 is over)
                         f"test sets of the complete dyadic family of depth {depth}, which an "
                         f"interval exchange evaluates for sets of level up to {depth},")
    return times


def _numerators(T, ms, sets):
    """(G, iterator of (times, C)) covering every requested time once, in stacks,
    each valid until the next.  For an interval exchange C[k, i, j] = G * mu(T^-t
    cell_i intersect cell_j) for the k-th t of ``times`` over the 2^d cells of the
    sets' depth d (:func:`_cells`), BLOCK_ENTRIES // 4^d times per stack or one; for
    the baker map C[k, a, b] = G * mu(T^-t A_a intersect A_b) over the sets, one
    power per stack."""
    times = _checked_times(T, ms, sets)
    if isinstance(T, BakerMap):  # closed forms, whose temporaries are several stacks
        return _baker_blocks(times, sets)
    return _cells(T, times, max(s.level for s in sets))


def _mass(T, pairs) -> Fraction:
    """mu(intersection of T^-t A over the (A, t) pairs), exact at any depth:
    under an interval exchange, the mass of the gaps of one backward lattice
    join (which checks the powers) that lie in each A at its time; under the
    baker map, the cylinder rule of :func:`_baker_blocks` over all the pairs."""
    check_sets(T, [A for A, _ in pairs])
    if isinstance(T, IntervalExchange):
        bounds = sorted({ZERO, ONE, *(e for A, _ in pairs for e in (A.lo, A.hi))})
        cuts, Q, gaps = _join_gaps(T, IntervalPartition.from_cut_list(bounds[:-1]),
                                   [t for _, t in pairs], "backward")
        inside = np.logical_and.reduce([(bounds.index(A.lo) <= g) & (g < bounds.index(A.hi))
                                        for (A, _), g in zip(pairs, gaps)])
        return Fraction(int(np.diff(cuts, append=Q)[inside].sum()), Q)
    check_powers(T, [t for _, t in pairs])
    offset = max(A.ylevel - t for A, t in pairs)  # every bit position >= 0
    mask = bits = 0  # the cylinders so far, which do not clash
    for m1, b1 in (_cylinder_word(A, offset + t) for A, t in pairs):
        if (bits ^ b1) & mask & m1:
            return ZERO
        mask, bits = mask | m1, bits | b1
    return Fraction(1, 2 ** bin(mask).count("1"))


def correlation(T, A, B, m: int) -> Fraction:
    """mu(T^-m A intersect B), exact (:func:`_mass`).

    Supports interval exchanges with dyadic-interval test sets and the baker
    map with dyadic-rectangle test sets; general rectangle exchanges have no
    exact path.
    """
    return _mass(T, ((A, as_integer(m, "m")), (B, 0)))


def _sets(family) -> tuple:
    """``family``'s test sets: ValidationError unless it is a :class:`TestFamily`."""
    if not isinstance(family, TestFamily):
        raise ValidationError(f"a test family must be a TestFamily, not {type(family).__name__}")
    return family.sets


def correlation_matrix(T, m: int, family: TestFamily) -> list[list[Fraction]]:
    """Exact mu(T^-m A_i intersect A_j) for every ordered pair."""
    G, blocks = _numerators(T, [m], _sets(family))
    return [[Fraction(int(v), G) for v in row] for row in _read(T, next(blocks)[1], family.sets)[0]]


# -- weak distances ---------------------------------------------------------------


def _coefficients(sets, G: int, D: int | None) -> np.ndarray:
    """c_lp over the pairs of the sets' levels, ascending, l_a major: w_lp = mu_a
    mu_b / (sum of the sets' measures)^2, K_lp = 2^(l_a + l_b) if D is None
    (Theta), else D, and 0 for a level-0 set (sigma 0)."""
    levels = np.unique([s.level for s in sets])
    mu = np.ldexp(1.0, -levels)
    sigma = np.sqrt(mu * (1.0 - mu))
    KG = np.ldexp(float(G), levels[:, None] + levels) if D is None else float(D * G)
    scale = np.outer(sigma, sigma) * KG
    weight = np.outer(mu, mu) / math.fsum(2.0 ** -s.level for s in sets) ** 2
    return np.divide(weight, scale, out=np.zeros_like(weight), where=scale > 0).ravel()


def _combine(S: np.ndarray, c: np.ndarray) -> list[float]:
    """sum_lp c_lp * S_lp for each row of exact sums ``S``: each S_lp rounded once,
    then one pairwise sum per row of a C-ordered array, whatever path, stack,
    dtype or memory order gave S."""
    return (S.reshape(len(S), -1).astype(float, order="C") * c).sum(axis=1).tolist()


def _complete(sets) -> bool:
    """Whether the dyadic intervals are the complete family of their depth, in any order."""
    depth = max(s.level for s in sets)
    return len(sets) == (2 << depth) - 1 and sorted(
        (1 << s.level) - 1 + s.k for s in sets) == list(range(len(sets)))


def _distances(T, ms: Sequence[int], family: TestFamily, mode) -> list[float]:
    """The weak distances of T^m, m in ``ms``, to ``mode``'s target, an
    :class:`AdmissibleSpec` a Theta + sum c_i T^(p_i) ("theta" is 1 Theta and
    "identity" 0 Theta + 1 T^0): S_lp sums |D * C - t| over the level pair's
    pairs of the sets sorted by level, with D = 4^d lcm(denominators) and t =
    D G a mu_a mu_b + sum D c_i C_i, C_i read as C is, both divided by their
    gcd.  X = D * C - t is formed in place on each stack: per cell for the
    complete dyadic family (Theta's part of t is one value for every cell),
    whose level pairs are then pooled from X once, else per set pair, summed
    over each level's rows, then columns.  Arrays are int64 while n times the
    largest |X| fits (:func:`~seqent.systems.int_dtype`), else Python ints, and
    only the row sums are widened."""
    sets = sorted(family.sets, key=lambda s: s.level)  # each level's rows and columns together
    level = np.array([s.level for s in sets])
    depth, starts = int(level[-1]), np.unique(level, return_index=True)[1]
    G, blocks = _numerators(T, ms, sets)  # which checks T, the sets and the times first
    pooled = isinstance(T, IntervalExchange) and _complete(sets)  # (l_a, l_b) is S[:, l_a, l_b]
    if isinstance(mode, str):
        mode = AdmissibleSpec(ONE, ()) if mode == "theta" else AdmissibleSpec(ZERO, ((0, ONE),))
    a, terms = mode.theta_weight, mode.terms
    D = math.lcm(a.denominator, *(c.denominator for _, c in terms)) << 2 * depth
    itype = int_dtype(D * G)
    # a pair's cells, e_a e_b = 4^d mu_a mu_b, each D G a 4^-d of the Theta part
    e = np.ones(1, itype) if pooled else (1 << depth - level).astype(itype)
    t = np.outer(e, e)[None] * (G * int(D * a) >> 2 * depth)
    for p, c in terms:
        C = next(_numerators(T, [p], sets)[1])[1]
        t = t + int(D * c) * (C if pooled else _read(T, C, sets)).astype(itype)
    g = math.gcd(D, int(np.gcd.reduce(t, axis=None)))  # pooled: over the cells
    D, t = D // g, t // g
    dtype, wide = (int_dtype(n * D * G) for n in (len(sets), len(sets) ** 2))
    t, c, values = t.astype(dtype, copy=False), _coefficients(sets, G, D), {}
    for stack, C in blocks:
        X = (C if pooled else _read(T, C, sets)).astype(dtype, copy=False)  # ours to overwrite
        if D != 1:
            X *= D
        X -= t
        if pooled:
            S = np.zeros((len(stack), depth + 1, depth + 1), dtype=dtype)
            for la, lb, P in _pooled(X, depth):
                S[:, la, lb] = np.abs(P).sum(axis=(1, 2))
        else:
            np.abs(X, out=X)
            S = np.add.reduceat(np.add.reduceat(X, starts, axis=1).astype(wide, copy=False),
                                starts, axis=2)
        values.update(zip(stack, _combine(S, c)))
    return [values[m] for m in ms]  # integers: _numerators checked them


def _rotation_distances(T, Q: int, rho: int, ms: Sequence[int], family: TestFamily,
                        mode: str) -> list[float]:
    """:func:`_distances` to ``mode``'s target for T: x -> x + rho/Q mod 1 and
    the complete dyadic family, in closed form, with the same checks as
    :func:`_numerators` first.

    With G = Q * 2^d, T^m is the shift r = m * rho * 2^d mod G, and C_ab is the
    overlap of the arcs A_b and A_a - r of the circle of length G.  For levels
    (l_a, l_b), with s = G >> max(l_a, l_b), M = 2^|l_a - l_b| and u = r mod s,
    each of the 2^max(l_a, l_b) classes of u_a - u_b in steps of s holds mult =
    2^min(l_a, l_b) pairs, and T^m's overlaps are s - u, s (M - 1 times) and u
    on a window of M + 1 consecutive classes, 0 elsewhere.  Every Theta target
    is G, and K s = mult G for K = 2^(l_a + l_b), so

        S_lp = mult [(2^max - M - 1) G + (M - 1) |K s - G| + |K (s - u) - G| + |K u - G|]

    (0 if a level is 0: the window covers the circle).  The identity's target is
    the window at r = 0, an arc of L = M s, so S_lp = 2 mult (L - max(0, L - r) -
    max(0, L - (G - r))), L less the two arcs' overlap: 2 mult min(r, G - r, L,
    G - L).  Stacks hold BLOCK_ENTRIES >> 2d powers, at least one, as in :func:`_cells`.
    """
    times = _checked_times(T, ms, family.sets)
    depth = max(s.level for s in family.sets)
    G, theta = Q << depth, mode == "theta"
    la, lb = np.divmod(np.arange((depth + 1) ** 2), depth + 1)  # the level pairs, l_a major
    top, low = np.maximum(la, lb), np.minimum(la, lb)
    dtype = int_dtype(2 * G << 2 * depth)  # above every term and S_lp, of either target
    s, L = (np.array([G >> int(l) for l in v], dtype=dtype) for v in (top, low))
    mult, K, M = ((1 << v).astype(dtype) for v in (low, la + lb, top - low))
    base, near = (2 * M * mult - 2 * M - mult) * G, np.minimum(L, G - L)  # 2^max = M mult
    c, values = _coefficients(family.sets, G, None if theta else 1), {}
    shift, width = rho << depth, max(1, BLOCK_ENTRIES >> 2 * depth)
    for i in range(0, len(times), width):
        stack = times[i:i + width]
        r = np.array([m * shift % G for m in stack], dtype=dtype)[:, None]
        if theta:
            Ku = K * (r % s)
            S = mult * (base + np.abs((mult - 1) * G - Ku) + np.abs(Ku - G))
        else:
            S = 2 * mult * np.minimum(np.minimum(r, G - r), near)
        values.update(zip(stack, _combine(S, c)))
    return [values[m] for m in ms]


def dist_to_theta(T, m: int, family: TestFamily) -> float:
    """Weighted deviation of the T^m matrix coefficients from independence."""
    return _scan_distances(T, [m], family, "theta")[0]


def dist_to_identity(T, m: int, family: TestFamily) -> float:
    """Weighted deviation of the T^m matrix coefficients from the identity's."""
    return _scan_distances(T, [m], family, "identity")[0]


@dataclass(frozen=True)
class AdmissibleSpec:
    """Convex combination a*Theta + sum_i a_i T^(p_i) with nonnegative weights."""

    theta_weight: Fraction
    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        a = as_fraction(self.theta_weight)
        terms = tuple((as_integer(p, "admissible power"), as_fraction(c)) for p, c in self.terms)
        object.__setattr__(self, "theta_weight", a)
        object.__setattr__(self, "terms", terms)
        if a < 0 or any(c < 0 for _, c in terms):
            raise ValidationError("admissible coefficients must be nonnegative")
        if a + sum((c for _, c in terms), ZERO) != 1:
            raise ValidationError("admissible coefficients must sum exactly to 1")


def dist_to_admissible(T, m: int, Q: AdmissibleSpec, family: TestFamily) -> float:
    """Weighted deviation of T^m from the admissible operator Q(T)."""
    if not isinstance(Q, AdmissibleSpec):
        raise ValidationError(f"an admissible target must be an AdmissibleSpec, not {Q!r}")
    _sets(family)
    check_powers(T, [as_integer(m, "m"), *(p for p, _ in Q.terms)])  # before any matrix
    return _distances(T, [m], family, Q)[0]


# -- scans --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Per-m distance trace with threshold events.

    ``min_time`` is the first scanned m whose value crosses the threshold
    (the minimal mixing time for theta scans), or None if no crossing.
    """

    values: tuple[tuple[int, float], ...]
    events: tuple[tuple[int, float], ...]
    min_time: int | None

    def as_dicts(self) -> list[dict]:
        flagged = dict(self.events)
        return [
            {"m": m, "value": v, "event": int(m in flagged)} for m, v in self.values
        ]


def _scan_distances(T, ms: Sequence[int], family: TestFamily, mode: str) -> list[float]:
    """The distances to ``mode``'s targets: in closed form for the complete dyadic
    family under an interval exchange whose lattice translations are all
    congruent mod Q (a rotation, the identity included), else from the kernel."""
    sets = _sets(family)
    if isinstance(T, IntervalExchange):
        check_sets(T, sets)  # before a set's index is read
        lattice = IetLattice.of(T)
        if lattice.shift is not None and _complete(sets):
            return _rotation_distances(T, lattice.Q, lattice.shift, ms, family, mode)
    return _distances(T, ms, family, mode)


def _scan(T, ms: range, family: TestFamily, mode: str,
          event: Callable[[float], bool]) -> ScanReport:
    """The distances to ``mode``'s targets over ``ms``; events pass ``event``."""
    values = _scan_distances(T, ms, family, mode)
    events = tuple((m, v) for m, v in zip(ms, values) if event(v))
    return ScanReport(
        values=tuple(zip(ms, values)),
        events=events,
        min_time=events[0][0] if events else None,
    )


def scan_times(T, first: int, m_cap: int) -> range:
    """The scanned times first..m_cap; ValidationError if they start below 1
    or there are none.  Both ends pass :func:`check_powers` first, so a range
    beyond the power budget (or an interval exchange's aliasing guard) is
    rejected at once, never walked."""
    first, m_cap = as_integer(first, "first scanned time"), as_integer(m_cap, "m_cap")
    if first < 1:
        raise ValidationError(f"scanned times start at m = 1 or later, not at m = {first}")
    if m_cap < first:
        raise ValidationError(f"m_cap {m_cap} leaves no time to scan from m = {first}")
    check_powers(T, [first, m_cap])
    return range(first, m_cap + 1)


def mixing_time_scan(T, j: int, r: float, m_cap: int, family: TestFamily) -> ScanReport:
    """Scan m in (j, m_cap], j >= 0, for the first m with dist-to-Theta above
    r, a finite real (:func:`~seqent.core.as_real`, checked before any time)."""
    r = as_real(r, "r")
    return _scan(T, scan_times(T, as_integer(j, "j") + 1, m_cap), family, "theta", lambda v: v > r)


def rigidity_scan(T, m_cap: int, eps: float, family: TestFamily) -> ScanReport:
    """List all m <= m_cap with dist-to-identity below eps (rigidity times), a
    finite real (:func:`~seqent.core.as_real`, checked before any time)."""
    eps = as_real(eps, "epsilon")
    return _scan(T, scan_times(T, 1, m_cap), family, "identity", lambda v: v < eps)


# -- triple correlations ---------------------------------------------------------


def triple_times(T, m: int, n: int) -> tuple[int, int, int]:
    """The times (0, m, n) of a triple correlation: ValidationError if m = n,
    and m and n pass :func:`check_powers`."""
    m, n = as_integer(m, "m"), as_integer(n, "n")
    if m == n:
        raise ValidationError(f"triple correlation needs distinct times m != n, got {m} twice")
    check_powers(T, [m, n])
    return 0, m, n


def triple_correlation(T, A, m: int, n: int) -> Fraction:
    """mu(A intersect T^-m A intersect T^-n A), exact (:func:`_mass`)."""
    return _mass(T, [(A, t) for t in triple_times(T, m, n)])


def triple_correlation_limits(mu) -> tuple[Fraction, Fraction]:
    """The two candidate weak limits ( (mu + 2 mu^3)/3, mu^2 )."""
    mu = as_fraction(mu)
    return ((mu + 2 * mu**3) / 3, mu * mu)
