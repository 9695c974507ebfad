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
:func:`_numerators`, which returns the requested times in stacks, each a
(b, N, N) array for up to B times, for a family of N sets.  For an interval
exchange the sets are read from the complete dyadic family of their depth d,
so B comes from the element budget BLOCK_ENTRIES (B * (2^(d+1) - 1)^2
entries, at least one power per stack); every power of the baker map is a
stack of one.  For an interval exchange whose lengths have lcm denominator
Q, every cut, translation and dyadic endpoint of every power is a multiple
of 1/G, G = Q * 2^d, so the powers are integer arrays
(:class:`~seqent.systems.IetLattice`), built by one lattice sweep over the
times.  Each power's own gaps, between its cuts, the cell edges and their
preimages, are scatter-added into its matrix, whose rows and columns are
then summed over the dyadic blocks.  Sums of lengths accumulate in float64
while G < 2^53, where every sum up to G is exact, else in the lattice's
integers.  For the baker map a test rectangle is a (mask, bits) pair over
shift coordinates.  Pair and triple correlations are one exact mass,
:func:`_mass`.

Every distance is one formula.  A pair's weight, sigma_a * sigma_b and
Theta target depend only on the levels of its sets (a set of level l has
measure 2^-l), so d(m) = sum over level pairs lp of c_lp * S_lp(m): S_lp is
the exact integer sum of |K_lp * C_ab - t_ab| over the family's pairs of that
level pair, C = G * mu(T^-m A_a intersect A_b), and c_lp = w_lp / (sigma_a *
sigma_b * K_lp * G) is one float.  The kernel's and the baker map's stacks
become S in place (:func:`_distances`).  Under a rotation C_ab depends only
on the level pair and the class of u_a - u_b in steps of the smaller set,
and a power's classes are a window of 2^|l_a - l_b| + 1 consecutive ones:
the smaller arc clipped at both ends, then whole, then 0.  So S_lp is read
from prefix sums over the classes in a few gathers, O(levels^2) per power
(:func:`_rotation_distances`).  One float step,
:func:`_combine`, turns S into distances, so the paths agree bit for bit
because their sums are exact.
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

    def cylinder(self) -> dict[int, int]:
        """Fixed shift coordinates -> bits (x MSB first, y MSB first)."""
        out = {}
        for b in range(self.xlevel):
            out[b] = (self.xk >> (self.xlevel - 1 - b)) & 1
        for b in range(self.ylevel):
            out[-(b + 1)] = (self.yk >> (self.ylevel - 1 - b)) & 1
        return out


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

# Entries of one stack of correlation matrices: sets of depth d evaluate
# BLOCK_ENTRIES // (2^(d+1) - 1)^2 requested powers per stack.
BLOCK_ENTRIES = 3 * 2**15


def _family_reader(sets, N: int) -> Callable[[np.ndarray], np.ndarray]:
    """Reads the sets' rows and columns, in their order, from a stack of the
    complete dyadic family's N x N matrices, where interval (l, k) is row and
    column 2^l - 1 + k."""
    pick = [(1 << s.level) - 1 + s.k for s in sets]
    if pick == list(range(N)):
        return lambda stack: stack
    return lambda stack: np.take(np.take(stack, pick, axis=1), pick, axis=2)


def _iet_blocks(T: IntervalExchange, times: list[int], B: int, sets):
    """(G, iterator of (times, C)) for an interval exchange: see :func:`_numerators`.

    The requested powers U = T^m come from one lattice sweep over the times
    (:meth:`~seqent.systems.IetLattice.powers`).  The sorted union of U's
    cuts, the cell edges and U^-1(edges) cuts [0, G) into gaps, each of which
    lies in one piece of U and one cell and maps into one cell; a repeated
    point makes a gap of length 0, which adds nothing.  One scatter-add per
    power, as it comes, puts each gap's length in the power's matrix of the
    stack, in the row of its image cell and the column of its own cell of
    the complete dyadic family of depth d, where interval (l, k) is row and
    column 2^l - 1 + k, so cell c is 2^d - 1 + c; only one power's gaps are
    held at a time.  The image cells' columns, then all rows, of a full stack
    are summed over each set from its two halves, level by level.  Any other
    family is read from the complete one (:func:`_family_reader`).
    """
    depth = max(s.level for s in sets)
    D, N = 1 << depth, (2 << depth) - 1
    read = _family_reader(sets, N)
    lattice = IetLattice.of(T).scaled(D)
    G, unit, dtype = lattice.Q, lattice.Q >> depth, lattice.cuts.dtype  # unit: a cell's length
    acc = np.float64 if G < 2**53 else dtype  # float64 sums of lengths up to G are exact
    width = min(B, len(times))
    R = np.zeros((N, width, N), dtype=acc)  # [image cell or set, k, set], reused
    corner = (D - 1) * (width * N + 1)  # R[D - 1, 0, D - 1]: cell 0 to cell 0 at k = 0
    edges = np.arange(D, dtype=dtype) * unit  # cells' left ends
    end = np.array([G], dtype=dtype)  # the last gap's right end

    def blocks():
        stack, left = [], len(times)  # the times of this stack; the times not yet yielded
        for m, U in lattice.powers(times):
            if not stack:
                R[D - 1:, :, D - 1:] = 0  # the pyramids overwrite the other entries
            x = np.sort(np.concatenate((U.cuts, edges, U.inverse.apply(edges), end)))
            place = U.apply(x[:-1]) // unit * (width * N) + x[:-1] // unit  # (image cell, cell)
            place = place.astype(np.intp, copy=False) + (corner + len(stack) * N)
            np.add.at(R.reshape(-1), place, np.diff(x).astype(acc))
            stack.append(m)
            if len(stack) == min(B, left):
                C = R[:, :len(stack)]
                for view in (C[D - 1:].T, C):  # image cells' columns, then all rows
                    for level in range(depth - 1, -1, -1):
                        first, mid = (1 << level) - 1, (2 << level) - 1
                        np.add(view[mid:2 * mid + 1:2], view[mid + 1:2 * mid + 2:2],
                               out=view[first:mid])
                yield stack, read(C.swapaxes(0, 1))
                stack, left = [], left - len(stack)

    return G, blocks()


def _cylinder_word(s: TestSet2D, offset: int) -> tuple[int, int]:
    """(mask, bits) of a test rectangle's cylinder: shift coordinate c is bit c + offset."""
    return (((1 << s.level) - 1) << (offset - s.ylevel),
            sum(b << (c + offset) for c, b in s.cylinder().items()))


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
    """(G, iterator of (times, C)) with C[k, a, b] = G * mu(T^-t A_a intersect A_b)
    for the k-th t of ``times``, covering every requested time once.

    For an interval exchange a stack C holds up to B = BLOCK_ENTRIES // N^2
    requested times, at least one, whatever their spacing, for the N =
    2^(d+1) - 1 sets the kernel evaluates (:func:`_iet_blocks`); with unit Q
    and sets of depth d, G = Q * 2^d.
    For the baker map the sets are shift cylinders and each stack is one
    power.  Entries are exact integers, in float64 for an interval exchange
    while G < 2^53, else of :func:`int_dtype`.  A stack may be a reused
    buffer, valid until the next.
    """
    times = _checked_times(T, ms, sets)
    if isinstance(T, BakerMap):  # closed forms, whose temporaries are several stacks
        return _baker_blocks(times, sets)
    B = max(1, BLOCK_ENTRIES // ((2 << max(s.level for s in sets)) - 1) ** 2)
    return _iet_blocks(T, times, B, sets)


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


def correlation_matrix(T, m: int, family: TestFamily) -> list[list[Fraction]]:
    """Exact mu(T^-m A_i intersect A_j) for every ordered pair."""
    G, blocks = _numerators(T, [m], family.sets)
    return [[Fraction(int(v), G) for v in row] for row in next(blocks)[1][0]]


# -- weak distances ---------------------------------------------------------------


def _sum_dtype(bound: int):
    """float64 while every integer up to ``bound`` is exact in it, else :func:`int_dtype`."""
    return np.float64 if bound < 2**53 else int_dtype(bound)


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


def _target(T, sets, mode, G: int) -> tuple[int, np.ndarray]:
    """(D, t) for ``mode``'s target Z over the sets, "identity" (T^0's matrix)
    or an :class:`AdmissibleSpec` Q (Q(T)'s): D is the lcm of the denominators
    of G * Z and t = D * G * Z, from the kernel, whose G is T's at every power."""
    if mode == "identity":
        return 1, next(_numerators(T, [0], sets)[1])[1][0]
    depth, a = max(s.level for s in sets), mode.theta_weight
    D = math.lcm(a.denominator, *(c.denominator for _, c in mode.terms)) << 2 * depth
    e = np.array([1 << depth - s.level for s in sets], dtype=object)  # 4^d mu_a mu_b = e_a e_b
    t = np.outer(e, e) * (G * int(D * a) >> 2 * depth)
    for power, coeff in mode.terms:
        C = next(_numerators(T, [power], sets)[1])[1][0]
        t += int(D * coeff) * C.astype(int_dtype(G)).astype(object)
    g = math.gcd(D, *t.ravel().tolist())
    return D // g, t // g


def _distances(T, ms: Sequence[int], family: TestFamily, mode) -> list[float]:
    """The weak distances of T^m, m in ``ms``, to ``mode``'s target ("theta",
    "identity" or an :class:`AdmissibleSpec`) from the kernel's stacks C of the
    sets sorted by level: S = |K * C - t|, K = 2^(l_a + l_b) and t = G for
    Theta (else D and t of :func:`_target`), is summed over each level's rows,
    then columns.  S is formed in the stack's own array while n times the
    largest entry is exact in its dtype, and only the row sums are widened."""
    sets = sorted(family.sets, key=lambda s: s.level)  # each level's rows and columns together
    level = np.array([s.level for s in sets])
    levels, starts = np.unique(level, return_index=True)
    G, blocks = _numerators(T, ms, sets)
    D, t = (None, G) if mode == "theta" else _target(T, sets, mode, G)
    # the largest |K * C - t|: K * C <= G * 2^min(l_a, l_b) for Theta
    most = G * (D or 1 << int(levels[-1]))
    # a level's rows sum n entries, its columns n^2
    dtype, wide = _sum_dtype(len(sets) * most), _sum_dtype(len(sets) ** 2 * most)
    k = np.array([1 << int(l) for l in level])  # Theta's K = k_a * k_b
    rows, columns, t = (k[:, None], k, G) if D is None else (D, 1, t.astype(dtype))
    c = _coefficients(sets, G, D)
    values = {}
    for stack, C in blocks:
        S = C.astype(dtype, copy=False)  # a reused stack is overwritten by the next
        S *= rows
        S *= columns
        S -= t
        np.abs(S, out=S)
        S = np.add.reduceat(np.add.reduceat(S, starts, axis=1).astype(wide, copy=False),
                            starts, axis=2)
        values.update(zip(stack, _combine(S, c)))
    return [values[m] for m in ms]  # integers: _numerators checked them


def _rotation_distances(T, Q: int, rho: int, ms: Sequence[int], family: TestFamily,
                        mode: str) -> list[float]:
    """:func:`_distances` to ``mode``'s target for T: x -> x + rho/Q mod 1, in
    closed form, with the same checks as :func:`_numerators` first.

    With G = Q * 2^d, T^m is the shift r = m * rho * 2^d mod G, and C_ab is the
    overlap of the arcs A_b and A_a - r of the circle of length G.  It depends
    only on the two levels and on the class j = (u_a - u_b) / s mod 2^l of the
    left ends u, l = max(l_a, l_b) and s = G >> l, and the family holds
    mult_j pairs of class j: 2^min(l_a, l_b) in a complete family, else one
    bincount over the family's pairs.  With M = 2^|l_a - l_b|, q = r // s
    and u = r mod s, the classes of T^m are a window of M + 1 from p = q
    (l_a >= l_b) or p = q - M + 1 (l_a < l_b), mod 2^l: s - u at p, s at
    p+1 .. p+M-1, u at p+M, 0 elsewhere; the identity's are the window at
    r = 0.  So with h_j = mult_j |t_j| and g_j = mult_j |K s - t_j|,

        S_lp = H - h[p..p+M] + g[p+1..p+M-1]
               + mult_p |K (s - u) - t_p| + mult_{p+M} |K u - t_{p+M}|,

    H the sum of h, read from prefix sums over the classes twice over (so no
    window wraps): a few gathers per level pair and power.  A level-0 set's
    window covers the circle (every class holds s), and the rule gives S_lp =
    the sum of g.  Stacks hold BLOCK_ENTRIES // (the level pairs' classes)
    powers, at least one.
    """
    sets = sorted(family.sets, key=lambda s: s.level)
    times = _checked_times(T, ms, sets)
    level = np.array([s.level for s in sets])
    levels, index = np.unique(level, return_inverse=True)
    depth, n, L = int(levels[-1]), len(sets), len(levels)
    G, itype = Q << depth, int_dtype(Q << depth)
    la, lb = (levels[i] for i in np.divmod(np.arange(L * L), L))  # the level pairs, l_a major
    top = np.maximum(la, lb)
    counts = 1 << top  # classes of each level pair
    first = np.cumsum(counts) - counts
    if [(1 << s.level) - 1 + s.k for s in sets] == list(range((2 << depth) - 1)):
        mult = np.repeat(1 << np.minimum(la, lb), counts)
    else:
        u = np.array([s.k << depth - s.level for s in sets])  # left ends, in units of G >> d
        a, b = np.divmod(np.arange(n * n), n)
        pair = index[a] * L + index[b]
        j = (u[a] - u[b]) % (1 << depth) >> depth - top[pair]
        mult = np.bincount(first[pair] + j, minlength=counts.sum())
    theta = mode == "theta"
    # the prefix sums and their differences stay below 4 * n^2 times the largest |K * C - t|
    dtype = _sum_dtype(4 * n * n * (G << depth if theta else G))
    M = 1 << abs(la - lb)  # the smaller set's arcs in the larger one
    start = np.where(la < lb, M - 1, 0)  # the window starts at class q - start
    base = 2 * first  # each level pair's classes, twice over
    pair = np.repeat(np.arange(L * L), 2 * counts)
    j = (np.arange(2 * counts.sum()) - base[pair]) & (counts[pair] - 1)
    s = [G >> int(l) for l in top]
    K = np.array([1 << int(a + b) if theta else 1 for a, b in zip(la, lb)], dtype=dtype)
    Ks = K * np.array(s, dtype=dtype)
    t = np.full(len(j), G, dtype=dtype) if theta else np.where(  # the identity: Ks = s
        ((j + start[pair]) & (counts[pair] - 1)) < M[pair], Ks[pair], 0).astype(dtype)
    mult = mult[first[pair] + j].astype(dtype)
    X, Y = (np.zeros(len(j) + 1, dtype=dtype) for _ in range(2))  # exclusive prefix sums
    np.cumsum(mult * t, out=X[1:])  # of h
    np.cumsum(mult * np.abs(Ks[pair] - t), out=Y[1:])  # of g
    H, after, before = X[base + counts] - X[base], Y[:-1] - X[1:], Y[1:] - X[:-1]
    c, values = _coefficients(sets, G, None if theta else 1), {}
    s, shift, width = np.array(s, dtype=itype), rho << depth, max(1, BLOCK_ENTRIES // counts.sum())
    for i in range(0, len(times), width):
        stack = times[i:i + width]
        r = np.array([m * shift % G for m in stack], dtype=itype)[:, None]
        q = r // s
        p = base + ((q.astype(np.intp) - start) & (counts - 1))
        e = p + M
        Ku = K * (r - q * s).astype(dtype)
        S = H + after[e] - before[p]  # H - h[p..e] + g[p+1..e-1]
        S += mult[p] * np.abs(Ks - Ku - t[p])
        S += mult[e] * np.abs(Ku - t[e])
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
    """The distances to ``mode``'s targets: in closed form for an interval
    exchange whose lattice translations are all congruent mod Q (a rotation,
    the identity included), else from the kernel."""
    if isinstance(T, IntervalExchange):
        lattice = IetLattice.of(T)
        if lattice.shift is not None:
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
