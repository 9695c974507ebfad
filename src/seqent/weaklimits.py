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
:func:`_numerators`, which evaluates the requested times in windows
[m0, m0 + B) of consecutive powers and returns each window as one stacked
(B, N, N) array for a family of N sets.  For an interval exchange the sets
are read from the complete dyadic family of their depth d, so B comes from
the element budget BLOCK_ENTRIES (B * (2^(d+1) - 1)^2 entries, at least one
power per window); a single time, and every power of the baker map, is a
window of one.  For an interval exchange whose lengths have lcm denominator
Q, every cut, translation and dyadic endpoint of every power is a multiple
of 1/G, G = Q * 2^d, so the powers are integer arrays
(:class:`~seqent.systems.IetLattice`).  Time m0 + k is the step power
T^k, built once per call, composed with T^m0 from one lattice sweep over
the window starts; one sort of all the gap points of a window (offset by
k * G), searches for their pieces and cells, and one scatter-add of the
gap lengths fill the window, whose rows are then summed over the dyadic
blocks.  Sums of lengths accumulate in float64 while G < 2^53, where every
sum up to G is exact, else in int64 while every intermediate stays below
2^62, else in Python integers.  For the baker map a test rectangle is a
(mask, bits) pair over shift coordinates.  Floats are c / G per entry, in
numpy while G < 2^53 and by Python's correctly rounded integer division
above, equal to float(Fraction(c, G)); the distances then run the same
operations in the same order on every matrix, so they do not depend on the
window size.  Pair and triple correlations are one exact mass, :func:`_mass`.
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
            raise ValidationError(f"bad dyadic interval ({self.level},{self.k})")

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
        if not self.sets:
            raise ValidationError("test family must be nonempty")
        levels = [s.level for s in self.sets]
        if min(levels) != 0:
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

    def pair_weight_matrix(self) -> np.ndarray:
        w = np.array([2.0 ** -s.level for s in self.sets])
        mat = np.outer(w, w)
        return mat / mat.sum()

    def measures(self) -> tuple[Fraction, ...]:
        return tuple(s.measure for s in self.sets)

    def sigmas(self) -> np.ndarray:
        mu = np.array([float(m) for m in self.measures()])
        return np.sqrt(mu * (1.0 - mu))


# -- the integer-lattice correlation kernel ---------------------------------------

# Entries of one window of stacked correlation matrices: sets of depth d
# evaluate about BLOCK_ENTRIES // (2^(d+1) - 1)^2 consecutive powers per window.
BLOCK_ENTRIES = 2**16


def _iet_blocks(T: IntervalExchange, starts: list[int], width: int, sets):
    """(G, iterator of (m0, C)) for an interval exchange: see :func:`_numerators`.

    Time m0 + k is P_k o V with V = T^m0 from one lattice sweep over the
    window starts and the step powers P_k = T^k built once.  Every gap between
    V's cuts, the cell edges and the V-preimages of P_k's cuts and of
    P_k^-1(edges) lies in one piece of P_k o V and one cell, and maps into one
    cell; the offsets k * G put all k of a window in one sorted array.  One
    scatter-add puts each gap's length in window k, in the row of its image
    cell and the column of every set holding its own cell, of the complete
    dyadic family of depth d: interval (l, k) is row and column 2^l - 1 + k,
    and cell c lies in the sets (l, c >> (d - l)).  The rows are then summed
    over each set by halving them level by level.  Any other family is read
    from the complete one by taking its rows and columns.
    """
    depth = max(s.level for s in sets)
    D, N = 1 << depth, (2 << depth) - 1
    pick = [(1 << s.level) - 1 + s.k for s in sets]  # the family's rows and columns,
    pick = None if pick == list(range(N)) else pick  # read C-contiguous, as the sums need
    levels = np.arange(depth + 1)
    members = (1 << levels) - 1 + (np.arange(D)[:, None] >> (depth - levels))  # [cell, level]
    lattice = IetLattice.of(T).scaled(D)
    G, dtype = lattice.Q, int_dtype(lattice.Q * width)
    lattice = IetLattice(G, lattice.cuts.astype(dtype), lattice.trans.astype(dtype))
    acc = np.float64 if G < 2**53 else dtype  # float64 sums of lengths up to G are exact
    # over k * D + cell: the flat offsets of its image's row and of its sets' columns
    row_offset = ((np.arange(width)[:, None] * N + np.arange(D - 1, N)) * N).ravel()
    columns = np.tile(members, (width, 1))
    R = np.zeros((width, N, N), dtype=acc)  # [k, image cell or set, set], reused
    edges = np.array([c * (G >> depth) for c in range(D)], dtype=dtype)  # cells' left ends
    shifts = np.arange(width, dtype=dtype) * G
    cells = (edges + shifts[:, None]).ravel()
    end = np.array([width * G], dtype=dtype)
    steps = [P for _, P in lattice.powers(range(width))]
    step_cuts = np.concatenate([P.cuts + s for P, s in zip(steps, shifts)])
    step_trans = np.concatenate([P.trans for P in steps])
    marks = [np.concatenate((P.cuts, P.inverse.apply(edges))) for P in steps]
    mark_shifts = np.repeat(shifts, [len(y) for y in marks])
    marks = np.concatenate(marks)

    def block(V: IetLattice) -> np.ndarray:
        x = np.sort(np.concatenate(((np.concatenate((V.cuts, edges)) + shifts[:, None]).ravel(),
                                    V.inverse.apply(marks) + mark_shifts, end)), kind="stable")
        left = x[:-1]
        pieces = np.searchsorted((V.cuts + shifts[:, None]).ravel(), left, side="right") - 1
        y = left + V.trans[pieces % len(V.cuts)]
        z = y + step_trans[np.searchsorted(step_cuts, y, side="right") - 1]
        src = np.searchsorted(cells, left, side="right") - 1  # k * D + cell
        dst = np.searchsorted(cells, z, side="right") - 1
        index = (row_offset[dst][:, None] + columns[src]).ravel()
        lengths = np.repeat(np.diff(x).astype(acc), depth + 1)
        R[:, D - 1:] = 0  # the rows of image cells; the others are overwritten
        np.add.at(R.reshape(-1), index, lengths)
        for level in range(depth - 1, -1, -1):
            first, mid = (1 << level) - 1, (2 << level) - 1
            np.add(R[:, mid:2 * mid + 1:2], R[:, mid + 1:2 * mid + 2:2], out=R[:, first:mid])
        return R if pick is None else np.take(np.take(R, pick, axis=1), pick, axis=2)

    return G, ((m0, block(V)) for m0, V in lattice.powers(starts))


def _cylinder_word(s: TestSet2D, offset: int) -> tuple[int, int]:
    """(mask, bits) of a test rectangle's cylinder: shift coordinate c is bit c + offset."""
    return (((1 << s.level) - 1) << (offset - s.ylevel),
            sum(b << (c + offset) for c, b in s.cylinder().items()))


def _baker_blocks(times: list[int], sets):
    """(G, iterator of (m, C)) for the baker map, one power per window, with
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

    return 2**top, ((m, block(m)) for m in times)


def _numerators(T, ms, sets):
    """(G, iterator of (m0, C)) with C[k, a, b] = G * mu(T^-(m0+k) A_a intersect A_b)
    for k < len(C), covering every requested m.

    For an interval exchange the times are taken in windows of B =
    BLOCK_ENTRIES // N^2 consecutive powers for the N = 2^(d+1) - 1 sets the
    kernel evaluates, at least one and at most sqrt(BLOCK_ENTRIES / pieces),
    since the step powers T^k, k < B, have up to B^2 * pieces cuts; with unit
    Q and sets of depth d, G = Q * 2^d.
    For the baker map the sets are shift cylinders and each window is one
    power.  Entries are exact integers, in float64 for an interval exchange
    while G < 2^53, else of :func:`int_dtype`.  A window may be a reused
    buffer, valid until the next.
    """
    check_sets(T, sets)
    times = sorted({as_integer(m, "time") for m in ms})
    check_powers(T, times)
    if isinstance(T, BakerMap):  # closed forms, whose temporaries are several stacks
        check_test_pairs(len(sets), "test sets")
        return _baker_blocks(times, sets)
    depth = max(s.level for s in sets)
    N = 2 ** (min(depth, 62) + 1) - 1  # (any depth past 62 is over)
    check_test_pairs(N, f"test sets of the complete dyadic family of depth {depth}, which an "
                        f"interval exchange evaluates for sets of level up to {depth},")
    B = max(1, min(BLOCK_ENTRIES // N**2, math.isqrt(BLOCK_ENTRIES // len(T))))
    starts, width = [], 1  # windows [m0, m0 + B) over the times; width: largest offset + 1
    for m in times:
        if starts and m < starts[-1] + B:
            width = max(width, m - starts[-1] + 1)
        else:
            starts.append(m)
    return _iet_blocks(T, starts, width, sets)


def _floats(G: int, C: np.ndarray) -> np.ndarray:
    """C / G rounded per entry exactly as float(Fraction(c, G)); a float64 C
    is divided in place."""
    if G < 2**53:  # both operands exact in float64: one correctly rounded division
        return np.divide(C, G, out=C if C.dtype == np.float64 else None)
    return (C.astype(object) / G).astype(float)


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


def _targets(family: TestFamily, mode: str) -> np.ndarray:
    if mode == "theta":
        mu = np.array([float(m) for m in family.measures()])
        return np.outer(mu, mu)
    identity = (IntervalExchange.identity() if isinstance(family.sets[0], TestSet1D)
                else BakerMap())
    G, blocks = _numerators(identity, [0], family.sets)
    return _floats(G, next(blocks)[1])[0]


def _distances(T, ms: Sequence[int], family: TestFamily, targets: np.ndarray) -> list[float]:
    """The weighted sigma-normalized deviation of T^m's float correlation matrix
    from ``targets`` for each m in ``ms``, one window of stacked matrices at a time."""
    w = family.pair_weight_matrix()
    s = family.sigmas()
    scale = np.outer(s, s)
    scale[scale == 0] = np.inf  # x / inf = 0: a set of zero variance contributes no deviation
    G, blocks = _numerators(T, ms, family.sets)
    values = {}
    for m0, C in blocks:
        c = _floats(G, C)
        np.subtract(c, targets, out=c)
        np.abs(c, out=c)
        np.divide(c, scale, out=c)
        np.multiply(w, c, out=c)
        for k, dev in enumerate(c):  # one sum per matrix: numpy's row-wise order
            values[m0 + k] = float(dev.sum())  # over a stack differs for short rows
        del C, c  # free this window before the next one is built
    return [values[m] for m in ms]  # integers: _numerators checked them


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
    mu = np.array(family.measures(), dtype=object)
    targets = Q.theta_weight * np.outer(mu, mu)  # exact Fractions, rounded once below
    for power, coeff in Q.terms:
        targets += coeff * np.array(correlation_matrix(T, power, family), dtype=object)
    return _distances(T, [m], family, targets.astype(float))[0]


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
    return _distances(T, ms, family, _targets(family, mode))


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
    """The scanned times first..m_cap; ValidationError if there are none.  Both
    ends pass :func:`check_powers` first, so a range beyond the power budget
    (or an interval exchange's aliasing guard) is rejected at once, never walked."""
    first, m_cap = as_integer(first, "first scanned time"), as_integer(m_cap, "m_cap")
    if m_cap < first:
        raise ValidationError(f"m_cap {m_cap} leaves no time to scan from m = {first}")
    check_powers(T, [first, m_cap])
    return range(first, m_cap + 1)


def mixing_time_scan(T, j: int, r: float, m_cap: int, family: TestFamily) -> ScanReport:
    """Scan m in (j, m_cap] for the first m with dist-to-Theta above r, a
    finite real (:func:`~seqent.core.as_real`, checked before any time)."""
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
