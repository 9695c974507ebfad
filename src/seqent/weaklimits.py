"""Weak-operator-limit diagnostics: correlations, distances to the
independence projection and to the identity, mixing/rigidity scans, and
triple-correlation statistics.

The weak-operator pseudometric is evaluated against a dyadic test family
with geometric level weights.  Each pair (A,B) contributes its matrix
coefficient deviation normalized to the centered indicators
(1_A - mu(A))/sigma(A): without this normalization the fixed thresholds of
the rigidity/mixing diagnostics would be dominated by a handful of coarse
sets.

All correlations come from one exact integer kernel, :func:`_numerators`.
For an interval exchange whose lengths have lcm denominator Q and test sets
of depth d, every cut, translation and dyadic endpoint of every power is a
multiple of 1/G, G = Q * 2^d: the powers are integer arrays
(:class:`~seqent.systems.IetLattice`), and the dyadic block sums of each
power's finest-cell matrix give every correlation at once.  For the baker
map a test rectangle is a (mask, bits) pair over shift coordinates.  Arrays
are int64 while every intermediate stays below 2^62, else Python integers;
floats are c / G per entry, in numpy while G < 2^53 and by Python's
correctly rounded integer division above, equal to float(Fraction(c, G)).
An interval exchange's triple correlation is one atom of a lattice join
(:func:`~seqent.seqentropy.join_partition`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import ONE, ZERO, IntervalPartition, Rect, as_fraction
from .errors import ValidationError
from .seqentropy import join_partition
from .systems import (
    BakerMap,
    IetLattice,
    IntervalExchange,
    check_powers,
    int_dtype,
)


# -- test sets and families ----------------------------------------------------


@dataclass(frozen=True)
class TestSet1D:
    """Dyadic interval [k/2^level, (k+1)/2^level)."""

    level: int
    k: int

    def __post_init__(self):
        if self.level < 0 or not 0 <= self.k < 2**self.level:
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
        if self.xlevel < 0 or not 0 <= self.xk < 2**self.xlevel:
            raise ValidationError("bad dyadic x-interval")
        if self.ylevel < 0 or not 0 <= self.yk < 2**self.ylevel:
            raise ValidationError("bad dyadic y-interval")

    @property
    def level(self) -> int:
        return self.xlevel + self.ylevel

    @property
    def rect(self) -> Rect:
        return Rect(
            Fraction(self.xk, 2**self.xlevel),
            Fraction(self.xk + 1, 2**self.xlevel),
            Fraction(self.yk, 2**self.ylevel),
            Fraction(self.yk + 1, 2**self.ylevel),
        )

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


def vertical_half(k: int = 0) -> TestSet2D:
    """[k/2,(k+1)/2) x [0,1): the generating partition atom of the baker map."""
    return TestSet2D(1, k, 0, 0)


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
        sets = [TestSet1D(l, k) for l in range(depth + 1) for k in range(2**l)]
        return cls(tuple(sets))

    @classmethod
    def dyadic_rectangles(cls, depth: int) -> "TestFamily":
        """All dyadic rectangles with per-axis level <= depth // 2."""
        per_axis = depth // 2
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

    def set_weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, 2**s.level) for s in self.sets)

    def pair_weight_matrix(self) -> np.ndarray:
        w = np.array([float(x) for x in self.set_weights()])
        mat = np.outer(w, w)
        return mat / mat.sum()

    def measures(self) -> tuple[Fraction, ...]:
        return tuple(s.measure for s in self.sets)

    def sigmas(self) -> np.ndarray:
        mu = np.array([float(m) for m in self.measures()])
        return np.sqrt(mu * (1.0 - mu))


# -- the integer-lattice correlation kernel ---------------------------------------


def _halvings(x: np.ndarray, depth: int) -> np.ndarray:
    """Rows of x summed over every dyadic block of rows, coarsest level first."""
    levels = [x]
    for _ in range(depth):
        x = x[0::2] + x[1::2]
        levels.append(x)
    return np.concatenate(levels[::-1])


def _dyadic_sums(M: np.ndarray, depth: int) -> np.ndarray:
    """Block sums of a finest-cell matrix over every pair of dyadic intervals
    of level <= depth, ordered by (level, k) along both axes."""
    return _halvings(_halvings(M.T, depth).T, depth)


def _range_sums(M: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of M over every pair of cell ranges [lo_a, hi_a) x [lo_b, hi_b)."""
    S = np.zeros((len(M) + 1, len(M) + 1), dtype=M.dtype)
    S[1:, 1:] = M.cumsum(axis=0).cumsum(axis=1)
    return S[np.ix_(hi, hi)] - S[np.ix_(lo, hi)] - S[np.ix_(hi, lo)] + S[np.ix_(lo, lo)]


def _cell_matrix(U: IetLattice, edges: np.ndarray) -> np.ndarray:
    """G * mu(U^-1 I_i intersect I_j) over the cells I_i = [edges[i], edges[i+1]).

    Every gap between the piece cuts, the cell edges and the cell edges'
    preimages lies in one piece and one cell and maps into one cell, so its
    length is added to that single entry (repeated points leave empty gaps).
    """
    n = len(edges) - 1
    x = np.sort(np.concatenate((U.cuts, edges, U.inverse().apply(edges[:-1]))), kind="stable")
    cells = np.searchsorted(edges, np.stack((U.apply(x[:-1]), x[:-1])), side="right") - 1
    M = np.zeros(n * n, dtype=U.cuts.dtype)
    np.add.at(M, cells[0] * n + cells[1], x[1:] - x[:-1])
    return M.reshape(n, n)


def _cylinder_word(s: TestSet2D, offset: int) -> tuple[int, int]:
    """(mask, bits) of a test rectangle's cylinder: shift coordinate c is bit c + offset."""
    return (((1 << s.level) - 1) << (offset - s.ylevel),
            sum(b << (c + offset) for c, b in s.cylinder().items()))


def _baker_matrices(ms, sets) -> Iterator[tuple[int, np.ndarray]]:
    """4^level * mu(S^-m A intersect B) for shift cylinders: A shifted by m
    and B are consistent iff their bits agree where both masks are set, and
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
    for m in ms:
        if abs(m) >= span:
            yield m, np.outer(one << (top // 2 - level), one << (top // 2 - level))
            continue
        sa, sb = (mask << m, bits << m) if m >= 0 else (mask >> -m, bits >> -m)
        clash = (sb[:, None] ^ bits) & sa[:, None] & mask != 0
        shared = np.maximum(np.minimum(xl[:, None] + m, xl) - np.maximum(m - yl[:, None], -yl), 0)
        C = one << (top - level[:, None] - level + shared)
        C[clash] = 0
        yield m, C


def _numerators(T, ms, sets) -> tuple[int, Iterator[tuple[int, np.ndarray]]]:
    """(G, iterator of (m, C)) with C[a, b] = G * mu(T^-m A_a intersect A_b).

    For an interval exchange of unit Q and sets of depth d, G = Q * 2^d and
    the powers come from one lattice sweep per sign; for the baker map the
    sets are shift cylinders.  Entries are exact integers (int64 or Python
    ints, see :func:`int_dtype`).
    """
    ms = [int(m) for m in ms]
    if isinstance(T, IntervalExchange):
        check_powers(T, ms)
        depth = max(s.level for s in sets)
        lattice = IetLattice.of(T).scaled(1 << depth)
        D = 1 << depth
        lo = [s.k << (depth - s.level) for s in sets]  # in cells of level depth
        hi = [(s.k + 1) << (depth - s.level) for s in sets]
        # every dyadic interval up to depth in (level, k) order: dyadic block
        # sums; otherwise cells between the sets' own endpoints
        complete = len(sets) == 2 * D - 1 and [(s.level, s.k) for s in sets] == [
            (l, k) for l in range(depth + 1) for k in range(1 << l)]
        grid = range(D + 1) if complete else sorted({0, D, *lo, *hi})
        a, b = np.searchsorted(grid, lo), np.searchsorted(grid, hi)
        edges = np.array([g * (lattice.Q >> depth) for g in grid], dtype=lattice.cuts.dtype)

        def sums(M):
            return _dyadic_sums(M, depth) if complete else _range_sums(M, a, b)

        return lattice.Q, ((m, sums(_cell_matrix(U, edges))) for m, U in lattice.powers(ms))
    if isinstance(T, BakerMap):
        return 4 ** max(s.level for s in sets), _baker_matrices(ms, sets)
    raise ValidationError(
        f"no exact correlation path for {type(T).__name__}: only interval exchanges "
        "and the baker map have one"
    )


def _fractions(G: int, C: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(int(v), G) for v in row] for row in C]


def _floats(G: int, C: np.ndarray) -> np.ndarray:
    """C / G rounded per entry exactly as float(Fraction(c, G))."""
    if G < 2**53:  # both operands exact in float64: one correctly rounded division
        return C / G
    return (C.astype(object) / G).astype(float)


def correlation(T, A, B, m: int) -> Fraction:
    """mu(T^-m A intersect B), exact.

    Supports interval exchanges with dyadic-interval test sets and the baker
    map with dyadic-rectangle test sets; general rectangle exchanges have no
    exact path.
    """
    G, mats = _numerators(T, [m], (A, B))
    return Fraction(int(next(mats)[1][0, 1]), G)


def correlation_matrix(T, m: int, family: TestFamily) -> list[list[Fraction]]:
    """Exact mu(T^-m A_i intersect A_j) for every ordered pair."""
    G, mats = _numerators(T, [m], family.sets)
    return _fractions(G, next(mats)[1])


# -- weak distances ---------------------------------------------------------------


def _targets(family: TestFamily, mode: str) -> np.ndarray:
    if mode == "theta":
        mu = np.array([float(m) for m in family.measures()])
        return np.outer(mu, mu)
    if mode == "identity":
        identity = (IntervalExchange.identity() if isinstance(family.sets[0], TestSet1D)
                    else BakerMap())
        G, mats = _numerators(identity, [0], family.sets)
        return _floats(G, next(mats)[1])
    raise ValidationError(f"unknown scan mode {mode!r}")


def _distance_to(targets: np.ndarray, family: TestFamily, normalized: bool = True):
    """The weighted deviation of a float correlation matrix from ``targets``
    (the matrix is overwritten)."""
    w = family.pair_weight_matrix()
    s = family.sigmas()
    ss = np.outer(s, s)
    # x / inf = 0: a set of zero variance contributes no deviation
    scale = np.where(ss > 0, ss, np.inf)

    def distance(c: np.ndarray) -> float:
        np.subtract(c, targets, out=c)
        np.abs(c, out=c)
        if normalized:
            np.divide(c, scale, out=c)
        np.multiply(w, c, out=c)
        return float(c.sum())

    return distance


def dist_to_theta(T, m: int, family: TestFamily, normalized: bool = True) -> float:
    """Weighted deviation of the T^m matrix coefficients from independence."""
    return _scan_distances(T, [m], family, "theta", normalized)[0]


def dist_to_identity(T, m: int, family: TestFamily, normalized: bool = True) -> float:
    """Weighted deviation of the T^m matrix coefficients from the identity's."""
    return _scan_distances(T, [m], family, "identity", normalized)[0]


@dataclass(frozen=True)
class AdmissibleSpec:
    """Convex combination a*Theta + sum_i a_i T^(p_i) with nonnegative weights."""

    theta_weight: Fraction
    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        a = as_fraction(self.theta_weight)
        terms = tuple((int(p), as_fraction(c)) for p, c in self.terms)
        object.__setattr__(self, "theta_weight", a)
        object.__setattr__(self, "terms", terms)
        if a < 0 or any(c < 0 for _, c in terms):
            raise ValidationError("admissible coefficients must be nonnegative")
        if a + sum((c for _, c in terms), ZERO) != 1:
            raise ValidationError("admissible coefficients must sum exactly to 1")

    @classmethod
    def pure_theta(cls) -> "AdmissibleSpec":
        return cls(ONE, ())

    @classmethod
    def pure_identity(cls) -> "AdmissibleSpec":
        return cls(ZERO, ((0, ONE),))


def dist_to_admissible(T, m: int, Q: AdmissibleSpec, family: TestFamily,
                       normalized: bool = True) -> float:
    """Weighted deviation of T^m from the admissible operator Q(T)."""
    mu = family.measures()
    n = len(family)
    targets = [[Q.theta_weight * mu[i] * mu[j] for j in range(n)] for i in range(n)]
    for power, coeff in Q.terms:
        term = correlation_matrix(T, power, family)
        for i in range(n):
            for j in range(n):
                targets[i][j] += coeff * term[i][j]
    G, mats = _numerators(T, [m], family.sets)
    distance = _distance_to(np.array([[float(v) for v in row] for row in targets]),
                            family, normalized)
    return distance(_floats(G, next(mats)[1]))


# -- scans --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Per-m distance trace with threshold events.

    ``min_time`` is the first scanned m whose value crosses the threshold
    (the minimal mixing time for theta scans), or None if no crossing.
    """

    kind: str
    threshold: float
    values: tuple[tuple[int, float], ...]
    events: tuple[tuple[int, float], ...]
    min_time: int | None

    def as_dicts(self) -> list[dict]:
        flagged = dict(self.events)
        return [
            {"m": m, "value": v, "event": int(m in flagged)} for m, v in self.values
        ]


def _scan_distances(T, ms: Sequence[int], family: TestFamily, mode: str,
                    normalized: bool = True) -> list[float]:
    ms = list(ms)
    if not ms:
        return []
    distance = _distance_to(_targets(family, mode), family, normalized)
    G, mats = _numerators(T, ms, family.sets)
    values = {m: distance(_floats(G, C)) for m, C in mats}
    return [values[m] for m in ms]


def mixing_time_scan(T, j: int, r: float, m_cap: int, family: TestFamily,
                     normalized: bool = True) -> ScanReport:
    """Scan m in (j, m_cap] for the first m with dist-to-Theta above r."""
    if m_cap <= j:
        raise ValidationError("m_cap must exceed j")
    ms = list(range(j + 1, m_cap + 1))
    values = _scan_distances(T, ms, family, "theta", normalized)
    events = tuple((m, v) for m, v in zip(ms, values) if v > r)
    return ScanReport(
        kind="mixing",
        threshold=r,
        values=tuple(zip(ms, values)),
        events=events,
        min_time=events[0][0] if events else None,
    )


def rigidity_scan(T, m_cap: int, eps: float, family: TestFamily,
                  normalized: bool = True) -> ScanReport:
    """List all m <= m_cap with dist-to-identity below eps (rigidity times)."""
    ms = list(range(1, m_cap + 1))
    values = _scan_distances(T, ms, family, "identity", normalized)
    events = tuple((m, v) for m, v in zip(ms, values) if v < eps)
    return ScanReport(
        kind="rigidity",
        threshold=eps,
        values=tuple(zip(ms, values)),
        events=events,
        min_time=events[0][0] if events else None,
    )


# -- triple correlations ---------------------------------------------------------


def triple_correlation(T, A, m: int, n: int) -> Fraction:
    """mu(A intersect T^-m A intersect T^-n A), exact."""
    if m == n:
        raise ValidationError("triple correlation needs distinct times m != n")
    if isinstance(T, IntervalExchange):
        cuts = sorted({ZERO, A.lo, A.hi} - {ONE})
        inside = IntervalPartition(tuple(cuts), tuple(A.lo <= c < A.hi for c in cuts))
        atoms = join_partition(T, inside, (0, m, n), signs="backward").measures_by_label()
        return atoms.get((True, True, True), ZERO)
    if isinstance(T, BakerMap):
        offset = A.ylevel + max(0, -m, -n)
        words = [_cylinder_word(A, offset + t) for t in (0, m, n)]
        if any((b1 ^ b2) & m1 & m2 for (m1, b1), (m2, b2) in itertools.combinations(words, 2)):
            return ZERO
        return Fraction(1, 2 ** bin(words[0][0] | words[1][0] | words[2][0]).count("1"))
    raise ValidationError(f"no exact triple-correlation path for {type(T).__name__}")


def triple_correlation_limits(mu) -> tuple[Fraction, Fraction]:
    """The two candidate weak limits ( (mu + 2 mu^3)/3, mu^2 )."""
    mu = as_fraction(mu)
    return ((mu + 2 * mu**3) / 3, mu * mu)
