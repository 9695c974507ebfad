"""Sequence entropy along index families.

The central quantity is H(join of T^p xi over p in a family)/|family|:
exact for interval exchanges (integer cut points, one lattice join) and
Bernoulli shifts (independence of coordinates), Monte Carlo with a
Miller-Madow corrected plug-in estimator for planar systems.  Finite-range
max/min of the per-j values are reported as *proxies* for the
limsup/liminf invariants; no asymptotic claim is ever made by this code.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    ONE,
    IntervalPartition,
    ProbabilityVector,
    RectanglePartition,
    partition_measures,
    shannon_entropy,
)
from .errors import (
    BudgetError,
    DegenerateInputError,
    SeqentError,
    ValidationError,
    MAX_FAMILY_SIZE,
    MAX_JOIN_CUTS,
)
from .families import IndexFamily
from .segments import SegmentSet
from .systems import (
    BakerMap,
    BernoulliSystem,
    IetLattice,
    IntervalExchange,
    RectangleExchange,
    check_powers,
    interior_discontinuity_segments,
)

LN2 = math.log(2.0)
SAMPLE_BITS = 64  # per coordinate of a Monte Carlo sample k / 2^SAMPLE_BITS


@dataclass(frozen=True)
class JoinResult:
    """Outcome of one join computation.

    ``partition`` is kept only on the exact interval path; ``measures`` is
    omitted when the atom count exceeds the family-size budget.
    """

    entropy_bits: float
    atom_count: int
    method: str  # "exact" | "monte_carlo"
    measures: ProbabilityVector | None = None
    partition: IntervalPartition | None = None
    ci_halfwidth: float = 0.0


# -- exact joins for interval exchanges --------------------------------------


def join_partition(T: IntervalExchange, xi: IntervalPartition, times: Sequence[int],
                   signs: str = "forward") -> IntervalPartition:
    """Common refinement of the partitions T^p xi, p in ``times``.

    The label of x in T^p xi is the xi-label of T^-p x, so forward joins
    evaluate the inverse powers; ``signs="backward"`` joins T^-p xi instead.
    Labels are tuples indexed like ``times``; equal neighbours are not merged.
    On T's integer lattice scaled by xi's denominators, the cuts are each
    power's cuts and preimages of xi's cuts; every gap then lies in one piece
    of each power, so it is labelled at its left endpoint.
    """
    if signs not in ("forward", "backward"):
        raise ValidationError(f"signs must be 'forward' or 'backward', got {signs!r}")
    sign = -1 if signs == "forward" else 1
    signed = [sign * int(t) for t in times]
    check_powers(T, signed)
    lattice = IetLattice.of(T).scaled(math.lcm(*(c.denominator for c in xi.cuts)))
    Q = lattice.Q
    edges = np.array([c.numerator * (Q // c.denominator) for c in xi.cuts], dtype=lattice.cuts.dtype)
    maps = list(map(dict(lattice.powers(signed)).__getitem__, signed))
    # distinct cuts by the stable sort the map algebra uses (np.unique pages in another)
    cuts = np.sort(np.concatenate([np.append(U.cuts, U.inverse().apply(edges)) for U in maps]),
                   kind="stable")
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    if len(cuts) > MAX_JOIN_CUTS:
        raise BudgetError(f"join needs {len(cuts)} cut points, budget {MAX_JOIN_CUTS}")
    # (gap, time) -> xi-gap in the smallest dtype: only the label tuples are large
    gaps = np.empty((len(cuts), len(maps)), dtype=np.min_scalar_type(len(xi.cuts)))
    for k, U in enumerate(maps):
        gaps[:, k] = np.searchsorted(edges, U.apply(cuts), side="right") - 1
    labels = tuple(tuple(map(xi.labels.__getitem__, row.tolist())) for row in gaps)
    return IntervalPartition(tuple(Fraction(int(c), Q) for c in cuts), labels)


def exact_join(T: IntervalExchange, xi: IntervalPartition, family: IndexFamily,
               signs: str = "forward") -> JoinResult:
    """Exact join over an index family for a 1D system."""
    part = join_partition(T, xi, family.members, signs=signs)
    measures = partition_measures(part)
    return JoinResult(
        entropy_bits=shannon_entropy(measures),
        atom_count=len(measures),
        method="exact",
        measures=measures,
        partition=part,
    )


# -- Bernoulli shifts: analytic joins -----------------------------------------


def bernoulli_join_entropy(B: BernoulliSystem, family: IndexFamily,
                           window: int = 1) -> JoinResult:
    """Join entropy for the coordinate-window partition of a Bernoulli shift.

    The partition whose label is the symbol window (s_p, ..., s_{p+w-1})
    pulled to time p depends exactly on the coordinates in the union of the
    windows; distinct coordinates are independent, so the join entropy is
    (number of covered coordinates) * (symbol entropy).
    """
    if window < 1:
        raise ValidationError("window must be >= 1")
    covered: set[int] = set()
    for p in family:
        covered.update(range(p, p + window))
    n_coords = len(covered)
    positive = [m for m in B.symbol_masses if m > 0]
    atom_count = len(positive) ** n_coords
    measures = None
    if atom_count <= MAX_FAMILY_SIZE:
        masses = []
        for combo in itertools.product(positive, repeat=n_coords):
            masses.append(math.prod(combo, start=ONE))
        measures = ProbabilityVector(tuple(masses))
    return JoinResult(
        entropy_bits=n_coords * B.symbol_entropy_bits,
        atom_count=atom_count,
        method="exact",
        measures=measures,
    )


def baker_join_measures_grid(times: Sequence[int]) -> tuple[np.ndarray, int]:
    """Independent oracle for the baker / vertical-halves join.

    The label vector of x at positive times F is (bit_{t+1}(x))_{t in F};
    this enumerates every dyadic grid cell at the finest involved resolution
    and counts cells per label vector.  Returns (counts indexed by the label
    vector read as a binary number, denominator 2^W); masses are
    counts / 2^W exactly.
    """
    times = sorted(set(int(t) for t in times))
    if not times or times[0] < 0:
        raise ValidationError("grid oracle needs positive times")
    W = times[-1] + 1
    if W > 24:
        raise BudgetError(f"grid oracle limited to max time 23, got {times[-1]}")
    v = np.arange(2**W, dtype=np.int64)
    code = np.zeros_like(v)
    for i, t in enumerate(times):
        bit = (v >> (W - (t + 1))) & 1
        code |= bit << i
    counts = np.bincount(code, minlength=2 ** len(times))
    return counts, W


# -- Monte Carlo joins for planar systems -------------------------------------


@dataclass(frozen=True)
class McOptions:
    n_samples: int
    seed: int
    n_bootstrap: int = 200


def _entropy_from_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Miller-Madow corrected plug-in entropy (bits) per row of counts."""
    counts = np.atleast_2d(counts).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        clogc = np.where(counts > 0, counts * np.log2(np.maximum(counts, 1)), 0.0)
    plug = np.log2(n) - clogc.sum(axis=1) / n
    support = (counts > 0).sum(axis=1)
    return plug + (support - 1) / (2.0 * n * LN2)


def mc_join_entropy(T, xi: RectanglePartition, family: IndexFamily,
                    n_samples: int, seed: int, n_bootstrap: int = 200) -> JoinResult:
    """Monte Carlo join entropy for a planar system (rectangle exchange or baker).

    Sample coordinates are exact rationals, so every label vector is exact;
    all error is statistical.  The baker map shifts x one bit per step, so
    labels that would read past the SAMPLE_BITS bits of x raise BudgetError
    before sampling.  The estimate is plug-in entropy with the Miller-Madow
    bias correction (exactly 0 for one atom); the half-width is a 95%
    bootstrap percentile interval from multinomial resamples of the counts.
    """
    if n_samples < 1000:
        raise ValidationError("need n_samples >= 1000")
    import random as _random

    rng = _random.Random(seed)
    times = list(family.members)
    tmax = times[-1]
    if isinstance(T, BakerMap):  # the labels at time t read x bits t+1 .. t+x_depth
        x_depth = max((c.denominator - 1).bit_length() for r, _ in xi.atoms for c in (r.x0, r.x1))
        if tmax + x_depth > SAMPLE_BITS:
            raise BudgetError(f"baker times up to {tmax} at x-depth {x_depth} read past "
                              f"the {SAMPLE_BITS} bits of a sample")
    time_index = {t: i for i, t in enumerate(times)}
    counter: Counter = Counter()
    denom = 2**SAMPLE_BITS
    for _ in range(n_samples):
        pt = tuple(Fraction(rng.getrandbits(SAMPLE_BITS), denom) for _ in range(2))
        label = [None] * len(times)
        for t in range(1, tmax + 1):
            pt = T.apply(pt)
            if t in time_index:
                label[time_index[t]] = xi.label_at(pt)
        counter[tuple(label)] += 1

    counts = np.array(sorted(counter.values(), reverse=True), dtype=np.int64)
    estimate = 0.0 if len(counts) == 1 else float(_entropy_from_counts(counts, n_samples)[0])
    nprng = np.random.default_rng(seed)
    boot_counts = nprng.multinomial(n_samples, counts / n_samples, size=n_bootstrap)
    boot = _entropy_from_counts(boot_counts, n_samples)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    measures = ProbabilityVector(tuple(Fraction(int(c), n_samples) for c in counts))
    return JoinResult(
        entropy_bits=estimate,
        atom_count=len(counts),
        method="monte_carlo",
        measures=measures,
        ci_halfwidth=float(hi - lo) / 2.0,
    )


# -- dispatch and traces -------------------------------------------------------


def h_j(T, xi, family: IndexFamily, signs: str = "forward",
        mc: McOptions | None = None) -> float:
    """Join entropy per family element (bits)."""
    return join_for(T, xi, family, signs=signs, mc=mc).entropy_bits / len(family)


def join_for(T, xi, family: IndexFamily, signs: str = "forward",
             mc: McOptions | None = None) -> JoinResult:
    """Dispatch a join to the exact 1D, analytic symbolic, or MC 2D path."""
    if isinstance(T, BernoulliSystem):
        window = xi if isinstance(xi, int) else 1
        return bernoulli_join_entropy(T, family, window=window)
    if isinstance(T, IntervalExchange):
        if not isinstance(xi, IntervalPartition):
            raise ValidationError("interval exchanges need an IntervalPartition")
        return exact_join(T, xi, family, signs=signs)
    if isinstance(T, (RectangleExchange, BakerMap)):
        if not isinstance(xi, RectanglePartition):
            raise ValidationError("planar systems need a RectanglePartition")
        if mc is None:
            raise ValidationError("planar joins are Monte Carlo; pass McOptions")
        return mc_join_entropy(T, xi, family, mc.n_samples, mc.seed, mc.n_bootstrap)
    raise ValidationError(f"unsupported system type {type(T).__name__}")


@dataclass(frozen=True)
class TraceRow:
    j: int
    family_size: int
    entropy_bits: float | None
    h: float | None
    method: str
    ci_halfwidth: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class EntropyTrace:
    """Per-j rows of h_j values; max/min over the computed range are finite
    proxies for the limsup/liminf invariants, never limits."""

    rows: tuple[TraceRow, ...]

    def ok_rows(self) -> list[TraceRow]:
        return [r for r in self.rows if r.error is None]

    def h_max_proxy(self) -> float:
        rows = self.ok_rows()
        if not rows:
            raise ValidationError("no successful rows in trace")
        return max(r.h for r in rows)

    def h_min_proxy(self) -> float:
        rows = self.ok_rows()
        if not rows:
            raise ValidationError("no successful rows in trace")
        return min(r.h for r in rows)

    def as_dicts(self) -> list[dict]:
        return [
            {
                "j": r.j,
                "family_size": r.family_size,
                "entropy_bits": r.entropy_bits,
                "h_j": r.h,
                "method": r.method,
                "ci_halfwidth": r.ci_halfwidth,
                "error": r.error or "",
            }
            for r in self.rows
        ]


def entropy_trace(T, xi, family_for_j: Callable[[int], IndexFamily],
                  j_values: Iterable[int], signs: str = "forward",
                  mc: McOptions | None = None) -> EntropyTrace:
    """One row per j; per-row failures are recorded, not raised."""
    rows = []
    for j in j_values:
        try:
            family = family_for_j(j)
            res = join_for(T, xi, family, signs=signs, mc=mc)
            rows.append(
                TraceRow(j, len(family), res.entropy_bits,
                         res.entropy_bits / len(family), res.method, res.ci_halfwidth)
            )
        except SeqentError as exc:  # per-row error marker
            rows.append(TraceRow(j, 0, None, None, "error", error=f"{type(exc).__name__}: {exc}"))
    return EntropyTrace(tuple(rows))


def partition_library(T, depth: int):
    """Dyadic partition library for the sup-over-partitions envelope."""
    if isinstance(T, BernoulliSystem):
        return {f"window-{w}": w for w in range(1, depth + 1)}
    if isinstance(T, IntervalExchange):
        return {f"dyadic-{l}": IntervalPartition.dyadic(l) for l in range(1, depth + 1)}
    return {
        f"dyadic-{l}x{l}": RectanglePartition.dyadic(l, l)
        for l in range(1, max(1, depth // 2) + 1)
    }


def sup_over_partitions(T, depth: int, family_for_j: Callable[[int], IndexFamily],
                        j_values: Iterable[int], signs: str = "forward",
                        mc: McOptions | None = None):
    """Traces for each library partition plus their pointwise max envelope.

    The envelope is a *lower bound* for the sup over all partitions; the
    genuine sup is never computed.
    """
    j_values = list(j_values)
    traces = {
        name: entropy_trace(T, xi, family_for_j, j_values, signs=signs, mc=mc)
        for name, xi in partition_library(T, depth).items()
    }
    env_rows = []
    for idx, j in enumerate(j_values):
        per_j = [tr.rows[idx] for tr in traces.values()]
        ok = [r for r in per_j if r.error is None]
        if not ok:
            env_rows.append(TraceRow(j, 0, None, None, "error", error=per_j[0].error))
            continue
        best = max(ok, key=lambda r: r.h)
        env_rows.append(TraceRow(j, best.family_size, best.entropy_bits, best.h,
                                 best.method, best.ci_halfwidth))
    return traces, EntropyTrace(tuple(env_rows))


# -- boundary-growth ledger ----------------------------------------------------


def _partition_boundary(xi: RectanglePartition) -> SegmentSet:
    s = SegmentSet()
    for r, _ in xi.atoms:
        s.add_vertical(r.x0, r.y0, r.y1)
        s.add_vertical(r.x1, r.y0, r.y1)
        s.add_horizontal(r.y0, r.x0, r.x1)
        s.add_horizontal(r.y1, r.x0, r.x1)
    return s


def _image_segments(T: RectangleExchange, s: SegmentSet) -> SegmentSet:
    """Forward image of a segment set: split along source rectangles, translate."""
    out = SegmentSet()
    for x, lo, hi in s.iter_vertical():
        for r, (dx, dy) in zip(T.sources, T.translations):
            if r.x0 <= x < r.x1:
                a, b = max(lo, r.y0), min(hi, r.y1)
                if a < b:
                    out.add_vertical(x + dx, a + dy, b + dy)
    for y, lo, hi in s.iter_horizontal():
        for r, (dx, dy) in zip(T.sources, T.translations):
            if r.y0 <= y < r.y1:
                a, b = max(lo, r.x0), min(hi, r.x1)
                if a < b:
                    out.add_horizontal(y + dy, a + dx, b + dx)
    return out


def boundary_growth(T: RectangleExchange, xi: RectanglePartition, N: int) -> list[Fraction]:
    """Exact boundary lengths B(0..N) of the forward joins of xi under T.

    B(n) is the total length of a segment set containing the atom boundaries
    of the n-step join; each step images the previous set, then unions in the
    partition boundary and the exchange's image-side seams, so
    B(n) - B(0) <= n * discontinuity_length(T) whenever the partition
    boundary stays inside the evolving set.
    """
    if N < 0:
        raise ValidationError("N must be >= 0")
    if N > 10**4:
        raise BudgetError("boundary ledger limited to N <= 10^4")
    base = _partition_boundary(xi)
    seams = SegmentSet()
    vertical, horizontal = interior_discontinuity_segments(T, side="image")
    for x, lo, hi in vertical:
        seams.add_vertical(x, lo, hi)
    for y, lo, hi in horizontal:
        seams.add_horizontal(y, lo, hi)

    current = base.copy()
    lengths = [current.total_length()]
    for _ in range(N):
        nxt = _image_segments(T, current)
        nxt.union_with(base)
        nxt.union_with(seams)
        current = nxt
        lengths.append(current.total_length())
    return lengths


# -- entropy asymmetry ratio -----------------------------------------------------


def asymmetry_ratio(T: IntervalExchange, xi: IntervalPartition, N: int,
                    m: int, n: int, direction: str = "forward") -> float:
    """H(xi^N v T^{+-m} xi^N v T^{+-n} xi^N) / H(xi^N), exact joins.

    xi^N is the forward join over times 0..N-1; ``direction="backward"``
    translates by -m and -n instead.
    """
    if direction not in ("forward", "backward"):
        raise ValidationError("direction must be 'forward' or 'backward'")
    if N < 1:
        raise ValidationError("N must be >= 1")
    sign = 1 if direction == "forward" else -1
    base_times = list(range(N))
    base = join_partition(T, xi, base_times)
    h_base = shannon_entropy(partition_measures(base))
    if h_base == 0.0:
        raise DegenerateInputError("H(xi^N) = 0: one-atom partition gives no ratio")
    triple_times = sorted(set(base_times)
                          | {sign * m + t for t in base_times}
                          | {sign * n + t for t in base_times})
    triple = join_partition(T, xi, triple_times)
    h_triple = shannon_entropy(partition_measures(triple))
    return h_triple / h_base
