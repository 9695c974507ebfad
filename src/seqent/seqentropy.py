"""Sequence entropy along index families.

The central quantity is H(join of T^p xi over p in a family)/|family|:
exact for interval exchanges (integer cut points, one lattice join) and
Bernoulli shifts (independence of coordinates), Monte Carlo with a
Miller-Madow corrected plug-in estimator for planar systems.  Finite-range
max/min of the per-j values are reported as *proxies* for the
limsup/liminf invariants; no asymptotic claim is ever made by this code.

Planar Monte Carlo samples and the boundary ledger are integer arrays too:
cells of the lattice a rectangle exchange shares with its partition
(:class:`~seqent.systems.RectLattice`), or 64-bit words under the baker map.
Every join groups its atoms by one integer code per gap or sample and sums
their masses as integers; only :func:`join_partition` and :func:`exact_join`
decode the tuple labels of an interval join.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    IntervalPartition,
    ProbabilityVector,
    RectanglePartition,
    as_integer,
    entropy_of_groups,
)
from .errors import (
    BudgetError,
    DegenerateInputError,
    SeqentError,
    ValidationError,
    MAX_JOIN_CUTS,
    MAX_LEDGER_STEPS,
    MAX_MC_SAMPLES,
    MIN_MC_SAMPLES,
)
from .families import IndexFamily
from .systems import (
    BakerMap,
    BernoulliSystem,
    IetLattice,
    IntervalExchange,
    RectangleExchange,
    RectLattice,
    check_powers,
    int_dtype,
    interior_discontinuity_segments,
    lattice_ints,
)

LN2 = math.log(2.0)
SAMPLE_BITS = 64  # per coordinate of a Monte Carlo sample k / 2^SAMPLE_BITS
N_BOOTSTRAP = 200  # multinomial resamples behind a Monte Carlo confidence interval


@dataclass(frozen=True)
class JoinResult:
    """Outcome of one join computation.

    ``partition``, the tuple-labelled join, is set by :func:`exact_join`
    only; ``measures`` is set on the exact interval and Monte Carlo paths.
    """

    entropy_bits: float
    atom_count: int
    method: str  # "exact" | "monte_carlo"
    measures: ProbabilityVector | None = None
    partition: IntervalPartition | None = None
    ci_halfwidth: float = 0.0


# -- exact joins for interval exchanges --------------------------------------


def _join_gaps(T: IntervalExchange, xi: IntervalPartition, times: Sequence[int], signs: str):
    """The join of T^p xi over ``times``: cut points in units of 1/Q, Q, and
    each gap's xi-gap per time, yielded one time at a time.  The label of x in
    T^p xi is the xi-label of T^-p x, so forward joins evaluate the inverse
    powers.  On T's integer lattice scaled by xi's denominators, the cuts are
    each power's cuts and preimages of xi's cuts; every gap then lies in one
    piece of each power, so it is labelled at its left endpoint.  ValidationError
    unless T is an interval exchange."""
    if not isinstance(T, IntervalExchange):
        raise ValidationError(f"exact interval joins run on interval exchanges, not {type(T).__name__}")
    if signs not in ("forward", "backward"):
        raise ValidationError(f"signs must be 'forward' or 'backward', got {signs!r}")
    check_partition(T, xi)
    sign = -1 if signs == "forward" else 1
    signed = [sign * as_integer(t, "time") for t in times]
    check_powers(T, signed)
    lattice = IetLattice.of(T).scaled(math.lcm(*(c.denominator for c in xi.cuts)))
    edges = lattice_ints(xi.cuts, lattice.Q)
    maps = list(map(dict(lattice.powers(signed)).__getitem__, signed))
    # distinct cuts by the stable sort the map algebra uses (np.unique pages in another)
    cuts = np.sort(np.concatenate([np.append(U.cuts, U.inverse.apply(edges)) for U in maps]),
                   kind="stable")
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    if len(cuts) > MAX_JOIN_CUTS:
        raise BudgetError(f"join needs {len(cuts)} cut points, budget {MAX_JOIN_CUTS}")
    return cuts, lattice.Q, (np.searchsorted(edges, U.apply(cuts), side="right") - 1 for U in maps)


def _coded_join(T: IntervalExchange, xi: IntervalPartition, times: Sequence[int], signs: str,
                decode: bool):
    """The atoms of :func:`_join_gaps`, grouped by xi-label ids (:func:`_group`):
    their masses in units of 1/Q (:func:`~seqent.systems.int_dtype` (Q)) in
    order of first appearance, Q, and the tuple-labelled partition if ``decode``."""
    cuts, Q, gaps = _join_gaps(T, xi, times, signs)
    ids: dict = {}
    label_ids = np.array([ids.setdefault(label, len(ids)) for label in xi.labels], dtype=np.intp)
    if decode:  # keep (time, gap) -> xi-gap in the smallest dtype
        gaps = [g.astype(np.min_scalar_type(len(xi.cuts))) for g in gaps]
    atom, n_atoms = _group((label_ids[g] for g in gaps), len(ids), len(cuts))
    masses = np.zeros(n_atoms, dtype=cuts.dtype)
    np.add.at(masses, atom, np.diff(cuts, append=Q))
    if not decode:
        return masses, Q, None
    table = np.fromiter(xi.labels, dtype=object, count=len(xi.labels))
    rows, step = np.stack(gaps, axis=1), max(1, 2**14 // len(gaps))  # blocks of rows: a small peak
    labels = tuple(label for lo in range(0, len(rows), step)
                   for label in map(tuple, table[rows[lo:lo + step]].tolist()))
    return masses, Q, IntervalPartition.from_lattice(cuts.tolist(), Q, labels)


def _exact_result(masses: np.ndarray, Q: int, partition: IntervalPartition | None) -> JoinResult:
    """Its entropy sums the reduced masses of equal numerators in ascending
    order, as :func:`~seqent.core.shannon_entropy` of its measures does."""
    measures = ProbabilityVector.from_numerators(masses.tolist(), Q)
    values, counts = np.unique(masses, return_counts=True)
    entropy = entropy_of_groups((Fraction(v, Q), c) for v, c in zip(values.tolist(), counts.tolist()))
    return JoinResult(entropy, len(measures), "exact", measures, partition)


def join_partition(T: IntervalExchange, xi: IntervalPartition, times: Sequence[int],
                   signs: str = "forward") -> IntervalPartition:
    """Common refinement of the partitions T^p xi, p in ``times``
    (``signs="backward"``: T^-p xi), labelled by tuples indexed like ``times``;
    equal neighbours are not merged.  This and :func:`exact_join` are the only
    joins that decode label tuples, one per gap, so memory grows as gaps x
    times; :func:`join_for` reads the same masses from integer codes."""
    return _coded_join(T, xi, times, signs, decode=True)[2]


def exact_join(T: IntervalExchange, xi: IntervalPartition, family: IndexFamily,
               signs: str = "forward") -> JoinResult:
    """Exact join over an index family for a 1D system, with its :func:`join_partition`."""
    return _exact_result(*_coded_join(T, xi, family.members, signs, decode=True))


# -- Bernoulli shifts: analytic joins -----------------------------------------


def bernoulli_join_entropy(B: BernoulliSystem, family: IndexFamily,
                           window: int = 1) -> JoinResult:
    """Join entropy for the coordinate-window partition of a Bernoulli shift.

    The partition whose label is the symbol window (s_p, ..., s_{p+w-1})
    pulled to time p depends exactly on the coordinates in the union of the
    windows; distinct coordinates are independent, so the join entropy is
    (number of covered coordinates) * (symbol entropy).
    """
    check_join(B, window, family, None)
    covered: set[int] = set()
    for p in family:
        covered.update(range(p, p + window))
    n_coords = len(covered)
    return JoinResult(n_coords * B.symbol_entropy_bits,
                      sum(m > 0 for m in B.symbol_masses) ** n_coords, "exact")


# -- Monte Carlo joins for planar systems -------------------------------------


@dataclass(frozen=True)
class McOptions:
    n_samples: int
    seed: int


def _entropy_from_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Miller-Madow corrected plug-in entropy (bits) per row of counts; c log2 c
    is read from a float64 table over c = 0 .. max count (0 for c = 0)."""
    counts = np.atleast_2d(counts)
    c = np.arange(counts.max() + 1, dtype=np.float64)
    plug = np.log2(n) - (c * np.log2(np.maximum(c, 1)))[counts].sum(axis=1) / n
    support = (counts > 0).sum(axis=1)
    return plug + (support - 1) / (2.0 * n * LN2)


def check_sample_bits(T, xi: RectanglePartition, family: IndexFamily) -> None:
    """Raise BudgetError if baker labels at the family's times would read past
    the SAMPLE_BITS bits of a sample: the label at time t reads the x bits
    t+1 .. t+x_depth, x_depth being the bits of xi's largest x denominator."""
    if not isinstance(T, BakerMap):
        return
    x_depth = max((c.denominator - 1).bit_length() for c in xi.grid[0])
    tmax = family.members[-1]
    if tmax + x_depth > SAMPLE_BITS:
        raise BudgetError(f"baker times up to {tmax} at x-depth {x_depth} read past "
                          f"the {SAMPLE_BITS} bits of a sample")


def _below(edges: Sequence[Fraction], scale: int, dtype) -> np.ndarray:
    """For each edge c > 0 the largest k whose point k/scale (or lattice cell
    [k, k+1)/scale) lies below c, so that a coordinate's gap among
    (0, *edges) is ``np.searchsorted(_below(edges, ...), k)``."""
    return np.array([(c.numerator * scale - 1) // c.denominator for c in edges], dtype=dtype)


def _sample_cells(k: np.ndarray, Q: int) -> np.ndarray:
    """floor(Q k / 2^SAMPLE_BITS) for SAMPLE_BITS-bit words k, as an
    :func:`~seqent.systems.int_dtype` (Q) array: the high word of the 128-bit
    product, summed from products of 32-bit halves that cannot overflow.
    Every operand is an explicit np.uint64 while Q < 2^64 (numpy 1.24 turns
    uint64 with int64 into float64), a Python int in object arrays beyond."""
    word = np.uint64 if Q < 2**SAMPLE_BITS else int
    bits = SAMPLE_BITS // 2
    half, low = word(bits), word(2**bits - 1)
    k = k.astype(np.uint64 if word is np.uint64 else object)
    kh, kl, qh, ql = k >> half, k & low, word(Q >> bits), word(Q & (2**bits - 1))
    mid = qh * kl + (ql * kl >> half)
    return (qh * kh + (mid >> half) + ((ql * kh + (mid & low)) >> half)).astype(int_dtype(Q))


def _exchange_gaps(T: RectangleExchange, xs, ys, x: np.ndarray, y: np.ndarray, times):
    """(x gaps, y gaps) of the samples at each time under a rectangle exchange.
    On the lattice of T and xi a sample k/2^SAMPLE_BITS is the cell
    floor(Q k / 2^SAMPLE_BITS): that cell decides every comparison with a
    multiple of 1/Q, and a translation by d/Q moves it by exactly d.  The
    cells are the high words of 128-bit products (:func:`_sample_cells`),
    below Q like every cell they move to, so they stay int64 while Q < 2^62
    and are Python ints beyond."""
    lattice = RectLattice.of(T, xs + ys)
    Q, dtype = lattice.Q, lattice.trans.dtype
    X, Y = _sample_cells(x, Q), _sample_cells(y, Q)
    bx, by = _below(xs[1:], Q, dtype), _below(ys[1:], Q, dtype)
    wanted = set(times)
    for t in range(1, times[-1] + 1):
        X, Y = lattice.apply(X, Y)
        if t in wanted:
            yield np.searchsorted(bx, X), np.searchsorted(by, Y)


def _baker_gaps(xs, ys, x: np.ndarray, y: np.ndarray, times):
    """(x gaps, y gaps) of the samples at each time under the baker map, on
    SAMPLE_BITS-bit words: x shifts left, y shifts right with x's top bit
    entering at the top.  After t <= SAMPLE_BITS steps x is its word exactly and
    y is its word plus f = (y's first word mod 2^t) / 2^t, the bits the shifts
    dropped; f decides y's gap only where the word equals floor(c 2^SAMPLE_BITS)
    for a non-dyadic edge c."""
    scale = 1 << SAMPLE_BITS
    bx, by = _below(xs[1:], scale, np.uint64), _below(ys[1:], scale, np.uint64)
    ties = [(k, c.denominator, c.numerator * scale % c.denominator)
            for k, c in zip(by.tolist(), ys[1:]) if c.numerator * scale % c.denominator]
    top = np.uint64(scale >> 1)
    X, Y = x, y
    wanted = set(times)
    for t in range(1, times[-1] + 1):
        X, Y = X << 1, (Y >> 1) | (X & top)
        if t in wanted:
            gy = np.searchsorted(by, Y)
            for k, q, r in ties:  # y >= c iff f >= r/q
                for i in np.flatnonzero(Y == k):
                    gy[i] += (int(y[i]) % (1 << t)) * q >= r << t
            yield np.searchsorted(bx, X), gy


def _group(columns: Iterable[np.ndarray], n_ids: int, n: int) -> tuple[np.ndarray, int]:
    """Group n rows by their vectors of label ids, one array of ids in
    range(n_ids) per position, folded into one mixed-radix int64 code that is
    re-ranked (:func:`_dense`) before it could pass 2^63."""
    code, size = np.zeros(n, dtype=np.int64), 1
    for ids in columns:
        if size * n_ids >= 2**63:
            code, size = _dense(code)
        code, size = code * n_ids + ids, size * n_ids
    return _dense(code)


def _dense(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of code, numbered by first
    appearance, and their number."""
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse], len(first)


def mc_join_entropy(T, xi: RectanglePartition, family: IndexFamily,
                    n_samples: int, seed: int) -> JoinResult:
    """Monte Carlo join entropy for a planar system (rectangle exchange or baker).

    Samples are 2 * n_samples draws of ``random.Random(seed).getrandbits(64)``,
    x then y, read as k / 2^SAMPLE_BITS.  They step together in integer arrays
    (lattice cells under an exchange, 64-bit words under the baker map), so
    every label vector is exact and all error is statistical.  Baker labels
    that would read past the SAMPLE_BITS bits of x raise BudgetError before
    sampling (:func:`check_sample_bits`).  The estimate is plug-in entropy
    with the Miller-Madow bias correction (exactly 0 for one atom); the
    half-width is a 95% bootstrap percentile interval from N_BOOTSTRAP
    multinomial resamples of the counts, sorted in decreasing order.
    A seed or n_samples that is not an integer, or n_samples below
    MIN_MC_SAMPLES, raises ValidationError, and n_samples above MAX_MC_SAMPLES
    BudgetError, before sampling (:func:`check_join`).
    """
    if not isinstance(T, (RectangleExchange, BakerMap)):
        raise ValidationError(f"Monte Carlo joins run on rectangle exchanges and the baker map, "
                              f"not {type(T).__name__}")
    check_join(T, xi, family, McOptions(n_samples, seed))
    xs, ys, owner = xi.grid  # gaps are numbered by their left edges xs[:-1], ys[:-1]
    ids: dict = {}
    table = np.array([ids.setdefault(label, len(ids)) for _, label in xi.atoms], dtype=np.intp)[owner]
    draws = random.Random(seed).getrandbits(2 * SAMPLE_BITS * n_samples)
    words = np.frombuffer(draws.to_bytes(SAMPLE_BITS // 4 * n_samples, "little"), dtype="<u8")
    x, y = words[0::2], words[1::2]  # getrandbits(64) twice per sample, x then y
    gaps = (_baker_gaps(xs[:-1], ys[:-1], x, y, family.members) if isinstance(T, BakerMap)
            else _exchange_gaps(T, xs[:-1], ys[:-1], x, y, family.members))
    atom, _ = _group((table[gx, gy] for gx, gy in gaps), len(ids), n_samples)
    counts = np.sort(np.bincount(atom), kind="stable")[::-1]  # samples per atom, decreasing
    del draws, words, x, y, atom  # the bootstrap needs only the counts
    estimate = 0.0 if len(counts) == 1 else float(_entropy_from_counts(counts, n_samples)[0])
    nprng = np.random.default_rng(seed)
    boot_counts = nprng.multinomial(n_samples, counts / n_samples, size=N_BOOTSTRAP)
    boot = _entropy_from_counts(boot_counts, n_samples)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return JoinResult(estimate, len(counts), "monte_carlo",
                      ProbabilityVector.from_numerators(counts.tolist(), n_samples),
                      ci_halfwidth=float(hi - lo) / 2.0)


# -- dispatch and traces -------------------------------------------------------


def check_partition(T, xi) -> None:
    """Raise ValidationError unless xi partitions T's domain: an integer window
    of at least 1 under a Bernoulli shift, an IntervalPartition under an
    interval exchange and a RectanglePartition under a planar system."""
    want = IntervalPartition if isinstance(T, IntervalExchange) else RectanglePartition
    if isinstance(T, BernoulliSystem):
        if as_integer(xi, "a Bernoulli shift's window") < 1:
            raise ValidationError(f"a Bernoulli shift's window must be >= 1, got {xi}")
    elif not isinstance(xi, want):
        raise ValidationError(f"{type(xi).__name__} does not fit {type(T).__name__}; "
                              f"use {want.__name__}")


def check_join(T, xi, family: IndexFamily, mc: McOptions | None) -> None:
    """Raise before any work unless :func:`join_for` takes the join: xi fits T
    (:func:`check_partition`), a planar join's McOptions ``mc`` (None for
    other systems) have an integer seed and MIN_MC_SAMPLES to MAX_MC_SAMPLES
    samples and the join passes :func:`check_sample_bits`, and an interval
    exchange passes :func:`check_powers`."""
    check_partition(T, xi)
    if isinstance(T, (RectangleExchange, BakerMap)):
        as_integer(mc.seed, "seed")
        if as_integer(mc.n_samples, "n_samples") < MIN_MC_SAMPLES:
            raise ValidationError(f"need n_samples >= {MIN_MC_SAMPLES}, got {mc.n_samples}")
        if mc.n_samples > MAX_MC_SAMPLES:
            raise BudgetError(f"n_samples {mc.n_samples} exceeds budget {MAX_MC_SAMPLES}")
        check_sample_bits(T, xi, family)
    elif isinstance(T, IntervalExchange):
        check_powers(T, [max(family.members)])


def h_j(T, xi, family: IndexFamily, mc: McOptions | None = None) -> float:
    """Join entropy per family element (bits)."""
    return join_for(T, xi, family, mc=mc).entropy_bits / len(family)


def join_for(T, xi, family: IndexFamily, mc: McOptions | None = None) -> JoinResult:
    """Dispatch a join to the exact 1D, analytic or MC 2D path; each path
    checks its inputs before any work, and a planar join needs ``mc``."""
    if isinstance(T, BernoulliSystem):
        return bernoulli_join_entropy(T, family, window=xi)
    if isinstance(T, IntervalExchange):
        return _exact_result(*_coded_join(T, xi, family.members, "forward", decode=False))
    if mc is None:
        raise ValidationError("planar joins are Monte Carlo; pass McOptions")
    return mc_join_entropy(T, xi, family, mc.n_samples, mc.seed)


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
        """The rows without an error; ValidationError if there are none."""
        rows = [r for r in self.rows if r.error is None]
        if not rows:
            raise ValidationError("no successful rows in trace")
        return rows

    def h_max_proxy(self) -> float:
        return max(r.h for r in self.ok_rows())

    def h_min_proxy(self) -> float:
        return min(r.h for r in self.ok_rows())

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


def check_j_values(j_values: Iterable[int]) -> list[int]:
    """The j values of a trace as a list of integers; ValidationError if there
    are none or one is not an integer."""
    j_values = [as_integer(j, "j") for j in j_values]
    if not j_values:
        raise ValidationError("a trace needs at least one j value")
    return j_values


def entropy_trace(T, xi, family_for_j: Callable[[int], IndexFamily],
                  j_values: Iterable[int], mc: McOptions | None = None) -> EntropyTrace:
    """One row per j; per-row failures are recorded, not raised.  A trace of
    backward joins T^-p xi is the trace of ``T.inverse()``."""
    rows = []
    for j in check_j_values(j_values):
        try:
            family = family_for_j(j)
            res = join_for(T, xi, family, mc=mc)
            rows.append(
                TraceRow(j, len(family), res.entropy_bits,
                         res.entropy_bits / len(family), res.method, res.ci_halfwidth)
            )
        except SeqentError as exc:  # per-row error marker
            rows.append(TraceRow(j, 0, None, None, "error", error=f"{type(exc).__name__}: {exc}"))
    return EntropyTrace(tuple(rows))


def partition_library(T, depth: int):
    """Dyadic partition library for the sup envelope; depth < 1 raises ValidationError."""
    if as_integer(depth, "depth") < 1:
        raise ValidationError(f"the partition library needs depth >= 1, got {depth}")
    if isinstance(T, BernoulliSystem):
        return {f"window-{w}": w for w in range(1, depth + 1)}
    # the finest partition first, so its budget check comes before any partition is built
    if isinstance(T, IntervalExchange):
        library = [(f"dyadic-{l}", IntervalPartition.dyadic(l)) for l in range(depth, 0, -1)]
    else:
        library = [(f"dyadic-{l}x{l}", RectanglePartition.dyadic(l, l))
                   for l in range(max(1, depth // 2), 0, -1)]
    return dict(library[::-1])


def sup_over_partitions(T, depth: int, family_for_j: Callable[[int], IndexFamily],
                        j_values: Iterable[int], mc: McOptions | None = None):
    """Traces for each library partition plus their pointwise max envelope.

    The envelope is a *lower bound* for the sup over all partitions; the
    genuine sup is never computed.
    """
    j_values = check_j_values(j_values)
    traces = {
        name: entropy_trace(T, xi, family_for_j, j_values, mc=mc)
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


def _image(segs: np.ndarray, rects: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Forward image of segment rows (line, lo, hi): each row clipped to every
    rectangle whose [line0, line1) holds its line, then translated.  ``rects``
    rows are (line0, line1, lo, hi) and ``shifts`` rows (line shift, span
    shift).  All rows meet all rectangles in one rows x rectangles broadcast,
    and the kept (row, rectangle) pairs come out row by row (:func:`_merge`
    does not depend on row order)."""
    line, lo, hi = (c[:, None] for c in segs.T)
    l0, l1, s0, s1 = rects.T
    a, b = np.maximum(lo, s0), np.minimum(hi, s1)
    row, src = np.nonzero((l0 <= line) & (line < l1) & (a < b))
    dl, ds = shifts[src].T
    return np.stack([line[row, 0] + dl, a[row, src] + ds, b[row, src] + ds], axis=1)


def _merge(segs: np.ndarray, Q: int) -> np.ndarray:
    """Per-line unions of the closed intervals [lo, hi] of rows (line, lo, hi)
    with lo and hi in [0, Q] (lines are only compared): one sort by line,
    then lo, and a row starts a new interval unless lo is within the running
    maximum of hi on its line."""
    segs = segs[np.lexsort((segs[:, 1], segs[:, 0]))]
    line, lo, hi = segs.T
    start = np.concatenate(([True], line[1:] != line[:-1]))
    offset = (np.cumsum(start) - 1).astype(int_dtype(len(segs) * (Q + 1))) * (Q + 1)
    reach = np.maximum.accumulate(offset + hi) - offset  # running max of hi on each line
    start[1:] |= lo[1:] > reach[:-1]
    first = np.flatnonzero(start)
    last = np.concatenate((first[1:], [len(segs)])) - 1
    return np.stack([line[first], lo[first], reach[last].astype(segs.dtype)], axis=1)


def _complement(segs: np.ndarray, Q: int) -> np.ndarray:
    """Rectangles (line0, line1, lo, hi) covering the lines [0, 2Q + 1) of
    both bands of :func:`boundary_growth`, spans [0, Q], outside the merged
    rows ``segs`` up to endpoints: on a line with rows, the gap before each
    row and after the last; between such lines, whole lines.  Some
    rectangles may be empty."""
    line, lo, hi = segs.T
    first = np.append(True, line[1:] != line[:-1])
    last = np.append(first[1:], True)
    zero, top = np.zeros_like(line[last]), np.full_like(line[last], Q)
    lines = line[first]
    return np.concatenate([
        np.stack([line, line + 1, np.where(first, 0, np.roll(hi, 1)), lo], axis=1),
        np.stack([line[last], line[last] + 1, hi[last], top], axis=1),
        np.stack([np.append(0, lines + 1), np.append(lines, 2 * Q + 1), np.append(0, zero),
                  np.append(Q, top)], axis=1)])


def check_ledger_steps(N: int) -> range:
    """The steps 1..N of a boundary ledger; ValidationError for N < 0 and
    BudgetError for N > MAX_LEDGER_STEPS."""
    if as_integer(N, "N") < 0:
        raise ValidationError(f"the boundary ledger needs N >= 0, got {N}")
    if N > MAX_LEDGER_STEPS:
        raise BudgetError(f"boundary ledger limited to N <= {MAX_LEDGER_STEPS}, got {N}")
    return range(1, N + 1)


def boundary_growth(T: RectangleExchange, xi: RectanglePartition, N: int) -> list[Fraction]:
    """Exact boundary lengths B(0..N) of the forward joins of xi under T.

    B(n) is the total length of the segment set S(n) containing the atom
    boundaries of the n-step join: S(0) is the partition boundary P and
    S(n) = T(S(n-1)) + F, with F the union of P and the exchange's
    image-side seams, so B(n) - B(0) <= n * discontinuity_length(T) whenever
    P stays inside the evolving set.  T images a segment piece by piece
    (:func:`_image`, which drops segments on the square's right and top
    edges); off those edges it is injective and keeps lengths.  So S(n) is
    the union of T^j(F), j < n, and T^n(P), and it is counted by first
    return to F: Y(0) = F and Y(j) = T(Y(j-1)) - F are the points of T^j(F)
    whose orbit has not met F since, disjoint for distinct j, and
    B(n) = |Y(0)| + ... + |Y(n-1)| + |Y(n) within T^n(P)|.  Each step is one
    :func:`_image` against the sources clipped to where their image leaves F
    and one :func:`_merge` of a set no longer than F; once Y is empty (every
    segment has returned or left) B is constant, so the cost is linear in N
    and constant from then on.

    Segments are integer rows (line, lo, hi) on the lattice of T and xi
    (:class:`RectLattice`), in bands that never share a line: a vertical
    segment (x; y0, y1) is the row (x, y0, y1), a horizontal one
    (y; x0, x1) the row (Q + 1 + y, x0, x1), and the part of Y within
    T^n(P) is a copy of those rows moved up by 2Q + 2.  Every line is below
    4Q + 4 and every span in [0, Q], so the rows are int64 while 2Q + 2 <
    2^62 (:func:`~seqent.systems.int_dtype`) and Python ints beyond.
    B(n) is the sum of lengths over Q.
    """
    seams = interior_discontinuity_segments(T)  # ValidationError unless T is a rectangle exchange
    check_partition(T, xi)
    steps = check_ledger_steps(N)
    corners = [v for r, _ in xi.atoms for v in (r.x0, r.x1, r.y0, r.y1)]
    lattice = RectLattice.of(T, corners)
    Q = lattice.Q
    dtype = int_dtype(2 * Q + 2)
    atoms = lattice_ints(corners, Q).astype(dtype).reshape(-1, 4)
    vertical, horizontal = (lattice_ints([v for seg in side for v in seg], Q).astype(dtype)
                            .reshape(-1, 3) for side in seams)
    up = np.array([Q + 1, 0, 0], dtype=dtype)  # moves a horizontal row to its band
    base = np.concatenate([atoms[:, [0, 2, 3]], atoms[:, [1, 2, 3]],
                           atoms[:, [2, 0, 1]] + up, atoms[:, [3, 0, 1]] + up])
    fixed = _merge(np.concatenate([base, vertical, horizontal + up]), Q)
    # a vertical row meets a source as (x range, y range), a horizontal one as (y range, x range)
    sources, trans = lattice.sources.astype(dtype), lattice.trans.astype(dtype)
    sources = np.concatenate([sources, sources[:, [2, 3, 0, 1]] + up[[0, 0, 1, 2]]])
    shifts = np.concatenate([trans, trans[:, ::-1]])
    # each source's image clipped to the rectangles off F, then moved back
    image, free = sources + shifts[:, [0, 0, 1, 1]], _complement(fixed, Q)
    lo = np.maximum(image[:, None, ::2], free[None, :, ::2])
    hi = np.minimum(image[:, None, 1::2], free[None, :, 1::2])
    src, gap = np.nonzero((lo < hi).all(axis=2))
    exits = np.stack([lo[src, gap, 0], hi[src, gap, 0], lo[src, gap, 1], hi[src, gap, 1]],
                     axis=1) - shifts[src][:, [0, 0, 1, 1]]
    mark = 2 * Q + 2  # the band of Y(n) within T^n(P)
    rects = np.concatenate([exits, exits + np.array([mark, mark, 0, 0], dtype=dtype)])
    moves = np.concatenate([shifts[src], shifts[src]])

    def split(rows) -> tuple[int, int]:
        """|Y(n)| and |Y(n) within T^n(P)| in units of 1/Q (merged rows are
        sorted by line), in Python ints: sums of many lengths near Q overflow int64."""
        k = np.searchsorted(rows[:, 0], mark)
        spans = (rows[:, 2] - rows[:, 1]).tolist()
        return sum(spans[:k]), sum(spans[k:])

    current = _merge(np.concatenate([fixed, base + np.array([mark, 0, 0], dtype=dtype)]), Q)
    size, new = split(current)
    lengths, returned = [Fraction(new, Q)], 0  # returned: |Y(0)| + ... + |Y(n-1)|
    for n in steps:
        returned += size
        current = _image(current, rects, moves)
        if not len(current):  # every segment has returned to F or left: B is constant
            lengths += [Fraction(returned, Q)] * (N + 1 - n)
            break
        current = _merge(current, Q)
        size, new = split(current)
        lengths.append(Fraction(returned + new, Q))
    return lengths


# -- entropy asymmetry ratio -----------------------------------------------------


def asymmetry_times(T: IntervalExchange, N: int, m: int, n: int,
                    direction: str) -> list[range]:
    """The windows of times :func:`asymmetry_ratio` joins over: the base
    0..N-1 and its shifts by +m and +n (-m and -n backward).  ValidationError
    for N < 1 or another direction; the ends of each window pass
    :func:`check_powers`, so no time is listed before the budget is checked."""
    if direction not in ("forward", "backward"):
        raise ValidationError("direction must be 'forward' or 'backward'")
    N, m, n = as_integer(N, "N"), as_integer(m, "m"), as_integer(n, "n")
    if N < 1:
        raise ValidationError("N must be >= 1")
    shifts = (0, m, n) if direction == "forward" else (0, -m, -n)
    windows = [range(s, s + N) for s in shifts]
    check_powers(T, [t for w in windows for t in (w[0], w[-1])])
    return windows


def asymmetry_ratio(T: IntervalExchange, xi: IntervalPartition, N: int,
                    m: int, n: int, direction: str = "forward") -> float:
    """H(xi^N v T^{+-m} xi^N v T^{+-n} xi^N) / H(xi^N), exact joins.

    xi^N is the forward join over times 0..N-1; ``direction="backward"``
    translates by -m and -n instead.
    """
    windows = asymmetry_times(T, N, m, n, direction)
    h_base = _exact_result(*_coded_join(T, xi, windows[0], "forward", decode=False)).entropy_bits
    if h_base == 0.0:
        raise DegenerateInputError("H(xi^N) = 0: one-atom partition gives no ratio")
    triple = _coded_join(T, xi, sorted(set().union(*windows)), "forward", decode=False)
    return _exact_result(*triple).entropy_bits / h_base
