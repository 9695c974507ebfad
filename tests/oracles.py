"""Slow exact reference implementations for differential tests.

Each oracle works pair by pair (or point by point, or segment by segment) in
``Fraction`` arithmetic (or, for the baker map, on cylinder dictionaries) and
shares no code with the integer-lattice kernels of ``seqent.systems``,
``seqent.seqentropy`` and ``seqent.weaklimits``, nor with the cell grid of
``seqent.core.check_tiling``.  Two are the kernels they
replaced, kept as slower references on the same integer rows:
:func:`mask_apply` and :func:`reimaging_boundary_growth` (which shares
``seqentropy._image`` and ``_merge`` with the first-return ledger).
:func:`oracle_distance` sums its deviations exactly per pair of levels and
shares only the final float step of the weak distances
(``weaklimits._coefficients`` and ``_combine``) with the library.
:func:`blocked_distances` runs the general weak-limit kernel and
:func:`rotation_class_sums` sums a rotation's distances class by class, the
references for the closed-form rotation path, :func:`composed_power`
composes lattice maps one step at a time, the reference for closed-form
rotation powers, and :func:`per_power_join_gaps` builds a join's gaps from
one lattice power per time, the reference for closed-form rotation joins.
"""
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from seqent import (BudgetError, IntervalExchange, IntervalPartition, ProbabilityVector, Rect,
                    RectangleExchange, ValidationError, weaklimits)
from seqent.segments import SegmentSet
from seqent.seqentropy import (
    LN2,
    SAMPLE_BITS,
    JoinResult,
    _image,
    _merge,
    check_ledger_steps,
    check_partition,
    check_sample_bits,
)
from seqent.systems import (IetLattice, RectLattice, int_dtype, interior_discontinuity_segments,
                            lattice_ints)
from seqent.weaklimits import _checked_times, _coefficients, _combine, _distances, _sum_dtype

ZERO, ONE = Fraction(0), Fraction(1)


def fraction_compose(A: IntervalExchange, B: IntervalExchange) -> IntervalExchange:
    """``A o B`` by evaluating both maps at the midpoint of every gap between
    B's cuts and the B-preimages of A's cuts, merging equal translations."""
    B_inv = B.inverse()
    cuts = sorted(set(B.cuts) | {B_inv.apply(c) for c in A.cuts})
    pieces = []  # (length, translation)
    for a, b in zip(cuts, cuts[1:] + [ONE]):
        mid = (a + b) / 2
        t = A.apply(B.apply(mid)) - mid
        if pieces and pieces[-1][1] == t:
            pieces[-1] = (pieces[-1][0] + (b - a), t)
        else:
            pieces.append((b - a, t))
    lefts = [ZERO]
    for length, _ in pieces[:-1]:
        lefts.append(lefts[-1] + length)
    image_lefts = [left + t for left, (_, t) in zip(lefts, pieces)]
    order = sorted(range(len(pieces)), key=image_lefts.__getitem__)
    perm = [0] * len(pieces)
    for rank, i in enumerate(order):
        perm[i] = rank
    limits = [lim for lim in (A.alias_limit, B.alias_limit) if lim is not None]
    return IntervalExchange(tuple(v for v, _ in pieces), tuple(perm),
                            alias_limit=min(limits) if limits else None)


def fraction_power(T: IntervalExchange, m: int) -> IntervalExchange:
    """T^m by m compositions with the base map, starting from the identity."""
    if m == 0:
        return IntervalExchange.identity()
    base = T if m > 0 else T.inverse()
    result = IntervalExchange.identity()
    for _ in range(abs(m)):
        result = fraction_compose(base, result)
    return result


def fraction_join(T: IntervalExchange, xi: IntervalPartition, times,
                  signs: str = "forward") -> IntervalPartition:
    """The join of T^p xi (``signs="backward"``: T^-p xi) over ``times``:
    every power's cuts and preimages of xi's cuts, each gap labelled at its
    midpoint through ``label_at``; gaps are not merged."""
    sign = -1 if signs == "forward" else 1
    maps = [fraction_power(T, sign * int(t)) for t in times]
    cut_set = set()
    for E in maps:
        cut_set.update(E.cuts)
        E_inv = E.inverse()
        for c in xi.cuts:
            cut_set.add(E_inv.apply(c))
    cuts = sorted(cut_set)
    labels = []
    for a, b in zip(cuts, cuts[1:] + [ONE]):
        mid = (a + b) / 2
        labels.append(tuple(xi.label_at(E.apply(mid)) for E in maps))
    return IntervalPartition(tuple(cuts), tuple(labels))


def common_refinement(xi: IntervalPartition, eta: IntervalPartition) -> IntervalPartition:
    """Join of two interval partitions; labels become (xi-label, eta-label)."""
    cuts = sorted(set(xi.cuts) | set(eta.cuts))  # gaps are right-open: label the left ends
    return IntervalPartition(tuple(cuts), tuple((xi.label_at(c), eta.label_at(c)) for c in cuts))


def baker_join_measures_grid(times) -> tuple:
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


def iet_correlation(U: IntervalExchange, A, B) -> Fraction:
    """mu(U^-1 A intersect B) by clipping each translated piece of U."""
    total = ZERO
    cuts = U.cuts + (ONE,)
    for k, t in enumerate(U.translations):
        lo = max(cuts[k], B.lo, A.lo - t)
        hi = min(cuts[k + 1], B.hi, A.hi - t)
        if hi > lo:
            total += hi - lo
    return total


def baker_inverse(pt) -> tuple:
    """The inverse baker map (x, y) -> ((x + b)/2, 2y mod 1), b the leading
    binary digit of y, on a point of ``Fraction`` coordinates."""
    x, y = pt
    b = 1 if y >= Fraction(1, 2) else 0
    return ((x + b) / 2, (2 * y) % 1)


def shift_cylinder(cyl: dict, m: int) -> dict:
    return {coord + m: bit for coord, bit in cyl.items()}


def cylinder_measure(cyls) -> Fraction:
    """Measure of an intersection of shift cylinders given as {coord: bit}."""
    merged = {}
    for cyl in cyls:
        for coord, bit in cyl.items():
            if merged.setdefault(coord, bit) != bit:
                return ZERO
    return Fraction(1, 2 ** len(merged))


def oracle_correlation_matrix(T, m: int, family) -> list:
    """Exact mu(T^-m A_i intersect A_j) pair by pair."""
    if isinstance(T, IntervalExchange):
        U = fraction_power(T, m)
        return [[iet_correlation(U, a, b) for b in family.sets] for a in family.sets]
    return [[cylinder_measure([shift_cylinder(a.cylinder(), m), b.cylinder()])
             for b in family.sets] for a in family.sets]


def oracle_distance(T, corr, family, target) -> float:
    """The sigma-normalized weak distance of T's Fraction correlations ``corr``
    over a dyadic-interval or dyadic-rectangle family to ``target``: "theta",
    "identity" or an ``AdmissibleSpec``, whose matrix Z is built here from
    measures, overlaps and this module's correlations.  Each level pair's sum
    S_lp of K_lp * G * |corr - Z| over its pairs is an exact ``Fraction``,
    with G the unit of the weak-limit kernels (Q * 2^d for an exchange whose
    lengths have lcm denominator Q, 4^d for the baker map, d the deepest
    level) and K_lp = 2^(l_a + l_b) for Theta, else the lcm of the
    denominators of G * Z; the float step the paths share,
    ``weaklimits._combine``, then weighs them."""
    sets = family.sets
    depth = max(s.level for s in sets)
    if isinstance(T, IntervalExchange):
        G = math.lcm(*(v.denominator for v in T.lengths)) << depth
    else:
        G = 1 << 2 * depth
    if target == "identity":
        Z = [[_overlap(a, b) for b in sets] for a in sets]
    else:
        weight = 1 if target == "theta" else target.theta_weight
        Z = [[weight * a.measure * b.measure for b in sets] for a in sets]
        for power, coeff in () if target == "theta" else target.terms:
            terms = oracle_correlation_matrix(T, power, family)
            Z = [[z + coeff * c for z, c in zip(row, term)] for row, term in zip(Z, terms)]
    D = None if target == "theta" else math.lcm(*((G * z).denominator for row in Z for z in row))
    levels = sorted({s.level for s in sets})
    S = np.zeros((1, len(levels), len(levels)), dtype=object)
    for a, row, targets in zip(sets, corr, Z):
        for b, c, z in zip(sets, row, targets):
            s = (2 ** (a.level + b.level) if D is None else D) * G * abs(c - z)
            assert s.denominator == 1
            S[0, levels.index(a.level), levels.index(b.level)] += s.numerator
    return _combine(S, _coefficients(sets, G, D))[0]


def composed_power(lattice: IetLattice, t: int) -> IetLattice:
    """lattice^t by |t| compositions (``IetLattice.compose``) of the base
    map, or of its inverse, with the identity of the lattice's dtype."""
    zero = np.zeros(1, dtype=lattice.cuts.dtype)
    power, base = IetLattice(lattice.Q, zero, zero), lattice if t > 0 else lattice.inverse
    for _ in range(abs(t)):
        power = base.compose(power)
    return power


def per_power_join_gaps(T, xi, times, signs: str):
    """``seqentropy._join_gaps`` of valid input from one lattice power per
    time, rotations included: the cuts are every power's cuts and inverse
    images of xi's edges, and each time's gaps are found by applying its power."""
    signed = [(-t if signs == "forward" else t) for t in times]
    lattice = IetLattice.of(T).scaled(math.lcm(*(c.denominator for c in xi.cuts)))
    edges = lattice_ints(xi.cuts, lattice.Q)
    maps = list(map(dict(lattice.powers(signed)).__getitem__, signed))
    cuts = np.sort(np.concatenate([np.append(U.cuts, U.inverse.apply(edges)) for U in maps]),
                   kind="stable")
    cuts = cuts[np.append(True, cuts[1:] != cuts[:-1])]
    return cuts, lattice.Q, (np.searchsorted(edges, U.apply(cuts), side="right") - 1 for U in maps)


def blocked_distances(T, ms, family, mode: str) -> list:
    """The weak distances to ``mode``'s targets from the blocked lattice kernel
    (``weaklimits._numerators``), the path of every exchange but a rotation."""
    return _distances(T, ms, family, mode)


def rotation_class_sums(T, ms, family, mode: str) -> list:
    """The weak distances of a rotation T's powers to ``mode``'s targets
    ("theta" or "identity"), evaluating every class of every level pair for
    every power: the per-class sums that the closed form of
    ``weaklimits._rotation_distances`` replaced.

    With G = Q * 2^d, T^m is the shift r = m * rho * 2^d mod G, and C_ab is
    the overlap of the arcs A_b and A_a - r of the circle of length G.  It
    depends only on the two levels and on the class (u_a - u_b) / (G / 2^l)
    mod 2^l of the left ends u, l = max(l_a, l_b), so S_lp sums |K * C - t|
    once per class the family holds, times its pairs in the class
    (2^min(l_a, l_b) in a complete family, else one bincount over the
    family's pairs), in stacks of the kernel's width.
    """
    lattice = IetLattice.of(T)
    Q, rho = lattice.Q, lattice.shift
    sets = sorted(family.sets, key=lambda s: s.level)
    times = _checked_times(T, ms, sets)
    level = np.array([s.level for s in sets])
    levels, index = np.unique(level, return_inverse=True)
    depth, n, L = int(levels[-1]), len(sets), len(levels)
    n_all = (2 << depth) - 1  # the sets of the complete family of depth d
    G, itype = Q << depth, int_dtype(Q << depth)
    la, lb = (levels[i] for i in np.divmod(np.arange(L * L), L))  # the level pairs, l_a major
    top = np.maximum(la, lb)
    counts = 1 << top  # classes of each level pair
    first = np.cumsum(counts) - counts
    if [(1 << s.level) - 1 + s.k for s in sets] == list(range(n_all)):
        mult = np.repeat(1 << np.minimum(la, lb), counts)
    else:
        u = np.array([s.k << depth - s.level for s in sets])  # left ends, in units of G >> d
        a, b = np.divmod(np.arange(n * n), n)
        pair = index[a] * L + index[b]
        j = (u[a] - u[b]) % (1 << depth) >> depth - top[pair]
        mult = np.bincount(first[pair] + j, minlength=counts.sum())
    held = np.flatnonzero(mult)  # the classes the family holds, grouped by level pair
    pair, mult = np.repeat(np.arange(L * L), counts)[held], mult[held]
    lengths = np.array([G >> l for l in range(depth + 1)], dtype=itype)
    A_len, B_len = lengths[la[pair]], lengths[lb[pair]]
    lefts = (held - first[pair]).astype(itype) * np.minimum(A_len, B_len)  # u_a - u_b mod G

    def overlaps(r: np.ndarray) -> np.ndarray:
        """The numerators of every held class for the shifts r, a (b, 1) column."""
        d = lefts - r  # A_a - r starts d mod G after A_b; both terms lie in [0, G)
        d = np.where(d < 0, d + G, d)
        end = d + A_len
        return np.maximum(np.minimum(B_len, end) - d, 0) + np.maximum(np.minimum(B_len, end - G), 0)

    theta = mode == "theta"
    dtype = _sum_dtype(n * n * (G << depth if theta else G))
    K, t = ((1 << la + lb)[pair], G) if theta else (1, overlaps(np.zeros((1, 1), dtype=itype)))
    c, starts = _coefficients(sets, G, None if theta else 1), np.flatnonzero(np.diff(pair, prepend=-1))
    width, shift, values = max(1, weaklimits.BLOCK_ENTRIES // n_all**2), rho << depth, {}
    for i in range(0, len(times), width):
        stack = times[i:i + width]
        S = overlaps(np.array([m * shift % G for m in stack], dtype=itype)[:, None]).astype(dtype)
        S *= K
        S -= t
        np.abs(S, out=S)
        S *= mult
        values.update(zip(stack, _combine(np.add.reduceat(S, starts, axis=1), c)))
    return [values[m] for m in ms]


def _overlap(a, b) -> Fraction:
    if hasattr(a, "cylinder"):
        return cylinder_measure([a.cylinder(), b.cylinder()])
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return hi - lo if hi > lo else ZERO


def rect_intersection(a: Rect, b: Rect):
    """The rectangle a and b share, or None if they share no area."""
    x0, x1 = max(a.x0, b.x0), min(a.x1, b.x1)
    y0, y1 = max(a.y0, b.y0), min(a.y1, b.y1)
    return Rect(x0, x1, y0, y1) if x0 < x1 and y0 < y1 else None


def pairwise_check_tiling(rects, what: str) -> None:
    """``check_tiling``'s rule pair by pair: ValidationError unless every
    rectangle lies inside the unit square, no two share area and the areas
    sum to 1; an overlap names the pair (i, j) of smallest j, then smallest i."""
    for i, r in enumerate(rects):
        if r.x0 < 0 or r.x1 > 1 or r.y0 < 0 or r.y1 > 1:
            raise ValidationError(f"{what} rectangle {i} leaves the unit square")
    for j, r in enumerate(rects):
        for i in range(j):
            if rect_intersection(rects[i], r) is not None:
                raise ValidationError(f"{what} rectangles overlap at indices ({i},{j})")
    if sum(r.area for r in rects) != 1:
        raise ValidationError(f"{what} rectangle areas do not sum to 1 (gap in the tiling)")


def scan_tile(rects, pt) -> int:
    """Index of the first rectangle holding pt, by a linear scan."""
    x, y = pt
    return next(k for k, r in enumerate(rects) if r.x0 <= x < r.x1 and r.y0 <= y < r.y1)


def scan_label_at(xi, pt):
    """``RectanglePartition.label_at`` by a linear scan of the atoms."""
    return xi.atoms[scan_tile([r for r, _ in xi.atoms], pt)][1]


def scan_apply(T, pt):
    """A rectangle exchange's ``apply`` by a linear scan of the sources; any
    other planar map's own ``apply``."""
    if not isinstance(T, RectangleExchange):
        return T.apply(pt)
    dx, dy = T.translations[scan_tile(T.sources, pt)]
    return pt[0] + dx, pt[1] + dy


def formula_entropy_from_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Miller-Madow corrected plug-in entropy (bits) per row of counts, with
    c log2 c evaluated on every entry of the float64 count matrix."""
    counts = np.atleast_2d(counts).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        clogc = np.where(counts > 0, counts * np.log2(np.maximum(counts, 1)), 0.0)
    plug = np.log2(n) - clogc.sum(axis=1) / n
    support = (counts > 0).sum(axis=1)
    return plug + (support - 1) / (2.0 * n * LN2)


def fraction_mc_join_entropy(T, xi, family, n_samples: int, seed: int,
                             n_bootstrap: int = 200) -> JoinResult:
    """Monte Carlo join entropy with one ``Fraction`` point per sample, moved
    by :func:`scan_apply` and labelled by :func:`scan_label_at` one step at a
    time; label tuples are counted in a dict."""
    check_sample_bits(T, xi, family)
    rng = random.Random(seed)
    times = list(family.members)
    time_index = {t: i for i, t in enumerate(times)}
    counter: Counter = Counter()
    denom = 2**SAMPLE_BITS
    for _ in range(n_samples):
        pt = tuple(Fraction(rng.getrandbits(SAMPLE_BITS), denom) for _ in range(2))
        label = [None] * len(times)
        for t in range(1, times[-1] + 1):
            pt = scan_apply(T, pt)
            if t in time_index:
                label[time_index[t]] = scan_label_at(xi, pt)
        counter[tuple(label)] += 1
    counts = np.array(sorted(counter.values(), reverse=True), dtype=np.int64)
    estimate = 0.0 if len(counts) == 1 else float(formula_entropy_from_counts(counts, n_samples)[0])
    nprng = np.random.default_rng(seed)
    boot_counts = nprng.multinomial(n_samples, counts / n_samples, size=n_bootstrap)
    boot = formula_entropy_from_counts(boot_counts, n_samples)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return JoinResult(
        entropy_bits=estimate,
        atom_count=len(counts),
        method="monte_carlo",
        measures=ProbabilityVector(tuple(Fraction(int(c), n_samples) for c in counts)),
        ci_halfwidth=float(hi - lo) / 2.0,
    )


def _partition_boundary(xi) -> SegmentSet:
    s = SegmentSet()
    for r, _ in xi.atoms:
        s.add_vertical(r.x0, r.y0, r.y1)
        s.add_vertical(r.x1, r.y0, r.y1)
        s.add_horizontal(r.y0, r.x0, r.x1)
        s.add_horizontal(r.y1, r.x0, r.x1)
    return s


def _image_segments(T, s: SegmentSet) -> SegmentSet:
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


def segmentset_boundary_growth(T, xi, N: int) -> list:
    """Boundary lengths B(0..N) on ``SegmentSet``s of ``Fraction`` segments:
    image the set, union in the partition boundary and the image-side seams."""
    base = _partition_boundary(xi)
    seams = SegmentSet()
    vertical, horizontal = interior_discontinuity_segments(T)
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


def reimaging_boundary_growth(T, xi, N: int) -> list:
    """Boundary lengths B(0..N) on the lattice rows of ``seqentropy``, by
    re-imaging the whole set each step: S(n) = image(S(n-1)) + fixed, so
    each step costs O(B(n)).  Segments are integer rows (line, lo, hi) in one
    banded set: a vertical segment (x; y0, y1) is the row (x, y0, y1) and a
    horizontal one (y; x0, x1) the row (Q + 1 + y, x0, x1).  A line is below
    2Q + 2, so while Q < 2^62 it stays below 2^63; beyond, the rows are
    Python ints."""
    check_partition(T, xi)
    steps = check_ledger_steps(N)
    corners = [v for r, _ in xi.atoms for v in (r.x0, r.x1, r.y0, r.y1)]
    lattice = RectLattice.of(T, corners)
    Q = lattice.Q
    atoms = lattice_ints(corners, Q).reshape(-1, 4)
    vertical, horizontal = (lattice_ints([v for seg in side for v in seg], Q).reshape(-1, 3)
                            for side in interior_discontinuity_segments(T))
    up = np.array([Q + 1, 0, 0], dtype=atoms.dtype)  # moves a horizontal row to its band
    base = np.concatenate([atoms[:, [0, 2, 3]], atoms[:, [1, 2, 3]],
                           atoms[:, [2, 0, 1]] + up, atoms[:, [3, 0, 1]] + up])
    fixed = _merge(np.concatenate([base, vertical, horizontal + up]), Q)
    # a vertical row meets a source as (x range, y range), a horizontal one as (y range, x range)
    rects = np.concatenate([lattice.sources, lattice.sources[:, [2, 3, 0, 1]] + up[[0, 0, 1, 2]]])
    shifts = np.concatenate([lattice.trans, lattice.trans[:, ::-1]])

    def length(rows) -> Fraction:  # Python ints: a sum of many lengths near Q overflows int64
        return Fraction(sum(rows[:, 2].tolist()) - sum(rows[:, 1].tolist()), Q)

    current = _merge(base, Q)
    lengths = [length(current)]
    for _ in steps:
        current = _merge(np.concatenate([_image(current, rects, shifts), fixed]), Q)
        lengths.append(length(current))
    return lengths


def mask_apply(lattice, X, Y):
    """``RectLattice.apply`` by four full-array comparisons per source."""
    k = np.zeros(len(X), dtype=np.intp)
    for i, (x0, x1, y0, y1) in enumerate(lattice.sources[1:], 1):
        k[(x0 <= X) & (X < x1) & (y0 <= Y) & (Y < y1)] = i
    return X + lattice.trans[k, 0], Y + lattice.trans[k, 1]
