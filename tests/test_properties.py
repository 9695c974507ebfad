"""Property tests: the integer-lattice kernels against the Fraction,
SegmentSet and cylinder-dictionary oracles in ``oracles.py``, and invariants
of joins."""
import contextlib
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqent import (
    AdmissibleSpec,
    BakerMap,
    BudgetError,
    IntervalExchange,
    IntervalPartition,
    Rect,
    RectangleExchange,
    RectanglePartition,
    SeqentError,
    boundary_growth,
    correlation,
    dist_to_admissible,
    entropy_trace,
    exact_join,
    explicit_family,
    join_for,
    make_progression_family,
    mixing_time_scan,
    partition_measures,
    rigidity_scan,
    seqentropy,
    shannon_entropy,
    triple_correlation,
    weaklimits,
)
from seqent.cli import estimate_join_cuts
from seqent.core import ProbabilityVector, check_tiling
from seqent.errors import MAX_TILING_CELLS
from seqent.seqentropy import _coded_join, _entropy_from_counts, _exact_result, _merge, join_partition
from seqent.systems import (IetLattice, RectLattice, golden_rotation, int_dtype,
                            interior_discontinuity_segments, powers_of)
from seqent.weaklimits import TestFamily as Family
from seqent.weaklimits import TestSet1D as Dyadic1D
from seqent.weaklimits import TestSet2D as Dyadic2D
from seqent.weaklimits import _numerators, _pooled, _scan_distances, correlation_matrix

from oracles import (
    blocked_distances,
    composed_power,
    cylinder,
    cylinder_measure,
    formula_entropy_from_counts,
    fraction_join,
    fraction_power,
    iet_correlation,
    mask_apply,
    oracle_correlation_matrix,
    oracle_distance,
    pairwise_check_tiling,
    per_power_join_gaps,
    reimaging_boundary_growth,
    rotation_class_sums,
    scan_apply,
    scan_label_at,
    segmentset_boundary_growth,
    shift_cylinder,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
TIMES = st.integers(-12, 12)
THREE_IET = IntervalExchange((Fraction(1, 5), Fraction(2, 7), Fraction(18, 35)), (2, 0, 1))
# a sparse family that repeats sets and skips a level
REPEATS = Family((Dyadic1D(0, 0), Dyadic1D(2, 1), Dyadic1D(1, 0), Dyadic1D(2, 1), Dyadic1D(4, 9),
                  Dyadic1D(1, 0)))


@st.composite
def iets(draw):
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return IntervalExchange(tuple(Fraction(w, sum(weights)) for w in weights), tuple(perm))


@st.composite
def interval_partitions(draw):
    """Up to five cuts with denominators up to 12, labels from a three-letter
    alphabet (so non-adjacent gaps often share a label)."""
    cuts = draw(st.sets(st.fractions(0, 1, max_denominator=12).filter(lambda c: 0 < c < 1),
                        max_size=5))
    cuts = [Fraction(0), *sorted(cuts)]
    return IntervalPartition(tuple(cuts), tuple(draw(st.sampled_from("abc")) for _ in cuts))


@st.composite
def dyadic_intervals(draw, max_level=5, min_level=0):
    level = draw(st.integers(min_level, max_level))
    return Dyadic1D(level, draw(st.integers(0, 2**level - 1)))


@st.composite
def dyadic_rectangles(draw, max_level=3):
    xl, yl = draw(st.integers(0, max_level)), draw(st.integers(0, max_level))
    return Dyadic2D(xl, draw(st.integers(0, 2**xl - 1)), yl, draw(st.integers(0, 2**yl - 1)))


@st.composite
def interval_families(draw):
    """A full dyadic family of depth <= 3, possibly with one set replaced, or
    the full space plus up to eight dyadic intervals of level <= 5."""
    if draw(st.booleans()):
        sets = list(Family.dyadic_intervals(draw(st.integers(0, 3))).sets)
        if len(sets) > 1 and draw(st.booleans()):
            sets[draw(st.integers(1, len(sets) - 1))] = draw(dyadic_intervals(3))
        return Family(tuple(sets))
    sets = draw(st.lists(dyadic_intervals(), max_size=8))
    return Family((Dyadic1D(0, 0), *sets))


@SETTINGS
@given(iets(), TIMES, interval_families())
def test_correlation_matrix_matches_fraction_oracle(T, m, family):
    assert correlation_matrix(T, m, family) == oracle_correlation_matrix(T, m, family)


@st.composite
def scan_times(draw, far=40):
    """Unsorted times with repeats and negative values, a run of up to 12
    consecutive ones (which spans several stacks), and a few far ones."""
    near = draw(st.lists(TIMES, min_size=1, max_size=10))
    first = draw(TIMES)
    near += list(range(first, first + draw(st.integers(0, 12))))
    times = near + draw(st.lists(st.integers(-far, far), max_size=2)) + near[:draw(
        st.integers(0, 2))]
    return draw(st.permutations(times))


@contextlib.contextmanager
def windows_of(width: int, family):
    """Scan an interval exchange in windows of at most ``width`` powers: the
    kernel evaluates one 2^d x 2^d cell matrix per power, d ``family``'s depth,
    and the rotation closed form stacks as many powers."""
    saved = weaklimits.BLOCK_ENTRIES
    weaklimits.BLOCK_ENTRIES = width * 4 ** max(s.level for s in family.sets)
    try:
        yield
    finally:
        weaklimits.BLOCK_ENTRIES = saved


def stack_matrices(T, C, family):
    """The family's matrices of a kernel stack C: an interval exchange's cell
    matrices pooled to each pair's levels (``weaklimits._pooled``) and read at
    the pair's intervals, the baker map's cylinder matrices as they are."""
    if not isinstance(T, IntervalExchange):
        return C
    sets = family.sets
    blocks = {(la, lb): P for la, lb, P in _pooled(C, max(s.level for s in sets))}
    return [[[blocks[a.level, b.level][k, a.k, b.k] for b in sets] for a in sets]
            for k in range(len(C))]


def check_blocked_kernel(T, times, family, width):
    """Every stack's pooled matrices and every scan distance equal the
    oracle's; returns the times of each of the kernel's stacks."""
    oracle = {m: oracle_correlation_matrix(T, m, family) for m in times}
    with windows_of(width, family):
        G, blocks = _numerators(T, times, family.sets)
        seen, stacks = {}, []
        for stack, C in blocks:  # a stack is valid until the next one
            stacks.append(stack)
            assert len(C) == len(stack)
            for m, matrix in zip(stack, stack_matrices(T, C, family)):
                seen[m] = [[Fraction(int(v), G) for v in row] for row in matrix]
        assert sorted(seen) == sorted(set(times)) and all(seen[m] == oracle[m] for m in times)
        for mode in ("theta", "identity"):
            want = [oracle_distance(T, oracle[m], family, mode) for m in times]
            assert _scan_distances(T, times, family, mode) == want
            assert blocked_distances(T, times, family, mode) == want
    return stacks


@st.composite
def wide_iets(draw):
    """IETs whose lattice unit Q is near 2^bits: the scaled lattice G = Q * 2^d
    then runs past 2^53 (integer sums) and past 2^62 (Python integers)."""
    bits = draw(st.integers(48, 62))
    weights = draw(st.lists(st.integers(2**bits, 2**bits + 99), min_size=2, max_size=4))
    perm = draw(st.permutations(range(len(weights))))
    return IntervalExchange(tuple(Fraction(w, sum(weights)) for w in weights), tuple(perm))


@st.composite
def cyclic_shifts(draw):
    """3 or 4 intervals, interval i moved to place i + s mod n: a rotation."""
    n = draw(st.integers(3, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    s = draw(st.integers(1, n - 1))
    return IntervalExchange(tuple(Fraction(w, sum(weights)) for w in weights),
                            tuple((i + s) % n for i in range(n)))


def rational_rotations(q):
    """x -> x + p/q mod 1 over denominators q drawn by ``q``; p = 0 is the identity."""
    return q.flatmap(lambda q: st.integers(0, q - 1).map(
        lambda p: IntervalExchange.rotation(Fraction(p, q))))


@SETTINGS
@given(st.one_of(iets(), wide_iets(), st.just(golden_rotation().to_iet()), cyclic_shifts(),
                 rational_rotations(st.integers(1, 10**4)),
                 rational_rotations(st.integers(2**48, 2**64))),
       scan_times(), interval_families(), st.integers(1, 5))
@example(IntervalExchange((Fraction(1, 5), Fraction(2, 7), Fraction(18, 35)), (2, 1, 0)),
         [3, -1, 4], REPEATS, 2)
@example(IntervalExchange.rotation(Fraction(2**61 - 1, 2**62 - 57)), [-1, 0, 1, 7], REPEATS, 1)
def test_blocked_kernel_matches_fraction_oracle(T, times, family, width):
    # rotations take the closed form in _scan_distances, and the kernel in blocked_distances
    check_blocked_kernel(T, times, family, width)


def check_rotation_path(T, times, family, want):
    """The scans of T equal ``want``: a complete dyadic family, in any order,
    in closed form with no kernel stack, any other family through the kernel."""
    depth = max(s.level for s in family.sets)
    complete = sorted(family.sets, key=lambda s: (s.level, s.k)) == list(
        Family.dyadic_intervals(depth).sets)
    with mock.patch.object(weaklimits, "_numerators", wraps=_numerators) as kernel:
        for mode in ("theta", "identity"):
            assert _scan_distances(T, times, family, mode) == want[mode]
    assert kernel.called != complete


# the complete family of depth 6 in reversed order (closed form), and a sparse family of
# depth 9 with a repeated set (the kernel)
REVERSED_6 = Family(Family.dyadic_intervals(6).sets[::-1])
SPARSE_9 = Family((Dyadic1D(0, 0), Dyadic1D(9, 300), Dyadic1D(3, 5), Dyadic1D(9, 300),
                   Dyadic1D(6, 17)))


@st.composite
def interval_families_to_depth_6(draw):
    """A complete dyadic family of depth 0..6, or the full space plus up to
    eight dyadic intervals of level <= 6, repeats allowed."""
    if draw(st.booleans()):
        return Family.dyadic_intervals(draw(st.integers(0, 6)))
    return Family((Dyadic1D(0, 0), *draw(st.lists(dyadic_intervals(6), max_size=8))))


@SETTINGS
@given(st.one_of(rational_rotations(st.integers(1, 10**4)), cyclic_shifts(),
                 rational_rotations(st.integers(2**48, 2**62))),
       scan_times(), interval_families_to_depth_6(), st.integers(1, 5))
@example(IntervalExchange.identity(), [0, -3, 2], Family.dyadic_intervals(6), 2)
@example(IntervalExchange.rotation(Fraction(2**50 + 1, 2**51 + 3)), [-5, 0, 1, 2, 9],
         Family.dyadic_intervals(4), 3)  # G = Q * 2^4 past 2^53: int64 numerators
@example(IntervalExchange.rotation(Fraction(2**61 - 1, 2**62 - 57)), [-1, 0, 1, 7],
         Family.dyadic_intervals(3), 1)  # G past 2^62: Python integers
@example(IntervalExchange.rotation(Fraction(3, 7)), [5, -2, 0, 1, 3], REVERSED_6, 2)
@example(golden_rotation().to_iet(), [-5, 0, 1, 2, 3, 89], SPARSE_9, 2)
def test_rotation_distances_equal_the_blocked_kernel(T, times, family, width):
    with windows_of(width, family):
        want = {mode: blocked_distances(T, times, family, mode) for mode in ("theta", "identity")}
        check_rotation_path(T, times, family, want)


@st.composite
def rotation_scans(draw):
    """A rotation and its scanned times: zero, negative and repeated ones, and
    multiples of its period, where T^m is the identity.  Under a rotation by
    p/2^k every time puts the shift on a class boundary (u = 0) at levels k
    and deeper; q in 2^20..2^40 puts the sums near the edge of float64."""
    T = draw(st.one_of(rational_rotations(st.integers(1, 10**4)),
                       rational_rotations(st.integers(2**20, 2**40)),
                       rational_rotations(st.integers(2**48, 2**64)),
                       rational_rotations(st.sampled_from([2**k for k in range(11)])),
                       cyclic_shifts(), st.just(IntervalExchange.identity())))
    times, Q = draw(scan_times()), IetLattice.of(T).Q
    if Q <= 10**4:
        times += [k * Q for k in draw(st.lists(st.integers(-3, 3), max_size=3))]
    return T, draw(st.permutations(times))


@st.composite
def interval_families_to_depth_8(draw):
    """A complete dyadic family of depth 0..8, or the full space plus up to
    eight dyadic intervals of level <= 8, some of them repeated."""
    if draw(st.booleans()):
        return Family.dyadic_intervals(draw(st.integers(0, 8)))
    sets = draw(st.lists(dyadic_intervals(8), max_size=8))
    return Family((Dyadic1D(0, 0), *sets, *sets[:draw(st.integers(0, 3))]))


@SETTINGS
@given(rotation_scans(), interval_families_to_depth_8(), st.integers(1, 5))
@example((IntervalExchange.rotation(Fraction(1, 3)), [2, 0, -1]), Family((Dyadic1D(0, 0),)), 1)
@example((IntervalExchange.rotation(Fraction(6, 7)), [1, -1, 2, 7]),  # windows past class 2^l - 1
         Family.dyadic_intervals(3), 2)
@example((IntervalExchange.rotation(Fraction(2**35 + 1, 2**36 + 5)), [-4, 1, 2, 3, 1000]),
         Family.dyadic_intervals(5), 2)  # G below 2^53, sums past it: int64
@example((IntervalExchange.rotation(Fraction(2**61 - 1, 2**62 - 57)), [-1, 0, 1, 7, 7]),
         REPEATS, 1)  # G past 2^62: Python integers
@example((golden_rotation().to_iet(), [-7, 0, *range(1, 18), 89]), Family.dyadic_intervals(11), 1)
@example((IntervalExchange.rotation(Fraction(3, 7)), [5, -2, 0, 1, 3, 7]), REVERSED_6, 2)
@example((golden_rotation().to_iet(), [-5, 0, 1, 2, 3, 89]), SPARSE_9, 2)
def test_rotation_closed_form_equals_the_class_sums(scan, family, width):
    T, times = scan
    with windows_of(width, family):
        want = {mode: rotation_class_sums(T, times, family, mode) for mode in ("theta", "identity")}
        check_rotation_path(T, times, family, want)


@pytest.mark.parametrize("width", [1, 3, 7, 12])
def test_rotations_and_the_kernel_stack_by_one_width_rule(width):
    family, n = Family.dyadic_intervals(3), 11
    four_iet = IntervalExchange(
        (Fraction(1, 5), Fraction(2, 7), Fraction(3, 11), Fraction(93, 385)), (3, 2, 1, 0))
    for T in (golden_rotation().to_iet(), four_iet):
        for scan in (lambda: mixing_time_scan(T, 0, 0.05, n, family),
                     lambda: rigidity_scan(T, n, 0.02, family)):
            with windows_of(width, family), mock.patch.object(
                    weaklimits, "_combine", wraps=weaklimits._combine) as combine:
                scan()
            assert combine.call_count == -(-n // width)


@SETTINGS
@given(st.one_of(rational_rotations(st.integers(1, 10**4)), cyclic_shifts(),
                 rational_rotations(st.integers(2**48, 2**64))),
       st.lists(TIMES, min_size=1, max_size=6))
@example(IntervalExchange.identity(), [0, -3, 5, 0])
@example(IntervalExchange.rotation(Fraction(2**62 + 1, 2**63 + 5)), [-2, 0, 3, 3])  # object tier
def test_closed_form_rotation_powers_equal_composed_ones(T, times):
    lattice = IetLattice.of(T)
    assert lattice.shift is not None
    with mock.patch.object(IetLattice, "compose", side_effect=AssertionError("composed")):
        powers = list(lattice.powers(times))
    assert [t for t, _ in powers] == sorted(set(times), key=lambda t: (t != 0, t < 0, abs(t)))
    for t, U in powers:
        want = composed_power(lattice, t)
        for got, ref in ((U, want), (U.inverse, want.inverse)):
            assert got.cuts.dtype == ref.cuts.dtype == got.trans.dtype == ref.trans.dtype
            assert got.cuts.tolist() == ref.cuts.tolist()
            assert got.trans.tolist() == ref.trans.tolist()


@SETTINGS
@given(st.one_of(rational_rotations(st.integers(1, 10**4)),
                 rational_rotations(st.integers(2**48, 2**64)),
                 cyclic_shifts(), st.just(IntervalExchange.identity())),
       interval_partitions(), scan_times(), st.sampled_from(["forward", "backward"]),
       st.sampled_from([1, 7, 2**15]))
@example(golden_rotation().to_iet(), IntervalPartition.dyadic(2), [0, -3, 5, 5, 89], "forward", 7)
@example(IntervalExchange.rotation(Fraction(2**62 + 1, 2**63 + 5)), IntervalPartition.halves(),
         [-2, 0, 3, 3], "backward", 1)  # object tier
def test_closed_form_rotation_join_gaps_equal_the_per_power_ones(T, xi, times, signs, chunk):
    want_cuts, want_Q, want_gaps = per_power_join_gaps(T, xi, times, signs)
    with mock.patch.object(seqentropy, "ROTATION_CHUNK", chunk):
        cuts, Q, gaps = seqentropy._join_gaps(T, xi, times, signs)
        gaps = list(gaps)
    assert Q == want_Q and cuts.dtype == want_cuts.dtype and cuts.tolist() == want_cuts.tolist()
    want_gaps = list(want_gaps)
    assert [g.dtype for g in gaps] == [g.dtype for g in want_gaps]
    assert [g.tolist() for g in gaps] == [g.tolist() for g in want_gaps]


def test_consecutive_powers_fill_stacks_and_end_on_a_partial_one():
    stacks = check_blocked_kernel(golden_rotation().to_iet(), list(range(5)),
                                  Family.dyadic_intervals(4), 2)
    assert stacks == [[0, 1], [2, 3], [4]]


def test_strided_times_fill_stacks_of_requested_times():
    # a stride of 3 in stacks of B = 3: each stack holds three requested times and no other
    times = list(range(-9, 40, 3))
    stacks = check_blocked_kernel(THREE_IET, times, Family.dyadic_intervals(2), 3)
    assert stacks == [[0, 3, 6], [9, 12, 15], [18, 21, 24], [27, 30, 33], [36, 39, -3], [-6, -9]]


def test_powers_of_many_pieces_match_the_oracle():
    T = IntervalExchange((Fraction(1, 5), Fraction(2, 7), Fraction(3, 11), Fraction(93, 385)),
                         (3, 2, 1, 0))
    assert len(powers_of(T, [60])[60]) > 100
    stacks = check_blocked_kernel(T, list(range(60, 65)), Family.dyadic_intervals(2), 2)
    assert stacks == [[60, 61], [62, 63], [64]]


@SETTINGS
@given(st.integers(1, 9).flatmap(lambda w: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(0, 10**4)), min_size=w, max_size=w),
    min_size=1, max_size=6)), st.integers(1, 10**5), st.booleans())
def test_entropy_table_matches_the_count_formula(rows, n, one_row):
    counts = np.array(rows[0] if one_row else rows, dtype=np.int64)
    assert (_entropy_from_counts(counts, n).tobytes()
            == formula_entropy_from_counts(counts, n).tobytes())


def test_entropy_table_matches_the_count_formula_on_a_bootstrap():
    # rows as long as a high-support Monte Carlo join's, zeros included
    rng = np.random.default_rng(5)
    p = rng.random(3000)
    counts = rng.multinomial(10**4, p / p.sum(), size=40)
    assert (counts == 0).any()
    assert (_entropy_from_counts(counts, 10**4).tobytes()
            == formula_entropy_from_counts(counts, 10**4).tobytes())


@SETTINGS
@given(st.one_of(iets(), wide_iets()), TIMES, dyadic_intervals(30, min_level=12),
       st.integers(0, 30))
def test_deep_pair_correlation_matches_fraction_oracle(T, m, A, level):
    # levels past any complete family; B holds the point T^-m(A.lo) of T^-m A
    x = fraction_power(T, -m).apply(A.lo)
    B = Dyadic1D(level, math.floor(x * 2**level))
    assert correlation(T, A, B, m) == iet_correlation(fraction_power(T, m), A, B)


@st.composite
def rectangle_families(draw):
    """A full dyadic-rectangle family of depth <= 4, or the full square plus up
    to six dyadic rectangles."""
    if draw(st.booleans()):
        return Family.dyadic_rectangles(draw(st.integers(0, 4)))
    return Family((Dyadic2D(0, 0, 0, 0), *draw(st.lists(dyadic_rectangles(), max_size=6))))


@SETTINGS
@given(scan_times(far=20), rectangle_families())
@example([0, 1, 2, -3], Family((Dyadic2D(0, 0, 0, 0), Dyadic2D(1, 1, 2, 3), Dyadic2D(0, 0, 1, 0),
                                Dyadic2D(1, 1, 2, 3), Dyadic2D(0, 0, 1, 0))))
def test_blocked_baker_kernel_matches_cylinder_oracle(times, family):
    check_blocked_kernel(BakerMap(), times, family, 1)


@st.composite
def admissible_specs(draw):
    """A Theta weight and up to two powers, with coefficients of denominators
    up to 18 that sum to 1."""
    parts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3).filter(any))
    powers = draw(st.lists(TIMES, min_size=len(parts) - 1, max_size=len(parts) - 1))
    total = sum(parts)
    return AdmissibleSpec(Fraction(parts[0], total),
                          tuple((p, Fraction(c, total)) for p, c in zip(powers, parts[1:])))


@SETTINGS
@given(st.tuples(st.one_of(iets(), wide_iets()), interval_families())
       | st.tuples(st.just(BakerMap()), rectangle_families()), TIMES, admissible_specs())
def test_admissible_distance_matches_fraction_oracle(system, m, spec):
    T, family = system
    assert dist_to_admissible(T, m, spec, family) == oracle_distance(
        T, oracle_correlation_matrix(T, m, family), family, spec)


@SETTINGS
@given(st.integers(2, 60).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
       st.integers(1, 40))
def test_rotation_join_has_at_most_three_gap_lengths(angle, n):
    # Sos (1958): the points {-p alpha mod 1}, 0 <= p < n, cut the circle into
    # gaps of at most three lengths, the largest the sum of the other two
    alpha = Fraction(*angle)
    one_atom = IntervalPartition((Fraction(0),), ("x",))
    join = join_partition(IntervalExchange.rotation(alpha), one_atom, range(n), signs="backward")
    assert set(join.cuts) == {-p * alpha % 1 for p in range(n)}
    lengths = sorted({b - a for a, b in zip(join.cuts, (*join.cuts[1:], Fraction(1)))})
    assert len(lengths) <= 3
    if len(lengths) == 3:
        assert lengths[2] == lengths[0] + lengths[1]


# inputs the random draws do not reach: codes folded past 2^63 and re-ranked
# (64 times of two labels, 32 times of four, and 65 folds whose first label the
# others do not imply), a lattice past int64 (Q >= 2^62, object arrays) and one
# label on non-adjacent gaps
ROTATION = IntervalExchange.rotation(Fraction(34, 89))
WIDE_IET = IntervalExchange((Fraction(1, 3**42), Fraction(1, 3), Fraction(2 * 3**41 - 1, 3**42)),
                            (2, 1, 0))
ABA = IntervalPartition((Fraction(0), Fraction(1, 3), Fraction(2, 3)), ("a", "b", "a"))
JOIN_EXAMPLES = [
    (ROTATION, IntervalPartition.halves(), list(range(1, 65)), "forward"),
    (THREE_IET, IntervalPartition.dyadic(2), list(range(1, 33)), "backward"),
    (ROTATION, IntervalPartition.halves(), [1] + [2] * 64, "forward"),
    (WIDE_IET, IntervalPartition.halves(), [1, 2, 5], "forward"),
    (THREE_IET, ABA, [1, 2, 3], "forward"),
]


def join_examples(test):
    for T, xi, times, signs in reversed(JOIN_EXAMPLES):
        test = example(T, xi, times, times[-1] + 1, signs)(test)
    return test


@SETTINGS
@given(iets(), interval_partitions(), st.lists(TIMES, min_size=1, max_size=5), TIMES,
       st.sampled_from(["forward", "backward"]))
@join_examples
def test_join_matches_fraction_oracle(T, xi, times, extra, signs):
    join = join_partition(T, xi, times, signs=signs)
    oracle = fraction_join(T, xi, times, signs=signs)
    assert join == oracle
    # atoms grouped by integer codes, not by the decoded labels, in first-appearance order
    masses, Q, _ = _coded_join(T, xi, times, signs, decode=False)
    assert [Fraction(m, Q) for m in masses.tolist()] == list(oracle.measures_by_label().values())
    # T is measure-preserving: the labels at each time are distributed as xi's
    for i in range(len(times)):
        marginal = {}
        for label, mass in join.measures_by_label().items():
            marginal[label[i]] = marginal.get(label[i], 0) + mass
        assert marginal == xi.measures_by_label()
    # refining by one more time cannot lower the join entropy
    finer = join_partition(T, xi, times + [extra], signs=signs)
    assert shannon_entropy(partition_measures(finer)) >= shannon_entropy(partition_measures(join))


@SETTINGS
@given(iets(), interval_partitions(), st.lists(TIMES, min_size=1, max_size=5), TIMES,
       st.sampled_from(["forward", "backward"]))
@join_examples
def test_exact_join_measures_in_the_oracles_first_appearance_order(T, xi, times, extra, signs):
    family = explicit_family({abs(t) + 1 for t in times})
    oracle = fraction_join(T, xi, family.members, signs=signs).measures_by_label()
    res = exact_join(T, xi, family, signs=signs)
    assert res.measures.entries == tuple(oracle.values())
    assert res.atom_count == len(oracle)
    assert res.entropy_bits == shannon_entropy(partition_measures(res.partition))
    # join_for groups the same atoms without decoding a label
    coded = join_for(T if signs == "forward" else T.inverse(), xi, family)
    assert (coded.measures, coded.entropy_bits) == (res.measures, res.entropy_bits)
    assert coded.partition is None


@SETTINGS
@given(iets(), interval_partitions(), st.lists(TIMES, min_size=1, max_size=5))
def test_backward_join_is_the_forward_join_of_the_inverse(T, xi, times):
    assert join_partition(T, xi, times, signs="backward") == join_partition(T.inverse(), xi, times)


@SETTINGS
@given(iets(), interval_partitions(), st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.integers(1, 6))
def test_backward_trace_is_the_forward_trace_of_the_inverse(T, xi, j_values, L):
    def family(j):
        return make_progression_family(j, L)
    rows = entropy_trace(T.inverse(), xi, family, j_values).rows
    assert [(r.j, r.family_size, r.entropy_bits, r.method) for r in rows] == [
        (j, L, exact_join(T, xi, family(j), signs="backward").entropy_bits, "exact")
        for j in j_values]


@SETTINGS
@given(iets(), interval_partitions(), st.sets(st.integers(1, 24), min_size=1, max_size=6),
       st.sampled_from(["forward", "backward"]))
def test_join_cut_estimate_bounds_the_join(T, xi, times, signs):
    family = explicit_family(sorted(times))
    join = join_partition(T, xi, family.members, signs=signs)
    assert estimate_join_cuts(T, xi, family) >= len(join.cuts)


def test_join_cut_estimate_counts_every_power_of_a_rotation():
    """T^-M of a rotation has one interior cut, but T^-1 .. T^-M have M
    distinct ones, T^s of T^-1's cut for s < M: the estimate counts all M."""
    T, M, xi = golden_rotation().to_iet(), 12, IntervalPartition.halves()
    powers = dict(IetLattice.of(T).powers(range(-M, 0)))
    union = set().union(*(U.cuts.tolist() for U in powers.values()))
    assert len(powers[-M].cuts) == 2 < len(union) == M * (len(T) - 1) + 1
    family = make_progression_family(1, M)
    assert len(union) < len(join_partition(T, xi, family.members).cuts) <= estimate_join_cuts(
        T, xi, family)


@SETTINGS
@given(st.lists(st.integers(1, 40), min_size=1, max_size=12)
       | st.lists(st.integers(1, 2**85), min_size=1, max_size=6).map(lambda v: v + v[:2]),
       st.integers(1, 2**90))
@example([3, 3, 6, 1], 2**81)
def test_join_entropy_from_integer_masses_matches_shannon_entropy(numerators, factor):
    """Numerators with a shared factor, over Q up to past 2^80: the 80-bit sum
    reads each distinct mass reduced, with its count, in ascending order, as
    shannon_entropy reads them (an unreduced mass past 2^80 rounds to other
    80-bit values), so the floats are identical."""
    masses = [n * factor for n in numerators]
    Q = sum(masses)
    vector = ProbabilityVector.from_numerators(masses, Q)
    read = []
    with mock.patch.object(seqentropy, "entropy_of_groups",
                           side_effect=lambda groups: read.extend(groups) or 0.0):
        _exact_result(np.array(masses, dtype=int_dtype(Q)), Q, None)
    assert [(m.numerator, m.denominator, c) for m, c in read] == [
        (m.numerator, m.denominator, c) for m, c in sorted(Counter(vector.entries).items())]
    got = _exact_result(np.array(masses, dtype=int_dtype(Q)), Q, None).entropy_bits
    assert got == shannon_entropy(vector)


@st.composite
def product_rotations(draw):
    def angle():
        q = draw(st.integers(2, 40))
        return Fraction(draw(st.integers(1, q - 1)), q)
    return RectangleExchange.product_rotations(angle(), angle())


@st.composite
def bricks(draw):
    """Four atoms: a vertical cut at a, then a horizontal cut on each side, so
    boundary lines are covered only in part."""
    cut = st.fractions(0, 1, max_denominator=12).filter(lambda c: 0 < c < 1)
    a, b, c = draw(cut), draw(cut), draw(cut)
    return RectanglePartition(((Rect(0, a, 0, b), 0), (Rect(0, a, b, 1), 1),
                               (Rect(a, 1, 0, c), 2), (Rect(a, 1, c, 1), 3)))


@SETTINGS
@given(product_rotations())
def test_source_seams_are_the_image_seams_of_the_inverse(T):
    vertical = [(x, r.y0, r.y1) for r in T.sources for x in (r.x0, r.x1) if 0 < x < 1]
    horizontal = [(y, r.x0, r.x1) for r in T.sources for y in (r.y0, r.y1) if 0 < y < 1]
    assert interior_discontinuity_segments(T.inverse()) == (vertical, horizontal)


@SETTINGS
@given(st.one_of(product_rotations(), st.sampled_from([RectangleExchange.identity(),
                                                       RectangleExchange.vertical_swap()])),
       st.sampled_from(["sources", "quadrants", "bricks"]), bricks(), st.integers(0, 12))
@example(RectangleExchange.identity(), "bricks", RectanglePartition.dyadic(1, 2), 3)
@example(RectangleExchange.vertical_swap(), "bricks", RectanglePartition.dyadic(2, 1), 5)
def test_boundary_growth_matches_segmentset_oracle(T, kind, brick, N):
    xi = {"sources": RectanglePartition(tuple((r, k) for k, r in enumerate(T.sources))),
          "quadrants": RectanglePartition.quadrants(), "bricks": brick}[kind]
    assert boundary_growth(T, xi, N) == segmentset_boundary_growth(T, xi, N)


@st.composite
def segment_rows(draw):
    """Q and up to 30 rows (line, lo, hi) with 0 <= lo < hi <= Q on a banded
    line below 2Q + 2, on few lines so that rows overlap, touch and repeat."""
    Q = draw(st.integers(1, 12))
    lines = draw(st.lists(st.integers(0, 2 * Q + 1), min_size=1, max_size=4))
    spans = st.lists(st.integers(0, Q), min_size=2, max_size=2, unique=True).map(sorted)
    rows = draw(st.lists(st.tuples(st.sampled_from(lines), spans), min_size=1, max_size=30))
    return Q, np.array([(line, lo, hi) for line, (lo, hi) in rows], dtype=np.int64)


@SETTINGS
@given(segment_rows(), st.data())
def test_merge_does_not_depend_on_row_order(rows, data):
    Q, segs = rows
    order = data.draw(st.permutations(range(len(segs))))
    assert np.array_equal(_merge(segs, Q), _merge(segs[list(order)], Q))


def test_boundary_growth_matches_segmentset_oracle_past_int64():
    # Q = (2^61 + 1)(2^62 + 7) >= 2^62: the ledger runs on Python-int arrays
    T = RectangleExchange.product_rotations(Fraction(1, 2**61 + 1), Fraction(3, 2**62 + 7))
    xi = RectanglePartition(tuple((r, k) for k, r in enumerate(T.sources)))
    assert boundary_growth(T, xi, 8) == segmentset_boundary_growth(T, xi, 8)


@SETTINGS
@given(st.one_of(product_rotations(), st.sampled_from([RectangleExchange.identity(),
                                                       RectangleExchange.vertical_swap()])),
       st.sampled_from(["sources", "quadrants", "bricks"]), bricks(), st.integers(0, 300))
@example(RectangleExchange.product_rotations(Fraction(1, 2), Fraction(2, 3)), "quadrants",
         RectanglePartition.quadrants(), 300)
@example(RectangleExchange.product_rotations(Fraction(1, 2**61 + 1), Fraction(5, 2**61 + 1)),
         "sources", RectanglePartition.quadrants(), 40)
def test_boundary_growth_matches_reimaging_oracle(T, kind, brick, N):
    # the second example has Q = 2^61 + 1: the oracle's rows are int64, the
    # first-return sweep's are Python ints (its marked band reaches 4Q + 4)
    xi = {"sources": RectanglePartition(tuple((r, k) for k, r in enumerate(T.sources))),
          "quadrants": RectanglePartition.quadrants(), "bricks": brick}[kind]
    assert boundary_growth(T, xi, N) == reimaging_boundary_growth(T, xi, N)


PAST_INT64 = RectangleExchange.product_rotations(Fraction(1, 2**61 + 1), Fraction(3, 2**62 + 7))


@SETTINGS
@given(st.one_of(product_rotations(), st.sampled_from([RectangleExchange.identity(),
                                                       RectangleExchange.vertical_swap(),
                                                       PAST_INT64])),
       st.randoms(use_true_random=False))
@example(PAST_INT64, random.Random(0))
@example(RectangleExchange.product_rotations(Fraction(1, 3), Fraction(2, 2**61 + 1)),
         random.Random(0))
def test_rect_lattice_apply_matches_mask_oracle(T, rng):
    # cells on both sides of every source edge, and random cells; Q is
    # 2^61 + 1 (int64) in the second example and >= 2^62 (objects) in the first
    lattice = RectLattice.of(T)
    Q = lattice.Q

    def cells(columns):
        edges = lattice.sources[:, columns].ravel().tolist()
        return sorted({c + d for c in edges for d in (-1, 0) if 0 <= c + d < Q}
                      | {rng.randrange(Q) for _ in range(8)})

    pairs = [(x, y) for x in cells([0, 1]) for y in cells([2, 3])]
    X, Y = (np.array(v, dtype=lattice.trans.dtype) for v in zip(*pairs))
    for got, want in zip(lattice.apply(X, Y), mask_apply(lattice, X, Y)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def dyadic_exchanges(draw):
    """A rectangle exchange on the grid of step 1/16: up to five guillotine
    splits of the square, the two halves of each split trading places in its
    image or not, so that both the sources and the images tile."""
    sources, shifts = [], []

    def split(src, img, splits):  # src and img: (x0, x1, y0, y1) of the same shape
        axis = draw(st.sampled_from([0, 2]))
        lo, hi = src[axis], src[axis + 1]
        if splits == 0 or hi - lo < 2:
            sources.append(Rect(*(Fraction(v, 16) for v in src)))
            shifts.append((Fraction(img[0] - src[0], 16), Fraction(img[2] - src[2], 16)))
            return
        cut = draw(st.integers(lo + 1, hi - 1))
        a, b, ilo = cut - lo, hi - cut, img[axis]
        spans = ((ilo + b, ilo + a + b), (ilo, ilo + b)) if draw(st.booleans()) else \
            ((ilo, ilo + a), (ilo + a, ilo + a + b))
        for (s0, s1), (i0, i1) in zip(((lo, cut), (cut, hi)), spans):
            child_src, child_img = list(src), list(img)
            child_src[axis:axis + 2], child_img[axis:axis + 2] = (s0, s1), (i0, i1)
            split(tuple(child_src), tuple(child_img), splits - 1)

    split((0, 16, 0, 16), (0, 16, 0, 16), draw(st.integers(0, 5)))
    order = draw(st.permutations(range(len(sources))))
    return RectangleExchange(tuple(sources[k] for k in order), tuple(shifts[k] for k in order))


@st.composite
def dyadic_rectangle_sets(draw):
    """The sources of :func:`dyadic_exchanges`, as they are or with one
    rectangle grown or shrunk by 1/32 on one side or pushed by a multiple of
    1/16, so that some overlap, leave a gap or leave the square."""
    rects = list(draw(dyadic_exchanges()).sources)
    k = draw(st.integers(0, len(rects) - 1))
    x0, x1, y0, y1 = (rects[k].x0, rects[k].x1, rects[k].y0, rects[k].y1)
    kind = draw(st.sampled_from(["tiling", "grown", "shrunk", "pushed"]))
    if kind in ("grown", "shrunk"):
        side = draw(st.integers(0, 3))
        step = Fraction(1 if (kind == "grown") == (side % 2 == 1) else -1, 32)
        corners = [x0, x1, y0, y1]
        corners[side] += step
        rects[k] = Rect(*corners)
    elif kind == "pushed":
        dx, dy = (Fraction(draw(st.integers(-16, 16)), 16) for _ in range(2))
        rects[k] = Rect(x0 + dx, x1 + dx, y0 + dy, y1 + dy)
    return rects


def tiling_outcome(check, rects):
    """(error class, message) of a tiling check, or None if it accepts."""
    try:
        check(rects, "test")
    except SeqentError as exc:
        return type(exc), str(exc)
    return None


@SETTINGS
@given(dyadic_rectangle_sets())
@example([Rect(0, 1, 0, Fraction(1, 2)), Rect(0, 1, Fraction(1, 4), 1)])
@example([Rect(0, Fraction(1, 2), 0, 1), Rect(Fraction(1, 2), Fraction(3, 2), 0, 1)])
@example([Rect(0, Fraction(1, 2), 0, 1)])
def test_tiling_grid_accepts_what_the_pairwise_oracle_accepts(rects):
    got = tiling_outcome(check_tiling, rects)
    assert got == tiling_outcome(pairwise_check_tiling, rects)
    if got is None:  # every cell of the grid lies in its owner, and only in it
        xs, ys, owner = check_tiling(rects, "test")
        for i, (x0, x1) in enumerate(zip(xs, xs[1:])):
            for j, (y0, y1) in enumerate(zip(ys, ys[1:])):
                r = rects[owner[i, j]]
                assert r.x0 <= x0 < x1 <= r.x1 and r.y0 <= y0 < y1 <= r.y1


def test_tiling_cell_budget_raises_before_the_table():
    n = 2 ** 11 + 1  # n columns and n rows make n^2 cells, past MAX_TILING_CELLS = 2^22
    columns = [Rect(Fraction(k, n), Fraction(k + 1, n), 0, 1) for k in range(n)]
    rows = [Rect(0, 1, Fraction(k, n), Fraction(k + 1, n)) for k in range(n)]
    assert (n * n > MAX_TILING_CELLS) and tiling_outcome(check_tiling, columns) is None
    assert tiling_outcome(check_tiling, columns + rows)[0] is BudgetError


@SETTINGS
@given(dyadic_exchanges(), st.lists(st.sampled_from("ab"), min_size=32, max_size=32),
       st.randoms(use_true_random=False))
def test_grid_lookups_match_linear_scans(T, labels, rng):
    xi = RectanglePartition(tuple(zip(T.sources, labels)))
    edges = sorted({v for r in T.sources for v in (r.x0, r.x1, r.y0, r.y1)} - {Fraction(1)})
    for _ in range(40):  # grid edges themselves, and points in between
        pt = tuple(rng.choice(edges) if rng.random() < 0.5 else
                   Fraction(rng.randrange(2**20), 2**20) for _ in range(2))
        assert xi.label_at(pt) == scan_label_at(xi, pt)
        assert T.apply(pt) == scan_apply(T, pt)


@SETTINGS
@given(iets(), interval_partitions(), st.lists(TIMES, min_size=1, max_size=5))
def test_decoded_join_is_a_valid_partition(T, xi, times):
    join = join_partition(T, xi, times)
    assert join == IntervalPartition(join.cuts, join.labels)
    assert all(type(c) is Fraction for c in join.cuts)


@SETTINGS
@given(iets(), st.lists(TIMES, min_size=1, max_size=6))
def test_powers_of_matches_iterated_compose(T, times):
    powers = powers_of(T, times)
    assert set(powers) == set(times)
    for t in times:
        assert powers[t] == fraction_power(T, t)


@SETTINGS
@given(iets(), TIMES, TIMES)
def test_power_of_a_sum_is_a_composition(T, a, b):
    assert T.power(a + b) == T.power(a).compose(T.power(b))


@SETTINGS
@given(iets(), dyadic_intervals(), TIMES, TIMES)
def test_iet_triple_correlation_matches_oracle(T, A, m, n):
    if m == n:
        return
    U, V = fraction_power(T, m), fraction_power(T, n)
    # every endpoint of A, T^-m A and T^-n A lies on this grid, so counting
    # grid points (maps are right-continuous) measures the intersection exactly
    grid = math.lcm(*(v.denominator for v in T.lengths)) << A.level
    hits = sum(
        1 for i in range(A.k * grid >> A.level, (A.k + 1) * grid >> A.level)
        if A.lo <= U.apply(Fraction(i, grid)) < A.hi and A.lo <= V.apply(Fraction(i, grid)) < A.hi
    )
    assert triple_correlation(T, A, m, n) == Fraction(hits, grid)


@SETTINGS
@given(dyadic_rectangles(), dyadic_rectangles(), st.integers(-8, 8))
def test_baker_correlation_matches_cylinder_oracle(A, B, m):
    expected = cylinder_measure([shift_cylinder(cylinder(A), m), cylinder(B)])
    assert correlation(BakerMap(), A, B, m) == expected


@SETTINGS
@given(st.lists(dyadic_rectangles(), max_size=6), st.integers(-8, 8))
def test_baker_correlation_matrix_matches_cylinder_oracle(sets, m):
    family = Family((Dyadic2D(0, 0, 0, 0), *sets))
    assert correlation_matrix(BakerMap(), m, family) == oracle_correlation_matrix(
        BakerMap(), m, family)


@SETTINGS
@given(dyadic_rectangles(), st.integers(-8, 8), st.integers(-8, 8))
def test_baker_triple_correlation_matches_cylinder_oracle(A, m, n):
    if m == n:
        return
    cyl = cylinder(A)
    expected = cylinder_measure([cyl, shift_cylinder(cyl, m), shift_cylinder(cyl, n)])
    assert triple_correlation(BakerMap(), A, m, n) == expected
