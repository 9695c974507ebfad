import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from seqent import (
    AliasingError,
    BernoulliSystem,
    BakerMap,
    BudgetError,
    DegenerateInputError,
    IntervalExchange,
    IntervalPartition,
    McOptions,
    Rect,
    RectanglePartition,
    RectangleExchange,
    ValidationError,
    asymmetry_ratio,
    bernoulli_join_entropy,
    boundary_growth,
    entropy_trace,
    exact_join,
    explicit_family,
    h_j,
    join_for,
    make_progression_family,
    mc_join_entropy,
    partition_measures,
    shannon_entropy,
    sup_over_partitions,
)
from seqent import seqentropy, weaklimits
from seqent.seqentropy import (
    _join_gaps,
    _sample_cells,
    asymmetry_times,
    check_join,
    check_ledger_steps,
    join_partition,
    partition_library,
)
from seqent.errors import MAX_LEDGER_STEPS
from seqent.systems import IetLattice, discontinuity_length, interior_discontinuity_segments
from seqent.weaklimits import TestFamily as Family
from seqent.weaklimits import TestSet1D as Dyadic1D
from seqent.weaklimits import correlation, mixing_time_scan, triple_correlation

from oracles import (baker_inverse, baker_join_measures_grid, fraction_mc_join_entropy,
                     per_power_join_gaps)

F = Fraction

HALVES = IntervalPartition.halves()
GOLDEN = None  # initialized lazily (module import keeps collection fast)


def golden_iet():
    global GOLDEN
    if GOLDEN is None:
        from seqent import golden_rotation

        GOLDEN = golden_rotation().to_iet()
    return GOLDEN


class TestExactJoin:
    def test_identity_join_is_xi(self):
        T = IntervalExchange.identity()
        xi = IntervalPartition.from_cut_list([F(0), F(1, 5), F(1, 2), F(7, 8)])
        res = exact_join(T, xi, explicit_family([1, 4, 9]))
        assert sorted(res.measures) == sorted(partition_measures(xi))
        assert res.entropy_bits == shannon_entropy(partition_measures(xi))

    def test_rotation_single_time_against_arc_oracle(self):
        alpha = F(5, 13)
        T = IntervalExchange.rotation(alpha)
        half = lambda v: 0 if v < F(1, 2) else 1
        from collections import defaultdict

        # family {1}: the join is the translated halves partition itself
        res = exact_join(T, HALVES, explicit_family([1]))
        assert res.atom_count == 2
        assert sorted(res.measures) == [F(1, 2), F(1, 2)]
        assert set(res.partition.cuts) == {F(0), alpha, (alpha + F(1, 2)) % 1}

        # pair join over times {0,1}: arcs cut by {0, 1/2, alpha, alpha+1/2},
        # each labeled by (xi-label at x, xi-label at T^-1 x)
        from seqent.seqentropy import join_partition

        pair = join_partition(T, HALVES, [0, 1])
        cuts = sorted({F(0), F(1, 2), alpha % 1, (alpha + F(1, 2)) % 1})
        masses = defaultdict(F)
        for a, b in zip(cuts, cuts[1:] + [F(1)]):
            mid = (a + b) / 2
            masses[(half(mid), half((mid - alpha) % 1))] += b - a
        got = partition_measures(pair)
        assert len(got) == len(masses) == 4
        assert sorted(got) == sorted(masses.values())

    def test_rotation_linear_cut_growth(self):
        T = IntervalExchange.rotation(F(5, 13), alias_limit=10**6)
        N = 16
        res = exact_join(T, HALVES, explicit_family(range(1, N + 1)))
        assert res.atom_count <= 2 * (N + 1)

    def test_forward_backward_entropy_agree_on_symmetric_family(self):
        T = IntervalExchange.rotation(F(5, 13), alias_limit=10**6)
        fam = explicit_family([1, 2, 3])
        fwd = exact_join(T, HALVES, fam, signs="forward")
        bwd = exact_join(T, HALVES, fam, signs="backward")
        assert fwd.entropy_bits == bwd.entropy_bits

    def test_long_family_holds_no_label_tuples(self):
        # 1..4096 on the golden rotation: 8,193 gaps x 4,096 times of label tuples
        # peaked about 290 MB; the integer codes hold one array per time
        family = explicit_family(range(1, 4097))
        tracemalloc.start()
        try:
            h = h_j(golden_iet(), HALVES, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20
        assert h == 0.0031429214983889047  # the value the label tuples gave

    def test_rotation_join_composes_no_power(self):
        family, xi = make_progression_family(1, 64), IntervalPartition.dyadic(2)
        with mock.patch.object(IetLattice, "shift", None):  # every power by composition
            composed = exact_join(golden_iet(), xi, family)
        four = IntervalExchange((F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))
        with mock.patch.object(IetLattice, "compose", side_effect=AssertionError("composed")):
            assert exact_join(golden_iet(), xi, family) == composed
            with pytest.raises(AssertionError, match="composed"):
                exact_join(four, xi, family)

    def test_rotation_join_builds_no_power(self):
        family, xi = make_progression_family(1, 64), IntervalPartition.dyadic(2)
        refuse = AssertionError("a rotation join built a power")
        with mock.patch.object(IetLattice, "powers", side_effect=refuse), \
                mock.patch.object(IetLattice, "_rotation", side_effect=refuse):
            exact_join(golden_iet(), xi, family)
            join_for(IntervalExchange.rotation(F(2**62 + 1, 2**63 + 5)), xi, family)  # object tier
        four = IntervalExchange((F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))
        with mock.patch.object(IetLattice, "compose", autospec=True,
                               side_effect=IetLattice.compose) as compose:
            exact_join(four, xi, family)
        assert compose.call_count > 0

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_rotation_joins_do_not_depend_on_the_chunk(self, chunk):
        family, xi = make_progression_family(1, 64), IntervalPartition.dyadic(2)
        big = IntervalExchange.rotation(F(2**62 + 1, 2**63 + 5))
        want = [exact_join(T, xi, family, signs=signs)
                for T in (golden_iet(), big) for signs in ("forward", "backward")]
        with mock.patch.object(seqentropy, "ROTATION_CHUNK", chunk):
            got = [exact_join(T, xi, family, signs=signs)
                   for T in (golden_iet(), big) for signs in ("forward", "backward")]
        assert got == want
        assert [r.partition.labels for r in got] == [r.partition.labels for r in want]

    def test_golden_joins_equal_the_per_power_path(self):
        T, xi, family = golden_iet(), IntervalPartition.dyadic(2), explicit_family(range(1, 57))
        A = Dyadic1D(2, 1)

        def results():
            fwd = exact_join(T, xi, family)
            return (fwd.entropy_bits, fwd.measures, fwd.partition.cuts, fwd.partition.labels,
                    exact_join(T, xi, family, signs="backward"), join_for(T, HALVES, family),
                    correlation(T, A, Dyadic1D(3, 5), 13), triple_correlation(T, A, 5, 21),
                    asymmetry_ratio(T, HALVES, 8, 3, 5, direction="forward"),
                    asymmetry_ratio(T, HALVES, 8, 3, 5, direction="backward"))

        closed = results()
        with mock.patch.object(seqentropy, "_join_gaps", per_power_join_gaps), \
                mock.patch.object(weaklimits, "_join_gaps", per_power_join_gaps):
            assert results() == closed

    @pytest.mark.parametrize("rotation", [True, False], ids=["rotation", "4-iet"])
    def test_empty_time_list_raises(self, rotation):
        T = golden_iet() if rotation else IntervalExchange(
            (F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))
        with pytest.raises(ValidationError, match="at least one time"):
            join_partition(T, HALVES, [])
        with pytest.raises(ValidationError, match="at least one time"):
            _join_gaps(T, HALVES, (), "backward")

    def test_atom_count_polynomial_bound(self):
        T = IntervalExchange((F(1, 2), F(1, 3), F(1, 6)), (2, 1, 0))
        fam = explicit_family(range(1, 11))
        res = exact_join(T, HALVES, fam)
        n, M, k = len(T), 10, 2
        assert res.atom_count <= len(fam) * (M * (n - 1) + 1) + k * len(fam)


class TestBernoulliJoin:
    def test_fair_family_of_three(self):
        B = BernoulliSystem.fair()
        res = bernoulli_join_entropy(B, explicit_family([3, 6, 9]))
        assert res.entropy_bits == 3.0
        # oracle: exact dyadic-cylinder enumeration in the planar model
        counts, W = baker_join_measures_grid([3, 6, 9])
        assert len(counts) == 8 and all(c * 8 == 2**W for c in counts)

    def test_biased_masses(self):
        B = BernoulliSystem((F(1, 4), F(3, 4)))
        res = bernoulli_join_entropy(B, explicit_family(range(1, 11)))
        per_symbol = shannon_entropy(partition_measures(
            IntervalPartition((F(0), F(1, 4)), ("a", "b"))
        ))
        assert abs(res.entropy_bits - 10 * per_symbol) < 1e-12

    def test_single_element_family(self):
        B = BernoulliSystem((F(1, 4), F(3, 4)))
        res = bernoulli_join_entropy(B, explicit_family([5]))
        assert res.entropy_bits == B.symbol_entropy_bits

    def test_window_partition(self):
        B = BernoulliSystem.fair()
        res = bernoulli_join_entropy(B, explicit_family([2, 4]), window=2)
        assert res.entropy_bits == 4.0  # coords {2,3,4,5}

    def test_overlapping_windows_not_double_counted(self):
        B = BernoulliSystem.fair()
        res = bernoulli_join_entropy(B, explicit_family([1, 2]), window=3)
        assert res.entropy_bits == 4.0  # coords {1,2,3,4}


class TestHj:
    def test_identity_law(self):
        T = IntervalExchange.identity()
        fam = explicit_family(range(1, 9))
        assert h_j(T, HALVES, fam) == shannon_entropy(partition_measures(HALVES)) / 8
        assert h_j(T, HALVES, fam) == 1.0 / 8

    def test_fair_bernoulli_progression(self):
        B = BernoulliSystem.fair()
        for j in (2, 3, 5):
            assert h_j(B, 1, make_progression_family(j, j)) == 1.0

    def test_rotation_decay_bound(self):
        T = golden_iet()
        fam = explicit_family(range(1, 65))
        got = h_j(T, HALVES, fam)
        assert got <= math.log2(130) / 64
        assert got < 0.2

    def test_type_mismatch(self):
        with pytest.raises(ValidationError):
            h_j(IntervalExchange.identity(), RectanglePartition.quadrants(),
                explicit_family([1]))

    def test_planar_needs_mc_options(self):
        with pytest.raises(ValidationError):
            h_j(BakerMap(), RectanglePartition.vertical_halves(), explicit_family([1]))


class TestEntropyTrace:
    def test_identity_strictly_decreasing(self):
        T = IntervalExchange.identity()
        trace = entropy_trace(T, HALVES, lambda j: make_progression_family(j, j),
                              [2, 3, 4, 5])
        hs = [r.h for r in trace.rows]
        assert hs == [1.0 / j for j in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_fair_bernoulli_all_ones(self):
        B = BernoulliSystem.fair()
        trace = entropy_trace(B, 1, lambda j: make_progression_family(j, j), [2, 4, 8])
        assert [r.h for r in trace.rows] == [1.0, 1.0, 1.0]
        assert trace.h_max_proxy() == trace.h_min_proxy() == 1.0

    def test_rotation_final_row_small(self):
        T = golden_iet()
        trace = entropy_trace(T, HALVES, lambda j: make_progression_family(j, j),
                              [4, 8, 16, 32])
        hs = [r.h for r in trace.rows]
        # decay sets in for large j (small j can fluctuate); the tail shrinks
        assert hs[-2] > hs[-1]
        assert hs[-1] < 0.2

    def test_per_row_error_markers(self):
        def maker(j):
            if j == 3:
                raise ValidationError("no family for j=3")
            return make_progression_family(j, j)

        trace = entropy_trace(IntervalExchange.identity(), HALVES, maker, [2, 3, 4])
        assert trace.rows[1].error is not None
        assert trace.rows[0].error is None and trace.rows[2].error is None
        assert len(trace.ok_rows()) == 2

    def test_non_library_errors_propagate(self):
        with pytest.raises(AttributeError):
            entropy_trace(IntervalExchange.identity(), HALVES, lambda j: None, [2])

    def test_proxies_of_a_trace_without_a_successful_row_raise(self):
        # time 100000 is past the golden rotation's aliasing guard, so every row fails
        trace = entropy_trace(golden_iet(), HALVES, lambda j: explicit_family([100000]), [1, 2])
        assert all(r.error.startswith("AliasingError") for r in trace.rows)
        for proxy in (trace.h_max_proxy, trace.h_min_proxy):
            with pytest.raises(ValidationError):
                proxy()


class TestSupOverPartitions:
    def test_fair_bernoulli_depth2_envelope(self):
        B = BernoulliSystem.fair()
        traces, env = sup_over_partitions(B, 2, lambda j: make_progression_family(j, j),
                                          [2, 3])
        assert [r.h for r in env.rows] == [2.0, 2.0]

    def test_identity_envelope(self):
        T = IntervalExchange.identity()
        depth = 3
        traces, env = sup_over_partitions(T, depth,
                                          lambda j: make_progression_family(j, j),
                                          [2, 4])
        assert [r.h for r in env.rows] == [depth / 2, depth / 4]

    def test_envelope_row_without_a_successful_partition_carries_the_first_error(self):
        traces, env = sup_over_partitions(golden_iet(), 2, lambda j: explicit_family([100000]),
                                          [1])
        first = traces["dyadic-1"].rows[0].error
        assert first.startswith("AliasingError")
        assert (env.rows[0].method, env.rows[0].error) == ("error", first)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_empty_library_rejected_before_any_trace(self, depth):
        asked = []
        with pytest.raises(ValidationError):
            sup_over_partitions(IntervalExchange.identity(), depth,
                                lambda j: asked.append(j) or make_progression_family(j, j), [2])
        assert asked == []


class TestMonteCarloJoin:
    def test_identity_quadrants(self):
        T = RectangleExchange.identity()
        res = mc_join_entropy(T, RectanglePartition.quadrants(),
                              explicit_family([1, 2, 3]), 10000, seed=3)
        assert res.method == "monte_carlo"
        assert abs(res.entropy_bits - 2.0) <= max(res.ci_halfwidth, 0.02)

    def test_baker_vertical_halves(self):
        res = mc_join_entropy(BakerMap(), RectanglePartition.vertical_halves(),
                              explicit_family(range(1, 11)), 10000, seed=3)
        assert abs(res.entropy_bits - 10.0) < 0.1

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            mc_join_entropy(RectangleExchange.identity(),
                            RectanglePartition.quadrants(),
                            explicit_family([1]), 10, seed=1)

    def test_baker_times_past_the_sample_bits_raise(self):
        halves = RectanglePartition.vertical_halves()
        family = explicit_family([70, 71, 72])  # 3 bits exactly; 64-bit samples read 0
        with pytest.raises(BudgetError):
            mc_join_entropy(BakerMap(), halves, family, 1000, seed=1)
        trace = entropy_trace(BakerMap(), halves, lambda j: family, [1], mc=McOptions(1000, 1))
        assert trace.rows[0].error.startswith("BudgetError")
        # times up to 63 read bit 64 at most and still run
        assert mc_join_entropy(BakerMap(), halves, explicit_family([63]), 1000, seed=1).atom_count == 2

    def test_one_atom_is_exactly_zero_bits(self):
        res = mc_join_entropy(RectangleExchange.identity(), RectanglePartition.dyadic(0, 0),
                              explicit_family([1, 2]), 1000, seed=1)
        assert (res.atom_count, res.entropy_bits) == (1, 0.0)

    def test_deterministic_for_fixed_seed(self):
        args = (BakerMap(), RectanglePartition.vertical_halves(),
                explicit_family([1, 2]), 2000)
        a = mc_join_entropy(*args, seed=9)
        b = mc_join_entropy(*args, seed=9)
        assert a.entropy_bits == b.entropy_bits
        assert a.ci_halfwidth == b.ci_halfwidth


SAMPLE_SCALE = 2**64
THIRDS = RectanglePartition(tuple(
    (Rect(F(i, 3), F(i + 1, 3), F(j, 3), F(j + 1, 3)), 3 * i + j) for i in range(3) for j in range(3)))
# labels repeat across non-adjacent atoms; edges at 1/3 and 5/8
MIXED = RectanglePartition((
    (Rect(0, F(1, 3), 0, 1), "a"),
    (Rect(F(1, 3), 1, 0, F(5, 8)), "b"),
    (Rect(F(1, 3), F(2, 3), F(5, 8), 1), "a"),
    (Rect(F(2, 3), 1, F(5, 8), 1), "c"),
))
HUGE_ROTATIONS = RectangleExchange.product_rotations(F(1, 2**61 + 1), F(3, 2**62 + 7))

MC_CASES = {
    "identity-quadrants": (RectangleExchange.identity(), RectanglePartition.quadrants(), [1, 2, 3]),
    "swap-dyadic": (RectangleExchange.vertical_swap(), RectanglePartition.dyadic(2, 1), [1, 2, 5]),
    "rotations-quadrants": (RectangleExchange.product_rotations(F(610, 987), F(377, 610)),
                            RectanglePartition.quadrants(), [1, 2, 3, 4, 5, 6]),
    "rotations-mixed": (RectangleExchange.product_rotations(F(2, 7), F(5, 11)), MIXED, [1, 3, 4]),
    "huge-rotations": (HUGE_ROTATIONS, RectanglePartition.quadrants(), [1, 2, 3]),
    "baker-halves": (BakerMap(), RectanglePartition.vertical_halves(), [1, 2, 3, 4, 5]),
    "baker-dyadic": (BakerMap(), RectanglePartition.dyadic(2, 3), [1, 4, 7]),
    "baker-thirds": (BakerMap(), THIRDS, [1, 2, 4, 8]),
    "baker-mixed": (BakerMap(), MIXED, [2, 3, 12]),
}


def same_estimate(a, b) -> bool:
    return ((a.entropy_bits, a.atom_count, a.ci_halfwidth, a.measures)
            == (b.entropy_bits, b.atom_count, b.ci_halfwidth, b.measures))


class WordStream:
    """Stands in for random.Random: hands out the given 64-bit words in order."""

    def __init__(self, words):
        self.words = iter(words)

    def getrandbits(self, k):
        return sum(next(self.words) << (64 * i) for i in range(k // 64))


class TestMonteCarloMatchesFractionOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(MC_CASES))
    def test_same_estimate(self, case, seed):
        T, xi, times = MC_CASES[case]
        family = explicit_family(times)
        assert same_estimate(mc_join_entropy(T, xi, family, 1000, seed),
                             fraction_mc_join_entropy(T, xi, family, 1000, seed))

    @pytest.mark.parametrize("t", [5, 62])
    def test_baker_labels_at_word_ties(self, monkeypatch, t):
        # samples whose y word at time t is floor(c 2^64) for c = 1/3 or 2/3, so
        # the bits the shifts dropped decide y's label, next to x words on both
        # sides of 1/3
        x_edge = -(-SAMPLE_SCALE // 3)
        x_words = [(x_edge >> t << t) + d for d in (0, 1 << t)]
        y_points = [F((c * SAMPLE_SCALE // 3 << t) + r, SAMPLE_SCALE << t)
                    for c in (1, 2) for r in ((c << t) // 3, ((c << t) // 3) + 1)]
        words = []
        for xw in x_words:
            for y in y_points:
                pt = (F(xw, SAMPLE_SCALE), y)
                for _ in range(t):
                    pt = baker_inverse(pt)
                words += [int(v * SAMPLE_SCALE) for v in pt]
        fill = random.Random(0)
        words += [fill.getrandbits(64) for _ in range(2000 - len(words))]
        monkeypatch.setattr(random, "Random", lambda seed: WordStream(words))
        family = explicit_family([t])
        fast = mc_join_entropy(BakerMap(), THIRDS, family, 1000, seed=0)
        assert same_estimate(fast, fraction_mc_join_entropy(BakerMap(), THIRDS, family, 1000, seed=0))

    def test_label_codes_past_int64(self, monkeypatch):
        # quadrants at 40 baker times: 4^40 label vectors, but the x words differ
        # only in their top 4 bits, so at most 16 atoms, told apart by early times
        fill = random.Random(0)
        words = [w for i in range(1000) for w in ((i % 16) << 60 | 12345, fill.getrandbits(64))]
        monkeypatch.setattr(random, "Random", lambda seed: WordStream(words))
        args = (BakerMap(), RectanglePartition.quadrants(), explicit_family(range(1, 41)), 1000)
        fast = mc_join_entropy(*args, seed=0)
        assert fast.atom_count == 16
        assert same_estimate(fast, fraction_mc_join_entropy(*args, seed=0))


class TestSampleCells:
    WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("Q", [1, 2**32 - 1, 2**32 + 1, 2**62 - 1, 2**62, 2**63 + 1,
                                   2**64 - 1, 2**64 + 1, 2**100 + 3])
    def test_cell_is_the_high_word_of_the_product(self, Q):
        cells = _sample_cells(np.array(self.WORDS, dtype=np.uint64), Q)
        assert cells.dtype == (np.int64 if Q < 2**62 else object)
        assert cells.tolist() == [k * Q >> 64 for k in self.WORDS]
        assert all(type(c) is int for c in cells.tolist())


class TestBoundaryGrowth:
    def test_identity_constant(self):
        T = RectangleExchange.identity()
        lengths = boundary_growth(T, RectanglePartition.quadrants(), 10)
        assert lengths == [lengths[0]] * 11

    def test_trivial_partition_accumulates_seams_only(self):
        T = RectangleExchange.vertical_swap()
        D = discontinuity_length(T)
        lengths = boundary_growth(T, RectanglePartition.dyadic(0, 0), 15)
        for n, v in enumerate(lengths):
            assert v - lengths[0] <= n * D

    def test_vertical_swap_quadrants_ledger(self):
        T = RectangleExchange.vertical_swap()
        D = discontinuity_length(T)
        lengths = boundary_growth(T, RectanglePartition.quadrants(), 20)
        assert all(v - lengths[0] <= n * D for n, v in enumerate(lengths))

    def test_product_rotations_at_the_step_budget(self):
        # every segment has returned to the fixed set by n = 986; both values
        # equal the re-imaging oracle's (tests/oracles.py, about 20 s together)
        T = RectangleExchange.product_rotations(F(610, 987), F(377, 610))
        sources = RectanglePartition(tuple((r, k) for k, r in enumerate(T.sources)))
        assert boundary_growth(T, sources, MAX_LEDGER_STEPS)[-1] == 1599
        assert boundary_growth(T, RectanglePartition.quadrants(), MAX_LEDGER_STEPS)[-1] == 2586

    @pytest.mark.parametrize("T", [RectangleExchange.identity(), RectangleExchange.vertical_swap()])
    def test_periodic_ledger_is_constant_up_to_the_budget(self, T):
        short = boundary_growth(T, RectanglePartition.quadrants(), 20)
        full = boundary_growth(T, RectanglePartition.quadrants(), MAX_LEDGER_STEPS)
        assert full == short + [short[-1]] * (MAX_LEDGER_STEPS - 20)


class TestAsymmetryRatio:
    def test_identity_ratio_one(self):
        T = IntervalExchange.identity()
        for d in ("forward", "backward"):
            assert asymmetry_ratio(T, HALVES, 4, 3, 5, direction=d) == 1.0

    def test_zero_offsets_ratio_one(self):
        T = IntervalExchange.rotation(F(5, 13), alias_limit=10**6)
        assert asymmetry_ratio(T, HALVES, 4, 0, 0) == 1.0

    def test_rotation_forward_equals_backward(self):
        T = golden_iet()
        fwd = asymmetry_ratio(T, HALVES, 8, 3, 5, direction="forward")
        bwd = asymmetry_ratio(T, HALVES, 8, 3, 5, direction="backward")
        assert fwd == bwd
        assert fwd >= 1.0

    def test_degenerate_partition(self):
        with pytest.raises(DegenerateInputError):
            asymmetry_ratio(IntervalExchange.identity(),
                            IntervalPartition.dyadic(0), 4, 1, 2)


class TestLibraryGuards:
    """Each input rule has one home in the library, and a library caller meets
    it as a ValidationError before any work."""

    def test_bernoulli_partition_is_an_integer_window(self):
        with pytest.raises(ValidationError):
            join_for(BernoulliSystem.fair(), IntervalPartition.halves(), explicit_family([1, 2]))
        with pytest.raises(ValidationError):
            h_j(BernoulliSystem.fair(), 0, explicit_family([1, 2]))

    def test_monte_carlo_partition_must_be_planar(self):
        with pytest.raises(ValidationError):
            mc_join_entropy(RectangleExchange.identity(), IntervalPartition.halves(),
                            explicit_family([1, 2]), 1000, 1)

    def test_monte_carlo_system_must_be_planar(self):
        with pytest.raises(ValidationError):
            mc_join_entropy(IntervalExchange.identity(), HALVES, explicit_family([1, 2]), 1000, 1)

    def test_ledger_partition_must_be_planar(self):
        with pytest.raises(ValidationError):
            boundary_growth(RectangleExchange.vertical_swap(), IntervalPartition.halves(), 3)

    def test_asymmetry_partition_must_be_an_interval_partition(self):
        with pytest.raises(ValidationError):
            asymmetry_ratio(IntervalExchange.identity(), RectanglePartition.quadrants(), 4, 1, 2)

    def test_join_signs_are_forward_or_backward(self):
        with pytest.raises(ValidationError):
            exact_join(golden_iet(), HALVES, explicit_family([1, 2]), signs="sideways")

    def test_trace_without_j_values_rejected(self):
        with pytest.raises(ValidationError):
            entropy_trace(IntervalExchange.identity(), HALVES,
                          lambda j: make_progression_family(j, j), [])

    @pytest.mark.parametrize("depth", [0, -1])
    def test_partition_library_needs_depth(self, depth):
        with pytest.raises(ValidationError):
            partition_library(IntervalExchange.identity(), depth)

    def test_asymmetry_times_are_the_joined_times(self):
        T = IntervalExchange.identity()
        windows = asymmetry_times(T, 8, 3, 5, "backward")
        assert windows == [range(8), range(-3, 5), range(-5, 3)]
        with pytest.raises(ValidationError):
            asymmetry_times(T, 0, 3, 5, "forward")
        with pytest.raises(ValidationError):
            asymmetry_times(T, 8, 3, 5, "sideways")

    @pytest.mark.parametrize("N, m, n", [(10**9, 1, 2), (8, 10**12, 2), (8, -(10**12), 2)])
    def test_asymmetry_budget_checked_before_times_are_built(self, N, m, n):
        # the extreme times are checked first: 10**9 base times are never listed
        T = IntervalExchange.rotation(Fraction(1, 3))
        with pytest.raises(BudgetError):
            asymmetry_times(T, N, m, n, "forward")
        with pytest.raises(BudgetError):
            asymmetry_ratio(T, HALVES, N, m, n, direction="backward")

    def test_join_power_budget_checked_without_joining(self):
        # the largest family member passes the exchange's aliasing guard first
        T = IntervalExchange.rotation(Fraction(1, 3), alias_limit=10)
        check_join(T, HALVES, explicit_family([1, 5]), None)
        with pytest.raises(AliasingError):
            check_join(T, HALVES, explicit_family([1, 6]), None)

    @pytest.mark.parametrize("call", [
        lambda: exact_join(BernoulliSystem.fair(), 1, explicit_family([1, 2])),
        lambda: join_partition(BakerMap(), RectanglePartition.quadrants(), [1]),
        lambda: asymmetry_ratio(BernoulliSystem.fair(), 1, 4, 1, 2),
        lambda: boundary_growth(golden_iet(), HALVES, 3),
        lambda: boundary_growth(BakerMap(), RectanglePartition.quadrants(), 3),
        lambda: interior_discontinuity_segments(BakerMap()),
        lambda: discontinuity_length(golden_iet()),
    ], ids=["exact-join-on-bernoulli", "join-partition-on-baker", "asymmetry-ratio-on-bernoulli",
            "boundary-growth-on-rotation", "boundary-growth-on-baker", "seams-of-baker",
            "discontinuity-length-of-rotation"])
    def test_system_without_the_path_rejected(self, call):
        # each used to fail with a bare AttributeError
        with pytest.raises(ValidationError):
            call()

    def test_seed_and_threshold_checked_before_any_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(random, "Random", work)
        with pytest.raises(ValidationError):
            mc_join_entropy(BakerMap(), RectanglePartition.vertical_halves(),
                            explicit_family([1, 2]), 1000, seed=None)
        monkeypatch.setattr("seqent.weaklimits._scan_distances", work)
        with pytest.raises(ValidationError):
            mixing_time_scan(golden_iet(), 0, float("nan"), 3000, Family.dyadic_intervals(6))

    @pytest.mark.parametrize("call", [
        lambda: check_ledger_steps(2.0),
        lambda: partition_library(IntervalExchange.identity(), 2.5),
        lambda: check_join(BakerMap(), RectanglePartition.vertical_halves(),
                           explicit_family([1]), McOptions(1000.0, 1)),
        lambda: entropy_trace(IntervalExchange.identity(), HALVES,
                              lambda j: make_progression_family(j, j), [True]),
    ], ids=["ledger-steps", "library-depth", "n_samples", "j-value"])
    def test_integer_inputs_rejected_when_not_integers(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_ledger_steps(self):
        assert check_ledger_steps(3) == range(1, 4)
        with pytest.raises(ValidationError):
            check_ledger_steps(-1)
        with pytest.raises(BudgetError):
            check_ledger_steps(10**4 + 1)
