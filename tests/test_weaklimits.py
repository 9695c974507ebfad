import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from seqent import (
    AdmissibleSpec,
    BakerMap,
    BudgetError,
    IntervalExchange,
    IntervalPartition,
    ValidationError,
    asymmetry_ratio,
    correlation,
    dist_to_admissible,
    dist_to_identity,
    dist_to_theta,
    golden_rotation,
    join_partition,
    mixing_time_scan,
    rigidity_scan,
    triple_correlation,
    triple_correlation_limits,
    weaklimits,
)
from seqent.errors import MAX_POWER
from seqent.weaklimits import TestFamily as Family
from seqent.weaklimits import TestSet1D as Dyadic1D
from seqent.weaklimits import TestSet2D as Dyadic2D
from seqent.weaklimits import (
    _checked_times,
    _scan_distances,
    correlation_matrix,
    scan_times,
    triple_times,
)

from oracles import oracle_correlation_matrix, oracle_distance

F = Fraction

ROT = IntervalExchange.rotation(F(5, 13), alias_limit=10**6)
FAM4 = Family.dyadic_intervals(4)
T4 = IntervalExchange((F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))
T3 = IntervalExchange((F(1, 3), F(1, 5), F(7, 15)), (2, 0, 1))  # a cyclic shift: a rotation
FAM2D = Family.dyadic_rectangles(4)
# sparse families that repeat sets, and skip levels
SPARSE_1D = Family((Dyadic1D(0, 0), Dyadic1D(3, 5), Dyadic1D(1, 0), Dyadic1D(3, 5),
                    Dyadic1D(4, 2), Dyadic1D(1, 0), Dyadic1D(1, 0)))
SPARSE_2D = Family((Dyadic2D(0, 0, 0, 0), Dyadic2D(1, 1, 2, 3), Dyadic2D(0, 0, 1, 0),
                    Dyadic2D(1, 1, 2, 3), Dyadic2D(2, 1, 0, 0)))


def brute_force_preimage(T, intervals, steps):
    """T^-steps of a list of half-open intervals, using only T's raw pieces.

    Deliberately shares no code with the library's correlation path: the
    preimage of [lo,hi) under one application of T is assembled by clipping
    against each source piece's image and translating back.
    """
    cuts = list(T.cuts) + [F(1)]
    for _ in range(steps):
        nxt = []
        for lo, hi in intervals:
            for i, t in enumerate(T.translations):
                a = max(cuts[i] + t, lo)
                b = min(cuts[i + 1] + t, hi)
                if b > a:
                    nxt.append((a - t, b - t))
        intervals = nxt
    return intervals


def brute_force_correlation(T, A, B, m):
    pre = brute_force_preimage(T, [(A.lo, A.hi)], m)
    total = F(0)
    for lo, hi in pre:
        a, b = max(lo, B.lo), min(hi, B.hi)
        if b > a:
            total += b - a
    return total


class TestCorrelation:
    def test_m_zero_is_intersection(self):
        A, B = Dyadic1D(2, 1), Dyadic1D(1, 0)
        assert correlation(ROT, A, B, 0) == F(1, 4)

    def test_rotation_arc_formula(self):
        alpha = F(5, 13)
        A = B = Dyadic1D(1, 0)  # [0, 1/2)
        for m in range(0, 8):
            shift = (m * alpha) % 1
            # overlap of [0,1/2) with [shift, shift+1/2) on the circle
            d = min(shift, 1 - shift)
            expected = F(1, 2) - min(d, F(1, 2))
            assert correlation(ROT, A, B, m) == expected

    def test_baker_vertical_half_decorrelates(self):
        A = B = Dyadic2D(1, 0, 0, 0)  # the vertical half [0, 1/2) x [0, 1)
        for m in range(1, 10):
            assert correlation(BakerMap(), A, B, m) == F(1, 4)

    def test_no_exact_path_for_rectangle_exchange(self):
        from seqent import RectangleExchange

        with pytest.raises(ValidationError):
            correlation(RectangleExchange.identity(), Dyadic2D(1, 0, 0, 0), Dyadic2D(1, 0, 0, 0), 1)

    def test_measure_preservation_sum_rule(self):
        # sum over a dyadic partition's atoms A of mu(T^-m A cap B) = mu(B)
        B1 = Dyadic1D(2, 3)
        for m in (1, 4, 7):
            total = sum(correlation(ROT, Dyadic1D(3, k), B1, m) for k in range(8))
            assert total == B1.measure
        B2 = Dyadic2D(1, 1, 1, 0)
        for m in (1, 3, 6):
            total = sum(
                correlation(BakerMap(), Dyadic2D(2, k, 0, 0), B2, m) for k in range(4)
            )
            assert total == B2.measure

    def test_family_that_only_resembles_the_full_dyadic_one(self):
        # size and left endpoints of dyadic_intervals(2), but (1,1) is now (2,2)
        sets = list(Family.dyadic_intervals(2).sets)
        sets[2] = Dyadic1D(2, 2)
        fam = Family(tuple(sets))
        T = IntervalExchange((F(1, 2), F(1, 3), F(1, 6)), (2, 1, 0))
        for m in (1, 3):
            assert correlation_matrix(T, m, fam) == oracle_correlation_matrix(T, m, fam)

    def test_brute_force_oracle_agreement(self):
        rng = random.Random(21)
        systems = [
            ROT,
            IntervalExchange((F(1, 2), F(1, 3), F(1, 6)), (2, 1, 0)),
            IntervalExchange((F(2, 7), F(1, 7), F(3, 7), F(1, 7)), (3, 0, 2, 1)),
        ]
        for _ in range(120):
            T = rng.choice(systems)
            la, lb = rng.randint(0, 4), rng.randint(0, 4)
            A = Dyadic1D(la, rng.randrange(2**la))
            B = Dyadic1D(lb, rng.randrange(2**lb))
            m = rng.randint(0, 10)
            assert correlation(T, A, B, m) == brute_force_correlation(T, A, B, m)

    @pytest.mark.parametrize("T, cls, fields", [
        (BakerMap(), Dyadic2D, [(1, 1, 1, 0), (3, 5, 2, 1), (0, 0, 0, 0)]),
        (T4, Dyadic1D, [(62, 3), (63, 1), (2, 1)]),
    ], ids=["baker", "4iet"])
    def test_numpy_integer_fields_are_stored_as_ints(self, T, cls, fields):
        # numpy fields stayed numpy: the baker map's cylinder words were shifted in int64
        ints = [cls(*f) for f in fields]
        sets = [cls(*map(np.int64, f)) for f in fields]
        assert all(type(v) is int for s in sets for v in dataclasses.astuple(s))
        for m in (-80, -63, -1, 0, 1, 62, 63, 70, 80):
            for a, b in itertools.product(range(len(fields)), repeat=2):
                assert correlation(T, sets[a], sets[b], m) == correlation(T, ints[a], ints[b], m)
        for a in range(len(fields)):
            for m, n in ((70, 80), (-63, 1), (0, 63), (-80, 80)):
                assert triple_correlation(T, sets[a], m, n) == triple_correlation(T, ints[a], m, n)

    def test_baker_pairs_equal_the_matrix_entries(self):
        fam = Family.dyadic_rectangles(4)
        for m in range(-10, 11):
            pairs = [[correlation(BakerMap(), a, b, m) for b in fam.sets] for a in fam.sets]
            assert pairs == correlation_matrix(BakerMap(), m, fam)


class TestDistances:
    def test_full_space_only_family(self):
        fam = Family((Dyadic1D(0, 0),))
        assert dist_to_theta(ROT, 3, fam) == 0.0

    def test_baker_decorrelates_exactly(self):
        for m in (4, 5, 10, 25):
            assert dist_to_theta(BakerMap(), m, FAM2D) == 0.0

    def test_baker_small_m_not_theta(self):
        assert dist_to_theta(BakerMap(), 1, FAM2D) > 0.05

    def test_identity_distance_zero_at_zero(self):
        assert dist_to_identity(ROT, 0, FAM4) == 0.0

    def test_rotation_rigidity_time(self):
        # high-order convergent so that a deep Fibonacci rigidity time stays
        # inside the aliasing guard
        T = golden_rotation(order=60).to_iet()
        from seqent import fibonacci_numbers

        f = fibonacci_numbers(25)
        assert dist_to_identity(T, f[18], Family.dyadic_intervals(3)) < 0.01

    def test_baker_never_rigid(self):
        assert dist_to_identity(BakerMap(), 10, FAM2D) > 0.05

    def test_rotation_never_theta(self):
        T = golden_rotation().to_iet()
        for m in (1, 13, 55, 1000):
            assert dist_to_theta(T, m, Family.dyadic_intervals(6)) > 0.05

    def test_distances_nonnegative(self):
        for m in (1, 2, 5):
            assert dist_to_theta(ROT, m, FAM4) >= 0.0
            assert dist_to_identity(ROT, m, FAM4) >= 0.0

    def test_theta_distance_of_identity_is_constant_in_m(self):
        T = IntervalExchange.identity()
        vals = {dist_to_theta(T, m, FAM4) for m in (1, 5, 9)}
        assert len(vals) == 1


    def test_combined_floats_do_not_depend_on_memory_order(self):
        # a Fortran-ordered S, as an S[:, idx] gather gives, once summed its
        # rows sequentially and changed most of these 69 floats
        rng = np.random.default_rng(3)
        S = rng.integers(0, 2**40, size=(69, 49))
        c = rng.random(49) * 2.0 ** rng.integers(-30, 0, 49)
        fortran = np.asfortranarray(S)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert weaklimits._combine(fortran, c) == weaklimits._combine(S, c)
        assert weaklimits._combine(S.T.copy().T, c) == weaklimits._combine(S, c)


class TestAdmissible:
    def test_pure_theta_reduction(self):
        Q = AdmissibleSpec(1, ())
        for m in (1, 3):
            assert dist_to_admissible(ROT, m, Q, FAM4) == dist_to_theta(ROT, m, FAM4)

    def test_pure_identity_reduction(self):
        Q = AdmissibleSpec(0, ((0, 1),))
        for m in (1, 3):
            assert dist_to_admissible(ROT, m, Q, FAM4) == dist_to_identity(ROT, m, FAM4)

    def test_self_match(self):
        Q = AdmissibleSpec(F(0), ((5, F(1)),))
        assert dist_to_admissible(ROT, 5, Q, FAM4) == 0.0

    @pytest.mark.parametrize("T, spec, fam", [
        (golden_rotation().to_iet(), AdmissibleSpec(F(1, 2), ((3, F(1, 2)),)),
         Family.dyadic_intervals(4)),
        (BakerMap(), AdmissibleSpec(F(1, 3), ((1, F(2, 3)),)), FAM2D),
        (T4, AdmissibleSpec(F(1, 4), ((2, F(1, 2)), (-1, F(1, 4)))), SPARSE_1D),
        (BakerMap(), AdmissibleSpec(F(2, 5), ((2, F(3, 5)),)), SPARSE_2D),
    ], ids=["golden-half-theta-half-T3", "baker-third-theta-two-thirds-T", "4iet-sparse-repeats",
            "baker-sparse-repeats"])
    def test_mixed_spec_equals_the_exact_oracle(self, T, spec, fam):
        for m in (1, 2, 3, 5, 8):
            assert dist_to_admissible(T, m, spec, fam) == oracle_distance(
                T, oracle_correlation_matrix(T, m, fam), fam, spec)

    def test_powers_budgeted_before_the_first_matrix(self, monkeypatch):
        def built(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(weaklimits, "_numerators", built)
        Q = AdmissibleSpec(F(0), ((1, F(1, 2)), (MAX_POWER + 1, F(1, 2))))
        with pytest.raises(BudgetError):
            dist_to_admissible(ROT, 1, Q, FAM4)
        with pytest.raises(BudgetError):
            dist_to_admissible(ROT, MAX_POWER + 1, AdmissibleSpec(0, ((0, 1),)), FAM4)

    def test_coefficients_validated(self):
        with pytest.raises(ValidationError):
            AdmissibleSpec(F(1, 2), ((1, F(1, 3)),))
        with pytest.raises(ValidationError):
            AdmissibleSpec(F(3, 2), ((1, F(-1, 2)),))


class TestScans:
    def test_rotation_scan_matches_fraction_oracle(self):
        T = golden_rotation().to_iet()
        fam = Family.dyadic_intervals(4)
        ms = [1, 7, 55, 610]
        scan_theta = _scan_distances(T, ms, fam, "theta")
        scan_ident = _scan_distances(T, ms, fam, "identity")
        for m, st, si in zip(ms, scan_theta, scan_ident):
            assert st == dist_to_theta(T, m, fam)
            assert si == dist_to_identity(T, m, fam)
            corr = oracle_correlation_matrix(T, m, fam)
            assert st == oracle_distance(T, corr, fam, "theta")
            assert si == oracle_distance(T, corr, fam, "identity")

    @pytest.mark.parametrize("order", [80, 83, 90])
    def test_large_denominator_scans_match_fraction_oracle(self, order):
        # G = F_order * 2^6 is past 2^53, so float(c / G) needs exact division;
        # from order 83 on it is also past int64
        T = golden_rotation(order).to_iet()
        fam = Family.dyadic_intervals(6)
        mixing = dict(mixing_time_scan(T, 0, 0.05, 13, fam).values)
        rigidity = dict(rigidity_scan(T, 13, 0.02, fam).values)
        for m in (1, 5, 13):
            corr = oracle_correlation_matrix(T, m, fam)
            assert mixing[m] == oracle_distance(T, corr, fam, "theta")
            assert rigidity[m] == oracle_distance(T, corr, fam, "identity")

    def test_mixing_scan_baker(self):
        report = mixing_time_scan(BakerMap(), 0, 0.05, 20, FAM2D)
        values = dict(report.values)
        assert report.min_time in (1, 2, 3)
        assert all(values[m] == 0.0 for m in range(4, 21))

    def test_mixing_scan_identity_constant(self):
        report = mixing_time_scan(IntervalExchange.identity(), 0, 0.05, 10, FAM4)
        vals = {v for _, v in report.values}
        assert len(vals) == 1

    def test_mixing_scan_starts_after_j(self):
        report = mixing_time_scan(BakerMap(), 3, 0.05, 10, FAM2D)
        assert report.values[0][0] == 4

    def test_rigidity_scan_identity_detects_everything(self):
        report = rigidity_scan(IntervalExchange.identity(), 8, 0.01, FAM4)
        assert [m for m, _ in report.events] == list(range(1, 9))

    def test_rigidity_scan_baker_detects_nothing(self):
        report = rigidity_scan(BakerMap(), 30, 0.01, FAM2D)
        assert report.events == ()

    def test_rigidity_scan_golden_superset_of_fibonacci(self):
        from seqent import fibonacci_numbers

        T = golden_rotation().to_iet()
        report = rigidity_scan(T, 2000, 0.02, Family.dyadic_intervals(6))
        detected = {m for m, _ in report.events}
        fibs = [f for f in fibonacci_numbers(25) if 30 <= f <= 2000]
        assert fibs and set(fibs) <= detected

    def test_empty_rigidity_scan_rejected(self):
        with pytest.raises(ValidationError):
            rigidity_scan(ROT, 0, 0.01, FAM4)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_depth_11_kernel_scan_peaks_at_most_200_mb(self):
        # the kernel's stack is one 2048 x 2048 float64 cell matrix (32 MB), read level pair
        # by level pair, not a 4095 x 4095 matrix of the complete family (134 MB)
        code = ("from fractions import Fraction as F\n"
                "from seqent import IntervalExchange, mixing_time_scan\n"
                "from seqent.weaklimits import TestFamily\n"
                "T = IntervalExchange((F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))\n"
                "mixing_time_scan(T, 0, 0.05, 3, TestFamily.dyadic_intervals(11))\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n")
        src = os.path.dirname(os.path.dirname(weaklimits.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) / 1024 <= 200

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_depth_11_identity_scan_peaks_at_most_240_mb(self):
        # the identity is a target read from T^0's cell matrix pooled beside each power's,
        # not a second 4095 x 4095 matrix of the complete family (288 MB before)
        code = ("from fractions import Fraction as F\n"
                "from seqent import IntervalExchange, rigidity_scan\n"
                "from seqent.weaklimits import TestFamily\n"
                "T = IntervalExchange((F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))\n"
                "rigidity_scan(T, 3, 0.02, TestFamily.dyadic_intervals(11))\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n")
        src = os.path.dirname(os.path.dirname(weaklimits.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) / 1024 <= 240

    def test_wide_sums_of_float_rows_stay_exact(self):
        # 601 sets, repeats included, on a lattice near 2^42: each row sum is exact in
        # float64, but a level pair's sum needs Python ints, which float rows once
        # became as Python floats, off in the last bits
        q = 1_150_000_000_001
        T = IntervalExchange((F(1, 3), F(1, q), 1 - F(1, 3) - F(1, q)), (1, 2, 0))
        distinct, repeats = (Dyadic1D(0, 0), Dyadic1D(1, 0), Dyadic1D(1, 1)), (1, 300, 300)
        fam = Family(tuple(s for s, k in zip(distinct, repeats) for _ in range(k)))
        G = 6 * q  # Q * 2^d
        for m in (1, 2):
            S = np.zeros((1, 2, 2), dtype=object)  # the exact sums, over the distinct sets
            corr = oracle_correlation_matrix(T, m, Family(distinct))
            for a, ka, row in zip(distinct, repeats, corr):
                for b, kb, c in zip(distinct, repeats, row):
                    S[0, a.level, b.level] += ka * kb * abs(2 ** (a.level + b.level) * G * c - G)
            want = weaklimits._combine(S, weaklimits._coefficients(fam.sets, G, None))
            assert weaklimits._distances(T, [m], fam, "theta") == want


class TestRotationPath:
    def test_rotations_need_no_kernel_and_no_dense_targets(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a rotation scan built a kernel stack or dense targets")

        monkeypatch.setattr(weaklimits, "_numerators", refuse)
        fam = Family.dyadic_intervals(6)
        for T in (golden_rotation().to_iet(), T3, IntervalExchange.identity()):
            assert len(rigidity_scan(T, 30, 0.02, fam).values) == 30
            assert len(mixing_time_scan(T, 0, 0.05, 30, fam).values) == 30
            assert dist_to_theta(T, -4, fam) >= 0 and dist_to_identity(T, 0, fam) == 0

    def test_other_exchanges_use_the_kernel(self, monkeypatch):
        calls = []
        kernel = weaklimits._numerators
        monkeypatch.setattr(weaklimits, "_numerators", lambda *a: calls.append(a) or kernel(*a))
        dist_to_theta(T4, 3, FAM4)
        assert calls and calls[0][0] is T4

    @pytest.mark.parametrize("args, error, message", [
        ((7, FAM2D), ValidationError, "must be TestSet1D"),
        ((1.5, FAM4), ValidationError, "time must be an integer"),
        ((MAX_POWER + 1, FAM4), BudgetError, "exceeds MAX_POWER"),
        ((3, Family((Dyadic1D(0, 0), Dyadic1D(12, 5)))), BudgetError,
         "8191 test sets of the complete dyadic family of depth 12"),
        # 5001 sets of depth 3: the complete family is small, the family's own pairs are not
        ((3, Family((Dyadic1D(0, 0),) + (Dyadic1D(3, 1),) * 5000)), BudgetError,
         "5001 test sets make 25010001 pairs per power"),
    ], ids=["2d-sets", "float-time", "power-budget", "sparse-depth-12", "repeated-sets"])
    def test_rotation_checks_as_the_kernel_does(self, args, error, message):
        m, fam = args
        raised = []
        for T in (T3, T4):  # a rotation, then an exchange the kernel evaluates
            with pytest.raises(error, match=message) as info:
                dist_to_theta(T, m, fam)
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_depth_11_scans_peak_below_120_mb(self):
        # the rotation path builds no N x N matrix: one 4095 x 4095 float64 matrix is 134 MB.
        # VmHWM is the peak of this process's own image; ru_maxrss can carry the peak of
        # the test runner that spawned it
        code = ("from seqent import golden_rotation, mixing_time_scan, rigidity_scan\n"
                "from seqent.weaklimits import TestFamily\n"
                "T, fam = golden_rotation().to_iet(), TestFamily.dyadic_intervals(11)\n"
                "rigidity_scan(T, 3, 0.02, fam)\n"
                "mixing_time_scan(T, 0, 0.05, 3, fam)\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n")
        src = os.path.dirname(os.path.dirname(weaklimits.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) / 1024 <= 120


REJECTED_FAMILIES = {
    "empty": lambda: Family(()),
    "no-full-space": lambda: Family((Dyadic1D(1, 0), Dyadic1D(1, 1))),
    "not-test-sets": lambda: Family((1, 2)),
    "a-pair-not-a-set": lambda: Family((Dyadic1D(0, 0), (1, 0))),
    "mixed-dimensions": lambda: Family((Dyadic1D(0, 0), Dyadic2D(0, 0, 1, 0))),
}


@pytest.mark.parametrize("build", list(REJECTED_FAMILIES.values()), ids=list(REJECTED_FAMILIES))
def test_rejected_family_raises_validation_error(build):
    # a member that is not a test set used to raise a bare AttributeError, and a
    # mixed family was accepted and failed only when it was used
    with pytest.raises(ValidationError):
        build()


def test_family_from_a_list_is_a_hashable_tuple():
    fam = Family([Dyadic1D(0, 0), Dyadic1D(2, 1)])
    assert fam.sets == (Dyadic1D(0, 0), Dyadic1D(2, 1))
    assert hash(fam) == hash(Family((Dyadic1D(0, 0), Dyadic1D(2, 1))))


NOT_FAMILIES = {"a-list-of-sets": [Dyadic1D(0, 0), Dyadic1D(1, 0)], "none": None}
ENTRY_POINTS = {
    "correlation_matrix": lambda T, fam: correlation_matrix(T, 1, fam),
    "dist_to_theta": lambda T, fam: dist_to_theta(T, 1, fam),
    "dist_to_identity": lambda T, fam: dist_to_identity(T, 1, fam),
    "dist_to_admissible": lambda T, fam: dist_to_admissible(T, 1, AdmissibleSpec(1, ()), fam),
    "mixing_time_scan": lambda T, fam: mixing_time_scan(T, 0, 0.05, 3, fam),
    "rigidity_scan": lambda T, fam: rigidity_scan(T, 3, 0.02, fam),
}


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work began")

    for kernel in ("_numerators", "_rotation_distances"):
        monkeypatch.setattr(weaklimits, kernel, refuse)


@pytest.mark.parametrize("T", [T4, ROT], ids=["4-iet", "rotation"])
@pytest.mark.parametrize("family", list(NOT_FAMILIES.values()), ids=list(NOT_FAMILIES))
@pytest.mark.parametrize("call", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_a_family_that_is_not_a_test_family_is_rejected_before_work(no_work, T, family, call):
    # an AttributeError on .sets before
    with pytest.raises(ValidationError, match="must be a TestFamily"):
        call(T, family)


@pytest.mark.parametrize("target", ["identity", "theta", None, 3])
def test_an_admissible_target_must_be_a_spec(no_work, target):
    # "identity" is a spec inside the library, but a string target must not compute
    with pytest.raises(ValidationError, match="must be an AdmissibleSpec"):
        dist_to_admissible(T4, 1, target, FAM4)


class TestFamilyBudget:
    def test_deepest_families_within_budget(self):
        assert len(Family.dyadic_intervals(11)) ** 2 <= 2**24
        assert len(Family.dyadic_rectangles(11)) == 63**2

    @pytest.mark.parametrize("build", [lambda: Family.dyadic_intervals(12),
                                       lambda: Family.dyadic_rectangles(12)],
                             ids=["intervals-12", "rectangles-12"])
    def test_family_past_budget_raises_before_it_is_built(self, build):
        with pytest.raises(BudgetError):
            build()

    @pytest.mark.parametrize("scan", [lambda fam: dist_to_theta(ROT, 1, fam),
                                      lambda fam: rigidity_scan(ROT, 5, 0.02, fam)],
                             ids=["dist-to-theta", "rigidity-scan"])
    def test_sparse_family_costs_its_complete_family(self, scan):
        # two sets, but the kernel evaluates all 2^13 - 1 dyadic intervals of level <= 12
        with pytest.raises(BudgetError):
            scan(Family((Dyadic1D(0, 0), Dyadic1D(12, 5))))

    def test_sparse_family_budget_names_its_depth(self):
        fam = Family((Dyadic1D(0, 0), Dyadic1D(12, 5)))
        with pytest.raises(BudgetError, match="8191 test sets of the complete dyadic family of "
                                              "depth 12, .* sets of level up to 12"):
            dist_to_theta(golden_rotation().to_iet(), 100, fam)

    def test_kernel_checks_any_family_before_work(self):
        sets = (Dyadic1D(0, 0), *(Dyadic1D(13, k) for k in range(4096)))
        with pytest.raises(BudgetError):
            _checked_times(ROT, [1], sets)


class TestTripleCorrelation:
    def test_baker_three_fold_independence(self):
        A = Dyadic2D(1, 0, 0, 0)
        for m, n in ((1, 2), (3, 7), (5, 19)):
            assert triple_correlation(BakerMap(), A, m, n) == F(1, 8)

    def test_identity_gives_measure(self):
        A = Dyadic1D(2, 1)
        assert triple_correlation(IntervalExchange.identity(), A, 2, 5) == A.measure

    def test_equal_times_rejected(self):
        with pytest.raises(ValidationError):
            triple_correlation(BakerMap(), Dyadic2D(1, 0, 0, 0), 3, 3)

    def test_limit_formulas(self):
        assert triple_correlation_limits(F(1, 2)) == (F(1, 4), F(1, 4))
        assert triple_correlation_limits(F(1, 3)) == (F(11, 81), F(1, 9))

    def test_iet_triple_vs_brute_force(self):
        A = Dyadic1D(1, 0)
        m, n = 2, 5
        got = triple_correlation(ROT, A, m, n)
        pre_m = brute_force_preimage(ROT, [(A.lo, A.hi)], m)
        pre_n = brute_force_preimage(ROT, [(A.lo, A.hi)], n)
        total = F(0)
        for lo1, hi1 in pre_m:
            for lo2, hi2 in pre_n:
                a = max(lo1, lo2, A.lo)
                b = min(hi1, hi2, A.hi)
                if b > a:
                    total += b - a
        assert got == total


class TestSetsFitTheSystem:
    """Test sets of the wrong dimension raise ValidationError before any work."""

    def test_triple_correlation_2d_set_on_rotation(self):
        with pytest.raises(ValidationError):
            triple_correlation(golden_rotation().to_iet(), Dyadic2D(1, 0, 0, 0), 1, 2)

    def test_correlation_2d_sets_on_rotation(self):
        with pytest.raises(ValidationError):
            correlation(ROT, Dyadic2D(1, 0, 0, 0), Dyadic2D(0, 0, 0, 0), 1)

    def test_mixing_scan_rectangles_on_rotation(self):
        with pytest.raises(ValidationError):
            mixing_time_scan(ROT, 0, 0.05, 4, Family.dyadic_rectangles(2))

    def test_baker_needs_2d_sets(self):
        with pytest.raises(ValidationError):
            triple_correlation(BakerMap(), Dyadic1D(1, 0), 1, 2)

    def test_scan_and_triple_times(self):
        assert scan_times(ROT, 3, 5) == range(3, 6)
        with pytest.raises(ValidationError):
            scan_times(BakerMap(), 6, 5)
        assert triple_times(ROT, 1, 2) == (0, 1, 2)
        with pytest.raises(ValidationError):
            triple_times(BakerMap(), 2, 2)

    def test_scanned_times_start_at_one(self):
        # j = -3 would scan m = -2..2 and report -2 as the minimal mixing time
        for j in (-3, -1):
            with pytest.raises(ValidationError, match="start at m = 1 or later"):
                mixing_time_scan(golden_rotation().to_iet(), j, 0.05, 2, Family.dyadic_intervals(3))
        with pytest.raises(ValidationError):
            scan_times(BakerMap(), 0, 5)
        assert mixing_time_scan(ROT, 0, 0.05, 2, FAM4).values[0][0] == 1

    def test_power_budget_checked_before_scan_times_are_listed(self):
        # 10**12 scanned powers of an exchange are rejected by their ends, never listed
        with pytest.raises(BudgetError):
            mixing_time_scan(ROT, 0, 0.05, 10**12, Family.dyadic_intervals(2))
        with pytest.raises(BudgetError):
            rigidity_scan(ROT, 10**12, 0.02, Family.dyadic_intervals(2))
        with pytest.raises(BudgetError):
            triple_times(ROT, 1, -(10**12))
        # so are the baker map's: listing 10**9 times ran out of memory
        assert scan_times(BakerMap(), 1, MAX_POWER)[-1] == MAX_POWER
        with pytest.raises(BudgetError):
            scan_times(BakerMap(), 1, 10**9)
        with pytest.raises(BudgetError):
            triple_times(BakerMap(), MAX_POWER + 1, 1)

    def test_baker_correlations_budget_their_power(self):
        with pytest.raises(BudgetError):
            correlation(BakerMap(), Dyadic2D(1, 0, 0, 0), Dyadic2D(1, 0, 0, 0), MAX_POWER + 1)
        with pytest.raises(BudgetError):
            correlation_matrix(BakerMap(), -(MAX_POWER + 1), FAM2D)


R37 = IntervalExchange.rotation(F(3, 7))
HALF = Dyadic1D(1, 0)
NOT_INTEGER_TIMES = {
    "correlation": lambda: correlation(R37, HALF, HALF, 1.5),
    "correlation-bool": lambda: correlation(R37, HALF, HALF, True),
    "dist-to-theta": lambda: dist_to_theta(R37, 1.5, FAM4),
    "dist-to-admissible": lambda: dist_to_admissible(R37, 1.5, AdmissibleSpec(1, ()), FAM4),
    "join-partition": lambda: join_partition(R37, IntervalPartition.halves(), [1.5]),
    "triple-correlation": lambda: triple_correlation(R37, HALF, 1.5, 2),
    "admissible-power": lambda: AdmissibleSpec(0, ((1.7, 1),)),
    "power": lambda: R37.power(2.5),
    "rigidity-scan": lambda: rigidity_scan(R37, 3.5, 0.02, FAM4),
    "mixing-scan-j": lambda: mixing_time_scan(R37, 0.5, 0.05, 4, FAM4),
    "asymmetry-ratio": lambda: asymmetry_ratio(R37, IntervalPartition.halves(), 2.5, 1, 2),
}


@pytest.mark.parametrize("call", list(NOT_INTEGER_TIMES.values()), ids=list(NOT_INTEGER_TIMES))
def test_time_that_is_not_an_integer_raises(call):
    # each used to be truncated, or to fail with a bare KeyError or TypeError
    with pytest.raises(ValidationError):
        call()
