"""Acceptance suite: ten quantitative criteria, one pass/fail line each.

Every criterion prints "[PASS] criterion N: ..." on success; a failing
assertion inside a criterion fails its test and prints "[FAIL]" instead.
Stated tolerances are encoded literally (exact comparisons where the
tolerance is zero) together with each criterion's runtime budget.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from seqent import (
    BakerMap,
    BernoulliSystem,
    IntervalExchange,
    IntervalPartition,
    ProbabilityVector,
    RectanglePartition,
    RectangleExchange,
    explicit_family,
    exact_join,
    fibonacci_numbers,
    golden_rotation,
    h_j,
    make_geometric_family,
    make_progression_family,
    mc_join_entropy,
    boundary_growth,
    entropy_trace,
    partition_measures,
    shannon_entropy,
    triple_correlation,
    triple_correlation_limits,
)
from seqent.core import Rect
from seqent.systems import discontinuity_length
from seqent.weaklimits import TestFamily as Family
from seqent.weaklimits import TestSet1D as Dyadic1D
from seqent.weaklimits import TestSet2D as Dyadic2D
from seqent.weaklimits import _scan_distances, correlation, dist_to_theta

from oracles import baker_join_measures_grid

F = Fraction


class Budget:
    """Asserts the criterion stayed within its runtime budget and prints
    the one-line verdict."""

    def __init__(self, number: int, label: str, seconds: float | None):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        budget = f", budget {self.seconds:.0f} s" if self.seconds else ""
        print(f"[{verdict}] criterion {self.number}: {self.label} "
              f"({elapsed:.1f} s{budget})")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds} s budget"
            )
        return False


def test_criterion_01_bernoulli_independence():
    with Budget(1, "fair Bernoulli h_j = 1 bit exactly, with planar cross-check", 5):
        B = BernoulliSystem.fair()
        for j in (1, 2, 4, 8, 16):
            fam = make_progression_family(j, j)
            assert h_j(B, 1, fam) == 1.0
        # cross-check: exact dyadic-cylinder enumeration in the planar model
        for members in ([1], [2, 4], [4, 8, 12, 16], list(range(1, 21))):
            fam = explicit_family(members)
            assert len(fam) <= 20
            counts, W = baker_join_measures_grid(fam.members)
            # every label vector is hit by exactly 2^(W-|F|) grid cells, so
            # each exact mass is 2^-|F| and the join entropy is |F| bits
            assert len(counts) == 2 ** len(fam)
            assert all(int(c) * 2 ** len(fam) == 2**W for c in counts.tolist())
            if len(fam) <= 4:
                masses = ProbabilityVector(tuple(F(int(c), 2**W) for c in counts))
                assert shannon_entropy(masses) == float(len(fam))


def test_criterion_02_identity_law():
    with Budget(2, "h_j(Id, xi, F) = H(xi)/|F| exactly (20 partitions x 10 families)", 5):
        rng = random.Random(2024)
        T = IntervalExchange.identity()
        grid = [F(k, 16) for k in range(1, 16)]
        families = []
        while len(families) < 10:
            members = sorted(rng.sample(range(1, 200), rng.randint(1, 12)))
            families.append(explicit_family(members))
        for _ in range(20):
            cuts = [F(0)] + sorted(rng.sample(grid, rng.randint(1, 10)))
            labels = [rng.randint(0, 3) for _ in cuts]
            if len(set(labels)) == 1:
                labels[0] = 99  # keep the partition nondegenerate
            xi = IntervalPartition(tuple(cuts), tuple(labels))
            h_xi = shannon_entropy(partition_measures(xi))
            for fam in families:
                assert h_j(T, xi, fam) == h_xi / len(fam)


def test_criterion_03_zero_entropy_decay():
    with Budget(3, "rotation, 3-IET and 4-IET joins stay small (cut-count bounds)", 60):
        halves = IntervalPartition.halves()
        T = golden_rotation().to_iet()
        res = exact_join(T, halves, explicit_family(range(1, 65)))
        h = res.entropy_bits / 64
        assert res.atom_count <= 130
        assert h <= math.log2(130) / 64
        assert h < 0.2

        swap = IntervalExchange((F(1, 2), F(1, 3), F(1, 6)), (2, 1, 0))
        # a 4-IET whose join keeps growing, unlike the 2-atom joins of the swap
        growing = IntervalExchange((F(1, 5), F(2, 7), F(3, 11), F(93, 385)), (3, 2, 1, 0))
        for iet in (swap, growing):
            n = len(iet)
            for N in (8, 16, 32, 64):
                res = exact_join(iet, halves, explicit_family(range(1, N + 1)))
                quadratic_bound = N * (N * (n - 1) + 1) + 2 * N
                assert res.atom_count <= quadratic_bound
                if N == 64:
                    assert res.entropy_bits / N < 0.35


def test_criterion_04_boundary_growth_ledger():
    with Budget(4, "exact boundary ledger B(N) - B(0) <= N*D for both exchanges", 30):
        N = 50
        cases = []
        swap = RectangleExchange.vertical_swap()
        cases.append((swap, RectanglePartition.quadrants()))
        prod = RectangleExchange.product_rotations(F(610, 987), F(377, 610))
        source_partition = RectanglePartition(
            tuple((r, i) for i, r in enumerate(prod.sources))
        )
        cases.append((prod, source_partition))
        for T, xi in cases:
            D = discontinuity_length(T)
            lengths = boundary_growth(T, xi, N)
            for n, v in enumerate(lengths):
                assert v - lengths[0] <= n * D  # exact rational comparison


def test_criterion_05_rotation_rigidity_and_no_mixing():
    with Budget(5, "golden rotation: rigidity along Fibonacci, never Theta-close", 120):
        T = golden_rotation().to_iet()
        fam = Family.dyadic_intervals(6)
        fibs = fibonacci_numbers(24)
        targets = [fibs[i] for i in range(9, 24, 2)]  # F10, F12, ..., F24
        assert targets[-1] == 46368
        rigidity = _scan_distances(T, targets, fam, "identity")
        assert all(a > b for a, b in zip(rigidity, rigidity[1:]))
        assert rigidity[-1] < 0.02
        theta = _scan_distances(T, list(range(1, 10**4 + 1)), fam, "theta")
        assert min(theta) > 0.05


def test_criterion_06_baker_decorrelation():
    with Budget(6, "baker: dist to Theta exactly 0 for m >= 4; triples exactly 1/8", 30):
        baker = BakerMap()
        fam = Family.dyadic_rectangles(4)
        for m in range(4, 101):
            assert dist_to_theta(baker, m, fam) == 0.0
        A = Dyadic2D(1, 0, 0, 0)  # the vertical half [0, 1/2) x [0, 1)
        for m in range(1, 20):
            for n in range(m + 1, 21):
                assert triple_correlation(baker, A, m, n) == F(1, 8)


def test_criterion_07_limit_formulas():
    with Budget(7, "triple-correlation limit formulas at mu = 1/2 and 1/3", None):
        assert triple_correlation_limits(F(1, 2)) == (F(1, 4), F(1, 4))
        assert triple_correlation_limits(F(1, 3)) == (F(11, 81), F(1, 9))


def test_criterion_08_monte_carlo_calibration():
    with Budget(8, "bootstrap CIs cover the exact entropy in >= 90 of 100 runs", 120):
        covered = 0
        xi_id = RectanglePartition((
            (Rect(F(0), F(1, 4), F(0), F(1)), "a"),
            (Rect(F(1, 4), F(1), F(0), F(3, 8)), "b"),
            (Rect(F(1, 4), F(1), F(3, 8), F(1)), "c"),
        ))
        exact_id = shannon_entropy(partition_measures(xi_id))
        fam = explicit_family([1, 2, 3])
        for seed in range(50):
            r = mc_join_entropy(RectangleExchange.identity(), xi_id, fam, 10000, seed)
            covered += abs(r.entropy_bits - exact_id) <= r.ci_halfwidth
        xi_bk = RectanglePartition.vertical_halves()
        for seed in range(50):
            r = mc_join_entropy(BakerMap(), xi_bk, fam, 10000, seed)
            covered += abs(r.entropy_bits - 3.0) <= r.ci_halfwidth
        assert covered >= 90


def test_criterion_09_oracle_equivalence():
    with Budget(9, "powers match pointwise iteration; correlations match brute force", None):
        rng = random.Random(909)

        def random_iet():
            n = rng.randint(2, 5)
            weights = [rng.randint(1, 9) for _ in range(n)]
            lengths = [F(w, sum(weights)) for w in weights]
            perm = list(range(n))
            rng.shuffle(perm)
            return IntervalExchange(tuple(lengths), tuple(perm))

        for _ in range(25):
            T = random_iet()
            m = rng.randint(1, 10)
            P = T.power(m)
            for _ in range(1000):
                d = rng.randint(2, 10**6)
                x = F(rng.randrange(d), d)
                y = x
                for _ in range(m):
                    y = T.apply(y)
                assert P.apply(x) == y

        # brute-force preimage evaluation, sharing no code with the library
        def brute_correlation(T, A, B, m):
            cuts = list(T.cuts) + [F(1)]
            intervals = [(A.lo, A.hi)]
            for _ in range(m):
                nxt = []
                for lo, hi in intervals:
                    for i, t in enumerate(T.translations):
                        a, b = max(cuts[i] + t, lo), min(cuts[i + 1] + t, hi)
                        if b > a:
                            nxt.append((a - t, b - t))
                intervals = nxt
            total = F(0)
            for lo, hi in intervals:
                a, b = max(lo, B.lo), min(hi, B.hi)
                if b > a:
                    total += b - a
            return total

        systems = [random_iet() for _ in range(5)]
        for _ in range(500):
            T = rng.choice(systems)
            la, lb = rng.randint(0, 5), rng.randint(0, 5)
            A = Dyadic1D(la, rng.randrange(2**la))
            B = Dyadic1D(lb, rng.randrange(2**lb))
            m = rng.randint(0, 10)
            assert correlation(T, A, B, m) == brute_correlation(T, A, B, m)


def test_criterion_10_geometric_families():
    with Budget(10, "geometric families exact; Bernoulli trace rows all 1 bit", 10):
        cap = 12
        for j in (2, 3, 4):
            expected = tuple(2**e for e in range(j, min(j * j, cap) + 1))
            assert make_geometric_family(j, cap).members == expected
        B = BernoulliSystem.fair()
        trace = entropy_trace(B, 1, lambda j: make_geometric_family(j, cap), [2, 3, 4])
        assert [r.h for r in trace.rows] == [1.0, 1.0, 1.0]
