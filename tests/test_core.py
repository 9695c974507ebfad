import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import seqent
from seqent import (
    BudgetError,
    IntervalPartition,
    ProbabilityVector,
    Rect,
    RectanglePartition,
    ValidationError,
    as_fraction,
    partition_measures,
    shannon_entropy,
)
from seqent.core import as_real
from seqent.errors import MAX_JOIN_CUTS, MAX_TILING_CELLS

from oracles import common_refinement

F = Fraction


def entropy_oracle(masses):
    """Independent plain-float evaluation of -sum p log2 p."""
    return -sum(float(p) * math.log2(float(p)) for p in masses if p > 0)


class TestAsFraction:
    def test_string(self):
        assert as_fraction("13/21") == F(13, 21)

    def test_int(self):
        assert as_fraction(3) == F(3)

    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            as_fraction(0.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            as_fraction("1/0")

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            as_fraction("one half")


class TestAsReal:
    @pytest.mark.parametrize("value", [0, 0.05, F(1, 3), 10**20])
    def test_finite_reals_are_floats(self, value):
        assert as_real(value, "r") == float(value)

    @pytest.mark.parametrize("value", [True, "0.05", None, float("nan"), float("inf"), 10**400])
    def test_others_rejected(self, value):
        with pytest.raises(ValidationError):
            as_real(value, "r")


class TestShannonEntropy:
    def test_mpmath_is_loaded_by_the_first_entropy_not_by_import(self):
        code = ("import sys, seqent\n"
                "assert 'mpmath' not in sys.modules\n"
                "import seqent.cli\n"
                "assert 'mpmath' not in sys.modules\n"
                "from seqent import ProbabilityVector, shannon_entropy\n"
                "shannon_entropy(ProbabilityVector.from_numerators([1, 3], 4))\n"
                "assert 'mpmath' in sys.modules\n")
        src = os.path.dirname(os.path.dirname(seqent.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_uniform_two_atoms(self):
        assert shannon_entropy(ProbabilityVector((F(1, 2), F(1, 2)))) == 1.0

    def test_deterministic(self):
        assert shannon_entropy(ProbabilityVector((F(1), F(0)))) == 0.0

    def test_quarter_three_quarters(self):
        got = shannon_entropy(ProbabilityVector((F(1, 4), F(3, 4))))
        assert abs(got - entropy_oracle([F(1, 4), F(3, 4)])) < 1e-12
        assert abs(got - 0.8112781244591328) < 1e-12

    def test_range_bound(self):
        v = ProbabilityVector((F(1, 6), F(1, 3), F(1, 2)))
        h = shannon_entropy(v)
        assert 0 <= h <= math.log2(3)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            ProbabilityVector((F(3, 2), F(-1, 2)))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            ProbabilityVector((F(1, 2), F(1, 3)))

    def test_from_numerators_equals_the_fraction_vector(self):
        v = ProbabilityVector.from_numerators([2, 4, 2, 0, 4], 12)
        assert v == ProbabilityVector((F(1, 6), F(1, 3), F(1, 6), F(0), F(1, 3)))
        assert shannon_entropy(v) == shannon_entropy(ProbabilityVector(v.entries))
        assert ProbabilityVector.from_numerators([2**63, 2**63], 2**64).entries == (F(1, 2),) * 2

    @pytest.mark.parametrize("numerators", [[], [3, -1], [1, 2]], ids=["empty", "negative", "sum"])
    def test_from_numerators_rejects_a_non_probability(self, numerators):
        with pytest.raises(ValidationError):
            ProbabilityVector.from_numerators(numerators, 2)

    def test_order_independence(self):
        rng = random.Random(5)
        masses = [F(1, 16)] * 4 + [F(1, 8), F(1, 4), F(3, 8)]
        base = shannon_entropy(ProbabilityVector(tuple(masses)))
        for _ in range(5):
            rng.shuffle(masses)
            assert shannon_entropy(ProbabilityVector(tuple(masses))) == base


class TestIntervalPartition:
    def test_halves_measures(self):
        xi = IntervalPartition((F(0), F(1, 2)), ("a", "b"))
        assert sorted(partition_measures(xi)) == [F(1, 2), F(1, 2)]

    def test_label_merging(self):
        xi = IntervalPartition((F(0), F(1, 4), F(3, 4)), ("a", "b", "a"))
        assert sorted(partition_measures(xi)) == [F(1, 2), F(1, 2)]

    def test_dyadic_level2(self):
        xi = IntervalPartition.dyadic(2)
        assert sorted(partition_measures(xi)) == [F(1, 4)] * 4

    @pytest.mark.parametrize("level", [MAX_JOIN_CUTS.bit_length(), 40, 10**9])
    def test_dyadic_past_the_cut_budget_raises_before_any_interval(self, level):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            IntervalPartition.dyadic(level)
        assert time.perf_counter() - start < 1

    def test_measures_sum_to_one(self):
        xi = IntervalPartition.from_cut_list([F(0), F(1, 7), F(2, 5), F(9, 11)])
        assert sum(partition_measures(xi)) == 1

    def test_cuts_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            IntervalPartition((F(1, 4), F(1, 2)), ("a", "b"))

    def test_duplicate_cut_rejected(self):
        with pytest.raises(ValidationError):
            IntervalPartition((F(0), F(1, 2), F(1, 2)), ("a", "b", "c"))

    @pytest.mark.parametrize("labels", [([0], [1]), ("a", ("b", [1])), ("a", {})],
                             ids=["lists", "a-list-in-a-tuple", "dict"])
    def test_unhashable_label_rejected(self, labels):
        # atoms are keyed by label; tuple labels such as a join's stay valid
        with pytest.raises(ValidationError, match="hashable"):
            IntervalPartition((F(0), F(1, 2)), labels)

    def test_label_at(self):
        xi = IntervalPartition((F(0), F(1, 2)), ("a", "b"))
        assert xi.label_at(F(0)) == "a"
        assert xi.label_at(F(1, 2)) == "b"
        assert xi.label_at(F(3, 4)) == "b"


class TestCommonRefinement:
    def test_idempotent(self):
        xi = IntervalPartition.from_cut_list([F(0), F(1, 3), F(1, 2)])
        ref = common_refinement(xi, xi)
        assert sorted(partition_measures(ref)) == sorted(partition_measures(xi))

    def test_halves_vs_thirds(self):
        halves = IntervalPartition.halves()
        thirds = IntervalPartition.from_cut_list([F(0), F(1, 3), F(2, 3)])
        ref = common_refinement(halves, thirds)
        assert sorted(partition_measures(ref)) == [F(1, 6), F(1, 6), F(1, 3), F(1, 3)]

    def test_trivial_is_identity_element(self):
        xi = IntervalPartition.from_cut_list([F(0), F(2, 7), F(3, 5)])
        ref = common_refinement(xi, IntervalPartition.dyadic(0))
        assert sorted(partition_measures(ref)) == sorted(partition_measures(xi))

    def test_entropy_monotone_and_subadditive(self):
        rng = random.Random(11)
        grid = [F(k, 16) for k in range(16)]
        for _ in range(25):
            cuts_a = [F(0)] + sorted(rng.sample(grid[1:], rng.randint(1, 6)))
            cuts_b = [F(0)] + sorted(rng.sample(grid[1:], rng.randint(1, 6)))
            a = IntervalPartition.from_cut_list(cuts_a)
            b = IntervalPartition.from_cut_list(cuts_b)
            ha = shannon_entropy(partition_measures(a))
            hb = shannon_entropy(partition_measures(b))
            hj = shannon_entropy(partition_measures(common_refinement(a, b)))
            assert hj >= max(ha, hb) - 1e-12
            assert hj <= ha + hb + 1e-12


class TestRectanglePartition:
    def test_quadrants(self):
        xi = RectanglePartition.quadrants()
        assert sorted(partition_measures(xi)) == [F(1, 4)] * 4

    @pytest.mark.parametrize("levels", [(12, 11), (0, MAX_TILING_CELLS.bit_length()), (20, 20)])
    def test_dyadic_past_the_tiling_budget_raises_before_any_atom(self, levels):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            RectanglePartition.dyadic(*levels)
        assert time.perf_counter() - start < 1

    def test_vertical_halves(self):
        xi = RectanglePartition.vertical_halves()
        assert sorted(partition_measures(xi)) == [F(1, 2), F(1, 2)]

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            RectanglePartition(
                (
                    (Rect(F(0), F(3, 4), F(0), F(1)), "a"),
                    (Rect(F(1, 2), F(1), F(0), F(1)), "b"),
                )
            )

    def test_gap_rejected(self):
        with pytest.raises(ValidationError):
            RectanglePartition(((Rect(F(0), F(1, 2), F(0), F(1)), "a"),))

    def test_label_at(self):
        xi = RectanglePartition.vertical_halves()
        left = xi.label_at((F(1, 4), F(1, 2)))
        right = xi.label_at((F(3, 4), F(1, 2)))
        assert left != right
