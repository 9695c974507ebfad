import pytest

from seqent import (
    BudgetError,
    IndexFamily,
    ValidationError,
    explicit_family,
    make_geometric_family,
    make_progression_family,
    resolve_growth,
)
from seqent.errors import MAX_FAMILY_SIZE


class TestProgression:
    def test_basic(self):
        assert make_progression_family(2, 3).members == (2, 4, 6)

    def test_unit_step(self):
        assert make_progression_family(1, 5).members == (1, 2, 3, 4, 5)

    def test_growth_equals_j(self):
        assert make_progression_family(10, 10).members == tuple(range(10, 101, 10))

    def test_invalid_j(self):
        with pytest.raises(ValidationError):
            make_progression_family(0, 4)

    def test_invalid_length(self):
        with pytest.raises(ValidationError):
            make_progression_family(3, 0)

    def test_budget(self):
        with pytest.raises(BudgetError):
            make_progression_family(1, MAX_FAMILY_SIZE + 1)


class TestGeometric:
    def test_j2(self):
        assert make_geometric_family(2, 12).members == (4, 8, 16)

    def test_truncated_by_cap(self):
        fam = make_geometric_family(3, 5)
        assert fam.members == (8, 16, 32)
        assert fam.truncated

    def test_single_element(self):
        fam = make_geometric_family(2, 2)
        assert fam.members == (4,)

    def test_not_truncated(self):
        assert not make_geometric_family(2, 12).truncated

    def test_j3_cap12(self):
        assert make_geometric_family(3, 12).members == tuple(2**e for e in range(3, 10))

    def test_power_budget(self):
        with pytest.raises(BudgetError):
            make_geometric_family(5, 25)

    def test_small_j_rejected(self):
        with pytest.raises(ValidationError):
            make_geometric_family(1, 12)


class TestExplicit:
    def test_sorted_dedup(self):
        assert explicit_family([5, 1, 3, 1]).members == (1, 3, 5)

    def test_positive_required(self):
        with pytest.raises(ValidationError):
            explicit_family([0, 1])

    def test_nonempty_required(self):
        with pytest.raises(ValidationError):
            explicit_family([])


class TestIndexFamily:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValidationError):
            IndexFamily((3, 3, 5))

    def test_iteration(self):
        assert list(explicit_family([2, 4])) == [2, 4]

    @pytest.mark.parametrize("make", [
        lambda: IndexFamily((1, 2.5, 3.9)),
        lambda: IndexFamily((1, True)),
        lambda: explicit_family([1, 2.0]),
        lambda: make_progression_family(1.5, 4),
        lambda: make_progression_family(True, 4),
        lambda: make_progression_family(2, resolve_growth("c", 2, 2.5)),
        lambda: make_geometric_family(2.9, 12),
        lambda: make_geometric_family(3, 5.5),
    ], ids=["members", "bool-member", "explicit", "progression-j", "progression-bool-j",
            "progression-L", "geometric-j", "geometric-cap"])
    def test_non_integers_rejected_not_truncated(self, make):
        with pytest.raises(ValidationError, match="must be an integer"):
            make()


class TestGrowthForms:
    def test_constant(self):
        assert resolve_growth("c", 7, c=64) == 64

    def test_linear(self):
        assert resolve_growth("j", 7) == 7

    def test_quadratic(self):
        assert resolve_growth("j2", 7) == 49

    def test_scaled_linear(self):
        assert resolve_growth("cj", 7, c=3) == 21

    def test_unknown_form(self):
        with pytest.raises(ValidationError):
            resolve_growth("exp", 2)

    def test_missing_constant(self):
        with pytest.raises(ValidationError):
            resolve_growth("c", 2)
