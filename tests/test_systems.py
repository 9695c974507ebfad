import random
from fractions import Fraction

import pytest

from seqent import (
    AliasingError,
    BakerMap,
    BernoulliSystem,
    DomainError,
    IntervalExchange,
    RectangleExchange,
    ValidationError,
    fibonacci_numbers,
    golden_rotation,
)
from seqent.core import Rect, check_tiling

from oracles import baker_inverse, rect_intersection
from seqent.systems import powers_of

F = Fraction


def random_iet(rng, max_intervals=5):
    n = rng.randint(2, max_intervals)
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    lengths = [F(w, total) for w in weights]
    perm = list(range(n))
    rng.shuffle(perm)
    return IntervalExchange(tuple(lengths), tuple(perm))


def random_point(rng):
    d = rng.randint(2, 10**6)
    return F(rng.randrange(d), d)


REVERSING_3IET = IntervalExchange((F(1, 2), F(1, 3), F(1, 6)), (2, 1, 0))


class TestIetApply:
    def test_identity(self):
        assert IntervalExchange.identity().apply(F(1, 3)) == F(1, 3)

    def test_rotation_as_two_interval_exchange(self):
        alpha = F(5, 13)
        T = IntervalExchange((1 - alpha, alpha), (1, 0))
        assert T.apply(F(0)) == alpha

    @pytest.mark.parametrize("alpha", [0, 1, "3"])
    def test_rotation_by_a_whole_turn_is_the_identity(self, alpha):
        assert IntervalExchange.rotation(alpha) == IntervalExchange.identity()

    def test_reversing_three_iet_at_zero(self):
        assert REVERSING_3IET.apply(F(0)) == F(1, 2)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            REVERSING_3IET.apply(F(3, 2))

    def test_inverse_round_trip(self):
        rng = random.Random(1)
        inv = REVERSING_3IET.inverse()
        for _ in range(50):
            x = random_point(rng)
            assert inv.apply(REVERSING_3IET.apply(x)) == x

    def test_lengths_validation(self):
        with pytest.raises(ValidationError):
            IntervalExchange((F(1, 2), F(1, 3)), (1, 0))
        with pytest.raises(ValidationError):
            IntervalExchange((F(1, 2), F(1, 2)), (0, 0))

    @pytest.mark.parametrize("permutation", [(1.7, 0.2), (1.0, 0.0), (True, False), ("1", "0")])
    def test_non_integer_permutation_rejected(self, permutation):
        # int() would truncate (1.7, 0.2) to the valid permutation (1, 0)
        with pytest.raises(ValidationError):
            IntervalExchange((F(1, 3), F(2, 3)), permutation)


class TestIetCompose:
    def test_identity_neutral(self):
        A = REVERSING_3IET
        C = A.compose(IntervalExchange.identity())
        rng = random.Random(2)
        for _ in range(30):
            x = random_point(rng)
            assert C.apply(x) == A.apply(x)

    def test_rotation_group_law(self):
        a, b = F(3, 10), F(2, 7)
        C = IntervalExchange.rotation(a).compose(IntervalExchange.rotation(b))
        assert C == IntervalExchange.rotation((a + b) % 1)

    def test_compose_with_inverse_is_identity(self):
        A = REVERSING_3IET
        C = A.compose(A.inverse())
        assert len(C) == 1

    def test_interval_count_bound(self):
        rng = random.Random(3)
        for _ in range(10):
            A, B = random_iet(rng), random_iet(rng)
            assert len(A.compose(B)) <= len(A) + len(B) - 1


class TestIetPower:
    def test_zeroth_power(self):
        assert len(REVERSING_3IET.power(0)) == 1

    def test_rotation_power(self):
        alpha = F(4, 11)
        assert IntervalExchange.rotation(alpha).power(5) == IntervalExchange.rotation(5 * alpha)

    def test_pointwise_oracle(self):
        rng = random.Random(4)
        P = REVERSING_3IET.power(5)
        for _ in range(200):
            x = random_point(rng)
            y = x
            for _ in range(5):
                y = REVERSING_3IET.apply(y)
            assert P.apply(x) == y

    def test_negative_power(self):
        rng = random.Random(5)
        P = REVERSING_3IET.power(-3)
        Q = REVERSING_3IET.power(3)
        for _ in range(50):
            x = random_point(rng)
            assert P.apply(Q.apply(x)) == x

    def test_interval_count_bound(self):
        n = len(REVERSING_3IET)
        for m in (1, 2, 5, 9):
            assert len(REVERSING_3IET.power(m)) <= m * (n - 1) + 1

    def test_composition_consistency(self):
        rng = random.Random(6)
        T = random_iet(rng, max_intervals=4)
        for _ in range(5):
            a, b = rng.randint(-10, 10), rng.randint(-10, 10)
            lhs = T.power(a + b)
            rhs = T.power(a).compose(T.power(b))
            for _ in range(20):
                x = random_point(rng)
                assert lhs.apply(x) == rhs.apply(x)

    def test_shared_power_sweep(self):
        times = [-4, -1, 0, 2, 7]
        out = powers_of(REVERSING_3IET, times)
        rng = random.Random(7)
        for t in times:
            P = REVERSING_3IET.power(t)
            for _ in range(10):
                x = random_point(rng)
                assert out[t].apply(x) == P.apply(x)


class TestRotationSpec:
    def test_golden_angle(self):
        spec = golden_rotation()
        fibs = fibonacci_numbers(41)
        assert spec.alpha == F(fibs[-2], fibs[-1])

    def test_alias_guard_fires(self):
        T = golden_rotation().to_iet()
        with pytest.raises(AliasingError):
            T.power(10**5)

    def test_alias_guard_before_period(self):
        spec = golden_rotation()
        assert spec.alias_limit * len(spec.to_iet()) < spec.alpha.denominator

    def test_small_denominator_rejected(self):
        from seqent.systems import RotationSpec

        with pytest.raises(ValidationError):
            RotationSpec(F(5, 8))

    @pytest.mark.parametrize("limit", [0, 1.5, True, "3"])
    def test_alias_limit_is_an_integer_of_at_least_one(self, limit):
        for alpha in (F(1, 3), 0, 1):  # a whole alpha gives the identity, under the same guard
            with pytest.raises(ValidationError):
                IntervalExchange.rotation(alpha, alias_limit=limit)

    def test_identity_rotation_keeps_its_alias_limit(self):
        assert IntervalExchange.rotation(1, alias_limit=5).alias_limit == 5
        assert IntervalExchange.rotation(0) == IntervalExchange.identity()

    def test_order_is_an_integer(self):
        with pytest.raises(ValidationError):
            golden_rotation(41.0)


class TestRectangleExchange:
    def test_identity(self):
        T = RectangleExchange.identity()
        assert T.apply((F(1, 3), F(2, 5))) == (F(1, 3), F(2, 5))

    def test_vertical_swap(self):
        T = RectangleExchange.vertical_swap()
        assert T.apply((F(1, 4), F(1, 3))) == (F(3, 4), F(1, 3))

    def test_product_rotations_at_origin(self):
        a, b = F(3, 8), F(2, 5)
        T = RectangleExchange.product_rotations(a, b)
        assert T.apply((F(0), F(0))) == (a, b)

    def test_product_rotations_is_translation_mod_one(self):
        a, b = F(3, 8), F(2, 5)
        T = RectangleExchange.product_rotations(a, b)
        rng = random.Random(8)
        for _ in range(50):
            x, y = random_point(rng), random_point(rng)
            assert T.apply((x, y)) == ((x + a) % 1, (y + b) % 1)

    def test_inverse_round_trip(self):
        T = RectangleExchange.product_rotations(F(3, 8), F(2, 5))
        inv = T.inverse()
        rng = random.Random(9)
        for _ in range(30):
            pt = (random_point(rng), random_point(rng))
            assert inv.apply(T.apply(pt)) == pt

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            RectangleExchange.identity().apply((F(1), F(1, 2)))

    def test_validate_ok(self):
        T = RectangleExchange.vertical_swap()
        h = F(1, 2)
        xs, ys, owner = check_tiling(T.sources, "source")
        assert xs == (0, h, 1) and ys == (0, 1) and owner.tolist() == [[0], [1]]
        xs, ys, owner = check_tiling(T.images(), "image")
        assert xs == (0, h, 1) and ys == (0, 1) and owner.tolist() == [[1], [0]]

    def test_overlapping_sources_rejected(self):
        with pytest.raises(ValidationError, match=r"\(0,1\)"):
            RectangleExchange(
                (Rect(F(0), F(3, 4), F(0), F(1)), Rect(F(1, 2), F(1), F(0), F(1))),
                ((F(0), F(0)), (F(0), F(0))),
            )

    def test_image_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError, match="image"):
            RectangleExchange(
                (Rect(F(0), F(1, 2), F(0), F(1)), Rect(F(1, 2), F(1), F(0), F(1))),
                ((F(3, 4), F(0)), (F(0), F(0))),
            )

    def test_gap_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            RectangleExchange(
                (Rect(F(0), F(1, 2), F(0), F(1)),),
                ((F(0), F(0)),),
            )

    def test_measure_preservation_on_dyadic_rectangles(self):
        # preimages of dyadic rectangles, computed through the inverse map,
        # tile the same total area exactly
        T = RectangleExchange.product_rotations(F(3, 8), F(2, 5))
        inv = T.inverse()
        for depth in range(4):
            step = F(1, 2**depth)
            for i in range(2**depth):
                for j in range(2**depth):
                    A = Rect(i * step, (i + 1) * step, j * step, (j + 1) * step)
                    total = F(0)
                    for r, (dx, dy) in zip(inv.sources, inv.translations):
                        piece = rect_intersection(A, r)
                        if piece is not None:
                            total += piece.area
                    assert total == A.area


class TestBakerMap:
    def test_forward_formula(self):
        T = BakerMap()
        assert T.apply((F(3, 4), F(1, 3))) == (F(1, 2), F(2, 3))
        assert T.apply((F(1, 4), F(1, 3))) == (F(1, 2), F(1, 6))

    def test_inverse_round_trip(self):
        T = BakerMap()
        rng = random.Random(10)
        for _ in range(100):
            pt = (random_point(rng), random_point(rng))
            assert baker_inverse(T.apply(pt)) == pt
            assert T.apply(baker_inverse(pt)) == pt

    def test_measure_preservation_on_dyadic_rectangles(self):
        # the preimage of a dyadic rectangle is one rectangle of equal area:
        # T^-1([a,b) x [c,d)) with [c,d) inside a vertical half
        T = BakerMap()
        rng = random.Random(11)
        for _ in range(50):
            level = rng.randint(1, 6)
            i = rng.randrange(2**level)
            j = rng.randrange(2**level)
            step = F(1, 2**level)
            corners = [
                (i * step, j * step),
                (i * step + step / 2, j * step + step / 2),
            ]
            pre = [baker_inverse(pt) for pt in corners]
            # axis-parallel image of the cell spanned by the corners
            w = abs(pre[1][0] - pre[0][0])
            h = abs(pre[1][1] - pre[0][1])
            assert w * h == (step / 2) * (step / 2)


class TestBernoulli:
    def test_planar_bit_conjugacy(self):
        baker = BakerMap()
        rng = random.Random(12)
        for _ in range(20):
            x = F(rng.randrange(2**12), 2**12)
            y = F(rng.randrange(2**12), 2**12)
            cur = (x, y)
            for t in range(10):
                # vertical half of the t-step image = binary digit t+1 of x
                bit = int(x * 2 ** (t + 1)) % 2
                assert (1 if cur[0] >= F(1, 2) else 0) == bit
                cur = baker.apply(cur)

    def test_masses_validated(self):
        with pytest.raises(ValidationError):
            BernoulliSystem((F(1, 2), F(1, 3)))


class TestIetMeasurePreservation:
    def test_preimage_measure_equals_measure(self):
        # mu(T^-1 A) = mu(A) for dyadic intervals up to depth 6
        from seqent.weaklimits import TestSet1D, correlation

        for T in (REVERSING_3IET, IntervalExchange.rotation(F(7, 16))):
            full = TestSet1D(0, 0)
            for level in range(1, 7):
                for k in range(2**level):
                    A = TestSet1D(level, k)
                    assert correlation(T, A, full, 1) == A.measure
