"""Boundary-growth ledger for rectangle exchanges.

The total boundary length of the joined partition under a rectangle
exchange grows at most linearly: every step can add at most the exchange's
own interior discontinuity length D.  The ledger below tracks the exact
rational boundary length B(n) step by step for a torus translation built
from two circle rotations and verifies B(n) - B(0) <= n * D.  Over the
first 20 steps it is an equality.  Over the whole step budget (10^4) it is
not: once boundary segments start to return to the partition boundary or
the seams, a step adds less than D, and once every segment has returned B
stops growing.  The demo prints the first step below equality and the step
from which B is constant.

Run:  python3 demos/boundary_ledger.py
"""
from fractions import Fraction

from seqent import RectanglePartition, RectangleExchange, boundary_growth
from seqent.errors import MAX_LEDGER_STEPS
from seqent.systems import discontinuity_length


def main():
    T = RectangleExchange.product_rotations(Fraction(610, 987), Fraction(377, 610))
    xi = RectanglePartition(tuple((r, i) for i, r in enumerate(T.sources)))
    D = discontinuity_length(T)
    lengths = boundary_growth(T, xi, 20)

    print("product-of-rotations exchange, source-rectangle partition")
    print(f"interior discontinuity length D = {D}")
    print(f"{'n':>3} {'B(n)':>8} {'B(n)-B(0)':>10} {'n*D':>6}")
    for n, v in enumerate(lengths):
        print(f"{n:>3} {str(v):>8} {str(v - lengths[0]):>10} {str(n * D):>6}")
    ok = all(v - lengths[0] <= n * D for n, v in enumerate(lengths))
    print(f"linear bound B(n) - B(0) <= n*D holds exactly: {ok}")

    full = boundary_growth(T, xi, MAX_LEDGER_STEPS)
    below = next(n for n, v in enumerate(full) if v - full[0] < n * D)
    last = next(n for n, v in enumerate(full) if v == full[-1])
    ok = all(v - full[0] <= n * D for n, v in enumerate(full))
    print(f"over n <= {MAX_LEDGER_STEPS}: B(n) - B(0) < n*D from n = {below}, "
          f"B(n) = {full[-1]} from n = {last}, bound holds exactly: {ok}")

if __name__ == "__main__":
    main()
