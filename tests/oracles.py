"""Slow exact reference implementations for differential tests.

Each oracle works pair by pair in ``Fraction`` arithmetic (or, for the baker
map, on cylinder dictionaries) and shares no code with the integer-lattice
kernels of ``seqent.systems`` and ``seqent.weaklimits``.
"""
from fractions import Fraction

import numpy as np

from seqent import IntervalExchange, IntervalPartition

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


def oracle_distance(corr, family, mode: str, normalized: bool = True) -> float:
    """The weak distance of a dyadic-interval family's Fraction correlations,
    float-converted entry by entry."""
    mu = family.measures()
    if mode == "theta":
        targets = [[a * b for b in mu] for a in mu]
    else:
        targets = [[_overlap(a, b) for b in family.sets] for a in family.sets]
    w = family.pair_weight_matrix()
    c = np.array([[float(v) for v in row] for row in corr])
    t = np.array([[float(v) for v in row] for row in targets])
    dev = np.abs(c - t)
    if normalized:
        s = family.sigmas()
        ss = np.outer(s, s)
        dev = np.divide(dev, ss, out=np.zeros_like(dev), where=ss > 0)
    return float((w * dev).sum())


def _overlap(a, b) -> Fraction:
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return hi - lo if hi > lo else ZERO
