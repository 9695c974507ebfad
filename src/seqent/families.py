"""Index families: the finite time sets a sequence-entropy join runs over."""
from __future__ import annotations

from dataclasses import dataclass

from .core import as_integer
from .errors import BudgetError, ValidationError, MAX_FAMILY_SIZE, MAX_POWER


@dataclass(frozen=True)
class IndexFamily:
    """Finite set of distinct positive integer times; a float or a bool
    member raises ValidationError.  ``truncated`` marks a geometric family
    {2^j, ..., 2^min(j*j, cap)} cut short by its exponent cap.
    """

    members: tuple[int, ...]
    truncated: bool = False

    def __post_init__(self):
        members = tuple(as_integer(m, "index family member") for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValidationError("index family must be nonempty")
        if any(m <= 0 for m in members):
            raise ValidationError("index family members must be positive")
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValidationError("index family members must be strictly increasing")
        if len(members) > MAX_FAMILY_SIZE:
            raise BudgetError(f"family size {len(members)} exceeds budget {MAX_FAMILY_SIZE}")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def make_progression_family(j: int, L: int) -> IndexFamily:
    """Progression {j, 2j, ..., L*j}; j and L must be integers, and IndexFamily
    rejects a j or an L below 1 (non-positive members, no members)."""
    j, L = as_integer(j, "j"), as_integer(L, "progression length L")
    if L > MAX_FAMILY_SIZE:
        raise BudgetError(f"L={L} exceeds family-size budget {MAX_FAMILY_SIZE}")
    return IndexFamily(tuple(j * i for i in range(1, L + 1)))


def make_geometric_family(j: int, cap: int) -> IndexFamily:
    """Geometric family {2^j, 2^(j+1), ..., 2^min(j*j, cap)}; j and cap must be integers."""
    j, cap = as_integer(j, "j"), as_integer(cap, "cap")
    if j < 2:
        raise ValidationError("j must be >= 2 for geometric families")
    top = min(j * j, cap)
    if top < j:
        raise ValidationError(f"cap {cap} leaves no exponents >= j={j}")
    if 2**top > MAX_POWER:
        raise BudgetError(f"2^{top} exceeds max power budget {MAX_POWER}")
    return IndexFamily(tuple(2**e for e in range(j, top + 1)), truncated=cap < j * j)


def explicit_family(members) -> IndexFamily:
    return IndexFamily(tuple(sorted({as_integer(m, "index family member") for m in members})))


# Whitelisted growth forms for L(j) in declarative configs.
GROWTH_FORMS = ("c", "j", "j2", "cj")


def resolve_growth(form: str, j: int, c: int | None = None) -> int:
    """Evaluate a whitelisted growth spec L(j); the constant c of the forms
    "c" and "cj" must be an integer."""
    if form in ("c", "cj"):
        if c is None:
            raise ValidationError(f"growth form {form!r} needs a constant c")
        c = as_integer(c, "growth constant c")
    if form == "c":
        return c
    if form == "j":
        return j
    if form == "j2":
        return j * j
    if form == "cj":
        return c * j
    raise ValidationError(f"unknown growth form {form!r}; choose one of {GROWTH_FORMS}")
