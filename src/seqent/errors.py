"""Exception types and global computation budgets."""


class SeqentError(Exception):
    """Base class for all library errors."""


class ValidationError(SeqentError, ValueError):
    """A value fails a structural invariant (bad partition, bad vector, ...)."""


class DomainError(SeqentError, ValueError):
    """A point lies outside the domain of a map."""


class AliasingError(SeqentError):
    """An iteration horizon would expose the rational stand-in for an
    irrational rotation number."""


class BudgetError(SeqentError):
    """A requested computation exceeds a configured hard budget."""


class DegenerateInputError(SeqentError, ValueError):
    """An input is structurally valid but makes the requested statistic
    meaningless (e.g. a one-atom partition in an entropy ratio)."""


# Hard budgets.  Chosen so every shipped experiment finishes in minutes
# on a desktop; no CLI flag or config field changes them.
MAX_FAMILY_SIZE = 4096
MAX_POWER = 10**6
MAX_JOIN_CUTS = 10**7
MAX_LEDGER_STEPS = 10**4  # steps of the boundary-growth ledger
MIN_MC_SAMPLES = 1000  # fewest samples behind a Monte Carlo join entropy
# Most Monte Carlo samples: the bootstrap holds N_BOOTSTRAP rows of counts, so
# a join whose every sample is its own atom peaks at about 7 KB per sample
# (baker map, vertical halves, times 1..40: +69 MB at 10^4 samples and +197 MB
# at 3 * 10^4; resource.getrusage in one process, Python 3.11, numpy 2.4,
# x86-64 Linux): about 0.7 GB at the ceiling.
MAX_MC_SAMPLES = 10**5
# Ordered test-set pairs per power of a weak-limit scan: 1-D depth 11 (4,095
# sets) fits, 1-D depth 12 and 2-D depth 12 (127^2 sets) do not.
MAX_TEST_PAIRS = 2**24
# Cells of a rectangle tiling's grid (core.check_tiling): one table entry of
# 8 bytes each, so at most 32 MB.
MAX_TILING_CELLS = 2**22
