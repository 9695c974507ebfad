"""seqent: exact sequence-entropy and weak-limit diagnostics for
measure-preserving systems (interval and rectangle exchanges, rotations by
continued-fraction convergents, Bernoulli shifts and the baker map)."""

from .core import (
    IntervalPartition,
    ProbabilityVector,
    Rect,
    RectanglePartition,
    as_fraction,
    partition_measures,
    shannon_entropy,
)
from .errors import (
    AliasingError,
    BudgetError,
    DegenerateInputError,
    DomainError,
    SeqentError,
    ValidationError,
)
from .families import (
    IndexFamily,
    explicit_family,
    make_geometric_family,
    make_progression_family,
    resolve_growth,
)
from .seqentropy import (
    EntropyTrace,
    JoinResult,
    McOptions,
    TraceRow,
    asymmetry_ratio,
    bernoulli_join_entropy,
    boundary_growth,
    entropy_trace,
    exact_join,
    h_j,
    join_for,
    join_partition,
    mc_join_entropy,
    sup_over_partitions,
)
from .systems import (
    BakerMap,
    BernoulliSystem,
    IntervalExchange,
    RectangleExchange,
    RotationSpec,
    discontinuity_length,
    fibonacci_numbers,
    golden_rotation,
)
from .weaklimits import (
    AdmissibleSpec,
    ScanReport,
    TestFamily,
    TestSet1D,
    TestSet2D,
    correlation,
    dist_to_admissible,
    dist_to_identity,
    dist_to_theta,
    mixing_time_scan,
    rigidity_scan,
    triple_correlation,
    triple_correlation_limits,
)

__version__ = "0.1.0"
