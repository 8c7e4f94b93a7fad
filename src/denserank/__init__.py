"""Dense ranking constraint systems.

Library surface: the data model (`Instance`, built from `Constraint`
records, and `Ranking`), an exact oracle, single-fault conflict
characterizations, the Inc-Degree approximation with slack checkers,
sunflower kernelization, seeded generators, and a plain-text file
format.  An instance is one read-only table of selected data, one row
per r-subset in lexicographic order; `Constraint` is only the form of
data handed to `Instance(...)`.
"""

from .model import (
    Constraint,
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    VertexId,
    all_selected_values,
    fault_count,
    induced,
)
from .oracle import ExactResult, decide, is_conflict, min_inconsistencies
from .characterize import (
    CharacterizationReport,
    Compatibility,
    SingleFaultConfig,
    betweenness_single_fault_conflict,
    enumerate_single_fault_configs,
    fast_single_fault_conflict,
    predicted_non_conflicts,
    single_fault_config,
    verify_simple_characterization,
)
from .approx import (
    DegreeGapReport,
    DegreeProfile,
    DistanceSlacks,
    csp_distance,
    degree_gap_slack,
    in_degrees,
    inc_degree_ranking,
    incdegree_optimality_slack,
    left_counts,
    ranking_distance_slacks,
)
from .kernel import (
    KernelOutcome,
    SimpleSunflower,
    Verdict,
    apply_sunflower_edit,
    default_conflict_size,
    drop_always_selected_vertex,
    exact_provider,
    find_fast_sunflower,
    find_simple_sunflower,
    incdegree_provider,
    kernelize_characterized,
    kernelize_fast,
    local_search_provider,
    trivial_instance,
)
from .generate import GenerationMode, GeneratorSpec, generate, generate_with_details
from .fileformat import dump, load, parse, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
