"""cubicsym: symmetry invariants of finite cubic graphs.

Automorphism groups, transitivity profiles, consistent cycles,
distinguishing numbers and costs, generalized truncations, and
isomorph-free enumeration of connected cubic graphs at desk scale.
"""

from .graph import (
    CycleSeq,
    Graph,
    GraphConstructionError,
    GirthResult,
    build_graph,
    cycles_of_length,
    every_3_arc_in_cycle,
    every_edge_in_cycle,
    girth,
    s_arc_count,
    s_arcs,
)
from .graph6 import (
    Graph6Error,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
)
from .perm import (
    Action,
    GroupTooLargeError,
    Permutation,
    PermutationGroup,
    close_generators,
    orbits,
    stabilizer,
)
from .autgrp import (
    OrderedPartition,
    automorphism_group,
    canonical_form,
    extend_partial_map,
    is_isomorphic,
    refine_coloring,
)
from .symmetry import (
    EdgeOrbitSummary,
    StabilizerClass,
    TransitivityProfile,
    consistent_cycles,
    consistent_girth_cycles,
    edge_orbit_summary,
    local_action_order,
    local_fixity_check,
    stabilizer_class,
    transitivity_profile,
)
from .distinguishing import (
    CostResult,
    SearchBudgetExceeded,
    distinguishing_cost,
    distinguishing_number,
    is_distinguishing_set,
    setwise_stabilizer_trivial,
)
from .catalog import (
    CatalogError,
    CatalogEntry,
    RotationSystem,
    catalog_build,
    catalog_graph,
    catalog_names,
)
from .truncation import (
    ArcLabeling,
    LabelingStrategy,
    QuotientError,
    classic_truncation,
    cycle_quotient,
    generalized_truncation,
    neighborhood_labeling,
)
from .enumeration import (
    EnumerationRangeError,
    KNOWN_COUNTS,
    enumerate_cubic,
    enumerate_cubic_bruteforce,
    enumerate_cubic_graph6,
    irreducible_seeds,
)
from .claims import (
    CLAIM_IDS,
    ClaimReport,
    PREDICATES,
    UnknownClaimError,
    brbb_unique_path_property,
    filtered_enumeration,
    verify_claim,
)

__version__ = "0.1.0"
