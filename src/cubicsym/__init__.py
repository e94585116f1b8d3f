"""cubicsym: symmetry invariants of finite cubic graphs.

Automorphism groups, transitivity profiles, consistent cycles,
distinguishing numbers and costs, generalized truncations, and
isomorph-free enumeration of connected cubic graphs at desk scale.
"""

from .graph import (
    Graph,
    GraphConstructionError,
    balls,
    build_graph,
    every_3_arc_in_6_cycle,
    every_edge_in_girth_cycle,
    girth,
)
from .graph6 import (
    Graph6Error,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
)
from .perm import (
    GroupTooLargeError,
    close_generators,
    cycle_notation,
    orbits,
    stabilizer,
)
from .autgrp import (
    automorphism_group,
    canonical_form,
    is_isomorphic,
)
from .symmetry import (
    TransitivityProfile,
    consistent_cycles,
    local_action_order,
    local_fixity_check,
    transitivity_profile,
)
from .distinguishing import (
    CostResult,
    SearchBudgetExceeded,
    distinguishing_cost,
    distinguishing_number,
    is_distinguishing_set,
)
from .catalog import (
    CatalogError,
    CatalogEntry,
    catalog_build,
    catalog_graph,
    catalog_names,
)
from .truncation import (
    QuotientError,
    classic_truncation,
    cycle_quotient,
    generalized_truncation,
    seeded_orders,
)
from .enumeration import (
    EnumerationRangeError,
    KNOWN_COUNTS,
    enumerate_cubic,
    enumerate_cubic_graph6,
    irreducible_seeds,
)
from .claims import (
    CLAIM_IDS,
    ClaimInputError,
    ClaimReport,
    PREDICATES,
    UnknownClaimError,
    brbb_unique_path_property,
    filtered_enumeration,
    verify_claim,
)

__version__ = "0.1.0"
