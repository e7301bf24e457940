"""Dense-group member selection under dynamic size and similarity constraints.

The package selects node groups from a weighted similarity graph, maximizing
the average pairwise similarity subject to a minimum group size and a
per-member minimum edge similarity, and keeps the selection repaired as those
two constraints change or the graph grows.
"""

from .baselines import average_peel, degree_peel, random_peel, sgsel
from .dataio import (
    RawDataset,
    dataset_stats,
    load_content_cites,
    parse_bridges,
    read_msg1,
    to_sim_graph,
    write_msg1,
)
from .dcsel import (
    ScheduleEvent,
    Session,
    StepRecord,
    apply_similarity_delta,
    apply_size_delta,
    augment_graph,
    init_session,
    parse_schedule,
    run_schedule,
)
from .errors import (
    CapacityError,
    DataError,
    InvalidNodeError,
    MselError,
    ParameterError,
    ParseError,
    PreconditionError,
    ScheduleError,
    UndefinedRatioError,
)
from .graph import (
    ConstraintPair,
    SimGraph,
    Solution,
    avg_similarity,
    cross_weight,
    disjoint_union,
    incident_weight,
    is_feasible,
    total_weight,
)
from .oracle import OracleResult, exact_msp, ratio_check
from .peel import PeelProfile, PeelStats, PeelTrace, modified_sgsel
from .plotting import render_alpha_svg
from .similarity import (
    AttributeMatrix,
    build_similarity_graph,
    normalize_attributes,
    pair_weight,
)
from .synth import planted_community_graph, random_graph

__version__ = "0.1.0"

__all__ = [
    "AttributeMatrix",
    "CapacityError",
    "ConstraintPair",
    "DataError",
    "InvalidNodeError",
    "MselError",
    "OracleResult",
    "ParameterError",
    "ParseError",
    "PeelProfile",
    "PeelStats",
    "PeelTrace",
    "PreconditionError",
    "RawDataset",
    "ScheduleError",
    "ScheduleEvent",
    "Session",
    "SimGraph",
    "Solution",
    "StepRecord",
    "UndefinedRatioError",
    "apply_similarity_delta",
    "apply_size_delta",
    "augment_graph",
    "average_peel",
    "avg_similarity",
    "build_similarity_graph",
    "cross_weight",
    "dataset_stats",
    "degree_peel",
    "disjoint_union",
    "exact_msp",
    "incident_weight",
    "init_session",
    "is_feasible",
    "load_content_cites",
    "modified_sgsel",
    "normalize_attributes",
    "pair_weight",
    "parse_bridges",
    "parse_schedule",
    "planted_community_graph",
    "random_graph",
    "random_peel",
    "ratio_check",
    "read_msg1",
    "render_alpha_svg",
    "run_schedule",
    "sgsel",
    "to_sim_graph",
    "total_weight",
    "write_msg1",
]
