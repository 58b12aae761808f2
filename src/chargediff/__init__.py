"""Local k-nearest-neighbor search on graphs via bounded charge diffusion."""

from .baselines import lazy_walk_matrix_power, oracle_step, overlap_at_k, personalized_pagerank
from .diffusion import (
    ChargeState,
    DiffusionConfig,
    Variant,
    excess_total,
    init_state,
    is_active,
    step,
)
from .distsim import RoundStats, message_complexity_report, run_distributed
from .engine import (
    Bounds,
    ConfigError,
    QueryResult,
    compute_bounds,
    nn_subgraph_connected,
    periphery_check,
    run_query,
    top_k,
    validate_config,
)
from .graph import (
    EdgeListError,
    Graph,
    from_edges,
    load_edge_list,
    max_degree,
    parse_edge_list,
    serialize_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "ChargeState",
    "ConfigError",
    "DiffusionConfig",
    "EdgeListError",
    "Graph",
    "QueryResult",
    "RoundStats",
    "Variant",
    "compute_bounds",
    "excess_total",
    "from_edges",
    "init_state",
    "is_active",
    "lazy_walk_matrix_power",
    "load_edge_list",
    "max_degree",
    "message_complexity_report",
    "nn_subgraph_connected",
    "oracle_step",
    "overlap_at_k",
    "parse_edge_list",
    "periphery_check",
    "personalized_pagerank",
    "run_distributed",
    "run_query",
    "serialize_edge_list",
    "step",
    "top_k",
    "validate_config",
]
