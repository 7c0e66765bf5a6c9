"""Position-based VANET routing simulator and feasibility toolkit.

Implements directional (compass) greedy forwarding, location-aided
zone-restricted route discovery, and the directional-location-aided hybrid of
the two, together with a Poisson connectivity analysis of next-hop candidate
availability, a deterministic campaign simulator, and a CSV-emitting CLI.
"""

from .feasibility import (
    AnalyzeConfig,
    FeasibilityParams,
    MonteCarloEstimate,
    RegionKind,
    analyze_csv,
    mean_node_count,
    monte_carlo_at_least_k,
    poisson_pmf,
    prob_at_least_k,
)
from .geometry import Position, deviation_angle, distance, wrap_angle
from .netsim import (
    CampaignMetrics,
    METRICS_HEADER,
    SimConfig,
    beacon_view,
    generate_nodes,
    metrics_row,
    run_campaign,
    step_mobility,
)
from .routing import (
    DEFAULT_TTL,
    NetworkSnapshot,
    Outcome,
    PROTOCOLS,
    RouteResult,
    dir_next_hop,
    dlar_next_hop,
    lar_route_discovery,
    neighbors,
    route,
)
from .zones import (
    ExpectedZone,
    RequestZone,
    expected_zone,
    in_request_zone,
    request_zone,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzeConfig",
    "CampaignMetrics",
    "DEFAULT_TTL",
    "ExpectedZone",
    "FeasibilityParams",
    "METRICS_HEADER",
    "MonteCarloEstimate",
    "NetworkSnapshot",
    "Outcome",
    "PROTOCOLS",
    "Position",
    "RegionKind",
    "RequestZone",
    "RouteResult",
    "SimConfig",
    "analyze_csv",
    "beacon_view",
    "deviation_angle",
    "dir_next_hop",
    "distance",
    "dlar_next_hop",
    "expected_zone",
    "generate_nodes",
    "in_request_zone",
    "lar_route_discovery",
    "mean_node_count",
    "metrics_row",
    "monte_carlo_at_least_k",
    "neighbors",
    "poisson_pmf",
    "prob_at_least_k",
    "request_zone",
    "route",
    "run_campaign",
    "step_mobility",
    "wrap_angle",
]
