import importlib

import geo_route_sim

MODULES = ("feasibility", "geometry", "netsim", "routing", "zones")

# The package's public names; a change to this set is a change to the API.
EXPORTS = {
    "AnalyzeConfig", "CampaignMetrics", "DEFAULT_TTL", "ExpectedZone", "FeasibilityParams",
    "METRICS_HEADER", "MonteCarloEstimate", "NetworkSnapshot", "Outcome", "PROTOCOLS",
    "Position", "RegionKind", "RequestZone", "RouteResult", "SimConfig", "analyze_csv",
    "beacon_view", "deviation_angle", "dir_next_hop", "distance", "dlar_next_hop",
    "expected_zone", "generate_nodes", "in_request_zone", "lar_route_discovery",
    "mean_node_count", "metrics_row", "monte_carlo_at_least_k", "neighbors", "poisson_pmf",
    "prob_at_least_k", "request_zone", "route", "run_campaign", "step_mobility", "wrap_angle",
}


def test_every_export_resolves():
    missing = [name for name in geo_route_sim.__all__ if not hasattr(geo_route_sim, name)]
    assert missing == []
    namespace = {}
    exec("from geo_route_sim import *", namespace)
    assert set(geo_route_sim.__all__) <= set(namespace)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from geo_route_sim import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS


def test_root_all_is_the_module_lists():
    lists = [importlib.import_module(f"geo_route_sim.{name}").__all__ for name in MODULES]
    combined = [name for names in lists for name in names]
    assert geo_route_sim.__all__ == combined
    assert len(set(combined)) == len(combined) == 36


def test_each_export_is_its_home_module_object():
    for module_name in MODULES:
        module = importlib.import_module(f"geo_route_sim.{module_name}")
        for name in module.__all__:
            assert getattr(geo_route_sim, name) is getattr(module, name), name
