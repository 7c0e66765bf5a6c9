import ast
import importlib
from pathlib import Path

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


def unused_imports(source: str, exported) -> list[str]:
    """The names ``source`` imports but never reads and does not list in
    ``exported``; ``import numpy.random``, which only loads the module, is allowed."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name not in ("*", "numpy.random")]
    return [name for name in bound if name not in read and name not in exported]


def test_every_import_is_used():
    for path in sorted(Path(geo_route_sim.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"geo_route_sim.{path.stem}".removesuffix(".__init__"))
        assert unused_imports(path.read_text(), getattr(module, "__all__", ())) == [], path.name


def test_a_leftover_import_is_caught():
    netsim = importlib.import_module("geo_route_sim.netsim")
    source = Path(netsim.__file__).read_text()
    leftover = source.replace("    route,\n", "    RouteResult,\n    route,\n", 1)
    assert leftover != source
    assert unused_imports(leftover, netsim.__all__) == ["RouteResult"]


def unread_private_names(sources) -> list[str]:
    """The private top-level names (functions, classes, assignments; not dunders)
    that the modules ``sources`` define but none of them reads, as a name, an
    attribute or an import."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text()
            for path in sorted(Path(geo_route_sim.__file__).parent.glob("*.py"))}


def test_every_private_name_is_read():
    assert unread_private_names(package_sources().values()) == []


def test_an_orphaned_helper_is_caught():
    sources = package_sources()
    sources["netsim"] += "\n\ndef _orphan():\n    pass\n"
    assert unread_private_names(sources.values()) == ["_orphan"]
