import geo_route_sim


def test_every_export_resolves():
    missing = [name for name in geo_route_sim.__all__ if not hasattr(geo_route_sim, name)]
    assert missing == []
    namespace = {}
    exec("from geo_route_sim import *", namespace)
    assert set(geo_route_sim.__all__) <= set(namespace)
