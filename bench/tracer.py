"""Span tracer that wraps the package's functions from outside the package.

Each wrapped function is replaced at the module global its caller looks it
up by (``netsim.route``, ``routing.neighbors``, ...), so the package itself is
unchanged.  Span wrappers record one span per call: name, start, end, parent
span and flow index, kept in memory and written out once the run ends.  The
hot leaf calls get counters only, keyed by the span they ran inside, because a
span per ``distance`` call would cost more than the call.

A name the package no longer has is skipped and listed in ``absent``; the
metrics that depend on it are then left out of the summary instead of
failing the run.
"""

import importlib
import json
import time

PACKAGE = "geo_route_sim"

# (module, attribute, span name).  A route span is named after its protocol
# (``routing.route.lar``) and opens a flow: every span under it carries the
# flow's index.
SPANS = [
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_campaign", "netsim.run_campaign"),
    ("netsim", "generate_nodes", "netsim.generate_nodes"),
    ("netsim", "step_mobility", "netsim.step_mobility"),
    ("netsim", "beacon_view", "netsim.beacon_view"),
    ("netsim", "route", "routing.route"),
    ("routing", "neighbors", "routing.neighbors"),
    ("routing", "dir_next_hop", "routing.dir_next_hop"),
    ("routing", "dlar_next_hop", "routing.dlar_next_hop"),
    ("routing", "lar_route_discovery", "routing.lar_route_discovery"),
    ("feasibility", "monte_carlo_at_least_k", "feasibility.monte_carlo_at_least_k"),
    ("feasibility", "prob_at_least_k", "feasibility.prob_at_least_k"),
]

# (module, attribute, counter name): the hot leaves.
COUNTERS = [
    ("routing", "distance", "geometry.distance"),
    ("netsim", "distance", "geometry.distance"),
    ("routing", "deviation_angle", "geometry.deviation_angle"),
    ("routing", "in_request_zone", "zones.in_request_zone"),
    ("routing", "request_zone", "zones.request_zone"),
]

PROTOCOLS = ("dir", "lar", "dlar")


def _result_size(name, result):
    """What a span keeps of its return value: the neighbor count of a
    ``neighbors`` call, the hop count of a delivered route."""
    if name == "routing.neighbors":
        return len(result)
    if name.startswith("routing.route"):
        delivered = getattr(getattr(result, "outcome", None), "value", None) == "delivered"
        return getattr(result, "hop_count", 0) if delivered else 0
    return None


class Tracer:
    """Installs the wrappers and holds the spans and counters of one run."""

    def __init__(self):
        # Span: [name, start, end, parent index, flow index, result size].
        self.spans = []
        self.counts = {}  # (counter name, enclosing span name) -> calls
        self.installed = set()  # span and counter names with a wrapped call site
        self._stack = []
        self._current = [None]  # name of the innermost open span
        self._flow = [-1]
        self._flows = 0

    def install(self):
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, name, self._span)
        for module_name, attr, name in COUNTERS:
            self._patch(module_name, attr, name, self._leaf)

    @property
    def absent(self):
        """Span and counter names of which no call site could be wrapped."""
        return sorted({name for _, _, name in SPANS + COUNTERS} - self.installed)

    def _patch(self, module_name, attr, name, make_wrapper):
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, make_wrapper(fn, name))
            self.installed.add(name)

    def call(self, fn, name, *args, **kwargs):
        """Run ``fn`` as a root span (``cli.main``)."""
        return self._span(fn, name)(*args, **kwargs)

    def _span(self, fn, name):
        spans, stack, current, flow = self.spans, self._stack, self._current, self._flow
        opens_flow = name == "routing.route"

        def wrapper(*args, **kwargs):
            span_name = name
            outer_flow = flow[0]
            if opens_flow:
                span_name = f"{name}.{args[0] if args else kwargs.get('protocol')}"
                flow[0] = self._flows
                self._flows += 1
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, flow[0], None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            outer = current[0]
            current[0] = span_name
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                current[0] = outer
                flow[0] = outer_flow
            record[5] = _result_size(span_name, result)
            return result

        return wrapper

    def _leaf(self, fn, name):
        counts, current = self.counts, self._current

        def wrapper(*args, **kwargs):
            key = (name, current[0])
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, flow, size in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "flow": flow, "size": size}
                    )
                    + "\n"
                )

    def summary(self, csv_bytes):
        """Per-layer metrics of this run: ``{name: [value, unit]}``.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, so that is a plain sum.
        """
        durations = [end - start for _, start, end, _, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent, _, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += dur
        by_name = {}
        for i, (name, *_rest) in enumerate(self.spans):
            by_name.setdefault(name, []).append(i)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum(durations[i] - child_time[i] for i in by_name.get(name, ()))

        def total_s(name):
            return sum(durations[i] for i in by_name.get(name, ()))

        def pct(name, q, scale):
            values = sorted(durations[i] * scale for i in by_name.get(name, ()))
            if not values:
                return 0.0
            return values[min(len(values) - 1, int(q * len(values)))]

        def count(name, inside=None):
            return sum(n for (leaf, span), n in self.counts.items()
                       if leaf == name and (inside is None or span == inside))

        def ratio(num, den):
            return num / den if den else 0.0

        neighbor_spans = by_name.get("routing.neighbors", ())
        returned = sum(self.spans[i][5] for i in neighbor_spans)
        lar_calls = set(by_name.get("routing.lar_route_discovery", ()))
        rebroadcasts = sum(1 for i in neighbor_spans if self.spans[i][3] in lar_calls)
        lar_hops = sum(self.spans[i][5] or 0 for i in by_name.get("routing.route.lar", ()))

        m = {
            "geometry.distance.calls": (count("geometry.distance"), "count"),
            "geometry.deviation_angle.calls": (count("geometry.deviation_angle"), "count"),
            "zones.in_request_zone.calls": (count("zones.in_request_zone"), "count"),
            "zones.request_zone.calls": (count("zones.request_zone"), "count"),
            "routing.neighbors.calls": (calls("routing.neighbors"), "count"),
            "routing.neighbors.self_s": (self_s("routing.neighbors"), "s"),
            "routing.neighbors.us_p50": (pct("routing.neighbors", 0.50, 1e6), "us"),
            "routing.neighbors.us_p99": (pct("routing.neighbors", 0.99, 1e6), "us"),
            "routing.neighbors.mean_degree": (ratio(returned, len(neighbor_spans)), "count"),
            "routing.neighbors.hit_ratio": (
                ratio(returned, count("geometry.distance", inside="routing.neighbors")), "ratio"),
        }
        for protocol in PROTOCOLS:
            name = f"routing.route.{protocol}"
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.ms_p50"] = (pct(name, 0.50, 1e3), "ms")
            m[f"{name}.ms_p95"] = (pct(name, 0.95, 1e3), "ms")
        m.update({
            "routing.dir_next_hop.self_s": (self_s("routing.dir_next_hop"), "s"),
            "routing.dlar_next_hop.self_s": (self_s("routing.dlar_next_hop"), "s"),
            "routing.lar_route_discovery.self_s": (self_s("routing.lar_route_discovery"), "s"),
            "routing.lar_route_discovery.s": (total_s("routing.lar_route_discovery"), "s"),
            "routing.lar.rebroadcasts_per_flow": (
                ratio(rebroadcasts, calls("routing.route.lar")), "count"),
            "routing.lar.hops_per_rebroadcast": (ratio(lar_hops, rebroadcasts), "ratio"),
        })
        for name in ("netsim.step_mobility", "netsim.beacon_view"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
            m[f"{name}.ms_p50"] = (pct(name, 0.50, 1e3), "ms")
        mc = "feasibility.monte_carlo_at_least_k"
        m.update({
            "netsim.generate_nodes.s": (total_s("netsim.generate_nodes"), "s"),
            "netsim.run_campaign.self_s": (self_s("netsim.run_campaign"), "s"),
            f"{mc}.calls": (calls(mc), "count"),
            f"{mc}.self_s": (self_s(mc), "s"),
            f"{mc}.ms_p50": (pct(mc, 0.50, 1e3), "ms"),
            "feasibility.prob_at_least_k.calls": (calls("feasibility.prob_at_least_k"), "count"),
            "feasibility.prob_at_least_k.self_s": (self_s("feasibility.prob_at_least_k"), "s"),
            "cli.parse_config.s": (total_s("cli.parse_config"), "s"),
            "cli.main.s": (total_s("cli.main"), "s"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "cli.csv_bytes": (csv_bytes, "B"),
        })
        absent = self.absent
        return {
            name: list(value)
            for name, value in m.items()
            if not any(name.startswith(a + ".") or a in DEPENDS.get(name, ()) for a in absent)
        }


# Metrics derived from names other than the one they start with.
DEPENDS = {
    "routing.neighbors.hit_ratio": ("geometry.distance",),
    "routing.lar.rebroadcasts_per_flow": ("routing.neighbors", "routing.lar_route_discovery"),
    "routing.lar.hops_per_rebroadcast": ("routing.neighbors", "routing.lar_route_discovery"),
}
