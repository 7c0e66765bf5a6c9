"""Output checks for the CLI's CSV, one per command.

Each check returns a list of problems; an empty list means the output is
right.  They read only the CSV text and the arguments the run was given, never
the package, so they hold across refactors of the code under test.
"""

import csv
import io
import math

CAMPAIGN_HEADER = [
    "protocol", "density", "tx_range", "seed", "sent", "delivered", "pdr",
    "mean_hops", "mean_delay_ms", "void_drops", "ttl_drops", "loop_drops",
    "zone_unreachable",
]
DROP_COLUMNS = ("void_drops", "ttl_drops", "loop_drops", "zone_unreachable")
ANALYZE_HEADER = ["density", "k", "region", "probability", "mc_estimate", "mc_stderr"]
REGIONS = ("full_circle", "quarter_circle")
# A printed 6-decimal value is within half a unit of its last place.
HALF_ULP6 = 0.5e-6
# Two-sided tail of a normal distribution beyond 5 standard deviations.
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


def _rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None, [f"header {rows[0] if rows else None} != {header}"]
    return [dict(zip(header, row)) for row in rows[1:]], []


def check_campaign(text, protocols, params, seed):
    """``simulate``/``compare`` output: one row per protocol, in order, whose
    counts add up and whose rates agree with those counts."""
    rows, problems = _rows(text, CAMPAIGN_HEADER)
    if rows is None:
        return problems
    if [r["protocol"] for r in rows] != list(protocols):
        return [f"protocols {[r['protocol'] for r in rows]} != {list(protocols)}"]
    flows = int(params["flows"])
    latency = float(params.get("per_hop_latency_ms", 2.0))
    for r in rows:
        where = f"row {r['protocol']}"
        try:
            sent, delivered = int(r["sent"]), int(r["delivered"])
            drops = sum(int(r[c]) for c in DROP_COLUMNS)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if r["density"] != f"{float(params['density']):.6f}" or r["seed"] != str(seed):
            problems.append(f"{where}: density/seed {r['density']}/{r['seed']} do not echo the config")
        if sent != flows:
            problems.append(f"{where}: sent {sent} != flows {flows}")
        if delivered + drops != sent:
            problems.append(f"{where}: delivered {delivered} + drops {drops} != sent {sent}")
        if sent and r["pdr"] != f"{delivered / sent:.6f}":
            problems.append(f"{where}: pdr {r['pdr']} != {delivered}/{sent}")
        if delivered == 0:
            if r["mean_hops"] or r["mean_delay_ms"]:
                problems.append(f"{where}: hop and delay columns set with nothing delivered")
            continue
        try:
            hops, delay = float(r["mean_hops"]), float(r["mean_delay_ms"])
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        # delay = hops * latency, both rounded to 6 decimals after the product.
        if abs(delay - hops * latency) > HALF_ULP6 * (1.0 + latency) + 1e-12:
            problems.append(f"{where}: mean_delay_ms {delay} != mean_hops {hops} x {latency}")
        if hops < 1.0:
            problems.append(f"{where}: mean_hops {hops} < 1 with deliveries")
    return problems


def binomial_tail(count, n, p):
    """Two-sided P(|X - np| >= |count - np|) for X ~ Binomial(n, p).

    Summed exactly in log space, outward from each cut-off until the terms
    stop mattering, so it stays right for counts of a few rare events, where
    a normal approximation does not.
    """
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == n * p else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)
    mean = n * p
    gap = abs(count - mean)
    total = 0.0
    for x, step in ((math.floor(mean - gap + 1e-9), -1), (math.ceil(mean + gap - 1e-9), 1)):
        while 0 <= x <= n:
            term = math.exp(base - math.lgamma(x + 1) - math.lgamma(n - x + 1)
                            + x * log_p + (n - x) * log_q)
            total += term
            if term <= 1e-17 * total:
                break
            x += step
    return min(1.0, total)


def check_analyze(text, densities, k_max, trials):
    """``analyze --mc-trials`` output: the full grid in order, tails
    non-increasing in k, and every Monte Carlo estimate within 5 null
    standard errors of its analytic probability.

    "Within 5 standard errors" is taken as its exact meaning: the hit count is
    no less likely under Binomial(trials, probability) than a 5-sigma normal
    deviation.  The plain ``|est - p| <= 5 se`` form flags a single miss
    whenever the expected number of misses is far below one.
    """
    rows, problems = _rows(text, ANALYZE_HEADER)
    if rows is None:
        return problems
    expected = [(d, region, k) for d in sorted(densities) for region in REGIONS
                for k in range(1, k_max + 1)]
    got = [(r["density"], r["region"], r["k"]) for r in rows]
    want = [(f"{d:.10g}", region, str(k)) for d, region, k in expected]
    if got != want:
        return [f"{len(got)} rows in order {got[:3]}..., expected {len(want)} rows {want[:3]}..."]
    previous = {}
    for r in rows:
        where = f"row density={r['density']} region={r['region']} k={r['k']}"
        p, est = float(r["probability"]), float(r["mc_estimate"])
        cell = (r["density"], r["region"])
        if cell in previous and p > previous[cell]:
            problems.append(f"{where}: probability {p} rises with k")
        previous[cell] = p
        # A printed 1 stands for anything within half a unit of the 10th digit.
        p_true = min(p, 1.0 - 5e-11)
        if binomial_tail(round(est * trials), trials, p_true) < FIVE_SIGMA_TAIL:
            problems.append(f"{where}: mc_estimate {est} is over 5 stderr from {p}")
    return problems
