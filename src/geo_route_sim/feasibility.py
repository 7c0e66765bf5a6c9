"""Poisson connectivity analysis for next-hop candidate availability.

Answers "how likely is a forwarder to see at least k candidates?" for the
full transmission disk and for the quarter disk that overlaps the request
zone, both analytically and through an independent point-process Monte Carlo
estimator, and emits the curve tables as CSV.
"""

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

import numpy as np

# Most expected points per Monte Carlo trial; all trials' draws sit in memory.
MAX_TRIAL_POINTS = 1_000_000

class RegionKind(Enum):
    FULL_CIRCLE = "full_circle"
    QUARTER_CIRCLE = "quarter_circle"


@dataclass(frozen=True)
class FeasibilityParams:
    """Node density (per square meter), transmission range, candidate count."""

    density: float
    tx_range: float
    k: int = 1

    def __post_init__(self) -> None:
        if not self.density > 0:
            raise ValueError(f"density must be > 0, got {self.density!r}")
        if not self.tx_range > 0:
            raise ValueError(f"tx_range must be > 0, got {self.tx_range!r}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k!r}")


def mean_node_count(params: FeasibilityParams, region: RegionKind) -> float:
    """Expected number of nodes in the transmission disk or its quarter."""
    full = params.density * math.pi * params.tx_range**2
    return full if region is RegionKind.FULL_CIRCLE else full / 4.0


def poisson_pmf(n: int, mean: float) -> float:
    """P(N = n) for N ~ Poisson(mean).

    Evaluated in log space (log-gamma for the factorial) so large n does not
    overflow double precision.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean!r}")
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.exp(-mean)
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def prob_at_least_k(k: int, mean: float) -> float:
    """P(N >= k) = 1 - sum_{n<k} pmf(n, mean), clamped to [0, 1]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean!r}")
    tail = 1.0 - math.fsum(poisson_pmf(n, mean) for n in range(k))
    return min(1.0, max(0.0, tail))


class MonteCarloEstimate(NamedTuple):
    estimate: float
    stderr: float


def monte_carlo_at_least_k(
    params: FeasibilityParams,
    region: RegionKind,
    trials: int,
    seed: int,
) -> MonteCarloEstimate:
    """Estimate P(at least k candidates in the region) from a simulated field.

    Each trial scatters a homogeneous planar Poisson process over a bounding
    box and counts the points that land inside the disk (or quarter disk).
    The region count therefore arises from geometric thinning of uniformly
    placed points, never from the analytic pmf, which keeps this estimator an
    independent check on the closed forms.  Returns the hit fraction and its
    binomial standard error.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    r = params.tx_range
    low, high = (-r, r) if region is RegionKind.FULL_CIRCLE else (0.0, r)
    box_area = (high - low) ** 2
    box_counts = rng.poisson(params.density * box_area, size=trials)
    total = int(box_counts.sum())
    xs = rng.uniform(low, high, size=total)
    ys = rng.uniform(low, high, size=total)
    inside = (xs * xs + ys * ys) <= r * r
    owner = np.repeat(np.arange(trials), box_counts)
    region_counts = np.bincount(owner[inside], minlength=trials)
    estimate = float(np.count_nonzero(region_counts >= params.k)) / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloEstimate(estimate, stderr)


def feasibility_table(
    densities: Iterable[float],
    tx_range: float,
    k_max: int,
    region: RegionKind,
) -> list[tuple[float, int, float]]:
    """Rows (density, k, P(>=k)) for k = 1..k_max, ordered density then k ascending."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max!r}")
    rows = []
    for density in sorted(densities):
        mean = mean_node_count(FeasibilityParams(density, tx_range), region)
        rows.extend((density, k, prob_at_least_k(k, mean)) for k in range(1, k_max + 1))
    return rows


@dataclass
class AnalyzeConfig:
    """Parameter grid for the feasibility curve tables."""

    densities: tuple[float, ...] = (0.0002, 0.0004)
    tx_range: float = 250.0
    k_max: int = 10
    mc_trials: Optional[int] = None
    seed: int = 1

    def validate(self) -> None:
        if not self.densities:
            raise ValueError("densities must not be empty")
        for d in self.densities:
            if not 0 < d < math.inf:
                raise ValueError(f"densities must be finite and > 0, got {d!r}")
        if not 0 < self.tx_range < math.inf:
            raise ValueError(f"tx_range must be finite and > 0, got {self.tx_range!r}")
        # Expected points in the Monte Carlo box, which holds the disk.
        box_points = 4.0 * self.tx_range * self.tx_range * max(self.densities)
        limit = math.inf if self.mc_trials is None else MAX_TRIAL_POINTS
        if not box_points < limit:
            raise ValueError(f"densities * (2 * tx_range)**2 must be < {limit}, got {box_points!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max!r}")
        if self.mc_trials is not None and self.mc_trials < 1:
            raise ValueError(f"mc_trials must be >= 1, got {self.mc_trials!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def analyze_csv(config: AnalyzeConfig) -> str:
    """Curve table for both region kinds as CSV text.

    Probabilities are printed at 10 significant digits; rows are ordered by
    density ascending, then region, then k ascending, so the output is a
    deterministic function of the configuration.  With ``mc_trials`` set, each
    row gains a Monte Carlo estimate and its standard error, seeded per row
    from ``seed``.
    """
    config.validate()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    with_mc = config.mc_trials is not None
    header = ["density", "k", "region", "probability"]
    if with_mc:
        header += ["mc_estimate", "mc_stderr"]
    writer.writerow(header)
    cells = [
        (density, region, k)
        for density in sorted(config.densities)
        for region in RegionKind
        for k in range(1, config.k_max + 1)
    ]
    mc_seeds = (
        np.random.SeedSequence(config.seed).generate_state(len(cells)) if with_mc else None
    )
    for i, (density, region, k) in enumerate(cells):
        params = FeasibilityParams(density, config.tx_range, k)
        prob = prob_at_least_k(k, mean_node_count(params, region))
        row = [f"{density:.10g}", str(k), region.value, f"{prob:.10g}"]
        if with_mc:
            est = monte_carlo_at_least_k(params, region, config.mc_trials, int(mc_seeds[i]))
            row += [f"{est.estimate:.10g}", f"{est.stderr:.10g}"]
        writer.writerow(row)
    return buf.getvalue()
