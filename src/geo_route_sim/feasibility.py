"""Poisson connectivity analysis for next-hop candidate availability.

Answers "how likely is a forwarder to see at least k candidates?" for the
full transmission disk and for the quarter disk that overlaps the request
zone, both analytically and through an independent point-process Monte Carlo
estimator, and emits the curve tables as CSV.
"""

import csv
import io
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

# Most expected points per Monte Carlo trial; bounds the work of one trial.
MAX_TRIAL_POINTS = 1_000_000
# Most expected slots in one Monte Carlo draw, each trial's count plus the
# points of its box; bounds the work of one draw, which streams its points.
MAX_DRAW_POINTS = 50_000_000
# Most rows of one analyze table, len(densities) * 2 * k_max.
MAX_ANALYZE_ROWS = 1_000_000
# Points drawn per block of a Monte Carlo draw, small enough to stay in cache.
_BLOCK_POINTS = 2**15

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
        for name, value in (("density", self.density), ("tx_range", self.tx_range)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
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
    if not 0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0, got {mean!r}")
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.exp(-mean)
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def prob_at_least_k(k: int, mean: float) -> float:
    """P(N >= k) for N ~ Poisson(mean), clamped to [0, 1].

    Up to the mean this is 1 - sum_{n<k} pmf(n, mean).  Beyond it the upper
    tail sum_{n>=k} pmf(n, mean) is added directly, since 1 - head cancels
    catastrophically there; its terms fall monotonically, and the sum stops
    once a term is below 1e-17 of the running total.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if not 0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0, got {mean!r}")
    if k <= mean:
        tail = 1.0 - math.fsum(poisson_pmf(n, mean) for n in range(k))
        return min(1.0, max(0.0, tail))
    terms = [poisson_pmf(k, mean)]
    total = terms[0]
    while terms[-1] > 1e-17 * total:
        terms.append(poisson_pmf(k + len(terms), mean))
        total += terms[-1]
    return min(1.0, math.fsum(terms))


def _at_least_column(mean: float, k_max: int):
    """``prob_at_least_k(k, mean)`` for k = 1 .. ``k_max``, bit for bit.

    Up to the mean the head is carried upward exactly, one pmf term per row,
    instead of re-summed per row: every double is a whole multiple of
    2**-1074, so the head is an integer in those units, and ``int / int``
    rounds its value correctly, as ``math.fsum`` does.  Rows beyond the mean
    take :func:`prob_at_least_k`'s tail.
    """
    head, unit = 0, 1 << 1074  # head: sum of pmf(n) for n < k, in units of 2**-1074
    for k in range(1, k_max + 1):
        if k > mean:
            yield prob_at_least_k(k, mean)
            continue
        num, den = poisson_pmf(k - 1, mean).as_integer_ratio()  # den = 2**(bit_length - 1)
        head += num << (1075 - den.bit_length())
        yield max(0.0, 1.0 - head / unit)


class MonteCarloEstimate(NamedTuple):
    estimate: float
    stderr: float


def region_counts(
    params: FeasibilityParams, region: RegionKind, trials: int, seed: int
) -> np.ndarray:
    """Points that land in the region, per trial of a simulated field.

    Each trial scatters a homogeneous planar Poisson process over a bounding
    box and counts the points that land inside the disk (or quarter disk).
    The region count therefore arises from geometric thinning of uniformly
    placed points, never from the analytic pmf, which keeps the Monte Carlo
    estimates an independent check on the closed forms.  ``params.k`` is not
    used.

    The draws and counts equal the one-shot draw's: the box counts, then every
    point's x, then every point's y, all from one generator seeded with
    ``seed``.  They are taken in blocks of ``_BLOCK_POINTS`` points into reused
    buffers, and hits are tallied at trial ends, not per point, so memory
    holds a few values per trial plus one block.  The call touches no state
    outside its own arrays and generators, and numpy releases the GIL while it
    draws, so draws on different threads run at once.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    r = params.tx_range
    low, high = (-r, r) if region is RegionKind.FULL_CIRCLE else (0.0, r)
    box_area = (high - low) ** 2
    ends = rng.poisson(params.density * box_area, size=trials)
    np.cumsum(ends, out=ends)
    total = int(ends[-1])
    # Each uniform double takes exactly one 64-bit output, so a copy of the
    # stream advanced past all the xs yields the ys.
    y_bits = np.random.PCG64()
    y_bits.state = rng.bit_generator.state
    y_rng = np.random.Generator(y_bits.advance(total))
    counts = np.zeros(trials, dtype=np.int64)
    carry = 0  # region points drawn since the last trial end
    first = int(np.searchsorted(ends, 0, side="right"))  # first trial not yet ended
    # Blocks reuse their buffers; rng.uniform(low, high) is low + (high - low) * U.
    size = min(_BLOCK_POINTS, total)
    xs_buf, ys_buf, inside_buf = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for start in range(0, total, _BLOCK_POINTS):
        n = min(_BLOCK_POINTS, total - start)
        xs, ys, inside = xs_buf[:n], ys_buf[:n], inside_buf[:n]
        for coords, gen in ((xs, rng), (ys, y_rng)):
            gen.random(out=coords)
            coords *= high - low
            coords += low
            coords *= coords
        xs += ys
        np.less_equal(xs, r * r, out=inside)
        last = first + int(np.searchsorted(ends[first:], start + n, side="right"))
        if last == first:
            carry += np.count_nonzero(inside)
        else:
            # The first trial at each distinct end takes the hits since the end
            # before; reduceat would give a[i], not 0, at a repeated index.
            local = ends[first:last] - start
            new_end = np.concatenate(([True], local[1:] != local[:-1]))
            bounds = local[new_end]
            starts = np.concatenate(([0], bounds[:-1]))
            sums = np.add.reduceat(inside.view(np.uint8)[: bounds[-1]], starts)
            counts[first:last][new_end] = sums
            counts[first] += carry
            carry = np.count_nonzero(inside[bounds[-1] :])
        first = last
    return counts


def _estimate(hits: int, trials: int) -> MonteCarloEstimate:
    """Hit fraction and its binomial standard error."""
    estimate = float(hits) / trials
    return MonteCarloEstimate(estimate, math.sqrt(estimate * (1.0 - estimate) / trials))


def monte_carlo_at_least_k(
    params: FeasibilityParams, region: RegionKind, trials: int, seed: int
) -> MonteCarloEstimate:
    """Estimate P(at least k candidates in the region) from a simulated field.

    The share of ``region_counts`` trials holding at least ``params.k``
    points, with its binomial standard error.
    """
    hits = np.count_nonzero(region_counts(params, region, trials, seed) >= params.k)
    return _estimate(hits, trials)


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
        for d in self.densities:
            # Past these bounds the mean is inf, nan, 0 or a quarter (full / 4) short of the
            # normal doubles' digits, and no tail of it would be right.
            full = mean_node_count(FeasibilityParams(d, self.tx_range), RegionKind.FULL_CIRCLE)
            if not 2.0**-1020 <= full < math.inf:
                raise ValueError(
                    "densities * pi * tx_range**2 must be finite and at least 2**-1020 (so that "
                    f"a quarter of it is a normal double), got {full!r} at density {d!r}"
                )
        max_k = MAX_ANALYZE_ROWS // (2 * len(self.densities))
        if not 1 <= self.k_max <= max_k:
            raise ValueError(f"k_max must be in [1, {max_k}], got {self.k_max!r}")
        if self.mc_trials is not None:
            if self.mc_trials < 1:
                raise ValueError(f"mc_trials must be >= 1, got {self.mc_trials!r}")
            max_trials = int(MAX_DRAW_POINTS / (1.0 + box_points))
            if self.mc_trials > max_trials:
                raise ValueError(
                    f"mc_trials must be <= {max_trials} with {box_points:.6g} points per trial, "
                    f"got {self.mc_trials!r}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_all(work, items, workers: int) -> None:
    """Call ``work(item)`` for every item, on the calling thread and
    ``workers - 1`` helper threads, all pulling from one shared iterator.

    Once a call raises, no worker takes a new item; the first exception raised
    is re-raised here, after every helper has joined.
    """
    pending = iter(items)
    lock = threading.Lock()
    errors = []

    def pull() -> None:
        while not errors:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            try:
                work(item)
            except BaseException as exc:  # re-raised by the caller below
                errors.append(exc)

    helpers = [threading.Thread(target=pull) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        pull()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def analyze_csv(config: AnalyzeConfig) -> str:
    """Curve table for both region kinds as CSV text.

    Probabilities are printed at 10 significant digits; rows are ordered by
    density ascending, then region, then k ascending, so the output is a
    deterministic function of the configuration.  With ``mc_trials`` set, each
    row gains a Monte Carlo estimate and its standard error.  Every k of one
    (density, region) is read from the same ``region_counts`` draw, seeded
    from ``seed`` once per (density, region).

    The draws are independent, so they run on one worker per usable CPU (at
    most one per curve): the calling thread and helper threads, taking the
    curves with the most expected box points first.  A worker keeps only its
    curve's ``k_max + 1`` tallies; the rows are formatted on the calling thread
    once every worker is done, so the bytes do not depend on the schedule.
    """
    config.validate()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    with_mc = config.mc_trials is not None
    header = ["density", "k", "region", "probability"]
    if with_mc:
        header += ["mc_estimate", "mc_stderr"]
    writer.writerow(header)
    curves = [(FeasibilityParams(density, config.tx_range), region)
              for density in sorted(config.densities) for region in RegionKind]
    means = [mean_node_count(params, region) for params, region in curves]
    at_least = [None] * len(curves)  # at_least[i][k]: the trials of curve i holding >= k points
    if with_mc:
        mc_seeds = np.random.SeedSequence(config.seed).generate_state(len(curves))

        def draw(i: int) -> None:
            params, region = curves[i]
            counts = region_counts(params, region, config.mc_trials, int(mc_seeds[i]))
            tally = np.bincount(counts, minlength=config.k_max + 1)
            at_least[i] = np.cumsum(tally[::-1])[::-1][: config.k_max + 1]

        # The box holds the region at a fixed 4 / pi of its area, so the mean
        # orders the curves by expected box points, the work of a draw.
        largest_first = sorted(range(len(curves)), key=means.__getitem__, reverse=True)
        _run_all(draw, largest_first, min(len(curves), _usable_cpus()))
    for (params, region), mean, tallies in zip(curves, means, at_least):
        for k, prob in enumerate(_at_least_column(mean, config.k_max), start=1):
            row = [f"{params.density:.10g}", str(k), region.value, f"{prob:.10g}"]
            if with_mc:
                est = _estimate(tallies[k], config.mc_trials)
                row += [f"{est.estimate:.10g}", f"{est.stderr:.10g}"]
            writer.writerow(row)
    return buf.getvalue()
