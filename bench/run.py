"""Benchmark of the geo-route-sim CLI: fixed batch workloads, run end to end.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each CLI run starts in a fresh interpreter
(``bench/child.py``) after the previous one has ended, so no cache or warm
state carries from run to run and peak RSS is per run.  Run ``i`` gets the
seed ``1000 * SEED + i``, and runs go on until ``--seconds`` are used up; the
program sees only the generated CLI arguments.  Every run's CSV is checked
(``bench/checks.py``) and its sha256 compared with earlier runs of the same
code and arguments; a run fails if it exits nonzero, fails the check, or its
digest differs.  An untraced invocation ends by running its first seed again,
so output that is not deterministic fails within one invocation.

With ``--trace 0`` the last line of output reports the end-to-end metrics as
medians over runs: ``wall_rel`` (``cli.main``'s time over a reference loop's),
``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` runs come in untraced/traced pairs on
the same seed, and it reports the per-layer metrics of the traced runs
(``bench/tracer.py``) and the tracing overhead.  Lines before it give every
metric with its unit, quartiles and sample count, the CSV digests and the
non-blank line count of ``src/``; the same goes to ``bench/out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

sys.path.insert(0, BENCH)
from checks import check_analyze, check_campaign  # noqa: E402

FIELD = ["field_width=2000", "field_height=2000"]
PROTOCOLS = ("dir", "lar", "dlar")

# Each workload takes about 2 s per run on a 2-vCPU machine, so one 30 s
# invocation holds about a dozen runs to take the median of.  Node counts are
# pinned at the Poisson mean (density x 4 km^2) so that the cost of a run does
# not swing with the Poisson draw of its seed.
WORKLOADS = {
    "analyze-mc": ["analyze", "--mc-trials", "30000"],
    "compare-sparse": ["compare", *FIELD, "density=0.0002", "node_count=800", "flows=60"],
    "greedy-dense": ["simulate", *FIELD, "density=0.002", "node_count=8000",
                     "protocol=dlar", "flows=50", "duration=7.5"],
    "mobility-long": ["simulate", *FIELD, "density=0.001", "node_count=4000",
                      "protocol=dir", "duration=60", "flows=6"],
}

MAX_RUNS = 1000  # distinct seeds per --seed
TIME_LIMIT_S = 170.0  # the whole benchmark invocation stays under this


def _params(args):
    return dict(a.split("=", 1) for a in args if "=" in a and not a.startswith("-"))


def _analyze_grid(args):
    """(densities, k_max, trials) of an ``analyze`` run, with the CLI defaults."""
    params = _params(args)
    densities = [float(d) for d in params.get("densities", "0.0002,0.0004").split(",")]
    return densities, int(params.get("k_max", 10)), int(args[args.index("--mc-trials") + 1])


def check_output(args, text, seed):
    if args[0] == "analyze":
        return check_analyze(text, *_analyze_grid(args))
    protocols = PROTOCOLS if args[0] == "compare" else (_params(args)["protocol"],)
    return check_campaign(text, protocols, _params(args), seed)


def work_items(args):
    """(count, name) of the work one run does: Monte Carlo trials x rows, or flows."""
    if args[0] == "analyze":
        densities, k_max, trials = _analyze_grid(args)
        return trials * len(densities) * 2 * k_max, "mc_trials_per_s"
    rows = len(PROTOCOLS) if args[0] == "compare" else 1
    return int(_params(args)["flows"]) * rows, "flows_per_s"


def source_state():
    """(sha256 of the package sources, non-blank line count of src/)."""
    digest = hashlib.sha256()
    lines = 0
    for base, _, files in sorted(os.walk(SRC)):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(base, fname)
            with open(path, "rb") as f:
                data = f.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            lines += sum(1 for line in data.splitlines() if line.strip())
    return digest.hexdigest(), lines


def run_child(started, *child_args):
    """Run child.py to completion; its result dict, or None on failure."""
    result_path = os.path.join(OUT, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    budget = TIME_LIMIT_S - (time.monotonic() - started)
    if budget <= 0:
        return None
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), SRC, result_path, *child_args],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        print("child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    with open(result_path) as f:
        return json.load(f)


def cli_run(started, args, seed, traced):
    """One CLI run: (result or None, csv text or None)."""
    csv_path = os.path.join(OUT, "run.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    paths = [csv_path]
    if traced:
        paths.append(os.path.join(OUT, "spans.jsonl"))
    result = run_child(started, *paths, "--", *args, "--seed", str(seed))
    if result is None or result.get("exit") != 0 or not os.path.exists(csv_path):
        return result, None
    with open(csv_path) as f:
        return result, f.read()


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name, values, unit):
    q1, med, q3 = quartiles(values)
    return f"  {name:<44} {med:>14.6g} {unit:<6} [q1 {q1:.6g}, q3 {q3:.6g}] n={len(values)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "geo_route_sim", "cli.py")):
        print(f"error: no geo_route_sim package under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    args = WORKLOADS[opts.workload]
    src_hash, src_lines = source_state()

    ledger_path = os.path.join(OUT, "digests.json")
    ledger = {}
    if os.path.exists(ledger_path):
        with open(ledger_path) as f:
            ledger = json.load(f)

    untraced, traced, setup, problems, digests = [], [], [], [], {}
    attempted = failed = 0

    def record(result, text, seed):
        """Check one run; True when it passed."""
        nonlocal attempted, failed
        attempted += 1
        if result is not None:
            setup.append(result["setup_s"])
        if text is None:
            faults = [f"exit {None if result is None else result.get('exit')}"]
        else:
            faults = check_output(args, text, seed)
            digest = hashlib.sha256(text.encode()).hexdigest()
            key = f"{src_hash} {' '.join(args)} --seed {seed}"
            if ledger.setdefault(key, digest) != digest:
                faults.append(f"csv sha256 {digest} differs from an earlier run's {ledger[key]}")
            digests.setdefault(seed, digest)
        if faults:
            failed += 1
            problems.extend(f"seed {seed}: {p}" for p in faults)
        return not faults

    deadline = time.monotonic() + opts.seconds
    # An untraced invocation keeps room to repeat its first seed at the end.
    reserve = 1 if opts.trace else 2
    durations = []
    for i in range(MAX_RUNS):
        expected = statistics.median(durations) if durations else 0.0
        if i and time.monotonic() + reserve * expected > deadline:
            break
        if time.monotonic() - started > TIME_LIMIT_S - (reserve + 1) * expected:
            break
        t0 = time.monotonic()
        seed = opts.seed * MAX_RUNS + i
        result, text = cli_run(started, args, seed, traced=False)
        if result is not None and "import_error" in result:
            print(f"error: importing geo_route_sim.cli failed: {result['import_error']}",
                  file=sys.stderr)
            return 2
        if record(result, text, seed):
            untraced.append(result)
        if opts.trace:
            result, text = cli_run(started, args, seed, traced=True)
            if record(result, text, seed):
                traced.append(result)
        durations.append(time.monotonic() - t0)
    if not opts.trace and durations:
        seed = opts.seed * MAX_RUNS
        result, text = cli_run(started, args, seed, traced=False)
        if record(result, text, seed):
            untraced.append(result)

    with open(ledger_path + ".tmp", "w") as f:
        json.dump(ledger, f)
    os.replace(ledger_path + ".tmp", ledger_path)

    items, throughput_name = work_items(args)
    walls = [r["wall_s"] for r in untraced]
    samples = {
        "wall_s": (walls, "s"),
        # cli.main's time in units of the reference loop timed in the same
        # process (bench/child.py): the gated time, since it cancels the drift
        # of a shared host's speed that wall_s carries.
        "wall_rel": ([r["wall_s"] / r["ref_s"] for r in untraced], "ref"),
        # The first import after a checkout compiles the package, which users
        # pay once: the first run's import is a warm-up.
        "setup_s": (setup[1:] or setup, "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], "MB"),
        throughput_name: ([items / w for w in walls], "1/s"),
    }
    report = {"workload": opts.workload, "seed": opts.seed, "args": args,
              "seconds": opts.seconds, "trace": opts.trace, "attempted": attempted,
              "failed": failed, "failed_share": failed / attempted if attempted else 1.0,
              "problems": problems, "src_sha256": src_hash, "src_nonblank_lines": src_lines,
              "csv_sha256": {str(s): d for s, d in sorted(digests.items())},
              "samples": {k: v for k, (v, _) in samples.items()}}

    first = opts.seed * MAX_RUNS
    repeat = "" if opts.trace else f", then {first} again"
    print(f"workload {opts.workload}: {' '.join(args)} --seed {first}..{first + len(durations) - 1}{repeat}")
    print("end-to-end, untraced, medians over runs:")
    for name, (values, unit) in samples.items():
        if values:
            print(describe(name, values, unit))
    print(f"  {'failed_share':<44} {report['failed_share']:>14.6g} ratio  ({failed} of {attempted} runs)")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    for s, d in sorted(digests.items()):
        print(f"  csv sha256 seed {s}: {d}")
    print(f"  src/ non-blank lines: {src_lines}")

    metrics = {}
    if not opts.trace:
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for name, (values, unit) in samples.items()
                   if name in ("wall_rel", "setup_s", "peak_rss_mb") and values}
    elif traced and walls:
        layer_values = {}
        for r in traced:
            for name, (value, unit) in r["layers"].items():
                layer_values.setdefault(name, ([], unit))[0].append(value)
        overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(walls)
        layer_values["trace.overhead"] = ([overhead], "ratio")
        absent = sorted({a for r in traced for a in r["absent"]})
        print(f"per-layer, traced, medians over {len(traced)} traced runs:")
        for name, (values, unit) in layer_values.items():
            print(describe(name, values, unit))
        if absent:
            print(f"  absent from the package, metrics left out: {', '.join(absent)}")
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for name, (values, unit) in layer_values.items()}
        report["absent"] = absent
    report["metrics"] = metrics

    with open(os.path.join(OUT, f"report-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
