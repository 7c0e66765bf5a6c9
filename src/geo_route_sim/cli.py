"""Command-line front end: flat key=value configs and deterministic CSV output.

Grammar::

    geo-route-sim <analyze|simulate|compare> [--config PATH] [--out PATH]
                  [--seed N] [--mc-trials N] [--sweep key=lo:hi:steps]
                  [key=value ...]

Bare ``key=value`` arguments override config-file entries; they may appear
anywhere on the command line.

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

import argparse
import csv
import io
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .feasibility import AnalyzeConfig, analyze_csv
from .netsim import METRICS_HEADER, SimConfig, metrics_row, run_campaign
from .routing import PROTOCOLS


class ConfigError(ValueError):
    """Malformed configuration text, override, or value."""


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


_SIM_PARSERS = {
    "field_width": float,
    "field_height": float,
    "density": float,
    "node_count": int,
    "tx_range": float,
    "speed_min": float,
    "speed_max": float,
    "beacon_interval": float,
    "duration": float,
    "time_step": float,
    "protocol": str,
    "flows": int,
    "seed": int,
    "ttl": int,
    "per_hop_latency_ms": float,
}

_ANALYZE_PARSERS = {
    "densities": _float_list,
    "tx_range": float,
    "k_max": int,
    "mc_trials": int,
    "seed": int,
}


def _parse_pairs(text: str) -> list[tuple[str, str, Optional[int]]]:
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip(), line_no))
    return pairs


def parse_config(text: str, command: str, overrides: Sequence[tuple[str, str]] = ()):
    """Parse key=value config text (plus overrides) into a typed configuration.

    Every key is optional and falls back to the dataclass default; unknown
    keys and unparseable or invariant-violating values raise
    :class:`ConfigError` naming the offending line or override.
    """
    parsers = _ANALYZE_PARSERS if command == "analyze" else _SIM_PARSERS
    entries = _parse_pairs(text) + [(k, v, None) for k, v in overrides]
    values = {}
    for key, raw, line_no in entries:
        where = f"line {line_no}" if line_no is not None else f"override {key!r}"
        if key not in parsers:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            values[key] = parsers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None
    return _validated(AnalyzeConfig(**values) if command == "analyze" else SimConfig(**values))


def _validated(config):
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


def format_config(config) -> str:
    """Render a configuration back to key=value text; reparsing yields an
    equal configuration."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    key, sep, rest = spec.partition("=")
    key = key.strip()
    try:
        lo_text, hi_text, steps_text = rest.split(":")
        lo, hi, steps = float(lo_text), float(hi_text), int(steps_text)
    except ValueError:
        raise ConfigError(f"bad sweep {spec!r}: expected key=lo:hi:steps") from None
    if not sep or not key:
        raise ConfigError(f"bad sweep {spec!r}: expected key=lo:hi:steps")
    if _SIM_PARSERS.get(key) is not float:
        raise ConfigError(f"sweep key {key!r} is not a numeric simulation parameter")
    if steps < 1:
        raise ConfigError(f"sweep steps must be >= 1, got {steps}")
    if steps == 1:
        return key, [lo]
    return key, [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _split_override(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"bad override {text!r}: expected key=value")
    return key.strip(), value.strip()


def _campaign_csv(
    config: SimConfig,
    sweep: Optional[tuple[str, list[float]]],
    protocols: Optional[Sequence[str]],
) -> str:
    cells = [config]
    if sweep is not None:
        key, values = sweep
        cells = [_validated(replace(config, **{key: value})) for value in values]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_HEADER)
    for cell in cells:
        for protocol in protocols or (cell.protocol,):
            run_config = replace(cell, protocol=protocol)
            writer.writerow(metrics_row(run_config, run_campaign(run_config)))
    return buf.getvalue()


def cmd_compare(config: SimConfig, sweep=None) -> str:
    """Metrics CSV with the identical seeded campaign run once per protocol.

    Placement and flow streams depend only on the seed, never the protocol,
    so all three rows of a cell share node positions and flow schedules.
    """
    return _campaign_csv(config, sweep, PROTOCOLS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geo-route-sim",
        description="Position-based VANET routing simulator and feasibility tables.",
    )
    parser.add_argument("command", choices=["analyze", "simulate", "compare"])
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument(
        "--mc-trials",
        type=int,
        dest="mc_trials",
        help="analyze only: add Monte Carlo estimate columns with this many trials",
    )
    parser.add_argument(
        "--sweep",
        metavar="key=lo:hi:steps",
        help="simulate/compare only: run one cell per linearly spaced value",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        for item in extras:
            if item.startswith("-"):
                raise ConfigError(f"unrecognized argument {item!r}")
        text = ""
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        overrides = [_split_override(item) for item in extras]
        config = parse_config(text, args.command, overrides)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.mc_trials is not None:
            if args.command != "analyze":
                raise ConfigError("--mc-trials is only valid for the analyze command")
            config = replace(config, mc_trials=args.mc_trials)
        sweep = None
        if args.sweep is not None:
            if args.command == "analyze":
                raise ConfigError("--sweep is only valid for simulate/compare")
            sweep = _parse_sweep(args.sweep)
        _validated(config)

        if args.command == "analyze":
            output = analyze_csv(config)
        elif args.command == "simulate":
            output = _campaign_csv(config, sweep, None)
        else:
            output = cmd_compare(config, sweep)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.out:
            Path(args.out).write_text(output)
        else:
            sys.stdout.write(output)
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
