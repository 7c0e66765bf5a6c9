"""Command-line front end: flat key=value configs and deterministic CSV output.

The grammar is :data:`USAGE`, which ``-h``/``--help`` prints and README's CLI
section shows.  Tokens may come in any order: the first bare token is the
command, and every later one is a ``key=value`` override of a config-file
entry.  A flag takes its value from the next token or after ``=``
(``--seed=7``), and a repeated flag keeps its last value.  ``--seed N`` and
``--mc-trials N`` set the ``seed`` and ``mc_trials`` keys and win over both.
Under ``--sweep`` the base config takes the first swept value, and every cell
is validated.

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .feasibility import AnalyzeConfig, analyze_csv
from .netsim import METRICS_HEADER, SimConfig, metrics_row, run_campaign
from .routing import PROTOCOLS

USAGE = """\
geo-route-sim <analyze|simulate|compare> [--config PATH] [--out PATH]
              [--seed N] [--mc-trials N] [--sweep key=lo:hi:steps]
              [key=value ...]
"""
COMMANDS = ("analyze", "simulate", "compare")
FLAGS = ("--config", "--out", "--seed", "--mc-trials", "--sweep")

# Most values one --sweep may expand to.
MAX_SWEEP_STEPS = 1_000


class ConfigError(ValueError):
    """Malformed configuration text, override, or value."""


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


def _parsers(config_type) -> dict:
    """Value parser per config key, from the dataclass field types."""
    special = {Optional[int]: int, tuple[float, ...]: _float_list}
    return {f.name: special.get(f.type, f.type) for f in fields(config_type)}


_SIM_PARSERS = _parsers(SimConfig)
_ANALYZE_PARSERS = _parsers(AnalyzeConfig)


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
        raise ConfigError(f"sweep key {key!r} is not a float-valued simulation parameter")
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"sweep steps must be in [1, {MAX_SWEEP_STEPS}], got {steps}")
    from decimal import Decimal  # here, so that only sweeps pay its import (~0.4 MB)

    # Cells are exact in decimal and rounded once, so a typed grid prints as typed.
    lo_dec, hi_dec = Decimal(repr(lo)), Decimal(repr(hi))
    if not (lo_dec.is_finite() and hi_dec.is_finite()):
        raise ConfigError(f"sweep {key} bounds must be finite, got {lo!r}:{hi!r}")
    return key, [float(lo_dec + (hi_dec - lo_dec) * i / max(steps - 1, 1)) for i in range(steps)]


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
    """Metrics CSV, one row per sweep cell and protocol (default: the cell's).

    Each cell is one campaign walk, routed under every protocol: the rows of
    a cell share placement, mobility, beacon views and flow endpoints."""
    cells = [config]
    if sweep is not None:
        key, values = sweep
        cells = [_validated(replace(config, **{key: value})) for value in values]
    rows = [METRICS_HEADER]
    for cell in cells:
        cell_protocols = protocols or (cell.protocol,)
        for protocol, metrics in zip(cell_protocols, run_campaign(cell, cell_protocols)):
            rows.append(metrics_row(replace(cell, protocol=protocol), metrics))
    return "".join(",".join(row) + "\n" for row in rows)


def _parse_args(argv: Sequence[str]) -> tuple[str, dict[str, str], list[str]]:
    """(command, {flag: its last value}, the bare tokens after the command)."""
    flags, bare = {}, []
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag in FLAGS:
            value = value if eq else next(tokens, None)
            if value is None:
                raise ConfigError(f"{flag} expects a value")
            flags[flag] = value
        elif token.startswith("-"):
            raise ConfigError(f"unrecognized argument {token!r}")
        else:
            bare.append(token)
    command = bare[0] if bare else None
    if command not in COMMANDS:
        raise ConfigError(f"expected a command ({'|'.join(COMMANDS)}), got {command!r}")
    return command, flags, bare[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        command, flags, bare = _parse_args(argv)
        text = ""
        if "--config" in flags:
            try:
                text = Path(flags["--config"]).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {flags['--config']!r}: {exc}") from None
        overrides = [_split_override(item) for item in bare]
        if "--seed" in flags:
            overrides.append(("seed", flags["--seed"]))
        if "--mc-trials" in flags:
            if command != "analyze":
                raise ConfigError("--mc-trials is only valid for the analyze command")
            overrides.append(("mc_trials", flags["--mc-trials"]))
        sweep = None
        if "--sweep" in flags:
            if command == "analyze":
                raise ConfigError("--sweep is only valid for simulate/compare")
            sweep = _parse_sweep(flags["--sweep"])
            overrides.append((sweep[0], repr(sweep[1][0])))
        config = parse_config(text, command, overrides)

        if command == "analyze":
            output = analyze_csv(config)
        else:
            protocols = PROTOCOLS if command == "compare" else None
            output = _campaign_csv(config, sweep, protocols)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    try:
        if flags.get("--out"):
            Path(flags["--out"]).write_text(output)
        else:
            sys.stdout.write(output)
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
