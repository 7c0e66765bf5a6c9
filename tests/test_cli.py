import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from geo_route_sim.cli import (
    MAX_SWEEP_STEPS,
    USAGE,
    ConfigError,
    _campaign_csv,
    _parse_sweep,
    main,
    parse_config,
)
from geo_route_sim.feasibility import MAX_ANALYZE_ROWS, AnalyzeConfig
from geo_route_sim.netsim import MAX_FLOWS, SimConfig, generate_nodes
from geo_route_sim.routing import PROTOCOLS
from oracles import snapshot_digest

ADJACENT_PAIR = [
    "field_width=100",
    "field_height=100",
    "node_count=2",
    "tx_range=250",
    "flows=6",
    "duration=1",
    "time_step=0.5",
]

# A compare sweep whose base density, the default, would put 2,000,000
# vehicles on the field; every cell replaces it with at most 3,000.
WIDE_SWEEP = ["compare", "field_width=100000", "field_height=100000", "flows=4",
              "--sweep", "density=0.0000001:0.0000003:3"]


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("", "simulate") == SimConfig()
        assert parse_config("", "analyze") == AnalyzeConfig()

    def test_overridden_fields(self):
        config = parse_config("density = 0.0002\nprotocol = dlar\n", "simulate")
        assert config.density == 0.0002
        assert config.protocol == "dlar"
        assert config.tx_range == SimConfig().tx_range

    def test_comments_and_blank_lines(self):
        text = "# campaign setup\n\nflows = 3  # small run\n"
        assert parse_config(text, "simulate").flows == 3

    def test_validation_error_names_the_key(self):
        with pytest.raises(ConfigError, match="tx_range"):
            parse_config("tx_range = -5\n", "simulate")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("flows = 1\nbogus = 3\n", "simulate")

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n", "simulate")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="flows"):
            parse_config("flows = many\n", "simulate")

    def test_densities_list(self):
        config = parse_config("densities = 0.0001, 0.0003\n", "analyze")
        assert config.densities == (0.0001, 0.0003)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_default_grid_is_forty_rows(self, capsys):
        code, out, _ = run_cli(capsys, "analyze")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "density,k,region,probability"
        assert len(lines) == 41

    def test_mc_trials_adds_columns(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--mc-trials", "500", "k_max=2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "density,k,region,probability,mc_estimate,mc_stderr"

    def test_single_k_table(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "k_max=1")
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2

    def test_seed_flag_changes_mc_columns_only(self, capsys):
        _, a, _ = run_cli(capsys, "analyze", "--mc-trials", "200", "--seed", "1", "k_max=1")
        _, b, _ = run_cli(capsys, "analyze", "--mc-trials", "200", "--seed", "2", "k_max=1")
        for row_a, row_b in zip(a.splitlines()[1:], b.splitlines()[1:]):
            assert row_a.split(",")[:4] == row_b.split(",")[:4]

    def test_deep_tail_rows_are_exact(self, capsys):
        # 1 - head cancels in these rows; the expected values are mpmath's.
        code, out, _ = run_cli(capsys, "analyze", "densities=1e-5", "k_max=15")
        assert code == 0
        assert [l for l in out.splitlines() if ",quarter_circle," in l][-3:] == [
            "1e-05,13,quarter_circle,9.786050719e-15",
            "1e-05,14,quarter_circle,3.422989821e-16",
            "1e-05,15,quarter_circle,1.117821113e-17",
        ]

    @pytest.mark.parametrize("trials", ["10000000000", "1" + "0" * 400], ids=["1e10", "1e400"])
    def test_mc_trials_above_the_draw_bound_is_a_config_error(self, capsys, trials):
        # Rejected by validation before any draw; 1e400 does not fit a float.
        code, _, err = run_cli(capsys, "analyze", "--mc-trials", trials)
        assert code == 1
        assert "mc_trials" in err

    def test_a_box_of_millions_of_points_runs_with_few_trials(self, capsys):
        # 4,000,000 expected points per trial box leave room for int(5e7 / (1 + 4e6)) = 12
        # trials in one draw.
        argv = ["analyze", "densities=1", "tx_range=1000", "k_max=3"]
        code, out, err = run_cli(capsys, *argv, "--mc-trials", "2")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "density,k,region,probability,mc_estimate,mc_stderr"
        assert len(lines) == 1 + 6 and all(len(line.split(",")) == 6 for line in lines)
        config = AnalyzeConfig(densities=(1.0,), tx_range=1000.0, k_max=3, mc_trials=12)
        config.validate()
        config.mc_trials = 13
        with pytest.raises(ValueError, match="mc_trials"):
            config.validate()

    # The largest tx_range whose square is finite; tx_range**2 overflows one double up.
    SQUARE_BOUND = 1.3407807929942596e154

    @pytest.mark.parametrize("tx_range", ["1e154", repr(SQUARE_BOUND)])
    def test_a_finite_square_runs_without_mc_trials(self, capsys, tx_range):
        # The means (6.3e304 at the first density) are finite, so every tail is 1;
        # only the Monte Carlo box, (2 * tx_range)**2 points, is out of reach.
        assert float(tx_range) ** 2 < math.inf
        code, out, err = run_cli(capsys, "analyze", f"tx_range={tx_range}")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 40 and {row[-1] for row in rows} == {"1"}
        code, out, err = run_cli(capsys, "analyze", f"tx_range={tx_range}", "--mc-trials", "10")
        assert (code, out) == (1, "")
        assert "densities * (2 * tx_range)**2" in err

    @pytest.mark.parametrize("tx_range", ["1e155", repr(math.nextafter(SQUARE_BOUND, math.inf))])
    def test_an_overflowing_square_names_tx_range(self, capsys, tx_range):
        with pytest.raises(OverflowError):
            float(tx_range) ** 2
        code, out, err = run_cli(capsys, "analyze", f"tx_range={tx_range}")
        assert (code, out) == (1, "")
        assert "tx_range" in err


class TestSimulateCommand:
    def test_adjacent_pair_delivers_everything(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *ADJACENT_PAIR)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "dlar"
        assert row[6] == "1.000000"

    def test_repeated_seed_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["simulate", "--seed", "21", "flows=10", "duration=2", "--out"]
        assert main(args + [str(out_a)]) == 0
        assert main(args + [str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_density_sweep_rows_ascend(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--sweep", "density=1e-5:1e-4:5", "flows=4", "duration=1"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        densities = [float(line.split(",")[1]) for line in lines[1:]]
        assert densities == sorted(densities)
        assert densities[0] == pytest.approx(1e-5, abs=5e-7)
        assert densities[-1] == pytest.approx(1e-4, abs=5e-7)

    def test_sweep_cells_sit_on_the_typed_decimal_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--sweep", "density=1e-5:1e-4:5", "flows=4", "duration=1"
        )
        assert code == 0
        densities = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert densities == ["0.000010", "3.25e-05", "0.000055", "7.75e-05", "0.000100"]
        assert _parse_sweep("density=0.0001:0.0003:3")[1] == [0.0001, 0.0002, 0.0003]
        assert _parse_sweep("tx_range=1e-300:1:3")[1] == [1e-300, 0.5, 1.0]

    @pytest.mark.parametrize(
        "spec",
        ["density=1e-5:inf:3", "density=inf:inf:2", "density=-inf:1e-4:1", "density=nan:1:2"],
    )
    def test_non_finite_sweep_bounds_name_the_key(self, capsys, spec):
        code, _, err = run_cli(capsys, "simulate", "--sweep", spec)
        assert code == 1
        assert "density" in err

    def test_key_columns_name_values_six_decimals_lose(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "tx_range=0.0000004", "flows=2")
        assert code == 0
        assert out.splitlines()[1].split(",")[1:3] == ["0.000200", "4e-07"]

    def test_config_file_plus_override(self, capsys, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("flows = 4\nduration = 1\nnode_count = 2\n"
                               "field_width = 100\nfield_height = 100\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config_path), "protocol=dir")
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "dir"


class TestCompareCommand:
    def test_three_rows_per_cell(self, capsys):
        code, out, _ = run_cli(capsys, "compare", *ADJACENT_PAIR)
        lines = out.splitlines()
        assert code == 0
        assert [line.split(",")[0] for line in lines[1:]] == ["dir", "lar", "dlar"]

    def test_adjacent_pair_all_protocols_deliver(self, capsys):
        code, out, _ = run_cli(capsys, "compare", *ADJACENT_PAIR)
        for line in out.splitlines()[1:]:
            assert line.split(",")[6] == "1.000000"

    def test_sweep_yields_three_rows_per_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--sweep", "density=5e-5:1e-4:2", "flows=3", "duration=1"
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 2

    def test_identical_placements_across_protocols(self):
        from dataclasses import replace

        config = SimConfig(flows=3, duration=1.0, seed=17)
        digests = {
            snapshot_digest(generate_nodes(replace(config, protocol=p)))
            for p in ("dir", "lar", "dlar")
        }
        assert len(digests) == 1
        # and the compare output is reproducible end to end
        assert _campaign_csv(config, None, PROTOCOLS) == _campaign_csv(config, None, PROTOCOLS)


class TestExitCodes:
    def test_success(self, capsys):
        assert run_cli(capsys, "analyze", "k_max=1")[0] == 0

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate", "tx_range=-5"], "tx_range"),
            (["analyze", "densities=,"], "densities"),
            (["analyze", "densities=0"], "densities"),
            (["analyze", "densities=nan"], "densities"),
            (["analyze", "tx_range=inf"], "tx_range"),
            (["analyze", "k_max=0"], "k_max"),
            (["analyze", "seed=-1"], "seed"),
            (["analyze", "--mc-trials", "0"], "mc_trials"),
            (["simulate", "node_count=0"], "node_count"),
            (["simulate", "node_count=1.5"], "node_count"),
            (["simulate", "protocol=xyz"], "protocol"),
            (["simulate", "seed=-1"], "seed"),
            (["simulate", "ttl=0"], "ttl"),
            (["simulate", "ttl=1e400"], "ttl"),
            (["simulate", "flows=-1"], "flows"),
            (["simulate", "duration=1e300", "time_step=1e-10"], "duration / time_step"),
            (["simulate", "foo"], "bad override 'foo'"),
        ],
    )
    def test_bad_override(self, capsys, argv, key):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert key in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/nonexistent/x.cfg")
        assert code == 1

    def test_mc_trials_rejected_outside_analyze(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--mc-trials", "100")
        assert code == 1
        assert "analyze" in err

    def test_sweep_rejected_for_analyze(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--sweep", "density=1e-5:1e-4:3")
        assert code == 1

    def test_bad_sweep_spec(self, capsys):
        assert run_cli(capsys, "simulate", "--sweep", "density=1:2")[0] == 1
        assert run_cli(capsys, "simulate", "--sweep", "protocol=1:2:2")[0] == 1
        assert run_cli(capsys, "simulate", "--sweep", "density=0:1e-4:2")[0] == 1
        code, _, err = run_cli(capsys, "simulate", "--sweep", "=1:2:3")
        assert code == 1
        assert "bad sweep '=1:2:3'" in err

    def test_unwritable_output_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "k_max=1", "--out", "/nonexistent/dir/out.csv")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestFlagsAreKeys:
    def test_seed_flag_equals_seed_key(self, capsys):
        flag = run_cli(capsys, "simulate", "--seed", "7", "flows=5")
        key = run_cli(capsys, "simulate", "seed=7", "flows=5")
        assert flag[0] == key[0] == 0
        assert flag[1] == key[1]

    def test_mc_trials_flag_equals_mc_trials_key(self, capsys):
        flag = run_cli(capsys, "analyze", "--mc-trials", "50", "k_max=2")
        key = run_cli(capsys, "analyze", "mc_trials=50", "k_max=2")
        assert flag[0] == key[0] == 0
        assert flag[1] == key[1]

    def test_seed_flag_beats_file_and_bare_override(self, capsys, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("seed = 3\nflows = 5\n")
        for bare in ([], ["seed=5"]):
            code, out, _ = run_cli(
                capsys, "simulate", "--seed", "7", "--config", str(config_path), *bare
            )
            assert code == 0
            assert out == run_cli(capsys, "simulate", "seed=7", "flows=5")[1]

    def test_sweep_validates_cells_not_the_replaced_value(self, capsys):
        code, out, err = run_cli(capsys, *WIDE_SWEEP)
        assert code == 0, err
        assert len(out.splitlines()) == 1 + 9
        # Six decimals would print 0.000000 for every cell.
        densities = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert densities == ["1e-07"] * 3 + ["2e-07"] * 3 + ["3e-07"] * 3

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate", "--sweep", "density=1.5:2:2"], "density"),
            (["simulate", "--sweep", "density=1e-5:1e-4:2", "tx_range=-5"], "tx_range"),
            (["simulate", "--sweep", "tx_range=-5:100:2"], "tx_range"),
            (["simulate", "--sweep", "flows=10:50:5"], "'flows' is not a float-valued"),
        ],
    )
    def test_sweep_rejections_name_the_key(self, capsys, argv, key):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert key in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", "tx_range=inf"], "tx_range"),
        (["simulate", "field_width=inf"], "field_width"),
        (["simulate", "density=1e300"], "density"),
        (["simulate", "duration=1e12", "flows=3"], "duration"),
        (["simulate", "time_step=1e-7", "beacon_interval=1e-7", "flows=3"], "time_step"),
        (["simulate", "speed_max=1e308"], "speed_max"),
        (["analyze", "tx_range=inf"], "tx_range"),
        (["analyze", "tx_range=1e200"], "tx_range"),
        (["analyze", "densities=1e300", "--mc-trials", "10"], "densities"),
        (["simulate", "protocol=lar", "density=0.00001", "flows=3", "ttl=1000000000000"], "ttl"),
        (["analyze", "densities=1000", "tx_range=10", "k_max=4000"], "k_max"),
        (["simulate", "protocol=lar", "field_width=5477", "field_height=5477", "density=0.001",
          "flows=3"], "density"),
        (["simulate", "node_count=20", "flows=3", "duration=1e-320", "time_step=1e-320"],
         "time_step"),
        (["simulate", "field_width=1e308", "node_count=5", "flows=3"], "field_width"),
        (["simulate", "field_width=6e307", "field_height=6e307", "node_count=5", "flows=3"],
         "field_width"),
    ],
)
def test_extreme_configs_finish_or_name_the_key(capsys, argv, key):
    # Simulated time and magnitudes cost no work: each config either runs in
    # well under a second or is rejected as a config error naming its key.
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code in (0, 1)
    if code == 1:
        assert key in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", "flows=1000000000", "node_count=2"], "flows"),
        (["simulate", "--sweep", "density=0.0001:0.0002:1000000000"], "sweep steps"),
        (["analyze", "k_max=1000000000"], "k_max"),
        (["analyze", "k_max=1000000000", "--mc-trials", "10"], "k_max"),
    ],
)
def test_unbounded_work_is_a_config_error(capsys, argv, key):
    # Work that grows with a count, not a magnitude, is capped up front.
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert key in err


def test_work_caps_are_inclusive():
    SimConfig(flows=MAX_FLOWS).validate()
    with pytest.raises(ValueError, match="flows"):
        SimConfig(flows=MAX_FLOWS + 1).validate()
    assert len(_parse_sweep(f"density=1e-4:2e-4:{MAX_SWEEP_STEPS}")[1]) == MAX_SWEEP_STEPS
    with pytest.raises(ConfigError, match="sweep steps"):
        _parse_sweep(f"density=1e-4:2e-4:{MAX_SWEEP_STEPS + 1}")
    AnalyzeConfig(densities=(1e-4, 2e-4), k_max=MAX_ANALYZE_ROWS // 4).validate()
    with pytest.raises(ValueError, match="k_max"):
        AnalyzeConfig(densities=(1e-4, 2e-4), k_max=MAX_ANALYZE_ROWS // 4 + 1).validate()


LATENCY_OVERFLOW = ["per_hop_latency_ms=1e308", "node_count=400", "flows=5",
                    "field_width=2000", "field_height=2000"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", *LATENCY_OVERFLOW],
        ["compare", *LATENCY_OVERFLOW],
        ["simulate", "--sweep", "per_hop_latency_ms=1:1e308:3", "node_count=40", "flows=2"],
        ["simulate", "per_hop_latency_ms=1e300", "ttl=100000000000"],
        ["simulate", "per_hop_latency_ms=1e-300", "ttl=1" + "0" * 400],
    ],
)
def test_unbounded_delay_is_a_config_error(capsys, argv):
    # The mean delay is at most per_hop_latency_ms * ttl; a config whose bound
    # is not finite once printed mean_delay_ms as inf and exited 0.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "per_hop_latency_ms" in err


def test_delay_bound_is_inclusive(capsys):
    largest = sys.float_info.max
    SimConfig(per_hop_latency_ms=largest, ttl=1).validate()
    SimConfig(per_hop_latency_ms=largest / 64, ttl=64).validate()
    for ttl in (2, 10**400):
        with pytest.raises(ValueError, match="per_hop_latency_ms"):
            SimConfig(per_hop_latency_ms=largest, ttl=ttl).validate()
    code, out, _ = run_cli(capsys, "simulate", *ADJACENT_PAIR, f"per_hop_latency_ms={largest!r}",
                           "ttl=1")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert row["mean_hops"] == "1.000000"
    assert float(row["mean_delay_ms"]) == largest


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "densities=1e308", "tx_range=1e-300"],
        ["analyze", "densities=1e308", "tx_range=0.5"],
        ["analyze", "densities=1e307", "tx_range=1e-170"],
    ],
    ids=["nan-mean", "inf-mean", "underflowed-mean"],
)
def test_mean_out_of_range_is_a_config_error(capsys, argv):
    # density * pi * tx_range**2 overflows or underflows: once a runtime error
    # naming a nan or inf mean, or a printed 0 for a tail near 3.1e-33.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "densities" in err and "tx_range" in err


class TestParserContract:
    def test_flag_equals_value_is_flag_then_value(self, capsys):
        joined = run_cli(capsys, "simulate", "--seed=7", "flows=3", "--sweep=density=1e-4:2e-4:2")
        split = run_cli(capsys, "simulate", "--seed", "7", "flows=3", "--sweep", "density=1e-4:2e-4:2")
        assert joined[0] == split[0] == 0
        assert joined[1] == split[1]

    def test_repeated_flag_takes_its_last_value(self, capsys):
        twice = run_cli(capsys, "simulate", "--seed", "3", "flows=3", "--seed=7")
        once = run_cli(capsys, "simulate", "--seed", "7", "flows=3")
        assert twice[0] == once[0] == 0
        assert twice[1] == once[1]

    def test_flags_may_come_before_the_command(self, capsys):
        before = run_cli(capsys, "--mc-trials", "50", "--seed", "2", "analyze", "k_max=2")
        after = run_cli(capsys, "analyze", "k_max=2", "--mc-trials", "50", "--seed", "2")
        assert before[0] == after[0] == 0
        assert before[1] == after[1]

    @pytest.mark.parametrize("flag", ["--config", "--out", "--seed", "--mc-trials", "--sweep"])
    def test_flag_without_a_value_names_the_flag(self, capsys, flag):
        code, out, err = run_cli(capsys, "analyze", flag)
        assert code == 1
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("argv", [["--bogus"], ["--mc-t", "10"], ["--"], ["-x"]])
    def test_unknown_flags_and_abbreviations_name_the_token(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 1
        assert out == ""
        assert repr(argv[0]) in err

    @pytest.mark.parametrize("argv, key", [(["--seed", "abc"], "seed"),
                                           (["--mc-trials", "x"], "mc_trials")])
    def test_bad_flag_value_names_the_key(self, capsys, argv, key):
        code, _, err = run_cli(capsys, "analyze", *argv)
        assert code == 1
        assert f"bad value for {key!r}" in err

    @pytest.mark.parametrize("argv", [[], ["--seed", "3"], ["seed=7", "simulate"], ["Analyze"]])
    def test_missing_or_misplaced_command_exits_1(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 1

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_after_other_arguments_prints_the_usage(self, capsys, flag):
        code, out, err = run_cli(capsys, "simulate", "--seed", "3", "bogus", flag)
        assert code == 0
        assert out == USAGE
        assert err == ""

    def test_main_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["geo-route-sim", "analyze", "k_max=1"])
        code = main(None)
        out = capsys.readouterr().out
        expected = run_cli(capsys, "analyze", "k_max=1")
        assert code == expected[0] == 0
        assert out == expected[1]


STARTUP_PROBE = """
import sys
from geo_route_sim import cli
before = set(sys.modules)
code = cli.main(["simulate", "node_count=2", "flows=2", "duration=1", "--out", sys.argv[1]])
print(code, sorted({"argparse", "gettext"} & set(sys.modules)), "locale" in set(sys.modules) - before)
"""


def test_cli_loads_no_argparse_and_main_no_locale(tmp_path):
    # argparse, gettext and locale cost milliseconds of every CLI run's start.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "[]", "False"]


def test_module_entry_point_runs_main(capsys):
    # ``python -m geo_route_sim.cli`` exits with main's code and writes its bytes.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    entry = [sys.executable, "-m", "geo_route_sim.cli"]
    proc = subprocess.run([*entry, "analyze"], capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == run_cli(capsys, "analyze")[1].encode()
    proc = subprocess.run([*entry, "simulate", "foo"], capture_output=True, env=env)
    assert proc.returncode == 1
    assert b"bad override 'foo'" in proc.stderr
