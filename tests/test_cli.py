import time

import pytest

from geo_route_sim.cli import (
    ConfigError,
    cmd_compare,
    format_config,
    main,
    parse_config,
)
from geo_route_sim.feasibility import AnalyzeConfig
from geo_route_sim.netsim import SimConfig, generate_nodes, snapshot_digest

ADJACENT_PAIR = [
    "field_width=100",
    "field_height=100",
    "node_count=2",
    "tx_range=250",
    "flows=6",
    "duration=1",
    "time_step=0.5",
]


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

    def test_round_trip_simulate(self):
        config = parse_config("density=0.00031\nprotocol=lar\nseed=9\nttl=32\n", "simulate")
        assert parse_config(format_config(config), "simulate") == config

    def test_round_trip_analyze(self):
        config = parse_config("densities=0.0001,0.0004\nk_max=7\nmc_trials=100\n", "analyze")
        assert parse_config(format_config(config), "analyze") == config

    def test_round_trip_defaults(self):
        for command, config in (("simulate", SimConfig()), ("analyze", AnalyzeConfig())):
            assert parse_config(format_config(config), command) == config


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
        assert cmd_compare(config) == cmd_compare(config)


class TestExitCodes:
    def test_success(self, capsys):
        assert run_cli(capsys, "analyze", "k_max=1")[0] == 0

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--frobnicate")
        assert code == 1

    def test_bad_override(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "tx_range=-5")
        assert code == 1
        assert "tx_range" in err

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

    def test_unwritable_output_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "k_max=1", "--out", "/nonexistent/dir/out.csv")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


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
