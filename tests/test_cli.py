"""Tests for the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _print_rows, build_parser, main
from repro.experiments import experiment_names

#: Fast parameter overrides for the expensive subcommands.
FAST_ARGS = {
    "optimize": ["--jobs", "25", "--horizon-days", "2"],
    "schedule": ["--jobs", "25", "--horizon-days", "2"],
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_figures_with_options(self):
        args = build_parser().parse_args(["--seed", "3", "--months", "12", "figures"])
        assert args.seed == 3
        assert args.months == 12
        assert args.command == "figures"

    def test_parses_shifting_options(self):
        args = build_parser().parse_args(["shifting", "--deferrable", "0.4", "--window", "12"])
        assert args.deferrable == pytest.approx(0.4)
        assert args.window == 12


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NeurIPS" in out
        assert "spring/summer" in out

    def test_powercap(self, capsys):
        assert main(["powercap"]) == 0
        out = capsys.readouterr().out
        assert "energy_savings_pct" in out

    def test_figures_short_horizon(self, capsys):
        assert main(["--months", "12", "figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig.2 corr(power, green share)" in out
        assert "Fig.4 spearman" in out
        # Fig. 5 needs two years and is skipped on a 12-month horizon.
        assert "Fig.5" not in out


class TestRegistryDrivenCLI:
    def test_every_experiment_is_a_subcommand(self):
        parser = build_parser()
        for name in experiment_names():
            args = parser.parse_args(["--months", "6", name, *FAST_ARGS.get(name, [])])
            assert args.command == name

    @pytest.mark.parametrize("command", experiment_names())
    def test_seed_and_months_propagate_to_every_subcommand(self, command, capsys):
        argv = ["--seed", "4", "--months", "6", "--json", command, *FAST_ARGS.get(command, [])]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == command
        assert payload["spec"]["seed"] == 4
        assert payload["spec"]["n_months"] == 6

    def test_shared_flags_accepted_after_subcommand(self, capsys):
        # The documented invocation order (and the CI smoke command).
        assert main(["figures", "--months", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["n_months"] == 12

    def test_subcommand_level_flag_overrides_top_level(self, capsys):
        assert main(["--months", "24", "table1", "--months", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["n_months"] == 6

    def test_scenario_flag_selects_registered_spec(self, capsys):
        assert main(["--scenario", "single-year", "--json", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["n_months"] == 12

    def test_site_flag_overrides_spec_site(self, capsys):
        assert main(["--site", "phoenix-az", "--months", "3", "--json", "figures"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["site"]["name"] == "phoenix-az"

    def test_experiment_params_reach_the_run(self, capsys):
        argv = ["--months", "3", "--json", "shifting", "--deferrable", "0.4", "--window", "12"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["deferrable"] == pytest.approx(0.4)
        assert payload["params"]["window"] == 12

    def test_json_output_is_strict(self, capsys):
        assert main(["--months", "3", "--json", "powercap"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "NaN" not in out
        assert payload["rows"][0]["energy_savings_pct"] is not None


class TestSweepCommand:
    def test_sweep_text_output(self, capsys):
        argv = ["sweep", "--experiments", "table1,powercap", "--grid", "seed=0,1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "point_seed" in out
        assert "4 campaign point(s) across 2 experiment(s)" in out

    def test_sweep_json_rows(self, capsys):
        argv = [
            "sweep", "--experiments", "table1", "--grid", "seed=0,1",
            "--grid", "n_months=3,4", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_points"] == 4
        assert [row["seed"] for row in payload["rows"]] == [0, 0, 1, 1]
        assert payload["campaign"]["scenario_grid"]["n_months"] == [3, 4]

    def test_sweep_parallel_rows_match_serial(self, capsys):
        argv = [
            "sweep", "--experiments", "table1,powercap",
            "--grid", "seed=0,1", "--grid", "n_months=3,4", "--json",
        ]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main([*argv, "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["rows"] == parallel["rows"]

    def test_sweep_csv_output(self, capsys):
        argv = ["sweep", "--experiments", "table1", "--grid", "seed=0,1", "--csv"]
        assert main(argv) == 0
        parsed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(parsed) == 2
        assert parsed[0]["experiment"] == "table1"

    def test_sweep_json_and_csv_conflict(self, capsys):
        argv = ["sweep", "--experiments", "table1", "--json", "--csv"]
        assert main(argv) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_param_grid_uses_declared_types(self, capsys):
        argv = [
            "--months", "3", "sweep", "--experiments", "shifting",
            "--grid", "deferrable=0.2,0.4", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["deferrable"] for row in payload["rows"]] == [0.2, 0.4]

    def test_sweep_site_grid(self, capsys):
        argv = [
            "--months", "3", "sweep", "--experiments", "table1",
            "--grid", "site=holyoke-ma,phoenix-az", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["site"] for row in payload["rows"]] == ["holyoke-ma", "phoenix-az"]

    def test_sweep_unknown_grid_key_errors(self, capsys):
        argv = ["sweep", "--experiments", "table1", "--grid", "bogus=1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unknown grid key" in err and "seed" in err

    def test_sweep_duplicate_grid_key_errors(self, capsys):
        argv = ["sweep", "--experiments", "table1", "--grid", "seed=0,1", "--grid", "seed=2,3"]
        assert main(argv) == 1
        assert "duplicate grid key" in capsys.readouterr().err

    def test_sweep_malformed_grid_errors(self, capsys):
        assert main(["sweep", "--experiments", "table1", "--grid", "seed"]) == 1
        assert "KEY=V1,V2" in capsys.readouterr().err

    def test_sweep_unparseable_grid_value_errors(self, capsys):
        assert main(["sweep", "--experiments", "table1", "--grid", "seed=zero"]) == 1
        assert "could not parse" in capsys.readouterr().err


class TestWorkersFlag:
    def test_workers_accepted_by_experiment_subcommands(self, capsys):
        assert main(["--months", "2", "--workers", "2", "--json", "stress"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "stress"

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("GREENHPC_WORKERS", "2")
        argv = ["sweep", "--experiments", "table1", "--grid", "seed=0,1"]
        assert main(argv) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GREENHPC_WORKERS", "4")
        argv = ["--workers", "1", "sweep", "--experiments", "table1", "--grid", "seed=0,1"]
        assert main(argv) == 0
        assert "1 worker(s)" in capsys.readouterr().out

    def test_invalid_env_value_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("GREENHPC_WORKERS", "many")
        assert main(["sweep", "--experiments", "table1"]) == 1
        assert "GREENHPC_WORKERS" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys):
        assert main(["--workers", "-1", "sweep", "--experiments", "table1"]) == 1
        assert "n_workers" in capsys.readouterr().err


class TestPoliciesSubcommand:
    def test_lists_registry_and_stages(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        # Every registered policy and its canned pipeline spelling appear.
        for name in ("fifo", "backfill", "energy-aware", "carbon-aware", "deadline-aware"):
            assert name in out
        assert "backfill+carbon(cap=0.7)" in out
        # Stage tokens with parameters and kinds are listed.
        for token in ("edf", "sjf", "budget", "price", "renewable", "slack", "adaptive"):
            assert token in out
        assert "ceiling=<required>" in out

    def test_json_output(self, capsys):
        assert main(["policies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["policy"] for row in payload["policies"]} >= {
            "fifo",
            "backfill",
            "energy-aware",
            "carbon-aware",
            "deadline-aware",
        }
        kinds = {row["kind"] for row in payload["stages"]}
        assert kinds == {"ordering", "placement", "gate", "power"}

    def test_optimize_error_references_policies_subcommand(self, capsys):
        assert main(["--months", "2", "optimize", "--policies", "warp-speed"]) == 1
        err = capsys.readouterr().err
        assert "greenhpc policies" in err


class TestComposedPolicyGrids:
    def test_grid_values_split_on_top_level_commas_only(self, capsys):
        argv = [
            "--months", "2", "sweep", "--experiments", "schedule",
            "--grid", "policy=backfill,backfill+carbon(cap=0.7)",
            "--grid", "jobs=25", "--grid", "horizon_days=2",
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        policies = [row["policy"] for row in payload["rows"]]
        assert policies == ["backfill", "backfill+carbon(cap=0.7)"]

    def test_schedule_subcommand_accepts_spec_string(self, capsys):
        argv = [
            "--months", "2", "schedule",
            "--policy", "edf+backfill+slack(margin=2.0)",
            "--jobs", "25", "--horizon-days", "2", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["policy"] == "edf+backfill+slack(margin=2.0)"
        assert payload["scalars"]["delivered_gpu_hours"] > 0


class TestPrintRows:
    def test_handles_none_and_nan(self, capsys):
        _print_rows([{"a": None, "b": float("nan")}, {"a": 1.25, "b": math.inf}])
        out = capsys.readouterr().out
        assert "-" in out
        assert "nan" in out
        assert "inf" in out

    def test_handles_ragged_records(self, capsys):
        _print_rows([{"a": 1}, {"b": 2}])
        out = capsys.readouterr().out
        assert "a" in out and "b" in out

    def test_empty(self, capsys):
        _print_rows([])
        assert "(no rows)" in capsys.readouterr().out


class TestColdImport:
    def test_cli_import_loads_only_stdlib_and_numpy(self):
        """``import repro.cli`` needs nothing beyond the declared dependency.

        Run in a fresh interpreter so modules other tests imported do not
        hide an undeclared one.  Entries without a file (``cython_runtime``,
        ``__mp_main__``) are interpreter bookkeeping, not packages.
        """
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "allowed = set(sys.stdlib_module_names) | {'numpy', 'repro'}\n"
            "print(sorted({\n"
            "    name.partition('.')[0]\n"
            "    for name in set(sys.modules) - before\n"
            "    if getattr(sys.modules[name], '__file__', None)\n"
            "    and name.partition('.')[0] not in allowed\n"
            "}))\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"
