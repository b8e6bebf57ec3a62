import json

import pytest

from urbansched import harness
from urbansched.cli import cli, resolve_scenario
from urbansched.world import ScenarioSpec


def scripted_scenario(script, initial_bikes=(0, 0, 0), load=6,
                      episode_length=3):
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": episode_length},
        "stations": [
            {"id": sid, "x": float(i), "y": 0.0, "docks": 20,
             "initial_bikes": initial_bikes[i]}
            for i, sid in enumerate(["A", "B", "C"])
        ],
        "routes": [],
        "vehicles": [{"capacity": 10, "start": "A", "initial_load": load}],
        "environment": [0.0],
        "demand_script": script,
    })


class TestGreedyBaseline:
    def test_fig1a_places_at_b_serves_ten(self):
        report = harness.run_greedy_bike(resolve_scenario("fig1a"))
        assert report.served == 10
        assert report.served + report.lost == report.total_demand == 35

    def test_zero_demand(self):
        report = harness.run_greedy_bike(scripted_scenario([]))
        assert report.served == 0 and report.lost == 0

    def test_tie_breaks_to_lowest_id(self):
        # equal first-segment demand at B and C; greedy must pick B
        script = [
            {"segment": 1, "origin": "B", "destination": "A", "count": 4},
            {"segment": 1, "origin": "C", "destination": "A", "count": 4},
        ]
        report = harness.run_greedy_bike(scripted_scenario(script, load=4))
        assert report.served == 4  # all bikes at B serve B's demand


class TestExhaustiveOracle:
    def test_fig1a_best_is_all_at_a(self):
        placement, best = harness.run_exhaustive_bike(
            resolve_scenario("fig1a"))
        assert best == 20
        assert placement == {"A": 10, "B": 0, "C": 0}

    def test_zero_bikes(self):
        _, best = harness.run_exhaustive_bike(scripted_scenario(
            [{"segment": 1, "origin": "A", "destination": "B", "count": 5}],
            load=0))
        assert best == 0

    def test_single_origin_demand(self):
        script = [{"segment": 1, "origin": "C", "destination": "A",
                   "count": 5}]
        placement, best = harness.run_exhaustive_bike(
            scripted_scenario(script, load=5))
        assert best == 5
        assert placement["C"] == 5

    def test_refusal_bound(self):
        assert harness.placement_count(10, 3) == 66
        big = scripted_scenario([], load=10)
        big.vehicles[0]["initial_load"] = 10
        # force a tiny bound to exercise the refusal path
        original = harness.PLACEMENT_BOUND
        harness.PLACEMENT_BOUND = 10
        try:
            with pytest.raises(harness.OracleTooLarge):
                harness.run_exhaustive_bike(big)
        finally:
            harness.PLACEMENT_BOUND = original

    def test_oracle_dominates_greedy_dominates_none(self):
        script = [
            {"segment": 1, "origin": "A", "destination": "C", "count": 3},
            {"segment": 2, "origin": "B", "destination": "C", "count": 4},
            {"segment": 3, "origin": "C", "destination": "A", "count": 2},
        ]
        scenario = scripted_scenario(script, load=5)
        _, exhaustive = harness.run_exhaustive_bike(scenario)
        greedy = harness.run_greedy_bike(scenario).served
        none = harness.run_no_reposition(scenario).served
        assert exhaustive >= greedy >= none


class TestEvaluate:
    def test_deterministic_reports(self):
        scenario = resolve_scenario("fig1a")
        a = harness.evaluate("greedy", scenario, 1, [0, 1])
        b = harness.evaluate("greedy", scenario, 1, [0, 1])
        assert [r.served for r in a] == [r.served for r in b]

    def test_no_reposition_fig1a_zero(self):
        reports = harness.evaluate("none", resolve_scenario("fig1a"), 1, [0])
        assert reports[0].served == 0
        assert reports[0].lost == 35

    def test_headway_zero_demand(self):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 4},
            "stations": [], "vehicles": [], "environment": [0.0],
            "routes": [{"stops": ["S1", "S2", "S3"], "bus_count": 1,
                        "capacity": 10}],
            "demand_script": [],
        }
        report = harness.run_static_headway(ScenarioSpec.from_dict(doc))
        assert report.bus_drive_time > 0
        assert report.returns[0] == pytest.approx(
            -0.2 * report.bus_drive_time)

    def test_validation(self):
        scenario = resolve_scenario("fig1a")
        with pytest.raises(ValueError):
            harness.evaluate("none", scenario, 0, [0])
        with pytest.raises(ValueError):
            harness.evaluate("mystery", scenario, 1, [0])
        with pytest.raises(ValueError):
            harness.evaluate("trained", scenario, 1, [0], policy=None)

    def test_reports_csv(self, tmp_path):
        reports = harness.evaluate("greedy", resolve_scenario("fig1a"), 1,
                                   [0])
        path = tmp_path / "reports.csv"
        harness.save_reports_csv(str(path), reports)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,served,lost")
        assert len(lines) == 2


class TestCli:
    def test_oracle_fig1a(self, capsys):
        assert cli(["oracle", "--scenario", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "best_served=20" in out
        assert "placement=A:10" in out

    def test_simulate_greedy(self, capsys):
        assert cli(["simulate", "--scenario", "fig1a",
                    "--policy", "greedy"]) == 0
        assert "served=10" in capsys.readouterr().out

    def test_simulate_none(self, capsys):
        assert cli(["simulate", "--scenario", "fig1a",
                    "--policy", "none"]) == 0
        assert "served=0" in capsys.readouterr().out

    def test_missing_scenario_exit_1(self, capsys):
        assert cli(["oracle", "--scenario", "no_such_file.json"]) == 1
        assert "no_such_file.json" in capsys.readouterr().err

    def test_unknown_subcommand_exit_1(self):
        assert cli(["frobnicate"]) == 1

    def test_no_subcommand_exit_1(self):
        assert cli([]) == 1

    def test_eval_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "reports.csv"
        assert cli(["eval", "--scenario", "fig1a", "--policy", "greedy",
                    "--seeds", "0,1", "--out", str(out)]) == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "policy=greedy" in text

    def test_cli_determinism_byte_identical(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            assert cli(["eval", "--scenario", "bike5", "--policy", "none",
                        "--seeds", "0,1,2", "--out", str(p)]) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_train_and_simulate_trained(self, tmp_path, capsys):
        config = {"episodes": 3, "lstm_hidden": 8, "actor_hidden": 8,
                  "critic_hidden": 8, "batch_size": 4, "history_window": 3,
                  "warmup_episodes": 1, "train_steps_per_episode": 1}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "policy.json").exists()
        assert (tmp_path / "curve.csv").exists()
        capsys.readouterr()
        assert cli(["simulate", "--scenario", "fig1a", "--policy", "trained",
                    "--checkpoint", str(tmp_path / "policy.json")]) == 0
        assert "served=" in capsys.readouterr().out

    def test_train_config_unknown_key_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"episode": 3}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "episode" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_checkpoint_exit_1(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"version": 1, "meta": {}, "arrays": {}}))
        assert cli(["eval", "--scenario", "fig1a",
                    "--checkpoint", str(path)]) == 1
        assert "obs_dim" in capsys.readouterr().err

    def test_trained_without_checkpoint_exit_1(self, capsys):
        assert cli(["simulate", "--scenario", "fig1a",
                    "--policy", "trained"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_forecast_emits_csvs(self, tmp_path, capsys):
        assert cli(["forecast", "--scenario", "bike5", "--days", "4",
                    "--horizon", "2", "--epochs", "5",
                    "--out", str(tmp_path)]) == 0
        assert (tmp_path / "history.csv").exists()
        assert (tmp_path / "bike_flows.csv").exists()
        assert "horizon=2" in capsys.readouterr().out
