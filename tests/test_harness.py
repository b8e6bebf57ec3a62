import hashlib
import importlib.util
import json
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from urbansched import envs, harness, nn
from urbansched.cli import cli, resolve_scenario
from urbansched.ddpg import ActorNet, DdpgConfig, Policy
from urbansched.envs import BikeEnv, BusEnv
from urbansched.world import (MAX_BUS_COUNT, MAX_CAPACITY, MAX_COORDINATE,
                              MAX_EPISODE_LENGTH, MAX_JOINT_K, MAX_RATE,
                              ScenarioError, ScenarioSpec)

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def corridor_doc(seed: int) -> dict:
    """perfbench's 30-stop corridor as a scenario document. This reads
    perfbench, never edits it."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                  GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corridor(seed)


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
        assert report.served + report.lost == 35

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

    def test_empty_station_id_gets_the_bikes(self):
        # the validator accepts "" as a station id; the busiest station's
        # id being false must not drop the placement
        scenario = ScenarioSpec.from_dict({
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [{"id": "", "x": 0.0, "y": 0.0, "docks": 5},
                         {"id": "B", "x": 1.0, "y": 0.0, "docks": 5}],
            "routes": [], "vehicles": [{"capacity": 5, "initial_load": 5}],
            "environment": [0.0],
            "demand_script": [{"segment": 1, "origin": "",
                               "destination": "B", "count": 5}]})
        greedy = harness.greedy_placement(scenario)
        assert [s["initial_bikes"] for s in greedy.stations] == [5, 0]
        assert harness.run_greedy_bike(scenario).served == 5


def per_placement_oracle(scenario, seed):
    """The oracle as one `NoReposition` rollout per placement, each on a
    scenario copy with the placement's bikes at its stations: the
    reference for the oracle's single-episode replay."""
    ids = scenario.station_ids()
    best_served, best_placement = -1, {}
    for split in harness._compositions(harness._dispatchable_bikes(scenario),
                                       len(ids)):
        if any(c > s["docks"] for c, s in zip(split, scenario.stations)):
            continue
        placement = dict(zip(ids, split))
        served = harness.run_no_reposition(
            harness._with_placement(scenario, placement), seed).served
        if served > best_served:
            best_served, best_placement = served, placement
    return best_placement, best_served


def random_outage_scenario():
    """Four stations of unequal docks, Poisson bike demand on a day of four
    segments, a scripted trip, a loaded vehicle, and a bus outage with its
    own trips that each episode draws at random."""
    ids = ["A", "B", "C", "D"]
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": 4,
                  "episode_start": 2},
        "stations": [{"id": sid, "x": float(i), "y": float(i % 2),
                      "docks": docks, "initial_bikes": bikes}
                     for i, (sid, docks, bikes) in enumerate(
                         zip(ids, (4, 6, 2, 5), (2, 1, 0, 0)))],
        "routes": [{"stops": ["S1", "S2"]}],
        "vehicles": [{"capacity": 5, "start": "B", "initial_load": 3}],
        "environment": [0.0],
        "demand_profile": {
            "rates": {"A": [1.5, 0.5, 2.0, 1.0], "B": [0.2, 2.5, 0.8, 1.2],
                      "C": [1.0, 1.0, 0.0, 3.0], "D": [0.0, 0.7, 1.9, 0.4]},
            "od_weights": [[0, 1, 2, 1], [1, 0, 1, 3], [2, 1, 0, 1],
                           [1, 1, 1, 0]]},
        "demand_script": [{"segment": 2, "origin": "C", "destination": "A",
                           "count": 2}],
        "joint": {"enabled": True, "bus_outage": "random",
                  "outage_trips": [{"segment": 1, "origin": "D",
                                    "destination": "B", "count": 3}]},
    })


class TestExhaustiveOracle:
    def test_replay_matches_a_rollout_per_placement(self):
        script = [
            {"segment": 1, "origin": "A", "destination": "C", "count": 3},
            {"segment": 2, "origin": "B", "destination": "C", "count": 4},
            {"segment": 3, "origin": "C", "destination": "A", "count": 2},
        ]
        outages = set()
        for scenario in (random_outage_scenario(),
                         scripted_scenario(script, initial_bikes=(1, 2, 0),
                                           load=4)):
            for seed in range(6):
                assert (harness.run_exhaustive_bike(scenario, seed)
                        == per_placement_oracle(scenario, seed))
                if scenario.joint:
                    env = BikeEnv(scenario=scenario, seed=seed)
                    env.reset()
                    outages.add(env.outage)
        assert outages == {False, True}  # both outage draws replayed

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

    def test_compositions_in_the_recursive_order(self):
        def recursive(total, bins):
            """The former recursive enumeration, one level per bin."""
            if bins == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in recursive(total - first, bins - 1):
                    yield (first,) + rest

        for total in range(7):
            for bins in range(1, 6):
                got = list(harness._compositions(total, bins))
                assert got == list(recursive(total, bins))
                assert len(got) == harness.placement_count(total, bins)

    def test_refusal_bound(self):
        assert harness.placement_count(10, 3) == 66
        big = scripted_scenario([], load=10)
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
        report = harness.evaluate_policy(harness.StaticHeadwayPolicy(),
                                         ScenarioSpec.from_dict(doc), 1, 0)
        assert report.bus_drive_time > 0
        assert report.returns[0] == pytest.approx(
            -0.2 * report.bus_drive_time)
        assert report.mean_wait_minutes == 0.0

    def test_headway_mean_wait_is_wait_over_boardings(self):
        # the bus drives S1 -> S2 -> S3 -> S2: at S2 it boards the forward
        # rider at once, then the backward riders after 2, 2 and 1 segments
        trips = [(1, "S2", "S3", 1), (1, "S2", "S1", 2), (2, "S2", "S1", 1)]
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 3},
            "stations": [], "vehicles": [], "environment": [0.0],
            "routes": [{"stops": ["S1", "S2", "S3"]}],
            "bus_script": [{"segment": seg, "origin": o, "destination": d,
                            "count": n} for seg, o, d, n in trips],
        }
        policy = harness.StaticHeadwayPolicy()
        report = harness.evaluate_policy(policy, ScenarioSpec.from_dict(doc),
                                         2, 0)
        wait = 0 + 2 * 30 + 15
        # two episodes: 2 * wait minutes over 2 * 4 boardings
        assert report.mean_wait_minutes == wait / 4
        assert report.as_row()["mean_wait_minutes"] == "18.750"
        assert report.returns == [wait - 0.2 * 45] * 2

    def test_validation(self):
        scenario = resolve_scenario("fig1a")
        with pytest.raises(ValueError):
            harness.evaluate("none", scenario, 0, [0])
        with pytest.raises(ValueError):
            harness.evaluate("mystery", scenario, 1, [0])

    def test_headway_turns_at_its_own_route_end(self):
        # route 1 is S1, S2 and route 2 is T1, T2, T3
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 6},
            "stations": [], "vehicles": [], "environment": [0.0],
            "routes": [{"stops": ["S1", "S2"]},
                       {"stops": ["T1", "T2", "T3"]}],
            "demand_script": [],
        }
        env = BusEnv(scenario=ScenarioSpec.from_dict(doc))
        env.reset()
        policy = harness.StaticHeadwayPolicy()
        policy.begin_episode(None)
        visited = []
        for _ in range(4):
            env.step(policy.action_for(env))
            visited.append(env.world.buses[0].location)
        assert visited == [1, 0, 1, 0]

    @pytest.mark.parametrize("kind, name", [
        ("none", "bike5"), ("greedy", "bike5"), ("headway", "outage")])
    def test_baselines_run_every_episode(self, kind, name):
        scenario = resolve_scenario(name)
        report = harness.evaluate(kind, scenario, 3, [0])[0]
        assert len(report.returns) == 3
        # episodes 1 to 3 of one env seeded 0, summed
        assert report == harness.evaluate(kind, scenario, 3, [0])[0]

    def test_no_reposition_sums_its_episodes(self):
        report = harness.evaluate("none", resolve_scenario("bike5"), 3, [0])[0]
        assert report.served == 4 + 4 + 5
        assert report.returns == [4.0, 4.0, 5.0]

    def test_reports_csv(self, tmp_path):
        reports = harness.evaluate("greedy", resolve_scenario("fig1a"), 1,
                                   [0])
        path = tmp_path / "reports.csv"
        harness.save_reports_csv(str(path), reports)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,served,lost")
        assert len(lines) == 2


def _trip(doc: dict) -> dict:
    """The first outage trip of a scenario document."""
    return doc["joint"]["outage_trips"][0]


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

    def test_directory_is_not_a_scenario(self, tmp_path, monkeypatch,
                                         capsys):
        # a directory named like a bundled scenario leaves the bundled one
        # found; one named like nothing bundled is a bad argument
        assert cli(["simulate", "--scenario", "bike5"]) == 0
        bundled = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bike5").mkdir()
        (tmp_path / "nowhere").mkdir()
        assert cli(["simulate", "--scenario", "bike5"]) == 0
        assert capsys.readouterr().out == bundled
        assert cli(["simulate", "--scenario", "nowhere"]) == 1
        assert "scenario not found: nowhere" in capsys.readouterr().err

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

    def test_train_bike5_pinned_outputs(self, tmp_path, capsys):
        """The trained weights and curve of one short seeded training, byte
        for byte, and what the trained policy then serves."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"episodes": 30}))
        assert cli(["train", "--scenario", "bike5", "--config",
                    str(cfg_path), "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in ("policy.json", "curve.csv")}
        assert digests == {
            "policy.json": "1b914f1e2344291eab46e129b16c3ce1"
                           "cd7275bcf02edd9f814a8e0af5ed2631",
            "curve.csv": "e9ae5dbc33ea127ac2806e304a263e7e"
                         "a7b97181c0a0f0f2466815cfede89caf",
        }
        assert capsys.readouterr().out == (
            "episodes=30 final_return=3.100 final_served=4\n")
        assert cli(["simulate", "--scenario", "bike5", "--policy", "trained",
                    "--checkpoint", str(tmp_path / "policy.json"),
                    "--episodes", "3"]) == 0
        assert capsys.readouterr().out == (
            "served=13 lost=74 mean_return=4.233\n")

    def test_train_config_unknown_key_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"episode": 3}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "episode" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_config_seed_key_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"episodes": 3, "seed": 5}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc", [{"episodes": "3"}, {"episodes": 3.0},
                                     {"tau": "0.1"}, {"tau": True}])
    def test_train_config_bad_value_type_exit_1(self, doc, tmp_path,
                                                capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert next(iter(doc)) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc", [
        {"history_window": 0}, {"batch_size": 0}, {"tau": 2.0},
        {"discount": -0.1}, {"buffer_capacity": 0}, {"lstm_hidden": 0},
        {"episodes": -1}, {"train_steps_per_episode": -1}, {"eval_every": 0},
        {"actor_lr": math.inf}, {"ou_sigma": math.nan}])
    def test_train_config_out_of_range_exit_1(self, doc, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))  # NaN and Infinity included
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert next(iter(doc)) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_obs_dim_mismatch_exit_1(self, tmp_path, capsys):
        config = {"episodes": 1, "lstm_hidden": 4, "actor_hidden": 4,
                  "critic_hidden": 4, "history_window": 2}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli(["simulate", "--scenario", "bike5", "--policy", "trained",
                    "--checkpoint", str(tmp_path / "policy.json")]) == 1
        err = capsys.readouterr().err
        assert "37" in err and "59" in err

    def test_internal_shape_error_exit_2(self, monkeypatch, capsys):
        def broken_train(*args, **kwargs):
            nn.lstm_forward(nn.LstmParams.zeros(2, 3), np.zeros((4, 5)))

        monkeypatch.setattr("urbansched.cli.train", broken_train)
        assert cli(["train", "--scenario", "fig1a"]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_internal_value_error_exit_2(self, monkeypatch, capsys):
        """numpy reports a program fault as a ValueError, which is not bad
        input: only an InputError exits 1."""
        def broken_train(*args, **kwargs):
            return np.ones((2, 3)) @ np.ones((4, 5))

        monkeypatch.setattr("urbansched.cli.train", broken_train)
        assert cli(["train", "--scenario", "fig1a"]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_non_finite_checkpoint_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "episodes": 1, "lstm_hidden": 4, "actor_hidden": 4,
            "critic_hidden": 4, "history_window": 2}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path)]) == 0
        path = tmp_path / "policy.json"
        doc = json.loads(path.read_text())
        doc["params"][-1] = math.nan
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli(["simulate", "--scenario", "fig1a", "--policy", "trained",
                    "--checkpoint", str(path)]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_params_exit_1(self, tmp_path, capsys):
        """A version-2 or version-3 file, and params missing, of the wrong
        length (one number included, which numpy would broadcast), not
        numbers, or past float32's range."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "episodes": 1, "lstm_hidden": 4, "actor_hidden": 4,
            "critic_hidden": 4, "history_window": 2}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path)]) == 0
        path = tmp_path / "policy.json"
        doc = json.loads(path.read_text())
        params = doc.pop("params")
        for edit in [{"version": 2, "params": params},
                     {"version": 3, "params": params}, {}, {"params": [0.1]},
                     {"params": params[1:]}, {"params": params + [0.0]},
                     {"params": ["0.1"] + params[1:]},
                     {"params": [1e39] + params[1:]}]:
            path.write_text(json.dumps({**doc, **edit}))
            capsys.readouterr()
            assert cli(["simulate", "--scenario", "fig1a", "--policy",
                        "trained", "--checkpoint", str(path)]) == 1
            assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_action_dim_exit_1(self, tmp_path, capsys):
        """A vehicle checkpoint whose obs_dim fits fig1a but whose action
        size does not exits 1, naming both sizes, when its episode begins."""
        env = envs.BikeEnv(scenario=resolve_scenario("fig1a"))
        obs_dim = env.reset().size
        path = tmp_path / "policy.json"
        for action_dim in (1, env.action_dim + 2):
            actor = ActorNet.create(obs_dim, action_dim,
                                    DdpgConfig(lstm_hidden=4, actor_hidden=4),
                                    np.random.default_rng(0))
            Policy(actor=actor, kind="vehicle", capacity=10,
                   history_window=2).save(str(path))
            assert cli(["simulate", "--scenario", "fig1a", "--policy",
                        "trained", "--checkpoint", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: policy action_dim {action_dim} does not match the "
                f"scenario's action size {env.action_dim}\n")

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    @pytest.mark.parametrize("command, work", [
        ("train", "train"), ("forecast", "_history_from_scenario")],
        ids=["train", "forecast"])
    def test_out_not_a_directory_exit_1(self, command, work, under, tmp_path,
                                        monkeypatch, capsys):
        """--out naming a file, or a path under one, exits 1 before the
        command starts its work."""
        def started(*args, **kwargs):
            raise AssertionError(f"{command} started")

        monkeypatch.setattr(f"urbansched.cli.{work}", started)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "run" if under else tmp_path / "file"
        assert cli([command, "--scenario", "bike5", "--out", str(out)]) == 1
        assert "--out must name a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["dir", "file/r.csv", "none/r.csv"],
                             ids=["directory", "under-file", "under-nothing"])
    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_out_not_a_file_path_exit_1(self, command, out, tmp_path,
                                        monkeypatch, capsys):
        """simulate and eval --out naming a directory, or a file under a
        file or under no directory, exit 1 before the command starts its
        work and print no result."""
        def started(*args, **kwargs):
            raise AssertionError(f"{command} started")

        monkeypatch.setattr("urbansched.harness.evaluate", started)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        assert cli([command, "--scenario", "bike5", "--policy", "greedy",
                    "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert "--out must name a file" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("doc", [
        {"buffer_capacity": 10 ** 20}, {"history_window": 10 ** 30},
        {"lstm_hidden": 10 ** 10}, {"actor_hidden": 10 ** 10},
        {"critic_hidden": 10 ** 10}, {"batch_size": 10 ** 5}])
    def test_train_config_size_past_its_bound_exit_1(self, doc, tmp_path,
                                                     capsys):
        """Sizes that no run can allocate exit 1 at the config's gate, not
        2 mid-setup."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert next(iter(doc)) in err and "must be a finite number" in err
        assert not (tmp_path / "run").exists()

    def test_train_config_sizes_past_their_joint_bound_exit_1(
            self, tmp_path, capsys):
        """Sizes each within its own bound whose actor tape would take
        16 GiB for its gates alone exit 1 at the config's gate."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "history_window": 256, "batch_size": 4096, "lstm_hidden": 1024,
            "buffer_capacity": 10 ** 6}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("history_window x batch_size x lstm_hidden = 1073741824 "
                "exceeds 2097152" in captured.err)
        assert not (tmp_path / "run").exists()

    def test_train_batch_past_buffer_exit_1(self, tmp_path, capsys):
        """A batch larger than the buffer would never update: exit 1."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"batch_size": 64,
                                        "buffer_capacity": 63}))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert ("batch_size 64 exceeds buffer_capacity 63"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("obs_dim, hidden, window", [
        (10 ** 12, 4 * 10 ** 6, 2), (37, 4, 10 ** 18)])
    def test_checkpoint_sizes_past_numpy_exit_1(self, obs_dim, hidden, window,
                                                tmp_path, capsys):
        """Consistent meta sizes of which numpy refuses an array, the
        actor's or the history window's, before it takes any memory."""
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"version": 4, "params": [], "meta": {
            "kind": "vehicle", "capacity": 10, "history_window": window,
            "obs_dim": obs_dim, "action_dim": 11, "lstm_hidden": hidden,
            "actor_hidden": 4}}))
        assert cli(["simulate", "--scenario", "fig1a", "--policy", "trained",
                    "--checkpoint", str(path)]) == 1
        assert "checkpoint meta sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0,x", "", "1.5"])
    def test_eval_bad_seeds_exit_1(self, seeds, capsys):
        assert cli(["eval", "--scenario", "fig1a", f"--seeds={seeds}"]) == 1
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "forecast"])
    def test_negative_seed_exit_1(self, command, tmp_path, capsys):
        """Both seed numpy's generators, which take no negative seed."""
        assert cli([command, "--scenario", "bike5", "--seed", "-1",
                    "--out", str(tmp_path / "run")]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("days, code", [(1, 1), (2, 1), (3, 0)])
    def test_forecast_needs_3_history_segments(self, days, code, tmp_path,
                                               capsys):
        """A fit takes windows of 2 segments and the segment after each;
        this profile has one segment a day."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [], "vehicles": [], "environment": [0.0],
            "demand_profile": {"rates": {"A": [1.0], "B": [1.0]},
                               "od_weights": [[0.0, 1.0], [1.0, 0.0]]},
        }))
        assert cli(["forecast", "--scenario", str(path), "--days", str(days),
                    "--epochs", "1", "--out", str(tmp_path / "out")]) == code
        captured = capsys.readouterr()
        if code:
            assert "at least 3 history segments" in captured.err
        else:
            assert "history_segments=3" in captured.out

    @pytest.mark.parametrize("content", [b'{"clock": ', b"\xff\xfe{}"])
    @pytest.mark.parametrize("args", [
        ["simulate", "--scenario"],
        ["simulate", "--scenario", "fig1a", "--policy", "trained",
         "--checkpoint"],
        ["train", "--scenario", "fig1a", "--config"]])
    def test_file_not_utf8_json_exit_1(self, args, content, tmp_path,
                                       capsys):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert cli([*args, str(path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_stationless_demand_profile_exit_1(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [], "routes": [{"stops": ["S1", "S2", "S3"]}],
            "vehicles": [], "environment": [0.0],
            "demand_profile": {
                "rates": {}, "od_weights": [],
                "bus_rates": [{"origin": "S1", "destination": "S3",
                               "rate": 1.0}]},
        }))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "headway"]) == 1
        assert "at least one station" in capsys.readouterr().err

    def test_stationless_oracle_exit_1(self, tmp_path, capsys):
        # with no station there is no placement to enumerate
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [], "routes": [{"stops": ["S1", "S2", "S3"]}],
            "vehicles": [], "environment": [0.0],
            "bus_script": [{"segment": 1, "origin": "S1",
                            "destination": "S3", "count": 2}],
        }))
        assert cli(["oracle", "--scenario", str(path)]) == 1
        assert ("oracle needs at least one station"
                in capsys.readouterr().err)

    def test_wide_oracle_without_bikes(self, tmp_path, capsys):
        # one station per level of the former recursive enumeration would
        # pass the interpreter's recursion limit; no bikes, one placement
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [{"id": f"S{i:04d}", "x": float(i), "y": 0.0,
                          "docks": 1} for i in range(1100)],
            "routes": [], "vehicles": [], "environment": [0.0],
        }))
        assert cli(["oracle", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out == "best_served=0 placement=-\n"

    @pytest.mark.parametrize("doc", [[], ["stations"], "fig1a", 3])
    def test_scenario_not_an_object_exit_1(self, doc, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path)]) == 1
        assert "scenario must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[], [{"episodes": 3}], "episodes"])
    def test_train_config_not_an_object_exit_1(self, doc, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli(["train", "--scenario", "fig1a", "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "--config must hold an object" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--policy", "trained", "--checkpoint"],
        ["eval", "--checkpoint"],
        ["train", "--config"]])
    def test_directory_as_file_exit_1(self, args, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        assert cli([*args, str(tmp_path / "dir"), "--scenario", "fig1a",
                    "--out", str(tmp_path / "run")]) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_vehicle_start_exit_1(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [], "vehicles": [{"capacity": 5, "start": "Z"}],
            "environment": [0.0],
        }))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        assert "'Z'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate", "--policy", "none"],
                                         ["train"]])
    def test_vehicle_without_station_exit_1(self, command, tmp_path,
                                            capsys):
        # a vehicle without a start starts at station 0: here there is none
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [], "routes": [{"stops": ["S1", "S2"]}],
            "vehicles": [{"capacity": 5}], "environment": [0.0],
        }))
        out = tmp_path / "run"
        assert cli([*command, "--scenario", str(path),
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no station" in captured.err
        assert not out.exists()

    @staticmethod
    def capped_doc(rate, where):
        """A scenario with a station and a bus rate; `where` sets one."""
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2"]}],
            "vehicles": [{"capacity": 5}], "environment": [0.0],
            "demand_profile": {
                "rates": {"A": [1.0, 2.0], "B": [0.5, 0.5]},
                "od_weights": [[0.0, 1.0], [1.0, 0.0]],
                "bus_rates": [{"origin": "S1", "destination": "S2",
                               "rate": 1.0}]},
        }
        if where == "station":
            doc["demand_profile"]["rates"]["A"][1] = rate
        else:
            doc["demand_profile"]["bus_rates"][0]["rate"] = rate
        return doc

    @pytest.mark.parametrize("where", ["station", "bus"])
    @pytest.mark.parametrize("rate", [1e300, MAX_RATE + 1])
    def test_rate_past_its_cap_exit_1(self, rate, where, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.capped_doc(rate, where)))
        out = tmp_path / "report.csv"
        assert cli(["simulate", "--scenario", str(path), "--policy",
                    "greedy", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"0..{MAX_RATE}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["station", "bus"])
    def test_rate_at_its_cap_runs(self, where, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.capped_doc(MAX_RATE, where)))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "greedy"]) == 0
        assert capsys.readouterr().out.startswith("served=")

    @staticmethod
    def bike5_path(tmp_path, edit):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "bike5.json").read_text())
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def test_all_zero_od_weights_send_no_trip(self, tmp_path, capsys):
        # positive rates and no destination: each station draws its
        # departure count and sends no trip, so nothing is served or lost
        path = self.bike5_path(tmp_path, lambda d: d["demand_profile"].update(
            od_weights=[[0.0] * 5 for _ in range(5)]))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 0
        assert (capsys.readouterr().out
                == "served=0 lost=0 mean_return=0.000\n")

    def test_greedy_fills_stations_in_rank_order(self, tmp_path, capsys):
        # 44 bikes: S1, the busiest station, docks 30 of them and S2, the
        # next, the other 14
        path = self.bike5_path(tmp_path, lambda d: d["vehicles"][0].update(
            capacity=40, initial_load=40))
        greedy = harness.greedy_placement(ScenarioSpec.from_dict(
            json.loads(path.read_text())))
        assert [s["initial_bikes"] for s in greedy.stations] == [30, 14, 0,
                                                                 0, 0]
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "greedy"]) == 0
        assert (capsys.readouterr().out
                == "served=31 lost=2 mean_return=31.000\n")

    def test_greedy_past_all_docks_exit_1(self, tmp_path, capsys):
        path = self.bike5_path(tmp_path, lambda d: d["vehicles"][0].update(
            capacity=200, initial_load=200))
        out = tmp_path / "report.csv"
        assert cli(["simulate", "--scenario", str(path), "--policy",
                    "greedy", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("204 dispatchable bikes exceed the 150 docks of all stations"
                in captured.err)
        assert not out.exists()

    def test_oracle_past_its_step_bound_exit_1(self, tmp_path, capsys,
                                               monkeypatch):
        # 20,475 placements each replaying 10**6 segments; refused before
        # an env of that episode is built
        path = self.bike5_path(tmp_path, lambda d: d["clock"].update(
            episode_length=10 ** 6))
        monkeypatch.setattr(harness, "BikeEnv", None)
        assert cli(["oracle", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"20475 placements x 1000000 segments = 20475000000 segment "
                f"steps exceed the bound {harness.ORACLE_STEP_BOUND}"
                in captured.err)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["stations"][0].update(x=10 ** 400), "coordinates must"),
        (lambda d: d["clock"].update(segment_minutes=10 ** 400),
         "segment_minutes"),
    ])
    def test_int_past_a_float_exit_1(self, edit, message, tmp_path, capsys):
        # an integer too large to convert to a float is no finite number
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "bike5.json").read_text())
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "greedy"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @staticmethod
    def spread_stations(value):
        """An edit placing bike5's stations at alternating corners
        (value, -value) and (-value, value)."""
        def edit(doc):
            for i, station in enumerate(doc["stations"]):
                station["x"] = value if i % 2 else -value
                station["y"] = -station["x"]
        return edit

    @pytest.mark.parametrize("value", [MAX_COORDINATE + 1, 1e151, 1e308])
    def test_coordinate_past_its_cap_exit_1(self, value, tmp_path, capsys):
        path = self.bike5_path(tmp_path, self.spread_stations(value))
        assert cli(["forecast", "--scenario", str(path), "--epochs", "1",
                    "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("coordinates must be finite numbers of magnitude at most "
                "1e+150" in captured.err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [MAX_COORDINATE,
                                       float(MAX_COORDINATE)])
    def test_coordinate_at_its_cap_forecasts(self, value, tmp_path, capsys):
        # the k-means step squares differences of 2 * 10**150 and averages
        # the coordinates, without overflow
        path = self.bike5_path(tmp_path, self.spread_stations(value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli(["forecast", "--scenario", str(path), "--days", "2",
                        "--epochs", "1", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("history_segments=")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["clock"].update(episode_length=MAX_EPISODE_LENGTH + 1),
         f"episode_length {MAX_EPISODE_LENGTH + 1} must be an integer in "
         f"1..{MAX_EPISODE_LENGTH}"),
        (lambda d: d["clock"].update(episode_length=10 ** 12),
         f"1..{MAX_EPISODE_LENGTH}"),
        (lambda d: d["joint"].update(k=MAX_JOINT_K + 1),
         f"joint k {MAX_JOINT_K + 1} must be an integer in 1..{MAX_JOINT_K}"),
        (lambda d: d["joint"].update(k=10 ** 10), f"1..{MAX_JOINT_K}"),
    ])
    def test_size_past_its_cap_exit_1(self, edit, message, tmp_path, capsys):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        for command in (["simulate", "--policy", "greedy"],
                        ["forecast", "--epochs", "1"]):
            assert cli([*command, "--scenario", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_joint_k_at_its_cap_runs(self, tmp_path, capsys):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        doc["joint"]["k"] = MAX_JOINT_K
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "greedy"]) == 0
        assert capsys.readouterr().out.startswith("served=")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["stations"][0].update(docks=MAX_CAPACITY + 1),
         f"station B1: docks {MAX_CAPACITY + 1} must be an integer in "
         f"0..{MAX_CAPACITY}"),
        (lambda d: d["stations"][0].update(docks=10 ** 20),
         f"0..{MAX_CAPACITY}"),
        (lambda d: d["vehicles"][0].update(capacity=MAX_CAPACITY + 1),
         f"vehicle capacity {MAX_CAPACITY + 1} must be an integer in "
         f"1..{MAX_CAPACITY}"),
        (lambda d: d["vehicles"][0].update(capacity=10 ** 20),
         f"1..{MAX_CAPACITY}"),
        (lambda d: d["routes"][0].update(capacity=MAX_CAPACITY + 1),
         f"route bus capacity {MAX_CAPACITY + 1} must be an integer in "
         f"1..{MAX_CAPACITY}"),
        (lambda d: d["routes"][0].update(bus_count=MAX_BUS_COUNT + 1),
         f"route bus_count {MAX_BUS_COUNT + 1} must be an integer in "
         f"0..{MAX_BUS_COUNT}"),
        (lambda d: d["routes"][0].update(bus_count=10 ** 12),
         f"0..{MAX_BUS_COUNT}"),
    ])
    def test_count_past_its_cap_exit_1(self, edit, message, tmp_path,
                                       capsys):
        # docks or a vehicle capacity of 10**20 ran, and a bus_count of
        # 10**12 failed to allocate its fleet (exit 2)
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_counts_at_their_caps_run(self, tmp_path, capsys):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        doc["stations"][0]["docks"] = MAX_CAPACITY
        doc["stations"][0]["initial_bikes"] = MAX_CAPACITY
        doc["vehicles"][0]["capacity"] = MAX_CAPACITY
        doc["routes"][0].update(capacity=MAX_CAPACITY,
                                bus_count=MAX_BUS_COUNT)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 0
        assert capsys.readouterr().out.startswith("served=")

    def test_oracle_past_all_docks_exit_1(self, tmp_path, capsys):
        # every placement of 10 bikes overfills the 4 docks, so the oracle
        # printed best_served=-1 placement=- and exited 0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 2},
                         {"id": "B", "x": 1, "y": 0, "docks": 2}],
            "vehicles": [{"capacity": 10, "initial_load": 10}]}))
        for command in (["oracle"], ["simulate", "--policy", "greedy"]):
            assert cli([*command, "--scenario", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("10 dispatchable bikes exceed the 4 docks of all "
                    "stations" in captured.err)

    def test_stop_on_two_routes_exit_1(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2"]}, {"stops": ["S2", "S3"]}],
            "vehicles": [{"capacity": 5}], "environment": [0.0],
        }))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        assert "S2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["demand_profile"]["rates"].pop("B"), "'B'"),
        (lambda d: d["demand_profile"]["rates"]["B"].pop(), "equal length"),
        (lambda d: d["demand_profile"]["bus_rates"].append(
            {"origin": "S1", "destination": "X9", "rate": 1.0}), "'X9'"),
        (lambda d: d.update(bus_script=[{"segment": 1, "origin": "X9",
                                         "destination": "S1", "count": 1}]),
         "'X9'"),
        (lambda d: d["demand_profile"]["bus_rates"].append(
            {"origin": "S2", "destination": "T2", "rate": 1.0}),
         "different routes"),
        (lambda d: d.update(bus_script=[{"segment": 1, "origin": "T1",
                                         "destination": "S3", "count": 1}]),
         "different routes"),
        (lambda d: d["demand_profile"]["rates"].update(B=0.5),
         "rates of station 'B'"),
        (lambda d: d["demand_profile"]["rates"]["A"].__setitem__(
            1, math.inf), "rates of station 'A'"),
        (lambda d: d["demand_profile"]["rates"]["B"].__setitem__(
            0, math.nan), "rates of station 'B'"),
        (lambda d: d["demand_profile"]["od_weights"][0].__setitem__(
            1, math.nan), "od_weights entries"),
        (lambda d: d["demand_profile"]["bus_rates"].append(
            {"origin": "S1", "destination": "S3", "rate": 50.0}),
         "OD 'S1'->'S3' twice"),
    ])
    def test_bad_demand_exit_1(self, edit, message, tmp_path, capsys):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2", "S3"]},
                       {"stops": ["T1", "T2"]}],
            "vehicles": [{"capacity": 5}], "environment": [0.0],
            "demand_profile": {
                "rates": {"A": [1.0, 2.0], "B": [0.5, 0.5]},
                "od_weights": [[0.0, 1.0], [1.0, 0.0]],
                "bus_rates": [{"origin": "S1", "destination": "S3",
                               "rate": 1.0}]},
        }
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        for command in (["simulate", "--policy", "headway"],
                        ["forecast", "--epochs", "1"]):
            assert cli([*command, "--scenario", str(path),
                        "--out", str(tmp_path / "out")]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(joint=[]), "joint must be an object"),
        (lambda d: d["joint"].update(enabled="yes"), "enabled"),
        (lambda d: d["joint"].update(k=0), "joint k 0"),
        (lambda d: d["joint"].update(k=2.0), "joint k 2.0"),
        (lambda d: d["joint"].update(bus_outage="sometimes"), "'sometimes'"),
        (lambda d: d["joint"].update(outage_trips={}), "list of objects"),
        (lambda d: _trip(d).update(origin="Z9"), "origin 'Z9'"),
        (lambda d: _trip(d).update(destination="Z9"), "destination 'Z9'"),
        (lambda d: _trip(d).update(segment=0), "segment 0"),
        (lambda d: _trip(d).update(segment=7), "segment 7"),
        (lambda d: _trip(d).update(segment="2"), "segment '2'"),
        (lambda d: _trip(d).update(count=-1), "count -1"),
        (lambda d: _trip(d).update(count=1.5), "count 1.5"),
    ])
    def test_bad_joint_exit_1(self, edit, message, tmp_path, capsys):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        edit(doc)
        with pytest.raises(ScenarioError, match=message):
            ScenarioSpec.from_dict(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "greedy"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["demand_script", "bus_script",
                                       "outage_trips"])
    @pytest.mark.parametrize("field, value, message", [
        ("count", -1, "count -1"),
        ("count", 2.5, "count 2.5"),
        ("count", True, "count True"),
        ("segment", 0, "segment 0"),
        ("segment", 3, "segment 3"),
        ("origin", "Z9", "origin 'Z9'"),
    ])
    def test_bad_trip_list_exit_1(self, where, field, value, message,
                                  tmp_path, capsys):
        trip = {"segment": 1, "origin": "A", "destination": "B", "count": 1}
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2"]}],
            "vehicles": [{"capacity": 5}], "environment": [0.0],
            "demand_script": [dict(trip)],
            "bus_script": [dict(trip, origin="S1", destination="S2")],
            "joint": {"bus_outage": True, "outage_trips": [dict(trip)]},
        }
        lists = {"demand_script": doc["demand_script"],
                 "bus_script": doc["bus_script"],
                 "outage_trips": doc["joint"]["outage_trips"]}
        lists[where][0][field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        assert f"{where} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["demand_script", "outage_trips"])
    def test_self_loop_bike_trip_exit_1(self, where, tmp_path, capsys):
        # a trip from A to A would count as served though no bike moves
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "fig1a.json").read_text())
        trip = {"segment": 1, "origin": "A", "destination": "A", "count": 7}
        if where == "demand_script":
            doc["demand_script"].append(trip)
        else:
            doc["joint"] = {"bus_outage": True, "outage_trips": [trip]}
        with pytest.raises(ScenarioError, match="starts where it ends"):
            ScenarioSpec.from_dict(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        assert f"{where} OD 'A' starts where it ends" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["routes"][0].update(bus_count=2.5), "bus_count 2.5"),
        (lambda d: d["routes"][0].update(bus_count="2"), "bus_count '2'"),
        (lambda d: d["routes"][0].update(bus_count=True), "bus_count True"),
        (lambda d: d["routes"][0].update(capacity="x"), "capacity 'x'"),
        (lambda d: d["routes"][0].update(capacity=2.5), "capacity 2.5"),
        (lambda d: d["vehicles"][0].update(capacity=20.5), "capacity 20.5"),
        (lambda d: d["vehicles"][0].update(initial_load=0.5),
         "initial_load 0.5"),
        (lambda d: d["stations"][0].update(docks="30"), "docks '30'"),
        (lambda d: d["stations"][0].update(docks=7.5), "docks 7.5"),
        (lambda d: d["stations"][0].update(initial_bikes=1.5),
         "initial_bikes 1.5"),
        (lambda d: d["stations"][0].update(x="a"), "coordinates"),
        (lambda d: d["clock"].update(segment_minutes="15"),
         "segment_minutes '15'"),
        (lambda d: d["clock"].update(episode_length=2.5),
         "episode_length 2.5"),
        (lambda d: d["clock"].update(episode_start="a"),
         "episode_start 'a'"),
        (lambda d: d.update(environment=[math.nan]), "environment"),
        (lambda d: d["demand_profile"]["rates"].update(B=[True, True]),
         "rates of station 'B'"),
        (lambda d: d["demand_profile"]["bus_rates"][0].update(rate=True),
         "rate True"),
    ])
    def test_bad_field_type_exit_1(self, edit, message, tmp_path, capsys):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5,
                          "initial_bikes": 1},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2"], "bus_count": 1,
                        "capacity": 10}],
            "vehicles": [{"capacity": 5, "start": "A", "initial_load": 1}],
            "environment": [0.5],
            "demand_profile": {
                "rates": {"A": [1.0, 2.0], "B": [0.5, 0.5]},
                "od_weights": [[0.0, 1.0], [1.0, 0.0]],
                "bus_rates": [{"origin": "S1", "destination": "S2",
                               "rate": 1.0}]},
        }
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(clock=[]), "clock must be an object"),
        (lambda d: d["demand_profile"]["bus_rates"].append(3),
         "bus_rates must be a list of objects"),
        (lambda d: d["stations"][0].update(id=["A"]),
         "station id ['A'] must be a string"),
        (lambda d: d["stations"].append(3),
         "stations must be a list of objects"),
        (lambda d: d["routes"].append("T1"),
         "routes must be a list of objects"),
        (lambda d: d["routes"][0]["stops"].append(["S3"]),
         "route stops must be a list of strings"),
        (lambda d: d["vehicles"][0].update(start=["A"]),
         "vehicle start station ['A'] unknown"),
        (lambda d: d.update(demand_profile=[]),
         "demand_profile must be an object"),
        (lambda d: d["demand_profile"].update(od_weights=5),
         "od_weights must be n x n"),
    ])
    def test_bad_structure_exit_1(self, edit, message, tmp_path, capsys):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2"]}],
            "vehicles": [{"capacity": 5, "start": "B"}],
            "environment": [0.5],
            "demand_profile": {
                "rates": {"A": [1.0, 2.0], "B": [0.5, 0.5]},
                "od_weights": [[0.0, 1.0], [1.0, 0.0]],
                "bus_rates": [{"origin": "S1", "destination": "S2",
                               "rate": 1.0}]},
        }
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "none"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        (["simulate", "--policy", "none"], "served=3 lost=0"),
        (["simulate", "--policy", "greedy"], "served=3 lost=0"),
        (["oracle"], "best_served=3"),
        (["eval", "--policy", "greedy", "--seeds", "0,1"], "min=3 max=3"),
    ])
    def test_bike_world_without_vehicles_runs(self, command, out, tmp_path,
                                              capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 3},
            "stations": [{"id": sid, "x": float(i), "y": 0.0, "docks": 10,
                          "initial_bikes": 5}
                         for i, sid in enumerate(["A", "B"])],
            "routes": [], "vehicles": [], "environment": [0.0],
            "demand_script": [{"segment": 1, "origin": "A",
                               "destination": "B", "count": 3}],
        }))
        assert cli([*command, "--scenario", str(path),
                    "--out", str(tmp_path / "out")]) == 0
        assert out in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", ["fig1a", "bike5"])
    def test_headway_without_bus_exit_1(self, scenario, capsys):
        assert cli(["simulate", "--scenario", scenario,
                    "--policy", "headway"]) == 1
        assert "needs a route that runs a bus" in capsys.readouterr().err

    def test_malformed_checkpoint_exit_1(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"version": 4, "meta": {}, "params": []}))
        assert cli(["eval", "--scenario", "fig1a",
                    "--checkpoint", str(path)]) == 1
        assert "obs_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["none", "greedy", "headway"])
    def test_simulate_zero_episodes_exit_1(self, policy, capsys):
        assert cli(["simulate", "--scenario", "fig1a", "--policy", policy,
                    "--episodes", "0"]) == 1
        assert "episodes must be >= 1" in capsys.readouterr().err

    def test_trained_without_checkpoint_exit_1(self, capsys):
        assert cli(["simulate", "--scenario", "fig1a",
                    "--policy", "trained"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_internal_fault_exit_2(self, tmp_path, capsys, monkeypatch):
        """A fault of the program behind the loader is a runtime failure,
        not a validation error: here the sampler emits a bus OD that the
        scenario does not declare, and the queue join fails."""
        sample_segment = envs.sample_segment

        def faulty(profile, clock, rng):
            trips, arrivals = sample_segment(profile, clock, rng)
            return trips, arrivals + [("S2", "S1", 1)]

        monkeypatch.setattr(envs, "sample_segment", faulty)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "clock": {"segment_minutes": 15, "episode_length": 2},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2"]}], "vehicles": [],
            "environment": [0.0],
            "demand_profile": {
                "rates": {"A": [1.0]}, "od_weights": [[0.0]],
                "bus_rates": [{"origin": "S1", "destination": "S2",
                               "rate": 1.0}]},
        }))
        assert cli(["simulate", "--scenario", str(path),
                    "--policy", "headway"]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_eval_trained_without_checkpoint_exit_1(self, capsys):
        assert cli(["eval", "--scenario", "fig1a", "--policy", "trained"]) == 1
        assert ("--checkpoint required for --policy trained"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, out", [
        (["simulate"], "served=13 lost=74"),
        (["eval", "--seeds", "0"], "served mean=13.00"),
    ])
    def test_baseline_episodes_option(self, command, out, capsys):
        assert cli([*command, "--scenario", "bike5", "--policy", "none",
                    "--episodes", "3"]) == 0
        assert out in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--days", "-2"), ("--days", "0"), ("--horizon", "-1"),
        ("--horizon", "0"), ("--epochs", "-3"), ("--epochs", "0"),
        ("--clusters", "0"), ("--clusters", "-5"),
    ])
    def test_forecast_count_below_1_exit_1(self, flag, value, tmp_path,
                                           capsys):
        assert cli(["forecast", "--scenario", "bike5", flag, value,
                    "--out", str(tmp_path)]) == 1
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "history.csv").exists()

    def test_forecast_emits_csvs(self, tmp_path, capsys):
        assert cli(["forecast", "--scenario", "bike5", "--days", "4",
                    "--horizon", "2", "--epochs", "5",
                    "--out", str(tmp_path)]) == 0
        assert (tmp_path / "history.csv").exists()
        assert (tmp_path / "bike_flows.csv").exists()
        assert "horizon=2" in capsys.readouterr().out

    @pytest.mark.parametrize("args, stdout, flows", [
        (["--scenario", "bike5", "--days", "4", "--horizon", "2"],
         "37d801bc1a873e7d77862ba15ec84985a776f2a047b4c69f91f1aa69fcb7a9f7",
         "66373f4f38b69ca98fb4ef61f5b721ae54707391ddba2af4feb82d5616b651bc"),
        (["--scenario", "outage", "--days", "2", "--horizon", "3",
          "--clusters", "3"],
         "f268bdd03b353bd044ff306c9ee5987ca04df786a3f4d9f6b607edb4e887c974",
         "b7ec6c73b57a0c1eb7c0f836db5f9beae22a50b910b1c66a86d83f85d6e8a965"),
    ], ids=["bike5", "outage"])
    def test_forecast_pinned_outputs(self, args, stdout, flows, tmp_path,
                                     capsys):
        """stdout and the flow CSV of two short forecasts, byte for byte.
        Both histories have stations with no departures, whose OD rows fall
        back to their cluster mates."""
        assert cli(["forecast", *args, "--epochs", "5",
                    "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == stdout
        assert hashlib.sha256((tmp_path / "bike_flows.csv").read_bytes()
                              ).hexdigest() == flows

    @pytest.mark.parametrize("args, stdout, csv", [
        (["simulate", "--episodes", "3"],
         "89627feffbfa5467671625f6949390c22cb47606a16533217c188e38aeaefb15",
         "ba97102a5fabf10d1a3b763d9bb51614f7cc12f4171245929fddfe5731321cb0"),
        (["eval", "--seeds", "0,1,2"],
         "e96f7e42469a8d2cdad78e3c68dad27aea94428a0a4d193dd889b9bd9df2b09f",
         "a5492dcde0f6f87c82342254e41e605ac809e585ad6291fd09fd64c9105b0d5a"),
    ], ids=["simulate", "eval"])
    def test_bus_report_pinned_outputs(self, args, stdout, csv, tmp_path,
                                       capsys):
        """stdout and the report CSV of the headway policy on perfbench's
        corridor, byte for byte: no bundled scenario carries a bus
        passenger, so these are the CLI's only boardings and waits."""
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(corridor_doc(0)))
        out = tmp_path / "reports.csv"
        assert cli([*args, "--scenario", str(path), "--policy", "headway",
                    "--out", str(out)]) == 0
        text = capsys.readouterr().out.encode()
        assert hashlib.sha256(text).hexdigest() == stdout
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv
