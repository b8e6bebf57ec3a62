import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_binding_resolves():
    """perfbench's tracer wraps each binding where its owner's own
    `__dict__` holds it; a method moved into a base class is not there, so
    the traced benchmark run would fail. This reads perfbench, never edits
    it."""
    tracer = _load("perfbench_tracer", TRACER)
    missing = []
    for _, bindings in tracer.TRACED:
        for path, attr in bindings:
            module, _, cls = path.partition(".")
            owner = importlib.import_module(f"urbansched.{module}")
            owner = getattr(owner, cls) if cls else owner
            if attr not in vars(owner):
                missing.append(f"{path}.{attr}")
    assert missing == []


def test_tracer_counts_a_bike_and_a_bus_episode():
    """perfbench's traced run counts bike trips from what the world
    functions take and return, so a change to either would fail that run
    alone. Its Tracer, installed on the package, must count one city
    BikeEnv episode's trips as the env realised and served them, time one
    corridor BusEnv episode, and put every binding back on uninstall.
    This reads perfbench, never edits it."""
    import urbansched
    from urbansched import cli, ddpg, envs, forecast_bus, harness  # noqa: F401
    from urbansched.world import ScenarioSpec

    tracer_module = _load("perfbench_tracer", TRACER)
    scenarios = _load("perfbench_scenarios", PERFBENCH / "scenarios.py")
    originals = []
    for _, bindings in tracer_module.TRACED:
        for path, attr in bindings:
            owner = tracer_module._resolve(urbansched, path)
            originals.append((owner, attr, owner.__dict__[attr]))
    city = ScenarioSpec.from_dict(scenarios.city(0))
    corridor = ScenarioSpec.from_dict(scenarios.corridor(0))
    tracer = tracer_module.Tracer(urbansched, "test")
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in originals)
        bike = envs.BikeEnv(scenario=city, seed=1)
        record = ddpg.run_episode(bike, harness.NoReposition())
        bus = envs.BusEnv(scenario=corridor, seed=1,
                          reward=envs.RewardConfig(patience=97))
        ddpg.run_episode(bus, harness.StaticHeadwayPolicy())
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in originals)
    metrics = tracer.layer_metrics()
    demanded = sum(n for trips in bike.trips for _, _, n in trips)
    assert metrics["world.bike_trips_demanded"] == demanded > 0
    assert metrics["world.bike_trips_served"] == record.served > 0
    T, bus_T = city.episode_length, corridor.episode_length
    assert metrics["world.step_bike_world.calls"] == T
    assert metrics["world.step_bus_world.calls"] == bus_T
    assert metrics["demand.sample_segment.calls"] == T + bus_T
    assert metrics["world.bus_move_requests"] > 0


def test_short_training_calls_every_nn_and_ddpg_binding():
    """perfbench reports calls and self time for each function its tracer
    lists. A listed `nn` or `ddpg` function that training no longer calls,
    because it was inlined into its caller say, would read 0 there and
    hide its time in the caller's. A short `ddpg.train` on fig1a, under the
    tracer, must call each of them at least once. This reads perfbench,
    never edits it."""
    import urbansched
    from urbansched import ddpg, envs
    from urbansched.cli import resolve_scenario

    tracer_module = _load("perfbench_tracer", TRACER)
    scenario = resolve_scenario("fig1a")
    # the first episode fills the buffer; each later one acts through the
    # actor and then trains on one sampled batch
    config = ddpg.desk_config(seed=0, episodes=3, warmup_episodes=1,
                              batch_size=2, train_steps_per_episode=1,
                              exploration_eps=0.0, lstm_hidden=4,
                              actor_hidden=4, critic_hidden=4)
    tracer = tracer_module.Tracer(urbansched, "test")
    tracer.install()
    try:
        ddpg.train(lambda: envs.BikeEnv(scenario=scenario, seed=0), config)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    names = [name for name, _ in tracer_module.TRACED
             if name.startswith(("nn.", "ddpg."))]
    assert "nn.global_norm" in names and "ddpg.train_step" in names
    assert [name for name in names if metrics[f"{name}.calls"] == 0] == []
