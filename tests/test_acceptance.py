"""End-to-end acceptance checks for the scheduling system.

Each test records one PASS/FAIL line through the `acceptance` fixture; the
lines are echoed in the terminal summary so the suite output doubles as an
acceptance report. The learned-behavior checks train real policies and take
a few minutes of desk CPU combined.
"""

import time

import numpy as np

from urbansched import harness, nn
from urbansched.cli import resolve_scenario
from urbansched.ddpg import desk_config, run_episode, train
from urbansched.envs import BikeEnv
from urbansched.forecast_bike import DepartureModel
from urbansched.forecast_bus import reconcile
from urbansched.world import (
    ScenarioSpec, apply_reposition, build_world, step_bike_world,
)


def test_acceptance_1_fig1a_reproduction(acceptance):
    start = time.time()
    scenario = resolve_scenario("fig1a")
    placement, best = harness.run_exhaustive_bike(scenario)
    greedy = harness.run_greedy_bike(scenario).served
    none = harness.run_no_reposition(scenario).served
    elapsed = time.time() - start
    ok = (best == 20 and placement == {"A": 10, "B": 0, "C": 0}
          and greedy == 10 and none == 0 and elapsed < 10.0)
    acceptance(1, "three-station worked example", ok,
           f"best={best} at {placement}, greedy={greedy}, none={none}, "
           f"{elapsed:.1f}s")


def test_acceptance_2_long_term_learning(acceptance):
    scenario = resolve_scenario("fig1a")
    start = time.time()
    wins = 0
    finals = []
    for seed in range(5):
        eval_env = BikeEnv(scenario=scenario, seed=seed + 1000)

        def solved(episode, policy):
            _, info = run_episode(eval_env, policy)
            return info["served_total"] == 20

        config = desk_config(seed=seed, episodes=1000)
        policy, _ = train(lambda: BikeEnv(scenario=scenario, seed=seed),
                          config, progress=solved)
        _, info = run_episode(BikeEnv(scenario=scenario, seed=seed + 2000),
                              policy)
        finals.append(info["served_total"])
        if info["served_total"] == 20:
            wins += 1
    elapsed = time.time() - start
    ok = wins >= 3 and elapsed < 300.0
    acceptance(2, "learned placement beats greedy", ok,
           f"served per seed {finals}, {wins}/5 reach 20 (greedy=10), "
           f"{elapsed:.0f}s")


def test_acceptance_3_reconciliation_coherence(acceptance):
    rng = np.random.default_rng(0)
    worst_coherence = 0.0
    worst_idempotence = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        base = rng.uniform(-100, 100, size=n + 1)
        out = reconcile(base)
        worst_coherence = max(worst_coherence,
                              abs(out[0] - out[1:].sum()))
        worst_idempotence = max(worst_idempotence,
                                float(np.max(np.abs(reconcile(out) - out))))
    case = reconcile(np.array([100.0, 60.0, 30.0]))
    case_err = float(np.max(np.abs(case - [96.667, 63.333, 33.333])))
    ok = (worst_coherence <= 1e-9 and worst_idempotence <= 1e-9
          and case_err <= 1e-3)
    acceptance(3, "hierarchical forecast reconciliation", ok,
           f"coherence<={worst_coherence:.2e}, "
           f"idempotence<={worst_idempotence:.2e}, "
           f"[100,60,30] err={case_err:.2e}")


def test_acceptance_4_lstm_correctness(acceptance):
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        input_size = int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 5))
        steps = int(rng.integers(1, 5))
        params = nn.LstmParams.init(input_size, hidden, rng)
        xs = rng.normal(size=(steps, input_size))
        targets = rng.normal(size=(steps, hidden))

        def loss():
            hs, _ = nn.lstm_forward(params, xs)
            return 0.5 * float(np.sum((hs - targets) ** 2))

        hs, tape = nn.lstm_forward(params, xs)
        grads = nn.lstm_backward(params, tape, hs - targets)
        worst = max(worst, nn.grad_check(loss, params.arrays(),
                                         grads.arrays()))
    zeros = nn.LstmParams.zeros(2, 3)
    hs_zero, _ = nn.lstm_forward(zeros, np.random.default_rng(1).normal(
        size=(4, 2)))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and np.all(hs_zero == 0) and elapsed < 30.0
    acceptance(4, "recurrent gradient correctness", ok,
           f"max rel err {worst:.2e} over 20 configs, zero-param h all-zero="
           f"{bool(np.all(hs_zero == 0))}, {elapsed:.1f}s")


def test_acceptance_5_forecast_skill(acceptance):
    start = time.time()
    rng = np.random.default_rng(3)
    per_day = 24
    pattern = 4.0 + 3.0 * np.sin(2 * np.pi * np.arange(per_day) / per_day)
    series = rng.poisson(np.tile(pattern, 7)).astype(float)
    split = 6 * per_day
    model = DepartureModel.create(window=per_day, hidden=16, seed=0)
    model.fit(series[:split], epochs=1500, lr=0.3)
    errs_model, errs_naive = [], []
    for t in range(split, series.size):
        errs_model.append(model.predict_one(series[t - per_day:t])
                          - series[t])
        errs_naive.append(series[t - 1] - series[t])
    rmse_model = float(np.sqrt(np.mean(np.square(errs_model))))
    rmse_naive = float(np.sqrt(np.mean(np.square(errs_naive))))
    ratio = rmse_model / rmse_naive
    elapsed = time.time() - start
    ok = ratio <= 0.8 and elapsed < 120.0
    acceptance(5, "departure forecast beats persistence", ok,
           f"rmse {rmse_model:.3f} vs naive {rmse_naive:.3f} "
           f"(ratio {ratio:.3f} <= 0.8), {elapsed:.0f}s")


def _passive_served(scenario, seed: int, episodes: int) -> int:
    env = BikeEnv(scenario=scenario, seed=seed)
    served = 0
    for _ in range(episodes):
        env.reset()
        home = env.world.vehicles[0].location
        done = False
        while not done:
            _, _, done, info = env.step((home, 0))
        served += info["served_total"]
    return served


def test_acceptance_6_repositioning_gain(acceptance):
    scenario = resolve_scenario("bike5")
    start = time.time()
    wins = 0
    ratios = []
    for seed in range(5):
        config = desk_config(seed=seed, episodes=300,
                             train_steps_per_episode=8, warmup_episodes=50)
        policy, _ = train(lambda: BikeEnv(scenario=scenario, seed=seed),
                          config)
        trained = harness.evaluate_policy(policy, scenario, episodes=20,
                                          seed=seed + 1000).served
        baseline = _passive_served(scenario, seed + 1000, 20)
        ratio = trained / max(baseline, 1)
        ratios.append(round(ratio, 2))
        if ratio >= 1.15:
            wins += 1
    elapsed = time.time() - start
    ok = wins >= 3 and elapsed < 600.0
    acceptance(6, "repositioning beats no-reposition", ok,
           f"served ratios {ratios}, {wins}/5 >= 1.15x, {elapsed:.0f}s")


def _outage_served_per_episode(policy, scenario, joint_enabled, seed,
                               episodes=20):
    env = BikeEnv(scenario=scenario, joint_enabled=joint_enabled,
                  seed=seed + 1000)
    served = []
    for _ in range(episodes):
        _, info = run_episode(env, policy, force_outage=True)
        served.append(info["served_total"])
    return served


def test_acceptance_7_joint_mode_benefit(acceptance):
    scenario = resolve_scenario("outage")
    start = time.time()
    pooled = {True: [], False: []}
    for seed in range(3):
        for joint in (True, False):
            config = desk_config(seed=seed, episodes=400,
                                 train_steps_per_episode=8,
                                 warmup_episodes=50)
            policy, _ = train(
                lambda: BikeEnv(scenario=scenario, joint_enabled=joint,
                                seed=seed),
                config)
            pooled[joint].extend(_outage_served_per_episode(
                policy, scenario, joint, seed))
    joint_median = float(np.median(pooled[True]))
    plain_median = float(np.median(pooled[False]))
    elapsed = time.time() - start
    ok = joint_median >= plain_median
    acceptance(7, "outage-aware observation helps", ok,
           f"median served joint={joint_median} vs disabled={plain_median} "
           f"over 3 seeds x 20 outage episodes, {elapsed:.0f}s")


def _random_scenario(rng) -> ScenarioSpec:
    n = int(rng.integers(2, 6))
    ids = [chr(ord("A") + i) for i in range(n)]
    docks = [int(rng.integers(0, 12)) for _ in range(n)]
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": 10 ** 6},
        "stations": [
            {"id": sid, "x": float(rng.uniform(0, 5)),
             "y": float(rng.uniform(0, 5)), "docks": docks[i],
             "initial_bikes": int(rng.integers(0, docks[i] + 1))}
            for i, sid in enumerate(ids)
        ],
        "routes": [],
        "vehicles": [{"capacity": int(rng.integers(1, 15)), "start": ids[0],
                      "initial_load": 0}],
        "environment": [0.0],
    })


def test_acceptance_8_conservation_fuzz(acceptance):
    rng = np.random.default_rng(0)
    actions = 0
    start = time.time()
    while actions < 10 ** 5:
        scenario = _random_scenario(rng)
        world = build_world(scenario)
        ids = scenario.station_ids()
        n = len(ids)
        total = world.total_bikes()
        for _ in range(500):
            if rng.uniform() < 0.5:
                apply_reposition(world, 0, int(rng.integers(0, n)),
                                 int(rng.integers(-20, 21)))
            else:
                trips = [(ids[a], ids[b], int(rng.integers(0, 6)))
                         for a, b in rng.integers(0, n, size=(3, 2))
                         if a != b]
                step_bike_world(world, trips)
            actions += 1
            assert world.total_bikes() == total
            for s in world.bike_stations:
                assert 0 <= s.available <= s.docks
            for agent in world.agents:
                assert 0 <= agent.location < n
                assert agent.occupied + agent.remaining == agent.capacity
                assert agent.occupied >= 0 and agent.remaining >= 0
    elapsed = time.time() - start
    acceptance(8, "world invariants under fuzz", True,
           f"{actions} random actions, no violation, {elapsed:.0f}s")
