"""Command-line entry points tying forecasting, simulation and training
together.

Exit codes: 0 success, 1 validation error (bad arguments, malformed
scenario, missing file), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

import numpy as np

from . import forecast_bike, harness
from .ddpg import DdpgConfig, Policy, desk_config, save_curve_csv, train
from .demand import DemandProfile, HistoryLog, sample_segment
from .envs import BikeEnv
from .rng import PortableRng
from .world import ScenarioError, ScenarioSpec, SegmentClock


def resolve_scenario(name_or_path: str) -> ScenarioSpec:
    if os.path.exists(name_or_path):
        return ScenarioSpec.from_json(name_or_path)
    bundled = resources.files("urbansched.scenarios") / f"{name_or_path}.json"
    if bundled.is_file():
        return ScenarioSpec.from_dict(json.loads(bundled.read_text()))
    raise FileNotFoundError(f"scenario not found: {name_or_path}")


def _placement_str(placement: dict[str, int]) -> str:
    nonzero = {k: v for k, v in placement.items() if v > 0}
    if not nonzero:
        return "-"
    return ",".join(f"{k}:{v}" for k, v in sorted(nonzero.items()))


def cmd_oracle(args) -> int:
    scenario = resolve_scenario(args.scenario)
    placement, best = harness.run_exhaustive_bike(scenario, seed=args.seed)
    print(f"best_served={best} placement={_placement_str(placement)}")
    return 0


def cmd_simulate(args) -> int:
    scenario = resolve_scenario(args.scenario)
    if args.policy == "trained":
        if not args.checkpoint:
            raise ValueError("--checkpoint required for --policy trained")
        policy = Policy.load(args.checkpoint)
        report = harness.evaluate_policy(policy, scenario,
                                         episodes=args.episodes,
                                         seed=args.seed)
    elif args.policy == "greedy":
        report = harness.run_greedy_bike(scenario, seed=args.seed)
    elif args.policy == "none":
        report = harness.run_no_reposition(scenario, seed=args.seed)
    elif args.policy == "headway":
        report = harness.run_static_headway(scenario, seed=args.seed)
    else:
        raise ValueError(f"unknown policy {args.policy!r}")
    print(f"served={report.served} lost={report.lost} "
          f"mean_return={np.mean(report.returns):.3f}")
    if args.out:
        harness.save_reports_csv(args.out, [report])
    return 0


def cmd_eval(args) -> int:
    scenario = resolve_scenario(args.scenario)
    seeds = [int(s) for s in args.seeds.split(",")]
    policy = Policy.load(args.checkpoint) if args.checkpoint else None
    reports = harness.evaluate(args.policy, scenario, args.episodes, seeds,
                               policy=policy)
    served = [r.served for r in reports]
    print(f"policy={args.policy} seeds={len(seeds)} "
          f"served mean={np.mean(served):.2f} median={np.median(served):.2f} "
          f"min={np.min(served)} max={np.max(served)}")
    if args.out:
        harness.save_reports_csv(args.out, reports)
    return 0


def cmd_train(args) -> int:
    scenario = resolve_scenario(args.scenario)
    config = desk_config(seed=args.seed)
    if args.config:
        with open(args.config) as fh:
            config = DdpgConfig.from_dict({**json.load(fh), "seed": args.seed})
    policy, curve = train(lambda: BikeEnv(scenario=scenario, seed=config.seed),
                          config)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    policy.save(os.path.join(out, "policy.json"))
    save_curve_csv(os.path.join(out, "curve.csv"), curve)
    last = curve[-1] if curve else (0, 0.0, 0, 0, 0.0, 0.0)
    print(f"episodes={len(curve)} final_return={last[1]:.3f} "
          f"final_served={last[2]}")
    return 0


def _history_from_scenario(scenario: ScenarioSpec, days: int,
                           seed: int) -> HistoryLog:
    ids = scenario.station_ids()
    log = HistoryLog(station_ids=ids)
    if scenario.demand_profile is None:
        raise ScenarioError("forecast needs a demand_profile scenario")
    profile = DemandProfile.from_dict(scenario.demand_profile, ids)
    rng = PortableRng(seed)
    total = days * profile.segments_per_day
    clock = SegmentClock(0, total, 0, scenario.segment_minutes)
    for seg in range(total):
        clock.current = seg
        trips, _ = sample_segment(profile, clock, rng)
        log.record_trips(trips)
    return log


def cmd_forecast(args) -> int:
    scenario = resolve_scenario(args.scenario)
    log = _history_from_scenario(scenario, days=args.days, seed=args.seed)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    log.save_trips_csv(os.path.join(out, "history.csv"))
    ids = scenario.station_ids()
    coords = np.array([[s["x"], s["y"]] for s in scenario.stations])
    k = max(1, min(args.clusters, len(ids)))
    clusters = forecast_bike.cluster_stations(ids, coords, k, seed=args.seed)
    od = forecast_bike.od_probabilities(log.total_od(), ids, clusters)
    flows = []
    for sid in ids:
        series = log.departure_series(sid)
        window = min(24, max(2, series.size // 4))
        preds = forecast_bike.forecast_departures(
            series, args.horizon, window=window, seed=args.seed,
            epochs=args.epochs)
        for t in range(args.horizon):
            if len(flows) <= t:
                flows.append(np.zeros(len(ids)))
            flows[t][ids.index(sid)] = preds[t]
    flow_mats = [forecast_bike.predict_flow(dep, od, t + 1)
                 for t, dep in enumerate(flows)]
    forecast_bike.save_flows_csv(os.path.join(out, "bike_flows.csv"),
                                 flow_mats, ids)
    print(f"history_segments={log.n_segments} horizon={args.horizon} "
          f"clusters={k}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urbansched",
        description="Multi-modal transit scheduling: simulate, forecast, "
                    "train and evaluate dispatch policies.")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path or bundled name "
                            "(fig1a, bike5, outage)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="exhaustive best initial bike placement")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="run one policy on a scenario")
    common(p)
    p.add_argument("--policy", default="none",
                   choices=["none", "greedy", "headway", "trained"])
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--episodes", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="metrics across seeds")
    common(p)
    p.add_argument("--policy", default="none")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", help="train the dispatch policy")
    common(p)
    p.add_argument("--config", default=None, help="DDPG hyperparameter JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="fit forecasters and emit CSVs")
    common(p)
    p.add_argument("--days", type=int, default=4)
    p.add_argument("--horizon", type=int, default=2)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--epochs", type=int, default=30)
    p.set_defaults(func=cmd_forecast)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "func", None):
        parser.print_usage()
        return 1
    try:
        return args.func(args)
    except (ScenarioError, FileNotFoundError, ValueError,
            harness.OracleTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
