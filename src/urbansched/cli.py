"""Command-line entry points tying forecasting, simulation and training
together.

Exit codes: 0 success; 1 bad input (an InputError, a missing file, a
directory named as a file, a file that is not UTF-8 JSON); 2 any other
exception, a fault of the program or of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import forecast_bike, harness
from .ddpg import DdpgConfig, Policy, desk_config, save_curve_csv, train
from .demand import HistoryLog, sample_segment
from .envs import BikeEnv
from .rng import PortableRng
from .world import InputError, ScenarioError, ScenarioSpec, SegmentClock


def resolve_scenario(name_or_path: str) -> ScenarioSpec:
    path = resources.files("urbansched.scenarios") / f"{name_or_path}.json"
    if os.path.isfile(name_or_path):
        path = Path(name_or_path)
    elif not path.is_file():
        raise FileNotFoundError(f"scenario not found: {name_or_path}")
    return ScenarioSpec.from_dict(json.loads(path.read_text()))


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


def _load_policy(args) -> Policy | None:
    """The --checkpoint policy, which --policy trained requires."""
    if args.policy == "trained" and not args.checkpoint:
        raise InputError("--checkpoint required for --policy trained")
    return Policy.load(args.checkpoint) if args.checkpoint else None


def _check_out_file(out: str | None):
    """Raise InputError unless --out, if given, can name a file to write:
    not a directory, in a directory that exists."""
    if out is None:
        return
    if os.path.isdir(out):
        raise InputError(f"--out must name a file, not the directory {out!r}")
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise InputError(f"--out must name a file in an existing directory: "
                         f"{folder!r} is not one")


def _make_out_dir(out: str | None) -> str:
    """Make and return the --out directory of train and forecast (default
    "."); raise InputError if it names a file or lies under one."""
    out = out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InputError(f"--out must name a directory: {exc}") from None
    return out


def cmd_simulate(args) -> int:
    scenario = resolve_scenario(args.scenario)
    _check_out_file(args.out)
    report = harness.evaluate(args.policy, scenario, args.episodes,
                              [args.seed], _load_policy(args))[0]
    print(f"served={report.served} lost={report.lost} "
          f"mean_return={np.mean(report.returns):.3f}")
    if args.out:
        harness.save_reports_csv(args.out, [report])
    return 0


def cmd_eval(args) -> int:
    scenario = resolve_scenario(args.scenario)
    _check_out_file(args.out)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise InputError(f"--seeds must be comma-separated integers, "
                         f"got {args.seeds!r}") from None
    reports = harness.evaluate(args.policy, scenario, args.episodes, seeds,
                               _load_policy(args))
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
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InputError("train --config must hold an object")
        if "seed" in doc:
            raise InputError("train --config takes no 'seed' key; "
                             "pass --seed instead")
        config = DdpgConfig.from_dict({**doc, "seed": args.seed})
    out = _make_out_dir(args.out)
    policy, curve = train(lambda: BikeEnv(scenario=scenario, seed=config.seed),
                          config)
    policy.save(os.path.join(out, "policy.json"))
    save_curve_csv(os.path.join(out, "curve.csv"), curve)
    last = curve[-1] if curve else (0, 0.0, 0, 0, 0.0, 0.0)
    print(f"episodes={len(curve)} final_return={last[1]:.3f} "
          f"final_served={last[2]}")
    return 0


def _history_from_scenario(scenario: ScenarioSpec, days: int,
                           seed: int) -> HistoryLog:
    profile = scenario.profile
    if profile is None:
        raise ScenarioError("forecast needs a demand_profile scenario")
    log = HistoryLog(station_ids=scenario.station_ids())
    rng = PortableRng(seed)
    segments = days * profile.segments_per_day
    clock = SegmentClock(0, segments, 0, scenario.segment_minutes)
    for seg in range(segments):
        clock.current = seg
        trips, _ = sample_segment(profile, clock, rng)
        log.record_trips(trips)
    return log


# forecast's size flags at most: --days, as a station fit takes all of
# the history's windows as one batch (its tapes hold about 13 KB a
# segment, 125 MB for 100 days of 96 segments); --horizon, as the forecast
# keeps an n x n flow matrix per segment (20 MB for 50 stations); --epochs,
# as each is one gradient step over the history (about 20 us a segment).
MAX_DAYS, MAX_HORIZON, MAX_EPOCHS = 100, 1000, 1000


def cmd_forecast(args) -> int:
    for flag, value, least, most in (
            ("--days", args.days, 1, MAX_DAYS),
            ("--horizon", args.horizon, 1, MAX_HORIZON),
            ("--epochs", args.epochs, 1, MAX_EPOCHS),
            ("--clusters", args.clusters, 1, None),
            ("--seed", args.seed, 0, None)):
        if value < least or most and value > most:
            bound = f" and at most {most}" if most else ""
            raise InputError(f"{flag} must be >= {least}{bound}, got {value}")
    scenario = resolve_scenario(args.scenario)
    out = _make_out_dir(args.out)
    log = _history_from_scenario(scenario, days=args.days, seed=args.seed)
    # a fit takes windows of at least 2 segments, each with a next one
    if log.n_segments < 3:
        raise InputError(f"forecast needs at least 3 history segments, "
                         f"got {log.n_segments}; raise --days")
    log.save_trips_csv(os.path.join(out, "history.csv"))
    ids = scenario.station_ids()
    k = min(args.clusters, len(ids))
    clusters = forecast_bike.cluster_stations(ids, scenario.coords, k,
                                              seed=args.seed)
    od = forecast_bike.od_probabilities(log.total_od(), ids, clusters)
    departures = np.zeros((args.horizon, len(ids)))
    for i, sid in enumerate(ids):
        series = log.departure_series(sid)
        window = min(24, max(2, series.size // 4))
        departures[:, i] = forecast_bike.forecast_departures(
            series, args.horizon, window=window, seed=args.seed,
            epochs=args.epochs)
    flow_mats = [forecast_bike.predict_flow(dep, od, t + 1)
                 for t, dep in enumerate(departures)]
    forecast_bike.save_flows_csv(os.path.join(out, "bike_flows.csv"),
                                 flow_mats, ids)
    print(f"history_segments={log.n_segments} horizon={args.horizon} "
          f"clusters={k}")
    return 0


EPISODES_HELP = ("episodes per seed; served, lost, vehicle_distance and "
                 "bus_drive_time are summed over them, mean_return is "
                 "their mean, and mean_wait_minutes is their total "
                 "reduced wait over their total boardings")


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
    p.add_argument("--episodes", type=int, default=1, help=EPISODES_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="metrics across seeds")
    common(p)
    p.add_argument("--policy", default="none")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--episodes", type=int, default=1, help=EPISODES_HELP)
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
    except (InputError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
