"""Outside-in tracer: spans around the calls the benchmark makes into each
layer of the program, recorded without editing the program.

Each traced function is wrapped at the binding its callers look up at call
time: a module attribute (for example `envs.sample_segment`, which `envs`
imported by name, as well as `demand.sample_segment`) or a class attribute
for methods. Spans are (name, start, end, parent, run id) tuples kept in
memory and written out once, when the run ends. A span's self time is its
duration minus the durations of its direct child spans; calls on one thread
nest, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time

# Traced functions as (layer name, [(owner path, attribute), ...]). The
# owner path is a module under `urbansched`, optionally followed by a class
# name; every listed binding of one function gets a wrapper that records
# spans under the same layer name.
TRACED = [
    ("nn.lstm_forward", [("nn", "lstm_forward")]),
    ("nn.lstm_backward", [("nn", "lstm_backward")]),
    ("nn.mlp_forward", [("nn", "mlp_forward")]),
    ("nn.mlp_backward", [("nn", "mlp_backward")]),
    ("nn.optimizer_step", [("nn", "optimizer_step")]),
    ("nn.global_norm", [("nn", "global_norm")]),
    ("ddpg.train_step", [("ddpg", "train_step")]),
    ("ddpg.ActorNet.forward", [("ddpg.ActorNet", "forward")]),
    ("ddpg.ActorNet.backward", [("ddpg.ActorNet", "backward")]),
    ("ddpg.ReplayBuffer.sample", [("ddpg.ReplayBuffer", "sample")]),
    ("ddpg.ReplayBuffer.push", [("ddpg.ReplayBuffer", "push")]),
    ("ddpg.soft_update", [("ddpg", "soft_update")]),
    ("ddpg.act", [("ddpg", "act")]),
    ("ddpg.decode_action", [("ddpg", "decode_action")]),
    ("demand.sample_segment", [("demand", "sample_segment"),
                               ("envs", "sample_segment"),
                               ("cli", "sample_segment")]),
    ("demand.DemandProfile.expected_od",
     [("demand.DemandProfile", "expected_od")]),
    ("demand.HistoryLog.record_trips",
     [("demand.HistoryLog", "record_trips")]),
    ("envs.BikeEnv.reset", [("envs.BikeEnv", "reset")]),
    ("envs.BikeEnv.step", [("envs.BikeEnv", "step")]),
    ("envs.bike_observe", [("envs", "bike_observe")]),
    ("world.step_bike_world", [("world", "step_bike_world")]),
    ("world.apply_reposition", [("world", "apply_reposition")]),
    ("world.build_world", [("world", "build_world")]),
    ("envs.BusEnv.reset", [("envs.BusEnv", "reset")]),
    ("envs.BusEnv.step", [("envs.BusEnv", "step")]),
    ("envs.bus_observe", [("envs", "bus_observe")]),
    ("world.step_bus_world", [("world", "step_bus_world")]),
    ("harness.StaticHeadwayPolicy.action_for",
     [("harness.StaticHeadwayPolicy", "action_for")]),
    ("forecast_bike.DepartureModel.fit",
     [("forecast_bike.DepartureModel", "fit")]),
    ("forecast_bike.DepartureModel.forecast",
     [("forecast_bike.DepartureModel", "forecast")]),
    ("forecast_bike.cluster_stations",
     [("forecast_bike", "cluster_stations")]),
    ("forecast_bus.forecast_bus", [("forecast_bus", "forecast_bus")]),
]

# Counters for the ratios: (ratio, numerator counter, denominator counter).
RATIOS = [
    ("ddpg.lstm_calls_per_actor_forward", "ddpg.actor_lstm_calls",
     "ddpg.ActorNet.forward.calls"),
    ("world.reposition_realized_ratio", "world.reposition_realized_bikes",
     "world.reposition_requested_bikes"),
    ("world.bike_trips_served_ratio", "world.bike_trips_served",
     "world.bike_trips_demanded"),
    ("world.bus_moves_clipped_ratio", "world.bus_moves_clipped",
     "world.bus_move_requests"),
]
RATIO_NAMES = {ratio for ratio, _, _ in RATIOS} | {"trace_overhead"}

# Counted by the hooks in Tracer._count_hooks.
COUNTERS = ["world.reposition_realized_bikes",
            "world.reposition_requested_bikes",
            "world.bike_trips_served", "world.bike_trips_demanded",
            "world.bus_moves_clipped", "world.bus_move_requests"]


def units(metrics: dict) -> dict[str, str]:
    """Unit of each per-layer metric, read from its name."""
    out = {}
    for name in metrics:
        if name.endswith((".self_s", ".total_s")):
            out[name] = "s"
        elif name in RATIO_NAMES:
            out[name] = "ratio"
        else:
            out[name] = "count"
    return out


def _resolve(package, path: str):
    module, _, cls = path.partition(".")
    owner = getattr(package, module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self, package, run_id: str):
        self.package = package
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _count_hooks(self):
        """Per-call counters taken where the work happens, from the
        arguments and results of the traced call."""
        W = self.package.world
        c = self.counters

        def reposition(args, kwargs, result):
            world, vehicle_id, _, quantity = args[:4]
            c["world.reposition_requested_bikes"] += abs(int(quantity))
            c["world.reposition_realized_bikes"] += abs(
                world.vehicles[vehicle_id].operation)

        def bike_step(args, kwargs, result):
            c["world.bike_trips_demanded"] += sum(n for _, _, n in args[1])
            c["world.bike_trips_served"] += result[1]

        def bus_step(args, kwargs, result):
            world, actions = args[:2]
            for bus, action in zip(world.buses, actions):
                if action != W.OP_HALT:
                    c["world.bus_move_requests"] += 1
                    if bus.operation == W.OP_HALT:
                        c["world.bus_moves_clipped"] += 1

        return {"world.apply_reposition": reposition,
                "world.step_bike_world": bike_step,
                "world.step_bus_world": bus_step}

    def install(self):
        hooks = self._count_hooks()
        for name, bindings in TRACED:
            for path, attr in bindings:
                owner = _resolve(self.package, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(name, original, hooks.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and total_s per traced function, plus counters."""
        calls = {name: 0 for name, _ in TRACED}
        total = dict.fromkeys(calls, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(calls, 0.0)
        actor_lstm = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if (name == "nn.lstm_forward" and parent >= 0
                    and self.spans[parent][0] == "ddpg.ActorNet.forward"):
                actor_lstm += 1
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total[name]
        out.update(self.counters)
        out["ddpg.actor_lstm_calls"] = actor_lstm
        for ratio, num, den in RATIOS:
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]))
                fh.write("\n")
