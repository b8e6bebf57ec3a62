import importlib.util
import sys
from pathlib import Path

import pytest

from urbansched import demand
from urbansched.rng import PortableRng
from urbansched.world import SegmentClock

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(mp: pytest.MonkeyPatch, name: str):
    """A perfbench module, registered under its own name while it loads:
    `workloads` imports `scenarios` by name, and its dataclasses look
    their module up."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workloads module. This reads perfbench, never edits
    it."""
    with pytest.MonkeyPatch.context() as mp:
        _load(mp, "scenarios")
        return _load(mp, "workloads")


def test_every_pin_holds(workloads):
    """Each workload's outputs for the pinned seed repeat pins.json, so a
    change that moves one fails here before a benchmark run fails on it."""
    failures = []
    for name, bench in workloads.WORKLOADS.items():
        ledger = workloads.Ledger()
        instance = bench(workloads.PIN_SEED)
        workloads.check_pins(ledger, instance.pin_values(ledger))
        assert ledger.attempted > 0, name
        failures += [f"{name}: {f}" for f in ledger.failures]
    assert failures == []


def test_corridor_sampler_day(workloads):
    """One day of the forecast workload's corridor series: every arrival
    triple lands in its stop's series, in the direction of its trip."""
    bench = workloads.ForecastCity(workloads.PIN_SEED)
    day_steps: list[list[float]] = []
    series, sample_day = bench.corridor_sampler(day_steps)
    sample_day()
    profile = demand.DemandProfile.from_dict(
        bench.corridor.demand_profile, bench.corridor.station_ids())
    stops = bench.corridor.routes[0]["stops"]
    want = {d: {sid: 0 for sid in stops} for d in ("fwd", "bwd")}
    rng = PortableRng(workloads.PIN_SEED + 1)
    per_day = profile.segments_per_day
    clock = SegmentClock(0, per_day, 0, bench.corridor.segment_minutes)
    for seg in range(per_day):
        clock.current = seg
        for origin, dest, n in demand.sample_segment(profile, clock, rng)[1]:
            d = "fwd" if stops.index(dest) > stops.index(origin) else "bwd"
            want[d][origin] += n
    assert len(day_steps) == 1 and len(day_steps[0]) == per_day
    got = {d: {sid: int(s[:per_day].sum()) for sid, s in by_stop.items()}
           for d, by_stop in series.items()}
    assert got == want
    assert sum(want["fwd"].values()) > 0 and sum(want["bwd"].values()) > 0
