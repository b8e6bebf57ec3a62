import importlib.util
import json
from importlib import resources
from pathlib import Path

import pytest

from urbansched.envs import BikeEnv, BusEnv
from urbansched.world import ScenarioSpec

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def _generators():
    spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                  GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundled(name: str) -> dict:
    return json.loads((resources.files("urbansched.scenarios")
                       / f"{name}.json").read_text())


@pytest.mark.parametrize("source, seed", [
    *[(name, None) for name in ("fig1a", "bike5", "outage")],
    *[(kind, seed) for kind in ("city", "corridor") for seed in range(3)],
])
def test_benchmark_input_loads_and_resets(source, seed):
    """Every scenario the benchmark runs passes the validator and resets
    each env it supports, so a stricter validator fails here before it
    fails a benchmark run. This reads perfbench, never edits it."""
    doc = (_bundled(source) if seed is None
           else getattr(_generators(), source)(seed))
    spec = ScenarioSpec.from_dict(doc)
    envs = []
    if spec.vehicles:
        envs.append(BikeEnv(scenario=spec, seed=seed or 0))
    if any(r.get("bus_count", 1) for r in spec.routes):
        envs.append(BusEnv(scenario=spec, seed=seed or 0))
    assert envs
    for env in envs:
        assert env.reset().ndim == 1
