"""Seeded scenario generators for the benchmark workloads.

Both generators draw from `random.Random` seeded with a string, which
Python hashes with SHA-512, so a seed gives the same document on every
machine and every run. The program only ever sees the generated document.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

SEGMENTS_PER_DAY = 96  # 15-minute segments
CITY_STATIONS = 50
CORRIDOR_STOPS = 30
# Expected demand is scaled to these totals, so that every seed asks the
# same amount of work of the program and only its layout varies.
CITY_TRIPS_PER_DAY = 2400.0
CORRIDOR_ARRIVALS_PER_SEGMENT = 90.0


def city(seed: int) -> dict:
    """A 50-station bike city with one dispatch vehicle and a daily
    Poisson demand profile with morning and evening peaks."""
    r = random.Random(f"city:{seed}")
    ids = [f"S{i:02d}" for i in range(CITY_STATIONS)]
    coords = [(round(r.uniform(0, 10), 3), round(r.uniform(0, 10), 3))
              for _ in ids]
    stations = []
    for sid, (x, y) in zip(ids, coords):
        docks = r.randint(15, 40)
        stations.append({"id": sid, "x": x, "y": y, "docks": docks,
                         "initial_bikes": docks // 2})
    raw = {}
    for sid in ids:
        base = r.uniform(0.2, 1.2)
        morning = r.uniform(0.5, 2.5)
        evening = r.uniform(0.5, 2.5)
        raw[sid] = [base * (0.3
                            + morning * math.exp(-((t / 4 - 8.0) / 1.5) ** 2)
                            + evening * math.exp(-((t / 4 - 17.5) / 1.5) ** 2))
                    for t in range(SEGMENTS_PER_DAY)]
    scale = CITY_TRIPS_PER_DAY / sum(map(sum, raw.values()))
    rates = {sid: [round(v * scale, 3) for v in row]
             for sid, row in raw.items()}
    pull = [r.uniform(0.5, 2.0) for _ in ids]
    od_weights = [
        [0.0 if i == j
         else round(pull[j] * math.exp(-math.dist(a, b) / 3.0), 4)
         for j, b in enumerate(coords)]
        for i, a in enumerate(coords)]
    return {
        "clock": {"segment_minutes": 15, "episode_length": SEGMENTS_PER_DAY},
        "stations": stations,
        "routes": [],
        "vehicles": [{"capacity": 20, "start": ids[0], "initial_load": 10}],
        "environment": [0.5],
        "demand_profile": {"rates": rates, "od_weights": od_weights},
    }


def corridor(seed: int) -> dict:
    """One 30-stop bus route with dense constant OD arrival rates.

    The two zero-rate bike stations are there because a demand profile
    without stations passes validation but fails at `BusEnv.reset`; the
    single route avoids buses crossing onto another route. Both are open
    defects of the program (see README.md).
    """
    r = random.Random(f"corridor:{seed}")
    stops = [f"P{i:02d}" for i in range(CORRIDOR_STOPS)]
    pairs = [(o, d) for o in stops for d in stops if o != d]
    raw = [r.uniform(0.03, 0.17) for _ in pairs]
    scale = CORRIDOR_ARRIVALS_PER_SEGMENT / sum(raw)
    bus_rates = [{"origin": o, "destination": d, "rate": round(v * scale, 4)}
                 for (o, d), v in zip(pairs, raw)]
    return {
        "clock": {"segment_minutes": 15, "episode_length": SEGMENTS_PER_DAY},
        "stations": [
            {"id": "B0", "x": 0.0, "y": 0.0, "docks": 10, "initial_bikes": 0},
            {"id": "B1", "x": 1.0, "y": 0.0, "docks": 10, "initial_bikes": 0},
        ],
        "routes": [{"stops": stops, "capacity": 60, "bus_count": 1}],
        "vehicles": [],
        "environment": [0.5],
        "demand_profile": {
            "rates": {"B0": [0.0] * SEGMENTS_PER_DAY,
                      "B1": [0.0] * SEGMENTS_PER_DAY},
            "od_weights": [[0.0, 0.0], [0.0, 0.0]],
            "bus_rates": bus_rates,
        },
    }


def sha256(doc: dict) -> str:
    """Digest of the canonical JSON form of a scenario document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
