"""A hypothesis strategy of valid scenario documents, and a plain
transcription of a document at the defaults README.md lists.

Every optional key is drawn either omitted or present, at every level:
the top-level lists and objects, each station, route and vehicle, the
clock, the demand profile and the joint settings. Test modules import
this one by name, as pytest puts `tests/` on the import path.
"""

from hypothesis import strategies as st

from urbansched.world import MAX_COORDINATE, MAX_JOINT_K

# README.md's "Scenario JSON" defaults, written once for the tests.
DEFAULTS = {"initial_bikes": 0, "initial_load": 0, "capacity": 30,
            "bus_count": 1, "segment_minutes": 15, "episode_length": 1,
            "episode_start": 0, "enabled": False, "k": 2,
            "bus_outage": False}

# small coordinates, and any up to world.MAX_COORDINATE, the cap included
_coord = st.one_of(st.integers(-50, 50),
                   st.floats(-100.0, 100.0, allow_nan=False),
                   st.sampled_from([-MAX_COORDINATE, MAX_COORDINATE]),
                   st.floats(-float(MAX_COORDINATE), float(MAX_COORDINATE)))


def _maybe(draw, doc: dict, key: str, values: st.SearchStrategy):
    """Set doc[key] to a draw of values, or leave the key out."""
    if draw(st.booleans()):
        doc[key] = draw(values)


@st.composite
def _trips(draw, places: list[str], episode_length: int) -> list[dict]:
    """A trip list over places: distinct origin and destination, a
    segment in 1..episode_length and a count >= 0."""
    if len(places) < 2:
        return []
    trips = []
    for _ in range(draw(st.integers(0, 3))):
        origin, dest = draw(st.permutations(places))[:2]
        trips.append({"segment": draw(st.integers(1, episode_length)),
                      "origin": origin, "destination": dest,
                      "count": draw(st.integers(0, 5))})
    return trips


@st.composite
def scenario_docs(draw) -> dict:
    """A scenario document that `ScenarioSpec.validate` accepts."""
    n_stations = draw(st.integers(0, 4))
    route_sizes = draw(st.lists(st.integers(2, 4), max_size=2))
    if n_stations + sum(route_sizes) < 2:
        n_stations = 2
    doc: dict = {}
    clock: dict = {}
    _maybe(draw, clock, "segment_minutes", st.one_of(
        st.integers(1, 30), st.floats(0.5, 60.0, allow_nan=False)))
    _maybe(draw, clock, "episode_length", st.integers(1, 5))
    _maybe(draw, clock, "episode_start", st.integers(-5, 200))
    _maybe(draw, doc, "clock", st.just(clock))
    length = doc.get("clock", {}).get("episode_length",
                                      DEFAULTS["episode_length"])

    ids = [f"B{i}" for i in range(n_stations)]
    stations = []
    for sid in ids:
        station = {"id": sid, "x": draw(_coord), "y": draw(_coord),
                   "docks": draw(st.integers(0, 8))}
        _maybe(draw, station, "initial_bikes",
               st.integers(0, station["docks"]))
        stations.append(station)
    if stations or draw(st.booleans()):
        doc["stations"] = stations

    routes, route_stops = [], []
    for r, size in enumerate(route_sizes):
        stops = [f"R{r}S{i}" for i in range(size)]
        route = {"stops": stops}
        _maybe(draw, route, "capacity", st.integers(1, 40))
        _maybe(draw, route, "bus_count", st.integers(0, 3))
        routes.append(route)
        route_stops.append(stops)
    if routes or draw(st.booleans()):
        doc["routes"] = routes

    vehicles = []
    for _ in range(draw(st.integers(0, 2)) if ids else 0):
        vehicle = {"capacity": draw(st.integers(1, 10))}
        _maybe(draw, vehicle, "initial_load",
               st.integers(0, vehicle["capacity"]))
        _maybe(draw, vehicle, "start", st.sampled_from(ids))
        vehicles.append(vehicle)
    if vehicles or draw(st.booleans()):
        doc["vehicles"] = vehicles

    _maybe(draw, doc, "environment", st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), max_size=2))

    if ids and draw(st.booleans()):
        width = draw(st.integers(1, 4))
        rate = st.floats(0.0, 400.0, allow_nan=False)
        weight = st.floats(0.0, 3.0, allow_nan=False)
        profile = {
            "rates": {sid: draw(st.lists(rate, min_size=width,
                                         max_size=width)) for sid in ids},
            "od_weights": [[0.0 if i == j else draw(weight) for j in ids]
                           for i in ids]}
        ods = [(o, d) for stops in route_stops for o in stops
               for d in stops if o != d]
        _maybe(draw, profile, "bus_rates", st.lists(
            st.tuples(st.sampled_from(ods), rate), max_size=4,
            unique_by=lambda e: e[0]).map(
                lambda es: [{"origin": o, "destination": d, "rate": r}
                            for (o, d), r in es]) if ods else st.just([]))
        doc["demand_profile"] = profile

    _maybe(draw, doc, "demand_script", _trips(ids, length))
    stops = draw(st.sampled_from(route_stops)) if route_stops else []
    _maybe(draw, doc, "bus_script", _trips(stops, length))

    joint: dict = {}
    _maybe(draw, joint, "enabled", st.booleans())
    _maybe(draw, joint, "k", st.integers(1, MAX_JOINT_K))
    _maybe(draw, joint, "bus_outage", st.sampled_from([True, False,
                                                       "random"]))
    _maybe(draw, joint, "outage_trips", _trips(ids, length))
    _maybe(draw, doc, "joint", st.just(joint))
    return doc


def transcribe(doc: dict) -> dict:
    """The facts a world, a clock and an env read from a document, taken
    from it directly at the DEFAULTS: per-station lists, each stop's route,
    each bus as (start stop, capacity), each vehicle as (station index,
    load, capacity), the clock and the joint settings."""
    def get(obj: dict, key: str):
        return obj.get(key, DEFAULTS[key])

    stations = doc.get("stations", [])
    ids = [s["id"] for s in stations]
    clock = doc.get("clock", {})
    joint = doc.get("joint", {})
    stop_routes, buses = [], []
    for r, route in enumerate(doc.get("routes", [])):
        buses += [(len(stop_routes), get(route, "capacity"))] * get(
            route, "bus_count")
        stop_routes += [r] * len(route["stops"])
    return {
        "available": [get(s, "initial_bikes") for s in stations],
        "docks": [s["docks"] for s in stations],
        "coords": [(float(s["x"]), float(s["y"])) for s in stations],
        "stop_routes": stop_routes,
        "buses": buses,
        "vehicles": [(ids.index(v["start"]) if "start" in v else 0,
                      get(v, "initial_load"), v["capacity"])
                     for v in doc.get("vehicles", [])],
        "clock": (get(clock, "episode_start"), get(clock, "episode_length"),
                  get(clock, "segment_minutes")),
        "environment": [float(x) for x in doc.get("environment", [])],
        "joint": (get(joint, "enabled"), get(joint, "k"),
                  get(joint, "bus_outage")),
    }
