import ast
import importlib
import re
from fnmatch import fnmatch
from pathlib import Path

from urbansched import world
from urbansched.world import InputError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "urbansched"
README = PACKAGE.parents[1] / "README.md"

# Where a scenario enters the program, as module.qualified name patterns:
# the loader and its helpers, the reposition request, a profile built
# directly, and the three places that need more of a scenario than the
# loader asks: the oracle, placement (every bike docked, which the oracle
# and greedy placement share) and the forecast's history. Behind them
# every scenario fact is settled, so a failure there is a fault of the
# program (exit 2), never bad input (exit 1).
SCENARIO_CHECKS = ["world.ScenarioSpec.*", "world._check_*",
                   "world.apply_reposition",
                   "demand.DemandProfile.__post_init__",
                   "harness.run_exhaustive_bike", "harness._placeable_bikes",
                   "cli._history_from_scenario"]

# Where every other input enters: a DDPG config, a checkpoint and the
# scenario its policy runs on, an evaluation request, a bus scenario for a
# BusEnv, the --out file of simulate and eval, and the flags each command
# reads.
INPUT_CHECKS = SCENARIO_CHECKS + [
    "ddpg.DdpgConfig.__post_init__", "ddpg.DdpgConfig.from_dict",
    "ddpg.Policy.load", "ddpg.Policy.begin_episode",
    "ddpg.Policy.action_for", "harness.evaluate",
    "envs.BusEnv.__post_init__", "cli._load_policy", "cli._check_out_file",
    "cli._make_out_dir",
    "cli.cmd_eval", "cli.cmd_train", "cli.cmd_forecast"]


# The keys of a scenario document outside its demand profile, whose
# format `DemandProfile.from_dict` owns. `world.ScenarioSpec` reads them
# and resolves each default once; the other modules read what it resolved.
SCENARIO_KEYS = {
    "stations", "routes", "vehicles", "clock", "environment",
    "demand_script", "demand_profile", "bus_script", "joint", "id", "x",
    "y", "docks", "initial_bikes", "stops", "capacity", "bus_count",
    "start", "initial_load", "segment_minutes", "episode_length",
    "episode_start", "enabled", "k", "bus_outage", "outage_trips"}


def scenario_key_gets(tree: ast.AST) -> list[str]:
    """`.get` calls in tree whose first argument is a scenario key."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in SCENARIO_KEYS]


def input_error_names() -> set[str]:
    """InputError and each class of the package derived from it."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"urbansched.{path.stem}")
        names.update(name for name, obj in vars(module).items()
                     if isinstance(obj, type) and issubclass(obj, InputError))
    return names


def _raises(node: ast.AST, names: set[str]) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return (isinstance(exc, ast.Name) and exc.id in names
            or isinstance(exc, ast.Attribute) and exc.attr in names)


def error_sites(names: set[str]):
    """module.name of each top-level function, or class.member, that
    contains a `raise` of one of the exception classes names."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            members = ([(f"{top.name}.{getattr(m, 'name', '?')}", m)
                        for m in top.body] if isinstance(top, ast.ClassDef)
                       else [(getattr(top, "name", "?"), top)])
            for name, member in members:
                if any(_raises(node, names) for node in ast.walk(member)):
                    yield f"{path.stem}.{name}"


def test_scenario_errors_raise_only_where_input_enters():
    sites = set(error_sites({"ScenarioError"}))
    assert "world.ScenarioSpec.validate" in sites
    assert sorted(site for site in sites
                  if not any(fnmatch(site, p) for p in SCENARIO_CHECKS)) == []


def test_input_errors_raise_only_where_input_enters():
    names = input_error_names()
    assert {"InputError", "ScenarioError", "OracleTooLarge"} <= names
    sites = set(error_sites(names))
    assert {"ddpg.Policy.load", "cli.cmd_forecast"} <= sites
    assert sorted(site for site in sites
                  if not any(fnmatch(site, p) for p in INPUT_CHECKS)) == []


def test_cli_exits_1_on_bad_input_alone():
    """The handler of cli.cli that returns 1 names InputError and the
    errors of reading an input file, never ValueError or Exception, so
    that a fault of the program exits 2."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    cli = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "cli")
    handlers = [handler for node in ast.walk(cli)
                if isinstance(node, ast.Try) for handler in node.handlers
                if any(isinstance(n, ast.Return)
                       and isinstance(n.value, ast.Constant)
                       and n.value.value == 1 for n in ast.walk(handler))]
    assert len(handlers) == 1
    caught = handlers[0].type
    assert isinstance(caught, ast.Tuple)
    assert sorted(map(ast.unparse, caught.elts)) == sorted([
        "InputError", "FileNotFoundError", "IsADirectoryError",
        "json.JSONDecodeError", "UnicodeDecodeError"])


def test_scenario_keys_are_read_in_world_alone():
    """No module but world.py reads a scenario key with `.get`, so each
    optional key's default is written once, where the document is
    validated."""
    assert scenario_key_gets(ast.parse(
        "joint.get('k', 2) + route.get('bus_count', 1) + d.get('rate')")
    ) == ["joint.get('k', 2)", "route.get('bus_count', 1)"]
    reads = {path.stem: scenario_key_gets(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert reads.pop("world")
    assert {stem: gets for stem, gets in reads.items() if gets} == {}


def readme_section(title: str) -> str:
    """README.md's `## title` section, up to the next `## ` heading."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def stated_caps(text: str) -> dict[str, set[int]]:
    """Each `world.MAX_*` name in text that a parenthesised value follows,
    written as an integer or a power such as 10**4, with the values
    stated for it."""
    caps: dict[str, set[int]] = {}
    for name, base, power in re.findall(
            r"`world\.(MAX_\w+)` \((\d+)(?:\*\*(\d+))?", text):
        caps.setdefault(name, set()).add(int(base) ** int(power or 1))
    return caps


def test_every_world_cap_is_listed_with_its_value():
    """Every world.MAX_* constant appears in README's Scenario JSON
    section with its value, and with no other value."""
    assert stated_caps("`world.MAX_A` (10**4; `world.MAX_B` (2) and "
                       "1..`world.MAX_C`.") == {"MAX_A": {10 ** 4},
                                                "MAX_B": {2}}
    caps = {name: value for name, value in vars(world).items()
            if name.startswith("MAX_")}
    assert {"MAX_RATE", "MAX_EPISODE_LENGTH", "MAX_JOINT_K", "MAX_CAPACITY",
            "MAX_BUS_COUNT"} <= set(caps)
    stated = stated_caps(readme_section("Scenario JSON"))
    assert {name: stated.get(name) for name in caps} == {
        name: {value} for name, value in caps.items()}
