import ast
from fnmatch import fnmatch
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "urbansched"

# Where a scenario enters the program, as module.qualified name patterns:
# the loader and its helpers, the reposition request, a profile built
# directly, and the two commands that need more of a scenario than the
# loader asks. Behind them every scenario fact is settled, so a failure
# there is a fault of the program (exit 2), never bad input (exit 1).
SCENARIO_CHECKS = ["world.ScenarioSpec.*", "world._check_*",
                   "world.apply_reposition",
                   "demand.DemandProfile.__post_init__",
                   "harness.run_exhaustive_bike",
                   "cli._history_from_scenario"]


def _raises_scenario_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return (isinstance(exc, ast.Name) and exc.id == "ScenarioError"
            or isinstance(exc, ast.Attribute) and exc.attr == "ScenarioError")


def scenario_error_sites():
    """module.name of each top-level function, or class.member, that
    contains a `raise ScenarioError`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            members = ([(f"{top.name}.{getattr(m, 'name', '?')}", m)
                        for m in top.body] if isinstance(top, ast.ClassDef)
                       else [(getattr(top, "name", "?"), top)])
            for name, member in members:
                if any(map(_raises_scenario_error, ast.walk(member))):
                    yield f"{path.stem}.{name}"


def test_scenario_errors_raise_only_where_input_enters():
    sites = set(scenario_error_sites())
    assert "world.ScenarioSpec.validate" in sites
    assert sorted(site for site in sites
                  if not any(fnmatch(site, p) for p in SCENARIO_CHECKS)) == []
