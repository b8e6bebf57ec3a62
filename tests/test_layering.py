import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "urbansched"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def load_imports(body: list[ast.stmt]) -> set[str]:
    """The package modules that the statements import when a module
    loads: relative imports and `urbansched.` ones, in the module's body
    and in its top-level `if` and `try` blocks, but not under
    `if TYPE_CHECKING:` nor inside a function or class."""
    found = set()
    for node in body:
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith(
                "TYPE_CHECKING"):
            found |= load_imports(node.orelse)
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody",
                                                           [])):
                found |= load_imports(block)
            for handler in getattr(node, "handlers", []):
                found |= load_imports(handler.body)
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("urbansched.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "urbansched":
                parts = parts[1:]
            elif node.level != 1:
                continue
            found |= ({parts[0]} if parts and parts[0] else
                      {alias.name for alias in node.names})
    return found & MODULES


def import_graph() -> dict[str, set[str]]:
    return {stem: load_imports(ast.parse(
        (PACKAGE / f"{stem}.py").read_text()).body) for stem in MODULES}


def test_load_imports_reads_relative_and_absolute_forms():
    source = ("from . import world as W, nn\n"
              "from .demand import sample_segment\n"
              "import urbansched.rng\n"
              "from urbansched.harness import evaluate\n"
              "from urbansched import cli\n"
              "import numpy, json\n"
              "if TYPE_CHECKING:\n    from .envs import BikeEnv\n"
              "def f():\n    from . import ddpg\n")
    assert load_imports(ast.parse(source).body) == {
        "world", "nn", "demand", "rng", "harness", "cli"}


def test_package_imports_form_no_cycle():
    """Each module loads after the modules it imports: a cycle makes the
    first import's names depend on the order modules are loaded in."""
    graph = import_graph()
    done: set[str] = set()

    def visit(stem: str, path: list[str]):
        assert stem not in path, " -> ".join(path + [stem])
        if stem not in done:
            for dep in sorted(graph[stem]):
                visit(dep, path + [stem])
            done.add(stem)

    for stem in sorted(graph):
        visit(stem, [])


def test_rng_and_demand_sit_at_the_bottom():
    """`rng` imports no package module, and `demand` only `rng`: the
    demand profile trusts the scenario loader in `world` and never calls
    back into it, so `world` can build it."""
    graph = import_graph()
    assert graph["rng"] == set()
    assert graph["demand"] == {"rng"}
    assert "demand" in graph["world"]


def test_world_builds_expected_demand_without_a_cycle():
    """`forecast_bike` imports only `nn`, so `world` can import its
    `encode_flow` to build a scenario's expected demand, and `envs` reads
    that demand from the scenario instead of encoding it again."""
    graph = import_graph()
    assert graph["forecast_bike"] == {"nn"}
    assert graph["nn"] == set()
    assert "forecast_bike" in graph["world"]
    assert "forecast_bike" not in graph["envs"]
