import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "urbansched"

# Used by the acceptance tests alone, which ROADMAP item 4 keeps them for
# (acceptance 1, 3 and 4).
EXEMPT = {"harness.run_greedy_bike", "forecast_bike.DepartureModel.predict_one",
          "nn.grad_check"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function, class and
    assigned name, and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_definition_is_used_outside_itself():
    """Each name the package defines appears as a whole word in src/,
    perfbench/ or pyproject.toml outside the lines that define it; a name
    only tests use is dead code."""
    sources = {path: path.read_text().splitlines()
               for path in [*sorted((ROOT / "src").rglob("*.py")),
                            *sorted((ROOT / "perfbench").rglob("*.py")),
                            ROOT / "pyproject.toml"]}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(ast.parse(path.read_text())):
            word = qualified.rsplit(".", 1)[-1]
            if _is_dunder(word) or f"{path.stem}.{qualified}" in EXEMPT:
                continue
            pattern = re.compile(rf"\b{re.escape(word)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(pattern.search(line)
                       for source, lines in sources.items()
                       for i, line in enumerate(lines)
                       if not (source == path and i in own)):
                unused.append(f"{path.stem}.{qualified}")
    assert unused == []
