import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "urbansched"

# Used by the acceptance tests alone (acceptance 1, 4 and 5), whose gates
# stay as they are (ROADMAP aim 1).
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


def test_every_field_is_read_outside_itself():
    """Each annotated field of a package class is read as `.field`, or
    passed as `field=`, in src/ or perfbench/ outside the line that
    declares it; a field that nothing reads is carried for nothing."""
    sources = {path: path.read_text().splitlines()
               for path in [*sorted((ROOT / "src").rglob("*.py")),
                            *sorted((ROOT / "perfbench").rglob("*.py"))]}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    continue
                name = item.target.id
                pattern = re.compile(rf"\.{name}\b|\b{name}=")
                if not any(pattern.search(line)
                           for source, lines in sources.items()
                           for i, line in enumerate(lines)
                           if not (source == path
                                   and i == item.lineno - 1)):
                    unread.append(f"{path.stem}.{cls.name}.{name}")
    assert unread == []


# Options only tests set: cli's argv (tests drive the CLI in process) and
# three that acceptance tests set (acceptance 7, 2 and 5).
OPTION_EXEMPT = {"cli.cli.argv", "ddpg.run_episode.force_outage",
                 "ddpg.train.progress", "forecast_bike.DepartureModel.fit.lr"}


def _calls(paths):
    """{callee name: [(keywords passed, positional count, passes *args,
    passes **kwargs)]} over the calls in paths; a callee is named by its
    last attribute."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((
                keywords - {None},
                sum(not isinstance(a, ast.Starred) for a in node.args),
                any(isinstance(a, ast.Starred) for a in node.args),
                None in keywords))
    return calls


def _options(qualified: str, node: ast.FunctionDef):
    """(callee name, [(parameter, position or None if keyword-only)]) of
    the defaulted parameters of a function or method; positions count the
    arguments a call passes, so a method's self or cls is not one."""
    args = node.args
    positional = args.posonlyargs + args.args
    if "." in qualified and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list):
        positional = positional[1:]
    name = qualified.rsplit(".", 1)[-1]
    if name == "__init__":
        name = qualified.split(".")[0]
    options = [(arg.arg, i) for i, arg in enumerate(positional)
               if i >= len(positional) - len(args.defaults)]
    options += [(arg.arg, None) for arg, default
                in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return name, options


def test_every_option_is_set_by_a_program_caller():
    """Each defaulted parameter of a package function or method is passed,
    by keyword, by position or through *args or **kwargs, by some call in
    src/ or perfbench/ to a callable of its name; an option that only
    tests set is a second form of the code to cover.

    Calls are matched by name, as the names test matches whole words: a
    call to another callable of the same name (say, another class's
    `create`) counts, so a shared name can hide an unused option."""
    calls = _calls([*sorted((ROOT / "src").rglob("*.py")),
                    *sorted((ROOT / "perfbench").rglob("*.py"))])
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(ast.parse(path.read_text())):
            where = f"{path.stem}.{qualified}"
            if (not isinstance(node, ast.FunctionDef) or where in EXEMPT
                    or _is_dunder(qualified.rsplit(".", 1)[-1])
                    and not qualified.endswith(".__init__")):
                continue
            name, options = _options(qualified, node)
            for option, position in options:
                if f"{where}.{option}" in OPTION_EXEMPT:
                    continue
                if not any(option in keywords or double or (
                        position is not None and (position < count or star))
                        for keywords, count, star, double
                        in calls.get(name, [])):
                    unset.append(f"{where}.{option}")
    assert unset == []
