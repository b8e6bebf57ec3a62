import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_binding_resolves():
    """perfbench's tracer wraps each binding where its owner's own
    `__dict__` holds it; a method moved into a base class is not there, so
    the traced benchmark run would fail. This reads perfbench, never edits
    it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, bindings in tracer.TRACED:
        for path, attr in bindings:
            module, _, cls = path.partition(".")
            owner = importlib.import_module(f"urbansched.{module}")
            owner = getattr(owner, cls) if cls else owner
            if attr not in vars(owner):
                missing.append(f"{path}.{attr}")
    assert missing == []
