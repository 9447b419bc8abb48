"""The benchmark's tracer hooks name functions that exist in shiftlab."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    for layer, hooks in tracer.HOOKS.items():
        for module, attribute, _ in hooks:
            target = importlib.import_module(f"shiftlab.{module}")
            for name in attribute.split("."):
                assert hasattr(target, name), f"{layer}: shiftlab.{module}.{attribute}"
                target = getattr(target, name)
            assert callable(target), f"{layer}: shiftlab.{module}.{attribute}"
