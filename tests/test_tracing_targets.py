"""The benchmark's traced layers name functions that exist in the package."""
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _layers():
    """``LAYERS`` of perfbench/tracing.py, run from its source without
    installing the tracer or writing a bytecode cache beside it."""
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["LAYERS"]


TARGETS = sorted(target for targets, _count in _layers().values() for target in targets)


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves_against_src(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    assert Path(owner.__file__).resolve().is_relative_to(ROOT / "src")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
