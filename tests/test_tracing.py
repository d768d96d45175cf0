"""The benchmark's tracer wraps dqdsim functions by name; every name it
wraps must still exist, or `perfbench/run.py --trace 1` breaks."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for table in (tracing.SPANS, tracing.COUNTS)
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("module,name", _traced_names())
def test_every_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"dqdsim.{module}"), name, None))
