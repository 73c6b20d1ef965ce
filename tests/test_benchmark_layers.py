"""The benchmark's span layers name library attributes that exist."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # spans.py alone: the benchmark's worker imports SciPy, which the
    # library does not need
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


LAYERS = _load_spans().LAYERS


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _ in LAYERS],
                         ids=[attr for _, attr, _ in LAYERS])
def test_layer_resolves_to_a_callable(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
