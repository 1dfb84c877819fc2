"""perfbench's tracer hooks the package's boundary functions by name."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_boundary_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for layer, names in layers.BOUNDARY.items():
        module = importlib.import_module(f"ballmoduli.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ballmoduli.{layer}.{name}"
