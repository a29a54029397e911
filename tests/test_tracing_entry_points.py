"""The benchmark's traced run (`perfbench/tracing.py`) wraps ptl's entry
points by name, so every name in its `ENTRY` table must still exist, as a
callable, on its `ptl.<layer>` module. A rename would otherwise surface
only when `perfbench/run.py --trace 1` runs."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"ptl.{layer}.{name}"
        for layer, names in tracing.ENTRY.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"ptl.{layer}"), name, None))
    ]
    assert missing == []
