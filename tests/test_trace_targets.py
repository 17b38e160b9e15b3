"""Every function the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` reports a missing target only in its run output, so a
deleted or renamed traced function would silently read 0 in the per-layer
metrics. The module is loaded by file path because ``perfbench`` is not a
package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_trace_target_is_callable():
    targets = _trace_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for _, module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
