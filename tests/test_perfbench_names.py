"""The names the benchmark's tracer wraps exist, and are restored on exit.

`perfbench/spans.py` wraps layer functions by the name their callers look
them up by. A renamed or re-bound name would otherwise fail only the
benchmark's own self-test, which runs every workload. This installs and
removes the wrappers without running one.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_restored():
    tracer = load_spans().Tracer()
    with tracer.installed():
        wrapped = list(tracer._undo)   # (owner, attribute, original), in wrap order
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
    assert not tracer._undo
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr

