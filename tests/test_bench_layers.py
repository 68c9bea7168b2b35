"""The benchmark's per-layer tracer must still find every layer it wraps.

``bench/spans.py`` times layers by swapping module attributes, so a refactor
that renames or deletes one of them breaks the traced benchmark. This loads
the tracer by path and checks every layer without running a workload.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_and_is_restored():
    spans = load_spans()
    originals = {}
    for mod_name, attr in spans.LAYERS:
        value = getattr(spans.MODULES[mod_name], attr, None)
        assert callable(value), f"{mod_name}.{attr} is missing"
        originals[mod_name, attr] = value
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod_name, attr), original in originals.items():
            assert getattr(spans.MODULES[mod_name], attr) is not original, \
                f"{mod_name}.{attr} was not wrapped"
    finally:
        tracer.uninstall()  # raises if any binding was not put back
    for (mod_name, attr), original in originals.items():
        assert getattr(spans.MODULES[mod_name], attr) is original
