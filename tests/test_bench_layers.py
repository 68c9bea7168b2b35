"""The benchmark's per-layer tracer must still find every layer it wraps.

``bench/spans.py`` times layers by swapping module attributes, so a refactor
that renames or deletes one of them breaks the traced benchmark. This loads
the tracer by path and checks every layer without running a workload, and
checks that a traced column average still reads its solver's call and status.
"""

import importlib.util
from pathlib import Path

import numpy as np

from grassmean.blindid import EstimateSet

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


def test_traced_column_average_counts_its_batched_solve():
    # average_karcher solves its columns in one batched karcher_mean call;
    # the tracer must still count that call and read a converged status from
    # its trace, and tracing must not change the means
    spans = load_spans()
    rng = np.random.default_rng(5)
    ref = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    noisy = ref + 0.05 * (rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4)))
    aligned = EstimateSet(noisy / np.linalg.norm(noisy, axis=1, keepdims=True))
    plain = spans.blindid.average_karcher(aligned)
    tracer = spans.Tracer()
    with tracer:
        tracer.begin_op()
        traced = spans.blindid.average_karcher(aligned)
        tracer.end_op()
    metrics = tracer.metrics()
    calls = metrics["karcher.karcher_mean.calls"][0]
    assert calls > 0
    assert metrics["karcher.karcher_mean.status.converged"][0] == calls
    assert metrics["karcher.karcher_mean.iterations"][0] > 0
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(plain, traced))
