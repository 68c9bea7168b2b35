"""The benchmark's per-layer tracer must still find every layer it wraps.

``bench/spans.py`` times layers by swapping module attributes, so a refactor
that renames or deletes one of them breaks the traced benchmark. This loads
the tracer by path and checks every layer without running a workload, checks
that a traced column average still reads its solver's call and status, and
checks that one small op of each workload's kind reaches the layers that the
benchmark's smoke test requires to be live on that workload.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

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


def _cli_mean(spans, tmp_path):
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    path, out = tmp_path / "cloud.json", tmp_path / "mean.json"
    spans.grassmean.write_subspace_file(path, [v[:, None] for v in vectors])
    with contextlib.redirect_stdout(io.StringIO()):
        assert spans.cli.main(["karcher-mean", str(path), "--out", str(out),
                               "--step", "newton"]) == 0


def _default_solve(spans, tmp_path):
    rng = np.random.default_rng(12)
    frame = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    points = [spans.grassmean.projector_from_basis(
        np.linalg.qr(frame[:, :2] + 0.3 * (rng.standard_normal((5, 2))
                                           + 1j * rng.standard_normal((5, 2))))[0])
        for _ in range(8)]
    _, trace = spans.grassmean.karcher_mean(spans.grassmean.KarcherProblem(points))
    assert trace.converged and trace.iterations > 0


def _trial(spans, tmp_path):
    cfg = spans.grassmean.MixingExperiment(n=3, n_estimations=3, trials=1,
                                           samples_per_trial=300, rng_seed=4)
    (row,) = spans.grassmean.run_experiment(cfg, "noise_level", [0.5])
    assert row.status == "ok"


@pytest.mark.parametrize("op", [_cli_mean, _default_solve, _trial])
def test_each_workload_kind_reaches_its_live_layers(op, tmp_path):
    # the predicates of bench/test_smoke.py::test_idle_layers_read_zero, on
    # one traced op of each kind: the file reader runs only for the CLI, the
    # line search only for the default (backtracking) solve, source
    # generation only for a trial, and every op reaches karcher_mean
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer:
        tracer.begin_op()
        op(spans, tmp_path)
        tracer.end_op()
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert (metrics["files.read_subspace_file.calls"] > 0) == (op is _cli_mean)
    assert (metrics["karcher.linesearch.evals"] > 0) == (op is _default_solve)
    assert (metrics["blindid.generate_sources.calls"] > 0) == (op is _trial)
    assert metrics["karcher.karcher_mean.calls"] > 0
