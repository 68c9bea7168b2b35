"""Per-layer spans recorded from outside the grassmean package.

A layer is one public function or class of a grassmean module, named
``<module>.<name>``. While a Tracer is installed, every module attribute that
is bound to a layer's object -- in the defining module, in each module that
imported it by name, and in the package namespace -- is replaced by a wrapper
that records a span (name, start, end, parent). Callers look those attributes
up at call time, so their calls go through the wrappers. ``uninstall`` puts
the original objects back.

Spans are kept in memory for one op at a time. When the op ends, each span's
self time (its duration minus the part its child spans cover) is added to its
layer's totals and the op's spans are dropped, so memory stays bounded on
long runs.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter, defaultdict

import grassmean
from grassmean import blindid, cli, files, grassmann, karcher, linalg

MODULES = {
    "blindid": blindid,
    "cli": cli,
    "files": files,
    "grassmann": grassmann,
    "karcher": karcher,
    "linalg": linalg,
}

# (defining module, attribute). The order is the order of the report.
LAYERS = (
    ("blindid", "generate_sources"),
    ("blindid", "mix"),
    ("blindid", "sut_estimate"),
    ("blindid", "align_columns"),
    ("blindid", "average_karcher"),
    ("blindid", "average_euclid"),
    ("blindid", "amari_error"),
    ("karcher", "KarcherProblem"),
    ("karcher", "default_init"),
    ("karcher", "karcher_mean"),
    ("karcher", "newton_step_cp"),
    ("karcher", "backtracking_step"),
    ("linalg", "expm_skew"),
    ("linalg", "require_hermitian"),
    ("linalg", "hermitian_eig"),
    ("grassmann", "projector_from_basis"),
    ("grassmann", "basis_from_projector"),
    ("files", "read_subspace_file"),
    ("files", "write_subspace_file"),
    ("files", "write_trace_csv"),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)
LINESEARCH_EVAL = "karcher.linesearch.eval"
STATUSES = ("converged", "max_iter", "cut_locus", "line_search_failed",
            "degenerate_curvature", "domain_error", "error", "untyped")
OP = "op"


class Tracer:
    """Records spans at layer boundaries and aggregates them per op."""

    def __init__(self):
        self.recording = False
        self._spans = []   # [name, start, end, parent index] of the current op
        self._stack = []
        self._patched = []  # (module object, attribute, original)
        self._before = {}
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.op_s = 0.0
        self.counts = Counter()
        self.iteration_gaps = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self._spans[index][2] = time.perf_counter()

    def begin_op(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.recording = True
        self._open(OP)

    def end_op(self) -> None:
        """Close the op's root span and fold its spans into the totals."""
        self._close(0)
        self.recording = False
        covered = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self._spans, covered):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child
        self.op_s += self._spans[0][2] - self._spans[0][1]
        self._spans.clear()

    def coverage(self) -> float:
        """Share of traced op wall time covered by recorded layer self times."""
        if self.op_s <= 0.0:
            return 0.0
        return 1.0 - self.self_s[OP] / self.op_s

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _objective(self, objective):
        def counted(step):
            self.counts["karcher.linesearch.evals"] += 1
            index = self._open(LINESEARCH_EVAL)
            try:
                return objective(step)
            finally:
                self._close(index)
        return counted

    def _backtracking(self, name, fn):
        plain = self._plain(name, fn)

        def wrapper(objective, *args, **kwargs):
            if self.recording:
                objective = self._objective(objective)
            return plain(objective, *args, **kwargs)
        return wrapper

    def _read_file(self, name, fn):
        plain = self._plain(name, fn)

        def wrapper(path, *args, **kwargs):
            if self.recording:
                self.counts["files.read_subspace_file.bytes"] += os.path.getsize(path)
            return plain(path, *args, **kwargs)
        return wrapper

    def _karcher_mean(self, name, fn):
        plain = self._plain(name, fn)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            user_callback = bound.arguments.get("callback")
            ticks = []

            def callback(*cb_args):
                ticks.append(time.perf_counter())
                if user_callback is not None:
                    user_callback(*cb_args)

            bound.arguments["callback"] = callback
            try:
                point, trace = plain(*bound.args, **bound.kwargs)
            except grassmean.GrassmeanError as err:
                trace = getattr(err, "trace", None)
                self._solver_done(trace.status if trace is not None else "error", trace)
                raise
            except Exception:
                self._solver_done("untyped", None)
                raise
            finally:
                self.iteration_gaps.extend(b - a for a, b in zip(ticks, ticks[1:]))
            self._solver_done(trace.status, trace)
            return point, trace
        return wrapper

    def _solver_done(self, status, trace) -> None:
        self.counts[f"karcher.karcher_mean.status.{status}"] += 1
        if trace is not None:
            self.counts["karcher.karcher_mean.iterations"] += trace.iterations

    _SPECIAL = {
        "karcher.backtracking_step": _backtracking,
        "karcher.karcher_mean": _karcher_mean,
        "files.read_subspace_file": _read_file,
    }

    @staticmethod
    def _bindings() -> dict:
        return {(module, attr): getattr(module, attr, None)
                for module in (grassmean, *MODULES.values()) for _, attr in LAYERS}

    def install(self) -> None:
        self._before = self._bindings()
        for (mod_name, attr), name in zip(LAYERS, LAYER_NAMES):
            original = getattr(MODULES[mod_name], attr)
            wrapper = self._SPECIAL.get(name, Tracer._plain)(self, name, original)
            for (module, bound_attr), value in self._before.items():
                if bound_attr == attr and value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if any binding differs from
        what it was before ``install``."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        changed = [f"{module.__name__}.{attr}"
                   for (module, attr), value in self._bindings().items()
                   if value is not self._before[module, attr]]
        if changed:
            raise RuntimeError(f"attributes not restored: {', '.join(changed)}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report ------------------------------------------------------------

    def _share(self, name: str) -> float:
        return 100.0 * self.self_s[name] / self.op_s if self.op_s > 0 else 0.0

    def metrics(self) -> dict:
        """Per-layer metrics, keyed as listed in BENCHMARK.json."""
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_pct"] = (self._share(name), "%")
        out["karcher.karcher_mean.iterations"] = (
            self.counts["karcher.karcher_mean.iterations"], "count")
        for status in STATUSES:
            key = f"karcher.karcher_mean.status.{status}"
            out[key] = (self.counts[key], "count")
        out["karcher.linesearch.evals"] = (self.counts["karcher.linesearch.evals"], "count")
        out[f"{LINESEARCH_EVAL}.self_pct"] = (self._share(LINESEARCH_EVAL), "%")
        out["files.read_subspace_file.bytes"] = (
            self.counts["files.read_subspace_file.bytes"], "B")
        gaps = self.iteration_gaps
        out["karcher.iteration_ms"] = (1e3 * statistics.median(gaps) if gaps else 0.0, "ms")
        return out

    def details(self) -> dict:
        """Absolute self times and ratios that BENCHMARK.json does not list."""
        evals = self.counts["karcher.linesearch.evals"]
        accepted = self.calls["karcher.backtracking_step"]
        return {
            "self_s": {name: self.self_s[name]
                       for name in (*LAYER_NAMES, LINESEARCH_EVAL, OP)},
            "linesearch_accept_ratio": accepted / evals if evals else None,
            "linesearch_eval_ms": (1e3 * self.self_s[LINESEARCH_EVAL]
                                   / self.calls[LINESEARCH_EVAL] if evals else None),
            "traced_op_s": self.op_s,
            "coverage": self.coverage(),
        }
