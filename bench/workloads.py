"""The benchmark's three closed-loop workloads.

Each workload is driven by one caller in one process: it sends its next op
only after the previous one returned. Inputs come from the workload seed and
the op index alone, so the same seed gives the same inputs, and the program
sees only the generated inputs. The benchmark reaches grassmean only through
the package namespace and ``grassmean.cli``, looked up at call time, so the
tracer's wrappers are seen.

An op returns a value that ``check`` validates and ``digest`` reduces to
something comparable exactly (traced against untraced). A typed solver stop
raises ``OpFailed`` with its status; an output that fails its check raises
``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

import numpy as np

import grassmean
import grassmean.cli


class OpFailed(Exception):
    """The program stopped the op with a typed status."""

    def __init__(self, status: str):
        super().__init__(status)
        self.status = status


class CheckFailed(Exception):
    """The op returned, but its output failed the benchmark's check."""


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


class BiTrials:
    """One paper-configuration blind-identification trial per op.

    n=5 sources, 10 estimations of 10 000 samples each, noise level 0.5, run
    through ``run_experiment`` with a distinct ``rng_seed`` per trial. This is
    the paper's experiment and most of the acceptance-test time; it exercises
    source generation, SUT estimation and 50 tiny rank-one Newton solves per
    trial, while the line search and the file layer stay idle.
    """

    name = "bi-trials"
    cycle = 1

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.n_estimations = 3 if smoke else 10
        self.samples = 1000 if smoke else 10000

    def make_input(self, k: int) -> grassmean.MixingExperiment:
        trial_seed = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        return grassmean.MixingExperiment(
            n=5, n_estimations=self.n_estimations, noise_level=0.5, trials=1,
            samples_per_trial=self.samples, rng_seed=trial_seed)

    def op(self, cfg):
        (row,) = grassmean.run_experiment(cfg, "noise_level", [cfg.noise_level])
        if row.status != "ok":
            raise OpFailed(row.status)
        return row.amari_karcher, row.amari_euclid

    def check(self, cfg, output) -> None:
        for score in output:
            if not (np.isfinite(score) and score >= 0.0):
                raise CheckFailed(f"Amari error {score!r} is not a finite nonnegative number")

    def digest(self, output):
        return output

    def summary(self, outputs) -> dict:
        """Run-level accuracy: the paper's headline is a nonnegative gap."""
        if not outputs:
            return {}
        karcher_scores = [k for k, _ in outputs]
        gaps = [e - k for k, e in outputs]
        gap = statistics.median(gaps)
        if gap < 0.0:
            raise CheckFailed(f"median Euclid - Karcher Amari gap {gap:.4g} is negative")
        return {"amari_karcher_median": statistics.median(karcher_scores),
                "amari_gap_median": gap, "amari_trials": len(outputs)}


def _unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def _cloud(n: int, m: int, count: int, radius: float, rng) -> tuple:
    """``count`` points at geodesic distance 0.2..1 x ``radius`` from a random center."""
    center = grassmean.projector_from_basis(_unitary(n, rng)[:, :m])
    points = []
    for _ in range(count):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        xi = grassmean.tangent_project(center, z + z.conj().T)
        points.append(grassmean.exp(center, xi * (rng.uniform(0.2, 1.0) * radius / xi.norm())))
    return tuple(points)


class KarcherCloud:
    """``KarcherProblem`` plus ``karcher_mean`` under the default config.

    The default config is backtracking with the Hestenes-Stiefel rule. One
    cycle solves one seeded cloud of radius 0.5 at each (n, m, N) grid point.
    The grid is mostly m >= 2, spans N over 10x and has one rank-one
    backtracking case, so it exercises the line search, the per-datum rank-m
    loops and the way cost grows with N, while the blind-identification and
    file layers stay idle. Larger N is left out: there the solver stops with
    LineSearchFailedError on some clouds (from about N = 40), and one op would
    take seconds.
    """

    name = "karcher-cloud"
    GRID = ((6, 3, 3), (5, 2, 5), (6, 3, 10), (4, 2, 20), (5, 1, 30))
    SMOKE_GRID = ((4, 1, 6), (4, 2, 6))
    RADIUS = 0.5

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.grid = self.SMOKE_GRID if smoke else self.GRID
        self.cycle = len(self.grid)
        self.grad_tol = grassmean.CGConfig().grad_tol

    def make_input(self, k: int) -> tuple:
        n, m, count = self.grid[k % self.cycle]
        return _cloud(n, m, count, self.RADIUS, _stream(self.seed, k))

    def op(self, points):
        problem = grassmean.KarcherProblem(points)
        try:
            point, trace = grassmean.karcher_mean(problem)
        except grassmean.GrassmeanError as err:
            trace = getattr(err, "trace", None)
            raise OpFailed(trace.status if trace is not None else type(err).__name__) from err
        if not trace.converged:
            raise OpFailed(trace.status)
        return problem, point, trace

    def check(self, points, output) -> None:
        """Re-check stationarity through the public ``log``."""
        _, point, _ = output
        total = sum(grassmean.log(point, q).matrix for q in points)
        residual = float(np.linalg.norm(total))
        if not residual < self.grad_tol:
            raise CheckFailed(f"summed log norm {residual:.3g} is not below {self.grad_tol:g}")

    def digest(self, output):
        _, point, trace = output
        return point.matrix.tobytes(), trace.iterations

    def summary(self, outputs) -> dict:
        """Per grid point: median time of one public cost and gradient call
        at the computed mean, and the median iteration count."""
        table = {}
        for n, m, count in self.grid:
            solved = [(problem, point, trace) for problem, point, trace in outputs
                      if (problem.dim, problem.rank, problem.size) == (n, m, count)]
            if not solved:
                continue
            problem, point, _ = solved[0]
            table[f"{n},{m},{count}"] = {
                "cost_ms": _median_ms(grassmean.karcher_cost, problem, point),
                "gradient_ms": _median_ms(grassmean.karcher_gradient, problem, point),
                "iterations": statistics.median(t.iterations for _, _, t in solved),
            }
        return {"grid": table}


def _median_ms(fn, *args, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


class CliFileMean:
    """``grassmean karcher-mean FILE --out mean.json --step newton``, in process.

    The input is one generated file of 1000 rank-one bases in C^8, and every
    op averages it again. This exercises the file layer and per-datum
    conversion at large N with one big solve, where ``bi-trials`` runs many
    tiny ones. ``--step newton`` is the documented rule for one-dimensional
    subspaces.
    """

    name = "cli-file-mean"
    cycle = 1
    DIST_TOL = 1e-8

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        n, count = (4, 50) if smoke else (8, 1000)
        rng = _stream(seed)
        center = _unitary(n, rng)[:, 0]
        noise = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        vectors = center + 0.3 * noise / np.sqrt(2 * n)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        bases = [v[:, None] for v in vectors]
        self.path = os.path.join(workdir, "cloud.json")
        self.out = os.path.join(workdir, "mean.json")
        grassmean.write_subspace_file(self.path, bases)
        stored = grassmean.read_subspace_file(self.path)
        problem = grassmean.KarcherProblem(
            tuple(grassmean.projector_from_basis(b) for b in stored))
        self.reference, _ = grassmean.karcher_mean(
            problem, config=grassmean.CGConfig(step_rule="newton_cp"))
        self.expected_bytes = None
        self.dist_reading = None

    def make_input(self, k: int) -> str:
        return self.path

    def op(self, path):
        if os.path.exists(self.out):
            os.remove(self.out)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = grassmean.cli.main(["karcher-mean", path, "--out", self.out,
                                       "--step", "newton"])
        if code != 0:
            raise OpFailed(f"exit_{code}: {err.getvalue().strip()}")
        with open(self.out, "rb") as handle:
            return handle.read()

    def check(self, path, output) -> None:
        """Closeness to the library mean, and byte-identical output across ops.

        Closeness is the chordal distance |P - P_ref|_F, which equals the
        geodesic distance to first order. ``grassmean.dist`` takes angles as
        arccos(sqrt(cos^2)) and cannot resolve angles below about 1e-8, so
        near-identical subspaces read about 2e-8 there; that reading is
        reported in ``summary`` rather than checked.
        """
        (basis,) = grassmean.read_subspace_file(self.out)
        point = grassmean.projector_from_basis(basis)
        gap = float(np.linalg.norm(point.matrix - self.reference.matrix))
        if not gap <= self.DIST_TOL:
            raise CheckFailed(f"CLI mean is {gap:.3g} from the library mean")
        if self.expected_bytes is None:
            self.expected_bytes = output
            self.dist_reading = grassmean.dist(point, self.reference)
        elif output != self.expected_bytes:
            raise CheckFailed("mean.json differs from the first op's bytes")

    def digest(self, output):
        return output

    def summary(self, outputs) -> dict:
        return {"library_dist_reading": self.dist_reading}


WORKLOADS = {cls.name: cls for cls in (BiTrials, KarcherCloud, CliFileMean)}
