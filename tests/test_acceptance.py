"""Release acceptance suite.

One test per release criterion. Each prints a single PASS/FAIL line with the
measured numbers, then asserts; run with ``-v -s`` to see every line.
"""

import time

import numpy as np

from conftest import commutator, complete_frame, random_cloud, random_point, random_tangent
from grassmean.blindid import MixingExperiment, run_experiment
from grassmean.cli import main
from grassmean.files import write_subspace_file
from grassmean.grassmann import (
    basis_from_projector,
    dist,
    exp,
    geodesic,
    log,
    metric,
    parallel_transport,
    projector_from_basis,
)
from grassmean.karcher import (
    CGConfig,
    DIRECTION_RULES,
    KarcherProblem,
    karcher_cost,
    karcher_gradient,
    karcher_mean,
)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_pair(rng, max_norm=1.2):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, n))
    point = random_point(n, m, rng)
    xi = random_tangent(point, rng, norm=float(rng.uniform(0.1, max_norm)))
    return point, exp(point, xi), xi


def test_manifold_invariant_suite():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = dict.fromkeys(("projector", "ad_cubed", "transport", "roundtrip"), 0.0)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        point = random_point(n, m, rng)
        xi = random_tangent(point, rng, norm=float(rng.uniform(0.05, 0.99)))
        t = float(rng.uniform(0.1, 1.0))
        moved = geodesic(point, xi, t).matrix
        worst["projector"] = max(worst["projector"],
                                 np.linalg.norm(moved @ moved - moved))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = h + h.conj().T
        once = commutator(point.matrix, h)
        thrice = commutator(point.matrix, commutator(point.matrix, once))
        worst["ad_cubed"] = max(worst["ad_cubed"], np.linalg.norm(thrice - once))
        eta = random_tangent(point, rng)
        drift = abs(metric(parallel_transport(xi, xi, t),
                           parallel_transport(eta, xi, t)) - metric(xi, eta))
        worst["transport"] = max(worst["transport"], drift)
        back = log(point, exp(point, xi))
        worst["roundtrip"] = max(worst["roundtrip"], (back - xi).norm() / xi.norm())
    elapsed = time.perf_counter() - start
    ok = (worst["projector"] < 1e-10 and worst["ad_cubed"] < 1e-10
          and worst["transport"] < 1e-10 and worst["roundtrip"] < 1e-8)
    report("criterion 1 (manifold invariants, 1000 instances)", ok,
           "worst projector defect {projector:.2e}, ad_P^3 - ad_P {ad_cubed:.2e}, "
           "transport drift {transport:.2e}, exp/log rel err {roundtrip:.2e}, "
           "{secs:.1f}s".format(secs=elapsed, **worst))


def _dist_cos_route(point, other):
    basis = basis_from_projector(point).matrix
    lam = np.clip(np.linalg.eigvalsh(basis.conj().T @ other.matrix @ basis), 0.0, 1.0)
    return np.sqrt(2.0 * np.sum(np.arccos(np.sqrt(lam)) ** 2))


def _dist_sin_route(point, other):
    frame = complete_frame(basis_from_projector(point).matrix)
    comp = frame[:, point.rank:]
    mu = np.clip(np.linalg.eigvalsh(comp.conj().T @ other.matrix @ comp), 0.0, 1.0)
    return np.sqrt(2.0 * np.sum(np.arcsin(np.sqrt(mu)) ** 2))


def test_distance_route_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        point, other, _ = random_pair(rng)
        routes = (_dist_cos_route(point, other), _dist_sin_route(point, other),
                  log(point, other).norm())
        worst = max(worst, np.ptp(routes))
    worst_family = 0.0
    for t in np.linspace(0.01, 1.5, 50):
        a = projector_from_basis(np.array([[1.0], [0.0]], dtype=complex))
        b = projector_from_basis(np.array([[np.cos(t)], [np.sin(t)]], dtype=complex))
        worst_family = max(worst_family, abs(dist(a, b) - np.sqrt(2.0) * t))
    ok = worst < 1e-8 and worst_family < 1e-10
    report("criterion 2 (distance routes, 500 pairs)", ok,
           f"max route spread {worst:.2e}, closed-form family err {worst_family:.2e}")


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0
    for i in range(100):
        m = 2 if i % 2 == 0 else 1
        _, points = random_cloud(5, m, int(rng.integers(2, 11)), 0.5, rng)
        problem = KarcherProblem(points)
        at = exp(points[0], random_tangent(points[0], rng, norm=0.1))
        grad = karcher_gradient(problem, at)
        for _ in range(5):
            direction = random_tangent(at, rng, norm=1.0)
            fd = (karcher_cost(problem, geodesic(at, direction, h))
                  - karcher_cost(problem, geodesic(at, direction, -h))) / (2 * h)
            analytic = metric(grad, direction)
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    report("criterion 3 (gradient vs finite differences, 100 problems)",
           worst < 1e-5, f"worst rel err {worst:.2e}")


def test_solver_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_mid = 0.0
    for _ in range(25):
        point, other, xi = random_pair(rng)
        midpoint = exp(point, 0.5 * xi)
        mean, _ = karcher_mean(KarcherProblem((point, other)))
        worst_mid = max(worst_mid, dist(mean, midpoint))

    _, points = random_cloud(5, 2, 10, 0.3, rng)
    problem = KarcherProblem(points)
    worst_iters = 0
    worst_grad = 0.0
    worst_critical = 0.0
    for rule in DIRECTION_RULES:
        mean, trace = karcher_mean(problem,
                                   config=CGConfig(direction_rule=rule, max_iter=200))
        assert trace.converged, f"rule {rule} stopped with {trace.status}"
        worst_iters = max(worst_iters, trace.iterations)
        worst_grad = max(worst_grad, karcher_gradient(problem, mean).norm())
        total = log(mean, points[0])
        for datum in points[1:]:
            total = total + log(mean, datum)
        worst_critical = max(worst_critical, total.norm())
    elapsed = time.perf_counter() - start
    ok = (worst_mid < 1e-6 and worst_iters <= 200 and worst_grad < 1e-8
          and worst_critical < 1e-7 and elapsed < 60.0)
    report("criterion 4 (solver correctness)", ok,
           f"midpoint err {worst_mid:.2e}, iterations <= {worst_iters}, "
           f"grad norm {worst_grad:.2e}, critical-point residual {worst_critical:.2e}, "
           f"{elapsed:.1f}s")


def test_newton_vs_backtracking():
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    newton_not_more = 0
    for _ in range(50):
        _, points = random_cloud(5, 1, int(rng.integers(2, 11)), 0.3, rng)
        problem = KarcherProblem(points)
        mean_bt, trace_bt = karcher_mean(
            problem, config=CGConfig(step_rule="backtracking", max_iter=3000))
        mean_nt, trace_nt = karcher_mean(
            problem, config=CGConfig(step_rule="newton_cp", max_iter=3000))
        assert trace_bt.converged and trace_nt.converged
        worst_gap = max(worst_gap, dist(mean_bt, mean_nt))
        newton_not_more += trace_nt.iterations <= trace_bt.iterations
    ok = worst_gap < 1e-6 and newton_not_more >= 40
    report("criterion 5 (Newton vs backtracking, 50 problems)", ok,
           f"max mean gap {worst_gap:.2e}, Newton iterations <= backtracking "
           f"in {newton_not_more}/50")


def _median(rows, attr, key=None, value=None):
    kept = [getattr(r, attr) for r in rows
            if r.status == "ok" and (key is None or getattr(r, key) == value)]
    return float(np.median(kept))


def test_blind_identification_statistics():
    start = time.perf_counter()
    eps_values = [1.0, 0.5, 0.2, 0.1, 0.01]
    cfg = MixingExperiment(n=5, n_estimations=10, trials=100,
                           samples_per_trial=10000, rng_seed=0)
    rows = run_experiment(cfg, "noise_level", eps_values)
    gaps = []
    for eps in eps_values:
        karcher = _median(rows, "amari_karcher", "sweep_value", eps)
        euclid = _median(rows, "amari_euclid", "sweep_value", eps)
        gaps.append(euclid - karcher)
    sweep_ok = all(g >= 0.0 for g in gaps) and gaps[0] > 0.0

    cfg2 = MixingExperiment(n=5, n_estimations=2, noise_level=0.5, trials=100,
                            samples_per_trial=10000, rng_seed=0)
    rows2 = run_experiment(cfg2, "n_estimations", [2, 20])
    mono_ok = (
        _median(rows2, "amari_karcher", "sweep_value", 20)
        <= _median(rows2, "amari_karcher", "sweep_value", 2)
        and _median(rows2, "amari_euclid", "sweep_value", 20)
        <= _median(rows2, "amari_euclid", "sweep_value", 2))
    failed = sum(1 for r in rows + rows2 if r.status != "ok")
    elapsed = time.perf_counter() - start
    gap_text = " ".join(f"{g:+.3f}" for g in gaps)
    report("criterion 6 (blind identification statistics)",
           sweep_ok and mono_ok and failed == 0,
           f"median gaps (euclid - karcher) at eps {eps_values}: {gap_text}; "
           f"monotone in estimation count: {mono_ok}; failures {failed}; "
           f"{elapsed:.0f}s")


def _run_twice(argv_for, tmp_path, tag):
    blobs = []
    for run in ("x", "y"):
        out_dir = tmp_path / f"{tag}_{run}"
        out_dir.mkdir()
        files = argv_for(out_dir)
        blobs.append(tuple(path.read_bytes() for path in files))
    return blobs[0] == blobs[1]


def test_cli_determinism(tmp_path):
    rng = np.random.default_rng(105)
    _, points = random_cloud(4, 2, 5, 0.4, rng)
    src = tmp_path / "cloud.json"
    write_subspace_file(src, [basis_from_projector(p) for p in points])

    def mean_cmd(out_dir):
        out = out_dir / "mean.json"
        assert main(["karcher-mean", str(src), "--out", str(out)]) == 0
        return out, out_dir / "mean.trace.csv"

    def experiment_cmd(out_dir):
        out = out_dir / "rows.csv"
        assert main(["bi-experiment", "--n", "4", "--eps-list", "0.5",
                     "--trials", "3", "--samples", "1000", "--seed", "5",
                     "--out", str(out)]) == 0
        return (out,)

    mean_same = _run_twice(mean_cmd, tmp_path, "mean")
    experiment_same = _run_twice(experiment_cmd, tmp_path, "exp")
    report("criterion 7 (CLI determinism)", mean_same and experiment_same,
           f"karcher-mean byte-identical: {mean_same}, "
           f"bi-experiment byte-identical: {experiment_same}")
