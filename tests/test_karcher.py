import numpy as np
import pytest

from conftest import random_cloud, random_point, random_tangent, random_unitary
from grassmean.exceptions import (
    CutLocusError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from grassmean.grassmann import (
    GrassmannPoint,
    TangentVector,
    dist,
    exp,
    geodesic,
    log,
    metric,
    parallel_transport,
    projector_from_basis,
    zero_tangent,
)
from grassmean.karcher import (
    CGConfig,
    KarcherProblem,
    _coefficient,
    backtracking_step,
    default_init,
    karcher_cost,
    karcher_gradient,
    karcher_mean,
    newton_step_cp,
)

RULES = ("hs", "pr", "fr", "dy", "star")


def ball_problem(n, m, count, radius, seed):
    rng = np.random.default_rng(seed)
    center, points = random_cloud(n, m, count, radius, rng)
    return center, KarcherProblem(points)


def test_problem_validation():
    with pytest.raises(InvalidInputError):
        KarcherProblem(())
    rng = np.random.default_rng(0)
    p = random_point(4, 2, rng)
    q = random_point(5, 2, rng)
    with pytest.raises(InvalidInputError):
        KarcherProblem((p, q))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        CGConfig(direction_rule="cg")
    with pytest.raises(InvalidInputError):
        CGConfig(step_rule="exact")
    with pytest.raises(InvalidInputError):
        CGConfig(armijo_c=1.5)
    with pytest.raises(InvalidInputError):
        CGConfig(max_iter=0)


def test_cost_is_mean_squared_distance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        _, points = random_cloud(n, m, 5, 0.6, rng)
        problem = KarcherProblem(points)
        at = random_point(n, m, rng)
        try:
            value = karcher_cost(problem, at)
        except CutLocusError:
            continue
        ref = np.mean([dist(at, q) ** 2 for q in points])
        assert abs(value - ref) < 1e-10 * max(1.0, ref)


@pytest.mark.parametrize("rank", [1, 2])
def test_cost_raises_at_cut_locus_with_index(rank):
    # the evaluation point spans the first ``rank`` axes of C^3; the third
    # datum swaps its last axis for e_3, one principal angle of pi/2
    at = GrassmannPoint(np.diag([1.0] * rank + [0.0] * (3 - rank)))
    cut = GrassmannPoint(np.diag([1.0] * (rank - 1) + [0.0] * (3 - rank) + [1.0]))
    rng = np.random.default_rng(24)
    near = exp(at, random_tangent(at, rng, 0.3))
    problem = KarcherProblem((near, at, cut, at))
    with pytest.raises(CutLocusError) as info:
        karcher_cost(problem, at)
    assert info.value.index == 2
    with pytest.raises(CutLocusError) as info:
        karcher_gradient(problem, at)
    assert info.value.index == 2


def test_gradient_is_mean_of_negative_logs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        center, points = random_cloud(n, m, 6, 0.5, rng)
        problem = KarcherProblem(points)
        grad = karcher_gradient(problem, center)
        ref = np.zeros((n, n), dtype=complex)
        for q in points:
            ref -= (2.0 / len(points)) * log(center, q).matrix
        assert np.linalg.norm(grad.matrix - ref) < 1e-9


def test_gradient_single_point_scale():
    # one datum at distance d gives gradient norm exactly 2 d
    rng = np.random.default_rng(3)
    center = random_point(5, 2, rng)
    xi = random_tangent(center, rng, 0.4)
    problem = KarcherProblem((exp(center, xi),))
    grad = karcher_gradient(problem, center)
    assert abs(grad.norm() - 0.8) < 1e-10
    assert np.linalg.norm(grad.matrix + 2.0 * xi.matrix) < 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(10):
        n, m = (5, 2) if rng.uniform() < 0.5 else (5, 1)
        _, points = random_cloud(n, m, int(rng.integers(2, 8)), 0.5, rng)
        problem = KarcherProblem(points)
        at = exp(points[0], random_tangent(points[0], rng, 0.1))
        grad = karcher_gradient(problem, at)
        for _ in range(3):
            direction = random_tangent(at, rng, 1.0)
            fd = (karcher_cost(problem, geodesic(at, direction, h))
                  - karcher_cost(problem, geodesic(at, direction, -h))) / (2 * h)
            analytic = metric(grad, direction)
            assert abs(fd - analytic) < 1e-5 * max(1.0, abs(analytic))


def test_backtracking_minimal_shrink_count():
    # f(a) = (a - 0.1)^2, f0 = 0.01, slope = -0.2: steps 1, .5, .25 all fail
    # the Armijo test and 0.125 passes, so the minimal k is 3
    step = backtracking_step(lambda a: (a - 0.1) ** 2, 0.01, -0.2, CGConfig())
    assert step == 0.125


def test_backtracking_accepts_initial_step():
    step = backtracking_step(lambda a: 1.0 - 0.5 * a, 1.0, -0.5, CGConfig())
    assert step == 1.0


def test_backtracking_rejects_ascent_slope():
    with pytest.raises(NotDescentDirectionError):
        backtracking_step(lambda a: a, 0.0, 0.1, CGConfig())


def test_backtracking_gives_up():
    # sqrt keeps the penalty resolvable in floats even at step 2**-60
    with pytest.raises(LineSearchFailedError):
        backtracking_step(lambda a: 1.0 + np.sqrt(a), 1.0, -1.0, CGConfig())


def test_newton_step_matches_finite_difference_model():
    rng = np.random.default_rng(5)
    for _ in range(10):
        _, points = random_cloud(5, 1, 6, 0.4, rng)
        problem = KarcherProblem(points)
        at = exp(points[0], random_tangent(points[0], rng, 0.05))
        direction = -karcher_gradient(problem, at)
        step = newton_step_cp(problem, at, direction)
        h = 1e-4
        f = lambda t: karcher_cost(problem, geodesic(at, direction, t))
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert abs(step - (-d1 / abs(d2))) < 1e-4 * max(1.0, abs(step))


def test_newton_step_requires_rank_one():
    rng = np.random.default_rng(6)
    _, points = random_cloud(5, 2, 4, 0.3, rng)
    problem = KarcherProblem(points)
    at = points[0]
    with pytest.raises(InvalidInputError):
        newton_step_cp(problem, at, zero_tangent(at))


def test_direction_coefficients_flat_case():
    # stationary transport (same base, nothing moved) reduces every formula
    # to its textbook Euclidean value; with G_old = 2u and G_new = u:
    rng = np.random.default_rng(7)
    p = random_point(5, 2, rng)
    u = random_tangent(p, rng, 1.0)
    g_old = 2.0 * u
    g_new = 1.0 * u
    d_old = -g_old
    cases = {
        "fr": 0.25,   # |g_new|^2 / |g_old|^2
        "pr": -0.25,  # <g_new, y> / |g_old|^2 with y = g_new - g_old = -u
        "hs": -0.5,   # <g_new, y> / <d, y>
        "dy": 0.5,    # |g_new|^2 / <d, y>
    }
    for rule, expected in cases.items():
        coeff, fallback = _coefficient(rule, g_new, g_old, d_old, d_old, g_old)
        assert not fallback
        assert abs(coeff - expected) < 1e-12


def test_direction_coefficient_degenerate_fallback():
    # g_new equal to the transported gradient makes y = 0 and the hs/dy
    # denominators vanish; the rule must fall back to steepest descent
    rng = np.random.default_rng(8)
    p = random_point(4, 2, rng)
    u = random_tangent(p, rng, 1.0)
    for rule in ("hs", "dy"):
        coeff, fallback = _coefficient(rule, u, u, -u, -u, u)
        assert coeff == 0.0 and fallback


def test_two_point_mean_is_midpoint():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        a = random_point(n, m, rng)
        xi = random_tangent(a, rng, rng.uniform(0.2, 1.2))
        b = exp(a, xi)
        mid = exp(a, 0.5 * xi)
        point, trace = karcher_mean(KarcherProblem((a, b)))
        assert trace.converged
        assert dist(point, mid) < 1e-6


def test_identical_data_returns_the_point():
    # the log of an identical pair reads as ~sqrt(eps) angle noise, so the
    # solver may polish for an iteration or two before hitting the tolerance
    rng = np.random.default_rng(10)
    p = random_point(6, 3, rng)
    point, trace = karcher_mean(KarcherProblem((p, p, p)))
    assert trace.converged and trace.iterations <= 2
    assert np.linalg.norm(point.matrix - p.matrix) < 1e-8


def test_single_point_problem():
    rng = np.random.default_rng(11)
    p = random_point(4, 1, rng)
    point, trace = karcher_mean(KarcherProblem((p,)))
    assert trace.converged
    assert np.linalg.norm(point.matrix - p.matrix) < 1e-12


@pytest.mark.parametrize("rule", RULES)
def test_solver_converges_every_rule(rule):
    _, problem = ball_problem(5, 2, 10, 0.3, seed=11)
    config = CGConfig(direction_rule=rule, grad_tol=1e-8, max_iter=200)
    point, trace = karcher_mean(problem, config=config)
    assert trace.converged
    assert trace.iterates[-1].grad_norm < 1e-8
    # solver residual is the sum of the logs; check it independently
    total = np.zeros((5, 5), dtype=complex)
    for q in problem.points:
        total += log(point, q).matrix
    assert np.linalg.norm(total) < 1e-7


def test_newton_rule_converges_on_projective_space():
    _, problem = ball_problem(5, 1, 10, 0.3, seed=12)
    config = CGConfig(step_rule="newton_cp", grad_tol=1e-8, max_iter=200)
    point, trace = karcher_mean(problem, config=config)
    assert trace.converged
    assert karcher_gradient(problem, point).norm() < 1e-8


def test_newton_rule_rejected_off_projective_space():
    _, problem = ball_problem(5, 2, 4, 0.3, seed=13)
    with pytest.raises(InvalidInputError):
        karcher_mean(problem, config=CGConfig(step_rule="newton_cp"))


def test_monotone_descent_and_trace_shape():
    _, problem = ball_problem(6, 2, 8, 0.4, seed=14)
    point, trace = karcher_mean(problem)
    costs = [it.cost for it in trace.iterates]
    steps = [it.step_size for it in trace.iterates]
    iters = [it.iteration for it in trace.iterates]
    assert iters == list(range(len(iters)))
    assert steps[0] == 0.0 and all(s > 0 for s in steps[1:])
    # non-increasing up to evaluation noise near the optimum
    diffs = np.diff(costs)
    assert np.all(diffs <= 1e-12)


def test_restart_resets_to_steepest_descent():
    _, problem = ball_problem(5, 2, 10, 0.3, seed=15)
    period = 4
    seen = []

    def watch(iteration, point, grad, direction):
        if iteration > 0 and iteration % period == 0:
            seen.append(np.array_equal(direction.matrix, -grad.matrix))

    karcher_mean(problem, config=CGConfig(restart_period=period), callback=watch)
    assert seen and all(seen)


def test_unitary_equivariance_of_the_mean():
    rng = np.random.default_rng(16)
    _, points = random_cloud(5, 2, 6, 0.4, rng)
    u = random_unitary(5, rng)
    rotated = tuple(GrassmannPoint(u @ q.matrix @ u.conj().T, 2) for q in points)
    p1, _ = karcher_mean(KarcherProblem(points))
    p2, _ = karcher_mean(KarcherProblem(rotated))
    assert dist(GrassmannPoint(u @ p1.matrix @ u.conj().T, 2), p2) < 1e-6


def test_mean_lies_at_critical_point_of_transported_logs():
    # Karcher condition: the logs of the data, which are already tangent at
    # the mean, sum to zero; transporting them anywhere preserves the norm
    _, problem = ball_problem(5, 2, 7, 0.3, seed=17)
    point, _ = karcher_mean(problem)
    logs = [log(point, q) for q in problem.points]
    total = logs[0]
    for xi in logs[1:]:
        total = total + xi
    assert total.norm() < 1e-7
    moved = parallel_transport(total, logs[0], 1.0)
    assert abs(moved.norm() - total.norm()) < 1e-12


def test_default_init_prefers_euclidean_anchor():
    rng = np.random.default_rng(18)
    center, points = random_cloud(6, 2, 8, 0.3, rng)
    problem = KarcherProblem(points)
    init = default_init(problem)
    assert dist(init, center) < 0.5  # anchor lands inside the cluster


def test_default_init_falls_back_on_degenerate_gap():
    # two orthogonal lines average to I/2, whose eigenvalue gap is zero
    p1 = GrassmannPoint(np.diag([1.0, 0.0]))
    p2 = GrassmannPoint(np.diag([0.0, 1.0]))
    problem = KarcherProblem((p1, p2))
    init = default_init(problem)
    assert np.linalg.norm(init.matrix - p1.matrix) == 0.0


def test_cut_locus_failure_attaches_trace():
    p1 = GrassmannPoint(np.diag([1.0, 0.0]))
    p2 = GrassmannPoint(np.diag([0.0, 1.0]))
    problem = KarcherProblem((p1, p2))
    with pytest.raises(CutLocusError) as info:
        karcher_mean(problem)
    assert info.value.trace is not None
    assert info.value.trace.status == "cut_locus"


def test_max_iter_reached_reports_status():
    _, problem = ball_problem(5, 2, 10, 0.3, seed=19)
    point, trace = karcher_mean(problem, config=CGConfig(max_iter=2))
    assert not trace.converged
    assert trace.status == "max_iter"
    assert trace.iterations == 2


def test_explicit_init_is_respected():
    rng = np.random.default_rng(20)
    center, points = random_cloud(5, 2, 5, 0.3, rng)
    problem = KarcherProblem(points)
    start = exp(center, random_tangent(center, rng, 0.05))
    point, trace = karcher_mean(problem, init=start)
    assert trace.converged
    ref, _ = karcher_mean(problem)
    assert dist(point, ref) < 1e-6
