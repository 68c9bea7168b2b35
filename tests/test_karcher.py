import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grassmean.karcher as karcher
from grassmean import linalg
from grassmean.files import read_subspace_file, write_subspace_file
from conftest import (basis_cloud, commutator, random_cloud, random_point, random_tangent,
                      random_unitary)
from grassmean.exceptions import (
    CutLocusError,
    DegenerateCurvatureError,
    GrassmeanError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from grassmean.grassmann import (
    GrassmannPoint,
    StiefelBasis,
    TangentVector,
    _geodesic,
    _point,
    basis_from_projector,
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
    NOISE_SLOPE_FACTOR,
    STEP_RULES,
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
    # bases and points mix, but raw arrays and mixed shapes are rejected
    with pytest.raises(InvalidInputError):
        KarcherProblem((basis_from_projector(p).matrix,))
    with pytest.raises(InvalidInputError):
        KarcherProblem((p, StiefelBasis(np.eye(4, 1))))
    with pytest.raises(InvalidInputError):
        KarcherProblem((StiefelBasis(np.eye(5, 2)), p))
    problem = KarcherProblem((p,))
    for other in (q, random_point(4, 1, rng)):
        with pytest.raises(InvalidInputError, match="problem's Grassmannian"):
            karcher_cost(problem, other)


def test_problem_stacks_its_data_once_and_rejects_mixed_shapes():
    # the stack is checked for one (n, m) by building it; bare projectors of
    # different ranks are rejected before their bases are found, so none of
    # them keeps a basis of the wrong rank
    rng = np.random.default_rng(2)
    line, plane = (GrassmannPoint(random_point(4, m, rng).matrix) for m in (1, 2))
    for data in ((line, plane), (StiefelBasis(np.eye(4, 1)), StiefelBasis(np.eye(4, 2))),
                 (StiefelBasis(np.eye(4, 2)), line), (StiefelBasis(np.eye(3, 1)), line)):
        with pytest.raises(InvalidInputError, match="^points live on different Grassmannians$"):
            KarcherProblem(data)
        assert plane._basis is None and (line._basis is None or line._basis.shape == (4, 1))
    bases = [StiefelBasis(random_unitary(4, rng)[:, :2]) for _ in range(3)]
    point = projector_from_basis(random_unitary(4, rng)[:, :2])
    problem = KarcherProblem([bases[0], point, *bases[1:]])
    expected = np.array([bases[0].matrix, basis_from_projector(point).matrix,
                         *(b.matrix for b in bases[1:])])
    assert problem.bases.tobytes() == expected.tobytes() and not problem.bases.flags.writeable
    assert (problem.size, problem.dim, problem.rank) == (4, 4, 2)


def test_problem_accepts_bases_or_points_alike():
    # the same subspaces, given as projectors and as rotated bases of them
    rng = np.random.default_rng(31)
    _, points = random_cloud(5, 2, 10, 0.3, rng)
    bases = [StiefelBasis(basis_from_projector(p).matrix @ random_unitary(2, rng))
             for p in points]
    from_points, from_bases = KarcherProblem(points), KarcherProblem(bases)
    assert (from_bases.size, from_bases.dim, from_bases.rank) == (10, 5, 2)
    at = exp(points[0], random_tangent(points[0], rng, 0.1))
    assert abs(karcher_cost(from_points, at) - karcher_cost(from_bases, at)) < 1e-12
    gap = karcher_gradient(from_points, at).matrix - karcher_gradient(from_bases, at).matrix
    assert np.linalg.norm(gap) < 1e-12
    mean_p, trace_p = karcher_mean(from_points)
    mean_b, trace_b = karcher_mean(from_bases)
    assert trace_p.converged and trace_b.converged
    assert np.linalg.norm(mean_p.matrix - mean_b.matrix) < 1e-10


@pytest.mark.parametrize("m, step_rule", [(2, "backtracking"), (1, "newton_cp")])
def test_solver_builds_projector_objects_only_for_the_result(monkeypatch, m, step_rule):
    _, points = random_cloud(5, m, 10, 0.5, np.random.default_rng(33))
    problem = KarcherProblem(points)
    built = {}
    for cls in (GrassmannPoint, TangentVector):
        def counted(self, original=cls.__post_init__, name=cls.__name__):
            built[name] = built.get(name, 0) + 1
            original(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for max_iter in (1, 500):
        built.clear()
        _, trace = karcher_mean(problem, config=CGConfig(step_rule=step_rule,
                                                         max_iter=max_iter))
        assert trace.iterations == max_iter or trace.converged
        assert built.get("TangentVector", 0) == 0
        assert built.get("GrassmannPoint", 0) <= 2
    assert trace.converged and trace.iterations >= 3
    # the callback's tangents are built from blocks, valid by construction:
    # none is validated, and each is read-only, exactly Hermitian and tangent
    seen = []
    built.clear()
    karcher_mean(problem, config=CGConfig(step_rule=step_rule),
                 callback=lambda it, point, *tangents: seen.extend(tangents))
    assert built.get("TangentVector", 0) == 0 and len(seen) == 2 * (trace.iterations + 1)
    for vector in seen:
        mat, proj = vector.matrix, vector.base.matrix
        assert not mat.flags.writeable and np.array_equal(mat, mat.conj().T)
        defect = np.linalg.norm(commutator(proj, commutator(proj, mat)) - mat)
        assert defect <= 1e-12 * max(1.0, np.linalg.norm(mat))


def test_projector_data_are_not_validated_again(monkeypatch):
    # the points were validated when built; turning them into bases and
    # evaluating the cost must not check their Hermitian symmetry again
    center, points = random_cloud(5, 2, 10, 0.5, np.random.default_rng(34))
    calls = []
    original = linalg.require_hermitian
    monkeypatch.setattr(linalg, "require_hermitian",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    problem = KarcherProblem(points)
    assert karcher_cost(problem, center) > 0.0
    assert not calls


@pytest.mark.parametrize("m, step_rule", [(2, "backtracking"), (1, "newton_cp"), (2, "newton_cp")])
def test_one_kernel_call_per_iterate(monkeypatch, m, step_rule):
    # each iterate takes its angles, cost, residual and overlaps from one
    # kernel call on its frame; a line search reads its first trial from the
    # iterate's own call and calls the kernel again only for a shrunk trial,
    # and the Newton rule reads the factored overlaps of the iterate's own call
    calls = {"frame": 0}
    kernel = karcher._principal_angles
    returned, passed = [], []

    def counted(frame, ys):
        calls["frame"] += 1
        result = kernel(frame, ys)
        returned.append(result[3])
        return result

    newton_step = karcher._newton_step

    def watched(factors, *args):
        passed.append(factors is returned[-1])
        return newton_step(factors, *args)

    searches = []
    search = karcher.backtracking_step

    def counted_search(objective, *args):
        def tried(step):
            before = calls["frame"]
            value = objective(step)
            searches[-1].append((step, calls["frame"] - before, value))
            return value
        searches.append([])
        return search(tried, *args)

    monkeypatch.setattr(karcher, "_principal_angles", counted)
    monkeypatch.setattr(karcher, "backtracking_step", counted_search)
    monkeypatch.setattr(karcher, "_newton_step", watched)
    _, points = random_cloud(5, m, 10, 0.5, np.random.default_rng(33))
    _, trace = karcher_mean(KarcherProblem(points), config=CGConfig(step_rule=step_rule))
    assert trace.converged and trace.iterations >= 3
    assert calls["frame"] == trace.iterations + 1 + sum(item.shrinks for item in trace.iterates)
    searched = [item for item in trace.iterates[1:] if not item.noise_floor]
    assert len(searches) == (len(searched) if step_rule == "backtracking" else 0)
    for item, trials in zip(searched, searches):
        (step, kernel_calls, value), *shrunk = trials
        assert (step, kernel_calls) == (1.0 / 10, 0) and len(shrunk) == item.shrinks
        assert value == item.cost or shrunk
    assert passed == ([True] * trace.iterations if step_rule == "newton_cp" else [])


def test_a_shrunk_trial_hands_its_evaluation_to_the_iterate(monkeypatch):
    # a search that rejects its first trial, the iterate's own evaluation, and
    # runs on from step/2: each iterate is the evaluation of the shrunk trial
    # that its search accepted, and a batch in which only problem 1 shrinks
    # solves each problem as it solves alone
    search = karcher.backtracking_step

    def shrinking(objective, value0, slope, step):
        objective(step)
        return search(objective, value0, slope, step * karcher.SHRINK)

    monkeypatch.setattr(karcher, "backtracking_step", shrinking)
    _, problem = ball_problem(5, 2, 10, 0.5, seed=38)
    seen = []
    _, trace = karcher_mean(problem, callback=lambda it, point, grad, _: seen.append((point, grad)))
    assert trace.converged and len(seen) == len(trace.iterates)
    for item, (point, grad) in zip(trace.iterates, seen):
        assert abs(item.cost - karcher_cost(problem, point)) <= 1e-12
        # the callback's residual field is N/2 times karcher_gradient
        want = karcher_gradient(problem, point).matrix
        assert np.linalg.norm(grad.matrix * (2.0 / 10) - want) <= 1e-12
    searched = [item for item in trace.iterates[1:] if not item.noise_floor]
    assert searched and all(item.shrinks >= 1 for item in searched)
    assert all(item.step_size == 0.1 * karcher.SHRINK ** item.shrinks for item in searched)

    def wide_shrinks(objective, value0, slope, step):
        if value0 > 0.2:  # the tight clouds start near cost 0.02, the wide one at 0.5
            return shrinking(objective, value0, slope, step)
        return search(objective, value0, slope, step)

    monkeypatch.setattr(karcher, "backtracking_step", wide_shrinks)
    rng = np.random.default_rng(42)
    frame = random_unitary(4, rng)
    stack = np.stack([[b.matrix for b in basis_cloud(4, 2, 6, radius, rng, frame)]
                      for radius in (0.3, 1.2, 0.3)])
    points, traces = karcher_mean(KarcherProblem(_stack=stack))
    assert [sum(item.shrinks for item in t.iterates) > 0 for t in traces] == [False, True, False]
    for b, (point, trace) in enumerate(zip(points, traces)):
        ref_point, ref_trace = karcher_mean(KarcherProblem(_stack=stack[b]))
        _assert_same_trace(trace, ref_trace)
        assert [item.shrinks for item in trace.iterates] == [
            item.shrinks for item in ref_trace.iterates]
        assert np.linalg.norm(point.matrix - ref_point.matrix) <= 1e-12


@pytest.mark.parametrize("m, step_rule", [(2, "backtracking"), (1, "newton_cp")])
def test_steps_follow_geodesics_and_directions_are_transported(m, step_rule):
    # each accepted update moves along the geodesic of the previous direction,
    # and the new direction is -grad plus a multiple of that direction
    # parallel-transported along the step, checked through the public geometry
    _, points = random_cloud(5, m, 10, 0.4, np.random.default_rng(34))
    seen = []
    _, trace = karcher_mean(KarcherProblem(points), config=CGConfig(step_rule=step_rule),
                            callback=lambda *args: seen.append(args[1:]))
    checked = 0
    for before, after, item in zip(seen, seen[1:], trace.iterates[1:]):
        if item.restart:
            continue
        (p0, _, d0), (p1, g1, d1) = before, after
        assert np.linalg.norm(geodesic(p0, d0, item.step_size).matrix - p1.matrix) < 1e-10
        moved = parallel_transport(d0, d0, item.step_size).matrix
        rest = d1.matrix + g1.matrix
        beta = np.vdot(moved, rest).real / np.vdot(moved, moved).real
        assert np.linalg.norm(rest - beta * moved) < 1e-8 * np.linalg.norm(rest) + 1e-13 * g1.norm()
        checked += 1
    assert checked >= 2


def test_default_config_converges_on_clouds_at_4_2_20():
    # these clouds reach the noise floor of the cost; a line search that
    # compares costs there at raw closed-form trial bases freezes until
    # max_iter, since a step too small to move the basis reproduces the start
    # cost bit for bit and passes Armijo
    for seed in range(3):
        _, points = random_cloud(4, 2, 20, 0.5, np.random.default_rng(seed))
        _, trace = karcher_mean(KarcherProblem(points))
        assert trace.converged


@pytest.mark.parametrize("n, m, count, seeds", [
    (60, 6, 200, 3), (20, 4, 400, 3), (20, 4, 1000, 3), (8, 1, 2000, 3), (8, 1, 20000, 2),
    (300, 2, 30, 3)])
def test_default_config_converges_across_data_counts(n, m, count, seeds):
    # these clouds need every step scale to follow N: the summed field's slope
    # in the Armijo test of the mean cost, or a noise-floor guard that ignores
    # N, ends in LineSearchFailedError, and a first trial step of 1 in place
    # of 1/N crawls for over 100 iterations at N >= 1000
    for seed in range(seeds):
        points = basis_cloud(n, m, count, 0.5, np.random.default_rng([n, m, count, seed]))
        _, trace = karcher_mean(KarcherProblem(points))
        assert trace.converged and trace.iterations <= 20


def test_every_direction_rule_converges_without_crawling():
    # a first trial step of 2/N mirrors the iterate across the minimizer here,
    # and the error shrinks by about 1% per iteration; 1/N converges at once
    _, points = random_cloud(5, 2, 8, 0.4, np.random.default_rng(31))
    problem = KarcherProblem(points)
    for config in [CGConfig(direction_rule=rule, max_iter=20) for rule in RULES]:
        _, trace = karcher_mean(problem, config=config)
        assert trace.converged, config


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_default_config_terminates_converged(data):
    n = data.draw(st.integers(2, 12), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    count = data.draw(st.integers(1, 300), label="count")
    radius = data.draw(st.floats(0.0, 1.2), label="radius")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    points = basis_cloud(n, m, count, radius, np.random.default_rng(seed))
    _, trace = karcher_mean(KarcherProblem(points))
    assert trace.converged


def _solve_cloud_or_stop_typed(data, draw_radius):
    # clouds at geodesic distances 0.2..1 x radius from span X, built as one
    # stack along the thin _geodesic: every solve converges or stops with a
    # typed status and its trace, and every iterate's recorded cost is
    # karcher_cost at the callback's point. n <= 16 with every m < n, and N
    # log-uniform from 1 up to 2000, or up to 10^4 as far as n m N <= 40 000,
    # so the largest N come at small n
    n = data.draw(st.integers(2, 16), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    # log-uniform on a grid of 200 steps, drawn as an offset from the middle
    # step: hypothesis draws an integer range's values nearest 0 most often,
    # and at N = 1 every solve stops at iteration 0
    log_step = 100 + data.draw(st.integers(-100, 100), label="log N step")
    count = round(max(2000.0, min(1e4, 4e4 / (n * m))) ** (log_step / 200))
    radius = draw_radius(data)
    step_rule = data.draw(st.sampled_from(STEP_RULES), label="step_rule")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    basis = random_unitary(n, rng)[:, :m]
    blocks = rng.standard_normal((count, n, m)) + 1j * rng.standard_normal((count, n, m))
    blocks -= basis @ (basis.conj().T @ blocks)  # horizontal at the basis
    # the projector metric is sqrt(2) times the norm of the principal angles
    blocks *= (rng.uniform(0.2, 1.0, count) * radius / np.sqrt(2.0)
               / np.linalg.norm(blocks, axis=(1, 2)))[:, None, None]
    stack, _ = _geodesic(np.broadcast_to(basis, blocks.shape), blocks)(1.0)
    problem = KarcherProblem(_stack=stack)
    assert problem.rank == m
    seen, config = [], CGConfig(step_rule=step_rule)
    try:
        mean, trace = karcher_mean(problem, config=config,
                                   callback=lambda it, point, *_: seen.append(point))
        assert trace.status in ("converged", "max_iter")
    except GrassmeanError as err:
        assert err.status is not None and err.trace is not None, repr(err)
        trace = err.trace
        assert trace.status == err.status
    assert len(seen) == len(trace.iterates)
    for item, point in zip(trace.iterates, seen):
        assert abs(item.cost - karcher_cost(problem, point)) <= 1e-12
    # a converged mean is re-checked through the public log of every datum:
    # the summed logs meet grad_tol up to the rounding of N logs between
    # unit-size bases and of the solver's own sum, allowed as 8 N eps (over
    # these draws the sum exceeded the solver's last grad_norm by at most
    # 1.15 N eps). The check is skipped for N > 1000: at about 0.1 ms a log,
    # the largest clouds would add about a second each
    if trace.converged and count <= 1000:
        total = sum(log(mean, _point(basis)).matrix for basis in stack)
        assert np.linalg.norm(total) < config.grad_tol + 8 * count * np.finfo(float).eps


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_wide_range_solves_converge_or_stop_typed(data):
    # radius log-uniform in [1e-12, 2.2], on a grid of 200 steps, up to just
    # below the cut at sqrt(2) pi / 2. The step is drawn down from the top:
    # hypothesis draws values nearest 0 most often, and below a radius of
    # about 1e-3 the anchor already meets grad_tol, so a solve stops at
    # iteration 0
    _solve_cloud_or_stop_typed(data, lambda data: 1e-12 * 2.2e12 ** (
        1.0 - data.draw(st.integers(0, 200), label="log radius steps down") / 200))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_near_cut_solves_converge_or_stop_typed(data):
    # radius uniform in [1.0, 2.2], just below the cut at sqrt(2) pi / 2,
    # where conjugate directions reach the rounding floor of the cost
    _solve_cloud_or_stop_typed(data, lambda data: data.draw(st.floats(1.0, 2.2), label="radius"))


def test_no_search_starts_at_the_noise_floor(monkeypatch):
    # on these wide clouds the conjugate direction's slope falls so low that
    # the Armijo margin at the first trial step is below the rounding noise
    # of the cost, while the steepest-descent one is not; such a direction
    # restarts from steepest descent, so no search compares costs there
    search = karcher.backtracking_step
    started = []

    def recorded(objective, value0, slope, step):
        started.append((value0, slope, step))
        return search(objective, value0, slope, step)

    monkeypatch.setattr(karcher, "backtracking_step", recorded)
    for seed in range(3):
        points = basis_cloud(4, 2, 10, 2.15, np.random.default_rng([4, 2, 10, seed]))
        _, trace = karcher_mean(KarcherProblem(points))
        assert trace.converged
    assert started
    assert not any(karcher._at_noise_floor(-step * slope, value0)
                   for value0, slope, step in started)


def test_noise_floor_phase_takes_model_steps():
    # this cloud's residual reaches the rounding floor of the cost just above
    # grad_tol; Armijo comparisons there pass by chance at steps too small to
    # move the iterate, and a solver that keeps comparing freezes at max_iter
    rng = np.random.default_rng([7, 114])
    center = random_point(5, 1, rng)
    points = []
    for _ in range(30):
        xi = random_tangent(center, rng)
        points.append(exp(center, xi * (rng.uniform(0.2, 1.0) * 0.5 / xi.norm())))
    _, trace = karcher_mean(KarcherProblem(points))
    assert trace.converged
    # the guard compares the decrease predicted at the first trial step 1/N,
    # 2 gnorm^2 / N^2, with the rounding noise of the cost
    floor = NOISE_SLOPE_FACTOR * np.finfo(float).eps
    below = [after for before, after in zip(trace.iterates, trace.iterates[1:])
             if 2.0 * before.grad_norm ** 2 / 30 ** 2 <= floor * max(1.0, before.cost)]
    assert below and all(item.step_size == 1.0 / 30 for item in below)
    # the trace flags exactly these model steps, and they take no shrink
    assert all(item.noise_floor and item.shrinks == 0 for item in below)
    assert sum(item.noise_floor for item in trace.iterates) == len(below)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        CGConfig(direction_rule="cg")
    with pytest.raises(InvalidInputError):
        CGConfig(step_rule="exact")
    with pytest.raises(InvalidInputError):
        CGConfig(max_iter=0)
    for bad in ({"grad_tol": np.inf}, {"grad_tol": np.nan}, {"grad_tol": True},
                {"grad_tol": "1e-8"}, {"max_iter": 2.5}, {"max_iter": True}):
        with pytest.raises(InvalidInputError):
            CGConfig(**bad)


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


@pytest.mark.parametrize("n, m, count", [(5, 1, 1000), (6, 2, 500)])
def test_gradient_at_the_mean_is_tangent_to_rounding(n, m, count):
    # near the mean the summed log is some 1e-10 while the sum it is taken
    # from is of the size of N; its part along the point must still be
    # rounding relative to the log itself, not to the sum
    points = basis_cloud(n, m, count, 0.5, np.random.default_rng([n, m, count, 5]))
    problem = KarcherProblem(points)
    mean, trace = karcher_mean(problem)
    assert trace.converged
    grad, proj = karcher_gradient(problem, mean).matrix, mean.matrix
    assert np.linalg.norm(proj @ grad @ proj) <= 1e-12 * np.linalg.norm(grad)


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
    step = backtracking_step(lambda a: (a - 0.1) ** 2, 0.01, -0.2, 1.0)
    assert step == 0.125


def test_backtracking_accepts_initial_step():
    step = backtracking_step(lambda a: 1.0 - 0.5 * a, 1.0, -0.5, 1.0)
    assert step == 1.0


def test_backtracking_rejects_ascent_slope():
    with pytest.raises(NotDescentDirectionError):
        backtracking_step(lambda a: a, 0.0, 0.1, 1.0)


def test_backtracking_gives_up():
    # sqrt keeps the penalty resolvable in floats even at step 2**-60
    with pytest.raises(LineSearchFailedError):
        backtracking_step(lambda a: 1.0 + np.sqrt(a), 1.0, -1.0, 1.0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_newton_step_matches_finite_difference_model(data):
    # the curvature weighs the direction's parts in the principal bases of
    # each datum, so the directions are random tangents as well as -grad
    n = data.draw(st.integers(2, 8), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    count = data.draw(st.integers(1, 50), label="count")
    radius = data.draw(st.floats(0.0, 0.8), label="radius")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    _, points = random_cloud(n, m, count, radius, rng)
    problem = KarcherProblem(points)
    at = exp(points[0], random_tangent(points[0], rng, 0.05))
    if data.draw(st.booleans(), label="descent"):
        direction = -karcher_gradient(problem, at)
    else:
        direction = random_tangent(at, rng, data.draw(st.floats(0.1, 2.0), label="norm"))
    step = newton_step_cp(problem, at, direction)
    h = 1e-4
    f = lambda t: karcher_cost(problem, geodesic(at, direction, t))
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
    assert abs(step - (-d1 / abs(d2))) < 1e-4 * max(1.0, abs(step))


def test_direction_coefficients_flat_case():
    # stationary transport (same base, nothing moved) reduces every formula
    # to its textbook Euclidean value; with G_old = 2u and G_new = u:
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
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
        coeff, fallback = _coefficient(rule, g_new, g_old, d_old)
        assert not fallback
        assert abs(coeff - expected) < 1e-12


def test_direction_coefficient_degenerate_fallback():
    # g_new equal to the transported gradient makes y = 0 and the hs/dy
    # denominators vanish; the rule must fall back to steepest descent
    rng = np.random.default_rng(8)
    u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for rule in ("hs", "dy"):
        coeff, fallback = _coefficient(rule, u, u, -u)
        assert coeff == 0.0 and fallback
    # a batch of one degenerate and one healthy problem (G_old = 2u, as in
    # the flat case) falls back only where the denominator vanishes
    for rule, expected in (("hs", -0.5), ("dy", 0.5)):
        coeff, fallback = _coefficient(rule, np.stack([u, u]), np.stack([u, 2.0 * u]),
                                       np.stack([-u, -2.0 * u]))
        assert coeff[0] == 0.0 and abs(coeff[1] - expected) < 1e-12
        assert fallback.tolist() == [True, False]


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
    _, points = random_cloud(5, 2, 10, 0.3, np.random.default_rng(11))
    problem = KarcherProblem(points)
    config = CGConfig(direction_rule=rule, grad_tol=1e-8, max_iter=200)
    point, trace = karcher_mean(problem, config=config)
    assert trace.converged
    assert trace.iterates[-1].grad_norm < 1e-8
    # solver residual is the sum of the logs; check it independently
    total = np.zeros((5, 5), dtype=complex)
    for q in points:
        total += log(point, q).matrix
    assert np.linalg.norm(total) < 1e-7


@pytest.mark.parametrize("m", [1, 2, 3])
def test_newton_rule_converges_on_projective_space(m):
    _, problem = ball_problem(5, m, 10, 0.3, seed=12)
    config = CGConfig(step_rule="newton_cp", grad_tol=1e-8, max_iter=200)
    point, trace = karcher_mean(problem, config=config)
    assert trace.converged
    assert karcher_gradient(problem, point).norm() < 1e-8


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
    # the period is 2m(n-m) - 1, one less than the manifold's real dimension: 3 here
    _, problem = ball_problem(3, 1, 10, 1.0, seed=15)
    period = 3
    seen = []

    def watch(iteration, point, grad, direction):
        if iteration > 0 and iteration % period == 0:
            seen.append(np.array_equal(direction.matrix, -grad.matrix))

    _, trace = karcher_mean(problem, callback=watch)
    assert trace.converged and len(seen) >= 2 and all(seen)
    assert all(item.restart and item.direction_rule == "sd"
               for item in trace.iterates[period::period])


def test_restart_reason_names_each_restart(monkeypatch):
    # a periodic restart, a degenerate conjugate coefficient and a retry from
    # steepest descent after a failed search each name their reason; restart
    # is set exactly when there is one, and the new direction is "sd" exactly
    # for the periodic and fallback ones
    def check(trace):
        for item in trace.iterates:
            assert item.restart == (item.restart_reason != "none")
            sd = item.restart_reason in ("periodic", "fallback")
            assert (item.direction_rule == "sd") == sd
        return [item.restart_reason for item in trace.iterates]

    _, problem = ball_problem(3, 1, 10, 1.0, seed=15)  # the period is 3
    _, trace = karcher_mean(problem)
    reasons = check(trace)
    assert len(reasons) > 6 and reasons[:3] == ["none"] * 3
    assert [r == "periodic" for r in reasons] == [i > 0 and i % 3 == 0 for i in range(len(reasons))]

    # the second coefficient (iteration 2) degenerates, and the third search
    # (iteration 3) fails once and is retried from steepest descent
    coefficient, search, calls = karcher._coefficient, karcher.backtracking_step, []

    def degenerate_once(rule, *args):
        coeff, fallback = coefficient(rule, *args)
        calls.append("coefficient")
        if calls.count("coefficient") == 2:
            return np.zeros_like(coeff), np.ones_like(fallback)
        return coeff, fallback

    def fails_once(objective, value0, slope, step):
        calls.append("search")
        if calls.count("search") == 3:
            raise LineSearchFailedError("forced failure")
        return search(objective, value0, slope, step)

    monkeypatch.setattr(karcher, "_coefficient", degenerate_once)
    monkeypatch.setattr(karcher, "backtracking_step", fails_once)
    _, problem = ball_problem(5, 2, 10, 0.5, seed=37)
    _, trace = karcher_mean(problem)
    assert trace.converged
    assert check(trace)[:4] == ["none", "none", "fallback", "forced"]


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
    _, points = random_cloud(5, 2, 7, 0.3, np.random.default_rng(17))
    point, _ = karcher_mean(KarcherProblem(points))
    logs = [log(point, q) for q in points]
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


def _bloch_line(vec):
    """The line in C^2 whose projector (I + v . sigma) / 2 has Bloch vector v."""
    x, y, z = vec / np.linalg.norm(vec)
    return GrassmannPoint(0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]))


def _fallback_problem(case):
    rng = np.random.default_rng(31)
    if case == "one datum":
        return KarcherProblem([StiefelBasis(random_unitary(5, rng)[:, :2])])
    if case == "m = n":
        return KarcherProblem([StiefelBasis(random_unitary(3, rng)) for _ in range(4)])
    # four lines whose Bloch vectors sum to zero average to I/2, which has no
    # eigenvalue gap; no two are antipodal, so the start is inside the domain
    w = -np.array([1.0 + np.cos(1.75), np.sin(1.75), 0.0])
    h = np.sqrt(1.0 - w @ w / 4.0)
    vecs = [np.array([1.0, 0.0, 0.0]), np.array([np.cos(1.75), np.sin(1.75), 0.0]),
            w / 2.0 + [0.0, 0.0, h], w / 2.0 - [0.0, 0.0, h]]
    return KarcherProblem([_bloch_line(v) for v in vecs])


@pytest.mark.parametrize("case", ["one datum", "m = n", "degenerate gap"])
def test_fallback_starts_complete_the_first_datum(case):
    # without a gapped anchor the solver starts at the first datum's basis
    # itself, bit for bit
    problem = _fallback_problem(case)
    starts = []
    point, trace = karcher_mean(problem, callback=lambda it, point, *_: starts.append(point))
    assert starts[0]._basis.tobytes() == problem.bases[0].tobytes()
    assert karcher._anchor(problem).tobytes() == problem.bases[0].tobytes()
    assert trace.status == "converged"
    assert trace.iterates[0].direction_rule == "init"
    if case == "degenerate gap":
        # the first datum is not stationary, so the solver has to move
        assert trace.iterations >= 1
        assert karcher_gradient(problem, point).norm() < 1e-7
    else:
        # one datum is its own mean, and Gr(n, n) is a single point
        assert trace.iterations == 0
        assert np.linalg.norm(point.matrix - projector_from_basis(problem.bases[0]).matrix) < 1e-14


def test_gapped_start_is_the_anchor_eigenvector_frame():
    # with a gap, the start is the top m eigenvectors of the averaged data
    # projectors, not the first datum's basis
    _, problem = ball_problem(6, 2, 8, 0.3, seed=32)
    anchor = karcher._anchor(problem)
    assert anchor.shape == (6, 2)
    assert np.linalg.norm(anchor.conj().T @ anchor - np.eye(2)) < 1e-12
    average = sum(basis @ basis.conj().T for basis in problem.bases) / 8
    vals, vecs = np.linalg.eigh(average)
    assert vals[4] - vals[3] > 0.1
    assert np.linalg.norm(anchor @ anchor.conj().T - vecs[:, 4:] @ vecs[:, 4:].conj().T) < 1e-12
    assert np.linalg.norm(average @ anchor - anchor * vals[5:3:-1]) < 1e-12
    assert np.array_equal(projector_from_basis(anchor).matrix, default_init(problem).matrix)
    starts = []
    _, trace = karcher_mean(problem, callback=lambda it, point, *_: starts.append(point))
    assert trace.converged
    assert starts[0]._basis.tobytes() == anchor.tobytes()
    assert trace.iterates[0].cost == pytest.approx(
        karcher_cost(problem, default_init(problem)), rel=1e-12)


def test_default_init_of_a_batch_gives_each_problem_its_anchor():
    # a batched problem gets one anchor point per problem, as karcher_mean
    # returns one mean per problem, each bit for bit the problem's own anchor
    rng = np.random.default_rng(43)
    stack = np.stack([[b.matrix for b in basis_cloud(5, 2, 6, 0.5, rng)] for _ in range(3)])
    points = default_init(KarcherProblem(_stack=stack))
    assert len(points) == 3
    starts = []
    karcher_mean(KarcherProblem(_stack=stack),
                 callback=lambda it, points, *_: starts.append(points))
    for b, point in enumerate(points):
        alone = default_init(KarcherProblem(_stack=stack[b]))
        assert np.array_equal(point.matrix, alone.matrix)
        assert point._basis.tobytes() == alone._basis.tobytes() == starts[0][b]._basis.tobytes()


@pytest.mark.parametrize("n, m, count, step_rule", [
    (6, 3, 10, "backtracking"), (8, 1, 50, "newton_cp")])
def test_frames_stay_unitary_over_long_runs(n, m, count, step_rule):
    # the callback's points are built from the carried basis without a check,
    # so rounding drift of the basis would show only here
    _, points = random_cloud(n, m, count, 0.5, np.random.default_rng(35))
    defects = []

    def watch(iteration, point, *_):
        proj, basis = point.matrix, point._basis
        defects.append((np.linalg.norm(proj @ proj - proj), abs(np.trace(proj).real - m),
                        np.linalg.norm(basis.conj().T @ basis - np.eye(m))))

    config = CGConfig(step_rule=step_rule, grad_tol=1e-300, max_iter=300)
    _, trace = karcher_mean(KarcherProblem(points), config=config, callback=watch)
    assert trace.status == "max_iter" and len(defects) == 301
    assert max(max(pair) for pair in defects) <= 1e-13


@pytest.mark.parametrize("step_rule", STEP_RULES)
def test_the_solver_loop_runs_no_qr(monkeypatch, step_rule):
    # the flow moves the frame in closed form and a polar step keeps it
    # unitary; the gapped start is an eigh frame, so no solve needs a QR
    _, problem = ball_problem(6, 2, 8, 0.3, seed=32)
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kwargs: calls.append(1) or qr(*args, **kwargs))
    _, trace = karcher_mean(problem, config=CGConfig(step_rule=step_rule))
    assert trace.converged and trace.iterations >= 2
    assert not calls


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


def _outcome(problem, config, init=None):
    """``karcher_mean``'s (points, trace), or its typed error."""
    try:
        return karcher_mean(problem, init=init, config=config)
    except GrassmeanError as err:
        if err.status is None:
            raise
        return err


def _assert_same_trace(trace, ref):
    # numpy's vectorized abs, arccos and sin may round the last bit apart on
    # stacks of different lengths, so batched and lone runs agree to 1e-12.
    # A Newton step sits at the cap within rounding for a lone datum, and
    # its size is ill-conditioned as the residual vanishes, so step sizes are
    # compared through the move they make along the previous residual
    assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
    scale = 1.0
    for item, want in zip(trace.iterates, ref.iterates):
        assert (item.iteration, item.direction_rule, item.restart) == (
            want.iteration, want.direction_rule, want.restart)
        assert item.step_capped == want.step_capped or item.step_size == 1.0
        assert abs(item.cost - want.cost) <= 1e-12
        assert abs(item.grad_norm - want.grad_norm) <= 1e-12
        assert abs(item.step_size - want.step_size) * scale <= 1e-12
        scale = want.grad_norm


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data())
def test_a_batch_solves_like_separate_calls(data):
    # B problems of one shape, solved by one batched karcher_mean call and
    # by B calls of one problem each: the same statuses, traces and means.
    # Problems with a datum orthogonal to the start stop at the cut locus, and
    # the batch then raises the error of the lowest failing problem; problems
    # holding the start itself solve as any other
    size = data.draw(st.integers(1, 8), label="B")
    n = data.draw(st.integers(2, 8), label="n")
    step_rule = data.draw(st.sampled_from(["backtracking", "newton_cp"]), label="step_rule")
    m = data.draw(st.integers(1, n - 1), label="m")
    count = data.draw(st.integers(1, 50), label="N")
    radius = data.draw(st.floats(0.05, 1.0), label="radius")
    faults = ["none"] * size
    if data.draw(st.booleans(), label="inject"):
        faults = data.draw(st.lists(st.sampled_from(["none", "cut", "start"]),
                                    min_size=size, max_size=size), label="faults")
    start = "start" in faults or "cut" in faults or data.draw(st.booleans(), label="init")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    frame = random_unitary(n, rng)
    stack = np.stack([[b.matrix for b in basis_cloud(n, m, count, radius, rng, frame)]
                      for _ in range(size)])
    for b, fault in enumerate(faults):
        if fault == "cut":  # one principal angle of pi/2 to the start
            stack[b, -1] = np.hstack([frame[:, :m - 1], frame[:, m:m + 1]])
        elif fault == "start":
            stack[b, -1] = frame[:, :m]
    config = CGConfig(step_rule=step_rule)
    init = projector_from_basis(frame[:, :m]) if start else None
    alone = [_outcome(KarcherProblem(_stack=stack[b]), config, init) for b in range(size)]
    together = _outcome(KarcherProblem(_stack=stack), config, init)
    failing = [b for b, got in enumerate(alone) if isinstance(got, GrassmeanError)]
    if failing:
        ref = alone[failing[0]]
        assert type(together) is type(ref) and together.problem == failing[0]
        assert getattr(together, "index", None) == getattr(ref, "index", None)
        _assert_same_trace(together.trace, ref.trace)
        return
    points, traces = together
    assert len(points) == len(traces) == size
    assert traces.status == next((t.status for _, t in alone if not t.converged), "converged")
    assert traces.iterations == sum(t.iterations for _, t in alone)
    for point, trace, (ref_point, ref_trace) in zip(points, traces, alone):
        _assert_same_trace(trace, ref_trace)
        assert np.linalg.norm(point.matrix - ref_point.matrix) <= 1e-12


def test_batch_reports_the_lowest_failing_problem_and_keeps_going(monkeypatch):
    # problem 1 stops at the cut locus at its start and problem 3 fails its
    # first Newton step; problems 0 and 2 converge meanwhile
    newton_step, calls = karcher._newton_step, []

    def failing(*args):
        step, errors = newton_step(*args)
        if not calls:  # the running problems are 0, 2 and 3
            errors[2] = DegenerateCurvatureError("forced failure")
        calls.append(len(errors))
        return step, errors

    monkeypatch.setattr(karcher, "_newton_step", failing)
    rng = np.random.default_rng(41)
    frame = random_unitary(4, rng)
    stack = np.stack([[b.matrix for b in basis_cloud(4, 1, 6, 0.5, rng, frame)]
                      for _ in range(4)])
    stack[1, 2] = frame[:, 1:2]
    seen = []
    with pytest.raises(CutLocusError) as info:
        karcher_mean(KarcherProblem(_stack=stack), init=projector_from_basis(frame[:, :1]),
                     config=CGConfig(step_rule="newton_cp"),
                     callback=lambda it, points, *_: seen.append([p is not None for p in points]))
    assert (info.value.problem, info.value.index) == (1, 2)
    assert info.value.trace.status == "cut_locus" and info.value.trace.iterations == 0
    assert seen[0] == [True, False, True, True]
    assert seen[1] == [True, False, True, False] and calls[:2] == [3, 2]


def test_a_failed_line_search_retries_from_steepest_descent_then_stops(monkeypatch):
    # every Armijo search fails: the first iteration tries its direction, then
    # steepest descent, and the solve stops with the typed error and its trace
    calls = []

    def failing(objective, value0, slope, step):
        calls.append(slope)
        raise LineSearchFailedError("forced failure")

    monkeypatch.setattr(karcher, "backtracking_step", failing)
    _, problem = ball_problem(5, 2, 10, 0.5, seed=37)
    with pytest.raises(LineSearchFailedError) as info:
        karcher_mean(problem)
    assert len(calls) == 2 and info.value.problem == 0
    assert info.value.trace.status == "line_search_failed"
    assert [item.iteration for item in info.value.trace.iterates] == [0]

    # in a batch only the wide cloud, problem 1, fails its searches; the
    # tight clouds converge and the error names problem 1
    def wide_fails(objective, value0, slope, step):
        if value0 > 0.2:  # the tight clouds start near cost 0.02, the wide one at 0.5
            raise LineSearchFailedError("forced failure")
        return backtracking_step(objective, value0, slope, step)

    monkeypatch.setattr(karcher, "backtracking_step", wide_fails)
    rng = np.random.default_rng(42)
    frame = random_unitary(4, rng)
    stack = np.stack([[b.matrix for b in basis_cloud(4, 2, 6, radius, rng, frame)]
                      for radius in (0.3, 1.2, 0.3)])
    last = {}

    def watch(iteration, points, grads, directions):
        last.update((b, grad.norm()) for b, grad in enumerate(grads) if grad is not None)

    with pytest.raises(LineSearchFailedError) as info:
        karcher_mean(KarcherProblem(_stack=stack), callback=watch)
    assert info.value.problem == 1 and info.value.trace.status == "line_search_failed"
    assert info.value.trace.iterations == 0
    assert last[0] < CGConfig().grad_tol and last[2] < CGConfig().grad_tol


def test_one_failed_line_search_restarts_and_the_solve_converges(monkeypatch):
    # the third Armijo search (iteration 3) fails once; the retry runs from
    # steepest descent, its iterate records the restart, and the solve goes on
    calls = []

    def fails_once(objective, value0, slope, step):
        calls.append(slope)
        if len(calls) == 3:
            raise LineSearchFailedError("forced failure")
        return backtracking_step(objective, value0, slope, step)

    monkeypatch.setattr(karcher, "backtracking_step", fails_once)
    _, problem = ball_problem(5, 2, 10, 0.5, seed=37)
    _, trace = karcher_mean(problem)
    assert trace.converged
    assert [item.restart for item in trace.iterates[1:4]] == [False, False, True]
    gnorm = trace.iterates[2].grad_norm
    assert calls[3] == -2.0 * (1.0 / 10) * gnorm * gnorm  # the steepest-descent slope


def test_projector_data_take_one_batched_eigh(monkeypatch):
    # points built by the package contribute the basis they keep, bit for bit;
    # projectors the caller built take their top eigenvectors, bit for bit
    # with an eigh of each alone, from one eigh over all of them, and keep
    # them; a rank-deficient projector is still rejected
    _, points = random_cloud(6, 2, 30, 0.5, np.random.default_rng(35))
    bare = tuple(GrassmannPoint(point.matrix) for point in points[::2])
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    bases = KarcherProblem(points + bare).bases
    again = KarcherProblem(bare).bases
    assert eighs == [(15, 6, 6)]
    for point, basis in zip(points, bases[:30]):
        assert basis.tobytes() == point._basis.tobytes()
    for point, basis in zip(bare, bases[30:]):
        assert basis.tobytes() == eigh(point.matrix)[1][:, ::-1][:, :2].tobytes()
        assert point._basis.tobytes() == basis.tobytes() and not point._basis.flags.writeable
    assert np.array_equal(again, bases[30:])
    broken = object.__new__(GrassmannPoint)
    object.__setattr__(broken, "matrix", np.zeros((3, 3), dtype=complex))
    object.__setattr__(broken, "rank", 1)
    with pytest.raises(InvalidInputError, match="rank deficient"):
        KarcherProblem((GrassmannPoint(np.diag([1.0, 0.0, 0.0])), broken))


def test_built_points_reach_the_solver_without_eigh(monkeypatch):
    # exp-built data and a returned mean hand over the bases they keep, so
    # neither the problem nor basis_from_projector runs an eigendecomposition
    _, points = random_cloud(5, 2, 12, 0.5, np.random.default_rng(37))
    mean, trace = karcher_mean(KarcherProblem(points))
    assert trace.converged

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    problem = KarcherProblem(points)
    assert np.array_equal(problem.bases, [point._basis for point in points])
    basis = basis_from_projector(mean)
    assert basis.matrix is mean._basis
    assert np.linalg.norm(projector_from_basis(basis).matrix - mean.matrix) < 1e-14


def test_the_readers_stack_is_copied_once_in_order(tmp_path):
    # the bases of a stack the file reader hands out, in any order or mixed
    # with rows of another read, become one read-only stack of their own
    stack = np.stack([b.matrix for b in basis_cloud(5, 2, 7, 0.4, np.random.default_rng(36))])
    write_subspace_file(tmp_path / "cloud.json", stack)
    bases = read_subspace_file(tmp_path / "cloud.json")
    problem = KarcherProblem(bases)
    assert np.array_equal(problem.bases, stack) and not problem.bases.flags.writeable
    assert not np.shares_memory(problem.bases, bases[0].matrix)
    assert np.array_equal(KarcherProblem(bases[::-1]).bases, stack[::-1])
    mixed = bases[:3] + read_subspace_file(tmp_path / "cloud.json")[3:]
    assert np.array_equal(KarcherProblem(mixed).bases, stack)


def test_cost_and_gradient_raise_at_the_cut_locus():
    line, across = np.eye(3)[:, :1], np.eye(3)[:, 1:2]
    problem = KarcherProblem((StiefelBasis(across),))
    at = projector_from_basis(line)
    with pytest.raises(CutLocusError):
        karcher_cost(problem, at)
    with pytest.raises(CutLocusError):
        karcher_gradient(problem, at)
    with pytest.raises(CutLocusError) as info:
        newton_step_cp(problem, at, zero_tangent(at))
    assert info.value.index == 0
    # on CP^1 a datum at angle theta weighs the direction across it by
    # w(2 theta) = 2 theta cot(2 theta), and the one along it by 1, so at
    # phi = 2 theta with phi cot phi = -1 the curvature along D cancels
    phi = 2.0287578381104342
    assert abs(phi / np.tan(phi) + 1.0) < 1e-15
    data = (StiefelBasis(np.array([[np.cos(0.3)], [np.sin(0.3)]], dtype=complex)),
            StiefelBasis(np.array([[np.cos(phi / 2)], [1j * np.sin(phi / 2)]])))
    at = projector_from_basis(np.eye(2, 1))
    direction = TangentVector(at, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(DegenerateCurvatureError, match="numerically zero"):
        newton_step_cp(KarcherProblem(data), at, direction)
