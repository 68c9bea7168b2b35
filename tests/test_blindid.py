import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grassmean.blindid as blindid
import grassmean.grassmann as grassmann
import grassmean.karcher as karcher
from conftest import random_cloud, random_unitary
from grassmean.blindid import (
    EstimateSet,
    MixingExperiment,
    align_columns,
    amari_error,
    average_euclid,
    average_karcher,
    generate_sources,
    mix,
    run_experiment,
    sut_estimate,
    sut_from_covariances,
    takagi,
)
from grassmean.exceptions import (
    AmbiguousModelWarning,
    CutLocusError,
    DegenerateAverageError,
    DegenerateCurvatureError,
    IllConditionedError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from grassmean.grassmann import StiefelBasis, dist, exp, log, projector_from_basis
from grassmean.karcher import CGConfig, KarcherProblem, karcher_mean


def unit_columns(mat):
    return mat / np.linalg.norm(mat, axis=0)


def near_estimates(seed, count):
    """``count`` unit-column 5x5 estimates, each a small perturbation of one reference."""
    rng = np.random.default_rng(seed)
    ref = unit_columns(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    return EstimateSet(np.stack([
        unit_columns(ref + 0.05 * (rng.standard_normal((5, 5))
                                   + 1j * rng.standard_normal((5, 5)))) for _ in range(count)]))


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError):
        MixingExperiment(n=1)
    with pytest.raises(InvalidInputError):
        MixingExperiment(n_estimations=0)
    with pytest.raises(InvalidInputError):
        MixingExperiment(noise_level=-0.1)
    with pytest.raises(InvalidInputError):
        MixingExperiment(samples_per_trial=20)
    with pytest.raises(InvalidInputError, match="at least one trial"):
        MixingExperiment(trials=0)
    # non-finite noise and non-integral counts are caught at the boundary,
    # before any trial draws
    for bad in ({"noise_level": np.nan}, {"noise_level": np.inf}, {"n": 2.5},
                {"n_estimations": 2.0}, {"trials": 2.5},
                {"samples_per_trial": 1000.5}, {"rng_seed": -1}, {"rng_seed": 0.5},
                {"trials": True}, {"n_estimations": True}, {"rng_seed": False},
                {"noise_level": True}, {"noise_level": "0.5"}):
        with pytest.raises(InvalidInputError):
            MixingExperiment(**bad)
    assert MixingExperiment(n=np.int64(3), trials=np.int64(2)).n == 3


def test_generate_sources_moments():
    n, num = 4, 200000
    rng = np.random.default_rng(0)
    s = generate_sources(n, num, rng)
    bound = 5.0 / np.sqrt(num)
    cov = s @ s.conj().T / num
    assert np.linalg.norm(cov - np.eye(n)) < n * bound
    pseudo = s @ s.T / num
    theta = (np.arange(1, n + 1) / (n + 1)) * (np.pi / 4)
    np.testing.assert_allclose(np.diag(pseudo).real, np.cos(2 * theta), atol=bound)
    # circularity coefficients are distinct by construction
    assert np.min(np.abs(np.diff(np.cos(2 * theta)))) > 0.01


def test_generate_sources_is_the_documented_mix():
    n, num = 4, 300
    theta = (np.arange(1, n + 1) / (n + 1)) * (np.pi / 4)
    # x and y replay the two child streams of rng.spawn(2)
    x_rng, y_rng = np.random.default_rng(14).spawn(2)
    x = x_rng.standard_normal((n, num))
    y = y_rng.standard_normal((n, num))
    expected = np.cos(theta)[:, None] * x + 1j * np.sin(theta)[:, None] * y
    np.testing.assert_array_equal(generate_sources(n, num, np.random.default_rng(14)),
                                  expected)


class _UnspawnableSeed(np.random.bit_generator.ISeedSequence):
    def generate_state(self, n_words, dtype=np.uint32):
        return np.arange(1, n_words + 1, dtype=dtype)


def test_generate_sources_rejects_rng_that_cannot_spawn(monkeypatch):
    # rejected at the boundary, before any draw thread is asked for
    monkeypatch.setattr(blindid, "_draw_thread", None)
    for bad in (np.random.RandomState(0), 0, None,
                np.random.Generator(np.random.PCG64(_UnspawnableSeed()))):
        with pytest.raises(InvalidInputError, match="spawnable seed sequence"):
            generate_sources(3, 300, bad)


def test_generate_sources_is_deterministic_across_caller_threads(monkeypatch):
    # more callers than cores, with frequent thread switches, all starting
    # the draw thread at once: each gets the arrays of sequential calls
    seeds = range(8)

    def calls(seed):
        rng = np.random.default_rng(seed)
        return [generate_sources(5, 4000, rng) for _ in range(3)]

    sequential = [calls(seed) for seed in seeds]
    blindid._draw_thread.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            concurrent = list(callers.map(calls, seeds, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for seq, conc in zip(sequential, concurrent):
        for a, b in zip(seq, conc):
            np.testing.assert_array_equal(a, b)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_generate_sources_in_a_forked_child():
    # the parent's draw thread is running when it forks; the child starts
    # its own, so its draws neither hang nor differ from the parent's
    expected = generate_sources(3, 300, np.random.default_rng(23))
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            # 14.4 kB, within any pipe's buffer, so the write never blocks
            os.write(write_end, generate_sources(3, 300, np.random.default_rng(23)).tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    deadline = time.monotonic() + 30
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("generate_sources hung in a forked child")
        time.sleep(0.01)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    np.testing.assert_array_equal(np.frombuffer(payload, dtype=complex).reshape(expected.shape),
                                  expected)


@pytest.mark.parametrize("warm", [False, True])
def test_generate_sources_after_interpreter_shutdown_began(warm):
    # a non-daemon thread that draws after the main thread returns: no new
    # thread or executor work is allowed then, so y is drawn inline, whether
    # the draw thread never started (cold) or already ran (warm)
    src = Path(blindid.__file__).resolve().parents[1]
    script = (f"import sys, threading; sys.path.insert(0, {str(src)!r})\n"
              "import numpy as np\n"
              "from grassmean.blindid import generate_sources\n"
              f"if {warm}: generate_sources(3, 300, np.random.default_rng(1))\n"
              "def late():\n"
              "    threading.main_thread().join()\n"
              "    sys.stdout.buffer.write(\n"
              "        generate_sources(3, 300, np.random.default_rng(0)).tobytes())\n"
              "threading.Thread(target=late).start()\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
    assert done.returncode == 0 and not done.stderr, done.stderr.decode()
    assert done.stdout == generate_sources(3, 300, np.random.default_rng(0)).tobytes()


def test_generate_sources_rejects_short_batch(monkeypatch):
    # bad sizes are rejected at the boundary, before any draw or draw thread
    monkeypatch.setattr(blindid, "_draw_thread", None)
    rng = np.random.default_rng(0)
    for n, num in ((-1, 300), (0, 300), (2.5, 300), (True, 300), (np.float64(3.0), 300),
                   (3, 300.0), (3, "300"), (3, None), (5, 40)):
        with pytest.raises(InvalidInputError):
            generate_sources(n, num, rng)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    monkeypatch.undo()
    with pytest.raises(InvalidInputError, match="at least 50 samples"):
        sut_estimate(generate_sources(5, 50, np.random.default_rng(0))[:, :49])


def test_mix_is_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = rng.standard_normal((3, 3))
    s = rng.standard_normal((3, 50))
    np.testing.assert_array_equal(mix(a, z, 0.0, s), a @ s)
    np.testing.assert_allclose(mix(a, z, 0.7, s), (a + 0.7 * z) @ s, atol=1e-14)
    with pytest.raises(InvalidInputError):
        mix(a, np.eye(2), 1.0, s)
    with pytest.raises(InvalidInputError, match="shapes are incompatible"):
        mix(a, z, 1.0, s[:2])


def test_takagi_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sym = a + a.T
        vals, factor = takagi(sym)
        assert np.all(np.diff(vals) <= 0) and np.all(vals >= 0)
        assert np.linalg.norm(factor.conj().T @ factor - np.eye(n)) < 1e-10
        recon = factor @ np.diag(vals) @ factor.T
        assert np.linalg.norm(recon - sym) < 1e-10 * max(1.0, np.linalg.norm(sym))
    with pytest.raises(InvalidInputError, match="must be square"):
        takagi(np.ones((2, 3)))


def test_takagi_degenerate_and_zero_spectrum():
    rng = np.random.default_rng(3)
    u = random_unitary(5, rng)
    vals = np.array([2.0, 1.0, 1.0, 0.5, 0.0])
    sym = u @ np.diag(vals) @ u.T
    got_vals, factor = takagi(sym)
    np.testing.assert_allclose(got_vals, vals, atol=1e-10)
    assert np.linalg.norm(factor.conj().T @ factor - np.eye(5)) < 1e-10
    recon = factor @ np.diag(got_vals) @ factor.T
    assert np.linalg.norm(recon - sym) < 1e-9


def test_takagi_two_degenerate_pairs_and_a_simple_value():
    rng = np.random.default_rng(13)
    u = random_unitary(5, rng)
    vals = np.array([1.5, 1.5, 1.0, 0.25, 0.25])
    sym = u @ np.diag(vals) @ u.T
    got_vals, factor = takagi(sym)
    np.testing.assert_allclose(got_vals, vals, atol=1e-10)
    assert np.linalg.norm(factor.conj().T @ factor - np.eye(5)) < 1e-10
    recon = factor @ np.diag(got_vals) @ factor.T
    assert np.linalg.norm(recon - sym) < 1e-9


def assert_takagi(sym, vals, factor, tol=1e-12):
    # s descending, nonnegative and the singular values; U unitary; U diag(s) U^T = S
    n = sym.shape[0]
    scale = max(1.0, np.linalg.norm(sym))
    assert np.all(np.diff(vals) <= 0) and np.all(vals >= 0)
    np.testing.assert_allclose(vals, np.linalg.svd(sym, compute_uv=False), rtol=0,
                               atol=tol * scale)
    assert np.linalg.norm(factor.conj().T @ factor - np.eye(n)) < tol
    assert np.linalg.norm(factor @ np.diag(vals) @ factor.T - sym) < tol * scale


@pytest.mark.parametrize("vals", [(2.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0,) * 4])
def test_takagi_completes_a_repeated_zero_spectrum(vals):
    # circular sources give repeated zero values, whose null space of the
    # real embedding does not split into a unitary block by itself
    u = random_unitary(4, np.random.default_rng(14))
    sym = u @ np.diag(vals) @ u.T
    got_vals, factor = takagi(sym)
    assert_takagi(sym, got_vals, factor)
    assert np.all(got_vals[np.array(vals) == 0.0] == 0.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_takagi_of_repeated_and_zero_values(data):
    # n <= 8 with values drawn from a few levels, so repeats (zeros
    # included) are frequent; a stack factors as its matrices do one by one
    n = data.draw(st.integers(1, 8), label="n")
    levels = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0]),
                                min_size=1, max_size=3), label="levels")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stack = []
    for _ in range(3):
        vals = np.sort(rng.choice(levels, n))[::-1]
        u = random_unitary(n, rng)
        stack.append(u @ np.diag(vals) @ u.T)
        got_vals, factor = takagi(stack[-1])
        assert_takagi(stack[-1], got_vals, factor)
    stack = np.stack(stack)
    got_vals, factors = blindid._takagi(0.5 * (stack + stack.mT))
    for sym, vals, factor in zip(stack, got_vals, factors):
        assert_takagi(sym, vals, factor)


def test_sut_identity_case_from_population_covariances():
    # A = I with exact moments: the estimate must be I up to phase and
    # permutation, which the Amari error quotients out
    n = 5
    theta = (np.arange(1, n + 1) / (n + 1)) * (np.pi / 4)
    estimate = sut_from_covariances(np.eye(n), np.diag(np.cos(2 * theta)))
    assert amari_error(estimate, np.eye(n)) < 1e-6


def test_sut_noiseless_monte_carlo():
    rng = np.random.default_rng(4)
    n, num = 5, 50000
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = generate_sources(n, num, rng)
    estimate = sut_estimate(a @ s)
    assert amari_error(estimate, a) < 0.05


def test_sut_is_invariant_to_scaled_permutation_of_truth():
    rng = np.random.default_rng(5)
    n, num = 4, 50000
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scales = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 2.0, n)
    perm = rng.permutation(n)
    b = (a * scales)[:, perm]
    est_a = sut_estimate(a @ generate_sources(n, num, rng))
    est_b = sut_estimate(b @ generate_sources(n, num, rng))
    # columns agree as lines in C^n after matching
    overlap = np.abs(est_a.conj().T @ est_b)
    matched = np.max(overlap, axis=1)
    assert np.all(matched > 0.99)


def test_sut_rejects_singular_covariance():
    with pytest.raises(IllConditionedError):
        sut_from_covariances(np.diag([1.0, 1e-12]), np.eye(2))
    with pytest.raises(InvalidInputError):
        sut_from_covariances(np.eye(3), np.eye(2))


def test_sut_warns_on_near_equal_circularity():
    with pytest.warns(AmbiguousModelWarning):
        sut_from_covariances(np.eye(2), np.diag([0.5, 0.5 + 1e-4]))


def test_sut_of_a_stack_names_the_lowest_offending_estimate():
    rng = np.random.default_rng(15)
    theta = (np.arange(1, 4) / 4) * (np.pi / 4)
    mixers = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    covs = mixers @ mixers.conj().mT
    pseudos = mixers @ (np.cos(2 * theta)[:, None] * mixers.mT)
    stacked = blindid._sut(covs, pseudos)
    for cov, pseudo, estimate in zip(covs, pseudos, stacked):
        np.testing.assert_allclose(estimate, sut_from_covariances(cov, pseudo), atol=1e-12)
    singular = covs.copy()
    singular[[3, 4]] = np.diag([1.0, 1.0, 1e-12])
    with pytest.raises(IllConditionedError, match=r"^estimate 3: covariance is numerically singular$"):
        blindid._sut(singular, pseudos)
    close = pseudos.copy()
    close[[2, 4]] = mixers[[2, 4]] @ (np.array([0.5, 0.5 + 1e-4, 0.1])[:, None]
                                       * mixers[[2, 4]].mT)
    with pytest.warns(AmbiguousModelWarning, match=r"^estimate 2: estimated circularity"):
        blindid._sut(covs, close)


def test_estimate_set_validation():
    with pytest.raises(InvalidInputError):
        EstimateSet(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        EstimateSet(2.0 * np.stack([np.eye(3)]))
    with pytest.raises(InvalidInputError):
        EstimateSet(np.zeros((0, 3, 3)))
    with pytest.raises(InvalidInputError):
        EstimateSet(np.zeros((2, 0, 0)))
    with pytest.raises(InvalidInputError, match="non-finite"):
        EstimateSet(np.stack([np.eye(3), np.full((3, 3), np.nan)]))
    stack = EstimateSet(np.stack([np.eye(3), np.eye(3)]))
    assert stack.count == 2 and stack.n == 3
    proj = projector_from_basis(StiefelBasis(stack.matrices[0][:, 1:2]))
    assert proj.rank == 1 and abs(proj.matrix[1, 1] - 1.0) < 1e-14


def test_estimate_set_checks_columns_as_bases():
    # a column off by 2e-9 in norm is no basis to STIEFEL_TOL, so the set
    # rejects it and names it, rather than leave average_karcher to fail on
    # it without a column
    rng = np.random.default_rng(12)
    mats = np.stack([unit_columns(rng.standard_normal((4, 4))
                                  + 1j * rng.standard_normal((4, 4))) for _ in range(3)])
    EstimateSet(mats)
    off = mats.copy()
    off[1, :, 2] *= 1.0 + 2e-9
    off[2, :, 0] *= 1.0 + 2e-9
    with pytest.raises(InvalidInputError, match=r"^estimate 1 column 2 must have unit norm$"):
        EstimateSet(off)
    off = mats.copy()
    off[0, :, 3] *= 1.0 + 1e-12  # within STIEFEL_TOL
    EstimateSet(off)


def test_average_karcher_splits_the_column_stack_once(monkeypatch):
    aligned = near_estimates(13, 10)
    built = []
    original = StiefelBasis.__post_init__
    monkeypatch.setattr(StiefelBasis, "__post_init__",
                        lambda self: built.append(1) or original(self))
    means = average_karcher(aligned)
    assert len(means) == 5 and not built


def test_align_columns_recovers_a_swap():
    rng = np.random.default_rng(6)
    ref = unit_columns(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    perm = np.array([2, 0, 3, 1])
    shuffled = ref[:, perm]
    estimates = EstimateSet(np.stack([ref, shuffled]))
    aligned = align_columns(estimates)
    np.testing.assert_allclose(aligned.matrices[1], ref, atol=1e-12)
    np.testing.assert_array_equal(aligned.matrices[0], ref)


def test_align_columns_on_noisy_clones():
    # identity permutation must be recovered essentially always at eps 0.01
    rng = np.random.default_rng(7)
    hits = 0
    trials = 1000
    for _ in range(trials):
        ref = unit_columns(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        clone = unit_columns(ref + 0.01 * (rng.standard_normal((5, 5))
                                           + 1j * rng.standard_normal((5, 5))))
        aligned = align_columns(EstimateSet(np.stack([ref, clone])))
        if np.allclose(aligned.matrices[1], clone):
            hits += 1
    assert hits >= 0.99 * trials


def test_average_karcher_identical_and_midpoint():
    rng = np.random.default_rng(8)
    ref = unit_columns(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    same = average_karcher(EstimateSet(np.stack([ref, ref])))
    for j, point in enumerate(same):
        expected = np.outer(ref[:, j], ref[:, j].conj())
        assert np.linalg.norm(point.matrix - expected) < 1e-8
    # a slightly rotated copy averages to the per-column geodesic midpoint
    bumped = unit_columns(ref + 0.1 * (rng.standard_normal((3, 3))
                                       + 1j * rng.standard_normal((3, 3))))
    pair = EstimateSet(np.stack([ref, bumped]))
    means = average_karcher(pair)
    for j, point in enumerate(means):
        a = projector_from_basis(StiefelBasis(pair.matrices[0][:, j:j + 1]))
        b = projector_from_basis(StiefelBasis(pair.matrices[1][:, j:j + 1]))
        midpoint = exp(a, 0.5 * log(a, b))
        assert dist(point, midpoint) < 1e-6


def test_average_euclid_sums_and_normalizes():
    rng = np.random.default_rng(9)
    ref = unit_columns(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    out = average_euclid(EstimateSet(np.stack([ref, ref])))
    np.testing.assert_allclose(out, ref, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)


def test_average_euclid_cancellation_raises():
    # the baseline does no phase fixing, so antipodal copies cancel exactly
    rng = np.random.default_rng(10)
    ref = unit_columns(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    with pytest.raises(DegenerateAverageError):
        average_euclid(EstimateSet(np.stack([ref, -ref])))


def test_single_estimation_methods_coincide():
    rng = np.random.default_rng(11)
    ref = unit_columns(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    single = EstimateSet(ref[None, :, :])
    karcher = average_karcher(single)
    euclid = average_euclid(single)
    for j, point in enumerate(karcher):
        expected = np.outer(euclid[:, j], euclid[:, j].conj())
        assert np.linalg.norm(point.matrix - expected) < 1e-10


def test_amari_error_values():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert amari_error(a, a) < 1e-12
    scales = np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) * rng.uniform(0.5, 2.0, 4)
    perm = rng.permutation(4)
    assert amari_error((a * scales)[:, perm], a) < 1e-12
    # hand-evaluated unit: B = [[1, 1], [0, 1]] gives J = 1
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert abs(amari_error(np.eye(2), b) - 1.0) < 1e-12
    with pytest.raises(IllConditionedError):
        amari_error(np.zeros((3, 3)), np.eye(3))
    with pytest.raises(InvalidInputError):
        amari_error(np.eye(3), np.eye(4))


def test_run_experiment_is_deterministic():
    cfg = MixingExperiment(n=3, n_estimations=3, trials=3, samples_per_trial=500,
                           rng_seed=42)
    first = run_experiment(cfg, "noise_level", [0.5])
    second = run_experiment(cfg, "noise_level", [0.5])
    assert first == second
    assert all(row.status == "ok" for row in first)


def test_run_experiment_rejects_unknown_sweep():
    cfg = MixingExperiment(trials=1)
    with pytest.raises(InvalidInputError):
        run_experiment(cfg, "samples_per_trial", [100])
    with pytest.raises(InvalidInputError):
        run_experiment(cfg, "noise_level", [])


def sample_route_estimates(cfg, rng):
    # the trial's draws, replayed through the public sample route
    n = cfg.n
    mixing = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    estimates = []
    for _ in range(cfg.n_estimations):
        perturbation = (rng.uniform(-0.5, 0.5, (n, n))
                        + 1j * rng.uniform(-0.5, 0.5, (n, n)))
        sources = generate_sources(n, cfg.samples_per_trial, rng)
        estimates.append(sut_estimate(mix(mixing, perturbation, cfg.noise_level, sources)))
    return mixing, np.stack(estimates)


def test_moment_route_matches_sample_route(monkeypatch):
    cfg = MixingExperiment(n=5, n_estimations=4, noise_level=0.5, trials=5,
                           samples_per_trial=2000, rng_seed=17)
    mixing, estimates = blindid._trial_estimates(cfg, np.random.default_rng([17, 0]))
    ref_mixing, ref_estimates = sample_route_estimates(cfg, np.random.default_rng([17, 0]))
    np.testing.assert_array_equal(mixing, ref_mixing)
    np.testing.assert_allclose(estimates, ref_estimates, rtol=0, atol=1e-10)

    rows = run_experiment(cfg, "noise_level", [0.5])
    monkeypatch.setattr(blindid, "_trial_estimates", sample_route_estimates)
    ref_rows = run_experiment(cfg, "noise_level", [0.5])
    assert [r.status for r in rows] == [r.status for r in ref_rows]
    for row, ref in zip(rows, ref_rows):
        if ref.status == "ok":
            assert abs(row.amari_karcher - ref.amari_karcher) < 1e-9
            assert abs(row.amari_euclid - ref.amari_euclid) < 1e-9


def test_trial_draws_sources_once_per_estimation(monkeypatch):
    # the benchmark's span tracer counts blindid.generate_sources calls, and
    # its smoke test needs them to be nonzero on the trial workload
    calls = []

    def counted(*args):
        calls.append(args)
        return generate_sources(*args)

    monkeypatch.setattr(blindid, "generate_sources", counted)
    cfg = MixingExperiment(n=3, n_estimations=4, trials=2, samples_per_trial=500)
    rows = run_experiment(cfg, "noise_level", [0.5])
    assert len(calls) == cfg.trials * cfg.n_estimations
    assert all(row.status == "ok" for row in rows)


def test_run_experiment_records_failures(monkeypatch):
    def broken(cov, pseudo):
        raise IllConditionedError("forced failure")

    monkeypatch.setattr(blindid, "_sut", broken)
    cfg = MixingExperiment(n=3, n_estimations=2, trials=2, samples_per_trial=500)
    rows = run_experiment(cfg, "noise_level", [0.5])
    assert len(rows) == 2
    for row in rows:
        assert row.status == "ill_conditioned"
        assert row.amari_karcher is None and row.amari_euclid is None


@pytest.mark.parametrize("module, name, error, status", [
    (karcher, "_newton_step", CutLocusError, "cut_locus"),
    (karcher, "_newton_step", LineSearchFailedError, "line_search_failed"),
    (karcher, "_newton_step", DegenerateCurvatureError, "degenerate_curvature"),
    (blindid, "average_euclid", DegenerateAverageError, "degenerate_average"),
    (karcher, "_newton_step", InvalidInputError, None),
    (karcher, "_newton_step", NotDescentDirectionError, None),
])
def test_typed_failures_carry_their_status(monkeypatch, module, name, error, status):
    # the status strings are stored in results CSVs and counted by the
    # benchmark, so they are pinned literally; errors without one propagate.
    # A typed solver failure reaches the row the one way a solve fails: as
    # the per-problem errors that the Newton step returns
    newton_step = karcher._newton_step

    def broken(*args):
        if module is karcher and status is not None:
            step, errors = newton_step(*args)
            return step, [error("forced failure")] * len(errors)
        raise error("forced failure")

    monkeypatch.setattr(module, name, broken)
    if module is karcher:
        _, points = random_cloud(4, 1, 5, 0.3, np.random.default_rng(40))
        with pytest.raises(error) as info:
            karcher_mean(KarcherProblem(points), config=CGConfig(step_rule="newton_cp"))
        if status is not None:
            assert info.value.trace.status == status
    cfg = MixingExperiment(n=3, n_estimations=3, trials=1, samples_per_trial=500)
    if status is None:
        with pytest.raises(error):
            run_experiment(cfg, "noise_level", [0.5])
        return
    (row,) = run_experiment(cfg, "noise_level", [0.5])
    assert row.status == status
    assert row.amari_karcher is None and row.amari_euclid is None


def test_karcher_beats_euclid_at_high_noise():
    cfg = MixingExperiment(n=5, n_estimations=10, trials=15, samples_per_trial=2000,
                           rng_seed=0)
    rows = run_experiment(cfg, "noise_level", [1.0])
    ks = [r.amari_karcher for r in rows if r.status == "ok"]
    es = [r.amari_euclid for r in rows if r.status == "ok"]
    assert len(ks) >= 10
    assert np.median(ks) < np.median(es)


def _greedy_assignment(estimates):
    # the column matching of align_columns, one estimate and one greedy pick at a time
    ref = estimates.matrices[0]
    perms = []
    for est in estimates.matrices:
        free = np.abs(ref.conj().T @ est) ** 2
        assignment = np.full(estimates.n, -1)
        for _ in range(estimates.n):
            k, j = np.unravel_index(np.argmax(free), free.shape)
            assignment[k] = j
            free[k, :] = -1.0
            free[:, j] = -1.0
        perms.append(est[:, assignment])
    return np.stack(perms)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_align_columns_matches_the_greedy_loop(data):
    # exact ties come from columns drawn from a few repeated unit vectors,
    # including the coordinate axes, whose overlaps are exactly 0 or 1
    n = data.draw(st.integers(1, 7), label="n")
    count = data.draw(st.integers(1, 6), label="count")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    pool = np.hstack([np.eye(n), unit_columns(rng.standard_normal((n, 3))
                                              + 1j * rng.standard_normal((n, 3)))])
    if data.draw(st.booleans(), label="ties"):
        picks = rng.integers(pool.shape[1], size=(count, n))
        mats = np.stack([pool[:, pick] for pick in picks])
    else:
        mats = np.stack([unit_columns(rng.standard_normal((n, n))
                                      + 1j * rng.standard_normal((n, n))) for _ in range(count)])
    estimates = EstimateSet(mats)
    aligned = align_columns(estimates)
    assert aligned.matrices.tobytes() == _greedy_assignment(estimates).tobytes()
    assert not aligned.matrices.flags.writeable


def test_trial_checks_its_estimate_columns_once(monkeypatch):
    # the SUT normalizes its estimates' columns itself, so the trial builds
    # its EstimateSet trusted, and aligning and averaging read that stack:
    # no orthonormality test runs in the trial. The one check is here: the
    # stack the trial aligned passes the public EstimateSet check unchanged
    calls, aligned = [], []
    original, align = blindid._stiefel_defects, blindid.align_columns

    def counted(stack):
        calls.append(stack.shape)
        return original(stack)

    monkeypatch.setattr(blindid, "_stiefel_defects", counted)
    monkeypatch.setattr(grassmann, "_stiefel_defects", counted)
    monkeypatch.setattr(blindid, "align_columns", lambda s: aligned.append(s) or align(s))
    cfg = MixingExperiment(n=4, n_estimations=5, trials=1, samples_per_trial=500)
    (row,) = run_experiment(cfg, "noise_level", [0.5])
    assert row.status == "ok"
    assert calls == []
    (estimates,) = aligned
    assert not estimates.matrices.flags.writeable
    checked = EstimateSet(estimates.matrices)
    assert calls == [(5, 4, 4, 1)]
    assert checked.matrices.tobytes() == estimates.matrices.tobytes()


def test_average_karcher_solves_every_column_in_one_call(monkeypatch):
    calls = []

    def counted(problem, **kwargs):
        calls.append(problem.bases.shape)
        return karcher_mean(problem, **kwargs)

    monkeypatch.setattr(blindid, "karcher_mean", counted)
    aligned = near_estimates(14, 7)
    means = average_karcher(aligned)
    assert calls == [(5, 7, 5, 1)]
    for j, point in enumerate(means):
        alone, trace = karcher_mean(KarcherProblem([StiefelBasis(m[:, j:j + 1])
                                                    for m in aligned.matrices]),
                                    config=CGConfig(step_rule="newton_cp"))
        assert trace.converged
        assert np.linalg.norm(point.matrix - alone.matrix) < 1e-12


def test_average_karcher_names_the_lowest_cut_column():
    # columns 1 and 2 hold two orthogonal lines each, so their averages stop
    # at the cut locus; column 1 is named, as column by column solving would
    eye = np.eye(3, dtype=complex)
    with pytest.raises(CutLocusError) as info:
        average_karcher(EstimateSet(np.stack([eye, eye[:, [0, 2, 1]]])))
    assert info.value.column == 1 and info.value.index == 1
    assert str(info.value).startswith("column 1: ")
    assert info.value.trace.status == "cut_locus"


def test_average_karcher_names_a_column_that_stops_with_another_failure(monkeypatch):
    # column 2 alone fails its first Newton step; the solver's own error is
    # raised, naming the column and keeping its partial trace
    newton_step = karcher._newton_step
    calls = []

    def failing(*args):
        step, errors = newton_step(*args)
        if not calls:
            errors[2] = DegenerateCurvatureError("forced failure")
        calls.append(len(errors))
        return step, errors

    monkeypatch.setattr(karcher, "_newton_step", failing)
    aligned = near_estimates(15, 7)
    with pytest.raises(DegenerateCurvatureError) as info:
        average_karcher(aligned)
    assert calls[0] == 5
    assert info.value.column == 2 and info.value.status == "degenerate_curvature"
    assert str(info.value) == "column 2: forced failure"
    assert info.value.trace.status == "degenerate_curvature"
    assert info.value.trace.iterations == 0 and len(info.value.trace.iterates) == 1
