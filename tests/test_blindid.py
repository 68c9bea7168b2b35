import numpy as np
import pytest

import grassmean.blindid as blindid
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
    DomainError,
    IllConditionedError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from grassmean.grassmann import dist, exp, log, projector_from_basis
from grassmean.karcher import CGConfig, KarcherProblem, karcher_mean


def unit_columns(mat):
    return mat / np.linalg.norm(mat, axis=0)


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError):
        MixingExperiment(n=1)
    with pytest.raises(InvalidInputError):
        MixingExperiment(n_estimations=0)
    with pytest.raises(InvalidInputError):
        MixingExperiment(noise_level=-0.1)
    with pytest.raises(InvalidInputError):
        MixingExperiment(samples_per_trial=20)
    # non-finite noise and non-integral counts are caught at the boundary,
    # before any trial draws
    for bad in ({"noise_level": np.nan}, {"noise_level": np.inf}, {"n": 2.5},
                {"n_estimations": 2.0}, {"trials": 2.5},
                {"samples_per_trial": 1000.5}, {"rng_seed": -1}, {"rng_seed": 0.5}):
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
    rng = np.random.default_rng(14)
    x = rng.standard_normal((n, num))
    y = rng.standard_normal((n, num))
    expected = np.cos(theta)[:, None] * x + 1j * np.sin(theta)[:, None] * y
    np.testing.assert_array_equal(generate_sources(n, num, np.random.default_rng(14)),
                                  expected)


def test_generate_sources_rejects_short_batch():
    with pytest.raises(InvalidInputError):
        generate_sources(5, 40, np.random.default_rng(0))


def test_mix_is_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = rng.standard_normal((3, 3))
    s = rng.standard_normal((3, 50))
    np.testing.assert_array_equal(mix(a, z, 0.0, s), a @ s)
    np.testing.assert_allclose(mix(a, z, 0.7, s), (a + 0.7 * z) @ s, atol=1e-14)
    with pytest.raises(InvalidInputError):
        mix(a, np.eye(2), 1.0, s)


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


def test_estimate_set_validation():
    with pytest.raises(InvalidInputError):
        EstimateSet(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        EstimateSet(2.0 * np.stack([np.eye(3)]))
    stack = EstimateSet(np.stack([np.eye(3), np.eye(3)]))
    assert stack.count == 2 and stack.n == 3
    proj = projector_from_basis(stack.column_basis(0, 1))
    assert proj.rank == 1 and abs(proj.matrix[1, 1] - 1.0) < 1e-14


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
        a = projector_from_basis(pair.column_basis(0, j))
        b = projector_from_basis(pair.column_basis(1, j))
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
    (karcher, "_newton_step", DomainError, "domain_error"),
    (blindid, "average_euclid", DegenerateAverageError, "degenerate_average"),
    (karcher, "_newton_step", InvalidInputError, None),
    (karcher, "_newton_step", NotDescentDirectionError, None),
])
def test_typed_failures_carry_their_status(monkeypatch, module, name, error, status):
    # the status strings are stored in results CSVs and counted by the
    # benchmark, so they are pinned literally; errors without one propagate
    def broken(*args):
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
