"""Blind identification of noisy complex mixtures, used as a benchmark for
subspace averaging.

Noncircular complex sources are mixed through a randomly perturbed matrix;
each batch of observations yields one estimate of the mixing matrix through
the strong uncorrelating transform (whitening followed by a Takagi
factorization of the whitened pseudo-covariance). That transform needs only
the observations' covariance and pseudo-covariance, so a benchmark trial
takes them from its sources' second moments instead of mixing the samples;
``mix`` and ``sut_estimate`` remain the public sample route. Estimated
columns, viewed as lines in C^n, are then combined across batches either by
Karcher averaging on projective space or by phase-aligned Euclidean
averaging, and judged by the normalized Amari error against the true mixing
matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np
import scipy.linalg

from .exceptions import (
    AmbiguousModelWarning,
    CutLocusError,
    DegenerateAverageError,
    GrassmeanError,
    IllConditionedError,
    InvalidInputError,
)
from .grassmann import StiefelBasis, basis_from_projector
from .karcher import CGConfig, KarcherProblem, karcher_mean
from . import linalg

COND_LIMIT = 1e10
AMARI_COND_LIMIT = 1e12
CIRCULARITY_GAP_TOL = 1e-3
MIN_SAMPLES_PER_SOURCE = 10


@dataclass(frozen=True)
class MixingExperiment:
    """Configuration of one benchmark sweep.

    Every field is checked here, once: the counts and the seed must be
    integers and the noise level finite, so the trials that follow run
    unvalidated.
    """

    n: int = 5
    n_estimations: int = 10
    noise_level: float = 0.5
    trials: int = 100
    samples_per_trial: int = 10000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_estimations", "trials", "samples_per_trial", "rng_seed"):
            if not isinstance(getattr(self, name), Integral):
                raise InvalidInputError(f"{name} must be an integer")
        if self.n < 2:
            raise InvalidInputError("need at least two sources")
        if self.n_estimations < 1:
            raise InvalidInputError("need at least one estimation per trial")
        if not 0 <= self.noise_level < np.inf:
            raise InvalidInputError("noise level must be nonnegative and finite")
        if self.trials < 1:
            raise InvalidInputError("need at least one trial")
        if self.samples_per_trial < MIN_SAMPLES_PER_SOURCE * self.n:
            raise InvalidInputError(
                f"need at least {MIN_SAMPLES_PER_SOURCE * self.n} samples for n={self.n}")
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be nonnegative")


@dataclass(frozen=True, eq=False, repr=False)
class EstimateSet:
    """A stack of mixing-matrix estimates with unit-norm columns.

    ``matrices`` has shape (count, n, n); column j of ``matrices[i]`` is the
    representative unit vector of estimate i for source j.
    """

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise InvalidInputError(f"expected a (count, n, n) stack, got shape {mats.shape}")
        if not np.all(np.isfinite(mats)):
            raise InvalidInputError("estimates contain non-finite entries")
        norms = np.linalg.norm(mats, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise InvalidInputError("estimate columns must have unit norm")
        mats = mats.copy()
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def count(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def column_basis(self, i: int, j: int) -> StiefelBasis:
        return StiefelBasis(self.matrices[i][:, j:j + 1])

    def __repr__(self):
        return f"EstimateSet(count={self.count}, n={self.n})"


def generate_sources(n: int, num_samples: int, rng) -> np.ndarray:
    """Unit-variance noncircular Gaussian sources, one per row.

    Source k mixes independent real Gaussian streams as
    cos(theta_k) x + 1j sin(theta_k) y with theta_k = k pi / (4 (n+1)),
    k = 1..n, so the circularity coefficients |cos 2 theta_k| are distinct.
    """
    if num_samples < MIN_SAMPLES_PER_SOURCE * n:
        raise InvalidInputError(f"need at least {MIN_SAMPLES_PER_SOURCE * n} samples")
    theta = (np.arange(1, n + 1) / (n + 1)) * (np.pi / 4)
    x = rng.standard_normal((n, num_samples))
    y = rng.standard_normal((n, num_samples))
    sources = np.empty((n, num_samples), dtype=complex)
    np.multiply(np.cos(theta)[:, None], x, out=sources.real)
    np.multiply(np.sin(theta)[:, None], y, out=sources.imag)
    return sources


def mix(mixing: np.ndarray, perturbation: np.ndarray, noise_level: float,
        sources: np.ndarray) -> np.ndarray:
    """Observations (A + eps Z) s for one estimation batch."""
    mixing = linalg.as_matrix(mixing, "mixing")
    perturbation = linalg.as_matrix(perturbation, "perturbation")
    sources = linalg.as_matrix(sources, "sources")
    if mixing.shape != perturbation.shape:
        raise InvalidInputError("mixing and perturbation shapes differ")
    if mixing.shape[1] != sources.shape[0]:
        raise InvalidInputError("mixing and sources shapes are incompatible")
    return (mixing + noise_level * perturbation) @ sources


def takagi(matrix: np.ndarray, group_tol: float = 1e-8):
    """Takagi factorization M = U diag(s) U^T of a complex symmetric matrix.

    Built on the SVD: the unitary linking the left and right singular bases
    is block diagonal over groups of equal singular values and symmetric
    there, so its principal square root merges the two bases. Returns
    (s, U) with s descending and U unitary.
    """
    mat = linalg.as_matrix(matrix, "matrix")
    if mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("matrix must be square")
    return _takagi(0.5 * (mat + mat.T), group_tol)


def _takagi(sym: np.ndarray, group_tol: float = 1e-8):
    """``takagi`` of an exactly symmetric square matrix, unvalidated."""
    left, vals, right_h = np.linalg.svd(sym)
    link = left.conj().T @ right_h.T
    scale = max(vals[0], 1.0)
    # Groups are contiguous index ranges; each gap is measured from the
    # start of its group. group[k] is the first index of k's group.
    group = np.zeros(len(vals), dtype=int)
    for k in range(1, len(vals)):
        group[k] = group[k - 1] if vals[group[k - 1]] - vals[k] <= group_tol * scale else k
    blocks = np.where(group[:, None] == group[None, :], link, 0.0)
    blocks = 0.5 * (blocks + blocks.T)
    zero = group[-1]
    if vals[zero] <= group_tol * scale:
        # the null space has no phase to merge; any unitary block will do
        blocks[zero:, zero:] = np.eye(len(vals) - zero)
    return vals, left @ scipy.linalg.sqrtm(blocks)


def sut_from_covariances(cov: np.ndarray, pseudo_cov: np.ndarray,
                         cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Mixing-matrix estimate from a covariance / pseudo-covariance pair.

    The strong uncorrelating transform whitens with the inverse Hermitian
    square root of the covariance, then rotates by the Takagi unitary of the
    whitened pseudo-covariance. Columns of the returned estimate are
    normalized to unit length. Warns (AmbiguousModelWarning) when the
    estimated circularity spectrum has a gap below CIRCULARITY_GAP_TOL, which
    makes the corresponding sources nearly unidentifiable.
    """
    cov = linalg.require_hermitian(cov, "covariance", tol=1e-10)
    pseudo = linalg.as_matrix(pseudo_cov, "pseudo-covariance")
    if pseudo.shape != cov.shape:
        raise InvalidInputError("covariance and pseudo-covariance shapes differ")
    return _sut(cov, pseudo, cond_limit)


def _sut(cov: np.ndarray, pseudo: np.ndarray, cond_limit: float = COND_LIMIT) -> np.ndarray:
    """``sut_from_covariances`` on finite, equal-shaped square inputs, unvalidated.

    Only the lower triangle of ``cov`` is read.
    """
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] <= 0 or vals[-1] / vals[0] > cond_limit:
        raise IllConditionedError("covariance is numerically singular")
    whiten = (vecs * vals ** -0.5) @ vecs.conj().T
    color = (vecs * vals ** 0.5) @ vecs.conj().T
    sym = whiten @ pseudo @ whiten.T
    spectrum, rotor = _takagi(0.5 * (sym + sym.T))
    if len(spectrum) > 1 and np.min(np.abs(np.diff(spectrum))) < CIRCULARITY_GAP_TOL:
        warnings.warn("estimated circularity coefficients nearly coincide; "
                      "column identification is unreliable", AmbiguousModelWarning,
                      stacklevel=3)
    estimate = color @ rotor
    return estimate / np.linalg.norm(estimate, axis=0)


def sut_estimate(observations: np.ndarray) -> np.ndarray:
    """Strong-uncorrelating-transform estimate from raw observations."""
    obs = linalg.as_matrix(observations, "observations")
    n, count = obs.shape
    if count < MIN_SAMPLES_PER_SOURCE * n:
        raise InvalidInputError(f"need at least {MIN_SAMPLES_PER_SOURCE * n} samples")
    cov = obs @ obs.conj().T / count
    pseudo = obs @ obs.T / count
    return _sut(cov, pseudo)


def _source_moments(sources: np.ndarray):
    """Covariance E[s s^H] and pseudo-covariance E[s s^T] of the rows of ``sources``.

    Both come from one real Gram matrix of the stacked real and imaginary
    parts, with blocks rr, ri and ii: E[s s^H] = rr + ii + i(ri^T - ri) and
    E[s s^T] = rr - ii + i(ri + ri^T).
    """
    n, count = sources.shape
    parts = np.concatenate((sources.real, sources.imag))
    gram = parts @ parts.T / count
    rr, ri, ii = gram[:n, :n], gram[:n, n:], gram[n:, n:]
    return (rr + ii) + 1j * (ri.T - ri), (rr - ii) + 1j * (ri + ri.T)


def align_columns(estimates: EstimateSet) -> EstimateSet:
    """Permute each estimate's columns to match the first estimate's columns.

    The permutation greedily maximizes the summed squared overlaps
    |<column, reference column>|^2, breaking ties toward the lowest index.
    """
    ref = estimates.matrices[0]
    n = estimates.n
    aligned = np.empty_like(estimates.matrices)
    for i in range(estimates.count):
        est = estimates.matrices[i]
        overlap = np.abs(ref.conj().T @ est) ** 2  # overlap[k, j] = |<ref_k, est_j>|^2
        assignment = np.full(n, -1)
        free = overlap.copy()
        for _ in range(n):
            k, j = np.unravel_index(np.argmax(free), free.shape)
            assignment[k] = j
            free[k, :] = -1.0
            free[:, j] = -1.0
        aligned[i] = est[:, assignment]
    return EstimateSet(aligned)


def average_karcher(aligned: EstimateSet, config: CGConfig = None) -> list:
    """Column-wise Karcher means of the aligned estimates on projective space.

    Returns one rank-one GrassmannPoint per column. A cut-locus failure is
    re-raised with the offending column index attached.
    """
    if config is None:
        config = CGConfig(step_rule="newton_cp")
    means = []
    for j in range(aligned.n):
        problem = KarcherProblem(aligned.column_basis(i, j) for i in range(aligned.count))
        try:
            point, _ = karcher_mean(problem, config=config)
        except CutLocusError as err:
            raise CutLocusError(f"column {j}: {err}", index=err.index, column=j) from err
        means.append(point)
    return means


def average_euclid(aligned: EstimateSet) -> np.ndarray:
    """Euclidean average of the aligned estimate columns.

    Sums each column across estimations exactly as the estimator returned
    them and normalizes the result to unit norm. The estimator's per-column
    phases are left untouched, so antiparallel estimates partially cancel;
    this is the naive baseline that subspace averaging is measured against,
    which by construction cannot be hurt by the phase ambiguity.
    """
    out = np.empty_like(aligned.matrices[0])
    for j in range(aligned.n):
        total = aligned.matrices[:, :, j].sum(axis=0)
        scale = np.linalg.norm(total)
        if scale < 1e-12:
            raise DegenerateAverageError(f"column {j} averaged to zero")
        out[:, j] = total / scale
    return out


def amari_error(estimate: np.ndarray, mixing: np.ndarray,
                cond_limit: float = AMARI_COND_LIMIT) -> float:
    """Normalized Amari error of an estimate against the true mixing matrix.

    Zero exactly on scaled column permutations of the truth; grows with
    cross-talk. The estimate must be invertible (condition number below
    ``cond_limit``).
    """
    est = linalg.as_matrix(estimate, "estimate")
    mixing = linalg.as_matrix(mixing, "mixing")
    if est.shape != mixing.shape or est.shape[0] != est.shape[1]:
        raise InvalidInputError("estimate and mixing must be square and equal-shaped")
    if np.linalg.cond(est) > cond_limit:
        raise IllConditionedError("estimate is numerically singular")
    ratios = np.abs(np.linalg.solve(est, mixing))
    rows = ratios.sum(axis=1) / ratios.max(axis=1)
    cols = ratios.sum(axis=0) / ratios.max(axis=0)
    return float((rows.sum() + cols.sum()) / est.shape[0] - 2.0)


@dataclass
class TrialResult:
    """One row of the benchmark table."""

    trial: int
    sweep_param: str
    sweep_value: float
    amari_karcher: float
    amari_euclid: float
    status: str


SWEEP_PARAMS = ("noise_level", "n_estimations")


def _trial_estimates(cfg: MixingExperiment, rng):
    """A trial's true mixing matrix and its (n_estimations, n, n) SUT estimates.

    Each estimate is the SUT of the observations (A + eps Z) s. Their
    covariance and pseudo-covariance are the sources' second moments carried
    through M = A + eps Z, so the observations themselves are never formed.
    The random draws, and their order, are those of the sample route
    ``generate_sources`` -> ``mix`` -> ``sut_estimate``.
    """
    n = cfg.n
    mixing = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    estimates = np.empty((cfg.n_estimations, n, n), dtype=complex)
    for i in range(cfg.n_estimations):
        perturbation = (rng.uniform(-0.5, 0.5, (n, n))
                        + 1j * rng.uniform(-0.5, 0.5, (n, n)))
        sources = generate_sources(n, cfg.samples_per_trial, rng)
        source_cov, source_pseudo = _source_moments(sources)
        mixer = mixing + cfg.noise_level * perturbation
        estimates[i] = _sut(mixer @ source_cov @ mixer.conj().T,
                            mixer @ source_pseudo @ mixer.T)
    return mixing, estimates


def _run_trial(cfg: MixingExperiment, rng, cg_config: CGConfig):
    mixing, estimates = _trial_estimates(cfg, rng)
    aligned = align_columns(EstimateSet(estimates))
    means = average_karcher(aligned, cg_config)
    karcher_est = np.column_stack(
        [basis_from_projector(p).matrix[:, 0] for p in means])
    euclid_est = average_euclid(aligned)
    return amari_error(karcher_est, mixing), amari_error(euclid_est, mixing)


def run_experiment(cfg: MixingExperiment, sweep_param: str, sweep_values,
                   cg_config: CGConfig = None) -> list:
    """Run the benchmark over a sweep of one configuration parameter.

    ``sweep_param`` is "noise_level" or "n_estimations". Each (value, trial)
    pair draws its randomness from a stream keyed by (rng_seed, trial), so
    results are deterministic and trials are paired across sweep values.
    Failed trials become rows with empty scores and the failure's ``status``;
    they never abort the sweep. Errors without a status, such as
    InvalidInputError, propagate.
    """
    if sweep_param not in SWEEP_PARAMS:
        raise InvalidInputError(f"unknown sweep parameter {sweep_param!r}")
    values = list(sweep_values)
    if not values:
        raise InvalidInputError("sweep needs at least one value")
    if cg_config is None:
        cg_config = CGConfig(step_rule="newton_cp")
    rows = []
    for value in values:
        trial_cfg = replace(cfg, **{sweep_param: value})
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.rng_seed, trial])
            try:
                score_k, score_e = _run_trial(trial_cfg, rng, cg_config)
                status = "ok"
            except GrassmeanError as err:
                if err.status is None:
                    raise
                score_k = score_e = None
                status = err.status
            rows.append(TrialResult(trial, sweep_param, float(value),
                                    score_k, score_e, status))
    return rows
