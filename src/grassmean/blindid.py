"""Blind identification of noisy complex mixtures, used as a benchmark for
subspace averaging.

Noncircular complex sources are mixed through a randomly perturbed matrix;
each batch of observations yields one estimate of the mixing matrix through
the strong uncorrelating transform (whitening, then a Takagi factorization
of the whitened pseudo-covariance, both from numpy eigendecompositions). It
needs only the observations' covariance and pseudo-covariance, so a trial
takes them from its sources' second moments and transforms its batches as
one stack; ``mix`` and ``sut_estimate`` remain the public sample route.
Estimated columns, viewed as lines in C^n, are then combined across batches
either by Karcher averaging on projective space or by phase-aligned
Euclidean averaging, and judged by the normalized Amari error against the
true mixing matrix.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .exceptions import (
    AmbiguousModelWarning,
    DegenerateAverageError,
    GrassmeanError,
    IllConditionedError,
    InvalidInputError,
)
from .grassmann import STIEFEL_TOL, _bases, _stiefel_defects, _trusted
from .karcher import CGConfig, KarcherProblem, karcher_mean
from . import linalg

COND_LIMIT = 1e10
AMARI_COND_LIMIT = 1e12
CIRCULARITY_GAP_TOL = 1e-3
MIN_SAMPLES_PER_SOURCE = 10
TRIAL_CONFIG = CGConfig(step_rule="newton_cp")  # the solver settings of every column average


@dataclass(frozen=True)
class MixingExperiment:
    """Configuration of one benchmark sweep.

    Every field is checked here, once: the counts and the seed must be
    integers and the noise level a finite real number (neither a bool), so
    the trials that follow run unvalidated.
    """

    n: int = 5
    n_estimations: int = 10
    noise_level: float = 0.5
    trials: int = 100
    samples_per_trial: int = 10000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_estimations", "trials", "samples_per_trial", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidInputError(f"{name} must be an integer")
        if self.n < 2:
            raise InvalidInputError("need at least two sources")
        if self.n_estimations < 1:
            raise InvalidInputError("need at least one estimation per trial")
        if (isinstance(self.noise_level, bool) or not isinstance(self.noise_level, Real)
                or not 0 <= self.noise_level < np.inf):
            raise InvalidInputError("noise level must be a nonnegative finite number")
        if self.trials < 1:
            raise InvalidInputError("need at least one trial")
        if self.samples_per_trial < MIN_SAMPLES_PER_SOURCE * self.n:
            raise InvalidInputError(
                f"need at least {MIN_SAMPLES_PER_SOURCE * self.n} samples for n={self.n}")
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be nonnegative")


@dataclass(frozen=True, eq=False, repr=False)
class EstimateSet:
    """A stack of mixing-matrix estimates with unit-norm columns (as bases, to STIEFEL_TOL).

    ``matrices`` has shape (count, n, n); column j of ``matrices[i]`` is the
    representative unit vector of estimate i for source j.
    """

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.array(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or not mats.size:
            raise InvalidInputError(
                f"expected a nonempty (count, n, n) stack, got shape {mats.shape}")
        if not np.all(np.isfinite(mats)):
            raise InvalidInputError("estimates contain non-finite entries")
        bad = np.argwhere(_stiefel_defects(mats.transpose(0, 2, 1)[..., np.newaxis]) >= STIEFEL_TOL)
        if bad.size:
            raise InvalidInputError("estimate {} column {} must have unit norm".format(*bad[0]))
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def count(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def __repr__(self):
        return f"EstimateSet(count={self.count}, n={self.n})"


def generate_sources(n: int, num_samples: int, rng) -> np.ndarray:
    """Unit-variance noncircular Gaussian sources, one per row.

    Source k mixes independent real Gaussian streams as
    cos(theta_k) x + 1j sin(theta_k) y with theta_k = k pi / (4 (n+1)),
    k = 1..n, so the circularity coefficients |cos 2 theta_k| are distinct.
    ``rng`` must be a numpy Generator whose seed sequence can spawn: x and y
    come from the two child streams of ``rng.spawn(2)``, and ``rng``'s own
    stream is not drawn from. y is drawn on this process's one draw thread
    while the caller draws x, so the two fills run on two cores; each stream
    fills its own half of one (2, n, num_samples) array, and the result does
    not depend on the threads' timing. Once interpreter shutdown has begun,
    no thread can start, and the caller draws y itself.
    """
    for name, value in (("n", n), ("num_samples", num_samples)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InvalidInputError(f"{name} must be an integer")
    if n < 1:
        raise InvalidInputError("need at least one source")
    if not (isinstance(rng, np.random.Generator) and isinstance(
            rng.bit_generator.seed_seq, np.random.bit_generator.ISpawnableSeedSequence)):
        raise InvalidInputError("rng must be a numpy Generator with a spawnable seed sequence")
    if num_samples < MIN_SAMPLES_PER_SOURCE * n:
        raise InvalidInputError(f"need at least {MIN_SAMPLES_PER_SOURCE * n} samples")
    theta = (np.arange(1, n + 1) / (n + 1)) * (np.pi / 4)
    x_rng, y_rng = rng.spawn(2)
    x, y = np.empty((2, n, num_samples))
    try:
        y_drawn = _draw_thread(os.getpid()).submit(y_rng.standard_normal, out=y)
    except RuntimeError:  # concurrent.futures refuses work once shutdown has begun
        y_drawn = None
        y_rng.standard_normal(out=y)
    x_rng.standard_normal(out=x)
    sources = np.empty((n, num_samples), dtype=complex)
    np.multiply(np.cos(theta)[:, None], x, out=sources.real)
    if y_drawn is not None:
        y_drawn.result()
    np.multiply(np.sin(theta)[:, None], y, out=sources.imag)
    return sources


@functools.lru_cache(maxsize=1)
def _draw_thread(pid: int):
    """The one draw thread of process ``pid``, started on first use.

    A forked child asks with its own pid, which evicts the parent's executor,
    whose thread is not running in the child. Two threads that ask at once
    may each start one; either serves.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="grassmean-draw")


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


def takagi(matrix: np.ndarray):
    """Takagi factorization M = U diag(s) U^T of a complex symmetric matrix.

    With M = A + iC, the real symmetric embedding B = [[A, C], [C, -A]] has
    eigenvalues +-s_k, and a unit eigenvector [x; y] for +s gives u = x + iy
    with M conj(u) = s u. B anticommutes with J = [[0, -I], [I, 0]], which
    maps the +s eigenspace onto the -s one, so the top n eigenvectors give
    orthonormal u even where an s > 0 repeats. Values at or below the rank
    cut 2n eps s_max are zeros. Their null space of B does not split that
    way, so the QR factor of [u_1 .. u_n] completes those columns from the
    nonzero part and keeps the others, phases included. Returns (s, U) with
    s descending and nonnegative and U unitary.
    """
    mat = linalg.as_matrix(matrix, "matrix")
    if mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("matrix must be square")
    return _takagi(0.5 * (mat + mat.T))


def _takagi(sym: np.ndarray):
    """``takagi`` of a stack (..., n, n) of exactly symmetric matrices, unvalidated."""
    n = sym.shape[-1]
    vals, vecs = np.linalg.eigh(np.block([[sym.real, sym.imag], [sym.imag, -sym.real]]))
    vals, vecs = vals[..., :n - 1:-1], vecs[..., :n - 1:-1]
    vals = np.where(vals > 2 * n * np.finfo(float).eps * vals[..., :1], vals, 0.0)
    unitary, tri = np.linalg.qr(vecs[..., :n, :] + 1j * vecs[..., n:, :])
    phase = np.exp(1j * np.angle(np.diagonal(tri, axis1=-2, axis2=-1)))
    return vals, unitary * phase[..., np.newaxis, :]


def sut_from_covariances(cov: np.ndarray, pseudo_cov: np.ndarray) -> np.ndarray:
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
    return _sut(cov, pseudo)


def _sut(cov: np.ndarray, pseudo: np.ndarray) -> np.ndarray:
    """``sut_from_covariances`` on finite, equal-shaped stacks (..., n, n), unvalidated.

    Only the lower triangle of ``cov`` is read.
    """
    vals, vecs = np.linalg.eigh(cov)
    singular = (vals[..., 0] <= 0) | (vals[..., -1] > COND_LIMIT * vals[..., 0])
    if singular.any():
        raise IllConditionedError(_lowest(singular) + "covariance is numerically singular")
    whiten = (vecs * vals[..., np.newaxis, :] ** -0.5) @ vecs.conj().mT
    color = (vecs * vals[..., np.newaxis, :] ** 0.5) @ vecs.conj().mT
    sym = whiten @ pseudo @ whiten.mT
    spectrum, rotor = _takagi(0.5 * (sym + sym.mT))
    close = np.any(np.abs(np.diff(spectrum)) < CIRCULARITY_GAP_TOL, axis=-1)
    if close.any():
        warnings.warn(_lowest(close) + "estimated circularity coefficients nearly coincide; "
                      "column identification is unreliable", AmbiguousModelWarning,
                      stacklevel=3)
    estimate = color @ rotor
    return estimate / np.linalg.norm(estimate, axis=-2, keepdims=True)


def _lowest(flags: np.ndarray) -> str:
    """Message prefix naming the lowest flagged estimate of a stack; empty for one."""
    return f"estimate {np.flatnonzero(flags)[0]}: " if flags.ndim else ""


def sut_estimate(observations: np.ndarray) -> np.ndarray:
    """Strong-uncorrelating-transform estimate from raw observations."""
    obs = linalg.as_matrix(observations, "observations")
    n, count = obs.shape
    if count < MIN_SAMPLES_PER_SOURCE * n:
        raise InvalidInputError(f"need at least {MIN_SAMPLES_PER_SOURCE * n} samples")
    return _sut(*_source_moments(obs))


def _source_moments(sources: np.ndarray):
    """Covariance E[s s^H] and pseudo-covariance E[s s^T] of the rows of sources or observations.

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
    All estimates are matched together, one greedy round per column, and
    the permuted set is not checked again.
    """
    mats, n = estimates.matrices, estimates.n
    free = np.abs(mats[0].conj().T @ mats) ** 2  # free[i, k, j] = |<ref_k, est_ij>|^2
    assignment = np.empty((estimates.count, n), dtype=int)
    every = np.arange(estimates.count)
    for _ in range(n):
        k, j = np.divmod(free.reshape(estimates.count, -1).argmax(axis=1), n)
        assignment[every, k] = j
        free[every, k, :] = -1.0
        free[every, :, j] = -1.0
    return _trusted(EstimateSet, matrices=np.take_along_axis(mats, assignment[:, None, :], 2))


def average_karcher(aligned: EstimateSet) -> list:
    """Column-wise Karcher means of the aligned estimates on projective space.

    Returns one rank-one GrassmannPoint per column. All columns are solved in
    one batched ``karcher_mean`` call under TRIAL_CONFIG; the lowest failing
    column's error is re-raised with its trace, its ``column`` set and the
    column named.
    """
    columns = np.ascontiguousarray(aligned.matrices.transpose(2, 0, 1)[..., np.newaxis])
    try:
        means, _ = karcher_mean(KarcherProblem(_stack=columns), config=TRIAL_CONFIG)
    except GrassmeanError as err:
        if err.problem is not None:
            err.column = err.problem
            err.args = (f"column {err.problem}: {err}",)
        raise
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


def amari_error(estimate: np.ndarray, mixing: np.ndarray) -> float:
    """Normalized Amari error of an estimate against the true mixing matrix.

    Zero exactly on scaled column permutations of the truth; grows with
    cross-talk. The estimate must be invertible (condition number below
    AMARI_COND_LIMIT).
    """
    est = linalg.as_matrix(estimate, "estimate")
    mixing = linalg.as_matrix(mixing, "mixing")
    if est.shape != mixing.shape or est.shape[0] != est.shape[1]:
        raise InvalidInputError("estimate and mixing must be square and equal-shaped")
    if np.linalg.cond(est) > AMARI_COND_LIMIT:
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

    Each estimate is the SUT of the observations (A + eps Z) s, from the
    sources' second moments carried through M = A + eps Z; the observations
    are never formed, and one ``_sut`` call transforms the whole stack.
    The random draws, and their order, are those of the sample route
    ``generate_sources`` -> ``mix`` -> ``sut_estimate``.
    """
    n = cfg.n
    mixing = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    covs, pseudos = np.empty((2, cfg.n_estimations, n, n), dtype=complex)
    for i in range(cfg.n_estimations):
        perturbation = (rng.uniform(-0.5, 0.5, (n, n))
                        + 1j * rng.uniform(-0.5, 0.5, (n, n)))
        sources = generate_sources(n, cfg.samples_per_trial, rng)
        source_cov, source_pseudo = _source_moments(sources)
        mixer = mixing + cfg.noise_level * perturbation
        covs[i] = mixer @ source_cov @ mixer.conj().T
        pseudos[i] = mixer @ source_pseudo @ mixer.T
    return mixing, _sut(covs, pseudos)


def _run_trial(cfg: MixingExperiment, rng):
    mixing, estimates = _trial_estimates(cfg, rng)
    aligned = align_columns(_trusted(EstimateSet, matrices=estimates))
    means = average_karcher(aligned)
    karcher_est = np.array(_bases(means))[..., 0].T
    euclid_est = average_euclid(aligned)
    return amari_error(karcher_est, mixing), amari_error(euclid_est, mixing)


def run_experiment(cfg: MixingExperiment, sweep_param: str, sweep_values) -> list:
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
    rows = []
    for value in values:
        trial_cfg = replace(cfg, **{sweep_param: value})
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.rng_seed, trial])
            try:
                score_k, score_e = _run_trial(trial_cfg, rng)
                status = "ok"
            except GrassmeanError as err:
                if err.status is None:
                    raise
                score_k = score_e = None
                status = err.status
            rows.append(TrialResult(trial, sweep_param, float(value),
                                    score_k, score_e, status))
    return rows
