"""Karcher means of subspaces by geometric conjugate gradient.

The cost is the mean squared geodesic distance to a fixed set of subspaces,
held as one (N, n, m) stack of orthonormal bases. One batched principal-angle
kernel gives the cost (the squared angles) and the gradient (the summed logs
of the data, as blocks in a unitary frame [X1 X2] of the current point). The
solver carries that frame (Edelman, Arias & Smith 1998): a tangent vector is
its m-by-(n-m) block, geodesics move the whole frame, and parallel transport
leaves blocks unchanged. Direction rules are the classical conjugate ones;
step sizes come from backtracking or, on projective space, an exact Newton
step. Projector objects are built only for the result and the callback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .exceptions import (
    CutLocusError,
    DegenerateCurvatureError,
    DomainError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from .grassmann import (
    CUT_LOCUS_TOL,
    GrassmannPoint,
    StiefelBasis,
    TangentVector,
    _frame,
    _geodesic,
    _point,
    _principal_angles,
    _tangent_block,
    _tangent_matrix,
    complete_frame,
    projector_from_basis,
    require_anchored,
)
from . import linalg

DIRECTION_RULES = ("hs", "pr", "fr", "dy", "star")
STEP_RULES = ("backtracking", "newton_cp")
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_SHRINKS = 60
NOISE_SLOPE_FACTOR = 1e4
NEWTON_STEP_CAP = 1.0
CURVATURE_TOL = 1e-14
NEWTON_DOMAIN_TOL = 1e-12
INIT_GAP_TOL = 1e-8
_DATA_TYPES = (StiefelBasis, GrassmannPoint)


@dataclass(frozen=True)
class CGConfig:
    """Solver knobs.

    Step scales are worked out, not set: backtracking starts at 1/N (see
    ``karcher_mean``), and the Newton rule, valid only for rank-one subspaces,
    is capped at NEWTON_STEP_CAP. ``restart_period`` defaults to one less than
    the real dimension of the manifold, 2m(n-m) - 1, when left unset.
    """

    direction_rule: str = "hs"
    step_rule: str = "backtracking"
    grad_tol: float = 1e-8
    max_iter: int = 500
    restart_period: int = None

    def __post_init__(self):
        if self.direction_rule not in DIRECTION_RULES:
            raise InvalidInputError(f"unknown direction rule {self.direction_rule!r}")
        if self.step_rule not in STEP_RULES:
            raise InvalidInputError(f"unknown step rule {self.step_rule!r}")
        if not 0 < self.grad_tol < np.inf:
            raise InvalidInputError("grad_tol must be positive and finite")
        if not isinstance(self.max_iter, Integral) or self.max_iter < 1:
            raise InvalidInputError("max_iter must be an integer of at least 1")
        period = 1 if self.restart_period is None else self.restart_period
        if not isinstance(period, Integral) or period < 1:
            raise InvalidInputError("restart_period must be an integer of at least 1")


@dataclass
class CGIterate:
    iteration: int
    cost: float
    grad_norm: float
    step_size: float
    direction_rule: str
    restart: bool
    step_capped: bool = False


@dataclass
class CGTrace:
    """Per-iteration records plus the terminal status of a solver run."""

    iterates: list = field(default_factory=list)
    status: str = "running"

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return self.iterates[-1].iteration if self.iterates else 0


class KarcherProblem:
    """A fixed collection of subspaces to be averaged, as one (N, n, m) stack.

    ``data`` holds StiefelBasis or GrassmannPoint elements of one (n, m), each
    validated when it was built; a projector is reduced to a basis here, once.
    Types and shapes are checked as sets, not item by item.
    """

    def __init__(self, data):
        data = tuple(data)
        if not data:
            raise InvalidInputError("problem needs at least one point")
        if not all(issubclass(kind, _DATA_TYPES) for kind in set(map(type, data))):
            stray = next(item for item in data if not isinstance(item, _DATA_TYPES))
            raise InvalidInputError(
                f"problem data must be StiefelBasis or GrassmannPoint, got {type(stray).__name__}")
        mats = [_frame(item)[:, :item.rank] if isinstance(item, GrassmannPoint) else item.matrix
                for item in data]
        if len({mat.shape for mat in mats}) > 1:
            raise InvalidInputError("points live on different Grassmannians")
        self.bases = np.stack(mats)
        self.bases.setflags(write=False)
        self.size, self.dim, self.rank = self.bases.shape


def _require_member(problem: KarcherProblem, point: GrassmannPoint) -> None:
    if point.dim != problem.dim or point.rank != problem.rank:
        raise InvalidInputError("point does not live on the problem's Grassmannian")


def _frame_of(problem: KarcherProblem, point: GrassmannPoint) -> np.ndarray:
    _require_member(problem, point)
    return _frame(point)


def _metric(first: np.ndarray, second: np.ndarray) -> float:
    """Inner product of two tangent blocks in a common frame: 2 Re<B1, B2>."""
    return 2.0 * float(np.vdot(first, second).real)


def karcher_cost(problem: KarcherProblem, point: GrassmannPoint,
                 cut_tol: float = CUT_LOCUS_TOL) -> float:
    """Mean squared geodesic distance from ``point`` to the problem data.

    Raises CutLocusError (with the datum index) if ``point`` leaves the
    injectivity domain of some datum.
    """
    _require_member(problem, point)
    return _cost_from_basis(problem, _frame(point)[:, :point.rank], cut_tol)


def _cost_from_basis(problem: KarcherProblem, basis: np.ndarray,
                     cut_tol: float = CUT_LOCUS_TOL) -> float:
    """Karcher cost of the span of an orthonormal n-by-m ``basis``."""
    angles, _ = _principal_angles(basis, problem.bases, cut_tol)
    return float(2.0 * np.sum(angles * angles)) / problem.size


def _evaluate(problem: KarcherProblem, frame: np.ndarray,
              cut_tol: float = CUT_LOCUS_TOL):
    """Principal angles, cost and residual block at ``frame``, from one kernel call.

    The residual, minus the summed data logs, is N/2 times the gradient of
    karcher_cost. The solver searches along it, so the step 1/N is the
    Karcher fixed-point step (a move by the mean log) and step 1 is exact for
    one datum.
    """
    m = problem.rank
    angles, block = _principal_angles(frame[:, :m], problem.bases, cut_tol, frame[:, m:])
    return angles, float(2.0 * np.sum(angles * angles)) / problem.size, -block


def karcher_gradient(problem: KarcherProblem, point: GrassmannPoint,
                     cut_tol: float = CUT_LOCUS_TOL) -> TangentVector:
    """Riemannian gradient of the Karcher cost: minus twice the mean data log."""
    frame = _frame_of(problem, point)
    block = (2.0 / problem.size) * _evaluate(problem, frame, cut_tol)[2]
    m = problem.rank
    return TangentVector(point, _tangent_matrix(frame[:, :m], frame[:, m:], block))


def backtracking_step(objective, value0: float, slope: float, step: float) -> float:
    """Armijo backtracking along a parametrized curve.

    ``objective`` maps a step size to the cost at the curve point, ``value0``
    is the cost at step 0 and ``slope`` the derivative of that same cost there
    (must be negative). Returns step * SHRINK**k for the smallest k >= 0
    passing the sufficient-decrease test; gives up after MAX_SHRINKS shrinks.
    """
    if not slope < 0:
        raise NotDescentDirectionError(f"slope along the search direction is {slope:.3e}")
    for _ in range(MAX_SHRINKS + 1):
        if objective(step) <= value0 + ARMIJO_C * step * slope:
            return step
        step *= SHRINK
    raise LineSearchFailedError(
        f"no Armijo step after {MAX_SHRINKS} shrinks (slope {slope:.3e})")


def _at_noise_floor(decrease: float, value0: float) -> bool:
    """Whether Armijo comparisons along steepest descent are rounding noise.

    ``decrease``, the cost decrease predicted at the first trial step 1/N, is
    2 gnorm^2 / N^2 for a residual of norm gnorm. Near the minimizer it drops
    below the rounding noise of ``value0`` long before the residual loses
    accuracy. A comparison there passes or fails by chance, and a chance pass
    at a step too small to move the iterate freezes the solver. The curvature
    along the residual field approaches N there, so the solver takes the
    model-exact step 1/N without a cost comparison.
    """
    return decrease <= NOISE_SLOPE_FACTOR * np.finfo(float).eps * max(1.0, value0)


def _newton_step(problem: KarcherProblem, frame: np.ndarray, block: np.ndarray,
                 angles: np.ndarray, domain_tol: float = NEWTON_DOMAIN_TOL) -> float:
    """Newton step size along the tangent block d = ``block`` in ``frame``, rank one.

    Each datum contributes lambda_i(t) = |y_i^H x1(t)|^2. With the overlaps
    c_i = y_i^H x1 and e_i = y_i^H X2 d^H, its derivatives at t = 0 are
    lambda' = 2 Re(c_i conj(e_i)) and lambda'' = 2 |e_i|^2 - 2 |c_i|^2 |d|^2.
    ``angles`` are the kernel's (N, 1) principal angles at ``frame``. The
    step is -F'(0) / |F''(0)|. Every lambda_i must stay inside
    (domain_tol, 1 - domain_tol).
    """
    over = problem.bases[:, :, 0].conj() @ np.column_stack(
        [frame[:, 0], frame[:, 1:] @ block[0].conj()])
    c, e = over[:, 0], over[:, 1]
    lam = (c * c.conj()).real
    if np.any(lam <= domain_tol) or np.any(lam >= 1.0 - domain_tol):
        raise DomainError("a datum is too close to the evaluation point or its cut locus")
    speed = _metric(block, block)  # the squared norm 2 |d|^2
    lam_d = 2.0 * (c * e.conj()).real
    lam_dd = 2.0 * (e * e.conj()).real - lam * speed
    spread = lam - lam * lam
    root = np.sqrt(spread)
    angles = angles[:, 0]
    first = -(2.0 / problem.size) * np.sum(angles * lam_d / root)
    second = (2.0 / problem.size) * np.sum(
        lam_d * lam_d / (2.0 * spread)
        + angles * (lam_d * lam_d * (1.0 - 2.0 * lam) / (2.0 * root ** 3) - lam_dd / root))
    if first == 0.0:
        return 0.0
    # F'' along H scales with |H|^2, so degeneracy is a relative statement;
    # an absolute floor would trip on healthy short directions near the optimum
    if abs(second) < CURVATURE_TOL * max(speed, np.finfo(float).tiny):
        raise DegenerateCurvatureError(f"second derivative {second:.3e} is numerically zero")
    return float(-first / abs(second))


def newton_step_cp(problem: KarcherProblem, point: GrassmannPoint,
                   direction: TangentVector,
                   domain_tol: float = NEWTON_DOMAIN_TOL) -> float:
    """Newton step size along ``direction`` on projective space (rank one)."""
    if problem.rank != 1:
        raise InvalidInputError("the Newton step rule requires rank-one subspaces")
    frame = _frame_of(problem, point)
    require_anchored(direction, point)
    angles, _ = _principal_angles(frame[:, :1], problem.bases)
    return _newton_step(problem, frame, _tangent_block(frame, 1, direction.matrix),
                        angles, domain_tol)


def _coefficient(rule: str, grad_new: np.ndarray, grad_old: np.ndarray,
                 dir_old: np.ndarray):
    """Conjugate-direction coefficient and a flag for degenerate fallback.

    The arguments are tangent blocks in one frame; transport along the
    geodesic leaves blocks unchanged, so old blocks are transported ones.
    """
    diff = grad_new - grad_old
    if rule == "hs":
        num = _metric(grad_new, diff)
        den = _metric(dir_old, diff)
    elif rule == "pr":
        num = _metric(grad_new, diff)
        den = _metric(grad_old, grad_old)
    elif rule == "fr":
        num = _metric(grad_new, grad_new)
        den = _metric(grad_old, grad_old)
    elif rule == "dy":
        num = _metric(grad_new, grad_new)
        den = _metric(dir_old, diff)
    elif rule == "star":
        num = -_metric(grad_new, diff)
        den = _metric(dir_old, grad_old)
    else:
        raise InvalidInputError(f"unknown direction rule {rule!r}")
    if den == 0.0 or not np.isfinite(num / den):
        return 0.0, True
    return num / den, False


def _anchor_frame(problem: KarcherProblem) -> np.ndarray:
    """Unitary frame whose first m columns span the Euclidean anchor.

    The anchor is the dominant eigenspace of the averaged data projectors, an
    average that is one GEMM on the stack; its descending eigenvectors are
    the frame. With one datum, with m = n, or when the spectral gap at the cut
    is below INIT_GAP_TOL (ill-defined eigenspace), the frame is the first
    datum's basis completed by ``complete_frame``.
    """
    count, n, m = problem.bases.shape
    if count > 1 and m < n:
        stacked = problem.bases.transpose(1, 0, 2).reshape(n, count * m)
        vals, vecs = linalg.hermitian_eig(stacked @ stacked.conj().T / count)
        if vals[m - 1] - vals[m] >= INIT_GAP_TOL:
            return vecs
    return complete_frame(problem.bases[0])


def default_init(problem: KarcherProblem) -> GrassmannPoint:
    """Euclidean anchor: the span of the first m columns of ``_anchor_frame``."""
    return projector_from_basis(_anchor_frame(problem)[:, :problem.rank])


def karcher_mean(problem: KarcherProblem, init: GrassmannPoint = None,
                 config: CGConfig = None, callback=None):
    """Minimize the Karcher cost by conjugate gradient on the Grassmannian.

    ``init`` (a GrassmannPoint) defaults to the Euclidean anchor of the data,
    and then the solver starts from the anchor's frame (``_anchor_frame``).
    ``callback(iteration, point, grad, direction)``, if given, is called after
    the initial evaluation and after every accepted update. Returns ``(point,
    trace)``. Unrecoverable failures (cut locus at an iterate, exhausted line
    search, degenerate Newton curvature) raise the corresponding error with
    the partial trace attached as ``err.trace``.

    The search direction, the trace's grad_norm column, the grad_tol stopping
    test and the callback's ``grad`` use the residual field -sum(log_P(Q_i)),
    N/2 times karcher_gradient, so the result meets the tolerance in the
    gradient reading as well. Backtracking starts at the Karcher fixed-point
    step 1/N on that field (Afsari, Tron & Vidal 2013) and tests the mean cost.
    """
    if config is None:
        config = CGConfig()
    n, m = problem.dim, problem.rank
    if config.step_rule == "newton_cp" and m != 1:
        raise InvalidInputError("the newton_cp step rule requires rank-one subspaces")
    frame = _anchor_frame(problem) if init is None else _frame_of(problem, init)
    period = config.restart_period
    if period is None:
        period = max(1, 2 * m * (n - m) - 1)
    trace = CGTrace()

    def fail(err):
        trace.status = err.status
        err.trace = trace
        return err

    def report(iteration):
        point, x1, x2 = _point(frame, m), frame[:, :m], frame[:, m:]
        callback(iteration, point, TangentVector(point, _tangent_matrix(x1, x2, grad)),
                 TangentVector(point, _tangent_matrix(x1, x2, direction)))

    try:
        angles, cost, grad = _evaluate(problem, frame)
    except CutLocusError as err:
        raise fail(err)
    gnorm = math.sqrt(_metric(grad, grad))
    trace.iterates.append(CGIterate(0, cost, gnorm, 0.0, "init", False))
    direction = -grad
    if callback is not None:
        report(0)

    first_step, backtrack = 1.0 / problem.size, config.step_rule == "backtracking"
    iteration = 0
    while gnorm >= config.grad_tol and iteration < config.max_iter:
        iteration += 1
        # slopes of the mean cost, 2/N times those along the residual field
        slope = 2.0 * first_step * _metric(grad, direction)
        steepest = -2.0 * first_step * gnorm * gnorm
        noise_floor = backtrack and _at_noise_floor(-first_step * steepest, cost)
        forced_restart = noise_floor or not slope < 0.0
        if forced_restart:
            direction, slope = -grad, steepest
        capped = False
        path = _geodesic(frame, m, direction)
        try:
            if not backtrack:
                step = _newton_step(problem, frame, direction, angles)
                capped, step = step > NEWTON_STEP_CAP, min(step, NEWTON_STEP_CAP)
            elif noise_floor:
                step = first_step
            else:

                def line_value(a):
                    trial, _ = np.linalg.qr(path(a))
                    try:
                        return _cost_from_basis(problem, trial)
                    except CutLocusError:
                        return float("inf")

                try:
                    step = backtracking_step(line_value, cost, slope, first_step)
                except LineSearchFailedError:
                    if forced_restart:
                        raise
                    # a stale conjugate direction can degenerate to numerical
                    # noise; retry from steepest descent before giving up
                    direction, slope, forced_restart = -grad, steepest, True
                    path = _geodesic(frame, m, direction)
                    step = backtracking_step(line_value, cost, slope, first_step)
            # re-orthonormalize, folding R's diagonal phases back into Q so
            # the frame stays the transported one and carried blocks stay valid
            frame, tri = np.linalg.qr(path(step, full=True))
            phases = np.diagonal(tri)
            frame = frame * (phases / np.abs(phases))
            angles, new_cost, new_grad = _evaluate(problem, frame)
        except (CutLocusError, LineSearchFailedError, DegenerateCurvatureError,
                DomainError) as err:
            raise fail(err)
        new_gnorm = math.sqrt(_metric(new_grad, new_grad))
        periodic = iteration % period == 0
        if periodic:
            fallback = False
            new_direction = -new_grad
        else:
            coeff, fallback = _coefficient(config.direction_rule, new_grad, grad, direction)
            new_direction = -new_grad + coeff * direction
        restarted = periodic or fallback or forced_restart
        rule = "sd" if (periodic or fallback) else config.direction_rule
        trace.iterates.append(
            CGIterate(iteration, new_cost, new_gnorm, step, rule, restarted, capped))
        grad, cost, gnorm, direction = new_grad, new_cost, new_gnorm, new_direction
        if callback is not None:
            report(iteration)

    trace.status = "converged" if gnorm < config.grad_tol else "max_iter"
    return _point(frame, m), trace
