"""Karcher means of subspaces by geometric conjugate gradient.

The cost is the mean squared geodesic distance to a fixed set of points. Cost
and gradient both come from one batched principal-angle kernel applied to the
whole stack of data bases at once: the cost sums the squared angles, and the
gradient sums the log blocks, which are the inverse exponentials of the data
expressed in a unitary frame of P. The solver walks geodesics, transports
the previous search direction, and supports the classical conjugate-direction
coefficient rules plus an exact-Newton step size on rank-one Grassmannians
(projective space).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    TangentVector,
    _principal_angles,
    _tangent_matrix,
    basis_from_projector,
    commutator,
    complete_frame,
    metric,
    projector_from_basis,
    require_anchored,
)
from . import linalg

DIRECTION_RULES = ("hs", "pr", "fr", "dy", "star")
STEP_RULES = ("backtracking", "newton_cp")
MAX_SHRINKS = 60
NOISE_SLOPE_FACTOR = 1e4
CURVATURE_TOL = 1e-14
NEWTON_DOMAIN_TOL = 1e-12
INIT_GAP_TOL = 1e-8


@dataclass(frozen=True)
class CGConfig:
    """Solver knobs.

    ``step_init``, ``armijo_c`` and ``shrink`` parametrize backtracking
    (initial step, sufficient-decrease constant, shrink factor). The Newton
    step rule is only valid for rank-one subspaces and is capped at
    ``step_init``. ``restart_period`` defaults to one less than the real
    dimension of the manifold, 2m(n-m) - 1, when left unset.
    """

    direction_rule: str = "hs"
    step_rule: str = "backtracking"
    step_init: float = 1.0
    armijo_c: float = 1e-4
    shrink: float = 0.5
    grad_tol: float = 1e-8
    max_iter: int = 500
    restart_period: int = None

    def __post_init__(self):
        if self.direction_rule not in DIRECTION_RULES:
            raise InvalidInputError(f"unknown direction rule {self.direction_rule!r}")
        if self.step_rule not in STEP_RULES:
            raise InvalidInputError(f"unknown step rule {self.step_rule!r}")
        if not self.step_init > 0:
            raise InvalidInputError("step_init must be positive")
        if not 0 < self.armijo_c < 1:
            raise InvalidInputError("armijo_c must lie in (0, 1)")
        if not 0 < self.shrink < 1:
            raise InvalidInputError("shrink must lie in (0, 1)")
        if not self.grad_tol > 0:
            raise InvalidInputError("grad_tol must be positive")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be at least 1")
        if self.restart_period is not None and self.restart_period < 1:
            raise InvalidInputError("restart_period must be at least 1")


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


@dataclass(eq=False)
class KarcherProblem:
    """A fixed collection of points to be averaged, with cached bases."""

    points: tuple

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise InvalidInputError("problem needs at least one point")
        first = points[0]
        for point in points[1:]:
            if point.dim != first.dim or point.rank != first.rank:
                raise InvalidInputError("points live on different Grassmannians")
        object.__setattr__(self, "points", points)
        bases = np.stack([basis_from_projector(p).matrix for p in points])
        self.bases = bases  # (N, n, m)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    @property
    def rank(self) -> int:
        return self.points[0].rank


def _require_member(problem: KarcherProblem, point: GrassmannPoint) -> None:
    if point.dim != problem.dim or point.rank != problem.rank:
        raise InvalidInputError("point does not live on the problem's Grassmannian")


def karcher_cost(problem: KarcherProblem, point: GrassmannPoint,
                 cut_tol: float = CUT_LOCUS_TOL) -> float:
    """Mean squared geodesic distance from ``point`` to the problem data.

    Raises CutLocusError (with the datum index) if ``point`` leaves the
    injectivity domain of some datum.
    """
    _require_member(problem, point)
    return _cost_from_basis(problem, basis_from_projector(point).matrix, cut_tol)


def _cost_from_basis(problem: KarcherProblem, basis: np.ndarray,
                     cut_tol: float = CUT_LOCUS_TOL) -> float:
    """Karcher cost of the span of an exactly orthonormal ``basis``.

    The principal angles come from the singular values of the overlaps
    Y_i^H X of genuine orthonormal bases, so the off-manifold rounding junk of
    a conjugated projector (which the cost is sensitive to at first order
    through the normal directions) never enters, and cost differences near
    convergence stay meaningful down to a few ulps.
    """
    angles, _ = _principal_angles(basis, problem.bases, cut_tol)
    return float(2.0 * np.sum(angles * angles)) / problem.size


def _gradient_sum(problem: KarcherProblem, point: GrassmannPoint, frame,
                  cut_tol: float = CUT_LOCUS_TOL) -> TangentVector:
    """Minus the sum of the inverse exponentials of the data at ``point``.

    The kernel sums every datum's log block in the unitary frame [X1 X2] of
    ``point`` in one batch; that sum, lifted back out of the frame, is the
    residual field of the critical-point equation (the sum of the data logs
    transported nowhere, since they are already at ``point``). It equals N/2
    times the gradient of karcher_cost. The solver searches along and stops
    on this field: with it, a unit trial step is the exact minimizer for one
    datum, so backtracking from step 1 is well scaled.
    """
    m = problem.rank
    x1, x2 = frame[:, :m], frame[:, m:]
    _, block = _principal_angles(x1, problem.bases, cut_tol, x2)
    return TangentVector(point, -_tangent_matrix(x1, x2, block))


def karcher_gradient(problem: KarcherProblem, point: GrassmannPoint, frame=None,
                     cut_tol: float = CUT_LOCUS_TOL) -> TangentVector:
    """Riemannian gradient of the Karcher cost at ``point``.

    Equals minus twice the mean of the inverse exponentials of the data, each
    computed in a common unitary frame [X1 X2] of ``point`` and conjugated
    back. ``frame`` may supply that unitary to avoid recomputing it.
    """
    _require_member(problem, point)
    if frame is None:
        frame = complete_frame(basis_from_projector(point).matrix)
    return (2.0 / problem.size) * _gradient_sum(problem, point, frame, cut_tol)


def backtracking_step(objective, value0: float, slope: float, config: CGConfig) -> float:
    """Armijo backtracking along a parametrized curve.

    ``objective`` maps a step size to the cost at the curve point, ``value0``
    is the cost at step 0 and ``slope`` the derivative there (must be
    negative). Returns step_init * shrink**k for the smallest k >= 0 passing
    the sufficient-decrease test; gives up after MAX_SHRINKS shrinks.
    """
    if not slope < 0:
        raise NotDescentDirectionError(f"slope along the search direction is {slope:.3e}")
    step = config.step_init
    for _ in range(MAX_SHRINKS + 1):
        if objective(step) <= value0 + config.armijo_c * step * slope:
            return step
        step *= config.shrink
    raise LineSearchFailedError(
        f"no Armijo step after {MAX_SHRINKS} shrinks (slope {slope:.3e})")


def _noise_floor_step(problem: KarcherProblem, slope: float, value0: float,
                      err: LineSearchFailedError) -> float:
    """Steepest-descent step of last resort when Armijo cannot see progress.

    Close to the minimizer the achievable decrease per step is about
    |slope| / (2 N), which drops below the rounding noise of the cost
    evaluation long before the gradient itself loses accuracy; every
    sufficient-decrease comparison then fails even though the direction still
    points downhill. The second derivative of the cost along the residual
    field approaches N there, so the model-exact step along minus the
    gradient is 1 / N. Taking it without a cost comparison keeps the residual
    contracting. A failure at a slope the evaluation could have resolved is a
    genuine one and is re-raised.
    """
    if abs(slope) > NOISE_SLOPE_FACTOR * np.finfo(float).eps * max(1.0, value0):
        raise err
    return 1.0 / problem.size


def newton_step_cp(problem: KarcherProblem, point: GrassmannPoint,
                   direction: TangentVector,
                   domain_tol: float = NEWTON_DOMAIN_TOL) -> float:
    """Newton step size along ``direction`` for rank-one subspace problems.

    On projective space each datum contributes lambda_i(t) = y_i^H P(t) y_i,
    whose first two derivatives at t = 0 are quadratic forms in the direction
    and in [[H, P], H]. The step is -F'(0) / |F''(0)| with both derivatives
    evaluated analytically. Every lambda_i must stay inside
    (domain_tol, 1 - domain_tol).
    """
    if problem.rank != 1:
        raise InvalidInputError("the Newton step rule requires rank-one subspaces")
    _require_member(problem, point)
    require_anchored(direction, point)
    stacked = problem.bases[:, :, 0].T  # (n, N)
    proj = point.matrix
    vel = direction.matrix
    lam = np.einsum("ni,nm,mi->i", stacked.conj(), proj, stacked).real
    if np.any(lam <= domain_tol) or np.any(lam >= 1.0 - domain_tol):
        raise DomainError("a datum is too close to the evaluation point or its cut locus")
    lam_d = np.einsum("ni,nm,mi->i", stacked.conj(), vel, stacked).real
    accel = commutator(commutator(vel, proj), vel)
    lam_dd = np.einsum("ni,nm,mi->i", stacked.conj(), accel, stacked).real
    spread = lam - lam * lam
    root = np.sqrt(spread)
    angles = np.arccos(np.sqrt(lam))
    count = problem.size
    first = -(2.0 / count) * np.sum(angles * lam_d / root)
    second = (2.0 / count) * np.sum(
        lam_d * lam_d / (2.0 * spread)
        + angles * (lam_d * lam_d * (1.0 - 2.0 * lam) / (2.0 * root ** 3) - lam_dd / root))
    if first == 0.0:
        return 0.0
    # F'' along H scales with |H|^2, so degeneracy is a relative statement;
    # an absolute floor would trip on healthy short directions near the optimum
    scale = metric(direction, direction)
    if abs(second) < CURVATURE_TOL * max(scale, np.finfo(float).tiny):
        raise DegenerateCurvatureError(f"second derivative {second:.3e} is numerically zero")
    return float(-first / abs(second))


def _coefficient(rule: str, grad_new: TangentVector, grad_moved: TangentVector,
                 dir_moved: TangentVector, dir_old: TangentVector,
                 grad_old: TangentVector):
    """Conjugate-direction coefficient and a flag for degenerate fallback."""
    diff = grad_new - grad_moved
    if rule == "hs":
        num = metric(grad_new, diff)
        den = metric(dir_moved, diff)
    elif rule == "pr":
        num = metric(grad_new, diff)
        den = metric(grad_old, grad_old)
    elif rule == "fr":
        num = metric(grad_new, grad_new)
        den = metric(grad_old, grad_old)
    elif rule == "dy":
        num = metric(grad_new, grad_new)
        den = metric(dir_moved, diff)
    elif rule == "star":
        num = -metric(grad_new, diff)
        den = metric(dir_old, grad_old)
    else:
        raise InvalidInputError(f"unknown direction rule {rule!r}")
    if den == 0.0 or not np.isfinite(num / den):
        return 0.0, True
    return num / den, False


def default_init(problem: KarcherProblem) -> GrassmannPoint:
    """Euclidean anchor: dominant eigenspace of the averaged projectors.

    Falls back to the first datum when the spectral gap at the cut is below
    INIT_GAP_TOL (the eigenspace is then ill defined).
    """
    if problem.size == 1 or problem.rank == problem.dim:
        return problem.points[0]
    mean = np.mean([p.matrix for p in problem.points], axis=0)
    vals, vecs = linalg.hermitian_eig(mean)
    m = problem.rank
    if vals[m - 1] - vals[m] < INIT_GAP_TOL:
        return problem.points[0]
    return projector_from_basis(vecs[:, :m])


_ERROR_STATUS = {
    CutLocusError: "cut_locus",
    LineSearchFailedError: "line_search_failed",
    DegenerateCurvatureError: "degenerate_curvature",
    DomainError: "domain_error",
}


def karcher_mean(problem: KarcherProblem, init: GrassmannPoint = None,
                 config: CGConfig = None, callback=None):
    """Minimize the Karcher cost by conjugate gradient on the Grassmannian.

    Parameters
    ----------
    problem : KarcherProblem
    init : GrassmannPoint, optional
        Starting point; defaults to the Euclidean anchor of the data.
    config : CGConfig, optional
    callback : callable, optional
        Called as ``callback(iteration, point, grad, direction)`` after the
        initial evaluation and after every accepted update.

    Returns ``(point, trace)``. Unrecoverable failures (cut locus at an
    iterate, exhausted line search, degenerate Newton curvature) raise the
    corresponding error with the partial trace attached as ``err.trace``.

    The search direction, the trace's grad_norm column, and the grad_tol
    stopping test all use the residual field -sum(log_P(Q_i)), i.e. N/2 times
    karcher_gradient; the returned point therefore satisfies the tolerance in
    the gradient reading as well. ``callback`` receives that field as its
    ``grad`` argument.
    """
    if config is None:
        config = CGConfig()
    point = default_init(problem) if init is None else init
    _require_member(problem, point)
    n, m = problem.dim, problem.rank
    if config.step_rule == "newton_cp" and m != 1:
        raise InvalidInputError("the newton_cp step rule requires rank-one subspaces")
    period = config.restart_period
    if period is None:
        period = max(1, 2 * m * (n - m) - 1)
    trace = CGTrace()

    def fail(err):
        trace.status = _ERROR_STATUS.get(type(err), "error")
        err.trace = trace
        return err

    try:
        frame = complete_frame(basis_from_projector(point).matrix)
        grad = _gradient_sum(problem, point, frame)
        cost = _cost_from_basis(problem, frame[:, :m])
    except CutLocusError as err:
        raise fail(err)
    gnorm = grad.norm()
    trace.iterates.append(CGIterate(0, cost, gnorm, 0.0, "init", False))
    direction = -grad
    if callback is not None:
        callback(0, point, grad, direction)

    iteration = 0
    while gnorm >= config.grad_tol and iteration < config.max_iter:
        iteration += 1
        slope = metric(grad, direction)
        forced_restart = False
        if not slope < 0.0:
            direction = -grad
            slope = -gnorm * gnorm
            forced_restart = True
        capped = False
        omega = commutator(direction.matrix, point.matrix)
        try:
            if config.step_rule == "backtracking":
                x1_cur = frame[:, :m]

                def line_value(a):
                    trial, _ = np.linalg.qr(linalg.expm_skew(a * omega) @ x1_cur)
                    try:
                        return _cost_from_basis(problem, trial)
                    except CutLocusError:
                        return float("inf")

                try:
                    step = backtracking_step(line_value, cost, slope, config)
                except LineSearchFailedError as search_err:
                    # a stale conjugate direction can degenerate to numerical
                    # noise; retry from steepest descent before anything else
                    if not forced_restart:
                        direction = -grad
                        slope = -gnorm * gnorm
                        forced_restart = True
                        omega = commutator(direction.matrix, point.matrix)
                        try:
                            step = backtracking_step(line_value, cost, slope, config)
                        except LineSearchFailedError as retry_err:
                            step = _noise_floor_step(problem, slope, cost, retry_err)
                    else:
                        step = _noise_floor_step(problem, slope, cost, search_err)
            else:
                step = newton_step_cp(problem, point, direction)
                if step > config.step_init:
                    step = config.step_init
                    capped = True
            mover = linalg.expm_skew(step * omega)
            frame, _ = np.linalg.qr(mover @ frame)
            x1 = frame[:, :m]
            new_point = GrassmannPoint(x1 @ x1.conj().T, m)
            new_grad = _gradient_sum(problem, new_point, frame)
            new_cost = _cost_from_basis(problem, x1)
        except (CutLocusError, LineSearchFailedError, DegenerateCurvatureError,
                DomainError) as err:
            raise fail(err)
        new_gnorm = new_grad.norm()
        grad_moved = TangentVector(new_point, mover @ grad.matrix @ mover.conj().T)
        dir_moved = TangentVector(new_point, mover @ direction.matrix @ mover.conj().T)
        periodic = iteration % period == 0
        if periodic:
            fallback = False
            new_direction = -new_grad
        else:
            coeff, fallback = _coefficient(config.direction_rule, new_grad,
                                           grad_moved, dir_moved, direction, grad)
            new_direction = -new_grad + coeff * dir_moved
        restarted = periodic or fallback or forced_restart
        rule = "sd" if (periodic or fallback) else config.direction_rule
        trace.iterates.append(
            CGIterate(iteration, new_cost, new_gnorm, step, rule, restarted, capped))
        point, grad, cost, gnorm, direction = new_point, new_grad, new_cost, new_gnorm, new_direction
        if callback is not None:
            callback(iteration, point, grad, direction)

    trace.status = "converged" if gnorm < config.grad_tol else "max_iter"
    return point, trace
