"""Karcher means of subspaces by geometric conjugate gradient.

The cost is the mean squared geodesic distance to a fixed set of subspaces,
held as one (N, n, m) stack of orthonormal bases. The solver carries an
orthonormal n-by-m basis X of the current point, and tangents as horizontal
n-by-m D, X^H D = 0 (Edelman, Arias & Smith 1998). One batched principal-angle
kernel call per iterate gives the cost (the squared angles), the gradient (the
summed data logs) and the factored overlaps Y_i^H X that the Newton step reads.
Geodesics move X in closed form, and one product carries the old gradient and
direction to the new basis for the conjugate coefficient. Direction rules are
the classical conjugate ones; step sizes come from backtracking or, at any
rank, a Newton step on the cost's exact second derivative along the geodesic.
A backtracking search reads its first trial from the next iterate's own kernel
call. Past the anchor's averaged projector no n-by-n matrix is built; the result
and the callback's points and tangents form theirs only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .exceptions import (
    CutLocusError,
    DegenerateCurvatureError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from .grassmann import (
    GrassmannPoint,
    StiefelBasis,
    TangentVector,
    _bases,
    _geodesic,
    _metric,
    _point,
    _principal_angles,
    _trusted,
    require_anchored,
)

DIRECTION_RULES = ("hs", "pr", "fr", "dy", "star")
STEP_RULES = ("backtracking", "newton_cp")
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_SHRINKS = 60
NOISE_SLOPE_FACTOR = 1e4
NEWTON_STEP_CAP = 1.0
CURVATURE_TOL = 1e-14
INIT_GAP_TOL = 1e-8
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps
_DATA_TYPES = (StiefelBasis, GrassmannPoint)


@dataclass(frozen=True)
class CGConfig:
    """Solver knobs.

    Step scales are worked out, not set: backtracking starts at 1/N (see
    ``karcher_mean``), and the Newton rule's step is capped at NEWTON_STEP_CAP.
    Directions restart from steepest descent every max(1, 2m(n-m) - 1)
    iterations, one less than the manifold's real dimension.

    The default direction rule is Dai-Yuan, <g, g> / <d, g - h>. No Armijo
    step is an exact line search, and the Hestenes-Stiefel numerator
    <g, g - h> keeps the term <g, h> that such a step leaves nonzero; Dai-Yuan
    drops it, and its directions stay descent directions under Wolfe-type
    steps (Dai & Yuan, SIAM J. Optim. 1999; Sato, Comput. Optim. Appl. 2016).
    Backtracking solves take about a fifth fewer iterations under it than
    under Hestenes-Stiefel, and Newton solves take the same number.
    """

    direction_rule: str = "dy"
    step_rule: str = "backtracking"
    grad_tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.direction_rule not in DIRECTION_RULES:
            raise InvalidInputError(f"unknown direction rule {self.direction_rule!r}")
        if self.step_rule not in STEP_RULES:
            raise InvalidInputError(f"unknown step rule {self.step_rule!r}")
        if (isinstance(self.grad_tol, bool) or not isinstance(self.grad_tol, Real)
                or not 0 < self.grad_tol < np.inf):
            raise InvalidInputError("grad_tol must be a positive finite number")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, Integral)
                or self.max_iter < 1):
            raise InvalidInputError("max_iter must be an integer of at least 1")


@dataclass(slots=True)  # no per-row dict: a long trace holds one row per iterate
class CGIterate:
    iteration: int
    cost: float
    grad_norm: float
    step_size: float
    direction_rule: str
    restart: bool
    step_capped: bool = False
    shrinks: int = 0  # kernel evaluations of the line search beyond the iterate's own
    noise_floor: bool = False  # the model step 1/N, taken without a comparison
    # why ``restart`` is set, the first that applies: "periodic", "fallback" (a
    # degenerate coefficient for the next search), "forced" (steepest descent
    # searched) or "none"
    restart_reason: str = "none"


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


class BatchTrace(tuple):
    """The CGTrace of each problem of a batched solve, in problem order."""

    @property
    def status(self) -> str:
        """The status of the first problem that did not converge, else "converged"."""
        return next((trace.status for trace in self if not trace.converged), "converged")

    @property
    def iterations(self) -> int:
        return sum(trace.iterations for trace in self)


class KarcherProblem:
    """A fixed collection of subspaces to be averaged, as one (N, n, m) stack.

    ``data`` holds StiefelBasis or GrassmannPoint elements of one (n, m), each
    validated when it was built. Types are checked as a set, the points' (n, m)
    before their bases are taken, and all shapes by building the one stack. A
    point contributes the basis it keeps; points without one, projectors the
    caller built, are reduced by one batched ``eigh`` (see ``_bases``).
    ``_stack`` is an already-checked stack instead: (N, n, m), or (B, N, n, m)
    for a batch of B problems that ``karcher_mean`` solves together.
    """

    def __init__(self, data=(), *, _stack=None):
        self.bases = _stack_of(tuple(data)) if _stack is None else _stack
        self.size, self.dim, self.rank = self.bases.shape[-3:]


def _stack_of(data: tuple) -> np.ndarray:
    if not data:
        raise InvalidInputError("problem needs at least one point")
    if not all(issubclass(kind, _DATA_TYPES) for kind in set(map(type, data))):
        stray = next(item for item in data if not isinstance(item, _DATA_TYPES))
        raise InvalidInputError(
            f"problem data must be StiefelBasis or GrassmannPoint, got {type(stray).__name__}")
    points = [item for item in data if isinstance(item, GrassmannPoint)]
    if len({(point.dim, point.rank) for point in points}) > 1:  # before _bases reads m
        raise InvalidInputError("points live on different Grassmannians")
    kept = iter(_bases(points))
    try:  # the shapes are checked by stacking them
        stack = np.array([next(kept) if isinstance(item, GrassmannPoint) else item.matrix
                          for item in data])
    except ValueError:
        raise InvalidInputError("points live on different Grassmannians") from None
    stack.setflags(write=False)
    return stack


def _basis_of(problem: KarcherProblem, point: GrassmannPoint) -> np.ndarray:
    (basis,) = _bases([point])
    if basis.shape != (problem.dim, problem.rank):
        raise InvalidInputError("point does not live on the problem's Grassmannian")
    return basis


def _adjoint(bases: np.ndarray) -> np.ndarray:
    """The (..., N m, n) stack of the Y_i^H of an (..., N, n, m) stack, the kernel's data."""
    *batch, count, n, m = bases.shape
    return bases.conj().swapaxes(-1, -2).reshape(*batch, count * m, n)


def _cost(angles: np.ndarray) -> np.ndarray:
    """Karcher cost from the (..., N, m) principal angles to the data."""
    return 2.0 * (angles * angles).sum(axis=(-2, -1)) / angles.shape[-2]


def _evaluate(adjoint: np.ndarray, basis: np.ndarray):
    """Angles, cost, residual, cut index and factored overlaps at ``basis``.

    ``adjoint`` is the data as ``_adjoint`` stacks it. The residual, minus the
    summed data logs, is N/2 times the gradient of karcher_cost. The solver
    searches along it, so the step 1/N is the Karcher fixed-point step (a
    move by the mean log) and step 1 is exact for one datum.
    """
    angles, tangent, cut, factors = _principal_angles(basis, adjoint)
    return angles, _cost(angles), -tangent, cut, factors


def _at(problem: KarcherProblem, point: GrassmannPoint) -> tuple:
    """The kept basis of ``point``, the data's ``_adjoint`` and their ``_evaluate``, less the
    cut index; CutLocusError (with the datum index) if ``point`` is at a datum's cut locus."""
    basis, adjoint = _basis_of(problem, point), _adjoint(problem.bases)
    angles, cost, residual, cut, factors = _evaluate(adjoint, basis)
    if cut >= 0:
        raise CutLocusError(index=int(cut))
    return basis, adjoint, angles, cost, residual, factors


def karcher_cost(problem: KarcherProblem, point: GrassmannPoint) -> float:
    """Mean squared geodesic distance from ``point`` to the problem data; CutLocusError
    (with the datum index) if ``point`` is at the cut locus of a datum."""
    return float(_at(problem, point)[3])


def _move(path, steps, adjoint: np.ndarray) -> tuple:
    """The bases at ``steps`` along ``path``, one per problem, with their ``_evaluate``.

    Returns (basis, transport, angles, cost, residual, cut, factors) over the
    batch. One Bjorck-Bowie polar step X(3I - X^H X)/2 removes the rounding
    from the moved basis.
    """
    moved, carry = path(steps)
    basis = 1.5 * moved - 0.5 * moved @ (moved.conj().swapaxes(-1, -2) @ moved)
    return basis, carry, *_evaluate(adjoint, basis)


def karcher_gradient(problem: KarcherProblem, point: GrassmannPoint) -> TangentVector:
    """Riemannian gradient of the Karcher cost: minus twice the mean data log."""
    residual = _at(problem, point)[4]
    return _trusted(TangentVector, base=point, _d=(2.0 / problem.size) * residual)


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
    """Whether Armijo comparisons along a search direction are rounding noise.

    ``decrease`` is the cost decrease predicted at the first trial step 1/N
    along the direction searched: -slope / N, or 2 gnorm^2 / N^2 along a
    residual of norm gnorm. Near the minimizer it drops below the rounding
    noise of ``value0`` long before the residual loses accuracy. A comparison
    there passes or fails by chance, and a chance pass at a step too small to
    move the iterate freezes the solver. So a conjugate direction at the floor
    restarts from steepest descent, and along steepest descent at the floor,
    where the curvature along the residual field approaches N, the solver
    takes the model-exact step 1/N without a cost comparison.
    """
    return decrease <= NOISE_SLOPE_FACTOR * _EPS * max(1.0, value0)


def _newton_step(factors: tuple, adjoint: np.ndarray, tangent: np.ndarray, angles: np.ndarray,
                 slope: np.ndarray):
    """Newton step sizes -F'(0) / |F''(0)| along the horizontal tangents D = ``tangent`` at X.

    ``factors`` and ``angles`` are the kernel's factors Y_i^H X = L C R^H and
    its (N, m) angles at that basis, ``adjoint`` is the data as ``_adjoint``
    stacks them, ``slope`` is F'(0), and leading axes are a batch. With
    W_i = Y_i L diag(1 / sin theta) (0 where sin theta = 0), T = R^H D^H,
    P = T W_i and the Jacobi-field weights w(phi) = phi cot phi (Absil,
    Mahony & Sepulchre, Acta Appl. Math. 2004; Ferreira, Xavier, Costeira &
    Barroso, IEEE JSTSP 2013),
    F''(0) = 4/N sum_i [1/4 sum_kl (|(P + P^H)_kl|^2 w(theta_k - theta_l) +
    |(P - P^H)_kl|^2 w(theta_k + theta_l)) + sum_k w(theta_k) (|T_k|^2 - |P_k|^2)],
    finite below the cut locus. Returns the steps and a list of None or each
    problem's DegenerateCurvatureError; a failed problem's step is 0.
    """
    left, cos, right_h = factors
    *batch, count, m = cos.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.where(cos < 1.0, 1.0 / np.sqrt(1.0 - cos * cos), 0.0)  # 1 / sin theta
        # Y_i^H D of every datum from one GEMM over the stacked (datum, column) index
        mixed = (adjoint @ tangent).reshape(*batch, count, m, m)
        p = (right_h @ mixed.conj().swapaxes(-1, -2) @ left * inverse[..., np.newaxis, :])
        squared, cross = (p * p.conj()).real, (p * p.swapaxes(-1, -2)).real
        row, col = angles[..., :, np.newaxis], angles[..., np.newaxis, :]  # theta_k, theta_l
        # w at theta_k - theta_l, theta_k + theta_l and theta_k, floored so that w(0) = 1
        minus, plus, weight = (phi / np.tan(phi) for phi in (
            np.maximum(np.abs(x), _TINY) for x in (row - col, row + col, row)))
        # the sum over k, l in |P_kl|^2 and Re(P_kl P_lk); the |T_k|^2 sum over
        # data is tr(D^H D sum_i R diag(w(theta)) R^H)
        pairs = (squared + cross) * minus + (squared - cross) * plus - 2.0 * squared * weight
        rotated = (right_h.conj().swapaxes(-1, -2) * weight.swapaxes(-1, -2)) @ right_h
        lone = np.vecdot((tangent.conj().swapaxes(-1, -2) @ tangent).reshape(*batch, -1),
                         rotated.sum(axis=-3).reshape(*batch, -1)).real
        second = (2.0 / count) * (pairs.sum(axis=(-3, -2, -1)) + 2.0 * lone)
        step = -slope / np.abs(second)
    # F'' along D scales with |D|^2, so degeneracy is a relative statement;
    # an absolute floor would trip on healthy short directions near the optimum
    flat = (slope != 0.0) & (np.abs(second) < CURVATURE_TOL * np.maximum(
        _metric(tangent, tangent), _TINY))
    errors = [DegenerateCurvatureError(f"second derivative {s:.3e} is numerically zero")
              if low else None for low, s in zip(flat.ravel().tolist(), second.ravel().tolist())]
    return np.where(flat | (slope == 0.0), 0.0, step), errors


def newton_step_cp(problem: KarcherProblem, point: GrassmannPoint,
                   direction: TangentVector) -> float:
    """Newton step size along ``direction``; CutLocusError as ``karcher_cost``."""
    tangent = require_anchored(direction, point)
    _, adjoint, angles, _, grad, factors = _at(problem, point)
    slope = (2.0 / problem.size) * _metric(grad, tangent)
    step, (error,) = _newton_step(factors, adjoint, tangent, angles, slope)
    if error is not None:
        raise error
    return float(step)


# numerator and denominator of each conjugate-direction coefficient from the new
# gradient g, its change y = g - h from the old gradient h, and the old direction d
_CONJUGATE = {
    "hs": lambda g, y, h, d: (_metric(g, y), _metric(d, y)),
    "pr": lambda g, y, h, d: (_metric(g, y), _metric(h, h)),
    "fr": lambda g, y, h, d: (_metric(g, g), _metric(h, h)),
    "dy": lambda g, y, h, d: (_metric(g, g), _metric(d, y)),
    "star": lambda g, y, h, d: (-_metric(g, y), _metric(d, h)),
}


def _coefficient(rule: str, grad_new: np.ndarray, grad_old: np.ndarray,
                 dir_old: np.ndarray):
    """Conjugate-direction coefficient and a flag for degenerate fallback.

    The arguments are horizontal tangents at one basis: the old gradient and
    direction are the ones parallel transport carried there along the step. A
    zero denominator or a non-finite ratio falls back to 0. Returns arrays of
    coefficients and fallback flags over the tangents' leading axes.
    """
    num, den = _CONJUGATE[rule](grad_new, grad_new - grad_old, grad_old, dir_old)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = num / den
    fallback = ~np.isfinite(coeff)  # a zero denominator gives inf or nan
    return np.where(fallback, 0.0, coeff), fallback


def _anchor(problem: KarcherProblem) -> np.ndarray:
    """Orthonormal basis of the Euclidean anchor, per problem.

    The anchor is the dominant eigenspace of the averaged data projectors, an
    average that is one GEMM on the stack; its basis is the top m
    eigenvectors, in descending order. With one datum, with m = n, or when the
    spectral gap at the cut is below INIT_GAP_TOL (ill-defined eigenspace),
    it is the first datum's basis itself.
    """
    *batch, count, n, m = problem.bases.shape
    first = problem.bases[..., 0, :, :]
    if count == 1 or m == n:
        return first
    stacked = problem.bases.swapaxes(-3, -2).reshape(*batch, n, count * m)
    average = stacked @ stacked.conj().swapaxes(-1, -2) / count
    vals, vecs = np.linalg.eigh(0.5 * (average + average.conj().swapaxes(-1, -2)))
    gapped = vals[..., n - m] - vals[..., n - m - 1] >= INIT_GAP_TOL
    return np.where(gapped[..., np.newaxis, np.newaxis], vecs[..., ::-1][..., :m], first)


def default_init(problem: KarcherProblem):
    """Euclidean anchor: the span of ``_anchor``, or a list of B spans for a batch of B."""
    anchor = _anchor(problem)
    return [_point(basis) for basis in anchor] if anchor.ndim == 3 else _point(anchor)


def karcher_mean(problem: KarcherProblem, init: GrassmannPoint = None,
                 config: CGConfig = None, callback=None):
    """Minimize the Karcher cost by conjugate gradient on the Grassmannian.

    ``init`` (a GrassmannPoint) defaults to the Euclidean anchor of the data,
    and then the solver starts from the anchor's basis (``_anchor``).
    ``callback(iteration, point, grad, direction)``, if given, is called after the
    initial evaluation and after every accepted update; ``direction`` is the one the
    next step searches unless it restarts, and -grad at the last iterate and at the
    noise floor. Returns ``(point, trace)``. Unrecoverable failures (cut locus at an
    iterate, exhausted line search, degenerate Newton curvature) raise the
    corresponding error with the partial trace attached as ``err.trace``.

    The search direction, the trace's grad_norm column, the grad_tol stopping
    test and the callback's ``grad`` use the residual field -sum(log_P(Q_i)),
    N/2 times karcher_gradient, so the result meets the tolerance in the
    gradient reading as well. Backtracking starts at the Karcher fixed-point
    step 1/N on that field (Afsari, Tron & Vidal 2013) and tests the mean cost.
    Every running problem moves by its first trial step, and one evaluation of
    the batch is both the Armijo test and the next iterate; only a shrunk trial
    moves and evaluates the batch again (the trace's ``shrinks``). A direction
    whose Armijo test would be rounding noise restarts from steepest descent.

    A batch (bases (B, N, n, m)) runs through the same loop, each problem with
    its own state and trace until it stops; one problem is a batch of one. A
    batch returns B points and a BatchTrace, its callback gets tuples of B
    points, gradients and directions (None once stopped), and it raises the
    first failed problem's error, with ``err.problem`` its index.
    """
    if config is None:
        config = CGConfig()
    n, m, count = problem.dim, problem.rank, problem.size
    batched = problem.bases.ndim == 4
    adjoint = _adjoint(problem.bases if batched else problem.bases[np.newaxis])
    start = _anchor(problem) if init is None else _basis_of(problem, init)
    basis = np.broadcast_to(start, (len(adjoint), n, m))
    ids, result, failed = list(range(len(adjoint))), np.empty_like(basis), {}
    traces = [CGTrace() for _ in ids]
    period = max(1, 2 * m * (n - m) - 1)
    first_step, backtrack = 1.0 / count, config.step_rule == "backtracking"

    def view(k):  # the callback's point, gradient and direction of running problem k
        point = _point(basis[k])  # the tangents are copies: the loop writes ``direction`` in place
        return (point, *(_trusted(TangentVector, base=point, _d=tangent[k].copy())
                         for tangent in (grad, direction)))

    # per-problem scalars are lists, and bases and tangents arrays, over the
    # running problems in problem order
    noise_floor = [False] * len(ids)  # set at the iterate before, whose direction is then -grad
    for iteration in range(config.max_iter + 1):
        size = len(ids)
        # the floor flags are numpy bools; ``forced`` keeps the Python bools it held
        errors, capped, forced = [None] * size, [False] * size, list(map(bool, noise_floor))
        shrinks = [0] * size
        steps = [first_step if iteration else 0.0] * size
        if iteration:
            # slopes of the mean cost, 2/N times those along the residual field
            slopes = (2.0 * first_step * _metric(grad, direction)).tolist()
            for k in range(size):
                # off the noise floor (where it is -grad), a direction whose Armijo test
                # would be rounding noise, or no descent at all, restarts from steepest descent
                if not noise_floor[k] and (not slopes[k] < 0.0 or (
                        backtrack and _at_noise_floor(-first_step * slopes[k], cost[k]))):
                    direction[k], slopes[k], forced[k] = -grad[k], steepest[k], True
            if not backtrack:
                step, errors = _newton_step(factors, adjoint, direction, angles, np.array(slopes))
                capped = (step > NEWTON_STEP_CAP).tolist()
                steps = np.minimum(step, NEWTON_STEP_CAP).tolist()
            path, origin = _geodesic(basis, direction), basis
            basis, carry, angles, new_cost, new_grad, cut, factors = _move(
                path, np.array(steps), adjoint)
            for k in range(size) if backtrack else ():

                def line_value(a):
                    # the batch holds the evaluation at ``steps``; a shrunk
                    # trial sets steps[k] and moves the batch again, so the
                    # accepted step's evaluation is the next iterate
                    nonlocal basis, carry, angles, new_cost, new_grad, cut, factors
                    if a != steps[k]:
                        steps[k], shrinks[k] = a, shrinks[k] + 1
                        basis, carry, angles, new_cost, new_grad, cut, factors = _move(
                            path, np.array(steps), adjoint)
                    return np.inf if cut[k] >= 0 else float(new_cost[k])

                while not noise_floor[k]:
                    try:
                        steps[k] = backtracking_step(line_value, cost[k], slopes[k], first_step)
                        break
                    except LineSearchFailedError as err:
                        if forced[k]:  # a failed problem stops, with step 0
                            errors[k], steps[k] = err, 0.0
                            break
                        # a stale conjugate direction can degenerate to numerical
                        # noise; retry from steepest descent before giving up
                        direction[k], slopes[k], forced[k] = -grad[k], steepest[k], True
                        path, steps[k] = _geodesic(origin, direction), None
        else:
            angles, new_cost, new_grad, cut, factors = _evaluate(adjoint, basis)
        new_cost, new_gnorm = new_cost.tolist(), np.sqrt(_metric(new_grad, new_grad)).tolist()
        errors = [err or (CutLocusError(index=i) if i >= 0 else None)
                  for err, i in zip(errors, cut.tolist())]
        keep = [err is None and g >= config.grad_tol for err, g in zip(errors, new_gnorm)]
        steepest = [-2.0 * first_step * g * g for g in new_gnorm]
        floor = [backtrack and _at_noise_floor(-first_step * s, c)
                 for s, c in zip(steepest, new_cost)]
        periodic = iteration > 0 and iteration % period == 0
        search = [go and not low for go, low in zip(keep, floor)]
        if iteration in (0, config.max_iter) or periodic or not any(search):
            fallback, new_direction = [False] * size, -new_grad
        else:
            # the old gradient and direction, carried to the new basis in one product
            carried = carry(np.concatenate([grad, direction], axis=-1))
            coeff, fallback = _coefficient(config.direction_rule, new_grad,
                                           carried[..., :m], carried[..., m:])
            new_direction = -new_grad + coeff[:, np.newaxis, np.newaxis] * carried[..., m:]
            for k in [k for k, go in enumerate(search) if not go]:  # they stop, or search -grad
                fallback[k], new_direction[k] = False, -new_grad[k]
        rule = "init" if iteration == 0 else config.direction_rule
        for k, err in enumerate(errors):
            if err:
                failed[ids[k]] = err
                continue
            sd = periodic or bool(fallback[k])
            reason = "periodic" if periodic else "fallback" if sd else (
                "forced" if forced[k] else "none")
            traces[ids[k]].iterates.append(CGIterate(
                iteration, new_cost[k], new_gnorm[k], steps[k], "sd" if sd else rule,
                sd or forced[k], capped[k], shrinks[k], noise_floor[k], reason))
        grad, cost, direction, noise_floor = new_grad, new_cost, new_direction, floor
        if callback is not None and not all(errors):
            rows = {ids[k]: view(k) for k, err in enumerate(errors) if err is None}
            callback(iteration, *zip(*(rows.get(b, (None,) * 3) for b in range(len(traces))))
                     if batched else rows[0])
        if not all(keep):
            result[ids] = basis
            if not any(keep):
                break
            ids, cost, steepest, noise_floor = ([v for v, go in zip(part, keep) if go]
                                                for part in (ids, cost, steepest, noise_floor))
            keep = np.array(keep)
            adjoint, basis, angles, grad, direction, *factors = (
                part[keep] for part in (adjoint, basis, angles, grad, direction, *factors))
    result[ids] = basis
    for index, trace in enumerate(traces):
        trace.status = failed[index].status if index in failed else (
            "converged" if trace.iterates[-1].grad_norm < config.grad_tol else "max_iter")
    if failed:
        index = min(failed)
        failed[index].trace, failed[index].problem = traces[index], index
        raise failed[index]
    points = [_point(end) for end in result]
    return (points, BatchTrace(traces)) if batched else (points[0], traces[0])
