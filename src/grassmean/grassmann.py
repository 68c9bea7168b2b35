"""The complex Grassmannian realized as rank-m Hermitian projectors.

A point is an n-by-n Hermitian projector P with trace m; a tangent vector at P
is a Hermitian H with [P, [P, H]] = H. In this picture geodesics, parallel
transport and the exponential map are all unitary conjugation flows
e^{t[H,P]} (.) e^{-t[H,P]}. They are computed as in the Karcher solver, on an
orthonormal n-by-m basis X of P: H is read as the horizontal D = H X
(X^H D = 0, and H = X D^H + D X^H), and the flow moves X and carries tangents
in closed form (Edelman, Arias & Smith 1998, section 2.5). The logarithm and
geodesic distance come from principal angles between the two subspaces, which
one batched kernel computes from a basis of each. A point keeps an
orthonormal basis of its range: the one the package built it from, or, for a
projector given by the caller, its top eigenvectors, found once on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from numbers import Integral, Real

import numpy as np

from . import linalg
from .exceptions import CutLocusError, InvalidInputError

PROJECTOR_TOL = 1e-10
TRACE_TOL = 1e-8
TANGENT_TOL = 1e-10
STIEFEL_TOL = 1e-10
BASE_MATCH_TOL = 1e-8
CUT_LOCUS_TOL = 1e-8
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False, repr=False)
class GrassmannPoint:
    """An m-dimensional subspace of C^n stored as its orthogonal projector.

    The matrix is validated on construction: Hermitian, idempotent to
    PROJECTOR_TOL in Frobenius norm, trace within TRACE_TOL of the rank.
    The stored array is a read-only copy.
    """

    matrix: np.ndarray
    rank: int = None  # inferred from the trace when omitted
    # read-only n-by-m orthonormal basis of the range, set once: by ``_point``
    # to the basis it builds from, else by ``_bases`` on first use
    _basis = None

    def __post_init__(self):
        if self.rank is not None and (isinstance(self.rank, bool)
                                      or not isinstance(self.rank, Integral)):
            raise InvalidInputError(f"rank must be an integer, got {self.rank!r}")
        proj = linalg.require_hermitian(self.matrix, "projector")
        defect = np.linalg.norm(proj @ proj - proj)
        if defect >= PROJECTOR_TOL:
            raise InvalidInputError(f"matrix is not idempotent (|P^2 - P| = {defect:.3e})")
        trace = float(np.trace(proj).real)
        rank = int(round(trace)) if self.rank is None else int(self.rank)
        if abs(trace - rank) >= TRACE_TOL:
            raise InvalidInputError(f"trace {trace:.12f} is not the integer rank {rank}")
        if not 1 <= rank <= proj.shape[0]:
            raise InvalidInputError(f"rank {rank} out of range for dimension {proj.shape[0]}")
        proj.setflags(write=False)
        object.__setattr__(self, "matrix", proj)
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"GrassmannPoint(n={self.dim}, m={self.rank})"


def _stiefel_defects(stack: np.ndarray) -> np.ndarray:
    """|B^H B - I|_F of each basis B in an (..., n, m) stack, from one batched product."""
    m = stack.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf below, unwarned
        gram = (stack.conj().swapaxes(-1, -2) @ stack).reshape(*stack.shape[:-2], m * m)
        gram[..., ::m + 1] -= 1.0  # the diagonal
        defects = np.sqrt(np.vecdot(gram, gram).real)
    return np.where(np.isnan(defects), np.inf, defects)  # finite entries whose products overflow


@dataclass(frozen=True, eq=False, repr=False)
class StiefelBasis:
    """n-by-m matrix with orthonormal columns spanning a subspace."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = linalg.as_matrix(self.matrix, "basis")
        n, m = mat.shape
        if not 1 <= m <= n:
            raise InvalidInputError(f"basis shape {mat.shape} is not tall")
        defect = _stiefel_defects(mat)
        if defect >= STIEFEL_TOL:
            raise InvalidInputError(f"columns are not orthonormal (defect {defect:.3e})")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self):
        return f"StiefelBasis(n={self.dim}, m={self.rank})"


@dataclass(frozen=True, eq=False, repr=False)
class TangentVector:
    """Tangent vector at a point: Hermitian H with [P, [P, H]] = X D^H + D X^H = H,
    checked on the point's kept basis X; the package builds its own unchecked.

    Supports the vector-space operations (+, -, real scalar *) among vectors
    anchored at the same base point.
    """

    base: GrassmannPoint
    matrix: np.ndarray

    def __post_init__(self):
        mat = linalg.require_hermitian(self.matrix, "tangent vector")
        (basis,) = _bases([self.base])
        if mat.shape[0] != len(basis):
            raise InvalidInputError(
                f"tangent shape {mat.shape} does not match base dimension {len(basis)}")
        defect = np.linalg.norm(mat - _lift(basis, _horizontal(mat, basis)))
        if defect >= TANGENT_TOL * max(1.0, np.linalg.norm(mat)):
            raise InvalidInputError(f"matrix is not tangent at the base point (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def norm(self) -> float:
        """Metric norm; equals the Frobenius norm for Hermitian matrices."""
        return float(np.linalg.norm(self.matrix))

    def __neg__(self):
        return _trusted(TangentVector, base=self.base, matrix=-self.matrix)

    def __add__(self, other):
        require_anchored(other, self.base)
        return TangentVector(self.base, self.matrix + other.matrix)

    def __sub__(self, other):
        require_anchored(other, self.base)
        return TangentVector(self.base, self.matrix - other.matrix)

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            return NotImplemented
        return TangentVector(self.base, float(scalar) * self.matrix)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TangentVector(n={self.base.dim}, m={self.base.rank}, norm={self.norm():.3e})"


def require_anchored(vector: TangentVector, point: GrassmannPoint) -> None:
    """Reject anything but a tangent whose base is ``point`` to within BASE_MATCH_TOL."""
    _require_tangent(vector)
    if vector.base is point:
        return
    _require_points([point])
    if vector.base.dim != point.dim or vector.base.rank != point.rank:
        raise InvalidInputError("tangent vector lives on a different Grassmannian")
    gap = np.linalg.norm(vector.base.matrix - point.matrix)
    if gap > BASE_MATCH_TOL:
        raise InvalidInputError(f"tangent vector is not anchored at the point (gap {gap:.3e})")


def _require_points(points) -> None:
    """Reject anything among ``points`` but a GrassmannPoint, naming its type."""
    for kind in set(map(type, points)):
        if not issubclass(kind, GrassmannPoint):
            raise InvalidInputError(f"expected a GrassmannPoint, got {kind.__name__}")


def _require_tangent(vector) -> None:
    if not isinstance(vector, TangentVector):
        raise InvalidInputError(f"expected a TangentVector, got {type(vector).__name__}")


def _require_same_space(first: GrassmannPoint, second: GrassmannPoint) -> None:
    _require_points([first, second])
    if first.dim != second.dim or first.rank != second.rank:
        raise InvalidInputError(
            f"points live on different Grassmannians: (n={first.dim}, m={first.rank}) "
            f"vs (n={second.dim}, m={second.rank})")


def projector_from_basis(basis) -> GrassmannPoint:
    """Orthogonal projector onto the column span of an orthonormal basis."""
    if not isinstance(basis, StiefelBasis):
        basis = StiefelBasis(basis)
    return _point(basis.matrix)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set and not checked.

    For objects the package builds valid by construction; array fields are
    made read-only, as the checked constructors leave them.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        # an array that is read-only already, such as a point's kept basis, is left as it is
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _trusted_views(cls, name: str, stack: np.ndarray) -> list:
    """``_trusted(cls, name=view)`` for each view along the first axis of ``stack``,
    in two passes that run in C; the stack is made read-only, and so are its views."""
    stack.flags.writeable = False
    objs = list(map(object.__new__, repeat(cls, len(stack))))
    list(map(object.__setattr__, objs, repeat(name), stack))
    return objs


def _point(basis: np.ndarray) -> GrassmannPoint:
    """The span of an orthonormal n-by-m ``basis`` as a projector that keeps a copy
    of it, made exactly Hermitian, as GrassmannPoint makes it, and not checked."""
    basis = basis.copy()  # owned, so the point holds on to no larger array
    proj = basis @ basis.conj().T
    return _trusted(GrassmannPoint, matrix=0.5 * (proj + proj.conj().T), rank=basis.shape[1],
                    _basis=basis)


def _bases(points) -> list:
    """The kept basis of each of ``points``, which share one rank m.

    Points without one, projectors the caller built, get their top m
    eigenvectors, in descending order, from one batched ``eigh``, and keep
    them. A projector with fewer than m eigenvalues near 1 is rejected, as is a non-point.
    """
    _require_points(points)
    bare = [point for point in points if point._basis is None]
    if bare:  # two threads that fill one point at once compute the same bits
        m = bare[0].rank
        vals, vecs = np.linalg.eigh(np.array([point.matrix for point in bare]))
        if np.any(vals[:, -m] < 0.5):
            raise InvalidInputError("projector is rank deficient")
        for point, vec in zip(bare, vecs):
            basis = vec[:, ::-1][:, :m].copy()
            basis.flags.writeable = False
            object.__setattr__(point, "_basis", basis)
    return [point._basis for point in points]


def basis_from_projector(point: GrassmannPoint) -> StiefelBasis:
    """Orthonormal basis of the projector's range, the one the point keeps; not checked again."""
    return _trusted(StiefelBasis, matrix=_bases([point])[0])


def tangent_project(point: GrassmannPoint, value) -> TangentVector:
    """Project a Hermitian matrix H onto the tangent space: [P, [P, H]]."""
    mat = linalg.require_hermitian(value, "matrix")
    (basis,) = _bases([point])
    if mat.shape[0] != len(basis):
        raise InvalidInputError(
            f"matrix shape {mat.shape} does not match dimension {len(basis)}")
    return _trusted(TangentVector, base=point, matrix=_lift(basis, _horizontal(mat, basis)))


def metric(first: TangentVector, second: TangentVector) -> float:
    """Riemannian inner product tr(H1 H2); real for Hermitian arguments."""
    _require_tangent(first)
    require_anchored(second, first.base)
    return float(np.einsum("ij,ji->", first.matrix, second.matrix).real)


def zero_tangent(point: GrassmannPoint) -> TangentVector:
    _require_points([point])
    return _trusted(TangentVector, base=point, matrix=np.zeros((point.dim,) * 2, dtype=complex))


def _horizontal(matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The horizontal D = H X - X X^H H X of a Hermitian H at span X = span ``basis``: a
    tangent part X D^H + D X^H is [P, [P, H]], and a vertical part must move nothing."""
    tangent = matrix @ basis
    return tangent - basis @ (basis.conj().T @ tangent)


def _lift(basis: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """The n-by-n tangent X D^H + D X^H, exactly Hermitian, of the horizontal D = ``tangent``."""
    half = basis @ tangent.conj().T
    return half + half.conj().T


def _geodesic(basis: np.ndarray, tangent: np.ndarray):
    """The geodesic from span X with horizontal velocity D = ``tangent``.

    With the thin SVD D = U S V^H, X(t) = X + (X V (cos tS - I) + U sin tS) V^H
    is e^{t[H,P]} X for the tangent H = X D^H + D X^H, and parallel transport
    carries a horizontal G at X to G - (X V sin tS + U (I - cos tS)) U^H G at
    X(t) (Edelman, Arias & Smith 1998). Returns a function of t giving X(t) and
    the transport, which takes tangents side by side, (..., n, k m). Leading
    axes are a batch, and t is a scalar or one value per batch entry.
    """
    u, sigma, vh = np.linalg.svd(tangent, full_matrices=False)
    # D has rank <= n - m, and U's columns past that need not be horizontal:
    # their singular values are set to the exact zeros they are, so they move nothing
    sigma[..., basis.shape[-2] - basis.shape[-1]:] = 0.0
    xv, uh = basis @ vh.conj().swapaxes(-1, -2), u.conj().swapaxes(-1, -2)

    def at(t):
        angle = np.asarray(t)[..., np.newaxis] * sigma
        cos, sine = np.cos(angle)[..., np.newaxis, :], np.sin(angle)[..., np.newaxis, :]
        return basis + (xv * (cos - 1.0) + u * sine) @ vh, lambda tangents: (
            tangents - (xv * sine + u * (1.0 - cos)) @ (uh @ tangents))

    return at


def _flow(point: GrassmannPoint, velocity: TangentVector, t: float):
    """The kept basis of ``point``, its image at t along ``velocity`` and the transport."""
    require_anchored(velocity, point)
    if isinstance(t, bool) or not isinstance(t, Real) or not -np.inf < t < np.inf:
        raise InvalidInputError(f"geodesic parameter must be a finite real number, got {t!r}")
    basis = _bases([point])[0]
    return basis, *_geodesic(basis, _horizontal(velocity.matrix, basis))(float(t))


def geodesic(point: GrassmannPoint, velocity: TangentVector, t: float) -> GrassmannPoint:
    """Point at parameter t of the geodesic through ``point`` with ``velocity``."""
    return _point(_flow(point, velocity, t)[1])


def exp(point: GrassmannPoint, velocity: TangentVector) -> GrassmannPoint:
    """Riemannian exponential: the geodesic evaluated at t = 1."""
    return geodesic(point, velocity, 1.0)


def parallel_transport(vector: TangentVector, velocity: TangentVector,
                       t: float) -> TangentVector:
    """Transport ``vector`` along the geodesic driven by ``velocity``.

    Both inputs must be anchored at the same point; the result is anchored at
    the geodesic point at parameter t. Transport is a metric isometry.
    """
    _require_tangent(vector)
    basis, moved, carry = _flow(vector.base, velocity, t)
    return _trusted(TangentVector, base=_point(moved),
                    matrix=_lift(moved, carry(_horizontal(vector.matrix, basis))))


def _overlap_svd(square: np.ndarray):
    """SVD L C R^H of each m-by-m overlap in a stack, singular values descending.

    Returns (L, C, R^H). A 1x1 overlap is factored in closed form, as its
    phase and modulus: LAPACK's fixed cost per matrix would dominate a stack
    of scalars.
    """
    if square.shape[-1] > 1:
        return np.linalg.svd(square)
    cos = np.abs(square[..., 0])
    return square * (1.0 / np.maximum(cos, _TINY))[..., np.newaxis], cos, np.ones_like(square)


def _principal_angles(basis: np.ndarray, adjoint: np.ndarray):
    """Principal angles between span(X) and each span(Y_i), with overlaps and logs.

    ``basis`` is an orthonormal n-by-m X and ``adjoint`` the (N m, n) stack of
    the data's Y_i^H, one orthonormal basis per datum; leading axes of both
    are a batch of problems. Every caller (cost, distance, log and the solver)
    goes through this one factorization: one GEMM forms the overlaps
    A_i = Y_i^H X, and one batched SVD factors them as L C R^H. Returns the
    angles arccos(C), (N, m), ascending per datum; the summed log
    sum_i log_X(span Y_i) = sum_i P_i L diag(theta / sin theta) R^H with
    P_i = Y_i - X A_i^H, as a horizontal n-by-m tangent (Edelman, Arias &
    Smith 1998); per problem, the worst datum whose smallest squared cosine
    is at most CUT_LOCUS_TOL, or -1; and the factored overlaps (L, C, R^H).
    """
    *batch, _, m = basis.shape
    count = adjoint.shape[-2] // m
    over = adjoint @ basis
    left, cos, right_h = _overlap_svd(over.reshape(*batch, count, m, m))
    cos = np.minimum(cos, 1.0)
    low = cos[..., -1] ** 2
    cut = np.full(low.shape[:-1], -1)
    if low.min() <= CUT_LOCUS_TOL:  # rare: the per-problem index is built only then
        cut = np.where(low.min(-1) <= CUT_LOCUS_TOL, low.argmin(-1), -1)
    angles = np.arccos(cos)
    floored = np.maximum(angles, _TINY)  # theta / sin(theta) -> 1 at theta = 0
    right = right_h.conj().swapaxes(-1, -2) * (floored / np.sin(floored))[..., np.newaxis, :]
    coef = right @ left.conj().swapaxes(-1, -2)  # R diag(theta / sin theta) L^H, (N, m, m)
    # the summed log is sum_i Y_i coef_i^H, one GEMM over the stacked (datum,
    # column) index, less its part along X, projected off twice: the sum is of
    # the size of N, and one projection leaves a part of the size of N eps
    summed = (coef.swapaxes(-3, -2).reshape(*batch, m, count * m) @ adjoint).conj().swapaxes(
        -1, -2)
    basis_h = basis.conj().swapaxes(-1, -2)
    for _ in range(2):
        summed = summed - basis @ (basis_h @ summed)
    return angles, summed, cut, (left, cos, right_h)


def principal_angles(point: GrassmannPoint, other: GrassmannPoint) -> np.ndarray:
    """The m principal angles between the two subspaces, ascending, in radians."""
    _require_same_space(point, other)
    basis, target = _bases([point, other])
    return _principal_angles(basis, target.conj().T)[0][0]


def dist(point: GrassmannPoint, other: GrassmannPoint) -> float:
    """Geodesic distance: sqrt(2 * sum of squared principal angles)."""
    angles = principal_angles(point, other)
    return float(np.sqrt(2.0 * np.sum(angles * angles)))


def log(point: GrassmannPoint, target: GrassmannPoint) -> TangentVector:
    """Inverse exponential: the tangent at ``point`` whose exp is ``target``.

    Requires all principal angles strictly below pi/2 (smallest squared cosine
    above CUT_LOCUS_TOL), otherwise CutLocusError.
    """
    _require_same_space(point, target)
    basis, other = _bases([point, target])
    _, tangent, cut, _ = _principal_angles(basis, other.conj().T)
    if cut >= 0:
        raise CutLocusError(index=int(cut))
    return _trusted(TangentVector, base=point, matrix=_lift(basis, tangent))
