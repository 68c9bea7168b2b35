"""The complex Grassmannian realized as rank-m Hermitian projectors.

A point is an n-by-n Hermitian projector P with trace m; a tangent vector at P
is a Hermitian H with [P, [P, H]] = H. In this picture geodesics, parallel
transport and the exponential map are all unitary conjugation flows
e^{t[H,P]} (.) e^{-t[H,P]}, computed as in the Karcher solver: in a unitary
frame [X1 X2] of P, H is its block X1^H H X2 and the flow moves the frame in
closed form (Edelman, Arias & Smith 1998). The logarithm and geodesic distance
come from principal angles between the two subspaces, which one batched
kernel computes from a unitary frame of the first and a basis of the second.
A point keeps an orthonormal basis of its range: the one the package built it
from, or, for a projector given by the caller, its top eigenvectors, found
once on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


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
    # from the frame it builds from, else by ``_bases`` on first use
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
    gram = (stack.conj().swapaxes(-1, -2) @ stack).reshape(*stack.shape[:-2], m * m)
    gram[..., ::m + 1] -= 1.0  # the diagonal
    return np.sqrt(np.vecdot(gram, gram).real)


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
    """Tangent vector at a point: Hermitian H with [P, [P, H]] = H.

    Supports the vector-space operations (+, -, real scalar *) among vectors
    anchored at the same base point.
    """

    base: GrassmannPoint
    matrix: np.ndarray

    def __post_init__(self):
        mat = linalg.require_hermitian(self.matrix, "tangent vector")
        if mat.shape[0] != self.base.dim:
            raise InvalidInputError(
                f"tangent shape {mat.shape} does not match base dimension {self.base.dim}")
        proj = self.base.matrix
        defect = np.linalg.norm(commutator(proj, commutator(proj, mat)) - mat)
        if defect >= TANGENT_TOL * max(1.0, np.linalg.norm(mat)):
            raise InvalidInputError(f"matrix is not tangent at the base point (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def norm(self) -> float:
        """Metric norm; equals the Frobenius norm for Hermitian matrices."""
        return float(np.linalg.norm(self.matrix))

    def __neg__(self):
        return TangentVector(self.base, -self.matrix)

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
    """Reject ``vector`` unless its base is ``point`` to within BASE_MATCH_TOL."""
    if vector.base is point:
        return
    if vector.base.dim != point.dim or vector.base.rank != point.rank:
        raise InvalidInputError("tangent vector lives on a different Grassmannian")
    gap = np.linalg.norm(vector.base.matrix - point.matrix)
    if gap > BASE_MATCH_TOL:
        raise InvalidInputError(f"tangent vector is not anchored at the point (gap {gap:.3e})")


def _require_same_space(first: GrassmannPoint, second: GrassmannPoint) -> None:
    if first.dim != second.dim or first.rank != second.rank:
        raise InvalidInputError(
            f"points live on different Grassmannians: (n={first.dim}, m={first.rank}) "
            f"vs (n={second.dim}, m={second.rank})")


def projector_from_basis(basis) -> GrassmannPoint:
    """Orthogonal projector onto the column span of an orthonormal basis."""
    if not isinstance(basis, StiefelBasis):
        basis = StiefelBasis(basis)
    return _point(basis.matrix, basis.rank)


def _frame(proj: np.ndarray, m: int) -> np.ndarray:
    """Unitary frames [X1 X2] of one exactly Hermitian rank-m projector or a stack
    (..., n, n), from one ``eigh``: eigenvectors, range first; lower ranks are rejected."""
    vals, vecs = np.linalg.eigh(proj)
    if np.any(vals[..., -m] < 0.5):
        raise InvalidInputError("projector is rank deficient")
    return np.ascontiguousarray(vecs[..., ::-1])


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set and not checked.

    For objects the package builds valid by construction; array fields are
    made read-only, as the checked constructors leave them.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        # views of a read-only stack, as the file reader hands out, are read-only already
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _point(frame: np.ndarray, m: int) -> GrassmannPoint:
    """The span of the first m columns of an orthonormal ``frame``, as a projector
    that keeps a copy of those columns as its basis.

    It is made exactly Hermitian, as GrassmannPoint makes it, and not checked.
    """
    x1 = frame[:, :m].copy()  # owned, so the point does not hold on to the frame
    proj = x1 @ x1.conj().T
    return _trusted(GrassmannPoint, matrix=0.5 * (proj + proj.conj().T), rank=m, _basis=x1)


def _bases(points) -> list:
    """The kept basis of each of ``points``, which share one rank m.

    Points without one, projectors the caller built, get the first m columns
    of their ``_frame`` from one batched call, and keep them.
    """
    bare = [point for point in points if point._basis is None]
    if bare:  # two threads that fill one point at once compute the same bits
        m = bare[0].rank
        for point, frame in zip(bare, _frame(np.array([point.matrix for point in bare]), m)):
            basis = frame[:, :m].copy()
            basis.flags.writeable = False
            object.__setattr__(point, "_basis", basis)
    return [point._basis for point in points]


def basis_from_projector(point: GrassmannPoint) -> StiefelBasis:
    """Orthonormal basis of the projector's range, the one the point keeps; not checked again."""
    return _trusted(StiefelBasis, matrix=_bases([point])[0])


def complete_frame(basis) -> np.ndarray:
    """Extend an orthonormal basis to a full n-by-n unitary.

    The complement columns are the last n - m columns of the basis's complete
    QR factor, which are orthogonal to its span; the first m columns of the
    result are the input basis unchanged.
    """
    mat = linalg.as_matrix(basis, "basis")
    return np.hstack([mat, np.linalg.qr(mat, mode="complete")[0][:, mat.shape[1]:]])


def tangent_project(point: GrassmannPoint, value) -> TangentVector:
    """Project a Hermitian matrix onto the tangent space: [P, [P, X]]."""
    mat = linalg.require_hermitian(value, "matrix")
    if mat.shape[0] != point.dim:
        raise InvalidInputError(
            f"matrix shape {mat.shape} does not match dimension {point.dim}")
    proj = point.matrix
    return TangentVector(point, commutator(proj, commutator(proj, mat)))


def metric(first: TangentVector, second: TangentVector) -> float:
    """Riemannian inner product tr(H1 H2); real for Hermitian arguments."""
    require_anchored(second, first.base)
    return float(np.einsum("ij,ji->", first.matrix, second.matrix).real)


def zero_tangent(point: GrassmannPoint) -> TangentVector:
    return TangentVector(point, np.zeros((point.dim, point.dim), dtype=complex))


def _tangent_block(frame: np.ndarray, m: int, matrix: np.ndarray) -> np.ndarray:
    """Block X1^H H X2 of a tangent matrix H in the frame [X1 X2]."""
    return frame[:, :m].conj().T @ matrix @ frame[:, m:]


def _tangent_matrix(frame: np.ndarray, m: int, block: np.ndarray) -> np.ndarray:
    """Hermitian matrix whose block in the frame [X1 X2] is [[0, B], [B^H, 0]]."""
    half = frame[:, :m] @ block @ frame[:, m:].conj().T
    return half + half.conj().T


def _geodesic(frame: np.ndarray, m: int, block: np.ndarray):
    """The frame [X1 X2] moved by the geodesic flow with velocity block D.

    With D = U S V^H, X1(t) = X1 + X1 U (cos tS - I) U^H + X2 V sin(tS) U^H
    and X2(t) = X2 - X1 U sin(tS) V^H + X2 V (cos tS - I) V^H; the moved
    frame is e^{t[H,P]} [X1 X2] for the tangent H with block D. Returns a
    function of t giving the whole moved frame [X1(t) X2(t)]. Leading axes
    are a batch, and t is a scalar or one value per batch entry.
    """
    x1, x2 = frame[..., :m], frame[..., m:]
    u, sigma, vh = np.linalg.svd(block, full_matrices=False)
    x1u, x2v, uh = x1 @ u, x2 @ vh.conj().swapaxes(-1, -2), u.conj().swapaxes(-1, -2)

    def at(t) -> np.ndarray:
        angle = np.asarray(t)[..., np.newaxis] * sigma
        bend, sine = (np.cos(angle) - 1.0)[..., np.newaxis, :], np.sin(angle)[..., np.newaxis, :]
        return np.concatenate([x1 + (x1u * bend + x2v * sine) @ uh,
                               x2 + (x2v * bend - x1u * sine) @ vh], axis=-1)

    return at


def _moved_frame(point: GrassmannPoint, velocity: TangentVector, t: float):
    """The frame of ``point`` and its image at t under the flow of ``velocity``."""
    require_anchored(velocity, point)
    if isinstance(t, bool) or not isinstance(t, Real) or not -np.inf < t < np.inf:
        raise InvalidInputError(f"geodesic parameter must be a finite real number, got {t!r}")
    m = point.rank
    frame = _frame(point.matrix, m)
    path = _geodesic(frame, m, _tangent_block(frame, m, velocity.matrix))
    return frame, path(float(t))


def geodesic(point: GrassmannPoint, velocity: TangentVector, t: float) -> GrassmannPoint:
    """Point at parameter t of the geodesic through ``point`` with ``velocity``."""
    _, moved = _moved_frame(point, velocity, t)
    return _point(moved, point.rank)


def exp(point: GrassmannPoint, velocity: TangentVector) -> GrassmannPoint:
    """Riemannian exponential: the geodesic evaluated at t = 1."""
    return geodesic(point, velocity, 1.0)


def parallel_transport(vector: TangentVector, velocity: TangentVector,
                       t: float) -> TangentVector:
    """Transport ``vector`` along the geodesic driven by ``velocity``.

    Both inputs must be anchored at the same point; the result is anchored at
    the geodesic point at parameter t. The vector keeps its block in the
    moved frame, so transport is a metric isometry.
    """
    point, m = vector.base, vector.base.rank
    frame, moved = _moved_frame(point, velocity, t)
    block = _tangent_block(frame, m, vector.matrix)
    return TangentVector(_point(moved, m), _tangent_matrix(moved, m, block))


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


def _principal_angles(frame: np.ndarray, ys: np.ndarray):
    """Principal angles between span(X) and each span(ys[i]), with overlaps and logs.

    ``ys`` is an (N, n, m) stack of orthonormal bases and ``frame`` a unitary
    frame [X X2]; leading axes of both are a batch of problems. Every caller
    (cost, distance, log and the solver) goes through this one factorization:
    one GEMM forms the overlaps Y_i^H [X X2], and one batched SVD factors
    their first m columns, Y_i^H X, as L C R^H. Returns the angles
    arccos(C), (N, m), ascending per datum; the sum over i of
    R diag(theta / sin theta) L^H Y_i^H X2, the top-right block of
    sum_i log_X(span Y_i) in the frame [X X2] (Edelman, Arias & Smith 1998);
    per problem, the worst datum whose smallest squared cosine is at most
    CUT_LOCUS_TOL, or -1; and the factored overlaps (Y_i^H [X X2], L, C, R^H).
    """
    *batch, count, n, m = ys.shape
    over = (ys.conj().swapaxes(-1, -2).reshape(*batch, count * m, n) @ frame).reshape(
        *batch, count, m, n)
    left, cos, right_h = _overlap_svd(over[..., :m])
    cos = np.minimum(cos, 1.0)
    low = cos[..., -1] ** 2
    cut = np.full(low.shape[:-1], -1)
    if low.min() <= CUT_LOCUS_TOL:  # rare: the per-problem index is built only then
        cut = np.where(low.min(-1) <= CUT_LOCUS_TOL, low.argmin(-1), -1)
    angles = np.arccos(cos)
    floored = np.maximum(angles, _TINY)  # theta / sin(theta) -> 1 at theta = 0
    right = right_h.conj().swapaxes(-1, -2) * (floored / np.sin(floored))[..., np.newaxis, :]
    coef = right @ left.conj().swapaxes(-1, -2)  # (N, m, m)
    # sum_i coef_i (Y_i^H X2) as one GEMM over the stacked (datum, column) index
    stacked = coef.swapaxes(-3, -2).reshape(*batch, m, count * m)
    return (angles, stacked @ over[..., m:].reshape(*batch, count * m, n - m), cut,
            (over, left, cos, right_h))


def principal_angles(point: GrassmannPoint, other: GrassmannPoint) -> np.ndarray:
    """The m principal angles between the two subspaces, ascending, in radians."""
    _require_same_space(point, other)
    return _principal_angles(_frame(point.matrix, point.rank), np.array(_bases([other])))[0][0]


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
    m = point.rank
    frame = _frame(point.matrix, m)
    _, block, cut, _ = _principal_angles(frame, np.array(_bases([target])))
    if cut >= 0:
        raise CutLocusError(index=int(cut))
    return TangentVector(point, _tangent_matrix(frame, m, block))
