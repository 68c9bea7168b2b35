"""The complex Grassmannian realized as rank-m Hermitian projectors.

A point reads as an n-by-n Hermitian projector P with trace m; a tangent vector
at P as a Hermitian H with [P, [P, H]] = H. In this picture geodesics, parallel
transport and the exponential map are all unitary conjugation flows
e^{t[H,P]} (.) e^{-t[H,P]}. They are computed as in the Karcher solver, on an
orthonormal n-by-m basis X of P, which a point keeps: the one the package
built it from, or, for a caller's projector, its top eigenvectors, found once
on first use. A tangent keeps its horizontal D = H X (X^H D = 0, and
H = X D^H + D X^H), and the flow moves X and carries D in closed form (Edelman,
Arias & Smith 1998, section 2.5). The logarithm and geodesic distance come from
principal angles, which one batched kernel computes from a basis of each. No
operation forms an n-by-n matrix: a built object forms ``matrix`` when read.
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
    """An m-dimensional subspace of C^n, read as its orthogonal projector.

    A caller's matrix is validated on construction: Hermitian, idempotent to
    PROJECTOR_TOL in Frobenius norm, trace within TRACE_TOL of the rank, kept
    as a read-only copy. A built point forms it from its basis on first read.
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

    def __getattr__(self, name):  # runs only for an unset attribute; the formula is _point's
        return _formed(self, name, "_basis", lambda basis: _lift(basis, 0.5 * basis))

    @property
    def dim(self) -> int:
        return len(self.matrix if self._basis is None else self._basis)

    def __repr__(self):
        return f"GrassmannPoint(n={self.dim}, m={self.rank})"


def _formed(obj, name: str, kept: str, form) -> np.ndarray:
    """An unset ``matrix``, kept read-only as ``form`` of ``kept``; else AttributeError."""
    if name != "matrix" or kept not in vars(obj):
        raise AttributeError(f"{type(obj).__name__!r} object has no attribute {name!r}")
    matrix = form(vars(obj)[kept])
    matrix.flags.writeable = False
    return vars(obj).setdefault("matrix", matrix)


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
    """Tangent vector at a point, read as a Hermitian H with [P, [P, H]] = H and held as
    D = H X at the point's kept basis X: a caller's H = X D^H + D X^H is checked on X and
    kept, and a package-built tangent forms it on first read.

    +, - and real scalar * act on D, among vectors anchored at the same base point.
    """

    base: GrassmannPoint
    matrix: np.ndarray

    def __post_init__(self):
        mat = linalg.require_hermitian(self.matrix, "tangent vector")
        (basis,) = _bases([self.base])
        if mat.shape[0] != len(basis):
            raise InvalidInputError(
                f"tangent shape {mat.shape} does not match base dimension {len(basis)}")
        tangent = _horizontal(mat, basis)
        defect = np.linalg.norm(mat - _lift(basis, tangent))
        if defect >= TANGENT_TOL * max(1.0, np.linalg.norm(mat)):
            raise InvalidInputError(f"matrix is not tangent at the base point (defect {defect:.3e})")
        mat.setflags(write=False)
        tangent.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_d", tangent)

    def __getattr__(self, name):  # runs only for an attribute that is not set
        return _formed(self, name, "_d", lambda tangent: _lift(_bases([self.base])[0], tangent))

    def norm(self) -> float:
        """Metric norm sqrt(2 Re<D, D>), the Frobenius norm of H."""
        return float(np.sqrt(_metric(self._d, self._d)))

    def _at_base(self, tangent: np.ndarray) -> TangentVector:
        if not np.all(np.isfinite(tangent)):  # an overflow or a non-finite factor, as H's check
            raise InvalidInputError("tangent vector contains non-finite entries")
        return _trusted(TangentVector, base=self.base, _d=tangent)

    def __neg__(self):
        return _trusted(TangentVector, base=self.base, _d=-self._d)

    def __add__(self, other):
        return self._at_base(self._d + require_anchored(other, self.base))

    def __sub__(self, other):
        return self._at_base(self._d - require_anchored(other, self.base))

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            return NotImplemented
        return self._at_base(float(scalar) * self._d)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TangentVector(n={self.base.dim}, m={self.base.rank}, norm={self.norm():.3e})"


def require_anchored(vector: TangentVector, point: GrassmannPoint) -> np.ndarray:
    """The D of ``vector`` at the kept basis X2 of ``point``, to which its base X1 must be
    within BASE_MATCH_TOL in |P1 - P2|_F = sqrt(2) |X2 - X1 X1^H X2|_F: D1 X1^H X2 off X2."""
    _require(TangentVector, [vector])
    if vector.base is point:
        return vector._d
    _require_same_space(vector.base, point)
    first, second = _bases([vector.base, point])
    overlap = first.conj().T @ second
    gap = np.sqrt(2.0) * np.linalg.norm(second - first @ overlap)
    if gap > BASE_MATCH_TOL:
        raise InvalidInputError(f"tangent vector is not anchored at the point (gap {gap:.3e})")
    tangent = vector._d @ overlap
    return tangent - second @ (second.conj().T @ tangent)


def _require(kind: type, values) -> None:
    """Reject anything among ``values`` but a ``kind``, naming its type."""
    for stray in set(map(type, values)):
        if not issubclass(stray, kind):
            raise InvalidInputError(f"expected a {kind.__name__}, got {stray.__name__}")


def _require_same_space(first: GrassmannPoint, second: GrassmannPoint) -> None:
    _require(GrassmannPoint, [first, second])
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
    """The span of an orthonormal ``basis`` X as a point that holds a copy of it, not checked; its
    projector X (X/2)^H + (X/2) X^H, formed when read, has the bits of 0.5 (P + P^H), P = X X^H."""
    basis = basis.copy()  # owned, so the point holds on to no larger array
    return _trusted(GrassmannPoint, rank=basis.shape[1], _basis=basis)


def _bases(points) -> list:
    """The kept basis of each of ``points``, which share one rank m.

    Points without one, projectors the caller built, get their top m
    eigenvectors, in descending order, from one batched ``eigh``, and keep
    them. A projector with fewer than m eigenvalues near 1 is rejected, as is a non-point.
    """
    _require(GrassmannPoint, points)
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
    return _trusted(TangentVector, base=point, _d=_horizontal(mat, basis))


def _metric(first: np.ndarray, second: np.ndarray):
    """Inner product tr(H1 H2) = 2 Re<D1, D2> of horizontal tangents, per leading index."""
    flat = first.shape[:-2] + (-1,)
    return np.vecdot(first.reshape(flat), second.reshape(flat)).real * 2.0


def metric(first: TangentVector, second: TangentVector) -> float:
    """Riemannian inner product tr(H1 H2) = 2 Re<D1, D2>."""
    _require(TangentVector, [first])
    return float(_metric(first._d, require_anchored(second, first.base)))


def zero_tangent(point: GrassmannPoint) -> TangentVector:
    _require(GrassmannPoint, [point])
    return _trusted(TangentVector, base=point, _d=np.zeros((point.dim, point.rank), dtype=complex))


def _horizontal(matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The horizontal D = H X - X X^H H X of a caller's Hermitian H at span X = span ``basis``:
    a tangent part X D^H + D X^H is [P, [P, H]], and a vertical part must move nothing."""
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
    """The image at t of the kept basis of ``point`` along ``velocity``, and the transport."""
    tangent = require_anchored(velocity, point)
    if isinstance(t, bool) or not isinstance(t, Real) or not -np.inf < t < np.inf:
        raise InvalidInputError(f"geodesic parameter must be a finite real number, got {t!r}")
    return _geodesic(_bases([point])[0], tangent)(float(t))


def geodesic(point: GrassmannPoint, velocity: TangentVector, t: float) -> GrassmannPoint:
    """Point at parameter t of the geodesic through ``point`` with ``velocity``."""
    return _point(_flow(point, velocity, t)[0])


def exp(point: GrassmannPoint, velocity: TangentVector) -> GrassmannPoint:
    """Riemannian exponential: the geodesic evaluated at t = 1."""
    return geodesic(point, velocity, 1.0)


def parallel_transport(vector: TangentVector, velocity: TangentVector,
                       t: float) -> TangentVector:
    """Transport ``vector`` along the geodesic driven by ``velocity``.

    Both inputs must be anchored at the same point; the result is anchored at
    the geodesic point at parameter t. Transport is a metric isometry.
    """
    _require(TangentVector, [vector])
    moved, carry = _flow(vector.base, velocity, t)
    return _trusted(TangentVector, base=_point(moved), _d=carry(vector._d))


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
    return _trusted(TangentVector, base=point, _d=tangent)
