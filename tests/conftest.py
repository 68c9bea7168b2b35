"""Shared random-geometry helpers for the test suite.

All tests draw from explicitly seeded generators so failures replay exactly.
"""

import numpy as np

from grassmean.grassmann import GrassmannPoint, StiefelBasis, exp, tangent_project


def commutator(a, b):
    return a @ b - b @ a


def complete_frame(basis):
    """Extend an orthonormal basis to a full n-by-n unitary.

    The complement columns are the last n - m columns of the basis's complete
    QR factor, which are orthogonal to its span; the first m columns of the
    result are the input basis unchanged.
    """
    mat = np.asarray(basis, dtype=complex)
    return np.hstack([mat, np.linalg.qr(mat, mode="complete")[0][:, mat.shape[1]:]])


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    # fix the QR phase ambiguity so the result is Haar distributed
    return q * (d / np.abs(d)).conj()


def random_point(n, m, rng):
    u = random_unitary(n, rng)
    x = u[:, :m]
    return GrassmannPoint(x @ x.conj().T, m)


def random_tangent(point, rng, norm=None):
    n = point.dim
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    xi = tangent_project(point, z + z.conj().T)
    if norm is not None:
        xi = xi * (norm / xi.norm())
    return xi


def random_cloud(n, m, count, radius, rng):
    """A center plus ``count`` points inside its geodesic ball."""
    center = random_point(n, m, rng)
    points = tuple(
        exp(center, random_tangent(center, rng, rng.uniform(0.2, 1.0) * radius))
        for _ in range(count))
    return center, points


def basis_cloud(n, m, count, radius, rng, frame=None):
    """``count`` bases at geodesic distance 0.2..1 x ``radius`` from the span
    of the first m columns of the unitary ``frame`` (random when omitted),
    built as one batched stack with no projector round trip.

    Distances are in the projector metric, sqrt(2) times the norm of the
    principal angles, as in ``random_cloud``.
    """
    if frame is None:
        frame = random_unitary(n, rng)
    x1, x2 = frame[:, :m], frame[:, m:]
    shape = (count, n - m, m)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    angle_norms = rng.uniform(0.2, 1.0, count) * radius / np.sqrt(2.0)
    blocks *= (angle_norms / np.linalg.norm(blocks, axis=(1, 2)))[:, None, None]
    # the geodesic from span(x1) along X2 B reaches X1 V cos(S) + U sin(S)
    u, s, vh = np.linalg.svd(x2 @ blocks, full_matrices=False)
    ends = (x1 @ vh.conj().transpose(0, 2, 1)) * np.cos(s)[:, None, :] \
        + u * np.sin(s)[:, None, :]
    return tuple(StiefelBasis(end) for end in ends)
