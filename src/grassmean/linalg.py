"""Input checks for dense complex matrices.

``as_matrix`` turns a caller's value into a finite two-dimensional complex
array, and ``require_hermitian`` returns the exactly Hermitian part of a
near-Hermitian square one; the public API checks its array arguments through
them. ``require_skew_hermitian``, ``hermitian_eig`` and ``expm_skew`` have no
caller in the package; the benchmark's layer table still looks the last two
up by name. Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError

HERMITIAN_TOL = 1e-12


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting NaN/Inf entries."""
    try:
        mat = np.asarray(value, dtype=complex)
    except (OverflowError, TypeError, ValueError) as err:  # e.g. 10**400, "abc", {}, ragged
        raise InvalidInputError(f"{name} is not an array of complex numbers ({err})") from None
    if mat.ndim != 2:
        raise InvalidInputError(f"{name} must be two-dimensional, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return mat


def require_hermitian(value, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the exactly Hermitian part of ``value``.

    The skew part may not exceed ``tol`` relative to the matrix norm.
    """
    mat = as_matrix(value, name)
    if mat.shape[0] != mat.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {mat.shape}")
    skew = np.linalg.norm(mat - mat.conj().T)
    if skew > tol * max(1.0, np.linalg.norm(mat)):
        raise InvalidInputError(f"{name} is not Hermitian (asymmetry {skew:.3e})")
    return 0.5 * (mat + mat.conj().T)


def require_skew_hermitian(value, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the exactly skew-Hermitian part of ``value``."""
    mat = as_matrix(value, name)
    if mat.shape[0] != mat.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {mat.shape}")
    sym = np.linalg.norm(mat + mat.conj().T)
    if sym > tol * max(1.0, np.linalg.norm(mat)):
        raise InvalidInputError(f"{name} is not skew-Hermitian (symmetric part {sym:.3e})")
    return 0.5 * (mat - mat.conj().T)


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and a unitary of matching eigenvectors."""
    mat = require_hermitian(matrix)
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def expm_skew(omega, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian matrix via the spectral route.

    Diagonalizing the Hermitian matrix ``-1j * omega`` and exponentiating its
    spectrum on the unit circle keeps the result unitary by construction.
    """
    om = require_skew_hermitian(omega, "omega", tol)
    vals, vecs = np.linalg.eigh(-1j * om)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T
