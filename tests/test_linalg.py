import numpy as np
import pytest
import scipy.linalg

from grassmean import linalg
from grassmean.exceptions import InvalidInputError


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(InvalidInputError):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        linalg.as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_require_hermitian_symmetrizes_and_rejects():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = a + a.conj().T
    out = linalg.require_hermitian(herm + 1e-14 * rng.standard_normal((4, 4)))
    assert np.linalg.norm(out - out.conj().T) == 0.0
    with pytest.raises(InvalidInputError):
        linalg.require_hermitian(a)  # generic matrix is far from Hermitian
    with pytest.raises(InvalidInputError):
        linalg.require_hermitian(np.ones((2, 3)))


def test_require_skew_hermitian():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    skew = a - a.conj().T
    out = linalg.require_skew_hermitian(skew)
    assert np.linalg.norm(out + out.conj().T) == 0.0
    with pytest.raises(InvalidInputError):
        linalg.require_skew_hermitian(a + a.conj().T + np.eye(5))


def test_hermitian_eig_descending_reconstruction():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    herm = a + a.conj().T
    vals, vecs = linalg.hermitian_eig(herm)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, herm,
                               atol=1e-12)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)


def test_expm_skew_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = a - a.conj().T
        ours = linalg.expm_skew(omega)
        ref = scipy.linalg.expm(omega)
        assert np.linalg.norm(ours - ref) < 1e-12 * max(1.0, np.linalg.norm(ref))
        # unitary by construction
        assert np.linalg.norm(ours @ ours.conj().T - np.eye(n)) < 1e-13


def test_expm_skew_rejects_non_skew():
    with pytest.raises(InvalidInputError):
        linalg.expm_skew(np.eye(3))


def test_as_matrix_names_entries_numpy_cannot_convert():
    for value in ([[10 ** 400]], [["abc"]], [[{}]], [[1.0], [1.0, 0.0]]):
        with pytest.raises(InvalidInputError, match=r"^omega is not an array of complex numbers"):
            linalg.as_matrix(value, "omega")
