import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassmean.blindid import TrialResult
from grassmean.exceptions import InvalidInputError
from grassmean.files import (
    POLISH_TOL,
    SubspaceFileError,
    read_subspace_file,
    write_results_csv,
    write_subspace_file,
    write_trace_csv,
)
from grassmean.grassmann import StiefelBasis, _stiefel_defects
from grassmean.karcher import CGIterate, CGTrace
from conftest import random_point


def random_bases(n, m, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        q, _ = np.linalg.qr(a)
        out.append(q)
    return out


def test_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "bases.json"
    bases = random_bases(5, 2, 4, seed=0)
    write_subspace_file(path, bases)
    back = read_subspace_file(path)
    assert len(back) == 4
    for orig, loaded in zip(bases, back):
        assert isinstance(loaded, StiefelBasis)
        np.testing.assert_array_equal(loaded.matrix, orig)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_reader_check_matches_the_per_basis_check(data):
    # the reader's one batched check keeps a basis's bits exactly when
    # StiefelBasis accepts it, polishes the others into bases StiefelBasis
    # accepts, and names the lowest basis beyond polishing
    n = data.draw(st.integers(1, 12), label="n")
    m = data.draw(st.integers(1, n), label="m")
    count = data.draw(st.integers(1, 50), label="count")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = np.linalg.qr(rng.standard_normal((count, n, m))
                         + 1j * rng.standard_normal((count, n, m)))[0]
    faults = data.draw(st.lists(st.tuples(st.integers(0, count - 1), st.floats(-13.0, -7.0)),
                                max_size=4), label="faults")
    for b, exponent in faults:
        stack[b, :, rng.integers(m)] *= 1.0 + 10.0 ** exponent
    accepted = []
    for mat in stack:
        try:
            StiefelBasis(mat)
            accepted.append(True)
        except InvalidInputError:
            accepted.append(False)
    beyond = [b for b in range(count) if _stiefel_defects(stack[b]) > POLISH_TOL]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bases.json"
        write_subspace_file(path, stack)
        if beyond:
            with pytest.raises(SubspaceFileError,
                               match=rf"^bases\[{beyond[0]}\] is not orthonormal"):
                read_subspace_file(path)
        bases = read_subspace_file(path, repair=bool(beyond))
    assert len(bases) == count
    for basis, mat, keep in zip(bases, stack, accepted):
        assert isinstance(basis, StiefelBasis) and (basis.dim, basis.rank) == (n, m)
        assert not basis.matrix.flags.writeable
        assert (basis.matrix.tobytes() == mat.tobytes()) == keep
        StiefelBasis(basis.matrix)


def test_write_accepts_stiefel_objects(tmp_path):
    path = tmp_path / "bases.json"
    point = random_point(4, 2, np.random.default_rng(1))
    from grassmean.grassmann import basis_from_projector

    basis = basis_from_projector(point)
    write_subspace_file(path, [basis])
    back = read_subspace_file(path)
    np.testing.assert_array_equal(back[0].matrix, basis.matrix)


def test_write_rejects_empty_and_ragged(tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(InvalidInputError):
        write_subspace_file(path, [])
    with pytest.raises(InvalidInputError):
        write_subspace_file(path, [np.eye(3)[:, :2], np.eye(4)[:, :2]])
    # what the reader would reject is not written: a non-finite entry (JSON
    # has no NaN), a 1-D array and a wide matrix, named by the lowest basis
    nan = np.eye(3)[:, :1].copy()
    nan[1, 0] = np.nan
    for bases, name in (([np.eye(3)[:, :1], nan, nan], "bases[1]"),
                        ([np.eye(3)[:, :1], np.ones(3)], "bases[1]"),
                        ([np.ones((1, 2))], "bases[0]"),
                        ([np.eye(2)[:, :1], np.full((2, 1), np.inf)], "bases[1]")):
        with pytest.raises(InvalidInputError, match=re.escape(name)):
            write_subspace_file(path, bases)
        assert not path.exists()


def test_roundtrip_of_a_thousand_bases_is_bit_exact(tmp_path):
    # the size of the cli-file-mean benchmark file: 1000 lines in C^8
    path = tmp_path / "bases.json"
    bases = random_bases(8, 1, 1000, seed=5)
    write_subspace_file(path, bases)
    back = read_subspace_file(path)
    assert len(back) == 1000
    for orig, loaded in zip(bases, back):
        assert isinstance(loaded, StiefelBasis)
        assert loaded.matrix.tobytes() == orig.tobytes()


def test_read_validates_each_basis_once(tmp_path, monkeypatch):
    # the reader checks the whole stack in one batch; no basis is built one
    # at a time through the validating constructor
    path = tmp_path / "bases.json"
    write_subspace_file(path, random_bases(4, 2, 200, seed=6))
    built = []
    original = StiefelBasis.__post_init__
    monkeypatch.setattr(StiefelBasis, "__post_init__",
                        lambda self: built.append(1) or original(self))
    back = read_subspace_file(path)
    assert len(back) == 200 and not built
    for basis in back:
        assert isinstance(basis, StiefelBasis) and not basis.matrix.flags.writeable


def test_read_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "1",')
    with pytest.raises(SubspaceFileError, match="not valid JSON"):
        read_subspace_file(path)
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(SubspaceFileError, match="top-level"):
        read_subspace_file(path)


def payload_for(bases):
    return {
        "version": "1",
        "n": len(bases[0]),
        "m": len(bases[0][0]),
        "count": len(bases),
        "bases": bases,
    }


def entries(mat):
    return [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in mat]


def write_payload(path, payload):
    path.write_text(json.dumps(payload))


def test_read_validates_header_fields(tmp_path):
    path = tmp_path / "f.json"
    good = payload_for([entries(np.eye(2, dtype=complex))])

    bad = dict(good, version="2")
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="version"):
        read_subspace_file(path)

    bad = dict(good)
    del bad["n"]
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="missing field 'n'"):
        read_subspace_file(path)

    # booleans are ints in python; the format refuses them anyway
    bad = dict(good, m=True)
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="must be an integer"):
        read_subspace_file(path)

    bad = dict(good, m=3)
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="1 <= m <= n"):
        read_subspace_file(path)

    bad = dict(good, count=2)
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="count says 2"):
        read_subspace_file(path)

    bad = dict(good, count=0)
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="count must be positive"):
        read_subspace_file(path)

    bad = dict(good, bases={"0": good["bases"][0]})
    write_payload(path, bad)
    with pytest.raises(SubspaceFileError, match="'bases' must be a list"):
        read_subspace_file(path)


def test_read_validates_entries(tmp_path):
    path = tmp_path / "f.json"
    raw = entries(np.eye(2, dtype=complex))
    raw[0][1] = {"re": 0.0}
    write_payload(path, payload_for([raw]))
    with pytest.raises(SubspaceFileError, match="im is missing"):
        read_subspace_file(path)

    raw = entries(np.eye(2, dtype=complex))
    raw[1][0] = {"re": "0", "im": 0.0}
    write_payload(path, payload_for([raw]))
    with pytest.raises(SubspaceFileError, match="must be a number"):
        read_subspace_file(path)

    raw = entries(np.eye(2, dtype=complex))
    payload = payload_for([raw])
    raw[0] = raw[0][:1]
    write_payload(path, payload)
    with pytest.raises(SubspaceFileError, match="list of 2 entries"):
        read_subspace_file(path)

    # with several bad bases the lowest is named, with the full entry location
    raws = [entries(np.eye(2, dtype=complex)) for _ in range(4)]
    raws[1][0][1] = {"re": "0", "im": 0.0}
    raws[3][0][0] = {"re": 1.0, "im": None}
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError,
                       match=r"^bases\[1\]\[0\]\[1\]\.re must be a number, got '0'$"):
        read_subspace_file(path)
    raws[1][0][1] = {"im": 0.0}
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError, match=r"^bases\[1\]\[0\]\[1\]\.re is missing$"):
        read_subspace_file(path)
    raws[1][0][1] = [0.0, 0.0]
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError,
                       match=r"^bases\[1\]\[0\]\[1\] must be an object with 're' and 'im'$"):
        read_subspace_file(path)
    raws[1][0][1] = {"re": 0.0, "im": True}
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError,
                       match=r"^bases\[1\]\[0\]\[1\]\.im must be a number, got True$"):
        read_subspace_file(path)
    raws[1][0][1] = {"re": 0.0, "im": 0.0}
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError, match=r"^bases\[3\]\[0\]\[0\]\.im must be a number"):
        read_subspace_file(path)

    # structure faults are reported before non-finite entries and
    # orthonormality, whatever their positions
    raws = [entries(np.eye(2, dtype=complex)) for _ in range(3)]
    raws[0][0][0] = {"re": float("nan"), "im": 0.0}
    raws[1][1][1] = {"re": 3.0, "im": 0.0}
    raws[2] = raws[2][:1]
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError, match=r"^bases\[2\] must be a list of 2 rows$"):
        read_subspace_file(path)


def test_read_rejects_non_finite(tmp_path):
    path = tmp_path / "f.json"
    raw = entries(np.eye(2, dtype=complex))
    raw[0][0] = {"re": float("nan"), "im": 0.0}
    write_payload(path, payload_for([raw]))
    with pytest.raises(SubspaceFileError, match="non-finite"):
        read_subspace_file(path)

    # the lowest non-finite basis is named, ahead of an earlier defect
    raws = [entries(np.eye(2, dtype=complex)) for _ in range(4)]
    raws[0][1][1] = {"re": 3.0, "im": 0.0}
    raws[2][1][0] = {"re": 0.0, "im": float("inf")}
    raws[3][0][1] = {"re": float("-inf"), "im": 0.0}
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError, match=r"^bases\[2\] contains non-finite entries$"):
        read_subspace_file(path)


def test_orthonormality_defect_ladder(tmp_path):
    path = tmp_path / "f.json"
    q = random_bases(4, 2, 1, seed=2)[0]

    # tiny defect: kept verbatim
    nudged = q + 1e-12 * np.ones_like(q)
    write_payload(path, payload_for([entries(nudged)]))
    np.testing.assert_array_equal(read_subspace_file(path)[0].matrix, nudged)

    # moderate defect: silently polished back onto the Stiefel manifold
    nudged = q + 1e-9 * np.ones_like(q)
    write_payload(path, payload_for([entries(nudged)]))
    polished = read_subspace_file(path)[0].matrix
    assert np.linalg.norm(polished.conj().T @ polished - np.eye(2)) < 1e-12
    assert np.linalg.norm(polished - nudged) < 1e-8

    # large defect: rejected unless repair is requested
    skewed = q * np.array([1.0, 1.5])
    write_payload(path, payload_for([entries(skewed)]))
    with pytest.raises(SubspaceFileError, match="pass repair"):
        read_subspace_file(path)
    repaired = read_subspace_file(path, repair=True)[0].matrix
    assert np.linalg.norm(repaired.conj().T @ repaired - np.eye(2)) < 1e-12

    # rank-deficient input cannot be repaired at all
    flat = np.zeros((4, 2), dtype=complex)
    flat[:, 0] = q[:, 0]
    flat[:, 1] = q[:, 0]
    write_payload(path, payload_for([entries(flat)]))
    with pytest.raises(SubspaceFileError, match="rank deficient"):
        read_subspace_file(path, repair=True)

    # several bad bases: the lowest is named, and repair polishes only the
    # flagged bases, leaving every other basis bit-identical
    good = random_bases(4, 2, 3, seed=3)
    mats = [good[0], skewed, good[1], q + 1e-9 * np.ones_like(q), 2.0 * q, good[2]]
    write_payload(path, payload_for([entries(mat) for mat in mats]))
    with pytest.raises(SubspaceFileError, match=r"^bases\[1\] is not orthonormal"):
        read_subspace_file(path)
    back = [b.matrix for b in read_subspace_file(path, repair=True)]
    for k in (0, 2, 5):
        assert back[k].tobytes() == mats[k].tobytes()
    for k in (1, 3, 4):
        assert np.linalg.norm(back[k].conj().T @ back[k] - np.eye(2)) < 1e-12
        assert back[k].tobytes() != mats[k].tobytes()
    np.testing.assert_allclose(back[4], q, rtol=0, atol=1e-14)  # the polar factor of 2q
    write_payload(path, payload_for([entries(mat) for mat in mats[:4] + [flat, flat]]))
    with pytest.raises(SubspaceFileError, match=r"^bases\[4\] is rank deficient"):
        read_subspace_file(path, repair=True)


def test_results_csv_layout(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        TrialResult(0, "noise_level", 0.5, 0.125, 0.25, "ok"),
        TrialResult(1, "noise_level", 0.5, None, None, "cut_locus"),
    ]
    write_results_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,sweep_param,sweep_value,amari_karcher,amari_euclid,status"
    assert lines[1] == "0,noise_level,0.5,0.125,0.25,ok"
    assert lines[2] == "1,noise_level,0.5,,,cut_locus"


def test_trace_csv_layout(tmp_path):
    path = tmp_path / "trace.csv"
    trace = CGTrace(iterates=[
        CGIterate(0, 1.5, 0.25, 0.0, "hs", False),
        CGIterate(1, 0.5, 1e-9, 0.125, "hs", True),
    ], status="converged")
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,cost,gradnorm,stepsize"
    assert lines[1] == "0,1.5,0.25,0.0"
    assert lines[2] == "1,0.5,1e-09,0.125"
