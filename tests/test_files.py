import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassmean import files
from grassmean.blindid import TrialResult
from grassmean.exceptions import InvalidInputError
from grassmean.files import (
    KEEP_RAW_TOL,
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


_REFERENCE_NUMBER = (int, float)


def reference_stack(raw_bases, n, m):
    """The reader's former per-entry loop, kept as the oracle of its passes.

    Past the loop it names the first integer beyond the doubles, in file
    order, where the loop's ``np.array`` raised an untyped OverflowError, and
    then the lowest non-finite basis, as the reader does.
    """
    parts = []  # re, im of every entry in file order
    for b, raw_mat in enumerate(raw_bases):
        if not isinstance(raw_mat, list) or len(raw_mat) != n:
            raise SubspaceFileError(f"bases[{b}] must be a list of {n} rows")
        for r, raw_row in enumerate(raw_mat):
            if not isinstance(raw_row, list) or len(raw_row) != m:
                raise SubspaceFileError(f"bases[{b}][{r}] must be a list of {m} entries")
            for c, raw in enumerate(raw_row):
                where = f"bases[{b}][{r}][{c}]"
                if (type(raw) is not dict or type(raw.get("re")) not in _REFERENCE_NUMBER
                        or type(raw.get("im")) not in _REFERENCE_NUMBER):
                    if type(raw) is not dict:
                        raise SubspaceFileError(f"{where} must be an object with 're' and 'im'")
                    for part in ("re", "im"):
                        if part not in raw:
                            raise SubspaceFileError(f"{where}.{part} is missing")
                        if type(raw[part]) not in _REFERENCE_NUMBER:
                            raise SubspaceFileError(
                                f"{where}.{part} must be a number, got {raw[part]!r}")
                parts += raw["re"], raw["im"]
    for i, value in enumerate(parts):
        try:
            float(value)
        except OverflowError:
            b, rest = divmod(i // 2, n * m)
            raise SubspaceFileError(f"bases[{b}][{rest // m}][{rest % m}]."
                                    f"{('re', 'im')[i % 2]} is too large for a double")
    stack = np.array(parts, dtype=float).view(complex).reshape(len(raw_bases), n, m)
    for b, mat in enumerate(stack):
        if not np.isfinite(mat).all():
            raise SubspaceFileError(f"bases[{b}] contains non-finite entries")
    return stack


_HUGE = int("9" * 400)  # a 400-digit integer, beyond the doubles
_BAD_VALUES = ("0", True, False, None, float("nan"), float("inf"), float("-inf"), _HUGE, -_HUGE)
_CORRUPTIONS = ("rows", "entries", "basis_type", "row_type", "entry_type", "missing", "value")


def corrupt(raw, kind, b, r, c, choice, value):
    """Apply one corruption of ``kind`` at basis b, row r, entry c, where the
    payload still has that position; ``choice`` picks among the variants, and
    a "value" corruption sets ``value``."""
    if kind == "basis_type":
        raw[b] = ({}, "basis", 1.5, None)[choice % 4]
        return
    mat = raw[b]
    if not isinstance(mat, list):
        return
    if kind == "rows":
        mat.pop() if choice % 2 and mat else mat.append(list(mat[0]) if mat else [])
        return
    if not mat or not isinstance(mat[r % len(mat)], list):
        return
    row = mat[r % len(mat)]
    if kind == "row_type":
        mat[r % len(mat)] = ({"re": 1.0}, "row", 2)[choice % 3]
    elif kind == "entries":
        row.pop() if choice % 2 and row else row.append({"re": 0.0, "im": 0.0})
    elif row:
        c %= len(row)
        if kind == "entry_type":
            row[c] = ([0.0, 0.0], 1.0, "entry", None)[choice % 4]
        elif isinstance(row[c], dict) and kind == "missing":
            row[c].pop(("re", "im")[choice % 2], None)
        elif isinstance(row[c], dict):
            row[c][("re", "im")[choice % 2]] = value


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.data())
def test_reader_passes_match_the_per_entry_loop(data):
    # valid payloads with 0-2 corruptions at random positions: the reader
    # raises the message of the former per-entry loop, lowest first in file
    # order, and an uncorrupted payload reads back bit-identical
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.integers(1, n), label="m")
    count = data.draw(st.integers(1, 20), label="count")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = np.linalg.qr(rng.standard_normal((count, n, m))
                         + 1j * rng.standard_normal((count, n, m)))[0]
    raw = [entries(mat) for mat in stack]
    faults = data.draw(st.lists(st.tuples(st.sampled_from(_CORRUPTIONS),
                                          st.integers(0, count - 1), st.integers(0, n - 1),
                                          st.integers(0, m - 1), st.integers(0, 3),
                                          st.sampled_from(_BAD_VALUES)),
                                max_size=2), label="faults")
    for fault in faults:
        corrupt(raw, *fault)
    text = json.dumps(payload_for([entries(mat) for mat in stack]) | {"bases": raw})
    try:
        expected = reference_stack(json.loads(text)["bases"], n, m)
    except SubspaceFileError as err:
        expected = str(err)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bases.json"
        path.write_text(text)
        if isinstance(expected, str):
            with pytest.raises(SubspaceFileError, match=f"^{re.escape(expected)}$"):
                read_subspace_file(path)
            return
        if (_stiefel_defects(expected) >= KEEP_RAW_TOL).any():
            # a corruption that kept the structure changed a value: the
            # orthonormality stage past the loop decides, as tested above
            assert faults
            with pytest.raises(SubspaceFileError, match=r"^bases\[\d+\] is not orthonormal"):
                read_subspace_file(path)
            return
        back = np.array([basis.matrix for basis in read_subspace_file(path)])
    assert back.tobytes() == expected.tobytes()
    if not faults:
        assert back.tobytes() == stack.tobytes()


@pytest.mark.parametrize("value", _BAD_VALUES, ids=["str", "true", "false", "null", "nan", "inf",
                                                   "-inf", "huge", "-huge"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_each_bad_value_matches_the_per_entry_loop(tmp_path, value, part):
    # every kind of bad number at a fixed place, behind a good basis and
    # ahead of one with a missing part: the same message as the former loop,
    # so a later structure fault wins over a number of the wrong size
    raws = [entries(mat) for mat in random_bases(3, 2, 3, seed=8)]
    raws[1][2][1][part] = value
    del raws[2][0][0]["im"]
    path = tmp_path / "f.json"
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError) as expected:
        reference_stack(json.loads(path.read_text())["bases"], 3, 2)
    assert re.match(r"^bases\[[12]\]", str(expected.value))
    with pytest.raises(SubspaceFileError, match=f"^{re.escape(str(expected.value))}$"):
        read_subspace_file(path)


def test_a_valid_file_never_reaches_the_fault_locator(tmp_path, monkeypatch):
    path = tmp_path / "bases.json"
    bases = random_bases(8, 1, 1000, seed=7)
    write_subspace_file(path, bases)

    def fail(*args):
        raise AssertionError("the locator ran on a valid file")

    monkeypatch.setattr(files, "_locate_fault", fail)
    back = read_subspace_file(path)
    assert np.array([b.matrix for b in back]).tobytes() == np.array(bases).tobytes()
    for basis in back[:3]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.matrix = bases[0]
    # a fault does reach it
    raw = json.loads(path.read_text())
    raw["bases"][999][7][0]["im"] = "0"
    write_payload(path, raw)
    with pytest.raises(AssertionError, match="locator ran"):
        read_subspace_file(path)


def test_read_names_the_first_integer_beyond_the_doubles(tmp_path):
    path = tmp_path / "f.json"
    raws = [entries(np.eye(2, dtype=complex)) for _ in range(4)]
    raws[0][1][1] = {"re": float("nan"), "im": 0.0}
    raws[2][1][0] = {"re": 0.0, "im": -_HUGE}
    raws[3][0][0] = {"re": _HUGE, "im": 0.0}
    write_payload(path, payload_for(raws))
    # after every structure fault, before the non-finite bases
    with pytest.raises(SubspaceFileError,
                       match=r"^bases\[2\]\[1\]\[0\]\.im is too large for a double$"):
        read_subspace_file(path)
    raws[3][1] = raws[3][1][:1]
    write_payload(path, payload_for(raws))
    with pytest.raises(SubspaceFileError, match=r"^bases\[3\]\[1\] must be a list of 2 entries$"):
        read_subspace_file(path)
    # the limit is where float() overflows; one less rounds to the largest double
    limit = 2 ** 1024 - 2 ** 970
    for value, message in ((limit, r"^bases\[0\]\[0\]\[1\]\.re is too large for a double$"),
                           (-limit, r"^bases\[0\]\[0\]\[1\]\.re is too large for a double$"),
                           (limit - 1, r"^bases\[0\] is not orthonormal \(defect inf\)")):
        raw = entries(np.eye(2, dtype=complex))
        raw[0][1] = {"re": value, "im": 0}
        write_payload(path, payload_for([raw]))
        with pytest.raises(SubspaceFileError, match=message), \
                np.errstate(over="ignore", invalid="ignore"):
            read_subspace_file(path)


def test_read_rejects_text_json_cannot_decode_typed(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload_for([entries(np.eye(2, dtype=complex))]))
                    .replace('"re": 1.0', '"re": 1' + "0" * 5000, 1))
    with pytest.raises(SubspaceFileError, match="^not valid JSON: Exceeds the limit"):
        read_subspace_file(path)
    path.write_bytes(b'{"version": "\xff"}')
    with pytest.raises(SubspaceFileError, match="^not valid JSON: 'utf-8' codec"):
        read_subspace_file(path)


def test_write_rejects_entries_that_are_not_complex_numbers(tmp_path):
    path = tmp_path / "bad.json"
    for bases in ([np.eye(2)[:, :1], [[10 ** 400], [0]]], [np.eye(2)[:, :1], [["abc"], [0]]],
                  [np.eye(2)[:, :1], [[{}], [0]], np.ones(3)]):
        with pytest.raises(InvalidInputError,
                           match=r"^bases\[1\] is not an array of complex numbers \("):
            write_subspace_file(path, bases)
        assert not path.exists()
