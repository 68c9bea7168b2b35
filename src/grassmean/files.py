"""On-disk formats: the JSON subspace container and the CSV reports.

A subspace file stores a list of orthonormal bases of a common C^n, each an
n x m complex matrix written row-major with explicit {re, im} entries.
Writing and re-reading is bit-exact for finite doubles because floats are
serialized through repr. ``json`` and ``csv`` are imported on first use, so
importing the package does not load them.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from . import linalg
from .exceptions import InvalidInputError
from .grassmann import StiefelBasis, _stiefel_defects, _trusted_views

FORMAT_VERSION = "1"
KEEP_RAW_TOL = 1e-10
POLISH_TOL = 1e-8
_NUMBER = {int, float}  # the JSON number types; bool is excluded
_PARTS = itemgetter("re", "im")
_INT_LIMIT = 2 ** 1024 - 2 ** 970  # the least integer a double cannot round to


class SubspaceFileError(InvalidInputError):
    """Malformed or inconsistent subspace file."""


def _entry(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def write_subspace_file(path, bases) -> None:
    """Write finite, tall bases of one shape to ``path`` in the versioned JSON layout.

    An error names the lowest basis the reader would reject for its shape or
    entries. Orthonormality is left to the reader, whose ``repair`` fixes it.
    """
    import json

    mats = []
    for b, basis in enumerate(bases):
        mat = linalg.as_matrix(basis.matrix if isinstance(basis, StiefelBasis) else basis,
                               f"bases[{b}]")
        if mats and mat.shape != mats[0].shape or not 1 <= mat.shape[1] <= mat.shape[0]:
            raise InvalidInputError(f"bases[{b}] has shape {mat.shape}; all bases must "
                                    "share one tall n x m shape")
        mats.append(mat)
    if not mats:
        raise InvalidInputError("need at least one basis to write")
    n, m = mats[0].shape
    payload = {
        "version": FORMAT_VERSION,
        "n": n,
        "m": m,
        "count": len(mats),
        "bases": [[[_entry(value) for value in row] for row in mat] for mat in mats],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _require_int(payload: dict, key: str) -> int:
    if key not in payload:
        raise SubspaceFileError(f"missing field {key!r}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SubspaceFileError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _entry_parts(raw_bases: list, n: int, m: int):
    """The re and im of every entry in file order, or None on a structure fault. Each
    check is one pass over a whole level (bases, rows, entries, numbers), run in C."""
    if set(map(type, raw_bases)) != {list} or set(map(len, raw_bases)) != {n}:
        return None
    rows = list(chain.from_iterable(raw_bases))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {m}:
        return None
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {dict}:
        return None
    try:
        parts = list(chain.from_iterable(map(_PARTS, cells)))
    except KeyError:
        return None
    return parts if set(map(type, parts)) <= _NUMBER else None


def _locate_fault(raw_bases: list, n: int, m: int) -> None:
    """Raise the error for the first structure fault in file order, once a pass found one."""
    for b, raw_mat in enumerate(raw_bases):
        if not isinstance(raw_mat, list) or len(raw_mat) != n:
            raise SubspaceFileError(f"bases[{b}] must be a list of {n} rows")
        for r, raw_row in enumerate(raw_mat):
            if not isinstance(raw_row, list) or len(raw_row) != m:
                raise SubspaceFileError(f"bases[{b}][{r}] must be a list of {m} entries")
            for c, raw in enumerate(raw_row):
                where = f"bases[{b}][{r}][{c}]"
                if type(raw) is not dict:
                    raise SubspaceFileError(f"{where} must be an object with 're' and 'im'")
                for part in ("re", "im"):
                    if part not in raw:
                        raise SubspaceFileError(f"{where}.{part} is missing")
                    if type(raw[part]) not in _NUMBER:
                        raise SubspaceFileError(
                            f"{where}.{part} must be a number, got {raw[part]!r}")


def _polar_orthonormalize(mat: np.ndarray) -> np.ndarray:
    left, _, right_h = np.linalg.svd(mat, full_matrices=False)
    return left @ right_h


def read_subspace_file(path, repair: bool = False) -> list:
    """Read a subspace file back into a list of StiefelBasis objects.

    Bases with a defect in [KEEP_RAW_TOL, POLISH_TOL], or above it with ``repair``, get their
    polar factor. Errors go by kind (structure, an integer beyond the doubles, non-finite,
    defect) and name the lowest basis, or the first entry in file order. The bases are
    read-only views of the one checked stack and are not checked again.
    """
    import json

    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise SubspaceFileError(
                f"not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}"
            ) from err
        except ValueError as err:  # undecodable text, or an integer of too many digits
            raise SubspaceFileError(f"not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise SubspaceFileError("top-level value must be an object")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise SubspaceFileError(f"unsupported version {version!r}")
    n = _require_int(payload, "n")
    m = _require_int(payload, "m")
    count = _require_int(payload, "count")
    if not (1 <= m <= n):
        raise SubspaceFileError(f"need 1 <= m <= n, got n={n}, m={m}")
    if count < 1:
        raise SubspaceFileError("count must be positive")
    raw_bases = payload.get("bases")
    if not isinstance(raw_bases, list):
        raise SubspaceFileError("field 'bases' must be a list")
    if len(raw_bases) != count:
        raise SubspaceFileError(f"count says {count} bases, found {len(raw_bases)}")
    parts = _entry_parts(raw_bases, n, m)
    if parts is None:
        _locate_fault(raw_bases, n, m)
    try:
        stack = np.array(parts, dtype=float).view(complex).reshape(count, n, m)
    except OverflowError:  # an integer beyond the doubles: the first in file order is named
        index = next(i for i, value in enumerate(parts)
                     if type(value) is int and abs(value) >= _INT_LIMIT)
        b, r, c = np.unravel_index(index // 2, (count, n, m))
        raise SubspaceFileError(f"bases[{b}][{r}][{c}].{('re', 'im')[index % 2]} "
                                "is too large for a double") from None
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise SubspaceFileError(f"bases[{bad[0]}] contains non-finite entries")
    defects = _stiefel_defects(stack)
    for b in np.flatnonzero(defects >= KEEP_RAW_TOL):
        if defects[b] > POLISH_TOL and not repair:
            raise SubspaceFileError(f"bases[{b}] is not orthonormal (defect {defects[b]:.3g}); "
                                    "pass repair to re-orthonormalize")
        if np.linalg.matrix_rank(stack[b]) < m:
            raise SubspaceFileError(f"bases[{b}] is rank deficient; cannot repair")
        stack[b] = _polar_orthonormalize(stack[b])
    return _trusted_views(StiefelBasis, "matrix", stack)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(path, rows) -> None:
    """Write benchmark trial rows (see blindid.TrialResult) as CSV."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "sweep_param", "sweep_value",
                         "amari_karcher", "amari_euclid", "status"])
        for row in rows:
            writer.writerow([row.trial, row.sweep_param, _cell(row.sweep_value),
                             _cell(row.amari_karcher), _cell(row.amari_euclid),
                             row.status])


def write_trace_csv(path, trace) -> None:
    """Write a solver trace (karcher.CGTrace) as CSV."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "cost", "gradnorm", "stepsize"])
        for item in trace.iterates:
            writer.writerow([item.iteration, _cell(item.cost),
                             _cell(item.grad_norm), _cell(item.step_size)])
