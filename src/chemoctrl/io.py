"""The artifact codec: every CSV and JSON file, and binary level stacks.

Every CSV file goes through :func:`write_csv`: a header row, then one row
per record, each line ended by CRLF, fields quoted only where needed and
floats written as the shortest ``repr`` that round-trips; this is the
:func:`csv.writer` dialect.  Every JSON file goes through
:func:`write_json`: sorted keys, one-space indent and strict JSON, so a NaN
or an infinity raises instead of reaching the file.

A *cell table* is CSV.  It has a header row naming its columns, then one row
per grid cell (a state or a field) or per time level and cell (a *level
table*: a control).  A row holds the integer level index (level tables only,
column ``t_index``), the cell's index coordinates ``i0, i1, ...``, then its
values, in C order.  Readers accept the rows in any order but reject a table
that does not describe every cell exactly once: wrong header, unparsable or
non-integer indices, negative or out-of-range indices, missing or duplicate
rows, and non-finite values all raise :class:`CellTableError`.  A reader
does no per-cell Python work: it parses with :func:`numpy.loadtxt` and
scatters the values by their flat index.

A *level stack* is a ``.npy`` file (format version 1.0) holding one
little-endian float64 array in C order, of shape ``(n_levels, *dims)``; a
trajectory stores its density, concentration and control levels this way.
:func:`load_levels` reads the header with the public
:mod:`numpy.lib.format` functions, never unpickles, and checks dtype, order,
shape, the exact file size and finiteness (and, on request, nonnegativity)
before it returns; any defect raises :class:`LevelStackError`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings

import numpy as np


class CellTableError(ValueError):
    """A cell table on disk is malformed or does not fit its grid."""


class LevelStackError(ValueError):
    """A level stack on disk is malformed or does not have the expected shape."""


def write_csv(path, header, rows):
    """Write the ``header`` row, then every row of ``rows``, in the CSV dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload):
    """Write ``payload`` as strict JSON with sorted keys and a one-space indent.

    A NaN or an infinity raises :class:`ValueError` before the file is opened.
    """
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)


def _header(dims, names):
    return [f"i{k}" for k in range(len(dims))] + list(names)


def _indexed_rows(shape, arrays):
    """Rows of each cell's C-order index coordinates, then its value per array."""
    index = np.indices(shape).reshape(len(shape), -1).tolist()
    values = [np.asarray(a, dtype=float).ravel().tolist() for a in arrays]
    return zip(*index, *values)


def write_cells(path, dims, columns):
    """Write one row per cell: index coordinates, then each column's value.

    ``columns`` maps column names to arrays of shape ``dims``, in order.
    """
    dims = tuple(dims)
    write_csv(path, _header(dims, columns), _indexed_rows(dims, columns.values()))


def write_levels(path, dims, values):
    """Write one row per level and cell: ``t_index``, index coordinates, value.

    ``values`` has shape ``(n_levels, *dims)``.
    """
    dims = tuple(dims)
    values = np.asarray(values, dtype=float).reshape((-1,) + dims)
    write_csv(path, ["t_index"] + _header(dims, ["value"]),
              _indexed_rows(values.shape, [values]))


def _read_table(path, header, key_dims):
    """Parse a table; return each row's flat C-order key and the value columns.

    The leading ``len(key_dims)`` columns are integer keys into ``key_dims``
    and every key must occur exactly once; the other columns are finite
    floats.
    """
    n_keys = len(key_dims)
    dtype = [(f"k{j}", np.int64) for j in range(n_keys)] \
        + [(f"c{j}", float) for j in range(len(header) - n_keys)]
    with open(path, newline="") as fh:
        found = fh.readline().rstrip("\r\n").split(",")
        if found != header:
            raise CellTableError(
                f"{path}: header {','.join(found)!r}, expected {','.join(header)!r}")
        try:
            with warnings.catch_warnings():
                # a table without rows is reported below as missing every cell
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None,
                                   ndmin=1)
        except ValueError as err:
            raise CellTableError(f"{path}: {err}") from err

    keys = [table[f"k{j}"] for j in range(n_keys)]
    try:
        flat = np.ravel_multi_index(keys, key_dims)
    except ValueError:
        outside = [(k < 0) | (k >= n) for k, n in zip(keys, key_dims)]
        row = int(np.argmax(np.any(outside, axis=0)))
        raise CellTableError(
            f"{path}: data row {row + 1} has index {tuple(int(k[row]) for k in keys)} "
            f"outside {tuple(key_dims)}") from None
    counts = np.bincount(flat, minlength=math.prod(key_dims))
    if counts.max(initial=0) > 1:
        cell = np.unravel_index(int(np.argmax(counts > 1)), key_dims)
        raise CellTableError(
            f"{path}: duplicate rows for index {tuple(int(i) for i in cell)}")
    if not counts.all():
        cell = np.unravel_index(int(np.argmin(counts)), key_dims)
        raise CellTableError(
            f"{path}: {int((counts == 0).sum())} of {counts.size} rows missing, "
            f"the first for index {tuple(int(i) for i in cell)}")

    columns = [table[f"c{j}"] for j in range(len(header) - n_keys)]
    for name, col in zip(header[n_keys:], columns):
        finite = np.isfinite(col)
        if not finite.all():
            row = int(np.argmin(finite))
            raise CellTableError(f"{path}: data row {row + 1} has non-finite {name} "
                                 f"{col[row]!r}")
    return flat, columns


def read_cells(path, dims, names):
    """Read a table written by :func:`write_cells`; one array per named column."""
    dims = tuple(dims)
    flat, columns = _read_table(path, _header(dims, names), dims)
    out = [np.empty(dims) for _ in names]
    for dst, col in zip(out, columns):
        np.put(dst, flat, col)
    return out


def read_levels(path, dims, n_levels):
    """Read a table written by :func:`write_levels` with ``n_levels`` levels."""
    dims = tuple(dims)
    flat, (col,) = _read_table(path, ["t_index"] + _header(dims, ["value"]),
                               (n_levels,) + dims)
    out = np.empty((n_levels,) + dims)
    np.put(out, flat, col)
    return out


_STACK_DTYPE = np.dtype("<f8")
_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}


def save_levels(path, values):
    """Write ``values`` as a level stack: a version-1.0 ``.npy`` of ``<f8``.

    The bytes are those of :func:`numpy.save` on the float64 array.
    """
    values = np.ascontiguousarray(values, dtype=_STACK_DTYPE)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, values, version=(1, 0), allow_pickle=False)


def load_levels(path, shape, nonnegative=False):
    """Read a level stack that must hold a ``<f8`` C-order array of ``shape``.

    The file must end right after the data, every value must be finite and,
    with ``nonnegative``, none may be below zero.
    """
    shape = tuple(shape)
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _HEADER_READERS:
                raise ValueError(f"npy format version {version[0]}.{version[1]} "
                                 "is not 1.0 or 2.0")
            found, fortran_order, dtype = _HEADER_READERS[version](fh)
        except ValueError as err:
            raise LevelStackError(f"{path}: {err}") from None
        if dtype != _STACK_DTYPE or fortran_order or found != shape:
            raise LevelStackError(
                f"{path}: holds {dtype.str} of shape {found}"
                f"{' in Fortran order' if fortran_order else ''}, expected "
                f"{_STACK_DTYPE.str} of shape {shape} in C order")
        expected = fh.tell() + math.prod(shape) * _STACK_DTYPE.itemsize
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise LevelStackError(f"{path}: {size} bytes, expected {expected}")
        values = np.empty(shape, dtype=_STACK_DTYPE)
        fh.readinto(memoryview(values).cast("B"))
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.unravel_index(int(np.argmin(finite)), shape)
        raise LevelStackError(f"{path}: non-finite value {float(values[bad])!r} at "
                              f"{tuple(int(i) for i in bad)}")
    if nonnegative and values.min(initial=0.0) < 0:
        bad = np.unravel_index(int(np.argmin(values)), shape)
        raise LevelStackError(f"{path}: negative value {float(values[bad])!r} at "
                              f"{tuple(int(i) for i in bad)}")
    return values
