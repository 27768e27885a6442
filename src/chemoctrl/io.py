"""The artifact codec: every CSV and JSON file, and binary level stacks.

Every CSV file goes through :func:`write_csv`: a header row, then one row
per record, each line ended by CRLF, fields quoted only where needed and
floats written as the shortest ``repr`` that round-trips; this is the
:func:`csv.writer` dialect.  Every JSON file goes through
:func:`write_json`: sorted keys, one-space indent and strict JSON, so a NaN
or an infinity raises instead of reaching the file.

A *cell table* is CSV.  It has a header row naming its columns, then one row
per grid cell (a field) or per time level and cell (a *level table*: a
control).  A row holds the integer level index (level tables only, column
``t_index``), the cell's index coordinates ``i0, i1, ...``, then its one
value, in C order.  Readers accept the rows in any order but reject a table
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


def _index_names(dims):
    return [f"i{k}" for k in range(len(dims))]


def _write_table(path, keys, values):
    """Write one row per entry of ``values``: its C-order index, then its value.

    ``keys`` names the index columns, one per axis of ``values``.
    """
    index = np.indices(values.shape).reshape(values.ndim, -1).tolist()
    write_csv(path, keys + ["value"], zip(*index, values.ravel().tolist()))


def write_cells(path, dims, values):
    """Write one row per cell of ``values`` (shape ``dims``): index, then value."""
    _write_table(path, _index_names(dims),
                 np.asarray(values, dtype=float).reshape(tuple(dims)))


def write_levels(path, dims, values):
    """Write one row per level and cell of ``values`` (shape ``(n_levels,
    *dims)``): ``t_index``, the cell's index coordinates, then the value."""
    _write_table(path, ["t_index"] + _index_names(dims),
                 np.asarray(values, dtype=float).reshape((-1, *dims)))


def _read_table(path, keys, shape):
    """Read a table written by :func:`_write_table` into an array of ``shape``.

    The ``keys`` columns are integer indices into ``shape`` and every index
    must occur exactly once; the value column holds finite floats.
    """
    header = keys + ["value"]
    dtype = [(f"k{j}", np.int64) for j in range(len(keys))] + [("value", float)]
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

    index = [table[f"k{j}"] for j in range(len(keys))]
    try:
        flat = np.ravel_multi_index(index, shape)
    except ValueError:
        outside = [(k < 0) | (k >= n) for k, n in zip(index, shape)]
        row = int(np.argmax(np.any(outside, axis=0)))
        raise CellTableError(
            f"{path}: data row {row + 1} has index {tuple(int(k[row]) for k in index)} "
            f"outside {shape}") from None
    counts = np.bincount(flat, minlength=math.prod(shape))
    if counts.max(initial=0) > 1:
        cell = np.unravel_index(int(np.argmax(counts > 1)), shape)
        raise CellTableError(
            f"{path}: duplicate rows for index {tuple(int(i) for i in cell)}")
    if not counts.all():
        cell = np.unravel_index(int(np.argmin(counts)), shape)
        raise CellTableError(
            f"{path}: {int((counts == 0).sum())} of {counts.size} rows missing, "
            f"the first for index {tuple(int(i) for i in cell)}")

    values = table["value"]
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite))
        raise CellTableError(f"{path}: data row {row + 1} has non-finite value "
                             f"{values[row]!r}")
    out = np.empty(shape)
    np.put(out, flat, values)
    return out


def read_cells(path, dims):
    """Read a table written by :func:`write_cells`; an array of shape ``dims``."""
    return _read_table(path, _index_names(dims), tuple(dims))


def read_levels(path, dims, n_levels):
    """Read a table written by :func:`write_levels` with ``n_levels`` levels."""
    return _read_table(path, ["t_index"] + _index_names(dims), (n_levels, *dims))


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
