"""The artifact codec: every CSV and JSON file, and binary level stacks.

Every CSV file goes through :func:`write_csv`: a header row, then one row
per record, each line ended by CRLF, fields quoted only where needed and
floats written as the shortest ``repr`` that round-trips; this is the
:func:`csv.writer` dialect.  Every JSON file goes through
:func:`write_json`: sorted keys, one-space indent and strict JSON, so a NaN
or an infinity raises instead of reaching the file.

Cell data has one format, the *level stack*: a ``.npy`` file (format
version 1.0) holding one little-endian float64 array in C order, of shape
``(n_levels, *dims)``, or ``dims`` for a single field.  A trajectory stores
its density, concentration and control levels and its control mask (1.0 in
the control region, 0.0 elsewhere) this way, ``optimize`` its best control
and the mask, and a config names its initial fields, desired states,
controls and control mask as such files.  :func:`load_levels` reads the
header with the public :mod:`numpy.lib.format` functions, never unpickles,
and checks dtype, order, shape, the exact file size and finiteness (and, on
request, nonnegativity) before it returns; any defect raises
:class:`LevelStackError`.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


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
