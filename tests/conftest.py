import sys

import numpy as np
import pytest
import scipy.sparse as sp


# level-stack defects standing in for the CSV cell-table defects their ids
# name, so the tests moved from cell tables to level stacks keep their ids
TABLE_DEFECT_STAND_INS = [
    pytest.param("level missing", id="missing row"),
    pytest.param("level extra", id="duplicate row"),
    pytest.param("bad magic", id="negative index"),
    pytest.param("transposed", id="index out of range"),
    pytest.param("float32", id="non-integer index"),
    pytest.param("nan", id="non-finite value"),
    pytest.param("inf", id="infinite value"),
    pytest.param("version 3.0", id="wrong header"),
    pytest.param("truncated", id="short row"),
]


def corrupt_stack(path, kind):
    """Rewrite a level stack (.npy) with one defect of ``kind``."""
    data = path.read_bytes()
    if kind in ("bad magic", "truncated", "trailing byte"):
        path.write_bytes({"bad magic": data.replace(b"\x93NUMPY", b"\x93NUMPZ", 1),
                          "truncated": data[:-1],
                          "trailing byte": data + b"\0"}[kind])
        return
    a = np.load(path, allow_pickle=False)
    if kind == "float32":
        a = a.astype("<f4")
    elif kind == "big-endian":
        a = a.astype(">f8")
    elif kind == "object":
        a = a.astype(object)
    elif kind == "fortran order":
        a = np.asfortranarray(a)
    elif kind == "level missing":
        a = a[:-1]
    elif kind == "level extra":
        a = np.concatenate([a, a[-1:]])
    elif kind == "transposed":
        a = np.ascontiguousarray(a.T)
    elif kind in ("nan", "inf", "negative"):
        a.reshape(-1)[-1] = {"nan": np.nan, "inf": np.inf, "negative": -5e-324}[kind]
    elif kind != "version 3.0":
        raise ValueError(kind)
    version = (3, 0) if kind == "version 3.0" else (1, 0)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, a, version=version, allow_pickle=kind == "object")


@pytest.fixture
def corrupt_npy():
    """``corrupt_npy(path, kind)`` plants one level-stack defect of ``kind``."""
    return corrupt_stack


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` points every name under which a ``chemoctrl.*``
    module reaches ``fn`` at a counting wrapper, the way the benchmark's
    tracer rebinds module attributes, and returns the calls per
    ``"module.attribute"``; a call that bypasses those names counts nowhere."""
    def install(fn):
        counts = {}
        for name, mod in list(sys.modules.items()):
            if not name.startswith("chemoctrl."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    key = f"{name.rpartition('.')[2]}.{attr}"
                    counts[key] = 0

                    def wrapper(*args, _key=key, **kwargs):
                        counts[_key] += 1
                        return fn(*args, **kwargs)
                    monkeypatch.setattr(mod, attr, wrapper)
        return counts
    return install


def axis_laplacians(grid):
    """The mirror-ghost second differences ``L_k``, one sparse matrix per axis
    on the C-order flat index; their sum is the assembled Laplacian.  The
    oracle for the stencil and for the stepper's diffusion solve."""
    mats = []
    for k, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        main = np.full(n, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(n - 1)
        lk = sp.diags([off, main, off], [-1, 0, 1]) / (h * h)
        left = int(np.prod(grid.dims[:k]))
        right = int(np.prod(grid.dims[k + 1:]))
        mats.append(sp.kron(sp.identity(left), sp.kron(lk, sp.identity(right))).tocsr())
    return mats
