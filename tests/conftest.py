import sys

import numpy as np
import pytest
import scipy.sparse as sp


def corrupt_rows(path, kind, n_keys):
    """Rewrite a table with one defect; ``n_keys`` leading columns are indices."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    last = rows[-1]
    if kind == "missing row":
        rows.pop()
    elif kind == "duplicate row":
        rows[-1] = rows[0]
    elif kind == "negative index":
        last[n_keys - 1] = "-1"
    elif kind == "index out of range":
        last[n_keys - 1] = "999"
    elif kind == "non-integer index":
        last[n_keys - 1] = "1.5"
    elif kind == "t_index out of range":
        last[0] = "99"
    elif kind == "non-finite value":
        last[-1] = "nan"
    elif kind == "infinite value":
        last[-1] = "-inf"
    elif kind == "negative value":
        last[-1] = "-1.0"
    elif kind == "wrong header":
        header[-1] = "w"
    elif kind == "short row":
        last.pop()
    else:
        raise ValueError(kind)
    path.write_text("".join(",".join(r) + "\r\n" for r in [header] + rows))


@pytest.fixture
def corrupt_csv():
    """``corrupt_csv(path, kind, n_keys)`` plants one defect of ``kind``."""
    return corrupt_rows


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
