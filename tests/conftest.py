import pytest


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
