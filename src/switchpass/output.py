"""Every output file is written here: built in memory, written to a
temporary name beside the target and renamed over it, so a failed write
leaves an earlier file under that name intact and no partial file behind."""

from __future__ import annotations

import os

import numpy as np


def write_atomic(path, data: str | bytes) -> None:
    """Writes data to `<path>.<pid>.tmp` and renames it over path; on any
    exception the temporary file is removed and path is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cell(value) -> str:
    """A str as is, an integer in decimal, anything else as the shortest
    decimal that round-trips its exact float64 value."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def write_csv(path, columns, rows) -> None:
    """A header of column names, then one line of cells per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    write_atomic(path, "\n".join(lines) + "\n")
