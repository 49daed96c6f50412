"""Atomic file writes, and the one CSV and one JSON dialect of miaudit's
text files: UTF-8, LF line ends, floats as their shortest repr, JSON keys
sorted."""

from __future__ import annotations

import csv
import json
import os
import secrets
from pathlib import Path

import numpy as np


def _atomic_file_write(path: Path, writer) -> None:
    """Have `writer(tmp)` fill a temp file with a unique name beside `path`,
    then rename it over `path`; on failure the temp file is removed, so two
    runs into one directory never share a temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_FLOATS = (float, np.floating)


def _field(value):
    """A float as its shortest repr, a string as it is, anything else (an
    integer or a 0/1 flag) through int."""
    if isinstance(value, _FLOATS):
        return repr(float(value))
    return value if isinstance(value, str) else int(value)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row of `rows`."""

    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(map(_field, row) for row in rows)

    _atomic_file_write(path, write)


def write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _atomic_file_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8", newline=""))
