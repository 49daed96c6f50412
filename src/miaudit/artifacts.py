"""Atomic writes of every file miaudit writes, so a file is whole or absent;
the one CSV and one JSON dialect of its text files (UTF-8, LF line ends,
floats as their shortest repr, JSON keys sorted); and the framing of its
binary files: a magic, a little-endian u32 version, then a header whose
sizes the file must match exactly."""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import DataError


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
    write_bytes(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def write_bytes(path, chunks) -> None:
    """Each chunk in order: bytes, or a C-contiguous array as its raw bytes."""

    def write(tmp):
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)

    _atomic_file_write(path, write)


class BinaryReader:
    """A binary file read whole: `magic`, a little-endian u32 `version`, then
    header fields taken in order.  Every DataError names the file."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.path = path
        self.data = Path(path).read_bytes()
        self.pos = len(magic)
        if self.data[: self.pos] != magic:
            raise self.error(f"not {what} (bad magic)")
        (found,) = self.unpack("<I")
        if found != version:
            raise self.error(f"unsupported version {found}")

    def error(self, message: str) -> DataError:
        return DataError(f"{self.path}: {message}")

    def unpack(self, fmt: str) -> tuple:
        """The next header fields, as `struct.unpack(fmt)` gives them."""
        end = self.pos + struct.calcsize(fmt)
        if end > len(self.data):
            raise self.error("truncated header")
        fields = struct.unpack_from(fmt, self.data, self.pos)
        self.pos = end
        return fields

    def rest(self, size: int) -> memoryview:
        """The bytes after the header, which must number exactly `size`."""
        left = len(self.data) - self.pos
        if left != size:
            raise self.error(f"header declares {size} bytes after it, the file holds {left}")
        return memoryview(self.data)[self.pos :]


def read_json_object(path: Path) -> dict:
    """A JSON file whose top level is an object; anything else is a DataError."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise DataError(f"{path}: top level is not a JSON object")
    return value


def csv_rows(data: bytes, path):
    """The rows of a CSV file's bytes, decoded as UTF-8.  Bytes that are not
    UTF-8, or a `csv.Error` such as a field over `csv.field_size_limit()`,
    raise DataError naming the file and line.  The whole file is decoded
    before the first row is returned, so the line of a bad byte is exact,
    and again as the rows stream, so the text is not kept while they parse."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DataError(f"{path}: line {line}: {exc}") from exc
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
