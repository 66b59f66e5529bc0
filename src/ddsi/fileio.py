"""Atomic file writes: a reader of the path sees the old file or the whole
new one, never a part, and a failed write leaves nothing behind. The rules
every input file is read by: its records, its numbers, its UTF-8."""

from __future__ import annotations

import io
import math
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

from .errors import MalformedLine


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Yield a temporary file beside path, open for writing in mode "w"
    (UTF-8) or "wb"; it replaces path when the block exits and is deleted
    if the block raises."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    # 0o666 less the umask, as open() creates files
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path) -> list[str]:
    """The lines that iterating open(path, encoding="utf-8") yields, with
    universal newlines; bytes that are not UTF-8 raise MalformedLine with
    the line of the first bad byte."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        head = blob[: e.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise MalformedLine(path, lineno, f"not UTF-8 at byte {e.start}: {e.reason}") from e
    return io.StringIO(text, newline=None).readlines()


def read_records(path) -> list[tuple[int, str]]:
    """(1-based line number, line without its newline) of each line of read_lines(path) that is not all whitespace."""
    return [(lineno, line.rstrip("\n")) for lineno, line in enumerate(read_lines(path), start=1) if line.strip()]


def int_cell(cell: str) -> int:
    """The id or count in cell, written as the writers write one: ASCII digits only."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"{cell!r} is not a plain ASCII integer: digits only")
    return int(cell)


def float_cell(cell: str) -> float:
    """The number in cell, written as the writers write one: ASCII, finite, with no "_",
    no leading "+" and no surrounding whitespace; "-0" is one, as a score can be -0.0."""
    if not cell.isascii() or "_" in cell or cell != cell.strip() or cell.startswith("+"):
        raise ValueError(f"{cell!r} is not a plain ASCII number")
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell} is not finite")
    return value
