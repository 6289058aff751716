"""Exception types shared across the package, and the file reader that
raises them."""

from __future__ import annotations

import os
from pathlib import Path


class AspectMinerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AspectMinerError):
    """Malformed content in an input or resource file.

    Carries an optional source location so the CLI can point at the
    offending line.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.message = message
        self.path = path
        self.line = line


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 text file.

    Raises FileNotFoundError naming the path when it is not a regular
    file, and ParseError naming the path and line of the first byte that
    is not UTF-8.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(str(path))
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"not UTF-8 text (byte 0x{data[exc.start]:02x})", path=path, line=line
        ) from None
