"""Exception types shared across the package, the file and line readers
that every input goes through, and the memo that parses a resource file once.

Each resource loader reads its files on every call and hands their
texts to ``_parse_files``, which reuses the loader's last parse while
the texts are unchanged.  A reused parse is shared by every call that
got it, so nothing may write to it.
"""

from __future__ import annotations

import codecs
import os
from pathlib import Path
from typing import Callable, TypeVar

_T = TypeVar("_T")


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
    """Contents of a UTF-8 text file, without a leading byte-order mark.

    Raises FileNotFoundError naming the path when it is not a regular
    file, AspectMinerError naming the path when the file cannot be
    opened or read, and ParseError naming the path and line of the first
    byte that is not UTF-8.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(str(path))
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise AspectMinerError(f"cannot read {path}: {exc.strerror}") from exc
    # "utf-8-sig" would count the error offset from after the mark
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = start + exc.start
        line = data.count(b"\n", 0, at) + 1
        raise ParseError(f"not UTF-8 text (byte 0x{data[at]:02x})", path=path, line=line) from None


def text_lines(text: str, *, comments: bool = False) -> list[tuple[int, str]]:
    """``(number, line)`` of each line of ``text`` that is not blank.

    Lines end at a line feed only and are numbered from 1; each loses
    its trailing whitespace, so CRLF endings read the same.  With
    ``comments``, lines whose first non-space character is ``#`` or
    ``;`` are skipped too.
    """
    lines = [(n, line) for n, line in enumerate(map(str.rstrip, text.split("\n")), 1) if line]
    if comments:
        return [(n, line) for n, line in lines if line.lstrip()[0] not in "#;"]
    return lines


# parse function -> (texts of its last successful parse, the result)
_last_parse: dict[Callable, tuple[tuple[str, ...], object]] = {}


def _parse_files(
    parse: Callable[[tuple[str, ...], tuple[str | Path, ...]], _T], *paths: str | Path
) -> _T:
    """``parse(texts, paths)`` of the files' texts, each read with
    :func:`read_text`; the result of ``parse``'s last call when the
    texts equal that call's.

    A parse that raises is not kept, so its error always names the
    paths of the current call.  Threads that load at once can at worst
    each parse the same texts.
    """
    texts = tuple(read_text(path) for path in paths)
    last = _last_parse.get(parse)
    if last is not None and last[0] == texts:
        return last[1]
    result = parse(texts, paths)
    _last_parse[parse] = (texts, result)
    return result
