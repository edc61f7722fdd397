"""File conventions shared by the workspace index and the CLI.

This module imports no numpy, so a command that only writes text (``plan
--out``, ``normalize --out``) and the CLI's ``--version`` do not pay for it.
"""
from __future__ import annotations

import errno
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .model import PlcError

#: Version of the ``.plcw`` workspace index layout written by
#: ``WorkspaceIndex.save``; ``load`` refuses any other.  Version 4 stores the
#: bucket offsets and members as uint32, where version 3 stored int64.
INDEX_FORMAT_VERSION = 4


def _naming(exc: OSError, path: Path) -> OSError:
    """``exc`` told of ``path``, not of the temporary file beside it."""
    return OSError(exc.errno, exc.strerror, str(path))


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, with universal newlines and
    without a leading byte order mark, which would otherwise turn a first
    row of numbers or a header into text that no column name matches.

    A file that is not UTF-8 is refused with a :class:`PlcError` naming it.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PlcError(f"{path} is not UTF-8 text: {exc}") from None


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` and rename it over ``path`` on success.

    If the ``with`` body raises, the temporary file is removed, so a failed
    write leaves neither a partial ``path`` nor a stray ``*.tmp`` file.  An
    error in creating or renaming the temporary file names ``path``, since
    the temporary file's random name means nothing to the caller.  An empty
    ``path`` names no file, as it does for ``open``.
    """
    if os.fspath(path) == "":  # Path("") would be the current directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
