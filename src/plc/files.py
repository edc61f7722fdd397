"""File conventions shared by the workspace index and the CLI.

This module imports no numpy, so a command that only writes text (``plan
--out``, ``normalize --out``) and the CLI's ``--version`` do not pay for it.
"""
from __future__ import annotations

import codecs
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

#: Most bytes a description (``--robot FILE``) or designs file may hold; a
#: larger one is refused before it is read.  PyYAML's pure-Python loader
#: holds up to 600 B of traced memory per input byte (``tracemalloc``, PyYAML
#: 6.0 and Python 3.11: 596 B for a flow sequence of empty keys ``[? , ? ,
#: ...]``, 432 B for ``[a: 0, ...]``, under 2 B for comments), so a file at
#: the cap parses in under 40 MB and 1.3 s (2-core Xeon), and the designs
#: reader in under 2 MB.  A description of every field takes about 0.5 kB.
#: It also caps, in characters, a line of a query file, which is otherwise
#: read a line at a time with no cap on its size.
MAX_DOCUMENT_BYTES = 2**16


def _naming(exc: OSError, path: Path) -> OSError:
    """``exc`` told of ``path``, not of the temporary file beside it."""
    return OSError(exc.errno, exc.strerror, str(path))


def read_text(path, max_bytes: int) -> str:
    """The text of the UTF-8 file at ``path``, with universal newlines and
    without a leading byte order mark, which would otherwise turn a first
    row of numbers or a header into text that no column name matches.

    A file that is not UTF-8, or that holds more than ``max_bytes`` bytes, is
    refused with a :class:`PlcError` naming it.  The size is checked before
    the file is read, and a file whose size the system does not report (a
    pipe) is read no further than the cap.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if os.fstat(fh.fileno()).st_size <= max_bytes:
                text = fh.read(max_bytes + 1)  # a character takes at least a byte
                if len(text) <= max_bytes:
                    return text
            raise PlcError(f"{path} holds more than {max_bytes} bytes, the most this file may hold")
    except UnicodeDecodeError as exc:
        raise PlcError(f"{path} is not UTF-8 text: {exc}") from None


def read_lines(path, max_chars: int):
    """The lines of the UTF-8 file at ``path``, one at a time, as
    ``read_text`` reads its text: universal newlines and no leading byte
    order mark.  The file's size has no cap, since only one line is held at
    a time, but a line of more than ``max_chars`` characters, its newline
    included, is refused with a :class:`PlcError` naming the file, before
    more of it is read.

    A byte that is not UTF-8 is refused where the reader meets it, with the
    message a whole read gives, which counts the byte's position from the
    start of the text.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        bom = len(codecs.BOM_UTF8) if fh.buffer.peek(3).startswith(codecs.BOM_UTF8) else 0
        try:
            while line := fh.readline(max_chars + 1):
                if len(line) > max_chars:
                    raise PlcError(f"{path} has a line of more than {max_chars} characters, the most a line may hold")
                yield line
        except UnicodeDecodeError as exc:
            # the decoder saw the bytes left from the last chunk and the
            # next chunk, which ends where the file's position now is
            at = fh.buffer.tell() - len(exc.object) - bom + exc.start
            bad = exc.object[exc.start : exc.end]
            if len(bad) == 1:
                where = f"byte 0x{bad[0]:02x} in position {at}"
            else:
                where = f"bytes in position {at}-{at + len(bad) - 1}"
            reason = f"{exc.encoding!r} codec can't decode {where}: {exc.reason}"
            raise PlcError(f"{path} is not UTF-8 text: {reason}") from None


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
