"""Crash-safe file output shared by every writer in the package."""
from __future__ import annotations

import contextlib
import os
import tempfile

# The mode open() gives a new file. The umask can only be read by setting
# it, which would change it for every running thread, so it is read once,
# at import.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_MODE = 0o666 & ~_UMASK


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """A file to write, opened in a temp file beside path and renamed over
    path when the block exits normally; readers never see a partial file,
    and a failed write leaves no temp file behind. The file gets the mode
    open() would give it under the umask at import. Text mode writes UTF-8
    with LF newlines."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        if binary:
            fh = os.fdopen(fd, "wb")
        else:
            fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
        with fh:
            yield fh
        os.chmod(tmp, _MODE)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path, data: str | bytes) -> None:
    """Write text or bytes to path through atomic_open."""
    with atomic_open(path, binary=not isinstance(data, str)) as fh:
        fh.write(data)
