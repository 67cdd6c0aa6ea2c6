"""Crash-safe file output shared by every writer in the package."""
from __future__ import annotations

import os
import tempfile


def atomic_write(path, text: str) -> None:
    """Write text as UTF-8 with LF newlines to a temp file beside path, then
    rename it over path; readers never see a partial file, and a failed
    write leaves no temp file behind."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
