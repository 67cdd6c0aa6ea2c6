"""Crash-safe file output shared by every writer in the package, and the
read/write pair of the caches kept beside an embedding store."""
from __future__ import annotations

import contextlib
import os
import tempfile
import zipfile

import numpy as np

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


def atomic_write(path, text: str) -> None:
    """Write text to path through atomic_open, as UTF-8 with LF newlines."""
    with atomic_open(path) as fh:
        fh.write(text)


def read_cache(path, records: dict, names) -> dict | None:
    """The members of the numpy archive at path that names lists, if each
    member that records names equals the array it maps to; else None, as
    for a file that is absent or unreadable. Pickled members are refused,
    never loaded."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            if not all(np.array_equal(archive[k], v) for k, v in records.items()):
                return None
            return {name: archive[name] for name in names}
    except Exception:
        # np.load and zipfile raise many kinds of error on an absent,
        # truncated or foreign file; each means the cache is rebuilt.
        return None


def write_cache(path, arrays: dict) -> None:
    """Write arrays to path through atomic_open in np.savez's layout, an
    uncompressed zip of .npy members that np.load reads, ignoring a failed
    write (a read-only directory, a full disk): a cache is only a copy.

    A C-ordered member is written from its array's own memory, where
    np.savez would copy it first; any other is copied to C order first, so
    its header never claims Fortran order. Members carry ZipInfo's fixed
    1980 timestamp, so the file's bytes depend on the arrays alone.
    """
    try:
        with atomic_open(path, binary=True) as fh:
            with zipfile.ZipFile(fh, "w") as archive:
                for name, arr in arrays.items():
                    arr = np.ascontiguousarray(arr)
                    info = zipfile.ZipInfo(name + ".npy")
                    with archive.open(info, "w", force_zip64=True) as member:
                        header = np.lib.format.header_data_from_array_1_0(arr)
                        np.lib.format.write_array_header_1_0(member, header)
                        member.write(arr.reshape(-1).view(np.uint8))
    except OSError:
        pass
