"""Crash-safe file output shared by every writer in the package, the
read/write pair of the caches kept beside an embedding store, and the stat
records that let a reader trust a file it has read in full before.

A stat record is a one-line file beside the file it describes,
``<file>.finhyp-stat``: a tag, the file's stat key (device, inode, size,
mtime and ctime, in nanoseconds) and a SHA-256 digest, as 64 hex digits, of
what the file's reader checks (the store's bytes for an embedding store, its
members' CRC-32s for a cache). A reader takes the digest from the record only
when the record's key is the open file's; otherwise it reads the file in
full, and once that read succeeds writes the record, but only if the file's
stat did not change during the read and its ctime is at least
_STAT_MARGIN_NS older than the read's start. No call can set a file's ctime,
and the kernel sets it on every write, so a file written to after its record
was written never matches the record; a file written less than the margin
ago is read in full every time, as a write within the same clock tick could
leave its stat unchanged. The rule holds while the filesystem's clock and
this host's agree to within the margin (a network filesystem sets ctime by
the server's clock). A spoiled, foreign or stale record is ignored, and
replaced after the next full read; deleting it is always safe.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import struct
import tempfile
import time
import zipfile
import zlib

import numpy as np

# The mode open() gives a new file. The umask can only be read by setting
# it, which would change it for every running thread, so it is read once,
# at import.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_MODE = 0o666 & ~_UMASK

STAT_SUFFIX = ".finhyp-stat"
# The record's first fields; bump the version when its line changes.
_STAT_TAG = "finhyp-stat 1"
# How much older than a full read's start a file's ctime must be for the
# read to be recorded against the file's stat.
_STAT_MARGIN_NS = 1_000_000_000
_HEX_DIGEST = re.compile(rb"[0-9a-f]{64}\n")

# A zip local file header (PKWARE APPNOTE 4.3.7): its signature, the fields
# the central directory repeats, and the lengths of the name and extra field
# that follow it.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


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


def _stat_key(st) -> tuple[int, ...]:
    """The stat fields a write to the file changes (ctime always), with the
    device and inode that name it."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _recordable(fd: int, key: tuple[int, ...], start: int) -> bool:
    """Whether a full read of the file open as fd, of stat key, begun at
    time.time_ns() start, may be recorded: the file's ctime is at least
    _STAT_MARGIN_NS older than start, and its stat is still key."""
    return key[4] <= start - _STAT_MARGIN_NS and _stat_key(os.fstat(fd)) == key


def _stat_head(key: tuple[int, ...]) -> bytes:
    """The stat record's line for a file of stat key, up to its digest."""
    return " ".join([_STAT_TAG, *map(str, key), ""]).encode("ascii")


def _read_stat(path: str, key: tuple[int, ...]) -> bytes | None:
    """The digest the stat record of the file at path holds if it records
    stat key, else None, as for a record that is absent or spoiled."""
    try:
        with open(path + STAT_SUFFIX, "rb") as fh:
            line = fh.read(512)
    except OSError:
        return None
    head = _stat_head(key)
    if line.startswith(head) and _HEX_DIGEST.fullmatch(line, len(head)):
        return bytes.fromhex(line[len(head) : -1].decode("ascii"))
    return None


def _write_stat(path: str, key: tuple[int, ...], digest: bytes) -> None:
    """Write the stat record, ignoring a failed write as write_cache does."""
    line = _stat_head(key).decode("ascii") + digest.hex() + "\n"
    try:
        atomic_write(path + STAT_SUFFIX, line)
    except OSError:
        pass


def read_cache(path, records: dict, names, check=None, mapped=()):
    """check(arrays), where arrays maps each member of the numpy archive at
    path that names lists to its array, if the archive holds just the
    members records and names list, each member that records names equals
    the array it maps to, and check returns other than None; else None, as
    for a file that is absent, unreadable or refused. Without check, the
    result is arrays.

    zipfile reads only the central directory. Each member must be stored
    uncompressed and hold a version 1.0 or 2.0 .npy header of a C-ordered
    array without objects (so nothing is ever unpickled) whose bytes fill
    the rest of the member. Every member's CRC-32 is checked, and each
    member read with one readinto into a fresh buffer, whose bytes after
    the header are the array, unless the archive's stat record (see the
    module docstring) holds its current stat and the SHA-256 of its
    members' CRC-32s, in central-directory order. Such a trusted read
    checks no CRC-32, and returns each member that mapped names as a
    read-only np.memmap of the file (a zero-size one as an empty array),
    whose pages are read, and count toward the process's RSS, only as they
    are touched. Any other read that succeeds, check included, writes the
    record; so a trusted read only maps bytes that check passed in full
    under the same stat.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            start = time.time_ns()
            with zipfile.ZipFile(fh) as archive:
                infos = archive.infolist()
            if sorted(i.filename for i in infos) != sorted(
                name + ".npy" for name in [*records, *names]
            ):
                return None
            crcs = b"".join(i.CRC.to_bytes(4, "little") for i in infos)
            digest = hashlib.sha256(crcs).digest()
            key = _stat_key(st)
            trusted = _read_stat(path, key) == digest
            arrays = {}
            for info in infos:
                name = info.filename[:-4]
                map_it = trusted and name in mapped
                arrays[name] = _read_member(fh, info, st.st_size, not trusted, map_it)
            if not all(np.array_equal(arrays.pop(k), v) for k, v in records.items()):
                return None
            result = arrays if check is None else check(arrays)
            if result is not None and not trusted and _recordable(fh.fileno(), key, start):
                _write_stat(path, key, digest)
        return result
    except Exception:
        # zipfile, numpy's header parser, _read_member and check raise many
        # kinds of error on an absent, truncated or foreign file; each means
        # the cache is rebuilt.
        return None


def _read_member(
    fh, info: zipfile.ZipInfo, size: int, check_crc: bool, mapped: bool
) -> np.ndarray:
    """The array the .npy member info of the zip archive open as fh, of
    size bytes, holds, read or, if mapped, mapped as read_cache says;
    raises ValueError for a member read_cache refuses."""
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{info.filename}: compressed")
    fh.seek(info.header_offset)
    signature, name_len, extra_len = _LOCAL_HEADER.unpack(fh.read(_LOCAL_HEADER.size))
    if signature != zipfile.stringFileHeader:
        raise ValueError(f"{info.filename}: bad local header")
    offset = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
    fh.seek(offset)
    version = np.lib.format.read_magic(fh)
    if version not in _NPY_HEADERS:
        raise ValueError(f"{info.filename}: .npy version {version}")
    shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
    if fortran_order or dtype.hasobject:
        raise ValueError(f"{info.filename}: Fortran order or object dtype")
    header = fh.tell() - offset
    length = info.file_size
    if header + math.prod(shape) * dtype.itemsize != length:
        raise ValueError(f"{info.filename}: header and data do not fill the member")
    if offset + length > size:
        raise ValueError(f"{info.filename}: beyond the end of the file")
    if mapped:
        if length == header:
            # np.memmap refuses to map no bytes, and there are none to read
            array = np.empty(shape, dtype)
            array.setflags(write=False)
            return array
        return np.memmap(fh, dtype, "r", offset + header, shape)
    member = np.empty(length, dtype=np.uint8)
    fh.seek(offset)
    if fh.readinto(member) != length:
        raise ValueError(f"{info.filename}: truncated")
    if check_crc and zlib.crc32(member) != info.CRC:
        raise ValueError(f"{info.filename}: bad CRC-32")
    return member[header:].view(dtype).reshape(shape)


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
