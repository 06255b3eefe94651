"""Binary signature cache.

Little-endian layout:

    magic "MHSG" | version u32=1 | k u64 | master_seed u64 | set_count u64
    then per set, in increasing set id order: set_id u64, k slot values as u64

The record section fills the rest of the file, so a cache is exactly
32 + set_count * 8 * (k + 1) bytes long; any other length, k or set_count
of 0, or set ids that do not increase is refused.

A family is named by the header's (master_seed, k): read_cache tags the
signatures with it, and write_cache refuses signatures of another family.

A regular file is mapped read-only, not copied: reading a cache copies
only its set ids, and the slot values are loaded as screening touches
them. The mapping holds the file's contents and one open file descriptor
(mmap keeps a duplicate) until the last array read from it is dropped, also
when a SignatureMatrix outlives its SignatureCache: each live read counts
against the descriptor limit. A cache must not be modified in place while a
screen reads it. write_cache never does: like every file the package
writes, a cache is written by workload.replace_file, to a new file that is
renamed over the target, so its directory must be writable.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
from dataclasses import dataclass
from typing import BinaryIO, Mapping

import numpy as np

from .minhash import Signature, SignatureMatrix
from .sets import as_u64
from .workload import replace_file

MAGIC = b"MHSG"
VERSION = 1
HEADER_BYTES = 32
_WRITE_BUFFER_BYTES = 4 << 20


@dataclass(frozen=True)
class SignatureCache:
    master_seed: int
    k: int
    signatures: SignatureMatrix


def _records(k: int) -> np.dtype:
    """One record: set id, then k slot values."""
    return np.dtype([("id", "<u8"), ("v", "<u8", (k,))])


def write_cache(path: str, master_seed: int, signatures: Mapping[int, Signature]) -> None:
    """Write signatures of one family keyed by set id, the seed by sets.as_u64.

    The cache is written by workload.replace_file: a screen that has the old
    file mapped keeps reading it, a failed write leaves it untouched, and a
    target that is not a regular file, such as /dev/null, is written in place.
    """
    master_seed = as_u64(master_seed, "master_seed")
    if not signatures:
        raise ValueError("refusing to write an empty signature cache")
    matrix = SignatureMatrix.stack(signatures)
    if matrix.fingerprint != (master_seed, matrix.k):
        raise ValueError(f"signatures come from a different family than seed {master_seed}")
    replace_file(path, lambda fh: _write_to(fh, master_seed, matrix))


def _write_to(fh: BinaryIO, master_seed: int, matrix: SignatureMatrix) -> None:
    """The header, then the records through one buffer of at most
    _WRITE_BUFFER_BYTES. A new file takes fresh pages for all of its bytes;
    a record copy of the whole matrix would take as many again."""
    fh.write(MAGIC + struct.pack("<IQQQ", VERSION, matrix.k, master_seed, len(matrix)))
    dtype = _records(matrix.k)
    records = np.empty(min(len(matrix), max(1, _WRITE_BUFFER_BYTES // dtype.itemsize)), dtype)
    for start in range(0, len(matrix), len(records)):
        part = records[: len(matrix) - start]
        part["id"] = matrix.ids[start : start + len(part)]
        part["v"] = matrix.matrix[start : start + len(part)]
        part.tofile(fh)


def read_cache(path: str) -> SignatureCache:
    """Read a cache; the signature matrix is a read-only view of the file's
    records, mapped from a regular file and copied from anything else."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        # mmap refuses an empty file, and a pipe has no size to map.
        if stat.S_ISREG(info.st_mode) and info.st_size >= HEADER_BYTES:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            data = fh.read()
    if len(data) < HEADER_BYTES or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a signature cache (bad magic)")
    version, k, master_seed, count = struct.unpack_from("<IQQQ", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if k < 1 or count < 1:
        raise ValueError(f"{path}: corrupt cache (k = {k}, set count = {count})")
    if HEADER_BYTES + count * 8 * (k + 1) != len(data):
        raise ValueError(f"{path}: corrupt cache (truncated or inconsistent record section)")

    records = np.frombuffer(data, dtype=_records(k), count=count, offset=HEADER_BYTES)
    try:
        signatures = SignatureMatrix(records["id"], records["v"], (master_seed, k))
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt cache ({exc})") from None
    return SignatureCache(master_seed=master_seed, k=k, signatures=signatures)
