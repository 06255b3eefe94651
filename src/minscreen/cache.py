"""Binary signature cache.

Little-endian layout:

    magic "MHSG" | version u32=1 | k u64 | master_seed u64 | set_count u64
    then per set, in increasing set id order: set_id u64, k slot values as u64

The record section fills the rest of the file, so a cache is exactly
32 + set_count * 8 * (k + 1) bytes long; any other length, k or set_count
of 0, or set ids that do not increase is refused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .minhash import Signature, SignatureMatrix, family_fingerprint
from .sets import as_u64

MAGIC = b"MHSG"
VERSION = 1


@dataclass(frozen=True)
class SignatureCache:
    master_seed: int
    k: int
    signatures: SignatureMatrix


def _records(k: int) -> np.dtype:
    """One record: set id, then k slot values."""
    return np.dtype([("id", "<u8"), ("v", "<u8", (k,))])


def write_cache(path: str, master_seed: int, signatures: Mapping[int, Signature]) -> None:
    """Write signatures of one family keyed by set id, the seed by sets.as_u64."""
    master_seed = as_u64(master_seed, "master_seed")
    if not signatures:
        raise ValueError("refusing to write an empty signature cache")
    matrix = SignatureMatrix.stack(signatures)
    if matrix.fingerprint != family_fingerprint(master_seed, matrix.k):
        raise ValueError(f"signatures come from a different family than seed {master_seed}")
    records = np.empty(len(matrix), dtype=_records(matrix.k))
    records["id"] = matrix.ids
    records["v"] = matrix.matrix
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQQQ", VERSION, matrix.k, master_seed, len(matrix)))
        records.tofile(fh)


def read_cache(path: str) -> SignatureCache:
    """Read a cache into one buffer; the signature matrix is a read-only
    view of it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 32 or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a signature cache (bad magic)")
    version, k, master_seed, count = struct.unpack_from("<IQQQ", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if k < 1 or count < 1:
        raise ValueError(f"{path}: corrupt cache (k = {k}, set count = {count})")
    if 32 + count * 8 * (k + 1) != len(data):
        raise ValueError(f"{path}: corrupt cache (truncated or inconsistent record section)")

    records = np.frombuffer(data, dtype=_records(k), count=count, offset=32)
    fp = family_fingerprint(master_seed, k)
    try:
        signatures = SignatureMatrix(records["id"], records["v"], fp)
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt cache ({exc})") from None
    return SignatureCache(master_seed=master_seed, k=k, signatures=signatures)
