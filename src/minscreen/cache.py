"""Binary signature cache.

Little-endian layout:

    magic "MHSG" | version u32=1 | k u64 | master_seed u64 | set_count u64
    then per set, in increasing set id order: set_id u64, k slot values as u64

The record section fills the rest of the file, so a cache is exactly
32 + set_count * 8 * (k + 1) bytes long; any other length is refused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .minhash import Signature, family_fingerprint
from .sets import U64_MAX

MAGIC = b"MHSG"
VERSION = 1


@dataclass(frozen=True)
class SignatureCache:
    master_seed: int
    k: int
    signatures: dict[int, Signature]


def _records(k: int) -> np.dtype:
    """One record: set id, then k slot values."""
    return np.dtype([("id", "<u8"), ("v", "<u8", (k,))])


def write_cache(path: str, master_seed: int, signatures: Mapping[int, Signature]) -> None:
    """Write signatures of one family keyed by set id."""
    if not signatures:
        raise ValueError("refusing to write an empty signature cache")
    k = next(iter(signatures.values())).k
    expected_fp = family_fingerprint(master_seed, k)
    for set_id, sig in signatures.items():
        if not 0 <= set_id <= U64_MAX:
            raise ValueError(f"set id {set_id} outside unsigned 64-bit range")
        if sig.k != k:
            raise ValueError("cannot mix signature shapes in one cache")
        if sig.fingerprint != expected_fp:
            raise ValueError(f"signature for set {set_id} comes from a different family")

    ids = sorted(signatures)
    records = np.empty(len(ids), dtype=_records(k))
    records["id"] = ids
    values = records["v"]
    for row, set_id in enumerate(ids):
        values[row] = signatures[set_id].values
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQQQ", VERSION, k, master_seed, len(ids)))
        records.tofile(fh)


def read_cache(path: str) -> SignatureCache:
    """Read a cache into one buffer; each Signature.values is a read-only row."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 32 or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a signature cache (bad magic)")
    version, k, master_seed, count = struct.unpack_from("<IQQQ", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if k < 1:
        raise ValueError(f"{path}: corrupt cache (k = {k})")
    if 32 + count * 8 * (k + 1) != len(data):
        raise ValueError(f"{path}: corrupt cache (truncated or inconsistent record section)")

    records = np.frombuffer(data, dtype=_records(k), count=count, offset=32)
    fp = family_fingerprint(master_seed, k)
    signatures: dict[int, Signature] = {}
    for set_id, values in zip(records["id"].tolist(), records["v"]):
        if set_id in signatures:
            raise ValueError(f"{path}: corrupt cache (duplicate set id {set_id})")
        signatures[set_id] = Signature(values=values, fingerprint=fp)
    return SignatureCache(master_seed=master_seed, k=k, signatures=signatures)
