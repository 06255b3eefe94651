"""Binary signature cache.

Little-endian layout. Full-width caches:

    magic "MHSG" | version u32=1 | k u64 | master_seed u64 | set_count u64
    then per set: set_id u64, k slot values as u64

Reduced caches insert the slot width b as a u32 right after master_seed and
pack each slot value into ceil(b/8) bytes:

    magic "MHSG" | version u32=1 | k u64 | master_seed u64 | b u32
    | set_count u64 | per set: set_id u64, k slot values of ceil(b/8) bytes

Both flavors share magic and version; a reader tells them apart by checking
which header makes the record section come out to exactly the file length.
In the contrived case where both interpretations fit, the full-width one is
assumed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .minhash import Signature, family_fingerprint, reduced_fingerprint

MAGIC = b"MHSG"
VERSION = 1

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SignatureCache:
    master_seed: int
    k: int
    bits: int
    signatures: dict[int, Signature]


def _slot_bytes(bits: int) -> int:
    return (bits + 7) // 8


def _full_width_records(k: int) -> np.dtype:
    """One full-width record: set id, then k slot values."""
    return np.dtype([("id", "<u8"), ("v", "<u8", (k,))])


def write_cache(path: str, master_seed: int, signatures: Mapping[int, Signature]) -> None:
    """Write signatures keyed by set id. The flavor (full-width or reduced)
    follows from the signatures themselves; mixing widths is an error."""
    if not signatures:
        raise ValueError("refusing to write an empty signature cache")
    sigs = dict(signatures)
    first = next(iter(sigs.values()))
    k, bits = first.k, first.bits
    expected_fp = (
        family_fingerprint(master_seed, k)
        if bits == 64
        else reduced_fingerprint(family_fingerprint(master_seed, k), bits)
    )
    for set_id, sig in sigs.items():
        if not 0 <= set_id <= _MASK64:
            raise ValueError(f"set id {set_id} outside unsigned 64-bit range")
        if sig.k != k or sig.bits != bits:
            raise ValueError("cannot mix signature shapes in one cache")
        if sig.fingerprint != expected_fp:
            raise ValueError(f"signature for set {set_id} comes from a different family")

    header = MAGIC + struct.pack("<IQQ", VERSION, k, master_seed)
    if bits == 64:
        records = np.empty(len(sigs), dtype=_full_width_records(k))
        ids = sorted(sigs)
        records["id"] = ids
        values = records["v"]
        for row, set_id in enumerate(ids):
            values[row] = sigs[set_id].values
        with open(path, "wb") as fh:
            fh.write(header + struct.pack("<Q", len(sigs)))
            records.tofile(fh)
        return

    parts = [header, struct.pack("<I", bits), struct.pack("<Q", len(sigs))]
    cb = _slot_bytes(bits)
    shifts = np.arange(cb, dtype=np.uint64) * np.uint64(8)
    for set_id in sorted(sigs):
        parts.append(struct.pack("<Q", set_id))
        packed = ((sigs[set_id].values[:, np.newaxis] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
        parts.append(packed.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _try_layout(data: bytes, k: int, bits: int, body_off: int) -> int | None:
    """Return set_count if the record section fits the file exactly."""
    if len(data) < body_off + 8:
        return None
    (count,) = struct.unpack_from("<Q", data, body_off)
    record = 8 + k * _slot_bytes(bits)
    if body_off + 8 + count * record == len(data):
        return count
    return None


def read_cache(path: str) -> SignatureCache:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 32 or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a signature cache (bad magic)")
    version, k, master_seed = struct.unpack_from("<IQQ", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if k < 1:
        raise ValueError(f"{path}: corrupt cache (k = {k})")

    plain_count = _try_layout(data, k, 64, 24)
    reduced = None
    if len(data) >= 28:
        (b,) = struct.unpack_from("<I", data, 24)
        if 1 <= b <= 32:
            count = _try_layout(data, k, b, 28)
            if count is not None:
                reduced = (b, count)
    if plain_count is not None:
        bits, count, body_off = 64, plain_count, 32
        fp = family_fingerprint(master_seed, k)
    elif reduced is not None:
        bits, count = reduced
        body_off = 36
        fp = reduced_fingerprint(family_fingerprint(master_seed, k), bits)
    else:
        raise ValueError(f"{path}: corrupt cache (truncated or inconsistent record section)")

    if bits == 64:
        records = np.frombuffer(
            data, dtype=_full_width_records(k), count=count, offset=body_off
        )
        rows = zip(records["id"].tolist(), records["v"])
    else:
        rows = _reduced_rows(data, k, bits, count, body_off)
    signatures: dict[int, Signature] = {}
    for set_id, values in rows:
        if set_id in signatures:
            raise ValueError(f"{path}: corrupt cache (duplicate set id {set_id})")
        signatures[set_id] = Signature(values=values, fingerprint=fp, bits=bits)
    return SignatureCache(master_seed=master_seed, k=k, bits=bits, signatures=signatures)


def _reduced_rows(
    data: bytes, k: int, bits: int, count: int, body_off: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(set_id, values) per record of a reduced cache, values widened to u64."""
    cb = _slot_bytes(bits)
    record = 8 + k * cb
    shifts = np.arange(cb, dtype=np.uint64) * np.uint64(8)
    for i in range(count):
        off = body_off + i * record
        (set_id,) = struct.unpack_from("<Q", data, off)
        raw = data[off + 8 : off + record]
        grid = np.frombuffer(raw, dtype=np.uint8).reshape(k, cb).astype(np.uint64)
        values = (grid << shifts).sum(axis=1, dtype=np.uint64)
        values.setflags(write=False)
        yield set_id, values
