"""Signature cache round trips and corruption handling."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from minscreen.cache import MAGIC, SignatureCache, read_cache, write_cache
from minscreen.minhash import SignatureMatrix, make_family, sign, sign_many

GOLDEN = Path(__file__).parent / "golden"


def _some_signatures(k=50, seed=42, n=5):
    family = make_family(k, seed)
    sigs = {}
    for set_id in range(n):
        sigs[set_id * 10] = sign(family, {set_id * 3 + 1, set_id * 7 + 2, 1 << 60})
    return sigs


def test_full_width_round_trip(tmp_path):
    path = str(tmp_path / "full.mhsg")
    sigs = _some_signatures()
    write_cache(path, 42, sigs)
    back = read_cache(path)
    assert back == SignatureCache(master_seed=42, k=50, signatures=back.signatures)
    assert set(back.signatures) == set(sigs)
    for set_id, sig in sigs.items():
        assert np.array_equal(back.signatures[set_id].values, sig.values)
        assert back.signatures[set_id].fingerprint == sig.fingerprint


def test_round_trip_signatures_stay_comparable(tmp_path):
    from minscreen.minhash import match_count

    path = str(tmp_path / "c.mhsg")
    sigs = _some_signatures(k=30, seed=9, n=2)
    write_cache(path, 9, sigs)
    back = read_cache(path)
    fresh = sign(make_family(30, 9), {1, 2, 16})
    assert match_count(back.signatures[0], fresh, 30).k_examined == 30


def test_full_width_rows_are_read_only_views_and_rewrite_identically(tmp_path):
    path = tmp_path / "full.mhsg"
    write_cache(str(path), 42, _some_signatures())
    back = read_cache(str(path))
    for sig in back.signatures.values():
        assert sig.values.dtype == np.uint64
        assert not sig.values.flags.writeable
    again = tmp_path / "again.mhsg"
    write_cache(str(again), 42, back.signatures)
    assert again.read_bytes() == path.read_bytes()


def _struct_cache_bytes(master_seed, signatures):
    """A full-width cache built field by field with struct, as the format
    in the cache module docstring describes it."""
    k = next(iter(signatures.values())).k
    parts = [MAGIC, struct.pack("<IQQQ", 1, k, master_seed, len(signatures))]
    for set_id in sorted(signatures):
        parts.append(struct.pack("<Q", set_id))
        parts.append(struct.pack(f"<{k}Q", *signatures[set_id].values.tolist()))
    return b"".join(parts)


def test_full_width_bytes_match_the_documented_layout(tmp_path):
    family = make_family(33, 2**64 - 1)
    sigs = dict(
        sign_many(family, {2**64 - 1: {1, 2}, 0: {3}, 17: {2**64 - 1, 0, 9}, 2**63: {4, 5, 6}})
    )
    sigs[5] = sign(family, {7})
    path = tmp_path / "layout.mhsg"
    write_cache(str(path), 2**64 - 1, sigs)
    assert path.read_bytes() == _struct_cache_bytes(2**64 - 1, sigs)
    back = read_cache(str(path))
    assert list(back.signatures) == [0, 5, 17, 2**63, 2**64 - 1]


def test_reads_one_strided_matrix_and_writes_it_with_the_same_bytes(tmp_path):
    family = make_family(40, 3)
    signed = sign_many(family, {9: {1, 2}, 4: {3}, 6: {2, 5, 8}})
    path = tmp_path / "m.mhsg"
    write_cache(str(path), 3, signed)
    back = read_cache(str(path)).signatures
    assert isinstance(back, SignatureMatrix)
    assert back.ids.tolist() == [4, 6, 9]
    assert back.fingerprint == family.fingerprint
    # Rows are read in place from the file's records: id, then k values.
    assert back.matrix.strides == (8 * 41, 8)
    assert not back.matrix.flags.writeable
    assert np.array_equal(back.matrix, signed.matrix)
    again = tmp_path / "again.mhsg"
    write_cache(str(again), 3, back)
    assert again.read_bytes() == path.read_bytes()


def test_full_width_write_rejects_out_of_range_ids(tmp_path):
    sigs = _some_signatures(k=4, n=1)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=f"set id {bad} outside unsigned 64-bit range"):
            write_cache(str(tmp_path / "z.mhsg"), 42, {bad: sigs[0]})


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mhsg"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError, match="bad magic"):
        read_cache(str(path))


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "v2.mhsg"
    path.write_bytes(MAGIC + struct.pack("<IQQQ", 2, 1, 0, 0))
    with pytest.raises(ValueError, match="version"):
        read_cache(str(path))


def test_rejects_truncated_file(tmp_path):
    path = str(tmp_path / "t.mhsg")
    write_cache(path, 42, _some_signatures())
    data = Path(path).read_bytes()
    clipped = tmp_path / "clipped.mhsg"
    clipped.write_bytes(data[:-5])
    with pytest.raises(ValueError, match="corrupt"):
        read_cache(str(clipped))
    padded = tmp_path / "padded.mhsg"
    padded.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="corrupt"):
        read_cache(str(padded))


@pytest.mark.parametrize("bits", [1, 8])
def test_rejects_reduced_caches_of_earlier_releases(bits):
    """Earlier releases could write b-bit caches: the full-width header with
    a u32 b after master_seed, then the set count, then ceil(b/8) bytes per
    slot. The golden files were written that way from sign_sets.txt with
    k = 64 and seed 42.

    No such file can pass for a full-width cache. The u64 read as set_count
    holds b in its low half and the reduced count, at least 1, in its high
    half, so it is at least 2**32, and no file under 64 GiB is as long as
    32 + set_count * 8 * (k + 1) bytes.
    """
    path = GOLDEN / f"sign_k64_seed42_b{bits}.mhsg"
    data = path.read_bytes()
    assert struct.unpack_from("<IQQIQ", data, 4) == (1, 64, 42, bits, 6)
    with pytest.raises(ValueError, match="corrupt cache"):
        read_cache(str(path))


def test_rejects_duplicate_set_ids(tmp_path):
    k = 2
    header = MAGIC + struct.pack("<IQQQ", 1, k, 0, 2)
    record = struct.pack("<Q", 5) + struct.pack("<QQ", 1, 2)
    path = tmp_path / "dup.mhsg"
    path.write_bytes(header + record + record)
    with pytest.raises(ValueError, match="duplicate set id"):
        read_cache(str(path))


@pytest.mark.parametrize("k", [5, 2**62])
def test_rejects_header_without_sets(tmp_path, k):
    """write_cache refuses to write an empty cache, so a 32-byte header with
    set count 0 is corrupt, also when its k is too large for any dtype."""
    path = tmp_path / "empty.mhsg"
    path.write_bytes(MAGIC + struct.pack("<IQQQ", 1, k, 0, 0))
    with pytest.raises(ValueError, match=re.escape(f"{path}: corrupt cache")):
        read_cache(str(path))


def test_rejects_set_ids_out_of_order(tmp_path):
    header = MAGIC + struct.pack("<IQQQ", 1, 1, 0, 3)
    records = b"".join(struct.pack("<QQ", set_id, 0) for set_id in (2, 7, 5))
    path = tmp_path / "order.mhsg"
    path.write_bytes(header + records)
    message = f"{path}: corrupt cache (out-of-order set id 5)"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_cache(str(path))


def test_write_rejects_empty_and_mixed_input(tmp_path):
    path = str(tmp_path / "x.mhsg")
    with pytest.raises(ValueError, match="empty"):
        write_cache(path, 42, {})
    sigs = _some_signatures(k=20, n=2)
    other = sign(make_family(21, 42), {1})
    with pytest.raises(ValueError, match="mix"):
        write_cache(path, 42, {**sigs, 99: other})


def test_write_rejects_foreign_family(tmp_path):
    path = str(tmp_path / "y.mhsg")
    sigs = _some_signatures(k=20, n=2, seed=1)
    with pytest.raises(ValueError, match="different family"):
        write_cache(path, 2, sigs)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_cache(str(tmp_path / "absent.mhsg"))
