"""Signature cache round trips, corruption handling, mapping and replacement."""

import contextlib
import gc
import os
import re
import stat
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from minscreen import cache
from minscreen.cache import MAGIC, SignatureCache, read_cache, write_cache
from minscreen.cli import main
from minscreen.minhash import SignatureMatrix, make_family, sign, sign_many
from minscreen.screening import ScreenConfig, screen_batch
from minscreen.workload import write_text

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
    path = str(tmp_path / "c.mhsg")
    sigs = _some_signatures(k=30, seed=9, n=2)
    write_cache(path, 9, sigs)
    back = read_cache(path)
    fresh = sign(make_family(30, 9), {1, 2, 16})
    cfg = ScreenConfig(schedule=(), k=30, master_seed=9)
    (outcome,), _ = screen_batch([(0, 1)], {0: back.signatures[0], 1: fresh}, cfg)
    assert outcome.comparisons_used == 30
    assert outcome.estimate == np.count_nonzero(sigs[0].values == fresh.values) / 30


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


@pytest.mark.parametrize("buffer_records", [None, 1, 2])
def test_full_width_bytes_match_the_documented_layout(tmp_path, monkeypatch, buffer_records):
    """Also when the records go out through a buffer of one or two records."""
    family = make_family(33, 2**64 - 1)
    sigs = dict(
        sign_many(family, {2**64 - 1: {1, 2}, 0: {3}, 17: {2**64 - 1, 0, 9}, 2**63: {4, 5, 6}})
    )
    sigs[5] = sign(family, {7})
    if buffer_records:
        monkeypatch.setattr(cache, "_WRITE_BUFFER_BYTES", buffer_records * 8 * 34)
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
    assert back.fingerprint == family.fingerprint == (3, 40)  # the header's seed and k
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


def test_write_refuses_a_float_set_id_and_writes_nothing(tmp_path):
    sig = _some_signatures(k=4, n=1)[0]
    path = tmp_path / "z.mhsg"
    with pytest.raises(ValueError, match="^set id 2.7 is not an integer$"):
        write_cache(str(path), 42, {2.7: sig, 10: sig})
    assert not path.exists()


@pytest.mark.parametrize(
    "data", [b"NOPE" + bytes(60), b"", b"M", MAGIC + bytes(27)], ids=["64", "0", "1", "31"]
)
def test_rejects_bad_magic(tmp_path, data):
    """Files too short to map are read, and refused, as any other."""
    path = tmp_path / "bad.mhsg"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a signature cache (bad magic)")):
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


def test_numpy_seed_writes_the_same_cache(tmp_path):
    sigs = _some_signatures()
    path, numpy_path = tmp_path / "int.mhsg", tmp_path / "numpy.mhsg"
    write_cache(str(path), 42, sigs)
    write_cache(str(numpy_path), np.uint64(42), sigs)
    assert numpy_path.read_bytes() == path.read_bytes()
    back = read_cache(str(numpy_path))
    assert back.master_seed == 42 and type(back.master_seed) is int


@pytest.mark.parametrize(
    "seed, problem",
    [
        (42.0, "is not an integer"),
        ("42", "is not an integer"),
        (None, "is not an integer"),
        (-1, "outside unsigned 64-bit range"),
        (2**64, "outside unsigned 64-bit range"),
    ],
)
def test_bad_seed_is_refused_before_the_file_is_opened(tmp_path, seed, problem):
    path = tmp_path / "bad.mhsg"
    with pytest.raises(ValueError, match=f"^{re.escape(f'master_seed {seed!r} {problem}')}$"):
        write_cache(str(path), seed, _some_signatures())
    assert not path.exists()


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_cache(str(tmp_path / "absent.mhsg"))


def _random_matrix(n, k, seed, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    ids = np.arange(0, 3 * n, 3, dtype=np.uint64)
    matrix = rng.integers(0, 2**64 - 1, size=(n, k), dtype=np.uint64, endpoint=True)
    return SignatureMatrix(ids, matrix, (seed, k))


def test_a_regular_file_is_mapped_not_copied(tmp_path):
    """Reading a 16 MB cache allocates well under 1 MB: the records stay in
    the file's pages instead of a bytes copy."""
    path = tmp_path / "big.mhsg"
    signatures = _random_matrix(2000, 1000, 5)
    write_cache(str(path), 5, signatures)
    assert path.stat().st_size == 32 + 2000 * 8 * 1001
    tracemalloc.start()
    try:
        back = read_cache(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(back.signatures.matrix, signatures.matrix)
    assert np.array_equal(back.signatures.ids, signatures.ids)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_each_live_read_holds_one_descriptor_until_its_arrays_are_dropped():
    """mmap keeps a duplicate of the descriptor it maps, for as long as an
    array read from the cache lives, also after its SignatureCache is gone."""

    def open_descriptors():
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    before = open_descriptors()
    caches = [read_cache(str(GOLDEN / "sign_k256_seed42.mhsg")) for _ in range(20)]
    assert open_descriptors() == before + 20
    kept = caches[0].signatures
    del caches
    assert open_descriptors() == before + 1
    del kept
    assert open_descriptors() == before


def test_replacing_a_cache_leaves_signatures_read_from_it_unchanged(tmp_path):
    path = tmp_path / "c.mhsg"
    old, new = _random_matrix(50, 64, 1, rng_seed=1), _random_matrix(50, 64, 1, rng_seed=2)
    write_cache(str(path), 1, old)
    before = read_cache(str(path))
    write_cache(str(path), 1, new)
    assert np.array_equal(before.signatures.matrix, old.matrix)
    assert np.array_equal(read_cache(str(path)).signatures.matrix, new.matrix)
    assert sorted(os.listdir(tmp_path)) == ["c.mhsg"]


def _write_cache_version(path, version):
    write_cache(path, version, _random_matrix(3, 8, version))


def _write_text_version(path, version):
    write_text(path, f"version {version}\n")


# Every output file is written by workload.replace_file, caches and text alike.
each_writer = pytest.mark.parametrize(
    "write", [_write_cache_version, _write_text_version], ids=["write_cache", "write_text"]
)


@each_writer
def test_a_failed_replace_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch, write):
    path = tmp_path / "c.out"
    write(str(path), 42)
    old_bytes = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write(str(path), 7)
    assert path.read_bytes() == old_bytes
    assert sorted(os.listdir(tmp_path)) == ["c.out"]


@each_writer
def test_a_new_or_replaced_file_has_the_mode_open_gives_a_new_file(tmp_path, write):
    replaced = tmp_path / "replaced.out"
    replaced.write_bytes(b"old")
    replaced.chmod(0o604)
    umask = os.umask(0o027)
    try:
        write(str(tmp_path / "c.out"), 42)
        write(str(replaced), 42)
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(umask)
    for path in (tmp_path / "c.out", replaced, tmp_path / "plain"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["sign", "--sets", str(GOLDEN / "sign_sets.txt"), "--k", "256", "--seed", "42"],
         "sign_k256_seed42.mhsg"),
        (["thresholds", "--threshold", "0.5", "--e", "1e-3", "--schedule",
          ",".join(map(str, range(100, 1000, 100)))],
         "thresholds_t0.5_e1e-3_100-900.csv"),
    ],
    ids=["sign", "thresholds"],
)
def test_an_output_through_a_symlink_updates_its_target(tmp_path, capsys, argv, golden):
    target = tmp_path / "store" / "out"
    target.parent.mkdir()
    target.write_bytes(b"stale")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (GOLDEN / golden).read_bytes()
    assert sorted(os.listdir(target.parent)) == ["out"]


def test_a_pipe_is_read_into_memory(tmp_path):
    path, fifo = tmp_path / "c.mhsg", tmp_path / "pipe.mhsg"
    signatures = _random_matrix(20, 16, 3)
    write_cache(str(path), 3, signatures)
    os.mkfifo(fifo)
    feeder = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    feeder.start()
    try:
        back = read_cache(str(fifo))
    finally:
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert back.master_seed == 3 and np.array_equal(back.signatures.matrix, signatures.matrix)


@each_writer
def test_a_target_that_is_not_a_regular_file_is_never_replaced(tmp_path, write):
    """A pipe stands in for a device such as /dev/null: the writer opens it
    as it is (numpy may refuse to write records to a pipe) and leaves no
    regular file in its place or beside it."""
    regular, fifo = tmp_path / "regular.out", tmp_path / "pipe.out"
    write(str(regular), 42)
    os.mkfifo(fifo)
    drained = []
    reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        with contextlib.suppress(OSError):
            write(str(fifo), 42)
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # nothing opened the pipe for writing
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert drained and drained[0][:4] == regular.read_bytes()[:4]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe.out", "regular.out"]
