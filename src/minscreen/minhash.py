"""Seeded hash family and signatures.

Each of the k slots carries its own keyed 64-bit mixing hash standing in for
an independent random permutation of the token universe. The per-slot hash
is fixed bit-for-bit so that independently written implementations produce
identical signatures:

    x = (token + key_add) mod 2**64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) mod 2**64
    x ^= x >> 27
    x = (x + key_mid) mod 2**64
    x = (x * 0x94D049BB133111EB) mod 2**64
    x ^= x >> 31

Addition, xor-shift, and multiplication by an odd constant are all bijective
mod 2**64, so for a fixed key the map is a permutation of the 64-bit domain:
distinct tokens never collide within a slot, only across slots. The two key
words per slot come from a splitmix64-style counter stream seeded by the
family master seed, which makes key material deterministic and pairwise
distinct.

A signature stores, per slot, the minimum keyed hash over the set's tokens.
The number of slot agreements between two signatures is then a binomial
sample whose success probability is the Jaccard similarity of the sets.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections.abc import Iterable, Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import AbstractSet

import numpy as np

from .sets import U64_MAX, as_u64, as_u64_array

_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_NP_MULT1 = np.uint64(_MULT1)
_NP_MULT2 = np.uint64(_MULT2)
_NP_S30 = np.uint64(30)
_NP_S27 = np.uint64(27)
_NP_S31 = np.uint64(31)

# Hash values per block: a block and its shift scratch (512 KiB each) stay
# in a core's L2 cache. On a Xeon with 2 MiB of L2 per core, 64 Ki signed
# sets of 20 and of 70 tokens faster than 32 Ki or 128 Ki did.
_BLOCK_HASHES = 64 * 1024
# Threads only pay off with several blocks for each of them.
_BLOCKS_PER_WORKER = 4


def slot_hash(token: int, key_add: int, key_mid: int) -> int:
    """Reference implementation of the per-slot keyed hash, one token at a
    time. sign_many() computes exactly this with numpy; tests hold the two
    paths bit-identical."""
    x = (token + key_add) & U64_MAX
    x ^= x >> 30
    x = (x * _MULT1) & U64_MAX
    x ^= x >> 27
    x = (x + key_mid) & U64_MAX
    x = (x * _MULT2) & U64_MAX
    x ^= x >> 31
    return x


def _mix_state(z: int) -> int:
    z ^= z >> 30
    z = (z * _MULT1) & U64_MAX
    z ^= z >> 27
    z = (z * _MULT2) & U64_MAX
    z ^= z >> 31
    return z


def derive_keys(master_seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Key words for k slots from a golden-ratio counter stream.

    Output j of the stream is _mix_state(master_seed + (j+1) * golden), the
    splitmix64 construction. Slot i uses outputs 2i and 2i+1. The finalizer
    is bijective and the counter states are distinct, so all stream outputs,
    and hence all per-slot key pairs, are pairwise distinct.
    """
    words = []
    state = master_seed
    for _ in range(2 * k):
        state = (state + _GOLDEN) & U64_MAX
        words.append(_mix_state(state))
    key_add = np.array(words[0::2], dtype=np.uint64)
    key_mid = np.array(words[1::2], dtype=np.uint64)
    key_add.setflags(write=False)
    key_mid.setflags(write=False)
    return key_add, key_mid


def family_fingerprint(master_seed: int, k: int) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"minscreen.family|")
    digest.update(master_seed.to_bytes(8, "little"))
    digest.update(k.to_bytes(8, "little"))
    return digest.hexdigest()


@dataclass(frozen=True)
class HashFamily:
    """k keyed hash slots derived deterministically from one master seed."""

    k: int
    master_seed: int
    key_add: np.ndarray
    key_mid: np.ndarray
    fingerprint: str


@dataclass(frozen=True)
class Signature:
    """Per-slot minima for one token set, tagged with the family it came from."""

    values: np.ndarray
    fingerprint: str

    @property
    def k(self) -> int:
        return len(self.values)


class SignatureMatrix(Mapping[int, Signature]):
    """Signatures of one hash family as one read-only (n, k) uint64 matrix.

    ids holds the set ids in strictly increasing order and matrix[i] is the
    signature of set ids[i]. As a mapping it reads like a dict of
    Signatures: each item is a read-only row view of the matrix, found by
    rows(), the one set id lookup.
    """

    def __init__(self, ids: np.ndarray, matrix: np.ndarray, fingerprint: str) -> None:
        later = np.flatnonzero(ids[1:] <= ids[:-1])
        if later.size:
            set_id = int(ids[later[0] + 1])
            problem = "duplicate" if set_id == ids[later[0]] else "out-of-order"
            raise ValueError(f"{problem} set id {set_id}")
        # Contiguous ids: searchsorted would copy strided ones on every call.
        self.ids = np.ascontiguousarray(ids, dtype=np.uint64)
        self.matrix = matrix
        self.fingerprint = fingerprint
        for array in (self.ids, self.matrix):
            array.setflags(write=False)

    @classmethod
    def stack(cls, signatures: Mapping[int, Signature]) -> SignatureMatrix:
        """A mapping of Signatures as one matrix (a SignatureMatrix as it
        is). A mapping that mixes lengths or families is refused."""
        if isinstance(signatures, SignatureMatrix):
            return signatures
        ids, sigs = _by_id(signatures)
        lengths = sorted({sig.k for sig in sigs})
        if len(lengths) > 1:
            raise ValueError(f"cannot mix signature lengths {lengths[0]} and {lengths[-1]}")
        if len({sig.fingerprint for sig in sigs}) > 1:
            raise ValueError("signatures come from different hash families")
        matrix = np.array([sig.values for sig in sigs], dtype=np.uint64)
        matrix = matrix.reshape(len(sigs), lengths[0] if sigs else 0)
        return cls(ids, matrix, sigs[0].fingerprint if sigs else "")

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __getitem__(self, set_id: int) -> Signature:
        (row,) = self.rows(((set_id,),))
        return Signature(values=self.matrix[row], fingerprint=self.fingerprint)

    def rows(self, groups: Iterable[Iterable[int]], count: int = -1) -> np.ndarray:
        """The rows of the set ids in groups (pairs, say; groups and count as
        for sets.as_u64_array), or a KeyError naming the first id without one."""
        try:
            ids = as_u64_array(groups, "set id", count)
            rows = self.ids.searchsorted(ids)
            if np.array_equal(np.take(self.ids, rows, mode="clip"), ids):
                return rows
        except (ValueError, IndexError):
            pass  # a value that is no unsigned 64-bit integer, or ids but no rows
        flat = list(itertools.chain.from_iterable(groups))
        # One id has no row itself; of several, name the first without one.
        raise KeyError(flat[0] if len(flat) == 1 else next(i for i in flat if i not in self))


def _by_id(mapping: Mapping) -> tuple[np.ndarray, list]:
    """The set ids of mapping, sorted, as a uint64 array, and its values in that order."""
    keys = list(mapping)
    ids = as_u64_array((keys,), "set id")
    order = ids.argsort(kind="stable")
    return ids[order], [mapping[keys[i]] for i in order.tolist()]


def validate_family_args(k: int, master_seed: int) -> tuple[int, int]:
    """k and the seed as Python ints by sets.as_u64, k at least 1."""
    k = as_u64(k, "family size k")
    if k < 1:
        raise ValueError(f"family size k must be at least 1, got {k}")
    return k, as_u64(master_seed, "master_seed")


def make_family(k: int, master_seed: int) -> HashFamily:
    """Derive the keyed slots for a family of k hash functions."""
    k, master_seed = validate_family_args(k, master_seed)
    key_add, key_mid = derive_keys(master_seed, k)
    return HashFamily(
        k=k,
        master_seed=master_seed,
        key_add=key_add,
        key_mid=key_mid,
        fingerprint=family_fingerprint(master_seed, k),
    )


def sign(family: HashFamily, tokens: AbstractSet[int]) -> Signature:
    """Signature of a non-empty token set: slotwise minimum keyed hash."""
    return sign_many(family, {0: tokens})[0]


def sign_many(family: HashFamily, sets: Mapping[int, AbstractSet[int]]) -> SignatureMatrix:
    """Signatures of non-empty token sets, one matrix row per set in
    increasing set id order.

    All tokens go into one array and all signatures into one (n, k) matrix.
    The hashing runs in blocks of whole sets holding at most _BLOCK_HASHES
    hash values, so that a block and its shift scratch stay in a core's L2
    cache; a set larger than that is hashed in ranges of slot columns. When
    there are several blocks per CPU, threads share them out (numpy releases
    the GIL inside each ufunc). Blocks write disjoint parts of the matrix
    and a slotwise minimum is exact, so the values do not depend on the
    block split, on the number of threads or on the order of the sets.
    Set ids and tokens are checked by sets.as_u64_array.
    """
    set_ids, ordered = _by_id(sets)
    if not all(ordered):
        raise ValueError("minhash undefined on empty set")
    out = np.empty((len(ordered), family.k), dtype=np.uint64)
    if not ordered:
        return SignatureMatrix(set_ids, out, family.fingerprint)
    offsets = [0, *itertools.accumulate(map(len, ordered))]
    toks = as_u64_array(ordered, "token", offsets[-1])
    blocks = _blocks(offsets, family.k)
    largest = max((offsets[end] - offsets[first]) * (hi - lo) for first, end, lo, hi in blocks)
    workers = len(blocks) // _BLOCKS_PER_WORKER
    workers = min(workers, _cpu_count()) if workers > 1 else 1
    if workers == 1:
        _hash_blocks(family, toks, offsets, out, blocks, np.empty(2 * largest, dtype=np.uint64))
    else:
        # Scratch is allocated here, not in the worker threads, so that it
        # does not come from per-thread malloc arenas.
        jobs = [(blocks[i::workers], np.empty(2 * largest, dtype=np.uint64)) for i in range(workers)]
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(_hash_blocks, family, toks, offsets, out, *job) for job in jobs]
            for future in futures:
                future.result()
    return SignatureMatrix(set_ids, out, family.fingerprint)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(offsets: list[int], k: int) -> list[tuple[int, int, int, int]]:
    """(first set, end set, first slot, end slot) per block: runs of whole
    sets up to _BLOCK_HASHES hash values, or one set over a slot range."""
    blocks = []
    first = 0
    n = len(offsets) - 1
    while first < n:
        rows = offsets[first + 1] - offsets[first]
        if rows * k > _BLOCK_HASHES:
            width = max(1, _BLOCK_HASHES // rows)
            blocks.extend((first, first + 1, lo, min(lo + width, k)) for lo in range(0, k, width))
            first += 1
            continue
        end = first + 1
        limit = offsets[first] + _BLOCK_HASHES // k
        while end < n and offsets[end + 1] <= limit:
            end += 1
        blocks.append((first, end, 0, k))
        first = end
    return blocks


def _hash_blocks(
    family: HashFamily,
    toks: np.ndarray,
    offsets: list[int],
    out: np.ndarray,
    blocks: list[tuple[int, int, int, int]],
    scratch: np.ndarray,
) -> None:
    """Fill out[first:end, lo:hi] for each block: keyed hashes of the
    block's tokens, then each set's slotwise minimum."""
    for first, end, lo, hi in blocks:
        start = offsets[first]
        rows = offsets[end] - start
        size = rows * (hi - lo)
        x = scratch[:size].reshape(rows, hi - lo)
        t = scratch[size : 2 * size].reshape(rows, hi - lo)
        np.add(toks[start : start + rows, np.newaxis], family.key_add[lo:hi], out=x)
        np.right_shift(x, _NP_S30, out=t)
        x ^= t
        x *= _NP_MULT1
        np.right_shift(x, _NP_S27, out=t)
        x ^= t
        x += family.key_mid[lo:hi]
        x *= _NP_MULT2
        np.right_shift(x, _NP_S31, out=t)
        x ^= t
        for row in range(first, end):
            np.minimum.reduce(
                x[offsets[row] - start : offsets[row + 1] - start], axis=0, out=out[row, lo:hi]
            )
