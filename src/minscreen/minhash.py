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

import os
from collections.abc import Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AbstractSet

import numpy as np

from .sets import U64_MAX, as_u64, as_u64_array, describe_array, is_u64_array

_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_NP_MULT1 = np.uint64(_MULT1)
_NP_MULT2 = np.uint64(_MULT2)
_NP_S30 = np.uint64(30)
_NP_S27 = np.uint64(27)
_NP_S31 = np.uint64(31)

# Hash values per block: a block and its shift scratch (512 KiB each) stay
# in a core's L2 cache. On a 2-CPU Xeon with 2 MiB of L2 per core (numpy
# 2.4.6), 18,000 sets of 15-25 tokens at K = 1000 signed in 1.29, 1.15,
# 0.99 and 1.33 s on one thread with 16, 32, 64 and 128 Ki, and 64 Ki was
# fastest on two threads too, also for 600 sets of 60-80 tokens at
# K = 4000. Per hash on one core, a block's add costs about 0.3 ns, the
# mixer 2.4-2.7 ns and the minimum 0.25 ns.
_BLOCK_HASHES = 64 * 1024
# Threads only pay off with several blocks for each of them.
_BLOCKS_PER_WORKER = 4
# Bytes of slot minima a job gathers before writing them into the matrix.
_RANGE_BYTES = 1 << 20


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


def _mix(x: np.ndarray, key_mid: np.ndarray | np.uint64, t: np.ndarray) -> None:
    """slot_hash after its first addition, in place on x = token + key_add; t is shift scratch."""
    np.right_shift(x, _NP_S30, out=t)
    x ^= t
    x *= _NP_MULT1
    np.right_shift(x, _NP_S27, out=t)
    x ^= t
    x += key_mid
    x *= _NP_MULT2
    np.right_shift(x, _NP_S31, out=t)
    x ^= t


def derive_keys(master_seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Key words for k slots from a golden-ratio counter stream.

    Output j of the stream is slot_hash(master_seed + (j+1) * golden, 0, 0),
    the splitmix64 construction, computed by _mix over wrapping uint64 states.
    Slot i uses outputs 2i and 2i+1, so a family's keys prefix any larger
    one's. The finalizer is bijective and the counter states are distinct, so
    all stream outputs, and hence all per-slot key pairs, are pairwise distinct.
    """
    words = np.arange(1, 2 * k + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(master_seed)
    _mix(words, np.uint64(0), np.empty_like(words))
    keys = np.ascontiguousarray(words.reshape(k, 2).T)
    keys.setflags(write=False)  # and so its two rows, key_add and key_mid
    return keys[0], keys[1]


@dataclass(frozen=True)
class HashFamily:
    """k keyed hash slots from one master seed, named by fingerprint (master_seed,
    k). The keys follow from it, so families compare and hash by seed and k."""

    k: int
    master_seed: int
    key_add: np.ndarray = field(compare=False, repr=False)
    key_mid: np.ndarray = field(compare=False, repr=False)

    @property
    def fingerprint(self) -> tuple[int, int]:
        return self.master_seed, self.k


@dataclass(frozen=True)
class Signature:
    """Per-slot minima for one token set, tagged with the (master_seed, k)
    of the family it came from."""

    values: np.ndarray
    fingerprint: tuple[int, int]

    @property
    def k(self) -> int:
        return len(self.values)


class SignatureMatrix(Mapping[int, Signature]):
    """Signatures of one hash family as one read-only (n, k) uint64 matrix.

    ids holds the set ids in strictly increasing order and matrix[i] is the
    signature of set ids[i]. fingerprint names the family, (master_seed, k),
    or is None for a stack of no signatures. rows() finds the rows of an
    array of set ids by offset when the ids are a range, otherwise by one
    search. As a mapping it reads like a dict of
    Signatures: each item is a read-only row view of the matrix, and a key
    that is no set id by sets.as_u64 is simply not in it.
    """

    def __init__(self, ids: np.ndarray, matrix: np.ndarray, fingerprint: tuple | None) -> None:
        if not is_u64_array(ids, 1):  # a cast would wrap an int64 -1 to 2**64 - 1
            raise ValueError(f"need a 1-D uint64 array of set ids, got {describe_array(ids)}")
        if not (is_u64_array(matrix, 2) and len(matrix) == len(ids)):
            raise ValueError(
                f"need a 2-D uint64 matrix, one row per set id ({len(ids)}), "
                f"got {describe_array(matrix)}"
            )
        later = np.flatnonzero(ids[1:] <= ids[:-1])
        if later.size:
            set_id = int(ids[later[0] + 1])
            problem = "duplicate" if set_id == ids[later[0]] else "out-of-order"
            raise ValueError(f"{problem} set id {set_id}")
        # Contiguous ids: searchsorted would copy strided ones on every call.
        self.ids = np.ascontiguousarray(ids, dtype=np.uint64)
        # The first id when the ids are a range (no ids too), else None.
        first, last = (int(ids[0]), int(ids[-1])) if len(ids) else (0, -1)
        self._first = first if last - first == len(ids) - 1 else None
        self.matrix = matrix
        self.fingerprint = fingerprint
        for array in (self.ids, self.matrix):
            array.setflags(write=False)

    @classmethod
    def stack(cls, signatures: Mapping[int, Signature]) -> SignatureMatrix:
        """A mapping of Signatures as one matrix (a SignatureMatrix as it
        is). A mapping that mixes lengths or families is refused, as are
        values that are not a 1-D uint64 array, which a cast would turn into
        plausible slot values (1.5 into 1, -2 into 2**64 - 2)."""
        if isinstance(signatures, SignatureMatrix):
            return signatures
        ids, sigs = _by_id(signatures)
        bad = next((i for i, sig in enumerate(sigs) if not is_u64_array(sig.values, 1)), None)
        if bad is not None:
            raise ValueError(
                f"set id {ids[bad]}: need 1-D uint64 signature values, "
                f"got {describe_array(sigs[bad].values)}"
            )
        lengths = sorted({sig.k for sig in sigs})
        if len(lengths) > 1:
            raise ValueError(f"cannot mix signature lengths {lengths[0]} and {lengths[-1]}")
        if len({sig.fingerprint for sig in sigs}) > 1:
            raise ValueError("signatures come from different hash families")
        matrix = np.array([sig.values for sig in sigs], dtype=np.uint64)
        matrix = matrix.reshape(len(sigs), lengths[0] if sigs else 0)
        return cls(ids, matrix, sigs[0].fingerprint if sigs else None)

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __getitem__(self, set_id: int) -> Signature:
        try:
            (row,) = self.rows(np.array([as_u64(set_id, "set id")], dtype=np.uint64))
        except ValueError:  # no unsigned 64-bit integer, so no set id
            raise KeyError(set_id) from None
        return Signature(values=self.matrix[row], fingerprint=self.fingerprint)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The rows of a uint64 array of set ids, or a KeyError naming the
        first id, in array order, without one. When the set ids are a range
        a row is its id's offset from the first, found by one unsigned range
        check (an id below the first wraps past the last); otherwise the
        rows come from one search."""
        if not is_u64_array(ids, 1):
            raise ValueError(f"need a 1-D uint64 array of set ids, got {describe_array(ids)}")
        if self._first is None:  # two ids at least, so take has a row to clip to
            rows = self.ids.searchsorted(ids)
            hit = np.take(self.ids, rows, mode="clip") == ids
        else:
            rows = ids - np.uint64(self._first)  # a hit is below len(self): intp as well
            hit = rows < len(self)
        if not hit.all():
            raise KeyError(int(ids[hit.argmin()]))
        return rows.view(np.intp)


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
    return HashFamily(k=k, master_seed=master_seed, key_add=key_add, key_mid=key_mid)


def sign(family: HashFamily, tokens: AbstractSet[int]) -> Signature:
    """Signature of a non-empty token set: slotwise minimum keyed hash."""
    return sign_many(family, {0: tokens})[0]


def sign_many(family: HashFamily, sets: Mapping[int, AbstractSet[int]]) -> SignatureMatrix:
    """Signatures of non-empty token sets, one matrix row per set in
    increasing set id order.

    The sets are sorted by size, stably, and cut into chunks of consecutive
    sets (_chunks). Each chunk is gathered into one token matrix, its
    longer axis innermost, each shorter set padded by repeating one of its
    own tokens; a minimum ignores repeats (_token_matrix). A block is w
    slots of one chunk, at most _BLOCK_HASHES hash values where it can be,
    and costs three numpy calls: one contiguous add of the w slots' key_add,
    the one numpy mixer (_mix) and one minimum over the token axis into a
    slot-major buffer. A chunk of fewer tokens than a block has slots, such
    as a lone small set, puts the slots innermost instead. The buffer goes
    into the chunk's rows of the matrix by one transposed assignment per
    slot range (_hash_ranges). The slot ranges run as one job on the
    calling thread, or, with several blocks per CPU, as one job per CPU on
    a thread pool (numpy releases the GIL inside each ufunc); a chunk's
    slots are split across the jobs, so that one large set keeps every CPU
    busy too (_jobs). Jobs write disjoint
    parts of the matrix and a slotwise minimum is exact, so the values do
    not depend on the plan, on the number of threads or on the order of the
    sets. On a 2-CPU Xeon, 18,000 sets of 15-25 tokens at K = 1000 sign at
    about 2.1 ns per hash on both CPUs, 3.2 ns on one (see _BLOCK_HASHES).
    Set ids and tokens are checked by sets.as_u64_array.
    """
    set_ids, ordered = _by_id(sets)
    if not all(ordered):
        raise ValueError("minhash undefined on empty set")
    out = np.empty((len(ordered), family.k), dtype=np.uint64)
    sizes = np.fromiter(map(len, ordered), dtype=np.intp, count=len(ordered))
    starts = np.cumsum(sizes) - sizes
    toks = as_u64_array(ordered, "token", int(sizes.sum()))
    order = sizes.argsort(kind="stable")
    chunks = [
        _token_matrix(toks, starts, sizes, order[first:end]) for first, end in _chunks(sizes[order])
    ]
    jobs = _jobs(chunks, family.k)
    if len(jobs) == 1:
        _hash_ranges(family, out, *jobs[0])
    else:
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(_hash_ranges, family, out, *job) for job in jobs]
            for future in futures:
                future.result()
    return SignatureMatrix(set_ids, out, family.fingerprint)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """Bounds [first, end) of the chunks of nondecreasing set sizes: runs of
    consecutive sets of at most _BLOCK_HASHES // 4 padded tokens (a larger
    set alone), so that a block of a chunk holds four slots at least. A
    chunk is closed before one more set would make its padding more than an
    eighth of its tokens. Sets of one size are taken together."""
    if not len(sizes):
        return
    cap = _BLOCK_HASHES // 4
    first = end = tokens = 0
    runs = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
    for stop in [*runs, len(sizes)]:
        size = int(sizes[end])
        while end < stop:
            held = end - first
            room = cap // size - held
            # one more set of this size pads the chunk by held * size - tokens
            if held and (room < 1 or 8 * (held * size - tokens) > (held + 1) * size):
                yield first, end
                first, tokens = end, 0
            else:
                take = min(stop - end, max(room, 1))
                end += take
                tokens += take * size
    yield first, end


def _token_matrix(
    toks: np.ndarray, starts: np.ndarray, sizes: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The chunk of the sets of matrix rows, in increasing size: the rows,
    their tokens as one matrix, each set padded to the largest size by
    repeating its last token, and the token axis of a block of w slots,
    (w, *matrix.shape). The padded index is built once, (sets, size). The
    longer axis is innermost: with at least as many sets as tokens per set
    the matrix is taken by the index's transpose, (size, sets), which take,
    unlike toks[index.T], also lays out with the sets innermost in memory."""
    size = int(sizes[rows[-1]])
    index = np.minimum(np.arange(size), sizes[rows, None] - 1) + starts[rows, None]
    if len(rows) >= size:
        return rows, toks.take(index.T), 1
    return rows, toks[index], 2


def _jobs(chunks: list, k: int) -> list[tuple[list, np.ndarray, np.ndarray]]:
    """The slot ranges (chunk, lo, hi, w) of every chunk, shared out with
    their scratch and buffer to one job per CPU when each job gets
    _BLOCKS_PER_WORKER blocks at least, else to one job. A block is the
    most slots w (one at least) within _BLOCK_HASHES hash values. A range
    is whole blocks, at most _RANGE_BYTES of minima (one block at least) and
    at most the chunk's blocks shared by the jobs, so that each job gets
    part of every chunk with a block for it."""
    widths = [max(1, _BLOCK_HASHES // tokens.size) for _, tokens, _ in chunks]
    blocks = [-(-k // w) for w in widths]
    workers = max(1, min(sum(blocks) // _BLOCKS_PER_WORKER, _cpu_count()))
    ranges = []
    for chunk, w, n in zip(chunks, widths, blocks):
        sets = len(chunk[0])
        step = w * max(1, min(_RANGE_BYTES // (8 * w * sets), -(-n // workers)))
        ranges += [(chunk, lo, min(lo + step, k), w) for lo in range(0, k, step)]
    jobs = []
    for job in (ranges[i::workers] for i in range(workers)):
        # Scratch and buffers are allocated here, on the calling thread, so
        # that they do not come from per-thread malloc arenas.
        block = max((min(w, hi - lo) * tokens.size for (_, tokens, _), lo, hi, w in job), default=0)
        found = max(((hi - lo) * len(rows) for (rows, _, _), lo, hi, _ in job), default=0)
        jobs.append((job, np.empty(2 * block, dtype=np.uint64), np.empty(found, dtype=np.uint64)))
    return jobs


def _hash_ranges(
    family: HashFamily, out: np.ndarray, ranges: list, scratch: np.ndarray, minima: np.ndarray
) -> None:
    """Fill out[rows, lo:hi] for each slot range ((rows, tokens, axis), lo,
    hi, w): per block of w slots, the keyed hashes of the token matrix and
    their minima over its token axis into the minima buffer, slot-major;
    then one transposed assignment of the range's minima. A block is laid
    out (w, *tokens.shape), or, for a chunk of fewer tokens than w (a
    lone small set), (*tokens.shape, w): the longest axis innermost."""
    for (rows, tokens, axis), lo, hi, w in ranges:
        found = minima[: (hi - lo) * len(rows)].reshape(hi - lo, len(rows))
        for start in range(lo, hi, w):
            end = min(start + w, hi)
            size = (end - start) * tokens.size
            if w > tokens.size:
                x = scratch[:size].reshape(*tokens.shape, end - start)
                t = scratch[size : 2 * size].reshape(x.shape)
                np.add(tokens[..., None], family.key_add[start:end], out=x)
                _mix(x, family.key_mid[start:end], t)
                np.minimum.reduce(x, axis=axis - 1, out=found.T[:, start - lo : end - lo])
            else:
                x = scratch[:size].reshape(end - start, *tokens.shape)
                t = scratch[size : 2 * size].reshape(x.shape)
                np.add(tokens, family.key_add[start:end, None, None], out=x)
                _mix(x, family.key_mid[start:end, None, None], t)
                np.minimum.reduce(x, axis=axis, out=found[start - lo : end - lo])
        out[rows, lo:hi] = found.T
