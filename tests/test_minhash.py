"""Hash family, signatures, and the match-frequency estimator.

The reference implementation below re-derives the documented mixing recipe
with plain Python integers. The vectorized kernel in minscreen.minhash must
agree with it bit for bit, which pins the signature format across releases
and catches any unintended dtype promotion in the numpy path.
"""

import random
import re
import threading

import numpy as np
import pytest

from minscreen import minhash
from minscreen.cache import read_cache, write_cache
from minscreen.minhash import (
    HashFamily,
    Signature,
    SignatureMatrix,
    make_family,
    sign,
    sign_many,
    slot_hash,
)
from minscreen.screening import ScreenConfig, screen_batch

MASK = (1 << 64) - 1
MULT1 = 0xBF58476D1CE4E5B9
MULT2 = 0x94D049BB133111EB
GOLDEN = 0x9E3779B97F4A7C15


def ref_finalize(z: int) -> int:
    z ^= z >> 30
    z = (z * MULT1) & MASK
    z ^= z >> 27
    z = (z * MULT2) & MASK
    z ^= z >> 31
    return z


def ref_keys(seed: int, k: int) -> tuple[list[int], list[int]]:
    words = []
    state = seed
    for _ in range(2 * k):
        state = (state + GOLDEN) & MASK
        words.append(ref_finalize(state))
    return words[0::2], words[1::2]


def ref_slot(token: int, key_add: int, key_mid: int) -> int:
    x = (token + key_add) & MASK
    x ^= x >> 30
    x = (x * MULT1) & MASK
    x ^= x >> 27
    x = (x + key_mid) & MASK
    x = (x * MULT2) & MASK
    x ^= x >> 31
    return x


class TestFamily:
    """Key derivation is deterministic, documented, and collision-free."""

    def test_keys_match_reference_derivation(self):
        for seed in (0, 42, MASK):
            family = make_family(50, seed)
            add, mid = ref_keys(seed, 50)
            assert family.key_add.tolist() == add
            assert family.key_mid.tolist() == mid

    def test_same_inputs_same_key_material(self):
        one = make_family(200, 7)
        two = make_family(200, 7)
        assert one.fingerprint == two.fingerprint == (7, 200)
        assert one == two and hash(one) == hash(two)
        assert {one: "signed"}[two] == "signed"
        assert np.array_equal(one.key_add, two.key_add)
        assert np.array_equal(one.key_mid, two.key_mid)

    def test_keys_pairwise_distinct(self):
        family = make_family(1000, 42)
        pairs = set(zip(family.key_add.tolist(), family.key_mid.tolist()))
        assert len(pairs) == 1000

    def test_minimal_family(self):
        family = make_family(1, 0)
        assert family.k == 1

    def test_fingerprint_separates_configurations(self):
        assert make_family(10, 1).fingerprint != make_family(10, 2).fingerprint
        assert make_family(10, 1).fingerprint != make_family(11, 1).fingerprint
        assert make_family(10, 1) != make_family(10, 2)
        assert make_family(10, 1) != make_family(11, 1)
        assert len({make_family(10, 1), make_family(10, 2), make_family(11, 1)}) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_family(0, 42)
        with pytest.raises(ValueError):
            make_family(10, -1)
        with pytest.raises(ValueError):
            make_family(10, 1 << 64)
        with pytest.raises(ValueError, match="^family size k 10.5 is not an integer$"):
            make_family(10.5, 42)
        with pytest.raises(ValueError, match="^master_seed 1.5 is not an integer$"):
            make_family(8, 1.5)
        with pytest.raises(ValueError, match="^master_seed -1 outside unsigned 64-bit range$"):
            make_family(8, -1)

    @pytest.mark.parametrize("seed", [0, 42, MASK - 4, MASK])
    def test_keys_of_a_family_are_a_prefix_of_any_larger_one(self, seed):
        """Slot i's keys depend only on the seed and i: prefix signing
        computes a signature's first d slots with make_family(d, seed)."""
        large = make_family(4000, seed)
        for d in (1, 2, 999, 1000, 4000):
            small = make_family(d, seed)
            assert np.array_equal(small.key_add, large.key_add[:d])
            assert np.array_equal(small.key_mid, large.key_mid[:d])

    def test_numpy_arguments_give_the_same_family(self):
        family = make_family(np.int64(8), np.uint64(MASK))
        assert type(family.k) is int and type(family.master_seed) is int
        plain = make_family(8, MASK)
        assert (family.k, family.master_seed, family.fingerprint) == (8, MASK, plain.fingerprint)
        assert np.array_equal(family.key_add, plain.key_add)


class TestSign:
    """The vectorized signer equals the scalar recipe bit for bit."""

    def test_matches_reference_on_random_sets(self):
        rng = random.Random(11)
        family = make_family(64, 99)
        add = family.key_add.tolist()
        mid = family.key_mid.tolist()
        for size in (1, 2, 17, 511, 512, 513, 700):
            tokens = {rng.randrange(0, 1 << 64) for _ in range(size)}
            tokens.update({0, MASK})
            got = sign(family, tokens).values.tolist()
            want = [min(ref_slot(t, add[i], mid[i]) for t in tokens) for i in range(64)]
            assert got == want

    def test_singleton_set_exposes_slot_hash(self):
        family = make_family(32, 5)
        token = 123456789
        values = sign(family, {token}).values.tolist()
        for i, value in enumerate(values):
            assert value == slot_hash(token, int(family.key_add[i]), int(family.key_mid[i]))
            assert value == ref_slot(token, int(family.key_add[i]), int(family.key_mid[i]))

    def test_subset_dominates_slotwise(self):
        rng = random.Random(23)
        family = make_family(128, 3)
        for _ in range(20):
            small = {rng.randrange(0, 1 << 64) for _ in range(rng.randint(1, 40))}
            big = small | {rng.randrange(0, 1 << 64) for _ in range(rng.randint(1, 40))}
            lo = sign(family, big).values
            hi = sign(family, small).values
            assert bool(np.all(lo <= hi))

    def test_identical_sets_identical_signatures(self):
        family = make_family(256, 12)
        tokens = {5, 17, 902, 1 << 40}
        assert np.array_equal(sign(family, tokens).values, sign(family, tokens).values)

    def test_rejects_empty_set(self):
        family = make_family(8, 0)
        with pytest.raises(ValueError, match="empty set"):
            sign(family, set())

    def test_rejects_out_of_range_tokens(self):
        family = make_family(8, 0)
        with pytest.raises(ValueError):
            sign(family, {-3})
        with pytest.raises(ValueError):
            sign(family, {1 << 64})


def ref_signature(family: HashFamily, tokens) -> list[int]:
    add = family.key_add.tolist()
    mid = family.key_mid.tolist()
    return [min(ref_slot(t, add[i], mid[i]) for t in tokens) for i in range(family.k)]


class TestSignMany:
    """The blocked, threaded kernel equals the scalar recipe on every block
    split and worker count."""

    K = 64
    SIZES = (1, 2, 3, 17, 1, 40, 100, 5)

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = random.Random(31)
        family = make_family(self.K, 77)
        sets = {}
        for set_id, size in zip((9, 3, 100, 0, 7, 2**64 - 1, 5, 8), self.SIZES):
            tokens = {rng.randrange(0, 1 << 64) for _ in range(size - 1)} | {set_id % 1000}
            sets[set_id] = frozenset(tokens)
        sets[7] = frozenset({2**64 - 1})
        want = {set_id: ref_signature(family, tokens) for set_id, tokens in sets.items()}
        return family, sets, want

    @pytest.fixture(scope="class")
    def sizes_corpus(self):
        """Sets whose chunks take every turn of the plan: many sets of one
        size and of near-equal sizes; runs of sizes where one more set
        stays within the padding limit of an eighth and where it would
        pass it; chunks of more sets than tokens per set and of fewer, and
        of fewer tokens than a block's slots (laid out slots innermost); one
        set of more than 64 Ki tokens, so larger than any block budget the
        oracle test sets; and K = 13, no multiple of any block width
        above 1."""
        rng = random.Random(47)
        family = make_family(13, 5)
        sizes = [1, 1, 2, 3, 3, 3, 4] + [20] * 40 + [21, 21, 22, 23] * 6
        sizes += [70] * 10 + [80] + [170] * 10 + [200] + [rng.randint(300, 900) for _ in range(4)]
        sizes.append((1 << 16) + 1)
        rng.shuffle(sizes)
        sets = {}
        for set_id, size in enumerate(sizes):
            sets[set_id * 3 + 1] = frozenset(rng.sample(range(1 << 62), size))
        want = {set_id: ref_signature(family, tokens) for set_id, tokens in sets.items()}
        return family, sets, want

    @pytest.mark.parametrize(
        "budget",
        [
            1,  # one slot column of one set per block
            64,  # one row: every set of two or more tokens splits into columns
            4 * 64,  # blocks of several small sets; 17, 40, 100 split
            1 << 16,  # everything in one block
        ],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", ["corpus", "sizes_corpus"])
    def test_matches_oracle_on_every_split(self, request, monkeypatch, name, budget, cpus):
        family, sets, want = request.getfixturevalue(name)
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", budget)
        monkeypatch.setattr(minhash, "_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(minhash, "_cpu_count", lambda: cpus)
        got = sign_many(family, sets)
        assert {set_id: sig.values.tolist() for set_id, sig in got.items()} == want
        for set_id, tokens in sets.items():
            if len(tokens) < 1000:
                assert np.array_equal(got[set_id].values, sign(family, tokens).values)
            assert got[set_id].fingerprint == family.fingerprint

    @staticmethod
    def record_jobs(monkeypatch) -> list:
        """Wrap minhash._hash_ranges; each job appends (thread id, its
        slot ranges)."""
        calls = []
        hash_ranges = minhash._hash_ranges

        def recording(family, out, ranges, scratch, minima):
            calls.append((threading.get_ident(), ranges))
            hash_ranges(family, out, ranges, scratch, minima)

        monkeypatch.setattr(minhash, "_hash_ranges", recording)
        return calls

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_ranges_are_shared_out_to_one_job_per_cpu(self, corpus, monkeypatch, cpus):
        """Every job has ranges, and every job runs on a pool thread when
        there are several; one set alone is split across the jobs too."""
        family, sets, want = corpus
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", 4 * 64)
        monkeypatch.setattr(minhash, "_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(minhash, "_cpu_count", lambda: cpus)
        calls = self.record_jobs(monkeypatch)
        for signed in (sets, {5: sets[5]}):
            calls.clear()
            got = sign_many(family, signed)
            assert {set_id: sig.values.tolist() for set_id, sig in got.items()} == {
                set_id: want[set_id] for set_id in signed
            }
            assert len(calls) == cpus
            assert all(ranges for _, ranges in calls)
            if cpus > 1:
                assert threading.get_ident() not in {ident for ident, _ in calls}

    def test_a_plan_of_few_blocks_stays_on_the_calling_thread(self, corpus, monkeypatch):
        family, sets, _ = corpus
        monkeypatch.setattr(minhash, "_cpu_count", lambda: 8)
        calls = self.record_jobs(monkeypatch)
        sign_many(family, sets)
        assert [ident for ident, _ in calls] == [threading.get_ident()]

    @pytest.mark.parametrize("k", [1, 13, 300])
    @pytest.mark.parametrize("budget", [1, 64, 256, 1 << 16])
    def test_plan_covers_every_slot_of_every_set_once(self, monkeypatch, k, budget):
        """Over random sizes with runs of equal ones: every (set, slot) is
        in exactly one range. Each chunk holds sets in increasing size,
        consecutive in the stable size order, each padded by repeats of its
        own tokens; with two sets or more it holds at most budget // 4
        padded tokens, at most an eighth of them padding, and has its
        longer axis innermost, in memory too. A block is the most slots within budget
        hash values, or one slot of one set."""
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", budget)
        monkeypatch.setattr(minhash, "_cpu_count", lambda: 2)
        rng = random.Random(k * 7 + budget)
        sizes = [rng.choice((1, 2, 5, 20, 21, 64)) for _ in range(30)]
        sizes += [rng.randint(1, min(3 * budget, 20_000)) for _ in range(10)] + [20] * 25
        rng.shuffle(sizes)
        sets = {i: frozenset(range(1000 * i, 1000 * i + size)) for i, size in enumerate(sizes)}
        calls = self.record_jobs(monkeypatch)
        sign_many(make_family(k, 3), sets)
        covered = np.zeros((len(sizes), k), dtype=int)
        chunks = {}
        for _, ranges in calls:
            for chunk, lo, hi, w in ranges:
                rows, tokens, axis = chunk
                covered[rows, lo:hi] += 1
                assert 0 <= lo < hi <= k
                assert (hi - lo) % w == 0 or hi == k
                assert w * tokens.size <= budget or (w == 1 and len(rows) == 1)
                assert w == max(1, budget // tokens.size)
                chunks[id(tokens)] = chunk
        assert (covered == 1).all()
        order = np.argsort(sizes, kind="stable").tolist()
        placed = []
        for rows, tokens, axis in sorted(chunks.values(), key=lambda c: order.index(c[0][0])):
            held = [sizes[row] for row in rows.tolist()]
            assert held == sorted(held)
            longest = held[-1]
            if len(rows) >= longest:
                assert (tokens.shape, axis) == ((longest, len(rows)), 1)
            else:
                assert (tokens.shape, axis) == ((len(rows), longest), 2)
            assert tokens.flags.c_contiguous
            per_set = tokens if axis == 2 else tokens.T
            for row, padded in zip(rows.tolist(), per_set.tolist()):
                assert set(padded) == sets[row]
            if len(rows) > 1:
                assert tokens.size <= budget // 4
                assert 8 * (tokens.size - sum(held)) <= tokens.size
            placed += rows.tolist()
        assert placed == order

    @pytest.mark.parametrize("budget", [1, 16, 64, 256, 1 << 16])
    def test_chunks_equal_a_set_by_set_enumeration(self, monkeypatch, budget):
        """Going through the sizes in order, a set joins the open chunk
        unless the chunk would then hold more than budget // 4 padded
        tokens, or more than an eighth of them padding; then it opens the
        next chunk."""
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", budget)
        rng = random.Random(budget)
        for _ in range(20):
            sizes = sorted(
                rng.choice((rng.randint(1, 9), rng.randint(1, 300), 20, 70, 80, 82))
                for _ in range(rng.randint(1, 120))
            )
            want, first, tokens = [], 0, 0
            for end, size in enumerate(sizes):
                count = end - first + 1
                if end > first and (
                    count * size > budget // 4 or 8 * (count * size - tokens - size) > count * size
                ):
                    want.append((first, end))
                    first, tokens = end, 0
                tokens += size
            want.append((first, len(sizes)))
            assert list(minhash._chunks(np.array(sizes))) == want

    def test_keeps_input_order(self):
        """Rows come in increasing set id order, whatever the mapping's
        order; each set keeps its own signature."""
        family = make_family(8, 1)
        sets = {5: {1}, 2: {2, 3}, 9: {4}, 0: {5}}
        got = sign_many(family, sets)
        assert list(got) == [0, 2, 5, 9]
        assert got.ids.tolist() == [0, 2, 5, 9]
        for row, set_id in enumerate(got):
            assert np.array_equal(got.matrix[row], sign(family, sets[set_id]).values)

    def test_rows_are_read_only_uint64(self):
        family = make_family(16, 1)
        got = sign_many(family, {0: {1, 2}, 1: {3}})
        for sig in got.values():
            assert sig.values.dtype == np.uint64
            assert sig.values.shape == (16,)
            assert not sig.values.flags.writeable
            with pytest.raises(ValueError):
                sig.values[0] = 0

    def test_empty_mapping(self):
        assert sign_many(make_family(8, 1), {}) == {}

    @pytest.mark.parametrize(
        "bad, message",
        [
            (set(), "minhash undefined on empty set"),
            ({1.5}, "token 1.5 is not an integer"),
            ({"7"}, "token '7' is not an integer"),
            ({-3}, "token -3 outside unsigned 64-bit range"),
            ({1 << 64}, f"token {1 << 64} outside unsigned 64-bit range"),
        ],
    )
    def test_error_messages_match_sign(self, bad, message):
        family = make_family(8, 0)
        for call in (lambda: sign(family, bad), lambda: sign_many(family, {0: {1}, 1: bad})):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_integer_tokens_sign_alike_whatever_their_type(self):
        """numpy integer tokens sign like the same Python ints, and a bool
        is 0 or 1 ({True, 5} == {1, 5} in Python)."""
        family = make_family(64, 5)
        python = sign_many(family, {0: {1, 5}, 1: {0, MASK, 1 << 40}})
        for sets in (
            {0: {True, 5}, 1: {False, MASK, 1 << 40}},
            {0: {np.int64(1), np.uint8(5)}, 1: {np.uint64(0), np.uint64(MASK), np.int64(1 << 40)}},
            {0: {1, 5}, 1: set(np.array([0, MASK, 1 << 40], dtype=np.uint64))},
        ):
            assert np.array_equal(sign_many(family, sets).matrix, python.matrix)
        assert np.array_equal(sign(family, {True, 5}).values, python[0].values)

    def test_set_ids_are_checked_before_sorting(self):
        """A set id that is no unsigned 64-bit integer is named, not sorted
        (a str) or truncated (a float)."""
        family = make_family(8, 0)
        for sets, message in (
            ({1.5: {1}}, "set id 1.5 is not an integer"),
            ({1.5: {1}, 10: {2}}, "set id 1.5 is not an integer"),
            ({"7": {1}, 2: {3}}, "set id '7' is not an integer"),
            ({3: {1}, -1: {2}}, "set id -1 outside unsigned 64-bit range"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sign_many(family, sets)
        got = sign_many(family, {np.uint64(MASK): {1}, np.int64(3): {2}, True: {3}})
        assert got.ids.tolist() == [1, 3, MASK]


class TestSignatureMatrix:
    """The matrix reads like the dict of Signatures it replaced."""

    @pytest.fixture()
    def signed(self):
        family = make_family(16, 3)
        sets = {40: {1, 2}, 7: {3}, 2**64 - 1: {4, 5}, 0: {6}}
        return family, sets, sign_many(family, sets)

    def test_reads_as_a_mapping(self, signed):
        family, sets, got = signed
        assert len(got) == 4
        assert sorted(got) == list(got) == [0, 7, 40, 2**64 - 1]
        assert all(type(set_id) is int for set_id in got)
        assert 7 in got and np.uint64(40) in got
        for absent in (1, -1, 2**64, "7", None):
            assert absent not in got
            with pytest.raises(KeyError):
                got[absent]
        for set_id, sig in got.items():
            assert sig.k == got.k == 16
            assert sig.fingerprint == family.fingerprint
            assert np.array_equal(sig.values, sign(family, sets[set_id]).values)
            assert not sig.values.flags.writeable
            with pytest.raises(ValueError):
                sig.values[0] = 0
        assert got.get(8) is None

    def test_empty_matrix_equals_an_empty_dict(self):
        got = sign_many(make_family(8, 1), {})
        assert got == {} and len(got) == 0 and got.matrix.shape == (0, 8)

    def test_stacks_a_dict_of_signatures(self, signed):
        family, sets, got = signed
        plain = {set_id: sign(family, tokens) for set_id, tokens in sets.items()}
        stacked = SignatureMatrix.stack(plain)
        assert np.array_equal(stacked.ids, got.ids)
        assert np.array_equal(stacked.matrix, got.matrix)
        assert stacked.fingerprint == family.fingerprint
        assert SignatureMatrix.stack(got) is got
        assert len(SignatureMatrix.stack({})) == 0

    def test_stacking_refuses_mixed_lengths_families_and_ids(self, signed):
        family, _, got = signed
        wide = sign(make_family(17, 3), {1})
        with pytest.raises(ValueError, match="cannot mix signature lengths 16 and 17"):
            SignatureMatrix.stack({**got, 1: wide})
        foreign = sign(make_family(16, 4), {1})
        with pytest.raises(ValueError, match="different hash families"):
            SignatureMatrix.stack({**got, 1: foreign})
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=f"set id {bad} outside unsigned 64-bit range"):
                SignatureMatrix.stack({bad: got[0]})
        with pytest.raises(ValueError, match="^set id 2.7 is not an integer$"):
            SignatureMatrix.stack({2.7: got[0]})
        with pytest.raises(ValueError, match="^set id 2.7 is not an integer$"):
            SignatureMatrix.stack({10: got[0], 2.7: got[7]})

    def test_stacking_refuses_values_that_are_not_1d_uint64(self, signed):
        """A cast would screen [1.5, -2.0] as [1, 2**64 - 2] without an error."""
        family, _, got = signed
        for values, described in (
            (np.array([1.5, -2.0]), "float64 (2,)"),
            (np.array([3, -2], dtype=np.int64), "int64 (2,)"),
            (np.zeros((2, 8), dtype=np.uint64), "uint64 (2, 8)"),
            ([1, 2], "<class 'list'>"),
        ):
            bad = Signature(values=values, fingerprint=family.fingerprint)
            message = f"set id 40: need 1-D uint64 signature values, got {described}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                SignatureMatrix.stack({0: got[0], 40: bad, 7: got[7]})

    def test_stacking_copies_any_1d_uint64_values_bit_for_bit(self, signed):
        """Big-endian and strided rows are unsigned 64-bit too: they stack to
        the same matrix as the rows themselves."""
        family, _, got = signed
        plain = {
            0: got[0],
            7: Signature(got[7].values.astype(">u8"), family.fingerprint),
            40: Signature(np.repeat(got[40].values, 2)[::2], family.fingerprint),
            2**64 - 1: got[2**64 - 1],
        }
        stacked = SignatureMatrix.stack(plain)
        assert stacked.matrix.dtype == np.uint64
        assert stacked.matrix.tobytes() == got.matrix.tobytes()
        assert np.array_equal(stacked.ids, got.ids)

    def test_rows_finds_an_id_array_by_one_search(self, signed):
        """rows takes one uint64 array and names the first id, in array
        order, that has no row; anything but a 1-D uint64 array is refused,
        since a cast would wrap -1 or round ids near 2**64. A mapping key
        that is no set id by as_u64 is simply absent."""
        _, _, got = signed
        ids = np.array([7, 40, 0, 2**64 - 1, 0], dtype=np.uint64)
        assert got.rows(ids).tolist() == [1, 2, 0, 3, 0]
        assert got.rows(ids.astype(">u8")).tolist() == [1, 2, 0, 3, 0]
        assert got.rows(np.array([], dtype=np.uint64)).tolist() == []
        for listed, missing in (([0, 1, 7, 9], 1), ([7, 41, 2], 41), ([2**64 - 2], 2**64 - 2)):
            with pytest.raises(KeyError) as info:
                got.rows(np.array(listed, dtype=np.uint64))
            assert info.value.args == (missing,)
        for bad, described in (
            ([7, 40], "<class 'list'>"),
            (np.array([-1, 7]), "int64 (2,)"),
            (np.array([[7]], dtype=np.uint64), "uint64 (1, 1)"),
        ):
            message = f"need a 1-D uint64 array of set ids, got {described}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                got.rows(bad)
        with pytest.raises(KeyError) as info:
            SignatureMatrix.stack({}).rows(np.array([5, 6], dtype=np.uint64))
        assert info.value.args == (5,)
        assert SignatureMatrix.stack({}).rows(np.array([], dtype=np.uint64)).tolist() == []
        assert np.array_equal(got[False].values, got[0].values) and True not in got
        for key in (1.5, 7.0, "40", -1, 2**64):
            with pytest.raises(KeyError) as info:
                got[key]
            assert info.value.args == (key,)

    @pytest.mark.parametrize(
        "listed, dense",
        [
            ([0, 1, 2, 3], True),
            ([5, 6, 7], True),
            ([MASK - 2, MASK - 1, MASK], True),
            ([9], True),
            ([], True),
            ([3, 4, 6, 7], False),
            ([0, MASK], False),
            ([MASK - 4, MASK - 3, MASK], False),
        ],
    )
    def test_rows_by_offset_or_search_equal_a_searchsorted_reference(self, tmp_path, listed, dense):
        """Ids that are a range are found by their offset from the first,
        others by one search; both give the rows and the KeyError that a
        searchsorted reference gives, on matrices signed in memory and read
        back (strided ids) from a cache, for random queries below the first
        id, above the last, inside a gap and among the ids."""
        family = make_family(8, 3)
        signed = sign_many(family, {set_id: {set_id % 5} for set_id in listed})
        matrices = [signed]
        if listed:  # a cache holds one signature at least
            write_cache(str(tmp_path / "c.mhsg"), 3, signed)
            matrices.append(read_cache(str(tmp_path / "c.mhsg")).signatures)
        near = {0, 1, 2, MASK - 1, MASK}
        for set_id in listed:
            near.update(range(max(set_id - 2, 0), min(set_id + 2, MASK) + 1))
        rng = np.random.default_rng(len(listed))
        pool = np.array(sorted(near), dtype=np.uint64)
        ids = np.array(listed, dtype=np.uint64)
        for got in matrices:
            assert (got._first is not None) == dense
            for _ in range(200):
                queries = rng.choice(pool, size=rng.integers(0, 6))
                at = ids.searchsorted(queries)
                if listed:
                    found = np.take(ids, at, mode="clip") == queries
                else:
                    found = np.zeros(len(queries), dtype=bool)
                if found.all():
                    rows = got.rows(queries)
                    assert rows.dtype == np.intp and rows.tolist() == at.tolist()
                else:
                    with pytest.raises(KeyError) as info:
                        got.rows(queries)
                    assert info.value.args == (int(queries[found.argmin()]),)

    def test_ids_must_increase(self):
        values = np.zeros((3, 4), dtype=np.uint64)
        for ids, message in (
            ([1, 1, 2], "duplicate set id 1"),
            ([1, 3, 2], "out-of-order set id 2"),
        ):
            with pytest.raises(ValueError, match=message):
                SignatureMatrix(np.array(ids, dtype=np.uint64), values, "fp")

    def test_ids_and_matrix_it_cannot_use_are_refused(self):
        """ids must be a 1-D unsigned 64-bit array: int64 ids are refused,
        not cast, so -1 cannot wrap to 2**64 - 1 past 5 and 6; the matrix
        must be 2-D unsigned 64-bit with one row per id."""
        values = np.zeros((3, 4), dtype=np.uint64)
        for ids, got in (
            (np.array([-1, 5, 6]), "int64 (3,)"),
            (np.array([4, 5, 6]), "int64 (3,)"),
            (np.array([[4, 5, 6]], dtype=np.uint64), "uint64 (1, 3)"),
            ([4, 5, 6], "<class 'list'>"),
        ):
            message = f"need a 1-D uint64 array of set ids, got {got}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                SignatureMatrix(ids, values, "fp")
        for ids, matrix, got in (
            ([1, 2], values, "uint64 (3, 4)"),
            ([1, 2, 3], values.astype(np.float64), "float64 (3, 4)"),
            ([1, 2, 3], values[0], "uint64 (4,)"),
            ([1, 2, 3], values.tolist(), "<class 'list'>"),
        ):
            message = f"need a 2-D uint64 matrix, one row per set id ({len(ids)}), got {got}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                SignatureMatrix(np.array(ids, dtype=np.uint64), matrix, "fp")
        sigs = SignatureMatrix(np.array([4, 5, 6], dtype=np.uint64), values, "fp")
        assert sigs.ids.dtype == np.uint64 and list(sigs) == [4, 5, 6] and 5 in sigs


class TestEstimator:
    """The estimator is screening's full-width match frequency: a batch
    screened with no checkpoints."""

    @staticmethod
    def full_width(a, b):
        master_seed, k = a.fingerprint
        cfg = ScreenConfig(schedule=(), k=k, master_seed=master_seed)
        (outcome,), _ = screen_batch([(0, 1)], {0: a, 1: b}, cfg)
        assert outcome.comparisons_used == a.k
        return outcome.estimate

    def test_identical_signatures_match_everywhere(self):
        sig = sign(make_family(100, 4), {1, 2, 3})
        assert self.full_width(sig, sig) == 1.0

    @pytest.mark.parametrize("k, matching, expected", [(100, 20, 0.2), (50, 0, 0.0), (50, 50, 1.0)])
    def test_estimate_values(self, k, matching, expected):
        a = sign(make_family(k, 8), {10, 20})
        values = a.values.copy()
        values[matching:] ^= np.uint64(1)
        values.setflags(write=False)
        b = type(a)(values=values, fingerprint=a.fingerprint)
        assert self.full_width(a, b) == expected

    def test_match_frequency_concentrates_on_jaccard(self):
        # J = |{5..9}| / |{0..14}| = 1/3 exactly
        a = set(range(10))
        b = set(range(5, 15))
        j = 1.0 / 3.0
        k = 256
        tolerance = 3.0 * (j * (1.0 - j) / k) ** 0.5
        covered = 0
        for seed in range(3000, 3300):
            signatures = sign_many(make_family(k, seed), {0: a, 1: b})
            covered += abs(self.full_width(signatures[0], signatures[1]) - j) <= tolerance
        assert covered >= 297
