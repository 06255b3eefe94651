"""Hash family, signatures, and the match-frequency estimator.

The reference implementation below re-derives the documented mixing recipe
with plain Python integers. The vectorized kernel in minscreen.minhash must
agree with it bit for bit, which pins the signature format across releases
and catches any unintended dtype promotion in the numpy path.
"""

import random
import threading

import numpy as np
import pytest

from minscreen import minhash
from minscreen.minhash import (
    HashFamily,
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
        assert one.fingerprint == two.fingerprint
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
    def test_matches_oracle_on_every_split(self, corpus, monkeypatch, budget, cpus):
        family, sets, want = corpus
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", budget)
        monkeypatch.setattr(minhash, "_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(minhash, "_cpu_count", lambda: cpus)
        got = sign_many(family, sets)
        assert {set_id: sig.values.tolist() for set_id, sig in got.items()} == want
        for set_id, tokens in sets.items():
            assert np.array_equal(got[set_id].values, sign(family, tokens).values)
            assert got[set_id].fingerprint == family.fingerprint

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_are_shared_out_to_one_task_per_cpu(self, corpus, monkeypatch, cpus):
        family, sets, want = corpus
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", 4 * 64)
        monkeypatch.setattr(minhash, "_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(minhash, "_cpu_count", lambda: cpus)
        calls = []
        hash_blocks = minhash._hash_blocks

        def recording(*args):
            calls.append((threading.get_ident(), len(args[4])))
            hash_blocks(*args)

        monkeypatch.setattr(minhash, "_hash_blocks", recording)
        got = sign_many(family, sets)
        assert {set_id: sig.values.tolist() for set_id, sig in got.items()} == want
        assert len(calls) == cpus
        if cpus > 1:
            assert threading.get_ident() not in {ident for ident, _ in calls}
        blocks = minhash._blocks([0, *np.cumsum(self.SIZES).tolist()], self.K)
        assert sum(n for _, n in calls) == len(blocks)

    def test_few_blocks_stay_on_the_calling_thread(self, corpus, monkeypatch):
        family, sets, _ = corpus
        monkeypatch.setattr(minhash, "_cpu_count", lambda: 8)
        calls = []
        hash_blocks = minhash._hash_blocks

        def recording(*args):
            calls.append(threading.get_ident())
            hash_blocks(*args)

        monkeypatch.setattr(minhash, "_hash_blocks", recording)
        sign_many(family, sets)
        assert calls == [threading.get_ident()]

    def test_blocks_respect_the_budget_and_cover_every_slot(self, monkeypatch):
        monkeypatch.setattr(minhash, "_BLOCK_HASHES", 100)
        sizes = [1, 2, 3, 30, 1, 1, 7, 200]
        offsets = [0, *np.cumsum(sizes).tolist()]
        k = 20
        blocks = minhash._blocks(offsets, k)
        covered = np.zeros((len(sizes), k), dtype=int)
        for first, end, lo, hi in blocks:
            rows = offsets[end] - offsets[first]
            assert end == first + 1 or rows * k <= 100
            assert lo < hi
            covered[first:end, lo:hi] += 1
        assert (covered == 1).all()
        # sets of 30 and 200 tokens are hashed in ranges of 3 and 1 slots
        assert [hi - lo for first, _, lo, hi in blocks if first == 3] == [3] * 6 + [2]
        assert len([b for b in blocks if b[0] == 7]) == k

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

    def test_rows_is_the_one_id_lookup(self, signed):
        _, _, got = signed
        assert got.rows([(7, 40), (0,), (np.uint64(2**64 - 1), False)]).tolist() == [1, 2, 0, 3, 0]
        assert got.rows([]).tolist() == []
        for groups, missing in (
            ([(0, 1), (1.5, 7)], 1),
            ([(0, 7), (7.0, 1)], 7.0),
            ([(0, 7), ("40", -1)], "40"),
            ([(2**64, 7)], 2**64),
        ):
            with pytest.raises(KeyError) as info:
                got.rows(groups)
            assert info.value.args == (missing,)
        assert np.array_equal(got[False].values, got[0].values) and True not in got
        with pytest.raises(KeyError):
            SignatureMatrix.stack({}).rows([(0,)])

    def test_ids_must_increase(self):
        values = np.zeros((3, 4), dtype=np.uint64)
        for ids, message in (
            ([1, 1, 2], "duplicate set id 1"),
            ([1, 3, 2], "out-of-order set id 2"),
        ):
            with pytest.raises(ValueError, match=message):
                SignatureMatrix(np.array(ids, dtype=np.uint64), values, "fp")


class TestEstimator:
    """The estimator is screening's full-width match frequency: a batch
    screened with no checkpoints."""

    @staticmethod
    def full_width(a, b):
        cfg = ScreenConfig(schedule=(), k=a.k)
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
