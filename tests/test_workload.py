"""Set/pair file formats and exact-similarity workload generation."""

import logging
import re
from fractions import Fraction

import numpy as np
import pytest

from minscreen.sets import jaccard_fraction
from minscreen.workload import (
    WorkloadGroup,
    WorkloadSpec,
    gen_synthetic,
    load_pairs,
    load_sets,
    parse_group,
    write_pairs,
    write_sets,
)


class TestLoadSets:
    def test_basic_two_lines(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("1 2 3\n2 3 4\n")
        assert load_sets(str(path)) == {0: {1, 2, 3}, 1: {2, 3, 4}}

    def test_comment_only_file_is_empty(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("# comment\n")
        assert load_sets(str(path)) == {}

    def test_comment_lines_still_consume_ids(self, tmp_path):
        # ids are physical 0-based line numbers, so the set after a comment
        # on line 0 gets id 1
        path = tmp_path / "sets.txt"
        path.write_text("# header\n7 8\n")
        assert load_sets(str(path)) == {1: {7, 8}}

    def test_bad_token_cites_line_number(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("1\n2\n3\n4\n5\n1 abc 2\n")
        message = f"{path}:6: bad token 'abc' (set id 5)"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_sets(str(path))

    def test_empty_data_line_rejected(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("1 2\n\n3 4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: empty set (set id 1)") + "$"):
            load_sets(str(path))

    def test_duplicates_dedupe_with_warning(self, tmp_path, caplog):
        path = tmp_path / "sets.txt"
        path.write_text("5 5 6\n")
        with caplog.at_level(logging.WARNING, logger="minscreen.workload"):
            sets = load_sets(str(path))
        assert sets == {0: {5, 6}}
        assert any("deduplicated 1" in record.message for record in caplog.records)

    @pytest.mark.parametrize("token", ["1_0", "+10"])
    def test_tokens_are_plain_decimal_digits(self, tmp_path, token):
        path = tmp_path / "sets.txt"
        path.write_text(f"1 2\n3 {token} 4\n")
        message = f"{path}:2: bad token {token!r} (set id 1)"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_sets(str(path))

    def test_token_range_enforced(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text(f"{2**64}\n")
        message = f"{path}:1: token {2**64} outside unsigned 64-bit range (set id 0)"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_sets(str(path))
        path.write_text("-3 4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad token '-3' (set id 0)")):
            load_sets(str(path))


    def test_only_newline_ends_a_line(self, tmp_path):
        # form feed, vertical tab and the ASCII separators are whitespace
        # inside their line, not line breaks
        path = tmp_path / "sets.txt"
        path.write_bytes(b"1 2\x0c3\n4\x0b5\n7\x1c8\x1d9\x1e10\n")
        assert load_sets(str(path)) == {0: {1, 2, 3}, 1: {4, 5}, 2: {7, 8, 9, 10}}

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        # files are read with universal newlines
        path = tmp_path / "sets.txt"
        path.write_bytes(b"1 2\r3\r")
        assert load_sets(str(path)) == {0: {1, 2}, 1: {3}}

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_bytes(b"# header\r\n1 2\r\n3\r\n")
        assert load_sets(str(path)) == {1: {1, 2}, 2: {3}}

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_bytes(b"1 2\n3")
        assert load_sets(str(path)) == {0: {1, 2}, 1: {3}}

    def test_error_line_numbers_are_physical(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_bytes(b"1 2\x0c3\n4\x0b5\n6 x\n")
        with pytest.raises(ValueError, match=re.escape(":3: bad token 'x' (set id 2)")):
            load_sets(str(path))
        path.write_bytes(b"1\r\n2\x0c\r\n\r\n")
        with pytest.raises(ValueError, match=re.escape(":3: empty set (set id 2)")):
            load_sets(str(path))


class TestLoadPairs:
    def test_basic(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 1\n2 3\n")
        assert load_pairs(str(path)) == [(0, 1), (2, 3)]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("# header\n\n0 1\n")
        assert load_pairs(str(path)) == [(0, 1)]

    def test_wrong_field_count_cites_line(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 1\n0 1 2\n")
        message = f"{path}:2: expected two set ids, got '0 1 2'"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_pairs(str(path))

    @pytest.mark.parametrize("pair", ["1_0 2", "+1 2"])
    def test_ids_are_plain_decimal_digits(self, tmp_path, pair):
        path = tmp_path / "pairs.txt"
        path.write_text(f"0 1\n{pair}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad set id") + "$"):
            load_pairs(str(path))

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 -1\n")
        with pytest.raises(ValueError, match="negative"):
            load_pairs(str(path))


    def test_only_newline_ends_a_line(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"0\x0c1\n2\x0b3\n\x0c\n4 5\x1e\n")
        assert load_pairs(str(path)) == [(0, 1), (2, 3), (4, 5)]

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"# header\r\n\r\n0 1\r\n2 3\r\n")
        assert load_pairs(str(path)) == [(0, 1), (2, 3)]

    def test_error_line_numbers_are_physical(self, tmp_path):
        # a vertical tab does not start a line, so "2 3\x0b4 5" is one
        # line with four fields
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"0 1\x0c\n2 3\x0b4 5\n")
        with pytest.raises(ValueError, match=":2: expected two set ids"):
            load_pairs(str(path))
        path.write_bytes(b"0\x0b1\n\x0c\n2 -3\n")
        with pytest.raises(ValueError, match=":3: negative set id$"):
            load_pairs(str(path))


class TestRoundTrips:
    def test_sets_round_trip(self, tmp_path):
        sets = {0: frozenset({3, 1}), 1: frozenset({2**64 - 1}), 2: frozenset({10, 20, 30})}
        path = tmp_path / "sets.txt"
        write_sets(str(path), sets)
        assert load_sets(str(path)) == sets

    def test_pairs_round_trip(self, tmp_path):
        pairs = [(0, 1), (2, 3), (0, 3)]
        path = tmp_path / "pairs.txt"
        write_pairs(str(path), pairs)
        assert load_pairs(str(path)) == pairs

    def test_write_sets_requires_contiguous_ids(self, tmp_path):
        with pytest.raises(ValueError, match="contiguous"):
            write_sets(str(tmp_path / "bad.txt"), {0: {1}, 2: {2}})


class TestParseGroup:
    def test_range_form(self):
        group = parse_group("0.5:1000:40-60")
        assert group == WorkloadGroup(Fraction(1, 2), 1000, 40, 60)

    def test_single_size_form(self):
        group = parse_group("0.3:5:20")
        assert (group.size_lo, group.size_hi) == (20, 20)
        assert group.jaccard == Fraction(3, 10)

    def test_fraction_literal(self):
        assert parse_group("3/5:1:10-20").jaccard == Fraction(3, 5)

    def test_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="J:COUNT:LO-HI"):
            parse_group("0.5:10")
        with pytest.raises(ValueError):
            parse_group("x:10:5-6")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("1/0:5:10-20", "zero denominator"),
            ("0.5:1_0:10-20", "expected decimal digits, got '1_0'"),
            ("0.5:10:+10-20", "expected decimal digits, got '+10'"),
            ("3/2:5:10-20", "target Jaccard must lie strictly in (0, 1)"),
        ],
    )
    def test_bad_group_is_named(self, text, problem):
        with pytest.raises(ValueError, match=re.escape(f"bad group {text!r}: {problem}")):
            parse_group(text)


class TestWorkloadGroup:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((Fraction(1, 2), 1.5, 2, 4), "pair_count 1.5 is not an integer"),
            ((Fraction(1, 2), 3, 2.0, 4), "size_lo 2.0 is not an integer"),
            ((Fraction(1, 2), 3, 2, "4"), "size_hi '4' is not an integer"),
            ((Fraction(1, 2), -3, 2, 4), "pair_count -3 outside unsigned 64-bit range"),
        ],
    )
    def test_counts_pass_the_integer_rule(self, args, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            WorkloadGroup(*args)

    def test_numpy_counts_become_ints(self):
        group = WorkloadGroup(Fraction(1, 2), np.int64(3), np.uint8(2), np.int32(4))
        assert group == WorkloadGroup(Fraction(1, 2), 3, 2, 4)
        assert [type(v) for v in (group.pair_count, group.size_lo, group.size_hi)] == [int] * 3


class TestGenSynthetic:
    def test_minimal_union_of_four(self):
        # target 1/2 with sizes pinned to 3 gives the classic {a,b,c},{b,c,d}
        spec = WorkloadSpec(groups=(WorkloadGroup(Fraction(1, 2), 1, 3, 3),), seed=1)
        sets, pairs = gen_synthetic(spec)
        assert pairs == [(0, 1)]
        assert len(sets[0]) == 3 and len(sets[1]) == 3
        assert len(sets[0] | sets[1]) == 4
        assert jaccard_fraction(sets[0], sets[1]) == Fraction(1, 2)

    def test_every_generated_pair_hits_the_target_exactly(self):
        spec = WorkloadSpec(
            groups=(
                WorkloadGroup(Fraction(4, 5), 100, 15, 25),
                WorkloadGroup(Fraction(3, 10), 100, 10, 30),
            ),
            seed=42,
        )
        sets, pairs = gen_synthetic(spec)
        assert len(pairs) == 200
        assert len(sets) == 400
        for index, (id_a, id_b) in enumerate(pairs):
            assert (id_a, id_b) == (2 * index, 2 * index + 1)
            target = Fraction(4, 5) if index < 100 else Fraction(3, 10)
            assert jaccard_fraction(sets[id_a], sets[id_b]) == target
            group = spec.groups[0] if index < 100 else spec.groups[1]
            for set_id in (id_a, id_b):
                assert group.size_lo <= len(sets[set_id]) <= group.size_hi

    def test_pairs_are_token_disjoint(self):
        spec = WorkloadSpec(groups=(WorkloadGroup(Fraction(1, 2), 50, 10, 20),), seed=9)
        sets, pairs = gen_synthetic(spec)
        unions = [sets[a] | sets[b] for a, b in pairs]
        assert len(frozenset().union(*unions)) == sum(len(u) for u in unions)

    def test_seed_is_an_unsigned_64_bit_integer(self):
        groups = (WorkloadGroup(Fraction(1, 2), 1, 1, 2),)
        with pytest.raises(ValueError, match="^workload seed 1.5 is not an integer$"):
            WorkloadSpec(groups, seed=1.5)
        with pytest.raises(ValueError, match=f"^workload seed {2**64} outside unsigned 64-bit"):
            WorkloadSpec(groups, seed=2**64)
        assert gen_synthetic(WorkloadSpec(groups, seed=np.uint64(9))) == gen_synthetic(
            WorkloadSpec(groups, seed=9)
        )

    def test_deterministic_and_seed_sensitive(self):
        spec = WorkloadSpec(groups=(WorkloadGroup(Fraction(1, 2), 5, 10, 20),), seed=3)
        assert gen_synthetic(spec) == gen_synthetic(spec)
        other = WorkloadSpec(groups=spec.groups, seed=4)
        assert gen_synthetic(other)[0] != gen_synthetic(spec)[0]

    def test_degenerate_targets_rejected(self):
        with pytest.raises(ValueError, match="strictly in"):
            WorkloadGroup(Fraction(1), 1, 5, 5)
        with pytest.raises(ValueError, match="strictly in"):
            WorkloadGroup(Fraction(0), 1, 5, 5)

    def test_unreachable_size_range_rejected(self):
        spec = WorkloadSpec(groups=(WorkloadGroup(Fraction(1, 2), 1, 1, 1),), seed=0)
        with pytest.raises(ValueError, match="cannot reach"):
            gen_synthetic(spec)
        spec = WorkloadSpec(groups=(WorkloadGroup(Fraction(99, 100), 1, 1, 5),), seed=0)
        with pytest.raises(ValueError, match="cannot reach"):
            gen_synthetic(spec)

    def test_counter_wraps_at_the_domain_boundary(self):
        spec = WorkloadSpec(
            groups=(WorkloadGroup(Fraction(1, 2), 1, 3, 3),), seed=2**64 - 2
        )
        sets, _ = gen_synthetic(spec)
        tokens = sets[0] | sets[1]
        assert tokens == {2**64 - 2, 2**64 - 1, 0, 1}
