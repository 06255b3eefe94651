"""Set/pair file formats and exact-similarity workload generation."""

import errno
import itertools
import logging
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minscreen import workload
from minscreen.cli import main
from minscreen.sets import Pairs, jaccard_fraction
from minscreen.workload import (
    WorkloadGroup,
    WorkloadSpec,
    gen_synthetic,
    load_pairs,
    load_sets,
    parse_group,
    replace_file,
    write_pairs,
    write_sets,
    write_text,
)
from oracles import pairs_from_lines, sets_from_lines


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

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("1 abc 99999999999999999999999", "bad token 'abc'"),
            ("99999999999999999999999 abc", "token 99999999999999999999999 outside"),
            ("1 " + "1" * 5000, "token " + "1" * 5000 + " outside"),
        ],
        ids=["bad-then-large", "large-then-bad", "past-int-digit-limit"],
    )
    def test_the_first_bad_field_is_named(self, tmp_path, line, problem):
        path = tmp_path / "sets.txt"
        path.write_text(f"1 2\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {problem}")):
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
        message = f"{path}:2: bad set id {pair.split()[0]!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_pairs(str(path))

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 -1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad set id '-1'") + "$"):
            load_pairs(str(path))

    def test_set_id_range_enforced(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text(f"0 1\n2 {2**64}\n")
        message = f"{path}:2: set id {2**64} outside unsigned 64-bit range"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
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
        with pytest.raises(ValueError, match=":3: bad set id '-3'$"):
            load_pairs(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"0 1\n2 x\n3 4\xe9\n", ":2: bad set id 'x'"),
            (b"0 1\n# caf\xe9\n2 x\n", ":2: non-ASCII byte"),
            (b"0 1\n2 3 4\n\xe9\n", ":2: expected two set ids, got '2 3 4'"),
            (
                b"0 1\n" + b"1" * 5000 + b" 2\n",
                ":2: set id " + "1" * 5000 + " outside unsigned 64-bit range",
            ),
        ],
    )
    def test_the_first_bad_line_is_named(self, tmp_path, data, message):
        """A byte outside ASCII anywhere in the file does not hide an earlier
        bad line, and an id too long for int() is out of range."""
        path = tmp_path / "pairs.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}") + "$"):
            load_pairs(str(path))


class TestBothReaders:
    """One rule for the integers of both files, and one comment rule."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (f"{2**64 - 1} 7\n", ({0: {2**64 - 1, 7}}, [(2**64 - 1, 7)])),
            (f"7 {2**64 - 1}\n", ({0: {7, 2**64 - 1}}, [(7, 2**64 - 1)])),
            ("0" * 30 + "5 6\n", ({0: {5, 6}}, [(5, 6)])),
            ("3" + " \t" * 12 + "4\n", ({0: {3, 4}}, [(3, 4)])),
        ],
    )
    def test_ids_up_to_the_top_of_64_bits_are_read(self, tmp_path, text, expected):
        # an id of 20 digits or more is read by Python, with its range check;
        # a run of tabs and spaces separates two ids as one space does
        path = tmp_path / "ids.txt"
        path.write_text(text)
        assert (load_sets(str(path)), load_pairs(str(path))) == expected

    @pytest.mark.parametrize(
        "reader, suffix", [(load_sets, " (set id 1)"), (load_pairs, "")], ids=["sets", "pairs"]
    )
    def test_a_non_ascii_comment_line_is_an_error(self, tmp_path, reader, suffix):
        path = tmp_path / "ids.txt"
        path.write_bytes(b"1 2\n# caf\xc3\xa9\n3 4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-ASCII byte{suffix}") + "$"):
            reader(str(path))
        path.write_bytes(b"1 2\n  # cafe\n3 4\n")
        assert len(reader(str(path))) == 2

    def test_reading_does_not_import_numpy_ma(self, tmp_path):
        """Lines that Python checks (a comment, a 20-digit id) are merged
        without np.union1d, which imports numpy.ma (10 ms or more) on numpy
        2.4. Skipped where importing numpy alone imports it."""
        sets, pairs = tmp_path / "sets.txt", tmp_path / "pairs.txt"
        sets.write_text("# tokens\n1 2\n12345678901234567890 3\n")
        pairs.write_text("# a b\n1 2\n")
        script = (
            "import sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from minscreen.workload import load_pairs, load_sets\n"
            "assert load_sets(sys.argv[1]) == {1: {1, 2}, 2: {12345678901234567890, 3}}\n"
            "assert load_pairs(sys.argv[2]) == [(1, 2)]\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(workload.__file__))}
        run = subprocess.run(
            [sys.executable, "-c", script, str(sets), str(pairs)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        before, after = run.stdout.split()
        if before == "True":
            pytest.skip("importing numpy imports numpy.ma")
        assert after == "False"


def _first_id(text: bytes, new: bytes) -> bytes:
    """text with the first id of its first line replaced by new."""
    return new + text[text.index(b" "):]


# Byte edits of a file that write_sets or write_pairs wrote.
_EDITS = {
    "as written": lambda t: t,
    "leading zeros": lambda t: b"00" + t,
    "19 digits": lambda t: _first_id(t, b"9999999999999999999"),
    "repeated token": lambda t: t[: t.index(b" ") + 1] + t,
    "three ids on a line": lambda t: t.replace(b"\n", b" 5\n", 1),
    "tabs": lambda t: t.replace(b" ", b"\t"),
    "double spaces": lambda t: t.replace(b" ", b"  "),
    "leading space": lambda t: b" " + t,
    "trailing spaces": lambda t: t.replace(b"\n", b" \n"),
    "crlf": lambda t: t.replace(b"\n", b"\r\n"),
    "cr line ends": lambda t: t.replace(b"\n", b"\r"),
    "one lone cr": lambda t: t.replace(b"\n", b"\r", 1),
    "comment line": lambda t: b"# header\n" + t,
    "blank line": lambda t: t.replace(b"\n", b"\n\n", 1),
    "no final newline": lambda t: t[:-1],
    "2**64 - 1": lambda t: _first_id(t, b"%d" % (2**64 - 1)),
    "2**64": lambda t: _first_id(t, b"%d" % 2**64),
    "non-ascii byte": lambda t: t.replace(b"\n", b"\xe9\n", 2),
    "empty": lambda t: b"",
}


def _written_files(tmp_path):
    """A sets and a pairs file from write_sets and write_pairs, with ids of
    one to three digits."""
    spec = WorkloadSpec(
        groups=(WorkloadGroup(Fraction(1, 2), 20, 5, 9), WorkloadGroup(Fraction(9, 10), 5, 10, 20)),
        seed=95,
    )
    sets, pairs = gen_synthetic(spec)
    sets_path, pairs_path = tmp_path / "sets.txt", tmp_path / "pairs.txt"
    write_sets(str(sets_path), sets)
    write_pairs(str(pairs_path), pairs)
    return sets, pairs, sets_path, pairs_path


def _outcome(reader, path, caplog):
    """What reader gives for path: its value or its error, and its warnings."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="minscreen.workload"):
        try:
            value = reader(path)
        except ValueError as exc:  # the type and message are compared
            value = (type(exc), str(exc))
    return value, [record.getMessage() for record in caplog.records]


def _oracle_outcome(reader, path):
    """What the per-line loop of tests/oracles.py for reader gives for path,
    in _outcome's form."""
    try:
        if reader is load_pairs:
            return pairs_from_lines(path), []
        sets, duplicates = sets_from_lines(path)
    except ValueError as exc:
        return (type(exc), str(exc)), []
    return sets, [f"{path}: deduplicated {duplicates} repeated tokens"] if duplicates else []


# The pieces of _random_file's lines.
_SEPARATORS = (b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1f")
_LINE_ENDS = (b"\n", b"\r", b"\r\n")
_JUNK = (b"#", b"x", b"-", b"\xe9")


def _random_id(rng):
    """Mostly 1 to 3 digits; now and then 19 to 25, some near 2**64."""
    if rng.random() < 0.95:
        return b"%d" % rng.randrange(1000)
    if rng.random() < 0.5:
        return b"0" * rng.randrange(6) + b"%d" % (2**64 + rng.randrange(-2, 2))
    return bytes(rng.choice(b"0123456789") for _ in range(rng.randint(19, 25)))


def _random_file(rng, ids_per_line):
    """A few lines of ids and separators, each ending at a random line end
    (the last maybe at none), some with a leading '#' or other junk."""
    junk = rng.choice((0.0, 0.0, 0.03, 0.15))
    lines = []
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4, 5, 6))):
        pieces = [rng.choice(_SEPARATORS)] if rng.random() < 0.2 else []
        for index in range(rng.choice(ids_per_line)):
            if index:
                pieces += rng.choices(_SEPARATORS, k=rng.choice((1, 1, 1, 2)))
            pieces.append(_random_id(rng))
        if rng.random() < 0.2:
            pieces.append(rng.choice(_SEPARATORS))
        if rng.random() < 0.1:
            pieces.insert(0, b"#")
        for _ in range(len(pieces)):
            if rng.random() < junk:
                pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(_JUNK))
        lines.append(b"".join(pieces) + rng.choice(_LINE_ENDS))
    if lines and rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip(b"\r\n")
    return b"".join(lines)


class TestCanonicalScan:
    """Every sets and pairs file, written by write_sets or write_pairs or
    edited by hand, is read by one numpy scan of its bytes, which gives the
    values, warnings and messages of the per-line loops in tests/oracles.py."""

    @pytest.mark.parametrize("edit", list(_EDITS))
    @pytest.mark.parametrize("reader", [load_sets, load_pairs], ids=["sets", "pairs"])
    @pytest.mark.parametrize("source", ["sets", "pairs"])
    def test_scan_and_per_line_loop_agree(self, tmp_path, caplog, edit, reader, source):
        _, _, sets_path, pairs_path = _written_files(tmp_path)
        path = tmp_path / "edited.txt"
        path.write_bytes(_EDITS[edit]((sets_path if source == "sets" else pairs_path).read_bytes()))
        assert _outcome(reader, str(path), caplog) == _oracle_outcome(reader, str(path))

    @pytest.mark.parametrize(
        "reader, ids_per_line",
        [(load_sets, (0, 1, 2, 3, 3, 4)), (load_pairs, (0, 1, 2, 2, 2, 2, 3))],
        ids=["sets", "pairs"],
    )
    def test_random_files_are_read_as_the_per_line_loop_reads_them(
        self, tmp_path, caplog, reader, ids_per_line
    ):
        rng = random.Random(20)
        path = str(tmp_path / "random.txt")
        read = 0
        for _ in range(2000):
            with open(path, "wb") as fh:
                fh.write(_random_file(rng, ids_per_line))
            outcome = _outcome(reader, path, caplog)
            assert outcome == _oracle_outcome(reader, path), open(path, "rb").read()
            read += not isinstance(outcome[0], tuple)
        assert 400 < read < 1600  # both values and messages are compared

    def test_ids_are_read_column_by_column(self, tmp_path):
        values = [0, 7, 10, 99, 100, 12345, 10**18, 9999999999999999999, 10**19]
        path = tmp_path / "ids.txt"
        path.write_bytes(
            b"1 2\n# 5 6\n" + " ".join(map(str, values)).encode()
            + b"\n3\n%d 00000000000000000000042\n" % (2**64 - 1)
            + b"00000%d\n# %s 8\n9\n" % (2**64 - 2, b"1234567890" * 2 + b"12345")
        )
        ids, counts = workload._read_ids(str(path), pairs=False)
        assert ids.dtype == np.uint64
        assert ids.tolist() == [1, 2, *values, 3, 2**64 - 1, 42, 2**64 - 2, 9]
        assert counts.tolist() == [2, 0, len(values), 1, 2, 1, 0, 1]

    def test_a_pipe_is_read_once(self, tmp_path):
        path = tmp_path / "pairs.fifo"
        os.mkfifo(path)
        read = []
        threads = [
            threading.Thread(target=path.write_bytes, args=(b"0 1\r\n2 3\r\n",), daemon=True),
            threading.Thread(target=lambda: read.append(load_pairs(str(path))), daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:  # a second open of the pipe would wait for ever
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert read == [[(0, 1), (2, 3)]]

    def test_scanning_a_pairs_file_takes_no_more_memory_than_the_per_line_loop(self, tmp_path):
        pairs = list(itertools.combinations(range(300), 2))
        path = tmp_path / "pairs.txt"
        write_pairs(str(path), pairs)

        def peak(reader):
            tracemalloc.start()
            try:
                assert reader(str(path)) == pairs
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(load_pairs) <= 1.1 * peak(pairs_from_lines)

    def test_loading_pairs_keeps_no_python_object_per_pair(self, tmp_path):
        """load_pairs gives the scan's one array as a Pairs. Its peak is the
        scan's arrays, under four times the file's bytes plus the 16 bytes
        of each pair's ids: a tuple per pair and its list slot, 64 bytes or
        more a pair, would not fit under that bound."""
        pairs = list(itertools.combinations(range(300), 2))
        path = tmp_path / "pairs.txt"
        write_pairs(str(path), pairs)
        tracemalloc.start()
        try:
            loaded = load_pairs(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(loaded, Pairs) and loaded.ids.shape == (44_850, 2)
        assert loaded.ids.dtype == np.uint64 and not loaded.ids.flags.writeable
        assert loaded == pairs
        assert peak < 4 * (path.stat().st_size + 16 * len(pairs))


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

    def test_gen_files_load_back_as_generated(self, tmp_path, capsys):
        sets_path, pairs_path = tmp_path / "sets.txt", tmp_path / "pairs.txt"
        groups = ["0.5:30:5-9", "0.1:30:15-25"]
        assert main(["gen", "--group", groups[0], "--group", groups[1], "--seed", "7",
                     "--out-sets", str(sets_path), "--out-pairs", str(pairs_path)]) == 0
        assert (load_sets(str(sets_path)), load_pairs(str(pairs_path))) == gen_synthetic(
            WorkloadSpec(tuple(map(parse_group, groups)), seed=7)
        )

    def test_numpy_and_bool_ids_are_written_as_the_ints_they_are(self, tmp_path):
        sets = {0: {np.uint64(2**64 - 1), np.int8(3)}, 1: {True, np.uint16(2)}}
        pairs = [(np.int64(0), True), (np.uint8(1), False)]
        sets_path, pairs_path = tmp_path / "sets.txt", tmp_path / "pairs.txt"
        write_sets(str(sets_path), sets)
        write_pairs(str(pairs_path), pairs)
        assert sets_path.read_bytes() == b"3 18446744073709551615\n1 2\n"
        assert load_sets(str(sets_path)) == {0: {2**64 - 1, 3}, 1: {1, 2}}
        assert load_pairs(str(pairs_path)) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize(
        "writer, value, message",
        [
            (write_pairs, [(1.5, 2)], "set id 1.5 is not an integer"),
            (write_pairs, [(0, 1), (1, 2, 3)], "pair 1 is (1, 2, 3), not two set ids"),
            (write_sets, {0: {True, 2}, 1: {-3, 4}}, "token -3 outside unsigned 64-bit range"),
            (write_sets, {0: {"7"}}, "token '7' is not an integer"),
        ],
    )
    def test_a_bad_id_is_named_and_writes_nothing(self, tmp_path, writer, value, message):
        path = tmp_path / "out.txt"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            writer(str(path), value)
        assert path.read_bytes() == b"kept\n"

    def test_write_sets_requires_contiguous_ids(self, tmp_path):
        with pytest.raises(ValueError, match="contiguous"):
            write_sets(str(tmp_path / "bad.txt"), {0: {1}, 2: {2}})

    def test_text_that_cannot_be_encoded_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"kept\r\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(str(path), "a\n\u03b5\n")
        assert path.read_bytes() == b"kept\r\n"
        assert os.listdir(tmp_path) == ["out.txt"]
        write_text(str(path), "a\nb\n")
        assert path.read_bytes() == b"a\nb\n"


class TestReplaceFile:
    @pytest.mark.parametrize("old", [b"kept\n", None], ids=["existing", "new"])
    def test_a_write_that_fails_midway_leaves_the_old_file_and_no_temporary(self, tmp_path, old):
        path = tmp_path / "out.txt"
        if old is not None:
            path.write_bytes(old)

        def write_until_the_disk_is_full(fh):
            fh.write(b"0 1\n" * 1000)
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with pytest.raises(OSError) as failed:
            replace_file(str(path), write_until_the_disk_is_full)
        assert failed.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == ([] if old is None else ["out.txt"])
        assert old is None or path.read_bytes() == old


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
            ((Fraction(1, 2), 0, 2, 4), "pair count must be at least 1, got 0"),
            ((Fraction(1, 2), 3, 0, 4), "bad size range [0, 4]"),
            ((Fraction(1, 2), 3, 5, 4), "bad size range [5, 4]"),
        ],
    )
    def test_counts_pass_the_integer_rule(self, args, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            WorkloadGroup(*args)

    @pytest.mark.parametrize("jaccard", ["1/2", np.float32(0.5), None, float("nan")])
    def test_target_jaccard_must_be_rational(self, jaccard):
        message = f"target Jaccard {jaccard!r} is not a rational number"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            WorkloadGroup(jaccard, 1, 2, 4)

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
