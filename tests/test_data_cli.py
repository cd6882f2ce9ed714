"""Dataset handling, CSV round trips, simulation, and the command line."""

import codecs
import json
import os
import re
import sys

import numpy as np
import pytest

from admgfit.cli import main
from admgfit.data import Dataset, counts_for, load_data, save_data, simulate
from admgfit.graph import Admg, format_graph, read_graph
from admgfit.moebius import MAX_VERTICES, enumerate_params, prob_vector

from util import (
    graph_one, graph_one_zero_counts, graph_two, random_interior_q, strong_params_graph_one,
)


# ---------------------------------------------------------------------------
# datasets


def test_from_rows_aggregates_in_first_seen_order():
    ds = Dataset.from_rows(
        ["a", "b"], [(1, 0), (0, 0), (1, 0), (1, 1), (0, 0), (1, 0)]
    )
    assert ds.names == ("a", "b")
    assert [tuple(r) for r in ds.states] == [(1, 0), (0, 0), (1, 1)]
    assert list(ds.counts) == [3, 2, 1]
    assert ds.n == 6


def test_from_rows_refuses_what_load_data_refuses():
    with pytest.raises(ValueError, match="no variable columns"):
        Dataset.from_rows([], [])
    with pytest.raises(ValueError, match="duplicate column names"):
        Dataset.from_rows(["a", "a"], [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="values must be 0 or 1"):
        Dataset.from_rows(["a", "b"], [(0, 1), (2, 0)])


def test_count_vector_is_big_endian_and_reorderable():
    ds = Dataset.from_rows(["a", "b"], [(1, 0), (0, 0), (1, 0), (0, 1)])
    assert list(ds.count_vector()) == [1, 1, 2, 0]  # 00, 01, 10, 11
    assert list(ds.count_vector(["b", "a"])) == [1, 2, 1, 0]
    with pytest.raises(ValueError, match="do not match dataset columns"):
        ds.count_vector(["a", "c"])
    g = Admg(["b", "a"])
    assert list(counts_for(g, ds)) == [1, 2, 1, 0]


def test_count_vector_refuses_too_many_variables_before_allocating(tmp_path, capsys):
    """21 variables would take a 2^21 count vector: refused with a
    ValueError before it exists, and with exit 2 from ``fit`` and
    ``select``."""
    import tracemalloc

    names = [f"x{i}" for i in range(21)]
    rows = np.random.default_rng(41).integers(0, 2, size=(30, 21))
    ds = Dataset.from_rows(names, rows)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"too many variables \(21\)"):
            ds.count_vector()
        with pytest.raises(ValueError, match=r"too many variables \(21\)"):
            counts_for(Admg(names[::-1]), ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    dpath = tmp_path / "wide.csv"
    save_data(ds, dpath)
    gpath = tmp_path / "wide.txt"
    gpath.write_text(format_graph(Admg(names)))
    for argv in (["fit", str(gpath), str(dpath)], ["select", str(dpath)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "too many variables (21)" in captured.err and captured.out == ""


def _first_seen_reference(rows):
    """Distinct rows in the order first seen, with their multiplicities."""
    seen = {}
    for row in map(tuple, rows):
        seen[row] = seen.get(row, 0) + 1
    return [list(r) for r in seen], list(seen.values())


@pytest.mark.parametrize("width", [MAX_VERTICES, MAX_VERTICES + 1, 62, 63, 70, 125, 130])
def test_from_rows_aggregates_rows_wider_than_one_word(width):
    """Rows of up to ``MAX_VERTICES`` columns are aggregated by cell
    code, wider ones through codes of one 62-column word at a time;
    rows that differ only in their last column, or only at a word
    boundary, stay apart."""
    rng = np.random.default_rng(width)
    base = rng.integers(0, 2, size=(12, width))
    variants = [base]
    for col in {width - 1, 0, min(61, width - 1), min(62, width - 1)}:
        flipped = base.copy()
        flipped[:, col] ^= 1
        variants.append(flipped)
    rows = np.concatenate(variants + [base[:5], base[-3:]])
    rows = rows[rng.permutation(len(rows))]
    ds = Dataset.from_rows([f"c{i}" for i in range(width)], rows)
    states, counts = _first_seen_reference(rows)
    assert ds.states.tolist() == states
    assert ds.counts.tolist() == counts
    assert ds.states.dtype == np.int8 and ds.counts.dtype == np.int64
    assert ds.n == len(rows)


def test_csv_round_trip(tmp_path):
    ds = Dataset.from_rows(["x", "y", "z"], [(0, 1, 1), (1, 1, 0), (0, 1, 1)])
    path = tmp_path / "data.csv"
    save_data(ds, path)
    # the bytes of a csv.writer row by row: names quoted as needed, \n line ends
    assert path.read_bytes() == b"x,y,z,count\n0,1,1,2\n1,1,0,1\n"
    odd = Dataset(("a b", 'say "hi"', "c,d"), np.array([[1, 0, 1], [0, 0, 0]], dtype=np.int8),
                  np.array([2**62, 0]))
    save_data(odd, tmp_path / "odd.csv")
    assert (tmp_path / "odd.csv").read_bytes() == (
        b'a b,"say ""hi""","c,d",count\n1,0,1,4611686018427387904\n0,0,0,0\n')
    back = load_data(path)
    assert back.names == ds.names
    assert back.n == ds.n
    assert np.array_equal(
        back.count_vector(ds.names), ds.count_vector()
    )


def _fuzz_dataset(rng):
    """A Dataset of 1 to 20 distinct names made of commas, quotes, inner
    spaces, non-ASCII text, ``count`` and the empty string, with up to
    30 distinct rows and counts up to 2**62 that sum within int64."""
    pieces = [",", '"', "a b", "\u00e9", "\u65e5\u672c", "count", "x", "'"]
    k = int(rng.integers(1, 21))
    names: list = []
    while len(names) < k:
        name = "".join(rng.choice(pieces, size=int(rng.integers(0, 4))))
        if name not in names:
            names.append(name)
    codes = rng.choice(1 << k, int(rng.integers(0, min(30, 1 << k) + 1)), replace=False)
    states = (codes[:, None] >> np.arange(k - 1, -1, -1)) & 1
    counts = np.array([rng.integers(0, 2**int(e), endpoint=True)
                       for e in rng.integers(0, 63, size=len(codes))], dtype=np.int64)
    while sum(counts.tolist()) > 2**63 - 1:
        counts[counts.argmax()] //= 2
    return Dataset(tuple(names), states.astype(np.int8), counts)


def test_save_data_round_trips_every_dataset_it_accepts(tmp_path, monkeypatch):
    """``load_data`` gives back the names, states and counts that
    ``save_data`` wrote.  The file holds no CR and is read from its
    bytes, without the line reader, unless a count has 19 digits or is
    longer than the header and first row together; a file saved with
    CRLF line ends, as earlier versions saved it, loads to the same
    Dataset."""
    import csv

    import admgfit.data

    def refuse(*args, **kwargs):
        raise AssertionError("read other than from the bytes")

    def same(a, b):
        return (a.names == b.names and a.states.tolist() == b.states.tolist()
                and a.counts.tolist() == b.counts.tolist())

    rng = np.random.default_rng(11)
    path = tmp_path / "data.csv"
    from_bytes = 0
    for _ in range(300):
        ds = _fuzz_dataset(rng)
        save_data(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert same(load_data(path), ds), raw[:200]
        # the byte reader reads every count through a window as long as
        # the longest, ending with its line: the first row's must fit
        longest = max((len(str(c)) for c in ds.counts.tolist()), default=0)
        first_end = raw.find(b"\n", raw.find(b"\n") + 1)
        if longest <= 18 and (first_end < 0 or first_end >= longest):
            with monkeypatch.context() as m:
                m.setattr(admgfit.data, "_read_lines", refuse)
                assert same(load_data(path), ds)
            from_bytes += 1
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(
                [list(ds.names) + ["count"], *np.column_stack((ds.states, ds.counts)).tolist()])
        assert b"\r\n" in path.read_bytes()
        assert same(load_data(path), ds)
    assert from_bytes > 200


def test_save_data_refuses_names_that_would_not_read_back(tmp_path, capsys, monkeypatch):
    """A name with a line break or surrounding whitespace, a repeated
    name or no name at all raises ``ValueError`` naming the column
    before the file is opened, and exits 2 from ``simulate``."""
    path = tmp_path / "out.csv"
    for bad in ["\n", "\r", "a\nb", "a\r\nb", " a", "a ", "\ta", "a\u3000", "\x85a", "\x0b"]:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            save_data(Dataset.from_rows(["x", bad], [(0, 1)]), path)
        assert not path.exists()
    for names in [(), ("a", "a")]:
        empty = Dataset(names, np.zeros((0, len(names)), dtype=np.int8), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="none, or some repeated"):
            save_data(empty, path)
        assert not path.exists()
    # graph text cannot hold such a label, so the graph is read as one
    import admgfit.cli

    monkeypatch.setattr(admgfit.cli, "read_graph", lambda path: Admg([" a", "b"], [("b", " a")]))
    for out in ([], ["--out", str(path)]):
        assert main(["simulate", "g.txt", "10", "--seed", "1", *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: column ' a'")
        assert not path.exists()


def test_load_data_without_count_column(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n0,1\n0,1\n1,0\n\n")
    ds = load_data(path)
    assert ds.names == ("a", "b")
    assert list(ds.count_vector()) == [0, 2, 1, 0]


def test_load_data_aggregates_repeated_states(tmp_path):
    path = tmp_path / "dups.csv"
    path.write_text("a,b,count\n0,1,3\n0,1,2\n1,1,1\n")
    ds = load_data(path)
    assert list(ds.count_vector()) == [0, 5, 0, 1]


def test_load_data_error_messages(tmp_path):
    cases = [
        ("", "empty file"),
        ("count\n3\n", "no variable columns"),
        ("a,a,count\n0,1,2\n", "duplicate column names"),
        ("a,b\n0\n", "expected 2 fields"),
        ("a,b\n0,x\n", "non-integer value"),
        ("a,b,count\n0,1,-2\n", "negative count"),
        ("a,b\n0,2\n", "values must be 0 or 1"),
    ]
    for text, message in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_data(path)


def test_load_data_skips_blank_lines_and_strips_padding(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_text("a,b,count\n\n 1 , 0 , 2\n,,\n  \n0,1,3\n+1,0,1\n\t0\t,1,0\n")
    ds = load_data(path)
    assert ds.names == ("a", "b")
    assert [tuple(r) for r in ds.states] == [(1, 0), (0, 1)]
    assert list(ds.counts) == [3, 3]


def test_load_data_errors_name_the_line_after_blank_lines(tmp_path):
    cases = [
        ("a,b\n\n0,1\n,\n0,x\n", ":5: non-integer value"),
        ("a,b\n0,1\n\n \n1,1,1\n0,x\n", ":5: expected 2 fields"),
        ("a,b\n0,1\n1 1,0\n", ":3: non-integer value"),
        ("a,b,count\n\n1,2,-1\n", ":3: negative count"),
        ("a,b\n0,1\n\n-1,0\n", ":4: values must be 0 or 1"),
    ]
    for text, message in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv{message}$"):
            load_data(path)


def _load_rows_reference(path):
    """The row by row reading ``load_data`` must agree with: (names,
    distinct states in first-seen order, summed counts), or the error
    message.  A field is read as ``load_data``'s rule says: after
    ``str.strip``, a sign and ASCII digits within int64."""
    import csv
    import re

    def field(text):
        text = text.strip()
        if not re.fullmatch(r"[+-]?[0-9]+", text) or not -2**63 <= int(text) < 2**63:
            raise ValueError(text)
        return int(text)

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        has_count = header[-1].lower() == "count"
        agg = {}
        for lineno, row in enumerate(reader, 2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                return f"{path}:{lineno}: expected {len(header)} fields"
            try:
                vals = [field(c) for c in row]
            except ValueError:
                return f"{path}:{lineno}: non-integer value"
            c = vals.pop() if has_count else 1
            if c < 0:
                return f"{path}:{lineno}: negative count"
            if any(v not in (0, 1) for v in vals):
                return f"{path}:{lineno}: values must be 0 or 1"
            agg[tuple(vals)] = agg.get(tuple(vals), 0) + c
    names = tuple(header[:-1] if has_count else header)
    return names, list(agg), list(agg.values())


@pytest.mark.parametrize("tokens, weights, seps, blanks", [
    pytest.param(["0", "1", " 1", "0 ", "\t1\t", "+1", "-0", "", "10", "2", "-1", "x", "1 1", "1-",
                  "\xa01", "0" * 18 + "1", "1_0", "１", "٣", "\x1c0"],
                 [8, 8, 2, 2, 1, 1, 1, 2, 1, 0.3, 0.3, 0.2, 0.2, 0.2, 0.3, 0.3,
                  0.2, 0.2, 0.2, 0.3],
                 [","], [],
                 id="mixed"),
    # mostly the layout read from bytes, and the ways a line leaves it
    pytest.param(["0", "1", "12", "007", "1" + "0" * 18, " 1", "+1", "01", "2", "", "1,"],
                 [40, 40, 2, 1, 0.5, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
                 [","], [],
                 id="canonical"),
    # fields padded at their ends, read from the bytes without the
    # padding, and padding between a field's characters, which the line
    # reader refuses
    pytest.param(["0", "1", "1 ", "\t0", "\x0b1\x1c", "\x1f0\x0c", "12", " 7 ", "2",
                  "1 1", "0\t1", "+ 1"],
                 [20, 20, 4, 4, 1, 1, 4, 2, 0.3, 0.3, 0.3, 0.3],
                 [",", ", ", " , ", ",\t"], [" ", "\t", "\x0b\x0c", "\x1c \x1d\x1e\x1f"],
                 id="padded"),
])
def test_load_data_agrees_with_row_by_row_reading(tmp_path, tokens, weights, seps, blanks):
    rng = np.random.default_rng(14)
    # separators and padding-only lines, drawn apart from the fields
    layout = np.random.default_rng(15)
    weights = np.array(weights)
    path = tmp_path / "fuzz.csv"
    for k in range(400):
        header = ("a,b\n", "a,b,count\n", "a\n")[k % 3]
        width = header.count(",") + 1
        lines = []
        for _ in range(rng.integers(0, 8)):
            n = width if rng.random() < 0.95 else int(rng.integers(0, width + 2))
            fields = rng.choice(tokens, size=n, p=weights / weights.sum())
            if blanks and layout.random() < 0.1:
                lines.append(layout.choice(blanks))
            lines.append(layout.choice(seps).join(fields))
        path.write_text(header + "\n".join(lines) + rng.choice(["", "\n"]))
        want = _load_rows_reference(path)
        try:
            ds = load_data(path)
            got = ds.names, [tuple(r) for r in ds.states.tolist()], ds.counts.tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == want, path.read_text()


def test_load_data_field_rule(tmp_path):
    """A field is a sign and ASCII digits within int64, padded by any
    whitespace."""
    path = tmp_path / "f.csv"
    for field, count in [("\xa01\xa0", 1), ("\x851\x85", 1), ("\u30001", 1),
                         ("0" * 30 + "1", 1), ("9223372036854775807", 9223372036854775807),
                         ("-0000000000000000000", 0)]:
        path.write_text(f"a,count\n0,{field}\n")
        assert load_data(path).counts.tolist() == [count], repr(field)
    # "\u0968" is a Devanagari digit, which numpy 2.4.6's reader reads as 2360
    for field in ["１", "٣", "\u0968", "1_0", "0x1", "1e0", "1.5", "0.9",
                  "9223372036854775808", "-9223372036854775809", "1\x001"]:
        path.write_text(f"a,count\n0,1\n0,{field}\n")
        with pytest.raises(ValueError, match=r"f\.csv:3: non-integer value$"):
            load_data(path)


def test_valid_files_load_without_the_line_reader(tmp_path, monkeypatch):
    """Fields padded by ASCII whitespace at their ends, and lines of
    such padding only, are read from the bytes once the padding is
    deleted."""
    import admgfit.data

    def refuse(*args):
        raise AssertionError("line by line reader called")

    monkeypatch.setattr(admgfit.data, "_read_lines", refuse)
    path = tmp_path / "loose.csv"
    path.write_text("a,b,count\n\n 1 , 0 , 2\n  \n0,1,3\r\n\t \x0b\n1,0,1\n\t0\t,1,0\x1c\n")
    ds = load_data(path)
    assert [tuple(r) for r in ds.states] == [(1, 0), (0, 1)]
    assert list(ds.counts) == [3, 3]
    path.write_text("a,b\n0,1\n \t\n1 ,0\n\x0c\n")
    assert load_data(path).states.tolist() == [[0, 1], [1, 0]]
    path.write_text("a,b,c,d,e,count\n" + "0, 1, 1, 0, 1, 12\n1 ,\t0 , 0,1,\x1f1 ,7 \n" * 3)
    ds = load_data(path)
    assert ds.states.tolist() == [[0, 1, 1, 0, 1], [1, 0, 0, 1, 1]]
    assert ds.counts.tolist() == [36, 21]
    path.write_text("a,b\n")
    assert load_data(path).states.shape == (0, 2)
    path.write_text("a,b\n \t\n")  # padding only: no row
    assert load_data(path).states.shape == (0, 2)
    path = tmp_path / "plain.csv.gz"  # the suffix says nothing of the contents
    path.write_text("a,b\n0,1\n")
    assert load_data(path).states.tolist() == [[0, 1]]


def test_files_in_the_saved_layout_load_from_their_bytes(tmp_path, monkeypatch, capsys):
    """0/1 fields and a count of at most 18 digits, split by single
    commas, over at most MAX_VERTICES columns, are read from the bytes
    as they are, with no check for padding; signed fields, ``01``
    states, comma-only lines, 19-digit counts, counts longer than the
    header and first row, and files of more columns reach the line
    reader."""
    import admgfit.data

    read_lines = admgfit.data._read_lines
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("read other than from the bytes as they are")

    def spy(*args, **kwargs):
        calls.append(1)
        return read_lines(*args, **kwargs)

    monkeypatch.setattr(admgfit.data, "_digit_pairs", refuse)
    monkeypatch.setattr(admgfit.data, "_read_lines", refuse)
    path = tmp_path / "f.csv"
    rows = np.random.default_rng(5).integers(0, 2, size=(300, 4))
    path.write_text("a,b,c,d\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    ds = load_data(path)
    states, counts = _first_seen_reference(rows)
    assert ds.states.tolist() == states and ds.counts.tolist() == counts
    saved = Dataset.from_rows([f"x{i}" for i in range(MAX_VERTICES)],
                              np.random.default_rng(6).integers(0, 2, size=(50, MAX_VERTICES)))
    save_data(saved, path)
    back = load_data(path)
    assert back.names == saved.names and back.states.tolist() == saved.states.tolist()
    assert back.counts.tolist() == saved.counts.tolist()
    gpath = tmp_path / "g.txt"
    gpath.write_text(format_graph(graph_two()))
    assert main(["simulate", str(gpath), "500", "--seed", "3", "--out", str(path)]) == 0
    assert load_data(path).n == 500
    capsys.readouterr()
    assert main(["simulate", str(gpath), "500", "--seed", "3"]) == 0
    path.write_text(capsys.readouterr().out)
    assert load_data(path).n == 500
    path.write_text("a,b,count\n")
    assert load_data(path).states.shape == (0, 2)
    path.write_text("a,b\n\n0,1\n\n\n1,0\n0,1")
    assert load_data(path).counts.tolist() == [2, 1]
    path.write_text("a,count\n" + "0,922337203685477580\n" * 10 + "1,7\n")
    assert load_data(path).n == 2**63 - 1
    path.write_text("a,count\n" + "0,922337203685477580\n" * 10 + "1,8\n")
    with pytest.raises(ValueError, match=r"f\.csv: counts sum past 2\*\*63 - 1$"):
        load_data(path)

    monkeypatch.undo()
    monkeypatch.setattr(admgfit.data, "_read_lines", spy)
    wide = ",".join(f"x{i}" for i in range(MAX_VERTICES + 1)) + "\n" + "1," * MAX_VERTICES + "1\n"
    for text, n in [("a,b\n0,+1\n", 1), ("a,b\n0, -0\n1,1\n", 2), ("a,b\n01,1\n", 1),
                    ("a,b\n0,1\n,\n", 1), ("a,count\n1,1000000000000000000\n", 10**18),
                    (wide, 1), (wide.replace(",", ", "), 1),
                    # an 18-digit count longer than the header and first row
                    ("a,count\n1,1\n0,100000000000000000\n", 10**17 + 1)]:
        path.write_text(text)
        calls.clear()
        assert load_data(path).n == n and calls, text


def test_load_data_memory_is_a_small_multiple_of_the_file(tmp_path):
    """Reading 100,000 raw rows of 4 columns from their bytes peaks
    below 10 times the file's bytes of traced memory."""
    import tracemalloc

    rows = np.random.default_rng(8).integers(0, 2, size=(100_000, 4))
    path = tmp_path / "raw.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(map(str, r)) + "\n" for r in rows.tolist()))
    tracemalloc.start()
    try:
        ds = load_data(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 100_000
    assert peak < 10 * path.stat().st_size, peak / path.stat().st_size


def test_few_rows_aggregate_as_the_cell_table_does(tmp_path):
    """Files with fewer rows than cells are aggregated by sorting their
    codes, the others over the table of cells; on a seeded fuzz of
    both, in the saved layout and padded, with and without counts, the
    Dataset holds the distinct rows in the order first seen with their
    summed counts, as int8 states and int64 counts."""
    rng = np.random.default_rng(91)
    few = 0
    for case in range(300):
        k = int(rng.integers(1, 21))
        n = int(rng.integers(0, min(1 << k, 40) + 3))
        pool = rng.integers(0, 2, size=(int(rng.integers(1, 8)), k))
        rows = pool[rng.integers(0, len(pool), size=n)]
        has_count = bool(rng.integers(0, 2))
        counts = rng.integers(0, 5, size=n) if has_count else np.ones(n, dtype=np.int64)
        want = {}
        for r, c in zip(map(tuple, rows.tolist()), counts.tolist()):
            want[r] = want.get(r, 0) + c
        names = [f"v{i}" for i in range(k)]
        sep = ", " if case % 3 == 0 else ","
        lines = [sep.join(map(str, [*r, *([c] if has_count else [])]))
                 for r, c in zip(rows.tolist(), counts.tolist())]
        path = tmp_path / f"few{case}.csv"
        path.write_text(",".join(names + ["count"] * has_count) + "\n"
                        + "".join(line + "\n" for line in lines))
        ds = load_data(path)
        assert ds.names == tuple(names)
        assert ds.states.dtype == np.int8 and ds.counts.dtype == np.int64
        assert [tuple(r) for r in ds.states.tolist()] == list(want)
        assert ds.counts.tolist() == list(want.values())
        few += n < 1 << k
    assert 100 < few < 300


def test_a_few_row_file_allocates_nothing_of_its_cells(tmp_path):
    """50 rows of 20 columns load under 1 MiB of traced memory, where a
    table of the 2^20 cells alone would take 8 MiB."""
    import tracemalloc

    rows = np.random.default_rng(92).integers(0, 2, size=(50, 20))
    path = tmp_path / "few.csv"
    path.write_text(",".join(f"x{i}" for i in range(20)) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows.tolist()))
    tracemalloc.start()
    try:
        ds = load_data(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 50
    assert peak < 1 << 20, peak


def test_load_data_reads_past_the_first_block(tmp_path):
    """A long file that leaves the byte reader, with or without its
    padding, is read by the line reader to its end, and its first bad
    line is named, far past its first 65,536 characters."""
    path = tmp_path / "long.csv"
    rows = "0,1\n1,0\n" * 10000
    path.write_text("a,b\n" + rows + " , \n")
    assert load_data(path).counts.tolist() == [10000, 10000]
    # refused from the raw bytes, without the padding, or by the line reader only
    for bad in ["0,2", " 0 ,2", "\xa00,2"]:
        path.write_text("a,b\n" + rows + bad + "\n" + rows)
        with pytest.raises(ValueError, match=r"long\.csv:20002: values must be 0 or 1$"):
            load_data(path)


def test_load_data_reads_utf_8_names_and_every_line_end(tmp_path):
    """CR, LF and CRLF line ends read alike in both layouts, a header
    may hold any UTF-8 text, and bytes that are not UTF-8 are refused
    with a ValueError wherever they are, and with exit 2 from ``fit``."""
    path = tmp_path / "data.csv"
    for body in ("0,1,2\n1,1,3\n", " 0 , 1 ,2\n1,1,3\n"):
        for end in ("\n", "\r\n", "\r"):
            path.write_bytes(("\u00e9t\u00e9,b,count\n" + body).replace("\n", end).encode())
            ds = load_data(path)
            assert ds.names == ("\u00e9t\u00e9", "b")
            assert ds.states.tolist() == [[0, 1], [1, 1]] and ds.counts.tolist() == [2, 3]
    gpath = tmp_path / "g.txt"
    gpath.write_text("vertices: a b\na -> b\n")
    for raw in (b"a\xff,b,count\n0,1,2\n", b"a,b,count\n0,1,2\n1,1,3\xff\n"):
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError):
            load_data(path)
        assert main(["fit", str(gpath), str(path)]) == 2


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_data_reads_the_file_once():
    """A pipe can be read only once."""
    r, w = os.pipe()
    try:
        os.write(w, b"a,count\n0,2\n1,3\n")
        os.close(w)
        ds = load_data(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert ds.states.tolist() == [[0], [1]] and ds.counts.tolist() == [2, 3]


def test_load_data_refuses_counts_that_overflow(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("a,count\n" + "0,900000000000000000\n" * 11)
    with pytest.raises(ValueError, match=r"big\.csv: counts sum past 2\*\*63 - 1"):
        load_data(path)
    path.write_text("a,count\n0,9223372036854775806\n1,1\n")
    assert load_data(path).n == 9223372036854775807


def test_simulate_is_seeded_and_counts_sum_to_n():
    g = graph_one()
    q = strong_params_graph_one()
    a = simulate(g, q, 500, seed=9)
    b = simulate(g, q, 500, seed=9)
    c = simulate(g, q, 500, seed=10)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.counts, b.counts)
    assert a.n == 500
    assert a.counts.min() > 0  # only realized states are stored
    assert not np.array_equal(
        a.count_vector(a.names), c.count_vector(c.names)
    )


def test_simulate_frequencies_approach_the_model(tmp_path):
    g = graph_two()
    rng = np.random.default_rng(50)
    q = random_interior_q(g, rng)
    p = prob_vector(g, q)
    ds = simulate(g, q, 200000, seed=1)
    freq = counts_for(g, ds) / ds.n
    assert np.max(np.abs(freq - p)) < 0.01


def test_simulate_rejects_bad_inputs():
    g = graph_two()
    q = random_interior_q(g, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n must be positive"):
        simulate(g, q, 0)
    # a fractional or boolean n used to fail in numpy with a TypeError
    for bad in (2.5, True, "10", None, 10.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            simulate(g, q, bad)
    assert simulate(g, q, np.int64(10)).counts.sum() == 10
    bad = np.full(7, 0.9)
    assert prob_vector(g, bad).min() < -1e-9
    with pytest.raises(ValueError, match="outside the model"):
        simulate(g, bad, 10)
    # a NaN parameter would otherwise put every draw in the first state
    chain = Admg(["a", "b"], directed=[("a", "b")])
    with pytest.raises(ValueError, match="finite"):
        simulate(chain, [0.5, np.nan, 0.3], 100)


# ---------------------------------------------------------------------------
# command line


@pytest.fixture
def workdir(tmp_path):
    """A graph file and matching simulated data for CLI runs."""
    g = graph_one()
    gpath = tmp_path / "graph.txt"
    gpath.write_text(format_graph(g))
    ds = simulate(g, strong_params_graph_one(), 2000, seed=5)
    dpath = tmp_path / "data.csv"
    save_data(ds, dpath)
    return tmp_path, str(gpath), str(dpath)


def test_cli_info_lists_heads_and_tails(capsys):
    g = graph_one()
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.txt")
        with open(path, "w") as fh:
            fh.write(format_graph(g))
        assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "vertices: 1 2 3 4" in out
    assert "directed edges: 1 -> 2, 2 -> 4" in out
    assert "districts: {1} {2,3,4}" in out
    assert "  {2,3} | {1}" in out
    assert "  {3,4} | {1,2}" in out
    assert "parameters: 12" in out


# ``info --matrices`` on graph_two (one district) and on a graph with two
# districts, {a} alone and {b,c} whose factor also reads a
INFO_MATRICES_GRAPH_TWO = """\
vertices: 1 2 3
directed edges: 1 -> 2
bidirected edges: 1 <-> 3, 2 <-> 3
districts: {1,2,3}
heads and tails:
  {1} | {}
  {2} | {1}
  {3} | {}
  {1,3} | {}
  {2,3} | {1}
parameters: 7
district {1,2,3}: M is 8x12 over states of (1, 2, 3), P is 12x7
M =
[[ 0  0  0  0  0  0  0  0  0  0  1  0]
 [ 0  0  0  0  1  0  0  0  0  0 -1  0]
 [ 0  0  0  0  0  0  0  1  0  0 -1  0]
 [ 0  1  0  0 -1  0  0 -1  0  0  1  0]
 [ 0  0  0  0  0  0  0  0  0  1  0 -1]
 [ 0  0  0  1  0 -1  0  0  0 -1  0  1]
 [ 0  0  0  0  0  0  1 -1  0 -1  0  1]
 [ 1 -1  0 -1  0  1 -1  1  0  1  0 -1]]
P =
[[0 0 0 0 0 0 0]
 [1 0 0 0 0 0 0]
 [0 1 0 0 0 0 0]
 [0 0 1 0 0 0 0]
 [1 1 0 0 0 0 0]
 [1 0 1 0 0 0 0]
 [0 0 0 1 0 0 0]
 [0 0 0 0 1 0 0]
 [0 0 0 0 0 1 0]
 [0 0 0 0 0 0 1]
 [1 0 0 0 0 1 0]
 [1 0 0 0 0 0 1]]
terms:
  0: C={} tail={}=- blocks: -
  1: C={1} tail={}=- blocks: {1}
  2: C={2} tail={1}=0 blocks: {2}
  3: C={2} tail={1}=1 blocks: {2}
  4: C={1,2} tail={1}=0 blocks: {1} {2}
  5: C={1,2} tail={1}=1 blocks: {1} {2}
  6: C={3} tail={}=- blocks: {3}
  7: C={1,3} tail={}=- blocks: {1,3}
  8: C={2,3} tail={1}=0 blocks: {2,3}
  9: C={2,3} tail={1}=1 blocks: {2,3}
  10: C={1,2,3} tail={1}=0 blocks: {1} {2,3}
  11: C={1,2,3} tail={1}=1 blocks: {1} {2,3}
"""

INFO_MATRICES_TWO_DISTRICTS = """\
vertices: a b c
directed edges: a -> b
bidirected edges: b <-> c
districts: {a} {b,c}
heads and tails:
  {a} | {}
  {b} | {a}
  {c} | {}
  {b,c} | {a}
parameters: 6
district {a}: M is 2x2 over states of (a), P is 2x1
M =
[[ 0  1]
 [ 1 -1]]
P =
[[0]
 [1]]
terms:
  0: C={} tail={}=- blocks: -
  1: C={a} tail={}=- blocks: {a}
district {b,c}: M is 8x6 over states of (a, b, c), P is 6x5
M =
[[ 0  0  0  0  1  0]
 [ 0  1  0  0 -1  0]
 [ 0  0  0  1 -1  0]
 [ 1 -1  0 -1  1  0]
 [ 0  0  0  0  0  1]
 [ 0  0  1  0  0 -1]
 [ 0  0  0  1  0 -1]
 [ 1  0 -1 -1  0  1]]
P =
[[0 0 0 0 0]
 [1 0 0 0 0]
 [0 1 0 0 0]
 [0 0 1 0 0]
 [0 0 0 1 0]
 [0 0 0 0 1]]
terms:
  0: C={} tail={}=- blocks: -
  1: C={b} tail={a}=0 blocks: {b}
  2: C={b} tail={a}=1 blocks: {b}
  3: C={c} tail={}=- blocks: {c}
  4: C={b,c} tail={a}=0 blocks: {b,c}
  5: C={b,c} tail={a}=1 blocks: {b,c}
"""


def test_cli_info_matrices_golden_text(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.txt"
    for text, want in (
        (format_graph(graph_two()), INFO_MATRICES_GRAPH_TWO),
        ("vertices: a b c\na -> b\nb <-> c\n", INFO_MATRICES_TWO_DISTRICTS),
    ):
        gpath.write_text(text)
        assert main(["info", str(gpath), "--matrices"]) == 0
        assert capsys.readouterr().out == want
    # scipy is optional: without it the matrices end in exit 2 and a hint
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert main(["info", str(gpath), "--matrices"]) == 2
    assert "pip install 'admgfit[matrices]'" in capsys.readouterr().err


def test_cli_fit_text_and_json(workdir, capsys):
    tmp_path, gpath, dpath = workdir
    jpath = tmp_path / "report.json"
    code = main(["fit", gpath, dpath, "--json", str(jpath), "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "graph: 4 vertices, 2 directed, 2 bidirected" in out
    assert "districts: {1} {2,3,4}" in out
    assert "parameter" in out and "estimate" in out and "std.error" in out
    assert "loglik:" in out and "bic:" in out
    assert "converged: yes" in out
    payload = json.loads(jpath.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["parameters"]) == 12
    assert payload["converged"] is True
    assert payload["deviance"] >= 0


def test_cli_fit_of_a_saturated_graph_prints_no_p_value(tmp_path, capsys):
    gpath, dpath = tmp_path / "g.txt", tmp_path / "d.csv"
    gpath.write_text("vertices: a b\na <-> b\n")
    dpath.write_text("a,b,count\n0,0,5\n0,1,7\n1,0,3\n1,1,9\n")
    assert main(["fit", str(gpath), str(dpath)]) == 0
    out = capsys.readouterr().out
    assert "  df: 0\n" in out and "p-value" not in out


def test_cli_fit_exit_three_when_not_converged(workdir, capsys):
    """Zero counts keep the fit from being certified within one cycle."""
    tmp, gpath, _ = workdir
    counts = graph_one_zero_counts(20)
    dpath = tmp / "zeros.csv"
    rows = [list(map(int, np.binary_repr(i, 4))) + [int(c)] for i, c in enumerate(counts) if c]
    dpath.write_text("1,2,3,4,count\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    code = main(["fit", gpath, str(dpath), "--allow-zero-counts", "--max-cycles", "1", "--no-se"])
    captured = capsys.readouterr()
    assert code == 3
    assert "converged: no" in captured.out
    assert "did not converge" in captured.err


def test_cli_fit_json_to_stdout(workdir, capsys):
    _, gpath, dpath = workdir
    assert main(["fit", gpath, dpath, "--no-se", "--json", "-"]) == 0
    out = capsys.readouterr().out
    start = out.index("\n{\n") + 1
    payload = json.loads(out[start:])
    assert payload["parameters"][0]["std_error"] is None


def test_cli_msep_statements(workdir, capsys):
    _, gpath, _ = workdir
    assert main(["msep", gpath, "1", "3"]) == 0
    assert main(["msep", gpath, "1", "3", "--given", "2", "--walk"]) == 0
    out = capsys.readouterr().out
    assert "{1} and {3} are m-separated given {}" in out
    assert "{1} and {3} are m-connected given {2}" in out
    assert "walk:" in out


def test_cli_select_transcript(workdir, capsys):
    tmp_path, _, dpath = workdir
    jpath = tmp_path / "steps.json"
    code = main(["select", dpath, "--json", str(jpath), "--max-cycles", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "start: bic=" in out
    assert "step 1: add" in out
    assert "evaluated" in out and "candidate fits" in out
    assert "final graph:" in out
    payload = json.loads(jpath.read_text())
    assert f"district maps: {payload['maps_built']} built, {payload['maps_reused']} reused" in out
    assert payload["maps_built"] > 0 and payload["maps_reused"] > 0
    evaluated, bounded = payload["evaluated"], payload["bounded"]
    assert (f"evaluated {evaluated} candidates ({evaluated - bounded} candidate fits, "
            f"{bounded} bounded out)") in out
    assert payload["criterion"] == "bic"
    assert payload["steps"]
    assert payload["steps"][0]["action"] == "add"
    assert payload["final"]["schema_version"] == 1
    assert payload["start_value"] > payload["value"]


def test_cli_select_rejects_mismatched_start(workdir, tmp_path, capsys):
    _, _, dpath = workdir
    other = tmp_path / "other.txt"
    other.write_text("vertices: a b\na -> b\n")
    code = main(["select", dpath, "--start", str(other)])
    assert code == 2
    assert "do not match data columns" in capsys.readouterr().err


def test_cli_select_rejects_columns_the_graph_text_cannot_hold(tmp_path, capsys):
    dpath = tmp_path / "data.csv"
    dpath.write_text("a b,c,count\n0,0,3\n0,1,2\n1,0,4\n1,1,1\n")
    jpath = tmp_path / "steps.json"
    code = main(["select", str(dpath), "--json", str(jpath)])
    captured = capsys.readouterr()
    assert code == 2
    assert "'a b'" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not jpath.exists()


def test_cli_select_refuses_empty_cells_as_fit_does(tmp_path, capsys):
    """Without --allow-zero-counts, ``select`` on data with an empty cell
    fails on the count check before any fit, with the message and exit
    code of ``fit`` and no warning; with the flag it searches."""
    import warnings

    dpath = tmp_path / "data.csv"
    dpath.write_text("a,b,c,count\n0,0,0,5\n0,0,1,3\n0,1,0,2\n0,1,1,4\n"
                     "1,0,0,6\n1,0,1,1\n1,1,0,7\n")
    gpath = tmp_path / "g.txt"
    gpath.write_text("vertices: a b c\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_code = main(["fit", str(gpath), str(dpath)])
        fit_err = capsys.readouterr().err
        code = main(["select", str(dpath)])
        captured = capsys.readouterr()
    assert fit_code == 3 and "zero cell counts" in fit_err
    assert code == fit_code
    assert captured.err == fit_err and captured.out == ""
    assert main(["select", str(dpath), "--allow-zero-counts", "--no-se"]) == 0
    assert "final graph:" in capsys.readouterr().out


def test_cli_simulate_stdout_and_file(tmp_path, capsys):
    """stdout gets the bytes ``--out`` writes, which ``fit`` reads back,
    also for labels that CSV must quote."""
    gpath = tmp_path / "g.txt"
    opath = tmp_path / "sim.csv"
    spath = tmp_path / "stdout.csv"
    odd = 'vertices: a,b x"y \u00e9 c\na,b -> x"y\nx"y <-> \u00e9\n'
    for text, header in [(format_graph(graph_two()), "1,2,3,count"),
                         (odd, '"a,b","x""y",\u00e9,c,count')]:
        gpath.write_text(text, encoding="utf-8")
        assert main(["simulate", str(gpath), "2000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == header
        assert main(["simulate", str(gpath), "2000", "--seed", "2", "--out", str(opath)]) == 0
        capsys.readouterr()
        assert out.encode() == opath.read_bytes()
        spath.write_bytes(out.encode())
        ds = load_data(spath)
        assert ds.n == 2000 and ds.names == tuple(str(v) for v in read_graph(gpath).vertices)
        assert main(["fit", str(gpath), str(spath), "--allow-zero-counts", "--no-se"]) == 0
        capsys.readouterr()


def test_cli_simulate_stdout_is_utf8_whatever_its_encoding(tmp_path):
    """With stdout encoded as latin-1, ``simulate`` without ``--out``
    writes the UTF-8 bytes that ``--out`` writes, for labels latin-1
    holds and labels it does not, ``fit`` reads them, and ``fit``,
    ``select``, ``info`` and ``msep`` exit 0 printing UTF-8 that holds
    the labels."""
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="latin-1", PYTHONPATH=src)

    def admgfit(*argv):
        return subprocess.run([sys.executable, "-c", "import sys; from admgfit.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
                              cwd=tmp_path, env=env, capture_output=True, timeout=300)

    gpath = tmp_path / "g.txt"
    gpath.write_text("vertices: \u00e9 \u65e5 b\n\u00e9 -> \u65e5\n\u65e5 <-> b\n",
                     encoding="utf-8")
    opath, spath = tmp_path / "out.csv", tmp_path / "stdout.csv"
    run = admgfit("simulate", "g.txt", "500", "--seed", "4")
    assert run.returncode == 0, run.stderr
    assert admgfit("simulate", "g.txt", "500", "--seed", "4", "--out", "out.csv").returncode == 0
    assert run.stdout == opath.read_bytes()
    assert run.stdout.startswith("\u00e9,\u65e5,b,count\n".encode("utf-8"))
    spath.write_bytes(run.stdout)
    for argv in (["fit", "g.txt", "stdout.csv", "--allow-zero-counts", "--no-se"],
                 ["select", "stdout.csv", "--allow-zero-counts", "--no-se"],
                 ["info", "g.txt"],
                 ["msep", "g.txt", "\u65e5", "b", "--walk"]):
        done = admgfit(*argv)
        assert done.returncode == 0, (argv, done.stderr)
        assert "\u65e5" in done.stdout.decode("utf-8"), argv


def test_save_data_refuses_datasets_that_would_not_read_back(tmp_path):
    """States that are not a 2-D 0/1 integer array with one column per
    name, repeated rows, and counts that are not non-negative integers
    one per row raise ``ValueError`` before the file is opened;
    datasets from ``from_rows``, ``load_data`` and ``simulate`` save and
    read back equal."""
    path = tmp_path / "out.csv"
    bad = [
        (Dataset(("a",), np.array([[0], [0]]), np.array([1, 2])), "repeat a row"),
        (Dataset(("a",), np.array([[0], [2]]), np.array([1, 2])), "0 and 1"),
        (Dataset(("a", "b"), np.array([[0], [1]]), np.array([1, 2])), "one column per name"),
        (Dataset(("a",), np.array([0, 1]), np.array([1, 2])), "2-D"),
        (Dataset(("a",), np.array([[0.0], [1.0]]), np.array([1, 2])), "integer"),
        (Dataset(("a",), np.array([[0], [1]]), np.array([1, -2])), "non-negative"),
        (Dataset(("a",), np.array([[0], [1]]), np.array([1.0, 2.0])), "non-negative integers"),
        (Dataset(("a",), np.array([[0], [1]]), np.array([1])), "one per row"),
        (Dataset(("a",), np.array([[0], [1]]), np.array([2**62, 2**62])), "2\\*\\*63"),
    ]
    for ds, match in bad:
        with pytest.raises(ValueError, match=match):
            save_data(ds, path)
        assert not path.exists()

    def same(a, b):
        return (a.names == b.names and a.states.tolist() == b.states.tolist()
                and a.counts.tolist() == b.counts.tolist())

    g = graph_one()
    raw = tmp_path / "raw.csv"
    raw.write_text("1,2,3,4\n0,1,1,0\n1,1,1,1\n0,1,1,0\n")
    for ds in (Dataset.from_rows(["a", "b"], [(0, 1), (1, 1), (0, 1)]), load_data(raw),
               simulate(g, strong_params_graph_one(), 3000, seed=5)):
        save_data(ds, path)
        assert same(load_data(path), ds)


def test_cli_simulate_with_explicit_params(tmp_path, capsys):
    g = graph_one()
    gpath = tmp_path / "g.txt"
    gpath.write_text(format_graph(g))
    ppath = tmp_path / "params.json"
    ppath.write_text(json.dumps({"values": list(strong_params_graph_one())}))
    opath = tmp_path / "sim.csv"
    code = main(
        ["simulate", str(gpath), "50000", "--seed", "4",
         "--params", str(ppath), "--out", str(opath)]
    )
    assert code == 0
    ds = load_data(opath)
    freq = counts_for(g, ds) / ds.n
    p = prob_vector(g, strong_params_graph_one())
    assert np.max(np.abs(freq - p)) < 0.02

    ppath.write_text(json.dumps({"values": [0.5, 0.5]}))
    code = main(["simulate", str(gpath), "10", "--params", str(ppath)])
    assert code == 2
    assert "expected 12 values" in capsys.readouterr().err
    ppath.write_text(json.dumps({"values": [0.5] * 11 + [float("nan")]}))
    code = main(["simulate", str(gpath), "10", "--params", str(ppath)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    first = enumerate_params(g).params[0]
    ppath.write_text(json.dumps([{"head": list(first.head), "value": 0.5}]))
    assert main(["simulate", str(gpath), "10", "--params", str(ppath)]) == 2
    assert "missing parameters: q[2|1=0]" in capsys.readouterr().err
    ppath.write_text(json.dumps("0.5"))
    assert main(["simulate", str(gpath), "10", "--params", str(ppath)]) == 2
    assert "params file must be a list of entries" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "a,b,count\n0,0,3\n0,1,5\n1,1,2\n",
    " a , b ,count\r\n0, 0 ,3\r\n 0,1,5\r\n\r\n1,1 , 2\r\n",
], ids=["saved_layout", "padded"])
def test_load_data_skips_a_leading_byte_order_mark(tmp_path, text):
    """Excel's "CSV UTF-8" starts the file with a byte-order mark, which
    is not part of the first name."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    want, got = load_data(plain), load_data(marked)
    assert got.names == want.names == ("a", "b")
    assert np.array_equal(got.states, want.states) and got.states.dtype == want.states.dtype
    assert np.array_equal(got.counts, want.counts) and got.counts.dtype == want.counts.dtype


def test_cli_reads_inputs_that_start_with_a_byte_order_mark(tmp_path, capsys):
    """A graph, a data file and a params file saved with a byte-order
    mark read as they do without one."""
    g = graph_one()
    gpath, dpath, ppath = tmp_path / "g.txt", tmp_path / "d.csv", tmp_path / "params.json"
    gpath.write_bytes(codecs.BOM_UTF8 + format_graph(g).encode())
    save_data(simulate(g, strong_params_graph_one(), 2000, seed=5), dpath)
    dpath.write_bytes(codecs.BOM_UTF8 + dpath.read_bytes())
    ppath.write_bytes(codecs.BOM_UTF8
                      + json.dumps({"values": list(strong_params_graph_one())}).encode())
    assert read_graph(gpath) == g
    assert main(["fit", str(gpath), str(dpath), "--no-se"]) == 0
    assert main(["simulate", str(gpath), "10", "--params", str(ppath)]) == 0
    assert "error" not in capsys.readouterr().err


def test_cli_simulate_rejects_malformed_tail_states(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    ppath = tmp_path / "params.json"
    gpath.write_text(format_graph(Admg(["a", "b", "c"], directed=[("a", "c"), ("b", "c")])))
    entries = [
        {"head": ["a"], "value": 0.5},
        {"head": ["b"], "value": 0.5},
        *({"head": ["c"], "tail_state": [i >> 1, i & 1], "value": 0.5} for i in range(4)),
    ]
    ppath.write_text(json.dumps(entries))
    assert main(["simulate", str(gpath), "10", "--params", str(ppath)]) == 0
    capsys.readouterr()
    entries[2]["tail_state"] = [0, 0.5]
    ppath.write_text(json.dumps(entries))
    assert main(["simulate", str(gpath), "10", "--params", str(ppath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tail state" in err
    assert "Traceback" not in err
    # three parameters on a -> b: entries that are not objects, and
    # values that are not a flat list of numbers
    gpath.write_text(format_graph(Admg(["a", "b"], directed=[("a", "b")])))
    for payload in ([1, 2], {"values": 5}, {"values": [[0.5], [0.5], [0.5]]},
                    {"values": [True, 0.5, 0.5]}, [{"head": ["a"], "value": [0.5]}],
                    [{"head": ["a"], "tail_state": 0, "value": 0.5}]):
        ppath.write_text(json.dumps(payload))
        assert main(["simulate", str(gpath), "10", "--params", str(ppath)]) == 2, payload
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_cli_bench_runs_and_writes_csv(tmp_path, capsys):
    cpath = tmp_path / "bench.csv"
    code = main(
        ["bench", "--family", "fixed", "--k-max", "2", "--max-cycles", "50",
         "--csv", str(cpath)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "family" in out and "seconds" in out
    lines = cpath.read_text().strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 3  # header plus k = 1, 2


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--k-min", "3", "--k-max", "2"], "--k-max"),
        (["--k-max", "2", "--reps", "0"], "--reps"),
        (["--k-min", "-1", "--k-max", "1"], "--k-min"),
        (["--k-max", "20"], "--k-max"),
    ],
)
def test_cli_bench_rejects_ranges_it_cannot_run(tmp_path, capsys, extra, flag):
    cpath = tmp_path / "bench.csv"
    code = main(["bench", "--family", "fixed", "--csv", str(cpath)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {flag}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not cpath.exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["info", missing]) == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("a => b\n")
    assert main(["info", str(bad)]) == 2

    gpath = tmp_path / "g.txt"
    gpath.write_text("vertices: a b\na -> b\n")
    baddata = tmp_path / "bad.csv"
    baddata.write_text("a,b\n0,7\n")
    assert main(["fit", str(gpath), str(baddata)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
