"""Dataset handling, CSV round trips, simulation, and the command line."""

import json

import numpy as np
import pytest

from admgfit.cli import main
from admgfit.data import Dataset, counts_for, load_data, save_data, simulate
from admgfit.graph import Admg, format_graph
from admgfit.moebius import prob_vector

from util import graph_one, graph_two, random_interior_q, strong_params_graph_one


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


@pytest.mark.parametrize("width", [62, 63, 70, 125, 130])
def test_from_rows_aggregates_rows_wider_than_one_word(width):
    """Rows of more than 62 columns are coded one 62-column word at a
    time; rows that differ only in their last column, or only at a word
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
    assert ds.n == len(rows)


def test_csv_round_trip(tmp_path):
    ds = Dataset.from_rows(["x", "y", "z"], [(0, 1, 1), (1, 1, 0), (0, 1, 1)])
    path = tmp_path / "data.csv"
    save_data(ds, path)
    back = load_data(path)
    assert back.names == ds.names
    assert back.n == ds.n
    assert np.array_equal(
        back.count_vector(ds.names), ds.count_vector()
    )


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
    message."""
    import csv

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
                vals = [int(c) for c in row]
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


@pytest.mark.parametrize("chunk", [None, 1, 9])
def test_load_data_agrees_with_row_by_row_reading(tmp_path, monkeypatch, chunk):
    import admgfit.data

    if chunk is not None:  # parse a few lines at a time, to cross chunk boundaries
        monkeypatch.setattr(admgfit.data, "_CHUNK", chunk)
    rng = np.random.default_rng(14)
    tokens = ["0", "1", " 1", "0 ", "\t1\t", "+1", "-0", "", "10", "2", "-1", "x", "1 1", "1-"]
    weights = np.array([8, 8, 2, 2, 1, 1, 1, 2, 1, 0.3, 0.3, 0.2, 0.2, 0.2])
    path = tmp_path / "fuzz.csv"
    for k in range(400):
        header = ("a,b\n", "a,b,count\n", "a\n")[k % 3]
        width = header.count(",") + 1
        lines = []
        for _ in range(rng.integers(0, 8)):
            n = width if rng.random() < 0.95 else int(rng.integers(0, width + 2))
            lines.append(",".join(rng.choice(tokens, size=n, p=weights / weights.sum())))
        path.write_text(header + "\n".join(lines) + rng.choice(["", "\n"]))
        want = _load_rows_reference(path)
        try:
            ds = load_data(path)
            got = ds.names, [tuple(r) for r in ds.states.tolist()], ds.counts.tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == want, path.read_text()


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


def test_cli_info_matrices_golden_text(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    for text, want in (
        (format_graph(graph_two()), INFO_MATRICES_GRAPH_TWO),
        ("vertices: a b c\na -> b\nb <-> c\n", INFO_MATRICES_TWO_DISTRICTS),
    ):
        gpath.write_text(text)
        assert main(["info", str(gpath), "--matrices"]) == 0
        assert capsys.readouterr().out == want


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


def test_cli_fit_exit_three_when_not_converged(workdir, capsys):
    _, gpath, dpath = workdir
    code = main(["fit", gpath, dpath, "--max-cycles", "1", "--tol", "1e-14"])
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
    gpath = tmp_path / "g.txt"
    gpath.write_text(format_graph(graph_two()))
    assert main(["simulate", str(gpath), "300", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    header, *rows = [ln for ln in out.splitlines() if ln]
    assert header == "1,2,3,count"
    assert sum(int(r.split(",")[-1]) for r in rows) == 300

    opath = tmp_path / "sim.csv"
    assert main(
        ["simulate", str(gpath), "300", "--seed", "2", "--out", str(opath)]
    ) == 0
    ds = load_data(opath)
    assert ds.n == 300
    stdout_counts = {tuple(int(x) for x in r.split(",")) for r in rows}
    file_counts = {
        tuple(list(map(int, s)) + [int(c)]) for s, c in zip(ds.states, ds.counts)
    }
    assert stdout_counts == file_counts


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
