"""Binary datasets: CSV input and output, aggregation, simulation.

A dataset is a table of 0/1 rows over named variables with a
multiplicity per row.  On disk it is a CSV file with a header of
variable names and an optional trailing ``count`` column; rows without
one count once.  A field is an optional sign and ASCII digits within
int64, padded by any whitespace.  ``save_data`` and ``admgfit
simulate`` write one layout, ``csv.writer``'s with ``\\n`` line ends,
and refuse names that would read back otherwise: none, repeated ones,
or one with a line break or surrounding whitespace.  The data rows of
a file in that layout (one-character 0/1 fields and a count of at most
18 digits, split by single commas, no padding) over at most
``MAX_VERTICES`` columns are read straight from the file's bytes.
numpy's C reader, ``np.loadtxt``, reads those of any other ASCII file;
a line by line reader reads the rest and names the first bad line of a
refused file.  Rows are aggregated through one integer code each, the
cell code of a row up to ``MAX_VERTICES`` columns.
"""

from __future__ import annotations

import csv
import io
import numbers
import re
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .graph import Admg
from .moebius import MAX_VERTICES, prob_vector

__all__ = ["Dataset", "load_data", "save_data", "simulate", "counts_for"]


@dataclass(frozen=True)
class Dataset:
    """Aggregated binary observations.

    ``states`` has one 0/1 row per distinct observed pattern in the
    order first seen; ``counts`` are the matching multiplicities.
    """

    names: tuple[str, ...]
    states: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @staticmethod
    def from_rows(names: Sequence[str], rows: Iterable[Sequence[int]]) -> "Dataset":
        if not len(names):
            raise ValueError("no variable columns")
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        states = np.array(list(rows), dtype=np.int64).reshape(-1, len(names))
        if not np.isin(states, (0, 1)).all():
            raise ValueError("values must be 0 or 1")
        return _aggregate(names, states, None)

    def count_vector(self, order: Sequence | None = None) -> np.ndarray:
        """Counts of all 2^k joint states in canonical row order.

        ``order`` reorders variables (default: the dataset's own column
        order); it must name every column exactly once.  More than
        ``MAX_VERTICES`` variables raise ``ValueError`` before anything
        of size 2^k is allocated.
        """
        if order is None:
            cols = list(range(len(self.names)))
        else:
            order = [str(v) for v in order]
            if sorted(order) != sorted(self.names):
                raise ValueError(
                    f"variables {order!r} do not match dataset columns {self.names!r}"
                )
            cols = [self.names.index(v) for v in order]
        k = len(cols)
        if k > MAX_VERTICES:
            raise ValueError(f"too many variables ({k}): at most {MAX_VERTICES}")
        out = np.zeros(1 << k, dtype=np.int64)
        np.add.at(out, _row_codes(self.states[:, cols].astype(np.int8, copy=False)), self.counts)
        return out


def counts_for(g: Admg, ds: Dataset) -> np.ndarray:
    """Count vector of a dataset in the graph's canonical state order."""
    return ds.count_vector([str(v) for v in g.vertices])


def _row_codes(states: np.ndarray) -> np.ndarray:
    """One int64 per 0/1 row, equal exactly when the rows are equal.
    Each run of 62 columns is packed into one word; a further run is
    folded in through the ranks of both parts, which stay below the
    row count."""
    n, k = states.shape
    codes = np.zeros(n, dtype=np.int64)
    for lo in range(0, k, 62):
        word = np.zeros(n, dtype=np.int64)
        for col in range(lo, min(lo + 62, k)):
            word <<= 1
            word |= states[:, col]
        if lo == 0:
            codes = word
        else:
            codes = (np.unique(codes, return_inverse=True)[1] * n
                     + np.unique(word, return_inverse=True)[1])
    return codes


def _from_codes(names: Sequence[str], codes: np.ndarray, counts: np.ndarray | None) -> Dataset:
    """Dataset of the rows with cell codes ``codes`` (first column most
    significant, at most ``MAX_VERTICES`` columns): the distinct rows in
    the order first seen, each with the sum of its rows' ``counts``, or
    with its number of rows when ``counts`` is None."""
    k, n = len(names), len(codes)
    first = np.full(1 << k, n)
    np.minimum.at(first, codes, np.arange(n))
    # the codes of each cell's first row, in row order
    seen = np.zeros(n, dtype=bool)
    seen[first[first < n]] = True
    cells = codes[seen]
    if counts is None:
        totals = np.bincount(codes, minlength=1 << k)
    else:
        totals = np.zeros(1 << k, dtype=np.int64)
        np.add.at(totals, codes, counts)
    bits = np.unpackbits(cells.astype(">u4").view(np.uint8)).reshape(len(cells), 32)
    return Dataset(tuple(names), bits[:, 32 - k:].astype(np.int8), totals[cells])


def _aggregate(names: Sequence[str], states: np.ndarray, counts: np.ndarray | None) -> Dataset:
    """Dataset of the distinct 0/1 rows of ``states`` in the order
    first seen, each with the sum of its rows' ``counts``, or with its
    number of rows when ``counts`` is None."""
    if len(names) <= MAX_VERTICES:
        return _from_codes(names, _row_codes(states), counts)
    if counts is None:
        counts = np.ones(len(states), dtype=np.int64)
    _, first, inverse = np.unique(_row_codes(states), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    totals = np.zeros(len(order), dtype=np.int64)
    np.add.at(totals, rank[inverse], counts)
    return Dataset(tuple(names), states[first[order]].astype(np.int8), totals)


# a field freed of its padding by str.strip is an integer when it
# matches and lies within int64
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
# what a blank line of an ASCII file is made of
_BLANK = "".join(filter(str.isspace, map(chr, range(128)))) + ","


def _read_lines(path, lines, width: int, has_count: bool) -> np.ndarray:
    """The data rows of ``lines``, the lines after the header, read one
    line at a time.  Raises ``ValueError`` naming the first bad line,
    the header being line 1, and the first reason that holds for it."""
    rows = []
    for lineno, line in enumerate(lines, 2):
        fields = [f.strip() for f in line.split(",")]
        if not any(fields):
            continue
        if len(fields) != width:
            reason = f"expected {width} fields"
        elif not all(_INTEGER.fullmatch(f) and _INT64.min <= int(f) <= _INT64.max
                     for f in fields):
            reason = "non-integer value"
        elif has_count and int(fields[-1]) < 0:
            reason = "negative count"
        elif any(int(f) not in (0, 1) for f in fields[:width - has_count]):
            reason = "values must be 0 or 1"
        else:
            rows.append([int(f) for f in fields])
            continue
        raise ValueError(f"{path}:{lineno}: {reason}")
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def _blocks(text: str, size: int = 1 << 16):
    """``text.split("\\n")`` in lists of about ``size`` characters, so
    that the lines of a large file are never all held at once."""
    start = 0
    while (end := text.find("\n", start + size)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")


def _loadtxt(lines, width: int, has_count: bool) -> np.ndarray | None:
    """The data rows as numpy's C reader reads ``lines``, or None when
    it refuses them or they hold a state other than 0/1 or a negative
    count."""
    try:
        with warnings.catch_warnings():
            # a file without data rows is valid; numpy before 2.0 reads
            # "1.5" as 1 behind a DeprecationWarning
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            values = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    if not values.size:
        return values.reshape(0, width)
    k = width - has_count
    if values.shape[1] != width or (values[:, :k] & ~1).any() or (values[:, k:] < 0).any():
        return None
    return values


def _windows(data: np.ndarray, width: int, at: np.ndarray) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each offset in ``at``, one
    row each.  Every window is one item of a view of ``data``, so that
    no index matrix forms."""
    items = np.ndarray((len(data) - width + 1,), f"V{width}", data, strides=(1,))
    return items[at].view(np.uint8).reshape(len(at), width)


def _read_bytes(data: np.ndarray, k: int, has_count: bool):
    """(cell codes, counts or None) of the data rows in ``data``, the
    bytes of a whole file, or None when a non-empty line after the
    header breaks the layout ``save_data`` writes: k fields "0" or "1",
    then a count of 1 to 18 ASCII digits when ``has_count``, joined by
    single commas.  The number of numpy calls does not depend on k or
    on the number of rows."""
    ends = np.flatnonzero(data == 10)
    if len(ends) and data[-1] != 10:
        ends = np.append(ends, len(data))
    # the first newline ends the header
    starts, ends = ends[:-1] + 1, ends[1:]
    full = ends > starts
    if not full.all():
        starts, ends = starts[full], ends[full]
    n = len(starts)
    if not n:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64) if has_count else None
    digits = ends - starts - (2 * k - 1 + has_count)
    if not (((digits >= 1) & (digits <= 18)) if has_count else digits == 0).all():
        return None
    # 2k bytes a row: the fields and the comma after each, or with no
    # count column the newline before the line and the fields after it
    pairs = _windows(data, 2 * k, starts + (has_count - 1)).reshape(-1)
    bits, seps = pairs[1 - has_count::2], pairs[has_count::2]
    # a byte OR 1 is "1" exactly for "0" and "1"; the newlines are the
    # n separators that are not commas when there is no count column
    if not (((bits | 1) == ord("1")).all()
            and np.count_nonzero(seps == ord(",")) == n * (k - 1 + has_count)):
        return None
    # each row's bits, right-aligned in a big-endian 1, 2 or 4 byte word
    size = (1, 2, 4)[(k - 1) // 8]
    padded = np.zeros((n, 8 * size), dtype=np.uint8)
    np.bitwise_and(bits.reshape(n, k), 1, out=padded[:, 8 * size - k:])
    codes = np.packbits(padded).view(f">u{size}").astype(np.intp)
    if not has_count:
        return codes, None
    # each count is read from a window as long as the longest count that
    # ends with its line; the header keeps the windows inside the file
    # unless it and the first line are both shorter than that
    longest = int(digits.max())
    if ends[0] < longest:
        return None
    window = _windows(data, longest, ends - longest) - ord("0")
    inside = np.arange(longest) >= (longest - digits)[:, None]
    if ((window > 9) & inside).any():
        return None
    return codes, (window * inside) @ 10 ** np.arange(longest - 1, -1, -1, dtype=np.int64)


def _read_text(path, body: str, width: int, has_count: bool) -> np.ndarray:
    """The data rows of ``body``, the text after the header: read by
    numpy's reader when it is ASCII and numpy takes it, else line by
    line, which names the first bad line of a refused file."""
    values = None
    # numpy's reader is given ASCII only: numpy 2.4.6 reads some other
    # characters as digits ("\u0968" as 2360) and crashes on others
    if body.isascii():
        # numpy refuses blank lines other than empty ones, so a file with
        # a line that starts with a comma goes straight to the second try
        if not body.startswith(",") and "\n," not in body:
            values = _loadtxt(chain.from_iterable(_blocks(body)), width, has_count)
        if values is None:
            kept = ([line for line in block if line.strip(_BLANK)] for block in _blocks(body))
            values = _loadtxt(chain.from_iterable(kept), width, has_count)
    if values is None:
        values = _read_lines(path, chain.from_iterable(_blocks(body)), width, has_count)
    return values


def load_data(path) -> Dataset:
    """Read a CSV of 0/1 columns with an optional ``count`` column.

    A file in the layout ``save_data`` writes, over at most
    ``MAX_VERTICES`` columns, is read from its bytes in a fixed number
    of numpy passes; any other file by numpy's reader, or line by line.
    All three give the same Dataset for the same rows.  Lines of nothing
    but whitespace and commas are skipped.  Errors name the file and its
    first bad line, the header being line 1, with the first reason that
    holds: the wrong number of fields, a non-integer value, a negative
    count, a state other than 0/1.  Counts that sum past 2**63 - 1 are
    refused too."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    if "\r" in text:  # the newlines a text-mode read gives
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        raw = text.encode()
    if not text:
        raise ValueError(f"{path}: empty file")
    start = text.find("\n") + 1 or len(text)
    header = [h.strip() for h in next(csv.reader([text[:start].rstrip("\n")]), [])]
    del text  # the body is read from raw, and decoded again only if it leaves the layout
    has_count = bool(header) and header[-1].lower() == "count"
    names = header[:-1] if has_count else header
    if not names:
        raise ValueError(f"{path}: no variable columns")
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate column names")
    k = len(names)
    read = _read_bytes(np.frombuffer(raw, np.uint8), k, has_count) if k <= MAX_VERTICES else None
    if read is None:
        values = _read_text(path, raw.decode("utf-8")[start:], len(header), has_count)
        counts = values[:, k] if has_count else None
    else:
        codes, counts = read
    # the counts are summed in int64 from here on, which would wrap
    if has_count and counts.sum(dtype=float) >= 2.0**62 and sum(counts.tolist()) > _INT64.max:
        raise ValueError(f"{path}: counts sum past 2**63 - 1")
    if read is None:
        return _aggregate(names, values[:, :k].astype(np.int8), counts)
    return _from_codes(names, codes, counts)


def _csv_text(ds: Dataset) -> str:
    """``ds`` in the layout of :func:`save_data`; a Dataset that
    :func:`load_data` would not read back equal raises ``ValueError``."""
    if not len(ds.names) or len(set(ds.names)) < len(ds.names):
        raise ValueError(f"column names {ds.names!r}: none, or some repeated")
    for name in ds.names:
        # load_data strips each header field and ends the header at its first line break
        if not isinstance(name, str) or name != name.strip() or "\n" in name or "\r" in name:
            raise ValueError(f"column {name!r}: a name with a line break or surrounding "
                             "whitespace would not read back")
    states, counts = np.asarray(ds.states), np.asarray(ds.counts)
    if (states.dtype.kind not in "iu" or states.ndim != 2 or states.shape[1] != len(ds.names)
            or not np.isin(states, (0, 1)).all()):
        raise ValueError(f"states must be a 2-D integer array of 0 and 1 with one column "
                         f"per name, not {states.dtype} of shape {states.shape}")
    # load_data aggregates equal rows and refuses a count sum past int64
    if len(np.unique(_row_codes(states.astype(np.int8, copy=False)))) < len(states):
        raise ValueError("states repeat a row")
    counts_ok = counts.dtype.kind in "iu" and counts.shape == (len(states),)
    if not counts_ok or (counts < 0).any() or sum(counts.tolist()) > _INT64.max:
        raise ValueError("counts must be non-negative integers, one per row, "
                         "summing to at most 2**63 - 1")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [list(ds.names) + ["count"], *(s + [c] for s, c in zip(states.tolist(), counts.tolist()))])
    return out.getvalue()


def save_data(ds: Dataset, path) -> None:
    """Write ``ds`` in the CSV layout of the module docstring, which
    :func:`load_data` reads back to an equal Dataset; names it would
    not read back raise ``ValueError`` before the file is opened."""
    text = _csv_text(ds)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def simulate(g: Admg, q: np.ndarray, n: int, seed: int | None = None) -> Dataset:
    """Draw ``n`` observations from the model distribution at ``q``.

    Sampling inverts the cumulative distribution over the 2^|V| joint
    states, so a seed fixes the draw exactly.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, not {n!r}")
    if n <= 0:
        raise ValueError("n must be positive")
    if not np.all(np.isfinite(np.asarray(q, dtype=float))):
        raise ValueError("parameters must be finite")
    p = prob_vector(g, q)
    if p.min() < -1e-9:
        raise ValueError("parameters lie outside the model (negative probability)")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    cum = np.cumsum(p)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(n), side="right")
    cells = np.bincount(idx, minlength=len(p))
    nz = np.flatnonzero(cells)
    return _from_codes([str(v) for v in g.vertices], nz, cells[nz])
