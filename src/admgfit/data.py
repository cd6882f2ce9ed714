"""Binary datasets: CSV input and output, aggregation, simulation.

A dataset is a table of 0/1 rows over named variables with a
multiplicity per row.  On disk it is a CSV file with a header of
variable names and an optional trailing ``count`` column; rows without
one count once.  The reader parses a block of lines at a time with
array operations on its bytes, and rows are aggregated through one
integer code each.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Admg
from .moebius import prob_vector

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
        states = np.array(list(rows), dtype=np.int64).reshape(-1, len(names))
        if not np.isin(states, (0, 1)).all():
            raise ValueError("values must be 0 or 1")
        return _aggregate(names, states, np.ones(len(states), dtype=np.int64))

    def count_vector(self, order: Sequence | None = None) -> np.ndarray:
        """Counts of all 2^k joint states in canonical row order.

        ``order`` reorders variables (default: the dataset's own column
        order); it must name every column exactly once.
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
        out = np.zeros(1 << k, dtype=np.int64)
        weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
        idx = self.states[:, cols].astype(np.int64) @ weights
        np.add.at(out, idx, self.counts)
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


def _aggregate(names: Sequence[str], states: np.ndarray, counts: np.ndarray) -> Dataset:
    """Dataset of the distinct 0/1 rows of ``states`` in the order
    first seen, each with the sum of its rows' ``counts``."""
    _, first, inverse = np.unique(_row_codes(states), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    totals = np.zeros(len(order), dtype=np.int64)
    np.add.at(totals, rank[inverse], counts)
    return Dataset(tuple(names), states[first[order]].astype(np.int8), totals)


# bytes that pad a field: the ASCII whitespace that str.strip removes
_PAD = np.zeros(256, dtype=bool)
_PAD[list(b" \t\r\f\v\x1c\x1d\x1e\x1f")] = True
_NL, _COMMA, _PLUS, _MINUS, _ZERO, _NINE = b"\n,+-09"
# a field with more digits could overflow int64
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# characters parsed at a time; bounds the parser's working arrays
_CHUNK = 1 << 16


def _parse_lines(body: str, width: int):
    """Parse every line of ``body`` as ``width`` comma separated integers.

    A line that holds nothing but padding and commas is blank.  A field
    is an integer when it is an optional sign and 1 to 18 digits,
    padded on either side.  Returns (error, kept, values): ``error`` is
    1 per line with the wrong number of fields, else 2 when a field is
    not an integer, else 0; ``kept`` marks the lines that are neither
    blank nor in error, and ``values`` holds their fields, one row per
    kept line."""
    a = np.frombuffer((body + "\n").encode("utf-8"), dtype=np.uint8)
    pad = _PAD[a]
    is_sep = (a == _COMMA) | (a == _NL)
    ends = np.flatnonzero(is_sep)
    # a run of padding between two non-separator bytes splits a field
    pad_pos = np.flatnonzero(pad)
    first = pad_pos[np.diff(pad_pos, prepend=-2) > 1]
    last = pad_pos[np.diff(pad_pos, append=len(a) + 1) > 1]
    inner = first[(first > 0) & ~is_sep[first - 1] & ~is_sep[last + 1]]
    split = np.zeros(len(ends), dtype=bool)
    split[np.searchsorted(ends, inner)] = True

    # drop the padding: field i is then b[starts[i]:ends[i]]
    b = a[~pad]
    ends -= np.searchsorted(pad_pos, ends)
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts
    # line k holds fields line_start[k] up to the k-th newline
    line_end = np.flatnonzero(b[ends] == _NL)
    line_start = np.concatenate(([0], line_end[:-1] + 1))

    # bytes other than digits and separators: only a leading sign is allowed
    odd = np.flatnonzero(((b < _ZERO) | (b > _NINE)) & (b != _COMMA) & (b != _NL))
    odd_field = np.searchsorted(ends, odd)
    sign = (odd == starts[odd_field]) & ((b[odd] == _PLUS) | (b[odd] == _MINUS))
    n_odd = np.bincount(odd_field, minlength=len(ends))
    n_sign = np.bincount(odd_field[sign], minlength=len(ends))
    ndig = length - n_odd
    valid = ~split & (n_odd == n_sign) & (ndig >= 1) & (ndig <= _MAX_DIGITS)

    value = np.zeros(len(ends), dtype=np.int64)
    for place in range(min(int(length.max()), _MAX_DIGITS)):
        digit = b[ends - 1 - place] - _ZERO
        value += np.where(ndig > place, digit, 0) * _POW10[place]
    value[odd_field[sign & (b[odd] == _MINUS)]] *= -1

    error = np.where(line_end - line_start + 1 != width, 1, 0)
    non_integer = np.logical_or.reduceat(~valid, line_start)
    error[(error == 0) & non_integer] = 2
    blank = ~np.logical_or.reduceat(length > 0, line_start)
    error[blank] = 0
    kept = ~blank & (error == 0)
    keep_field = np.repeat(kept, line_end - line_start + 1)
    return error, kept, value[keep_field].reshape(-1, width)


def load_data(path) -> Dataset:
    """Read a CSV of 0/1 columns with an optional ``count`` column.

    Blank lines, and lines of empty fields, are skipped; fields may be
    padded with whitespace.  Errors name the file and the line, the
    header being line 1."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise ValueError(f"{path}: empty file")
    start = text.find("\n") + 1 or len(text)
    header = [h.strip() for h in next(csv.reader([text[:start].rstrip("\n")]), [])]
    has_count = bool(header) and header[-1].lower() == "count"
    names = header[:-1] if has_count else header
    if not names:
        raise ValueError(f"{path}: no variable columns")
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate column names")
    why = (f"expected {len(header)} fields", "non-integer value", "negative count",
           "values must be 0 or 1")
    k = len(names)
    states, counts = [], []
    lineno = 2  # of the chunk's first line
    while True:
        # whole lines of about _CHUNK characters at a time
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        error, kept, values = _parse_lines(text[start:stop], len(header))
        line_counts = values[:, k] if has_count else np.ones(len(values), dtype=np.int64)
        line_states = values[:, :k]
        error[kept] = np.where(line_counts < 0, 3,
                               np.where((line_states & ~1).any(axis=1), 4, 0))
        bad = np.flatnonzero(error)
        if bad.size:
            raise ValueError(f"{path}:{lineno + bad[0]}: {why[error[bad[0]] - 1]}")
        states.append(line_states.astype(np.int8))
        counts.append(line_counts)
        if stop == len(text):
            break
        # the chunk ends with a newline, so its last parsed line is empty
        lineno += len(error) - 1
        start = stop
    return _aggregate(names, np.concatenate(states), np.concatenate(counts))


def save_data(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.names) + ["count"])
        for row, c in zip(ds.states, ds.counts):
            writer.writerow([int(b) for b in row] + [int(c)])


def simulate(g: Admg, q: np.ndarray, n: int, seed: int | None = None) -> Dataset:
    """Draw ``n`` observations from the model distribution at ``q``.

    Sampling inverts the cumulative distribution over the 2^|V| joint
    states, so a seed fixes the draw exactly.
    """
    if n <= 0:
        raise ValueError("n must be positive")
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
    k = len(g.vertices)
    nz = np.flatnonzero(cells)
    states = (nz[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return Dataset(
        tuple(str(v) for v in g.vertices),
        states.astype(np.int8),
        cells[nz].astype(np.int64),
    )
