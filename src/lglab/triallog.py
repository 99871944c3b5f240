"""The trial log: one record per prepared photon, and its CSV file format.

A TrialLog holds a run's records column-wise, as the estimators consume
them. The file holds one row per trial and is byte-exact for identical runs.
The writers refuse a log the reader could not read back: an empty one, one
with trial indexes out of order, a model tag or lambda_id that no row can
carry, or a chunk whose model tag or lambda kind differs from the first
chunk's, as a file holds one run. The reader reads a file once, in blocks of
whole lines, and every block one way: its line ends become \\n, it is parsed
column-wise, and only if it is then not exactly as the writer writes it
does it go through a line scanner that names the first line breaking the
schema. For reading as for writing, the first row fixes the model tag and
the lambda kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

import numpy as np

from .hidden_vars import PAIR_ORDER, PairChoice
from .rng import _is_integer

# The engine samples, the estimators fold and the trial-log writer encodes in
# chunks of this many trials, so no step holds a temporary per trial for the
# whole run.
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class TrialRecord:
    """One prepared photon: its pair choice, both outcomes, and provenance."""

    index: int
    pair: PairChoice
    s_first: int
    s_second: int
    lambda_id: Optional[Union[int, float]]
    model_tag: str


class TrialLog:
    """A run's trial records, stored column-wise.

    Behaves as a read-only sequence of TrialRecord; the column arrays are what
    the estimators consume, so a million-trial log never has to materialize a
    million record objects. A log holds consecutive trials from first_index
    on: a whole run starts at 0, and a chunk of a run starts where the chunk
    does.
    """

    def __init__(
        self,
        pair_codes: np.ndarray,
        s_first: np.ndarray,
        s_second: np.ndarray,
        lambda_ids: Optional[np.ndarray],
        model_tag: str,
        first_index: int = 0,
    ):
        n = len(pair_codes)
        if len(s_first) != n or len(s_second) != n:
            raise ValueError("column lengths disagree")
        if lambda_ids is not None and len(lambda_ids) != n:
            raise ValueError("column lengths disagree")
        if not (_is_integer(first_index) and 0 <= first_index < 1 << 64):
            raise ValueError(f"first_index must be an integer in [0, 2^64), got {first_index!r}")
        if int(first_index) + n > 1 << 64:
            raise ValueError(f"a log of {n} trials from first_index {first_index} runs past trial 2^64 - 1")
        self.pair_codes = pair_codes
        self.s_first = s_first
        self.s_second = s_second
        self.lambda_ids = lambda_ids
        self.model_tag = model_tag
        self.first_index = int(first_index)

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "TrialLog":
        """The columns of a record sequence, in its order, from the first record's index.

        As in a file, lambda_id must be None on every record or on none, every
        record must carry the first one's model tag, record k must have the
        integer index first + k, each outcome must be the integer 1 or -1 (not
        a bool) and each pair must be one PairChoice.of takes, checked in that
        order; no records give the tag "".
        """
        recs = list(records)
        lambda_ids: Optional[np.ndarray] = None
        if any(r.lambda_id is not None for r in recs):
            if any(r.lambda_id is None for r in recs):
                raise ValueError("lambda_id mixes empty and non-empty values")
            lambda_ids = np.array([r.lambda_id for r in recs])
        first, tag = (recs[0].index, recs[0].model_tag) if recs else (0, "")
        for k, rec in enumerate(recs):
            if rec.model_tag != tag:
                raise ValueError(f"record {k} has model tag {rec.model_tag!r}, but record 0 has {tag!r}")
        for k, rec in enumerate(recs):
            # record 0 comes first, so first is an integer before first + k is formed
            if not _is_integer(rec.index):
                raise ValueError(f"record {k} has index {rec.index!r}, not an integer")
            if rec.index != first + k:
                raise ValueError(f"record {k} has index {rec.index}, not {first + k}; a log's trials are consecutive")
        for k, rec in enumerate(recs):
            for name in ("s_first", "s_second"):
                outcome = getattr(rec, name)
                if not (_is_integer(outcome) and outcome in (1, -1)):
                    raise ValueError(f"record {k} has {name} {outcome!r}, not 1 or -1")
        codes = np.empty(len(recs), dtype=np.uint8)
        for k, rec in enumerate(recs):
            try:
                codes[k] = PairChoice.of(rec.pair).code
            except ValueError as exc:
                raise ValueError(f"record {k}: {exc}") from None
        columns = (
            codes,
            np.array([r.s_first for r in recs], dtype=np.int8),
            np.array([r.s_second for r in recs], dtype=np.int8),
        )
        return cls(*columns, lambda_ids, tag, first_index=first)

    def __len__(self) -> int:
        return len(self.pair_codes)

    def __getitem__(self, index: int) -> TrialRecord:
        if not _is_integer(index):
            raise TypeError("trial logs support integer indexing only")
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trial index out of range")
        lam = None
        if self.lambda_ids is not None:
            lam = self.lambda_ids[index]
            lam = float(lam) if isinstance(lam, (float, np.floating)) else int(lam)
        return TrialRecord(
            index=self.first_index + int(index),
            pair=PAIR_ORDER[int(self.pair_codes[index])],
            s_first=int(self.s_first[index]),
            s_second=int(self.s_second[index]),
            lambda_id=lam,
            model_tag=self.model_tag,
        )

    def __iter__(self) -> Iterator[TrialRecord]:
        for i in range(len(self)):
            yield self[i]

    def chunks(self) -> Iterator["TrialLog"]:
        """The log as a chunk stream: views of at most 2^16 rows, in order,
        so that no step over a whole log needs a temporary per trial."""
        if len(self) <= _CHUNK_ROWS:
            return iter((self,))
        return (_rows(self, lo, min(lo + _CHUNK_ROWS, len(self))) for lo in range(0, len(self), _CHUNK_ROWS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        if (self.model_tag, self.first_index, len(self)) != (other.model_tag, other.first_index, len(other)):
            return False
        if (self.lambda_ids is None) != (other.lambda_ids is None):
            return False
        same = (
            np.array_equal(self.pair_codes, other.pair_codes)
            and np.array_equal(self.s_first, other.s_first)
            and np.array_equal(self.s_second, other.s_second)
        )
        if same and self.lambda_ids is not None:
            same = np.array_equal(self.lambda_ids, other.lambda_ids)
        return same


def _rows(log: TrialLog, lo: int, hi: int) -> TrialLog:
    """Rows lo..hi-1 of log, as views of its columns."""
    lambdas = None if log.lambda_ids is None else log.lambda_ids[lo:hi]
    return TrialLog(
        log.pair_codes[lo:hi],
        log.s_first[lo:hi],
        log.s_second[lo:hi],
        lambdas,
        log.model_tag,
        first_index=log.first_index + lo,
    )


# -- trial log file format ----------------------------------------------------

TRIAL_LOG_HEADER = "index,pair,s_first,s_second,lambda_id,model_tag"
_HEADER_LINE = (TRIAL_LOG_HEADER + "\n").encode()

# the ",pair,s_first,s_second," middle of a row, then the '-' of a negative
# integer lambda_id (NUL otherwise), indexed by
# 8*pair_code + 2*s_first + s_second + 3 + (lambda_id < 0)
_ROW_MIDDLES = (
    np.array(
        [
            f",{p.value},{s1},{s2},{sign}".encode()
            for p in PAIR_ORDER
            for s1 in (-1, 1)
            for s2 in (-1, 1)
            for sign in ("", "-")
        ],
        dtype="S11",
    )
    .view(np.uint8)
    .reshape(24, 11)
)


def _digit_group_table() -> np.ndarray:
    """The four ASCII digits of 0..9999 as uint32 cells.

    Entry v drops the leading zeros of v (NUL in their place, so 0 is all
    NUL); entry 10^4 + v keeps them, for groups with digits above them.
    """
    values = np.arange(10_000, dtype=np.uint16)[:, None]
    powers = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (values // powers % 10).astype(np.uint8) + np.uint8(ord("0"))
    stripped = np.where(values < powers, np.uint8(0), padded)
    return np.concatenate([stripped, padded]).view(np.uint32).ravel()


_DIGIT_GROUPS = _digit_group_table()
# the same for a number's lowest group, in which 0 alone is written "0"
_LOW_GROUPS = _DIGIT_GROUPS.copy()
_LOW_GROUPS[0] = np.frombuffer(b"\0\0\0" b"0", dtype=np.uint32)[0]

# the longest canonical lambda_id: str of an int64 or repr of a float64
_LAMBDA_MAX_WIDTH = len(repr(-2.2250738585072014e-308))
# the most digits of an int64 lambda_id
_LAMBDA_MAX_DIGITS = len(str(2**63))
_INT64_MAX = 2**63 - 1

# the reader reads a file in blocks of this many bytes (1 MiB)
_READ_BLOCK = 1 << 20
# and looks for newlines in slices of this many bytes, so the offsets found
# at once take less than a column of a full chunk
_NEWLINE_SLICE = 1 << 15


def _format_lambda(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


def _n_groups(value: int) -> int:
    """How many 4-digit groups str(value) of a value >= 0 takes."""
    return (len(str(value)) + 3) // 4


def _index_groups(groups: np.ndarray, first: int) -> None:
    """Write first, first + 1, ... into the rows of groups as digit groups.

    groups is uint32, one column per group, the most significant first;
    deleting the NULs of row k gives str(first + k). Consecutive indexes
    share their upper groups and step through the lowest one, so each run of
    up to 10^4 rows takes one slice per group.
    """
    n, n_groups = groups.shape
    k = 0
    while k < n:
        upper, low = divmod(first + k, 10_000)
        run = min(n - k, 10_000 - low)
        if upper:
            low += 10_000  # a group with digits above it keeps its leading zeros
        groups[k : k + run, -1] = _LOW_GROUPS[low : low + run]
        for g in range(n_groups - 2, -1, -1):
            upper, key = divmod(upper, 10_000)
            groups[k : k + run, g] = _DIGIT_GROUPS[key + 10_000 if upper else key]
        k += run


class _RowCodec:
    """The row-codec workspace of one stream of trial-log rows.

    A stream's model tag and lambda kind (see _lambda_kind) are fixed when it
    starts, so its ",model_tag\\n" cells and its middles table are made once.
    Every chunk it writes, and every block it reads, is encoded and parsed
    through the same scratch arrays, made for up to `rows` rows. Columns only
    widen within a stream, so after its first chunk a stream allocates no
    temporary per row, save the repr of float lambda_ids; a parsed chunk's
    own columns are the one allocation per row a read makes.
    """

    def __init__(self, rows: int, model_tag: str, lambda_kind: Optional[str]):
        self.rows = rows
        self.model_tag = model_tag
        self.lambda_kind = lambda_kind
        self._tail = f",{model_tag}\n".encode("utf-8")
        # an integer lambda_id's sign rides at the end of the middle; each
        # middle is one opaque value, taken by key and copied into its column
        # through a view of each row as a record
        middle_width = 11 if lambda_kind == "int" else 10
        middles = np.ascontiguousarray(_ROW_MIDDLES[:, :middle_width])
        self._middles = middles.view(f"V{middle_width}").ravel()
        self._middle = np.empty(rows, dtype=self._middles.dtype)
        # the column widths, in cells, of the index and the lambda_id
        self._index_width = self._lambda_width = 0
        # the cell matrix, which numpy views only while a chunk is filled in,
        # as a bytearray can change size only while no array views it
        self._cells = bytearray()
        self._tail_rows = 0  # rows whose tail cells are filled
        # encoder scratch
        self._small_keys = np.empty(rows, dtype=np.int8)
        self._keys = np.empty(rows, dtype=np.intp)
        self._rest = np.empty(rows, dtype=np.uint64)
        self._above = np.empty(rows, dtype=np.uint64)
        self._key = np.empty(rows, dtype=np.uint64)
        self._group = np.empty(rows, dtype=np.uint32)
        self._mask = np.empty(rows, dtype=np.bool_)
        self._mask2 = np.empty(rows, dtype=np.bool_)
        # parser scratch
        self._newline = np.empty(_NEWLINE_SLICE, dtype=np.bool_)
        self._ends = np.empty(rows, dtype=np.intp)
        self._pos = np.empty(rows, dtype=np.intp)
        self._widths = np.empty(rows, dtype=np.intp)
        self._byte = np.empty(rows, dtype=np.uint8)
        self._text = np.empty(0, dtype=np.uint8)

    # -- encoding ---------------------------------------------------------------

    def encode(self, chunk: TrialLog) -> bytearray:
        """The rows of chunk, numbered from its first index, each ending in a newline.

        The one definition of the row format: the writer emits it, and the
        reader accepts its fast parse only when this reproduces the file bytes.
        chunk carries the stream's model tag and lambda kind.
        """
        self._fill(chunk)
        return self._cells.translate(None, b"\0")

    def _fill(self, chunk: TrialLog) -> None:
        """Fill the cell matrix with chunk's rows."""
        n = len(chunk)
        lambdas = chunk.lambda_ids
        lambda_width = 0
        if self.lambda_kind == "int":
            lambda_width = 4 * _n_groups(max(int(lambdas.max()), -int(lambdas.min())))
        elif self.lambda_kind == "float":
            # the one per-row Python format left: repr of each float
            text = np.array(list(map(repr, lambdas.tolist())), dtype="S")
            lambda_width = text.itemsize
        cells = self._cells_for(n, _n_groups(chunk.first_index + n - 1), lambda_width)
        lambda_start = self._index_width + self._middles.itemsize

        _index_groups(cells[:, : self._index_width].view(np.uint32), chunk.first_index)
        # the keys are summed in int8, where no operand needs a cast buffer
        small_keys = self._small_keys[:n]
        np.multiply(chunk.pair_codes, 8, out=small_keys, casting="unsafe")
        for outcome, weight in ((chunk.s_first, 2), (chunk.s_second, 1)):
            for _ in range(weight):
                np.add(small_keys, outcome, out=small_keys, casting="unsafe")
        np.add(small_keys, 3, out=small_keys)
        if self.lambda_kind == "int":
            negative = self._mask[:n]
            np.less(lambdas, 0, out=negative)
            np.add(small_keys, 1, out=small_keys, where=negative)
        keys = self._keys[:n]
        np.copyto(keys, small_keys)
        np.take(self._middles, keys, out=self._middle[:n], mode="clip")
        np.copyto(cells.view(self._middle_field)[:, 0]["middle"], self._middle[:n])
        lambda_cells = cells[:, lambda_start : lambda_start + self._lambda_width]
        if self.lambda_kind == "int":
            magnitudes = self._rest[:n]
            np.copyto(magnitudes, lambdas, casting="unsafe")
            np.negative(magnitudes, out=magnitudes, where=negative)  # exact for -2**63 too
            self._digit_groups(lambda_cells.view(np.uint32))
        elif self.lambda_kind == "float":
            lambda_cells[:, : text.itemsize] = text.view(np.uint8).reshape(n, -1)
            lambda_cells[:, text.itemsize :] = 0

    def _cells_for(self, n: int, index_groups: int, lambda_width: int) -> np.ndarray:
        """The cells of n rows, in columns at least as wide as the last ones."""
        index_width = max(4 * index_groups, self._index_width)
        lambda_width = max(lambda_width, self._lambda_width)
        width = index_width + self._middles.itemsize + lambda_width + len(self._tail)
        if (index_width, lambda_width) != (self._index_width, self._lambda_width):
            self._index_width, self._lambda_width = index_width, lambda_width
            self._cells = bytearray(n * width)
            self._tail_rows = 0
            self._middle_field = np.dtype(
                {"names": ["middle"], "formats": [self._middles.dtype], "offsets": [index_width], "itemsize": width}
            )
        # exactly n rows, so that translate sees no row of an earlier chunk
        size = n * width
        if size < len(self._cells):
            del self._cells[size:]
            self._tail_rows = min(self._tail_rows, n)
        elif size > len(self._cells):
            self._cells += bytes(size - len(self._cells))
        cells = np.frombuffer(self._cells, dtype=np.uint8).reshape(n, width)
        if self._tail_rows < n:
            cells[self._tail_rows :, width - len(self._tail) :] = np.frombuffer(self._tail, dtype=np.uint8)
            self._tail_rows = n
        return cells

    def _digit_groups(self, groups: np.ndarray) -> None:
        """Write self._rest, magnitudes, into the rows of groups as digit
        groups, as _index_groups writes indexes; clobbers the magnitudes."""
        n = len(groups)
        rest, above, key = self._rest[:n], self._above[:n], self._key[:n]
        has_above, cell = self._mask[:n], self._group[:n]
        table = _LOW_GROUPS
        for g in range(groups.shape[1] - 1, -1, -1):
            np.divmod(rest, 10_000, out=(above, key))
            np.not_equal(above, 0, out=has_above)
            np.add(key, 10_000, out=key, where=has_above)
            np.take(table, key.view(np.int64), out=cell, mode="clip")
            np.copyto(groups[:, g], cell)
            rest, above = above, rest
            table = _DIGIT_GROUPS

    # -- parsing ----------------------------------------------------------------

    def parse(self, rows, first: int) -> TrialLog:
        """The rows in the buffer rows, numbered from first, if encode reproduces them.

        The parse itself is loose: it finds the newlines, then each field from
        the width of the row's index, which first + k fixes, and the widths of
        the outcomes before it. The re-encoding check is what makes every
        accepted block parse exactly as the line scanner would parse it. The
        chunk's columns are allocated for it, so it is the caller's to keep.
        """
        block = np.frombuffer(rows, dtype=np.uint8)
        n = self._newlines(block)
        lambdas = None if self.lambda_kind is None else np.empty(n, _LAMBDA_DTYPES[self.lambda_kind])
        columns = np.empty(n, np.uint8), np.empty(n, np.int8), np.empty(n, np.int8), lambdas
        chunk = TrialLog(*columns, self.model_tag, first)
        self._columns(block, chunk)
        if self.encode(chunk) != rows:
            raise _NotCanonical
        return chunk

    def _columns(self, block: np.ndarray, chunk: TrialLog) -> None:
        """Fill chunk's columns from the rows of block, whose newlines are in self._ends."""
        n, first = len(chunk), chunk.first_index
        ends, pos, byte, mask = self._ends[:n], self._pos[:n], self._byte[:n], self._mask[:n]
        # each row's pair starts after its index and a comma
        pos[0] = 0
        np.add(ends[:-1], 1, out=pos[1:])
        digits = len(str(first))
        np.add(pos, digits + 1, out=pos)
        power = 10**digits
        while power < first + n:
            pos[power - first :] += 1
            power *= 10
        # "12", "13", "23" -> 0, 1, 2 from the sum of the two digits
        pair_codes = chunk.pair_codes
        np.take(block, pos, out=pair_codes, mode="clip")
        np.add(pos, 1, out=pos)
        np.take(block, pos, out=byte, mode="clip")
        np.add(pair_codes, byte, out=pair_codes)
        np.subtract(pair_codes, ord("1") + ord("2"), out=pair_codes)
        if pair_codes.max() > 2:
            raise _NotCanonical
        # each outcome starts two bytes after the field before it ends; "1" is
        # one byte wide, "-1" two
        for outcome in (chunk.s_first, chunk.s_second):
            np.add(pos, 2, out=pos)
            np.take(block, pos, out=byte, mode="clip")
            np.equal(byte, ord("-"), out=mask)
            outcome.fill(1)
            np.copyto(outcome, -1, where=mask)
            np.add(pos, 1, out=pos, where=mask)
        if self.lambda_kind is not None:
            np.add(pos, 2, out=pos)
            # lambda_id runs from pos up to the comma of ",model_tag\n"
            widths = self._widths[:n]
            np.subtract(ends, len(self._tail) - 1, out=widths)
            np.subtract(widths, pos, out=widths)
            if widths.min() < 1 or widths.max() > _LAMBDA_MAX_WIDTH:
                raise _NotCanonical
            parse_lambdas = self._parse_floats if self.lambda_kind == "float" else self._parse_ints
            parse_lambdas(block, pos, widths, chunk.lambda_ids)

    def _newlines(self, block: np.ndarray) -> int:
        """Put the offsets of the newlines in block into self._ends; return how many."""
        n = 0
        for lo in range(0, len(block), _NEWLINE_SLICE):
            piece = block[lo : lo + _NEWLINE_SLICE]
            at = np.flatnonzero(np.equal(piece, ord("\n"), out=self._newline[: len(piece)]))
            if n + len(at) > self.rows:  # rows shorter than a canonical row can be
                raise _NotCanonical
            np.add(at, lo, out=self._ends[n : n + len(at)])
            n += len(at)
        return n

    def _parse_ints(self, block: np.ndarray, starts: np.ndarray, widths: np.ndarray, out: np.ndarray) -> None:
        n = len(starts)
        byte, negative, is_digit = self._byte[:n], self._mask[:n], self._mask2[:n]
        np.take(block, starts, out=byte, mode="clip")
        np.equal(byte, ord("-"), out=negative)
        # the digits run back from the field's end; widths becomes their count
        at = starts
        np.add(at, widths, out=at)  # the field's end
        np.subtract(widths, 1, out=widths, where=negative)
        if widths.min() < 1 or widths.max() > _LAMBDA_MAX_DIGITS:
            raise _NotCanonical
        values, term = out.view(np.uint64), self._key[:n]
        values.fill(0)
        for j in range(int(widths.max())):
            np.subtract(at, 1, out=at)
            np.take(block, at, out=byte, mode="clip")
            np.subtract(byte, ord("0"), out=byte)
            np.copyto(term, byte)
            np.multiply(term, 10**j, out=term)
            np.greater(widths, j, out=is_digit)
            np.add(values, term, out=values, where=is_digit)
        np.negative(values, out=values, where=negative)

    def _parse_floats(self, block: np.ndarray, starts: np.ndarray, widths: np.ndarray, out: np.ndarray) -> None:
        n, width = len(starts), int(widths.max())
        if len(self._text) < self.rows * _LAMBDA_MAX_WIDTH:
            self._text = np.empty(self.rows * _LAMBDA_MAX_WIDTH, dtype=np.uint8)
        # one fixed-width, NUL-padded byte string per row
        text = self._text[: n * width].reshape(n, width)
        byte, inside = self._byte[:n], self._mask[:n]
        for j in range(width):
            np.take(block, starts, out=byte, mode="clip")
            np.greater(widths, j, out=inside)
            np.multiply(byte, inside, out=text[:, j])
            np.add(starts, 1, out=starts)
        try:
            np.copyto(out, text.view(f"S{width}")[:, 0], casting="unsafe")
        except (ValueError, OverflowError):
            raise _NotCanonical from None
        # the scanner rejects "inf" and "nan", which repr writes for non-finite floats
        if not np.isfinite(out, out=inside).all():
            raise _NotCanonical


def _check_tag(tag: str) -> None:
    """Refuse a model tag that no row can carry: the one tag rule of the
    writers and the reader.

    Rows are assembled as fixed-width uint8 cells, one per row, in which a
    field shorter than its column is padded with NUL; deleting every NUL from
    the joined cells leaves the rows. A model tag is therefore a str that
    holds no NUL, nor the ',' and newlines that would split its row.
    """
    if not isinstance(tag, str):
        raise ValueError(f"model tag {tag!r} is not a str, which a trial log cannot carry")
    if not frozenset(",\n\r\0").isdisjoint(tag):
        raise ValueError(f"model tag {tag!r} holds ',', a line break or NUL, which a trial log cannot carry")
    try:
        tag.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"model tag {tag!r} is not valid UTF-8 text, which a trial log cannot carry") from None


def _check_chunk(chunk: TrialLog) -> None:
    """Refuse a chunk whose pair codes or outcomes are not integer columns,
    or with a pair code other than 0, 1 or 2 or an outcome other than 1 or
    -1, naming the value and its first trial: the one rule of the writers
    and the estimators' fold."""
    codes = chunk.pair_codes
    if codes.dtype.kind not in "iu":
        raise ValueError(f"pair codes must be integers 0, 1 or 2, got dtype {codes.dtype}")
    if len(codes) and (codes.min() < 0 or codes.max() > 2):
        at = int(np.flatnonzero((codes < 0) | (codes > 2))[0])
        raise ValueError(f"pair code {codes[at].item()!r} at trial {chunk.first_index + at} is not 0, 1 or 2")
    columns = (chunk.s_first, chunk.s_second)
    for column in columns:
        if column.dtype.kind not in "iu":
            raise ValueError(f"outcomes must be 1 or -1, got dtype {column.dtype}")
    # with no temporary per row: within [-1, 1] and never 0
    if len(codes) and not all(c.min() >= -1 and c.max() <= 1 and np.count_nonzero(c) == len(c) for c in columns):
        bad = [(column != 1) & (column != -1) for column in columns]
        at = int(np.flatnonzero(bad[0] | bad[1])[0])
        value = columns[0][at] if bad[0][at] else columns[1][at]
        raise ValueError(f"outcome {value.item()!r} at trial {chunk.first_index + at} is not 1 or -1")


# how the reader reads each lambda kind
_LAMBDA_DTYPES = {"int": np.int64, "float": np.float64}


def _lambda_kind(lambdas: Optional[np.ndarray]) -> Optional[str]:
    """How rows write a lambda column: None (empty), "int" (booleans as 1/0,
    as _record_row's int() writes them) or "float" (repr)."""
    if lambdas is None:
        return None
    if lambdas.dtype.kind not in "biuf":
        raise ValueError(f"lambda_id must be bool, integer or float, got dtype {lambdas.dtype}")
    return "float" if lambdas.dtype.kind == "f" else "int"


def _check_columns(log: TrialLog) -> None:
    _check_tag(log.model_tag)
    if not len(log):
        raise ValueError("the trial log is empty; a trial log file holds at least one trial")
    _check_chunk(log)
    lambdas = log.lambda_ids
    kind = _lambda_kind(lambdas)
    if kind is None:
        return
    # the reader reads integer lambda_ids as int64
    if lambdas.dtype.kind == "u" and lambdas.max() > _INT64_MAX:
        k = int(np.argmax(lambdas > _INT64_MAX))
        raise ValueError(f"trial {log.first_index + k}: lambda_id {lambdas[k]} does not fit in int64")
    # repr writes a non-finite float as inf or nan, which the reader refuses; min
    # and max pass a NaN on, so a finite column costs no temporary per row
    if kind == "float" and not (np.isfinite(lambdas.min()) and np.isfinite(lambdas.max())):
        k = int(np.flatnonzero(~np.isfinite(lambdas))[0])
        raise ValueError(
            f"trial {log.first_index + k}: lambda_id {lambdas[k]} is not finite, which a trial log cannot carry"
        )


class TrialLogWriter:
    """A binary file open for writing, with the row-codec workspace that every
    TrialLog written to it goes through.

    write(chunk) for each chunk of a run, in order, writes the bytes of the
    whole log, and no chunk after the first allocates its own encoding
    temporaries. The header comes with the first chunk, which must start at
    trial 0 and fixes the file's model tag and lambda kind; every later
    chunk must start where the one before it ended and carry the same tag
    and kind. A chunk that does not is refused with ValueError before a byte
    of it is written.
    """

    def __init__(self, file):
        self.file = file
        self._codec: Optional[_RowCodec] = None  # made for the first chunk
        self.next_index = 0  # the index of the file's next row

    def write(self, log: TrialLog) -> None:
        _check_columns(log)
        if log.first_index != self.next_index:
            raise ValueError(
                f"the next row of this trial log is trial {self.next_index}, but the chunk starts at trial "
                f"{log.first_index}; write the chunks of a run in order, from trial 0"
            )
        schema = (log.model_tag, _lambda_kind(log.lambda_ids))
        if self._codec is None:  # an empty chunk was refused above
            self._codec = _RowCodec(_CHUNK_ROWS, *schema)
            self.file.write(_HEADER_LINE)
        elif schema != (self._codec.model_tag, self._codec.lambda_kind):
            raise ValueError(
                f"the chunk at trial {log.first_index} has model tag {schema[0]!r} and lambda kind {schema[1]}, "
                f"but this trial log's first chunk fixed model tag {self._codec.model_tag!r} and lambda kind "
                f"{self._codec.lambda_kind}; a trial log file holds one run of one world"
            )
        self.next_index += len(log)
        for chunk in log.chunks():
            self.file.write(self._codec.encode(chunk))


def write_trial_log(log: TrialLog, path) -> None:
    """Write the CSV trial log: byte-exact for identical runs.

    Columns: index,pair,s_first,s_second,lambda_id,model_tag with pair encoded
    as 12|13|23 and lambda_id empty for the quantum world. Unix newlines, no
    trailing whitespace. A log no reader could take back is refused with
    ValueError before the file is made: an empty one, one whose first_index
    is not 0 (a file holds a whole run), one whose model tag is not a str,
    holds ',', a line break or NUL or is not UTF-8 text, one with pair codes
    or outcomes the estimators refuse (in their words: a column that is not
    an integer one, or a bad value named with its first trial), or
    one whose lambda_ids are not bool, integer or float, or do not fit in
    int64, or are not finite.
    Records go to a file as TrialLog.from_records(records).

    A TrialLog may also go to a TrialLogWriter: its rows are then the file's
    next trials, numbered on from the rows before them, whatever its
    first_index. TrialLogWriter.write(log) instead refuses a chunk that does
    not start where the file stands.
    """
    if isinstance(path, TrialLogWriter):
        # perfbench's flipping shim passes each chunk of `lglab run` on
        # rebuilt from its columns alone, so with first_index 0
        path.write(TrialLog(log.pair_codes, log.s_first, log.s_second, log.lambda_ids, log.model_tag, path.next_index))
        return
    if log.first_index != 0:
        raise ValueError(
            f"a trial log file starts at trial 0, but this log's first_index is {log.first_index}; "
            "write the chunks of a run in order to one TrialLogWriter"
        )
    _check_columns(log)
    with open(path, "wb") as out:
        TrialLogWriter(out).write(log)


def _record_row(rec: TrialRecord) -> str:
    """The CSV row of one record, at any index, without its newline: the
    one-row oracle of the row format, which the column encoder reproduces."""
    return (
        f"{rec.index},{rec.pair.value},{rec.s_first},{rec.s_second},"
        f"{_format_lambda(rec.lambda_id)},{rec.model_tag}"
    )


class TrialLogFormatError(ValueError):
    """A trial log file violates the documented schema; names the line."""


class _NotCanonical(Exception):
    """A block is not exactly as write_trial_log writes its columns."""


_T = TypeVar("_T")


def fold_trial_log(path, fold: Callable[[Iterator[TrialLog]], _T]) -> _T:
    """fold(chunks) over the log's chunks, in index order, each with its own arrays.

    The file is read once, in blocks of whole lines (1 MiB), and fold is
    called once. Every block is read one way: its line ends become \\n, as
    the line scanner's universal newlines make them, and it is parsed
    column-wise into one chunk. Only a block that is then not exactly as
    write_trial_log writes it goes through the line scanner, which names the
    first line that breaks the schema. Only a file with no \\n at all, such
    as one with lone-CR line ends, is held whole.
    """
    with open(path, "rb") as f:
        return fold(_chunks(f))


def read_trial_log(path) -> TrialLog:
    """Parse a CSV trial log (see fold_trial_log for how)."""
    return fold_trial_log(path, _concatenate)


def _concatenate(chunks: Iterator[TrialLog]) -> TrialLog:
    """The chunks as one log."""
    parts = list(chunks)
    if len(parts) == 1:
        return parts[0]
    lambdas = None if parts[0].lambda_ids is None else np.concatenate([p.lambda_ids for p in parts])
    rows = [(p.pair_codes, p.s_first, p.s_second) for p in parts]
    columns = [np.concatenate(column) for column in zip(*rows)]
    return TrialLog(*columns, lambdas, parts[0].model_tag, first_index=parts[0].first_index)


def _chunks(f) -> Iterator[TrialLog]:
    """One chunk for each block of whole lines read from f (see fold_trial_log).

    A block ends at its last newline, or at the end of the file; the partial
    line after it moves to the front of the buffer, and a line longer than
    the buffer doubles it. The header line comes off the first block, and
    the first row, as the line scanner reads it, fixes the model tag and
    lambda kind of the row codec that parses every block.
    """
    buf = bytearray(_READ_BLOCK)
    kept = first = 0
    header, codec = True, None  # the header is still to come off the first block
    while True:
        if kept == len(buf):
            buf += bytes(len(buf))
        with memoryview(buf) as view:
            got = f.readinto(view[kept:])
        filled = kept + got
        end = buf.rfind(b"\n", 0, filled) + 1 if got else filled
        if got and not end:
            kept = filled
            continue
        if not end:
            break
        data, stop = _unix_lines(buf, end)
        start = 0
        if header:
            if not data.startswith(_HEADER_LINE, 0, stop):
                break  # refused below, as an empty file is
            start, header = len(_HEADER_LINE), False
        if start < stop:
            if codec is None:
                row = _scan_lines(_decode_text(data[start : data.index(b"\n", start) + 1], 2))
                try:
                    _check_tag(row.model_tag)
                except ValueError as exc:
                    raise TrialLogFormatError(f"line 2: {exc}") from None
                lambda_kind = _lambda_kind(row.lambda_ids)
                # no canonical row is shorter than "0,12,1,1," + lambda_id + ",model_tag\n"
                shortest = len(f"0,12,1,1,{'0' if lambda_kind else ''},{row.model_tag}\n".encode("utf-8"))
                codec = _RowCodec(len(buf) // shortest, row.model_tag, lambda_kind)
            try:
                chunk = codec.parse(memoryview(data)[start:stop], first)
            except _NotCanonical:
                text = _decode_text(data[start:stop], first + 2)
                chunk = _scan_lines(text, first, (codec.model_tag, codec.lambda_kind))
            yield chunk
            first += len(chunk)
        kept = filled - end
        buf[:kept] = buf[end:filled]
    if header:
        raise TrialLogFormatError(f"line 1: expected header {TRIAL_LOG_HEADER!r}")
    if not first:
        raise TrialLogFormatError("line 2: log contains no trials")


def _unix_lines(buf: bytearray, end: int) -> tuple:
    """(data, stop): the lines of buf[:end] in data[:stop], with the line
    scanner's universal newlines and a \\n after the last line. data is buf,
    edited in place, unless the lines hold a \\r; then it is one copy of the
    whole buffer, and stop is its length less that of its copied tail, as no
    \\r\\n straddles end."""
    if buf[end - 1] != ord("\n"):  # a file's last line: a lone \r becomes \n, a missing \n goes in
        end -= buf[end - 1] == ord("\r")
        buf[end : end + 1] = b"\n"
        end += 1
    if buf.find(b"\r", 0, end) < 0:
        return buf, end
    data = buf.replace(b"\r\n", b"\n")
    stop = len(data) - len(buf[end:].replace(b"\r\n", b"\n"))
    if data.find(b"\r", 0, stop) >= 0:  # lone \r line ends
        data[:stop] = data[:stop].replace(b"\r", b"\n")
    return data, stop


def _decode_text(data: bytes, line: int) -> str:
    """data, whose line ends are \\n, as UTF-8 text; its first line is line
    `line` of the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + line
        raise TrialLogFormatError(f"line {line_no}: not valid UTF-8 (byte 0x{data[exc.start]:02x})") from None


def _scan_lines(text: str, first: int = 0, layout: Optional[tuple] = None) -> TrialLog:
    """Parse rows line by line, numbered from first, naming the first line that breaks the schema.

    text holds rows alone, split at \\n. The layout, the model tag and
    lambda kind (see _lambda_kind), is the rows' before text or else is
    fixed by the first row, whose lambda_id is a float iff it has a '.' or
    an 'e'. A later row must carry the same tag, and no float in an integer
    column; a float column reads every lambda_id as a float.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    # dict lookups, as int() of a str allocates a copy of it
    code_by_pair = {p.value: p.code for p in PAIR_ORDER}
    outcome = {"1": 1, "-1": -1}
    start = first + 2  # the line of row first
    n = len(lines)
    pair_codes, s_first, s_second = np.empty(n, np.uint8), np.empty(n, np.int8), np.empty(n, np.int8)
    lambda_ids: Optional[np.ndarray] = None
    for k, line in enumerate(lines):
        line_no = start + k
        fields = line.split(",")
        if len(fields) != 6:
            raise TrialLogFormatError(f"line {line_no}: expected 6 fields, got {len(fields)}")
        idx_s, pair_s, s1_s, s2_s, lam_s, tag = fields
        try:
            idx = int(idx_s)
        except ValueError:
            raise TrialLogFormatError(f"line {line_no}: index {idx_s!r} is not an integer") from None
        if idx + 2 != line_no:
            raise TrialLogFormatError(
                f"line {line_no}: index {idx} breaks the consecutive order (expected {line_no - 2})"
            )
        if pair_s not in code_by_pair:
            raise TrialLogFormatError(f"line {line_no}: pair must be one of 12|13|23, got {pair_s!r}")
        if s1_s not in outcome or s2_s not in outcome:
            raise TrialLogFormatError(f"line {line_no}: outcomes must be 1 or -1, got {s1_s!r}, {s2_s!r}")
        pair_codes[k] = code_by_pair[pair_s]
        s_first[k] = outcome[s1_s]
        s_second[k] = outcome[s2_s]
        is_float = "." in lam_s or "e" in lam_s
        if layout is None:
            layout = (tag, None if lam_s == "" else "float" if is_float else "int")
        if tag != layout[0]:
            raise TrialLogFormatError(f"line {line_no}: model tag {tag!r} differs from the first row's {layout[0]!r}")
        if (lam_s == "") != (layout[1] is None):
            raise TrialLogFormatError(f"line {line_no}: lambda_id column mixes empty and non-empty values")
        if lam_s == "":
            continue
        try:
            value = float(lam_s) if is_float else int(lam_s)
        except ValueError:
            raise TrialLogFormatError(f"line {line_no}: lambda_id {lam_s!r} is not a number") from None
        # float() reads a number beyond the float range, such as 1e400, as inf
        if value in (math.inf, -math.inf):
            raise TrialLogFormatError(f"line {line_no}: lambda_id {lam_s!r} is not finite")
        if is_float and layout[1] == "int":
            raise TrialLogFormatError(f"line {line_no}: lambda_id {lam_s!r} is a float in an integer column")
        if lambda_ids is None:
            lambda_ids = np.empty(n, _LAMBDA_DTYPES[layout[1]])
        try:
            lambda_ids[k] = value
        except OverflowError:
            beyond = "does not fit in 64 bits" if layout[1] == "int" else "is beyond the float range"
            raise TrialLogFormatError(f"line {line_no}: lambda_id {value} {beyond}") from None
    return TrialLog(pair_codes, s_first, s_second, lambda_ids, layout[0] if layout else "", first)
