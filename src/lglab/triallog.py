"""The trial log: one record per prepared photon, and its CSV file format.

A TrialLog holds a run's records column-wise, as the estimators consume
them. The file holds one row per trial and is byte-exact for identical runs.
The writers refuse a log the reader could not read back: an empty one, one
with trial indexes out of order, or a model tag or lambda_id that no row can
carry. The reader streams a canonical file in fixed blocks and falls back to
a line scanner that names the first line breaking the schema.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar, Union

import numpy as np

from .hidden_vars import PAIR_ORDER, PairChoice

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
        self.pair_codes = pair_codes
        self.s_first = s_first
        self.s_second = s_second
        self.lambda_ids = lambda_ids
        self.model_tag = model_tag
        self.first_index = first_index

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "TrialLog":
        """The columns of a record sequence, in its order.

        lambda_id must be None on every record or on none; records whose
        model tags differ give the tag "mixed", as the log reader does.
        """
        recs = list(records)
        lambda_ids: Optional[np.ndarray] = None
        if any(r.lambda_id is not None for r in recs):
            if any(r.lambda_id is None for r in recs):
                raise ValueError("lambda_id mixes empty and non-empty values")
            lambda_ids = np.array([r.lambda_id for r in recs])
        tags = {r.model_tag for r in recs}
        return cls(
            np.array([r.pair.code for r in recs], dtype=np.uint8),
            np.array([r.s_first for r in recs], dtype=np.int8),
            np.array([r.s_second for r in recs], dtype=np.int8),
            lambda_ids,
            tags.pop() if len(tags) == 1 else "mixed",
        )

    def __len__(self) -> int:
        return len(self.pair_codes)

    def __getitem__(self, index: int) -> TrialRecord:
        if not isinstance(index, (int, np.integer)):
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


class _Layout(NamedTuple):
    """Where each field's cells sit in a row of the cell matrix."""

    index_groups: int
    lambda_kind: Optional[str]  # None, "int" (digit groups) or "text" (repr)
    lambda_width: int
    tail: bytes  # ",model_tag\n"

    @property
    def middle(self) -> slice:
        # an integer lambda_id's sign rides at the end of the middle
        start = 4 * self.index_groups
        return slice(start, start + (11 if self.lambda_kind == "int" else 10))

    @property
    def lambda_id(self) -> slice:
        return slice(self.middle.stop, self.middle.stop + self.lambda_width)

    @property
    def width(self) -> int:
        return self.lambda_id.stop + len(self.tail)


class _RowCodec:
    """The row-codec workspace of one stream of trial-log rows.

    Every chunk a stream writes, and every block it reads, is encoded and
    parsed in the same arrays, made for up to `rows` rows when the stream
    starts. Columns only widen within a stream, and the ",model_tag\\n" cells
    are filled once per column layout, so after its first chunk a stream
    allocates no array per row, save the repr of float lambda_ids.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self._layout: Optional[_Layout] = None
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
        # the parsed columns, and parser scratch
        self._pair_codes = np.empty(rows, dtype=np.uint8)
        self._s_first = np.empty(rows, dtype=np.int8)
        self._s_second = np.empty(rows, dtype=np.int8)
        self._lambdas = np.empty(rows, dtype=np.int64)  # or its float64 view
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
        """
        self._fill(chunk)
        return self._cells.translate(None, b"\0")

    def _fill(self, chunk: TrialLog) -> None:
        """Fill the cell matrix with chunk's rows."""
        n = len(chunk)
        lambdas = chunk.lambda_ids
        text = None
        if lambdas is None:
            kind, lambda_width = None, 0
        elif lambdas.dtype.kind in "biu":
            # booleans are written as 1/0, as _record_row's int() writes them
            kind = "int"
            lambda_width = 4 * _n_groups(max(int(lambdas.max()), -int(lambdas.min())))
        else:
            # the one per-row Python format left: repr of each float
            kind = "text"
            text = np.array(list(map(repr, lambdas.tolist())), dtype="S")
            lambda_width = text.itemsize
        tail = f",{chunk.model_tag}\n".encode("utf-8")
        cells = self._cells_for(n, _n_groups(chunk.first_index + n - 1), kind, lambda_width, tail)
        layout = self._layout

        _index_groups(cells[:, : layout.middle.start].view(np.uint32), chunk.first_index)
        # the keys are summed in int8, where no operand needs a cast buffer
        small_keys = self._small_keys[:n]
        np.multiply(chunk.pair_codes, 8, out=small_keys, casting="unsafe")
        for outcome, weight in ((chunk.s_first, 2), (chunk.s_second, 1)):
            for _ in range(weight):
                np.add(small_keys, outcome, out=small_keys, casting="unsafe")
        np.add(small_keys, 3, out=small_keys)
        if kind == "int":
            negative = self._mask[:n]
            np.less(lambdas, 0, out=negative)
            np.add(small_keys, 1, out=small_keys, where=negative)
        keys = self._keys[:n]
        np.copyto(keys, small_keys)
        np.take(self._middles, keys, out=self._middle[:n], mode="clip")
        np.copyto(cells.view(self._middle_field)[:, 0]["middle"], self._middle[:n])
        lambda_cells = cells[:, layout.lambda_id]
        if kind == "int":
            magnitudes = self._rest[:n]
            np.copyto(magnitudes, lambdas, casting="unsafe")
            np.negative(magnitudes, out=magnitudes, where=negative)  # exact for -2**63 too
            self._digit_groups(lambda_cells.view(np.uint32))
        elif kind == "text":
            lambda_cells[:, : text.itemsize] = text.view(np.uint8).reshape(n, -1)
            lambda_cells[:, text.itemsize :] = 0

    def _cells_for(self, n: int, index_groups: int, kind, lambda_width: int, tail: bytes) -> np.ndarray:
        """The cells of n rows, in a layout at least as wide as the last one."""
        old = self._layout
        if old is not None and (old.lambda_kind, old.tail) == (kind, tail):
            index_groups = max(index_groups, old.index_groups)
            lambda_width = max(lambda_width, old.lambda_width)
        layout = _Layout(index_groups, kind, lambda_width, tail)
        width = layout.width
        if layout != old:
            self._layout = layout
            self._cells = bytearray(n * width)
            self._tail_rows = 0
            # each middle as one opaque value, taken by key and copied into
            # its column through a view of each row as a record
            m = layout.middle
            middles = np.ascontiguousarray(_ROW_MIDDLES[:, : m.stop - m.start])
            self._middles = middles.view(f"V{m.stop - m.start}").ravel()
            self._middle = np.empty(self.rows, dtype=self._middles.dtype)
            self._middle_field = np.dtype(
                {"names": ["middle"], "formats": [self._middles.dtype], "offsets": [m.start], "itemsize": width}
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
            cells[self._tail_rows :, width - len(tail) :] = np.frombuffer(tail, dtype=np.uint8)
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

    def parse(self, buf: bytearray, end: int, first: int, model_tag: str, lambda_dtype) -> TrialLog:
        """The rows in buf[:end], numbered from first, if encode reproduces them.

        The parse itself is loose: it finds the newlines, then each field from
        the width of the row's index, which first + k fixes, and the widths of
        the outcomes before it. The re-encoding check is what makes every
        accepted block parse exactly as the line scanner would parse it. The
        chunk's columns are the workspace's, overwritten by the next parse.
        """
        chunk = self._columns(buf, end, first, model_tag, lambda_dtype)
        out = self.encode(chunk)
        if len(out) != end or not buf.startswith(out):
            raise _NotCanonical
        return chunk

    def _columns(self, buf: bytearray, end: int, first: int, model_tag: str, lambda_dtype) -> TrialLog:
        block = np.frombuffer(buf, dtype=np.uint8, count=end)
        n = self._newlines(block)
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
        pair_codes = self._pair_codes[:n]
        np.take(block, pos, out=pair_codes, mode="clip")
        np.add(pos, 1, out=pos)
        np.take(block, pos, out=byte, mode="clip")
        np.add(pair_codes, byte, out=pair_codes)
        np.subtract(pair_codes, ord("1") + ord("2"), out=pair_codes)
        if pair_codes.max() > 2:
            raise _NotCanonical
        # each outcome starts two bytes after the field before it ends; "1" is
        # one byte wide, "-1" two
        s_first, s_second = self._s_first[:n], self._s_second[:n]
        for outcome in (s_first, s_second):
            np.add(pos, 2, out=pos)
            np.take(block, pos, out=byte, mode="clip")
            np.equal(byte, ord("-"), out=mask)
            outcome.fill(1)
            np.copyto(outcome, -1, where=mask)
            np.add(pos, 1, out=pos, where=mask)
        lambdas = None
        if lambda_dtype is not None:
            np.add(pos, 2, out=pos)
            # lambda_id runs from pos up to the comma of ",model_tag\n"
            widths = self._widths[:n]
            np.subtract(ends, len(f",{model_tag}".encode("utf-8")), out=widths)
            np.subtract(widths, pos, out=widths)
            if widths.min() < 1 or widths.max() > _LAMBDA_MAX_WIDTH:
                raise _NotCanonical
            parse_lambdas = self._parse_floats if lambda_dtype.kind == "f" else self._parse_ints
            lambdas = parse_lambdas(block, pos, widths)
        return TrialLog(pair_codes, s_first, s_second, lambdas, model_tag, first_index=first)

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

    def _parse_ints(self, block: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
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
        values, term = self._lambdas[:n].view(np.uint64), self._key[:n]
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
        return self._lambdas[:n]

    def _parse_floats(self, block: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
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
        values = self._lambdas[:n].view(np.float64)
        try:
            np.copyto(values, text.view(f"S{width}")[:, 0], casting="unsafe")
        except (ValueError, OverflowError):
            raise _NotCanonical from None
        # the scanner rejects "inf" and "nan", which repr writes for non-finite floats
        if not np.isfinite(values, out=inside).all():
            raise _NotCanonical
        return values


def _tag_fits(tag: str) -> bool:
    """Whether a row can carry the model tag.

    Rows are assembled as fixed-width uint8 cells, one per row, in which a
    field shorter than its column is padded with NUL; deleting every NUL from
    the joined cells leaves the rows. A model tag may therefore hold no NUL,
    nor the ',' and newlines that would split its row.
    """
    return frozenset(",\n\r\0").isdisjoint(tag)


def _check_tag(tag: str) -> None:
    if not _tag_fits(tag):
        raise ValueError(f"model tag {tag!r} holds ',', a line break or NUL, which a trial log cannot carry")
    try:
        tag.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"model tag {tag!r} is not valid UTF-8 text, which a trial log cannot carry") from None


def _plus_minus_one(outcomes: np.ndarray) -> bool:
    if outcomes.dtype.kind in "iu":
        # with no temporary per row: within [-1, 1] and never 0
        return outcomes.min() >= -1 and outcomes.max() <= 1 and np.count_nonzero(outcomes) == len(outcomes)
    return outcomes.dtype.kind in "bf" and bool(np.all(np.abs(outcomes) == 1))


def _check_columns(log: TrialLog) -> None:
    _check_tag(log.model_tag)
    if not len(log):
        raise ValueError("the trial log is empty; a trial log file holds at least one trial")
    if log.pair_codes.dtype.kind not in "biu" or log.pair_codes.min() < 0 or log.pair_codes.max() > 2:
        raise ValueError("pair codes must be integers 0, 1 or 2")
    # the row encoder writes any outcome that is not positive as -1
    if not (_plus_minus_one(log.s_first) and _plus_minus_one(log.s_second)):
        raise ValueError("outcomes must be 1 or -1")
    lambdas = log.lambda_ids
    if lambdas is None:
        return
    if lambdas.dtype.kind not in "biuf":
        raise ValueError(f"lambda_id must be bool, integer or float, got dtype {lambdas.dtype}")
    # the reader reads integer lambda_ids as int64
    if lambdas.dtype.kind == "u" and lambdas.max() > _INT64_MAX:
        k = int(np.argmax(lambdas > _INT64_MAX))
        raise ValueError(f"trial {log.first_index + k}: lambda_id {lambdas[k]} does not fit in int64")
    # repr writes a non-finite float as inf or nan, which the reader refuses; min
    # and max pass a NaN on, so a finite column costs no temporary per row
    if lambdas.dtype.kind == "f" and not (np.isfinite(lambdas.min()) and np.isfinite(lambdas.max())):
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
    trial 0; every later chunk must start where the one before it ended. A
    chunk that does not is refused with ValueError before a byte of it is
    written.
    """

    def __init__(self, file, rows: int = _CHUNK_ROWS):
        self.file = file
        self._codec = _RowCodec(rows)
        self._header_written = False
        self.next_index = 0  # the index of the file's next row

    def write(self, log: TrialLog) -> None:
        _check_columns(log)
        if log.first_index != self.next_index:
            raise ValueError(
                f"the next row of this trial log is trial {self.next_index}, but the chunk starts at trial "
                f"{log.first_index}; write the chunks of a run in order, from trial 0"
            )
        if not self._header_written:
            self.file.write(_HEADER_LINE)
            self._header_written = True
        self.next_index += len(log)
        for chunk in log.chunks():
            self.file.write(self._codec.encode(chunk))


def write_trial_log(log: TrialLog, path) -> None:
    """Write the CSV trial log: byte-exact for identical runs.

    Columns: index,pair,s_first,s_second,lambda_id,model_tag with pair encoded
    as 12|13|23 and lambda_id empty for the quantum world. Unix newlines, no
    trailing whitespace. A log no reader could take back is refused with
    ValueError before the file is made: an empty one, one whose first_index
    is not 0 (a file holds a whole run), one whose model tag holds ',', a
    line break or NUL or is not UTF-8 text, or one whose lambda_ids are not
    bool, integer or float, or do not fit in int64, or are not finite.
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
        TrialLogWriter(out, min(len(log), _CHUNK_ROWS)).write(log)


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
    """The file is not exactly as write_trial_log writes its columns."""


_T = TypeVar("_T")


def fold_trial_log(path, fold: Callable[[Iterator[TrialLog]], _T]) -> _T:
    """fold(chunks) over the log's chunks, in index order, each with its own arrays.

    A log exactly as write_trial_log would write it streams in fixed blocks
    (1 MiB), each parsed column-wise into one chunk, so the file is never
    held whole. If some block turns out not to be canonical, that call of
    fold is abandoned and fold runs again on the whole file as one chunk,
    parsed by the line scanner, which validates the schema line by line and
    names the first bad line. fold must not catch the exception that
    abandons it. A pipe can be read only once, so it is held whole.
    """
    return _fold_blocks(path, lambda chunks: fold(map(_copy, chunks)))


def _fold_blocks(path, fold: Callable[[Iterator[TrialLog]], _T]) -> _T:
    """fold_trial_log, with the chunks of canonical blocks as views of the
    reader's arrays: each holds only until the next one is drawn."""
    with open(path, "rb") as f:
        source = f if f.seekable() else io.BytesIO(f.read())
        try:
            return fold(_canonical_chunks(source))
        except _NotCanonical:
            source.seek(0)
            data = source.read()
    return fold(iter([_scan_lines(_decode_text(data))]))


def read_trial_log(path) -> TrialLog:
    """Parse a CSV trial log (see fold_trial_log for how)."""
    return fold_trial_log(path, _concatenate)


def _copy(log: TrialLog) -> TrialLog:
    return TrialLog(
        log.pair_codes.copy(),
        log.s_first.copy(),
        log.s_second.copy(),
        None if log.lambda_ids is None else log.lambda_ids.copy(),
        log.model_tag,
        first_index=log.first_index,
    )


def _concatenate(chunks: Iterator[TrialLog]) -> TrialLog:
    """The chunks as one log."""
    parts = list(chunks)
    if len(parts) == 1:
        return parts[0]
    lambdas = None if parts[0].lambda_ids is None else np.concatenate([p.lambda_ids for p in parts])
    return TrialLog(
        np.concatenate([p.pair_codes for p in parts]),
        np.concatenate([p.s_first for p in parts]),
        np.concatenate([p.s_second for p in parts]),
        lambdas,
        parts[0].model_tag,
        first_index=parts[0].first_index,
    )


def _canonical_chunks(f) -> Iterator[TrialLog]:
    """One chunk for each block of complete lines read from f.

    A block ends at its last newline; the partial line after it moves to the
    front of the buffer and the next read appends to it. Raises _NotCanonical
    as soon as the file is found not to be canonical.
    """
    if f.read(len(_HEADER_LINE)) != _HEADER_LINE:
        raise _NotCanonical
    buf = bytearray(_READ_BLOCK)
    kept = first = 0
    codec = None
    while True:
        with memoryview(buf) as view:
            got = f.readinto(view[kept:])
        if not got:
            # a file without its final newline, or without rows
            if kept or not first:
                raise _NotCanonical
            return
        filled = kept + got
        end = buf.rfind(b"\n", 0, filled) + 1
        if not end:
            if filled == len(buf):  # a line longer than a block
                raise _NotCanonical
            kept = filled
            continue
        if codec is None:
            model_tag, lambda_dtype = _row_layout(bytes(buf[: buf.index(b"\n")]))
            # no canonical row is shorter than "0,12,1,1," + lambda_id + ",model_tag\n"
            shortest = len(f"0,12,1,1,{'0' if lambda_dtype else ''},{model_tag}\n".encode("utf-8"))
            codec = _RowCodec(len(buf) // shortest)
        chunk = codec.parse(buf, end, first, model_tag, lambda_dtype)
        yield chunk
        first += len(chunk)
        kept = filled - end
        buf[:kept] = buf[end:filled]


def _row_layout(row: bytes) -> tuple[str, Optional[np.dtype]]:
    """The model tag and lambda dtype of a canonical log, from its first row."""
    fields = row.split(b",")
    if len(fields) != 6:
        raise _NotCanonical
    try:
        model_tag = fields[5].decode("utf-8")
    except UnicodeDecodeError:
        raise _NotCanonical from None
    # a tag the writer refuses, such as one ending in the \r of a CRLF line
    if not _tag_fits(model_tag):
        raise _NotCanonical
    lam_s = fields[4]
    if not lam_s:
        return model_tag, None
    # the scanner's rule: floats iff some value has a '.' or an 'e'
    return model_tag, np.dtype(np.float64 if b"." in lam_s or b"e" in lam_s else np.int64)


def _decode_text(data: bytes) -> str:
    """The file as the line scanner reads it: UTF-8 with universal newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        line_no = before.count("\n") + 1
        raise TrialLogFormatError(f"line {line_no}: not valid UTF-8 (byte 0x{data[exc.start]:02x})") from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _scan_lines(text: str) -> TrialLog:
    """Parse the log line by line, naming the first line that breaks the schema."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != TRIAL_LOG_HEADER:
        raise TrialLogFormatError(f"line 1: expected header {TRIAL_LOG_HEADER!r}")
    code_by_pair = {p.value: p.code for p in PAIR_ORDER}
    n = len(lines) - 1
    pair_codes = np.empty(n, dtype=np.uint8)
    s_first = np.empty(n, dtype=np.int8)
    s_second = np.empty(n, dtype=np.int8)
    lambda_vals: list = []
    tags = set()
    for k in range(n):
        line_no = k + 2
        fields = lines[k + 1].split(",")
        if len(fields) != 6:
            raise TrialLogFormatError(f"line {line_no}: expected 6 fields, got {len(fields)}")
        idx_s, pair_s, s1_s, s2_s, lam_s, tag = fields
        try:
            idx = int(idx_s)
        except ValueError:
            raise TrialLogFormatError(f"line {line_no}: index {idx_s!r} is not an integer") from None
        if idx != k:
            raise TrialLogFormatError(f"line {line_no}: index {idx} breaks the consecutive order (expected {k})")
        if pair_s not in code_by_pair:
            raise TrialLogFormatError(f"line {line_no}: pair must be one of 12|13|23, got {pair_s!r}")
        if s1_s not in ("1", "-1") or s2_s not in ("1", "-1"):
            raise TrialLogFormatError(f"line {line_no}: outcomes must be 1 or -1, got {s1_s!r}, {s2_s!r}")
        pair_codes[k] = code_by_pair[pair_s]
        s_first[k] = int(s1_s)
        s_second[k] = int(s2_s)
        if lam_s == "":
            lambda_vals.append(None)
        else:
            try:
                value = int(lam_s) if ("." not in lam_s and "e" not in lam_s) else float(lam_s)
            except ValueError:
                raise TrialLogFormatError(f"line {line_no}: lambda_id {lam_s!r} is not a number") from None
            # float() reads a number beyond the float range, such as 1e400, as inf
            if value in (math.inf, -math.inf):
                raise TrialLogFormatError(f"line {line_no}: lambda_id {lam_s!r} is not finite")
            lambda_vals.append(value)
        tags.add(tag)
    if n == 0:
        raise TrialLogFormatError("line 2: log contains no trials")
    model_tag = tags.pop() if len(tags) == 1 else "mixed"
    lambda_ids: Optional[np.ndarray] = None
    if any(v is not None for v in lambda_vals):
        empty_first = lambda_vals[0] is None
        for k, v in enumerate(lambda_vals):
            if (v is None) != empty_first:
                raise TrialLogFormatError(f"line {k + 2}: lambda_id column mixes empty and non-empty values")
        if all(isinstance(v, int) for v in lambda_vals):
            try:
                lambda_ids = np.array(lambda_vals, dtype=np.int64)
            except OverflowError:
                k = next(k for k, v in enumerate(lambda_vals) if not -(2**63) <= v < 2**63)
                raise TrialLogFormatError(f"line {k + 2}: lambda_id {lambda_vals[k]} does not fit in 64 bits") from None
        else:
            lambda_ids = np.empty(n)
            for k, v in enumerate(lambda_vals):
                try:
                    lambda_ids[k] = v
                except OverflowError:  # an integer beyond the float range
                    raise TrialLogFormatError(f"line {k + 2}: lambda_id {v} is beyond the float range") from None
    return TrialLog(pair_codes, s_first, s_second, lambda_ids, model_tag)
