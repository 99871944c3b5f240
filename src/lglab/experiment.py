"""The sequential-measurement protocol, end to end.

A run fixes three increasing times bound to three polarization directions,
then for each prepared photon selects one of the three time pairs with the
pinned pseudorandom device and executes the chosen world-model (quantum,
hidden-variable, or conspiracy) for that pair. Preparation and pair choice
must be space-like separated, which is the freedom-of-choice arrangement;
loophole studies may override the check explicitly.

Trials derive independent generator streams from (master_seed, index), so a
run can be sharded across workers and still produce a byte-identical log.
The engine works through the index range in fixed chunks: each chunk selects
one pair per lane and hands every lane to the world's lane kernel at once.
The chunks form one stream (run_chunks) that `lglab run` samples, folds into
the estimators and writes one chunk at a time; run_experiment collects it.
"""
from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

import numpy as np

from .hidden_vars import PAIR_ORDER, ConspiracyModel, PairChoice, ResponseModel, signs
from .quantum import Direction, PolarizationState, reduce_direction_angle, run_quantum_trial
from .rng import (
    SeededGenerator,
    derive_states,
    derive_trial_generator,
    step_states,
    uniforms,
)

__all__ = [
    "PairChoice",
    "SlotBinding",
    "SpacetimeEvent",
    "TrialRecord",
    "TrialLog",
    "QuantumWorld",
    "FreedomOfChoiceError",
    "SeededGenerator",
    "derive_trial_generator",
    "select_pair",
    "spacelike_separated",
    "run_chunks",
    "run_experiment",
    "write_trial_log",
    "fold_trial_log",
    "read_trial_log",
    "TRIAL_LOG_HEADER",
]

SELECT_PAIR_MAX_ATTEMPTS = 128


@dataclass(frozen=True)
class SlotBinding:
    """The fixed correspondence between measurement times and directions.

    Times are seconds relative to each photon's preparation and must strictly
    increase; the binding never changes within a run. The times are bookkeeping
    only: no evolution happens between measurements, so statistics depend only
    on the directions.
    """

    t1: float
    t2: float
    t3: float
    a: Direction
    b: Direction
    c: Direction

    def __post_init__(self) -> None:
        if not (self.t1 < self.t2 < self.t3):
            raise ValueError(f"times must strictly increase, got {self.t1}, {self.t2}, {self.t3}")

    @property
    def directions(self) -> tuple[Direction, Direction, Direction]:
        return (self.a, self.b, self.c)

    def directions_for(self, pair: PairChoice) -> tuple[Direction, Direction]:
        first, second = pair.slots
        return self.directions[first.value], self.directions[second.value]


@dataclass(frozen=True)
class SpacetimeEvent:
    """An event in units where light speed is 1 (seconds, light-seconds)."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"event coordinate {name} must be finite")


def spacelike_separated(e1: SpacetimeEvent, e2: SpacetimeEvent) -> bool:
    """True iff the interval is strictly space-like (null intervals fail)."""
    dt = e1.t - e2.t
    dx = e1.x - e2.x
    dy = e1.y - e2.y
    dz = e1.z - e2.z
    return (dx * dx + dy * dy + dz * dz) - dt * dt > 0.0


class FreedomOfChoiceError(RuntimeError):
    """Raised when preparation and pair choice are not space-like separated."""


@dataclass(frozen=True)
class TrialRecord:
    """One prepared photon: its pair choice, both outcomes, and provenance."""

    index: int
    pair: PairChoice
    s_first: int
    s_second: int
    lambda_id: Optional[Union[int, float]]
    model_tag: str


@dataclass(frozen=True)
class QuantumWorld:
    """Quantum world-model plus the initial-state policy for a run.

    policy "fixed" prepares every photon at initial_angle; "fresh_uniform"
    draws a uniform direction per trial, which exercises the claim that the
    pair statistics do not depend on the prepared state.
    """

    policy: str = "fixed"
    initial_angle: float = 0.0
    tag: str = "quantum"

    def __post_init__(self) -> None:
        if self.policy not in ("fixed", "fresh_uniform"):
            raise ValueError(f"unknown initial-state policy {self.policy!r}")
        object.__setattr__(self, "initial_angle", reduce_direction_angle(self.initial_angle))

    def sample_lanes(
        self, binding: SlotBinding, codes, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, None]:
        """Two consecutive measurements per lane, lane k on pair code codes[k].

        The lane-wise form of run_quantum_trial: every per-pair constant is a
        table indexed by pair code, so each lane reads exactly the values the
        scalar path computes for its pair.
        """
        directions = [binding.directions_for(pair) for pair in PAIR_ORDER]
        # p2[2*code + o1]: the second measurement's threshold after the
        # first outcome collapsed the photon onto its axis (o1) or across it
        p2 = []
        for first, second in directions:
            for post in (first.angle + math.pi / 2.0, first.angle):
                p2.append(float(np.cos(reduce_direction_angle(post) - second.angle)) ** 2)
        if self.policy == "fresh_uniform":
            initial = uniforms(states) * np.pi
            # mirror the scalar state reduction at the fp seam
            initial[initial >= np.pi] = 0.0
            first_angle = np.array([first.angle for first, _ in directions])
            p1 = np.cos(initial - first_angle[codes]) ** 2
        else:
            p1 = np.array([float(np.cos(self.initial_angle - first.angle)) ** 2 for first, _ in directions])[codes]
        o1 = uniforms(states) < p1
        o2 = uniforms(states) < np.array(p2)[codes * 2 + o1]
        return signs(o1), signs(o2), None


World = Union[QuantumWorld, ResponseModel, ConspiracyModel]


def select_pair(gen: SeededGenerator) -> PairChoice:
    """Draw a uniform pair choice from the pinned device.

    Takes the top two bits of successive generator steps, rejecting the value
    3; the three remaining values map to P12, P13, P23. The attempt cap only
    guards against a broken generator (p = 4^-128 for a healthy one).
    """
    for _ in range(SELECT_PAIR_MAX_ATTEMPTS):
        bits = gen.top_two_bits()
        if bits != 3:
            return PAIR_ORDER[bits]
    raise RuntimeError(f"pair selection failed {SELECT_PAIR_MAX_ATTEMPTS} rejections in a row")


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


# -- vectorized engine -------------------------------------------------------

# The engine samples, the estimators fold and the trial-log writer encodes in
# chunks of this many trials, so no step holds a temporary per trial for the
# whole run.
_CHUNK_ROWS = 1 << 16


def _select_pairs_batch(states: np.ndarray) -> np.ndarray:
    """Vectorized select_pair: one code in {0,1,2} per lane, stepping lanes
    exactly as the scalar rejection loop would."""
    step_states(states)
    codes = (states >> np.uint64(62)).astype(np.uint8)
    # about a quarter of the lanes draw the rejected value 3 and step again
    rejected = np.flatnonzero(codes == 3)
    for _ in range(SELECT_PAIR_MAX_ATTEMPTS - 1):
        if rejected.size == 0:
            return codes
        sub = step_states(states[rejected])  # fancy indexing copies the lanes
        states[rejected] = sub
        bits = (sub >> np.uint64(62)).astype(np.uint8)
        codes[rejected] = bits
        rejected = rejected[bits == 3]
    if rejected.size == 0:
        return codes
    raise RuntimeError(f"pair selection failed {SELECT_PAIR_MAX_ATTEMPTS} rejections in a row")


def run_chunks(
    binding: SlotBinding,
    world: World,
    n_trials: int,
    master_seed: int,
    geometry: tuple[SpacetimeEvent, SpacetimeEvent],
    *,
    override_foc: bool = False,
    n_shards: int = 1,
) -> Iterator[TrialLog]:
    """The run of run_experiment as a stream of chunks.

    Chunks are TrialLogs of at most 2^16 trials, in index order; the
    arguments are checked, and a geometry refused, before the first chunk is
    drawn. n_shards splits the index range into that many parts, each worked
    through chunk by chunk; it moves chunk boundaries, never trials. Every
    chunk's lambda column takes the dtype of the first chunk's lambdas.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    prep, choice = geometry
    if not spacelike_separated(prep, choice) and not override_foc:
        raise FreedomOfChoiceError(
            "preparation and pair-choice events are not space-like separated; "
            "freedom of choice is not guaranteed (set the override to run anyway)"
        )
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return _chunk_stream(binding, world, n_trials, master_seed, n_shards)


def _chunk_stream(binding: SlotBinding, world: World, n_trials: int, master_seed: int, n_shards: int):
    bounds = np.linspace(0, n_trials, min(n_shards, n_trials) + 1, dtype=int).tolist()
    lambda_dtype = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for start in range(lo, hi, _CHUNK_ROWS):
            states = derive_states(master_seed, np.arange(start, min(start + _CHUNK_ROWS, hi), dtype=np.uint64))
            codes = _select_pairs_batch(states)
            s_first, s_second, lambda_ids = world.sample_lanes(binding, codes, states)
            if lambda_ids is not None:
                if lambda_dtype is None:
                    lambda_dtype = lambda_ids.dtype
                lambda_ids = lambda_ids.astype(lambda_dtype, copy=False)
            yield TrialLog(
                codes,
                s_first.astype(np.int8, copy=False),
                s_second.astype(np.int8, copy=False),
                lambda_ids,
                world.tag,
                first_index=start,
            )


def run_experiment(
    binding: SlotBinding,
    world: World,
    n_trials: int,
    master_seed: int,
    geometry: tuple[SpacetimeEvent, SpacetimeEvent],
    *,
    override_foc: bool = False,
    n_shards: int = 1,
) -> TrialLog:
    """Run the full protocol and return the trial log.

    geometry is (preparation event, pair-choice event); the run refuses
    non-space-like geometries unless override_foc is set, which is how
    loophole studies acknowledge giving up freedom of choice. Identical
    arguments produce identical logs regardless of n_shards. The log holds
    the chunks of run_chunks, which a caller that needs no columns can
    consume one at a time instead.
    """
    log: Optional[TrialLog] = None
    for chunk in run_chunks(
        binding, world, n_trials, master_seed, geometry, override_foc=override_foc, n_shards=n_shards
    ):
        if log is None:
            lambdas = chunk.lambda_ids
            log = TrialLog(
                np.empty(n_trials, dtype=np.uint8),
                np.empty(n_trials, dtype=np.int8),
                np.empty(n_trials, dtype=np.int8),
                None if lambdas is None else np.empty(n_trials, dtype=lambdas.dtype),
                world.tag,
            )
        start, stop = chunk.first_index, chunk.first_index + len(chunk)
        log.pair_codes[start:stop] = chunk.pair_codes
        log.s_first[start:stop] = chunk.s_first
        log.s_second[start:stop] = chunk.s_second
        if log.lambda_ids is not None:
            log.lambda_ids[start:stop] = chunk.lambda_ids
    return log


def run_trial_scalar(
    binding: SlotBinding, world: World, trial_index: int, master_seed: int
) -> TrialRecord:
    """Reference scalar execution of one trial; run_experiment must agree.

    Spelled out with the public single-draw operations so the vectorized
    engine has an independent oracle.
    """
    gen = derive_trial_generator(master_seed, trial_index)
    pair = select_pair(gen)
    lam: Optional[Union[int, float]] = None
    if isinstance(world, QuantumWorld):
        if world.policy == "fresh_uniform":
            initial = PolarizationState(gen.next_uniform() * math.pi)
        else:
            initial = PolarizationState(world.initial_angle)
        first, second = binding.directions_for(pair)
        s_first, s_second = run_quantum_trial(initial, first, second, gen)
    else:
        s_first, s_second, lam = world.sample_pair(pair, gen)
    return TrialRecord(trial_index, pair, s_first, s_second, lam, world.tag)


# -- trial log file format ----------------------------------------------------

TRIAL_LOG_HEADER = "index,pair,s_first,s_second,lambda_id,model_tag"
_HEADER_LINE = (TRIAL_LOG_HEADER + "\n").encode()

# Rows are assembled as fixed-width uint8 cells, one per row, in which a field
# shorter than its column is padded with NUL; deleting every NUL from the
# joined cells leaves the rows. A model tag may therefore hold no NUL, nor the
# ',' and newlines that would split its row.
_TAG_FORBIDDEN = frozenset(",\n\r\0")

# the ",pair,s_first,s_second," middle of a row, indexed by
# pair_code*4 + 2*(s_first > 0) + (s_second > 0)
_ROW_MIDDLES = np.array(
    [f",{p.value},{s1},{s2}," for p in PAIR_ORDER for s1 in (-1, 1) for s2 in (-1, 1)], dtype="S10"
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
_ZERO_GROUP = np.frombuffer(b"\0\0\0" b"0", dtype=np.uint32)[0]  # three NULs, then "0"

# the longest canonical lambda_id: str of an int64 or repr of a float64
_LAMBDA_MAX_WIDTH = len(repr(-2.2250738585072014e-308))

# the reader reads a file in blocks of this many bytes (1 MiB)
_READ_BLOCK = 1 << 20


def _format_lambda(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Each integer as a NUL-padded uint8 row: a sign byte, then 4-digit groups.

    Deleting the NULs of row k gives str(int(values[k])), for any signed or
    unsigned integer dtype of up to 64 bits, and for booleans (1 and 0).
    """
    negative = values < 0
    magnitudes = values.astype(np.uint64)
    np.negative(magnitudes, out=magnitudes, where=negative)  # exact for -2**63 too
    n_groups = (len(str(int(magnitudes.max()))) + 3) // 4
    cells = np.empty((len(values), 1 + 4 * n_groups), dtype=np.uint8)
    cells[:, 0] = negative * ord("-")
    groups = cells[:, 1:].view(np.uint32)
    rest = magnitudes
    for g in range(n_groups - 1, -1, -1):
        above = rest // np.uint64(10_000)
        key = rest - above * np.uint64(10_000)
        # a group with digits above it keeps its leading zeros
        key += (above != 0) * np.uint64(10_000)
        groups[:, g] = _DIGIT_GROUPS[key]
        rest = above
    groups[magnitudes == 0, -1] = _ZERO_GROUP
    return cells


def _lambda_cells(lambdas: np.ndarray) -> np.ndarray:
    # booleans are written as 1/0, as the record branch's int() writes them
    if lambdas.dtype.kind in "biu":
        return _int_cells(lambdas)
    # the one per-row Python format left: repr of each float
    text = list(map(repr if lambdas.dtype.kind == "f" else str, lambdas.tolist()))
    return np.array(text, dtype="S").view(np.uint8).reshape(len(text), -1)


def _encode_rows(chunk: TrialLog) -> bytes:
    """The rows of chunk, numbered from its first index, each ending in a newline.

    The one definition of the row format: the writer emits it, and the reader
    accepts its fast parse only when this reproduces the file bytes.
    """
    n = len(chunk)
    keys = chunk.pair_codes.astype(np.intp) * 4
    keys += 2 * (chunk.s_first > 0)
    keys += chunk.s_second > 0
    fields = [
        _int_cells(np.arange(chunk.first_index, chunk.first_index + n, dtype=np.uint64)),
        _ROW_MIDDLES[keys].view(np.uint8).reshape(n, -1),
    ]
    if chunk.lambda_ids is not None:
        fields.append(_lambda_cells(chunk.lambda_ids))
    tail = np.frombuffer(f",{chunk.model_tag}\n".encode("utf-8"), dtype=np.uint8)
    fields.append(np.broadcast_to(tail, (n, len(tail))))
    return np.concatenate(fields, axis=1).tobytes().translate(None, b"\0")


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


def _check_tag(tag: str) -> None:
    if not _TAG_FORBIDDEN.isdisjoint(tag):
        raise ValueError(f"model tag {tag!r} holds ',', a line break or NUL, which a trial log cannot carry")


def write_trial_log(trials: Union[TrialLog, Iterable[TrialRecord]], path) -> None:
    """Write the CSV trial log: byte-exact for identical runs.

    Columns: index,pair,s_first,s_second,lambda_id,model_tag with pair encoded
    as 12|13|23 and lambda_id empty for the quantum world. Unix newlines, no
    trailing whitespace. A model tag holding ',', a line break or NUL is
    refused with ValueError, as no reader could take it back.

    A TrialLog may also go to a binary file open for writing. Rows are
    numbered from its first index, and the header comes only with row 0, so
    the chunks of run_chunks written in order into one file give the bytes of
    the whole log.
    """
    if isinstance(trials, TrialLog):
        _check_tag(trials.model_tag)
        # the row encoder writes any outcome that is not positive as -1
        if not (np.all(np.abs(trials.s_first) == 1) and np.all(np.abs(trials.s_second) == 1)):
            raise ValueError("outcomes must be 1 or -1")
        if isinstance(path, (str, os.PathLike)):
            with open(path, "wb") as out:
                _write_rows(trials, out)
        else:
            _write_rows(trials, path)
        return
    lines = [TRIAL_LOG_HEADER]
    for rec in trials:
        _check_tag(rec.model_tag)
        lines.append(
            f"{rec.index},{rec.pair.value},{rec.s_first},{rec.s_second},"
            f"{_format_lambda(rec.lambda_id)},{rec.model_tag}"
        )
    lines.append("")  # final newline
    Path(path).write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _write_rows(log: TrialLog, out) -> None:
    if log.first_index == 0:
        out.write(_HEADER_LINE)
    for chunk in log.chunks():
        out.write(_encode_rows(chunk))


class TrialLogFormatError(ValueError):
    """A trial log file violates the documented schema; names the line."""


class _NotCanonical(Exception):
    """The file is not exactly as write_trial_log writes its columns."""


_T = TypeVar("_T")


def fold_trial_log(path, fold: Callable[[Iterator[TrialLog]], _T]) -> _T:
    """fold(chunks) over the log's chunks, in index order.

    A log exactly as write_trial_log would write it streams in fixed blocks
    (1 MiB), each parsed column-wise into one chunk, so the file is never
    held whole. If some block turns out not to be canonical, that call
    of fold is abandoned and fold runs again on the whole file as one chunk,
    parsed by the line scanner, which validates the schema line by line and
    names the first bad line. fold must not catch the exception that
    abandons it. A pipe can be read only once, so it is held whole.
    """
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


def _concatenate(chunks: Iterator[TrialLog]) -> TrialLog:
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
    layout = None
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
        if layout is None:
            layout = _row_layout(bytes(buf[: buf.index(b"\n")]))
        chunk = _parse_block(buf, end, first, *layout)
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
    if not _TAG_FORBIDDEN.isdisjoint(model_tag):
        raise _NotCanonical
    lam_s = fields[4]
    if not lam_s:
        return model_tag, None
    # the scanner's rule: floats iff some value has a '.' or an 'e'
    return model_tag, np.dtype(np.float64 if b"." in lam_s or b"e" in lam_s else np.int64)


def _parse_block(buf: bytearray, end: int, first: int, model_tag: str, lambda_dtype) -> TrialLog:
    """The rows in buf[:end], numbered from first, if _encode_rows reproduces them.

    The parse itself is loose (it reads only field widths and a few bytes);
    the re-encoding check is what makes every accepted block parse exactly as
    the line scanner would parse it.
    """
    block = np.frombuffer(buf, dtype=np.uint8, count=end)
    ends = np.flatnonzero(block == ord("\n"))
    commas = np.flatnonzero(block == ord(","))
    if len(commas) != 5 * len(ends):
        raise _NotCanonical
    commas = commas.reshape(-1, 5)
    # with as many commas as rows * 5, this puts exactly five in each row
    if np.any(commas[1:, 0] < ends[:-1]) or np.any(commas[:, 4] > ends):
        raise _NotCanonical
    c0, c1, c2, c3, c4 = commas.T
    # "12", "13", "23" -> 0, 1, 2 from the sum of the two digits
    codes = block[c0 + 1].astype(np.int16) + block[c0 + 2] - (ord("1") + ord("2"))
    if np.any((codes < 0) | (codes > 2)):
        raise _NotCanonical
    # "1" is one byte wide, "-1" two
    one, minus_one = np.int8(1), np.int8(-1)
    chunk = TrialLog(
        codes.astype(np.uint8),
        np.where(c2 - c1 == 2, one, minus_one),
        np.where(c3 - c2 == 2, one, minus_one),
        None if lambda_dtype is None else _parse_lambdas(block, c3 + 1, c4 - c3 - 1, lambda_dtype),
        model_tag,
        first_index=first,
    )
    if _encode_rows(chunk) != buf[:end]:
        raise _NotCanonical
    return chunk


def _parse_lambdas(block: np.ndarray, starts: np.ndarray, widths: np.ndarray, dtype) -> np.ndarray:
    """The lambda_id fields at starts/widths of block as dtype."""
    width = int(widths.max())
    if widths.min() < 1 or width > _LAMBDA_MAX_WIDTH:
        raise _NotCanonical
    # one fixed-width, NUL-padded byte string per row
    cells = np.zeros((len(starts), width), dtype=np.uint8)
    last = len(block) - 1
    for j in range(width):
        cells[:, j] = np.where(widths > j, block[np.minimum(starts + j, last)], 0)
    try:
        values = cells.view(f"S{width}").ravel().astype(dtype)
    except (ValueError, OverflowError):
        raise _NotCanonical from None
    # the scanner rejects "inf" and "nan", which repr writes for non-finite floats
    if dtype.kind == "f" and not np.all(np.isfinite(values)):
        raise _NotCanonical
    return values


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
                lambda_vals.append(int(lam_s) if ("." not in lam_s and "e" not in lam_s) else float(lam_s))
            except ValueError:
                raise TrialLogFormatError(f"line {line_no}: lambda_id {lam_s!r} is not a number") from None
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
            lambda_ids = np.array([float(v) for v in lambda_vals], dtype=np.float64)
    return TrialLog(pair_codes, s_first, s_second, lambda_ids, model_tag)
