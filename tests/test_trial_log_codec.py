"""Properties of the CSV trial-log codec.

The record branch of write_trial_log formats one TrialRecord at a time,
independently of the chunked column encoder, so it serves as the format
oracle here.
"""
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lglab import (
    Direction,
    QuantumWorld,
    SlotBinding,
    SpacetimeEvent,
    TableModel,
    read_trial_log,
    run_chunks,
    run_experiment,
    write_trial_log,
)
from lglab import triallog
from lglab.hidden_vars import RotorModel, conspiracy_from_quantum
from lglab.rng import MASK64
from lglab.triallog import (
    _CHUNK_ROWS,
    TRIAL_LOG_HEADER,
    TrialLog,
    TrialLogFormatError,
    TrialLogWriter,
    _canonical_chunks,
    _NotCanonical,
    _RowCodec,
)

BINDING = SlotBinding(
    t1=1.0, t2=2.0, t3=3.0, a=Direction(0.0), b=Direction(math.pi / 6), c=Direction(math.pi / 3)
)
GEOMETRY = (SpacetimeEvent(0.0, 0.0, 0.0, 0.0), SpacetimeEvent(0.0, 1.0, 0.0, 0.0))
WORLDS = {
    "quantum": QuantumWorld(),
    "table": TableModel([(0.5, (1, 1, 1)), (0.25, (-1, 1, -1)), (0.25, (1, -1, -1))]),
    "rotor": RotorModel(BINDING.directions),
    "conspiracy": conspiracy_from_quantum(BINDING.a, BINDING.b, BINDING.c),
}

worlds = st.sampled_from(sorted(WORLDS))
seeds = st.integers(0, MASK64)


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def _run(world: str, seed: int, n_trials: int) -> TrialLog:
    return run_experiment(BINDING, WORLDS[world], n_trials, seed, GEOMETRY)


def _assert_same_log(loaded: TrialLog, expected: TrialLog) -> None:
    assert loaded == expected
    if expected.lambda_ids is None:
        assert loaded.lambda_ids is None
    else:
        assert loaded.lambda_ids.dtype == expected.lambda_ids.dtype


def _streams(path) -> bool:
    """Does the column-wise block reader take the whole file?"""
    with open(path, "rb") as f:
        try:
            for _ in _canonical_chunks(f):
                pass
        except _NotCanonical:
            return False
    return True


def _oracle_rows(records) -> bytes:
    """The record branch's rows, without the header, for records numbered from
    any index (write_trial_log writes only files that start at trial 0)."""
    return "".join(f"{triallog._record_row(rec)}\n" for rec in records).encode("utf-8")


def _check_codec(directory, log: TrialLog) -> None:
    path, oracle = directory / "log.csv", directory / "oracle.csv"
    write_trial_log(log, path)
    write_trial_log(list(log), oracle)
    data = path.read_bytes()
    assert data == oracle.read_bytes()
    assert _streams(path)  # the column-wise parse accepts it
    _assert_same_log(read_trial_log(path), log)


@settings(max_examples=200)
@given(world=worlds, seed=seeds, n_trials=st.just(1) | st.integers(1, 300))
def test_small_logs_match_the_record_oracle_and_round_trip(codec_dir, world, seed, n_trials):
    _check_codec(codec_dir, _run(world, seed, n_trials))


@pytest.mark.parametrize("n_trials", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
@settings(max_examples=4)
@given(world=worlds, seed=seeds)
def test_logs_across_a_chunk_boundary_match_the_record_oracle(codec_dir, n_trials, world, seed):
    _check_codec(codec_dir, _run(world, seed, n_trials))


MUTATIONS = (
    "pad_index",
    "plus_index",
    "space_index",
    "other_tag",
    "pad_lambda",
    "float_text_lambda",
    "crlf",
    "crlf_after_header",
    "no_final_newline",
)


@settings(max_examples=200)
@given(
    world=worlds,
    seed=seeds,
    n_trials=st.integers(2, 60),
    mutation=st.sampled_from(MUTATIONS),
    row=st.integers(0, 59),
)
def test_valid_non_canonical_logs_parse_as_the_line_scanner_does(
    codec_dir, world, seed, n_trials, mutation, row
):
    log = _run(world, seed, n_trials)
    path = codec_dir / "log.csv"
    write_trial_log(log, path)
    canonical = path.read_bytes()
    lines = canonical.decode().split("\n")
    fields = lines[row % n_trials + 1].split(",")
    lambdas, tag = log.lambda_ids, log.model_tag
    if mutation == "pad_index":
        fields[0] = "00" + fields[0]
    elif mutation == "plus_index":
        fields[0] = "+" + fields[0]
    elif mutation == "space_index":
        fields[0] = " " + fields[0]  # int() strips surrounding whitespace
    elif mutation == "other_tag":
        fields[5] += "2"
        tag = "mixed"
    elif mutation == "pad_lambda" and fields[4]:
        lam = fields[4]
        fields[4] = "-0" + lam[1:] if lam.startswith("-") else "0" + lam
    elif mutation == "float_text_lambda" and lambdas is not None and lambdas.dtype.kind == "i":
        fields[4] += ".0"  # one float value turns the whole column into floats
        lambdas = lambdas.astype(np.float64)
    lines[row % n_trials + 1] = ",".join(fields)
    text = "\n".join(lines)
    if mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "crlf_after_header":
        header, rows = text.split("\n", 1)
        text = header + "\n" + rows.replace("\n", "\r\n")
    elif mutation == "no_final_newline":
        text = text[:-1]
    data = text.encode()
    assume(data != canonical)

    path.write_bytes(data)
    assert not _streams(path)
    expected = TrialLog(log.pair_codes, log.s_first, log.s_second, lambdas, tag)
    _assert_same_log(read_trial_log(path), expected)


def test_bad_row_past_the_first_chunk_is_named(tmp_path):
    log = _run("table", 2**63 + 11, 70_500)
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[69_999].split(",")  # line 70 000
    fields[2] = "2"
    lines[69_999] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="^line 70000: outcomes"):
        read_trial_log(path)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_float_lambda_is_rejected_as_before(tmp_path, bad):
    # repr writes "inf" and "nan", which the line scanner does not read as numbers;
    # the writer refuses such a log, so the row gets repr(bad) by hand
    lambdas = np.array([0.5, 1.25, 1.5, 2.0])
    log = TrialLog(
        np.array([0, 1, 2, 0], dtype=np.uint8), np.ones(4, np.int8), -np.ones(4, np.int8), lambdas, "rotor"
    )
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    path.write_text(path.read_text(encoding="utf-8").replace(",1.5,", f",{bad!r},"), encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="line 4: lambda_id '.*' is not a number"):
        read_trial_log(path)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_writers_refuse_non_finite_float_lambdas(tmp_path, bad):
    lambdas = np.array([0.5, bad, 2.0])
    log = TrialLog(np.array([0, 1, 2], dtype=np.uint8), np.ones(3, np.int8), -np.ones(3, np.int8), lambdas, "rotor")
    path = tmp_path / "x.csv"
    for trials in (log, list(log)):
        with pytest.raises(ValueError, match="^trial 1: lambda_id"):
            write_trial_log(trials, path)
    assert not path.exists()
    later = TrialLog(log.pair_codes, log.s_first, log.s_second, lambdas, "rotor", first_index=70_000)
    with pytest.raises(ValueError, match="^trial 70001: lambda_id"):
        TrialLogWriter(io.BytesIO()).write(later)


def test_a_later_chunk_of_a_run_is_refused_as_a_file_but_a_writer_takes_it(tmp_path):
    chunks = list(run_chunks(BINDING, WORLDS["table"], 70_000, 5, GEOMETRY))
    assert chunks[1].first_index == _CHUNK_ROWS
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=f"first_index is {_CHUNK_ROWS}"):
        write_trial_log(chunks[1], path)
    assert not path.exists()
    with open(path, "wb") as out:
        writer = TrialLogWriter(out)
        for chunk in chunks:
            write_trial_log(chunk, writer)
    _assert_same_log(read_trial_log(path), _run("table", 5, 70_000))


def test_the_records_of_a_later_chunk_are_refused_as_a_file(tmp_path):
    later = list(run_chunks(BINDING, WORLDS["table"], 70_000, 5, GEOMETRY))[1]
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=f"^record 0 has index {_CHUNK_ROWS};"):
        write_trial_log(list(later), path)
    assert not path.exists()
    records = list(_run("table", 5, 10))
    del records[4]
    with pytest.raises(ValueError, match="^record 4 has index 5;"):
        write_trial_log(records, path)
    assert not path.exists()


def test_a_writer_refuses_a_later_chunk_first(tmp_path):
    chunks = list(run_chunks(BINDING, WORLDS["table"], 70_000, 5, GEOMETRY))
    out = io.BytesIO()
    with pytest.raises(ValueError, match=f"is trial 0, but the chunk starts at trial {_CHUNK_ROWS};"):
        TrialLogWriter(out).write(chunks[1])
    assert out.getvalue() == b""


def test_a_writer_refuses_a_chunk_written_twice(tmp_path):
    chunks = list(run_chunks(BINDING, WORLDS["table"], 70_000, 5, GEOMETRY))
    path = tmp_path / "x.csv"
    with open(path, "wb") as out:
        writer = TrialLogWriter(out)
        writer.write(chunks[0])
        with pytest.raises(ValueError, match=f"trial {_CHUNK_ROWS}, but the chunk starts at trial 0;"):
            writer.write(chunks[0])
        writer.write(chunks[1])
    # nothing of the refused chunk reached the file
    _assert_same_log(read_trial_log(path), _run("table", 5, 70_000))


def test_write_trial_log_to_a_writer_numbers_the_rows_on(tmp_path):
    # chunks rebuilt from their columns alone start at 0, as perfbench's
    # flipping shim passes them to write_trial_log
    chunks = list(run_chunks(BINDING, WORLDS["table"], 70_000, 5, GEOMETRY))
    path = tmp_path / "x.csv"
    with open(path, "wb") as out:
        writer = TrialLogWriter(out)
        for chunk in chunks:
            write_trial_log(TrialLog(chunk.pair_codes, chunk.s_first, chunk.s_second, chunk.lambda_ids, "table"), writer)
    assert writer.next_index == 70_000
    _assert_same_log(read_trial_log(path), _run("table", 5, 70_000))


def test_writer_refuses_outcomes_other_than_plus_minus_one(tmp_path):
    log = _run("quantum", 3, 10)
    s_first = log.s_first.copy()
    s_first[4] = 0
    with pytest.raises(ValueError, match="outcomes"):
        write_trial_log(TrialLog(log.pair_codes, s_first, log.s_second, None, "quantum"), tmp_path / "x.csv")


# -- the byte-cell row encoder ------------------------------------------------


def _int_text(values: np.ndarray) -> list:
    """The lambda_id field of each row the workspace encodes for values."""
    n = len(values)
    log = TrialLog(np.zeros(n, np.uint8), np.ones(n, np.int8), -np.ones(n, np.int8), values, "t")
    return [row.split(",")[4] for row in _RowCodec(n).encode(log).decode().splitlines()]


INT64_EDGES = (
    [0, -(2**63), 2**63 - 1]
    + [sign * (10**k - 1) for k in range(1, 19) for sign in (1, -1)]
    + [sign * 10**k for k in range(19) for sign in (1, -1)]
)
UINT64_EDGES = [0, 2**63, 2**63 + 1, 10**19 - 1, 10**19, 2**64 - 1] + [10**k for k in range(19)]


@pytest.mark.parametrize("dtype, values", [(np.int64, INT64_EDGES), (np.uint64, UINT64_EDGES)])
def test_integer_cells_match_str(dtype, values):
    assert _int_text(np.array(values, dtype=dtype)) == [str(v) for v in values]
    # alone, each value sets its own number of digit groups
    for v in values:
        assert _int_text(np.array([v], dtype=dtype)) == [str(v)]


@st.composite
def lambda_logs(draw, dtype, elements):
    n = draw(st.integers(1, 120))
    return TrialLog(
        draw(arrays(np.uint8, n, elements=st.integers(0, 2))),
        draw(arrays(np.int8, n, elements=st.sampled_from([-1, 1]))),
        draw(arrays(np.int8, n, elements=st.sampled_from([-1, 1]))),
        draw(arrays(dtype, n, elements=elements)),
        "synthetic",
    )


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -2.2250738585072014e-308, 1e16, -1e16, 1e-5, 0.1, -0.0]
)


@settings(max_examples=200)
@given(log=lambda_logs(np.int64, st.integers(-(2**63), 2**63 - 1)))
def test_int64_lambda_logs_match_the_record_oracle_and_round_trip(codec_dir, log):
    _check_codec(codec_dir, log)


@settings(max_examples=200)
@given(log=lambda_logs(np.float64, FINITE_FLOATS))
def test_float_lambda_logs_match_the_record_oracle_and_round_trip(codec_dir, log):
    _check_codec(codec_dir, log)


@settings(max_examples=50)
@given(log=lambda_logs(np.uint64, st.integers(2**63, 2**64 - 1)))
def test_uint64_lambdas_above_int64_match_the_record_oracle(codec_dir, log):
    path, oracle = codec_dir / "log.csv", codec_dir / "oracle.csv"
    write_trial_log(log, path)
    write_trial_log(list(log), oracle)
    assert path.read_bytes() == oracle.read_bytes()


@settings(max_examples=50)
@given(log=lambda_logs(np.bool_, st.booleans()))
def test_boolean_lambdas_are_written_as_the_record_branch_writes_them(codec_dir, log):
    path, oracle = codec_dir / "log.csv", codec_dir / "oracle.csv"
    write_trial_log(log, path)
    write_trial_log(list(log), oracle)
    assert path.read_bytes() == oracle.read_bytes()
    assert _streams(path)
    # 1/0 read back as int64 lambdas
    ints = TrialLog(log.pair_codes, log.s_first, log.s_second, log.lambda_ids.astype(np.int64), log.model_tag)
    _assert_same_log(read_trial_log(path), ints)


def test_index_widths_change_inside_a_chunk(tmp_path):
    # 9 999 -> 10 000 falls in the first chunk and 99 999 -> 100 000 in the second
    _check_codec(tmp_path, _run("table", 5, 100_001))


@pytest.mark.parametrize("tag", ["a,b", "a\nb", "a\rb", "a\0b", ","])
def test_writer_refuses_tags_it_cannot_round_trip(tmp_path, tag):
    log = _run("quantum", 3, 5)
    log = TrialLog(log.pair_codes, log.s_first, log.s_second, None, tag)
    path = tmp_path / "x.csv"
    for trials in (log, list(log)):
        with pytest.raises(ValueError, match="model tag"):
            write_trial_log(trials, path)
    assert not path.exists()


def test_utf8_tag_round_trips(codec_dir):
    log = _run("table", 9, 300)
    _check_codec(codec_dir, TrialLog(log.pair_codes, log.s_first, log.s_second, log.lambda_ids, "ξ"))


INDEX_EDGES = [0, 1, 9_998, 9_999, 99_999_998, 10**12 - 2, 10**16 - 1, 2**63 - 1, 10**19 - 2, 2**64 - 3]


@pytest.mark.parametrize("first", INDEX_EDGES)
def test_index_cells_match_str(first):
    log = TrialLog(np.zeros(3, np.uint8), np.ones(3, np.int8), np.ones(3, np.int8), None, "t", first_index=first)
    rows = _RowCodec(3).encode(log).decode().splitlines()
    assert [row.split(",")[0] for row in rows] == [str(first + k) for k in range(3)]


# -- one workspace for a stream of chunks ------------------------------------------

LAMBDA_KINDS = ("none", "int64", "uint64", "float")
# a stream crosses 9 999 -> 10 000 or 99 999 999 -> 100 000 000, where the
# index takes one more digit group, or starts anywhere
STARTS = st.sampled_from([0, 9_990, 99_999_990]) | st.integers(0, 2**40)
CHUNK_LENGTHS = st.sampled_from([1, 2, 17, _CHUNK_ROWS - 1, _CHUNK_ROWS])


def _synthetic_chunk(rng, first: int, n: int, kind: str) -> TrialLog:
    if kind == "none":
        lambdas = None
    elif kind == "int64":
        # a few edge values among a spread of widths
        lambdas = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True) >> rng.integers(0, 64, n)
        lambdas[rng.integers(0, n, 2)] = [-(2**63), 2**63 - 1]
    elif kind == "uint64":
        lambdas = rng.integers(2**63, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    else:
        lambdas = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return TrialLog(
        rng.integers(0, 3, n).astype(np.uint8),
        rng.choice(np.array([-1, 1], np.int8), n),
        rng.choice(np.array([-1, 1], np.int8), n),
        lambdas,
        "synthetic",
        first_index=first,
    )


@settings(max_examples=20)
@example(kind="int64", start=9_990, lengths=[1, _CHUNK_ROWS], last=5, seed=1)
@example(kind="uint64", start=99_999_990, lengths=[_CHUNK_ROWS - 1], last=300, seed=2)
@example(kind="float", start=0, lengths=[_CHUNK_ROWS], last=1, seed=3)
@example(kind="none", start=99_999_990, lengths=[2, _CHUNK_ROWS], last=17, seed=4)
@given(
    kind=st.sampled_from(LAMBDA_KINDS),
    start=STARTS,
    lengths=st.lists(CHUNK_LENGTHS, min_size=1, max_size=2),
    last=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunks_through_one_workspace_match_the_record_oracle(kind, start, lengths, last, seed):
    # full or short chunks, then a short last one
    rng = np.random.default_rng(seed)
    chunks, first = [], start
    for n in [*lengths, last]:
        chunks.append(_synthetic_chunk(rng, first, n, kind))
        first += n
    codec = _RowCodec(_CHUNK_ROWS)
    rows = b"".join(codec.encode(chunk) for chunk in chunks)
    assert rows == _oracle_rows(rec for chunk in chunks for rec in chunk)
    if start == 0:
        # a writer is such a workspace behind the header
        out = io.BytesIO()
        writer = TrialLogWriter(out)
        for chunk in chunks:
            writer.write(chunk)
        assert out.getvalue() == f"{TRIAL_LOG_HEADER}\n".encode() + rows


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_a_workspace_encodes_each_lambda_kind_after_the_others(kind):
    # the column layout changes with the lambda kind; the rows must not
    rng = np.random.default_rng(7)
    codec = _RowCodec(500)
    for other in [k for k in LAMBDA_KINDS if k != kind] + [kind]:
        chunk = _synthetic_chunk(rng, 123_456, 500, other)
        assert codec.encode(chunk) == _oracle_rows(chunk)


def _chunk_lengths(path) -> list:
    """The length of each chunk the block reader parses path into."""
    lengths = []
    with open(path, "rb") as f:
        for chunk in _canonical_chunks(f):
            lengths.append(len(chunk))
    return lengths


def test_blocks_of_more_than_a_chunk_of_rows_stream(tmp_path):
    # with an empty tag and positive outcomes a row is 14-15 bytes, so a 1 MiB
    # block holds about 70 000 rows
    n = 150_000
    log = TrialLog(np.zeros(n, np.uint8), np.ones(n, np.int8), np.ones(n, np.int8), None, "")
    log.pair_codes[::3] = 2
    _check_codec(tmp_path, log)
    lengths = _chunk_lengths(tmp_path / "log.csv")
    assert max(lengths) > _CHUNK_ROWS and sum(lengths) == n


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_blocks_of_a_single_row_stream(tmp_path, world):
    log = _run(world, 31, 40)
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    rows = path.read_bytes().splitlines(keepends=True)[1:]
    # no block can hold two rows, and any block holds the row it starts with
    block = max(len(row) for row in rows)
    assert block < 2 * min(len(row) for row in rows)
    with mock.patch.object(triallog, "_READ_BLOCK", block):
        assert _chunk_lengths(path) == [1] * 40
        _assert_same_log(read_trial_log(path), log)


@pytest.mark.parametrize("first", [9_990, 99_999_990, 10**12 - 20])
@pytest.mark.parametrize("kind", ["none", "int64", "float"])
def test_a_block_parses_where_the_index_gains_a_digit(first, kind):
    # a canonical file starts at index 0, so the reader meets 10^8 only after
    # 10^8 rows; parse such a block directly
    chunk = _synthetic_chunk(np.random.default_rng(first), first, 40, kind)
    buf = bytearray(_oracle_rows(chunk))
    lambda_dtype = None if kind == "none" else chunk.lambda_ids.dtype
    parsed = _RowCodec(len(buf) // 11).parse(buf, len(buf), first, "synthetic", lambda_dtype)
    _assert_same_log(parsed, chunk)
