"""Properties of the CSV trial-log codec.

triallog._record_row formats one TrialRecord at a time, independently of the
chunked column encoder, so it serves as the format oracle here.
"""
import dataclasses
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
    PairChoice,
    QuantumWorld,
    SlotBinding,
    SpacetimeEvent,
    TableModel,
    TrialRecord,
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
    _chunks,
    _lambda_kind,
    _RowCodec,
)

from conftest import BAD_CODES, BlockScanned, layout_scan_only, log_with

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
    with open(path, "rb") as f, layout_scan_only():
        try:
            for _ in _chunks(f):
                pass
        except BlockScanned:
            return False
    return True


def _oracle_rows(records) -> bytes:
    """The oracle's rows, without the header, for records numbered from any
    index (write_trial_log writes only files that start at trial 0)."""
    return "".join(f"{triallog._record_row(rec)}\n" for rec in records).encode("utf-8")


def _oracle_file(log: TrialLog) -> bytes:
    return f"{TRIAL_LOG_HEADER}\n".encode() + _oracle_rows(log)


def _check_codec(directory, log: TrialLog) -> None:
    path = directory / "log.csv"
    write_trial_log(log, path)
    assert path.read_bytes() == _oracle_file(log)
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


# the mutations that change only line ends
LINE_END_MUTATIONS = ("crlf", "crlf_after_header", "no_final_newline")
MUTATIONS = (
    "pad_index",
    "plus_index",
    "space_index",
    "other_tag",
    "pad_lambda",
    "float_text_lambda",
) + LINE_END_MUTATIONS


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
    lambdas = log.lambda_ids
    # the first row fixes the model tag and lambda kind, so a later row that
    # changes either is refused; a changed first row makes the second one differ
    refused = None
    if mutation == "pad_index":
        fields[0] = "00" + fields[0]
    elif mutation == "plus_index":
        fields[0] = "+" + fields[0]
    elif mutation == "space_index":
        fields[0] = " " + fields[0]  # int() strips surrounding whitespace
    elif mutation == "other_tag":
        fields[5] += "2"
        refused = "model tag"
    elif mutation == "pad_lambda" and fields[4]:
        lam = fields[4]
        fields[4] = "-0" + lam[1:] if lam.startswith("-") else "0" + lam
    elif mutation == "float_text_lambda" and lambdas is not None and lambdas.dtype.kind == "i":
        fields[4] += ".0"
        if row % n_trials:
            refused = "lambda_id .* is a float in an integer column"
        else:  # a float column reads the integers after it as floats
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
    # once its line ends are \n, a block parses column-wise
    assert _streams(path) == (mutation in LINE_END_MUTATIONS)
    if refused is not None:
        with pytest.raises(TrialLogFormatError, match=f"^line {max(row % n_trials, 1) + 2}: {refused}"):
            read_trial_log(path)
        return
    expected = TrialLog(log.pair_codes, log.s_first, log.s_second, lambdas, log.model_tag)
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


@pytest.mark.parametrize("text", ["1e400", "-1e400", "1.5e400"])
def test_the_line_scanner_refuses_a_float_lambda_beyond_the_float_range(tmp_path, text):
    lambdas = np.array([0.5, 1.25, 1.5, 2.0])
    log = TrialLog(np.array([0, 1, 2, 0], np.uint8), np.ones(4, np.int8), -np.ones(4, np.int8), lambdas, "rotor")
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    path.write_text(path.read_text(encoding="utf-8").replace(",1.5,", f",{text},"), encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match=f"^line 4: lambda_id '{text}' is not finite"):
        read_trial_log(path)


def test_the_line_scanner_refuses_an_integer_beyond_the_float_range_in_a_float_column(tmp_path):
    huge = 10**400
    path = tmp_path / "log.csv"
    path.write_text(f"{TRIAL_LOG_HEADER}\n0,12,1,1,0.5,rotor\n1,13,1,-1,{huge},rotor\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match=f"^line 3: lambda_id {huge} is beyond the float range"):
        read_trial_log(path)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_writers_refuse_non_finite_float_lambdas(tmp_path, bad):
    lambdas = np.array([0.5, bad, 2.0])
    log = TrialLog(np.array([0, 1, 2], dtype=np.uint8), np.ones(3, np.int8), -np.ones(3, np.int8), lambdas, "rotor")
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="^trial 1: lambda_id"):
        write_trial_log(log, path)
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


def _refused(log: TrialLog, tmp_path, match: str) -> None:
    """Both writers refuse log: write_trial_log before the file is made, and
    TrialLogWriter.write before a byte of the chunk."""
    path = tmp_path / "refused.csv"
    with pytest.raises(ValueError, match=match):
        write_trial_log(log, path)
    assert not path.exists()
    out = io.BytesIO()
    with pytest.raises(ValueError, match=match):
        TrialLogWriter(out).write(log)
    assert out.getvalue() == b""


@pytest.mark.parametrize("column, value, dtype, refusal", BAD_CODES)
def test_writers_refuse_a_bad_pair_code_or_outcome_as_the_estimators_do(tmp_path, column, value, dtype, refusal):
    _refused(log_with(column, value, dtype), tmp_path, f"^{refusal}$")


def test_writers_refuse_an_empty_log(tmp_path):
    empty = np.zeros(0, np.int8)
    _refused(TrialLog(empty.view(np.uint8), empty, empty, None, "quantum"), tmp_path, "empty")


@pytest.mark.parametrize(
    "lambdas",
    [np.array([1 + 2j, 0.5, 1.0]), np.array([1, 2, 3], dtype=object), np.array(["1", "2", "3"])],
    ids=["complex", "object", "str"],
)
def test_writers_refuse_lambdas_that_are_not_bool_integer_or_float(tmp_path, lambdas):
    log = TrialLog(np.zeros(3, np.uint8), np.ones(3, np.int8), -np.ones(3, np.int8), lambdas, "rotor")
    _refused(log, tmp_path, f"^lambda_id must be bool, integer or float, got dtype {lambdas.dtype}")


def test_writers_refuse_a_uint64_lambda_above_int64_naming_its_trial(tmp_path):
    lambdas = np.array([3, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    log = TrialLog(np.zeros(4, np.uint8), np.ones(4, np.int8), -np.ones(4, np.int8), lambdas, "table")
    _refused(log, tmp_path, f"^trial 2: lambda_id {2**63} does not fit in int64")


@pytest.mark.parametrize("tag", ["a\ud800", "\udfff"])
def test_writers_refuse_a_tag_that_is_not_utf8_text(tmp_path, tag):
    log = TrialLog(np.zeros(3, np.uint8), np.ones(3, np.int8), -np.ones(3, np.int8), None, tag)
    _refused(log, tmp_path, "^model tag .* is not valid UTF-8 text")


def test_records_reach_a_file_only_as_a_log_the_reader_can_take_back(tmp_path):
    ok = TrialRecord(0, PairChoice.P12, 1, -1, 3, "table")
    with pytest.raises(ValueError, match="mixes empty and non-empty"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=1, lambda_id=None)])
    _refused(TrialLog.from_records([ok, dataclasses.replace(ok, index=1, lambda_id=2**64)]), tmp_path, "lambda_id")
    with pytest.raises(ValueError, match="^record 1 has s_first 7, not 1 or -1$"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=1, s_first=7)])
    path = tmp_path / "log.csv"
    write_trial_log(TrialLog.from_records([ok, dataclasses.replace(ok, index=1, lambda_id=2**63 - 1)]), path)
    assert path.read_bytes() == f"{TRIAL_LOG_HEADER}\n0,12,1,-1,3,table\n1,12,1,-1,{2**63 - 1},table\n".encode()


LAMBDA_DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
LAMBDA_DTYPES += [np.float16, np.float32, np.float64, np.complex128]
# any character, the surrogates too, and those a row cannot carry
TAGS = st.text(st.characters(exclude_categories=()) | st.sampled_from(",\n\r\0"), max_size=4)


@st.composite
def any_logs(draw):
    # integer columns, as the writers take them; BAD_CODES covers the dtypes they refuse
    n = draw(st.integers(0, 40))
    codes = draw(st.sampled_from([np.uint8, np.int64]))
    outcomes = draw(st.sampled_from([np.int8, np.int64]))
    dtype = draw(st.sampled_from([None] + LAMBDA_DTYPES))
    return TrialLog(
        draw(arrays(codes, n, elements=st.sampled_from([0, 1, 2]))),
        draw(arrays(outcomes, n, elements=st.sampled_from([1, -1]))),
        draw(arrays(outcomes, n, elements=st.sampled_from([1, -1]))),
        None if dtype is None else draw(arrays(dtype, n)),
        draw(st.just("synthetic") | TAGS),
        first_index=draw(st.just(0) | st.integers(0, 3)),
    )


@settings(max_examples=500)
@given(log=any_logs())
def test_every_log_the_writer_accepts_reads_back_equal(codec_dir, log):
    path = codec_dir / "any.csv"
    path.unlink(missing_ok=True)
    try:
        write_trial_log(log, path)
    except ValueError:
        assert not path.exists()
        return
    lambdas = log.lambda_ids
    if lambdas is not None:
        # bool and integer columns read back as int64, float ones as float64
        lambdas = lambdas.astype(np.float64 if lambdas.dtype.kind == "f" else np.int64)
    _assert_same_log(read_trial_log(path), TrialLog(log.pair_codes, log.s_first, log.s_second, lambdas, log.model_tag))


@st.composite
def hand_written_logs(draw):
    """A header, then rows with valid fields and one TAGS tag, as UTF-8 bytes
    (a lone surrogate as the bytes of its code point)."""
    tag = draw(st.just("synthetic") | TAGS)
    rows = [
        f"{i},{draw(st.sampled_from(['12', '13', '23']))},{draw(st.sampled_from(['1', '-1']))},1,,{tag}"
        for i in range(draw(st.integers(1, 4)))
    ]
    return "\n".join([TRIAL_LOG_HEADER, *rows, ""]).encode("utf-8", "surrogatepass")


@settings(max_examples=300)
@given(data=hand_written_logs())
@example(data=f"{TRIAL_LOG_HEADER}\n0,12,1,1,,\0\n".encode())
def test_every_file_the_reader_accepts_the_writers_accept(codec_dir, data):
    path = codec_dir / "hand.csv"
    path.write_bytes(data)
    try:
        log = read_trial_log(path)
    except TrialLogFormatError:
        return
    write_trial_log(log, path)
    _assert_same_log(read_trial_log(path), log)


def test_writer_refuses_outcomes_other_than_plus_minus_one(tmp_path):
    log = _run("quantum", 3, 10)
    s_first = log.s_first.copy()
    s_first[4] = 0
    with pytest.raises(ValueError, match="^outcome 0 at trial 4 is not 1 or -1$"):
        write_trial_log(TrialLog(log.pair_codes, s_first, log.s_second, None, "quantum"), tmp_path / "x.csv")


# -- the byte-cell row encoder ------------------------------------------------


def _int_text(values: np.ndarray) -> list:
    """The lambda_id field of each row the workspace encodes for values."""
    n = len(values)
    log = TrialLog(np.zeros(n, np.uint8), np.ones(n, np.int8), -np.ones(n, np.int8), values, "t")
    return [row.split(",")[4] for row in _RowCodec(n, "t", "int").encode(log).decode().splitlines()]


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
def test_uint64_lambdas_above_int64_are_refused(codec_dir, log):
    # the reader reads integer lambda_ids as int64
    _refused(log, codec_dir, f"^trial 0: lambda_id {log.lambda_ids[0]} does not fit in int64")


@settings(max_examples=50)
@given(log=lambda_logs(np.bool_, st.booleans()))
def test_boolean_lambdas_are_written_as_the_oracle_writes_them(codec_dir, log):
    path = codec_dir / "log.csv"
    write_trial_log(log, path)
    assert path.read_bytes() == _oracle_file(log)
    assert _streams(path)
    # 1/0 read back as int64 lambdas
    ints = TrialLog(log.pair_codes, log.s_first, log.s_second, log.lambda_ids.astype(np.int64), log.model_tag)
    _assert_same_log(read_trial_log(path), ints)


def test_index_widths_change_inside_a_chunk(tmp_path):
    # 9 999 -> 10 000 falls in the first chunk and 99 999 -> 100 000 in the second
    _check_codec(tmp_path, _run("table", 5, 100_001))


@pytest.mark.parametrize("tag", ["a,b", "a\nb", "a\rb", "a\0b", ",", 5, b"quantum"])
def test_writer_refuses_tags_it_cannot_round_trip(tmp_path, tag):
    log = _run("quantum", 3, 5)
    log = TrialLog(log.pair_codes, log.s_first, log.s_second, None, tag)
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="model tag"):
        write_trial_log(log, path)
    assert not path.exists()


def test_utf8_tag_round_trips(codec_dir):
    log = _run("table", 9, 300)
    _check_codec(codec_dir, TrialLog(log.pair_codes, log.s_first, log.s_second, log.lambda_ids, "ξ"))


INDEX_EDGES = [0, 1, 9_998, 9_999, 99_999_998, 10**12 - 2, 10**16 - 1, 2**63 - 1, 10**19 - 2, 2**64 - 3]


@pytest.mark.parametrize("first", INDEX_EDGES)
def test_index_cells_match_str(first):
    log = TrialLog(np.zeros(3, np.uint8), np.ones(3, np.int8), np.ones(3, np.int8), None, "t", first_index=first)
    rows = _RowCodec(3, "t", None).encode(log).decode().splitlines()
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
    codec = _RowCodec(_CHUNK_ROWS, "synthetic", _lambda_kind(chunks[0].lambda_ids))
    rows = b"".join(codec.encode(chunk) for chunk in chunks)
    assert rows == _oracle_rows(rec for chunk in chunks for rec in chunk)
    if start == 0 and kind == "uint64":
        # lambda_ids above int64, which a writer refuses before a byte
        out = io.BytesIO()
        with pytest.raises(ValueError, match="does not fit in int64"):
            TrialLogWriter(out).write(chunks[0])
        assert out.getvalue() == b""
    elif start == 0:
        # a writer is such a workspace behind the header
        out = io.BytesIO()
        writer = TrialLogWriter(out)
        for chunk in chunks:
            writer.write(chunk)
        assert out.getvalue() == f"{TRIAL_LOG_HEADER}\n".encode() + rows


# the lambda kind each synthetic kind is written as
KIND_NAMES = {"none": "None", "int64": "int", "float": "float"}


def _assert_refused_before_a_byte(writer: TrialLogWriter, out: io.BytesIO, chunk: TrialLog, match: str) -> None:
    written, next_index = out.getvalue(), writer.next_index
    with pytest.raises(ValueError, match=match):
        writer.write(chunk)
    assert out.getvalue() == written and writer.next_index == next_index


def _assert_file_holds(tmp_path, out: io.BytesIO, chunks) -> None:
    """out holds the chunks as one run, which reads back column for column."""
    log = triallog._concatenate(iter(chunks))
    assert out.getvalue() == _oracle_file(log)
    path = tmp_path / "log.csv"
    path.write_bytes(out.getvalue())
    _assert_same_log(read_trial_log(path), log)


@pytest.mark.parametrize("first, later", [(a, b) for a in KIND_NAMES for b in KIND_NAMES if a != b])
def test_a_writer_refuses_a_chunk_that_changes_the_lambda_kind(tmp_path, first, later):
    rng = np.random.default_rng(7)
    chunks = [_synthetic_chunk(rng, 0, 500, first), _synthetic_chunk(rng, 500, 500, first)]
    out = io.BytesIO()
    writer = TrialLogWriter(out)
    writer.write(chunks[0])
    _assert_refused_before_a_byte(
        writer,
        out,
        _synthetic_chunk(rng, 500, 500, later),
        rf"^the chunk at trial 500 has model tag 'synthetic' and lambda kind {KIND_NAMES[later]}, "
        rf"but this trial log's first chunk fixed model tag 'synthetic' and lambda kind {KIND_NAMES[first]};",
    )
    # the chunk the file stands at still goes on
    writer.write(chunks[1])
    _assert_file_holds(tmp_path, out, chunks)


def test_a_writer_refuses_a_chunk_that_changes_the_model_tag(tmp_path):
    rng = np.random.default_rng(8)
    chunks = [_synthetic_chunk(rng, 0, 300, "int64"), _synthetic_chunk(rng, 300, 300, "int64")]
    c = chunks[1]
    out = io.BytesIO()
    writer = TrialLogWriter(out)
    writer.write(chunks[0])
    _assert_refused_before_a_byte(
        writer,
        out,
        TrialLog(c.pair_codes, c.s_first, c.s_second, c.lambda_ids, "other", first_index=300),
        r"^the chunk at trial 300 has model tag 'other' and lambda kind int, "
        r"but this trial log's first chunk fixed model tag 'synthetic' and lambda kind int;",
    )
    writer.write(chunks[1])
    _assert_file_holds(tmp_path, out, chunks)


def test_a_writer_takes_every_integer_dtype_as_one_lambda_kind(tmp_path):
    # bool, uint64 and int64 columns are all written as decimal integers
    n = 200
    rng = np.random.default_rng(9)
    columns = [rng.integers(0, 2, n).astype(np.bool_), rng.integers(0, 2**63, n, dtype=np.uint64)]
    columns.append(-rng.integers(0, 2**63, n, dtype=np.int64))
    chunks = [
        TrialLog(np.ones(n, np.uint8), np.ones(n, np.int8), -np.ones(n, np.int8), lambdas, "t", k * n)
        for k, lambdas in enumerate(columns)
    ]
    out = io.BytesIO()
    writer = TrialLogWriter(out)
    for chunk in chunks:
        writer.write(chunk)
    assert out.getvalue() == _oracle_file(rec for chunk in chunks for rec in chunk)
    path = tmp_path / "log.csv"
    path.write_bytes(out.getvalue())
    assert _streams(path)
    lambdas = np.concatenate([chunk.lambda_ids.astype(np.int64) for chunk in chunks])
    assert np.array_equal(read_trial_log(path).lambda_ids, lambdas)


def _chunk_lengths(path) -> list:
    """The length of each chunk the block reader parses path into."""
    with open(path, "rb") as f:
        return [len(chunk) for chunk in _chunks(f)]


def test_blocks_of_more_than_a_chunk_of_rows_stream(tmp_path, no_block_scanned):
    # with an empty tag and positive outcomes a row is 14-15 bytes, so a 1 MiB
    # block holds about 70 000 rows
    n = 150_000
    log = TrialLog(np.zeros(n, np.uint8), np.ones(n, np.int8), np.ones(n, np.int8), None, "")
    log.pair_codes[::3] = 2
    _check_codec(tmp_path, log)
    lengths = _chunk_lengths(tmp_path / "log.csv")
    assert max(lengths) > _CHUNK_ROWS and sum(lengths) == n


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_blocks_of_a_single_row_stream(tmp_path, world, no_block_scanned):
    log = _run(world, 31, 40)
    # rows longer than the header line, so the first block holds the header alone
    log = TrialLog(log.pair_codes, log.s_first, log.s_second, log.lambda_ids, f"{log.model_tag}-{'x' * 50}")
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    # no block can hold two rows, and any block holds the row it starts with
    block = max(len(row) for row in rows)
    assert len(header) < block < 2 * min(len(row) for row in rows)
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
    parsed = _RowCodec(len(buf) // 11, "synthetic", _lambda_kind(chunk.lambda_ids)).parse(buf, first)
    _assert_same_log(parsed, chunk)
