"""Properties of the CSV trial-log codec.

The record branch of write_trial_log formats one TrialRecord at a time,
independently of the chunked column encoder, so it serves as the format
oracle here.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lglab import (
    Direction,
    QuantumWorld,
    SlotBinding,
    SpacetimeEvent,
    TableModel,
    read_trial_log,
    run_experiment,
    write_trial_log,
)
from lglab.experiment import (
    _CHUNK_ROWS,
    TrialLog,
    TrialLogFormatError,
    _canonical_chunks,
    _int_cells,
    _NotCanonical,
)
from lglab.hidden_vars import RotorModel, conspiracy_from_quantum
from lglab.rng import MASK64

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
    # repr writes "inf" and "nan", which the line scanner does not read as numbers
    lambdas = np.array([0.5, 1.25, bad, 2.0])
    log = TrialLog(
        np.array([0, 1, 2, 0], dtype=np.uint8), np.ones(4, np.int8), -np.ones(4, np.int8), lambdas, "rotor"
    )
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    with pytest.raises(TrialLogFormatError, match="line 4: lambda_id '.*' is not a number"):
        read_trial_log(path)


def test_writer_refuses_outcomes_other_than_plus_minus_one(tmp_path):
    log = _run("quantum", 3, 10)
    s_first = log.s_first.copy()
    s_first[4] = 0
    with pytest.raises(ValueError, match="outcomes"):
        write_trial_log(TrialLog(log.pair_codes, s_first, log.s_second, None, "quantum"), tmp_path / "x.csv")


# -- the byte-cell row encoder ------------------------------------------------


def _int_text(values: np.ndarray) -> list:
    return [row.tobytes().replace(b"\0", b"").decode() for row in _int_cells(values)]


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
