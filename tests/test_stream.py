"""The chunk stream through `lglab run` and `lglab analyze`.

`lglab run` samples, folds, encodes and writes one chunk at a time, and
`lglab analyze` reads fixed blocks into the same fold. The materialized
path (run_experiment, write_trial_log, estimate_pairs, stabilization) is the
oracle for the bytes; tracemalloc shows that neither command holds a column
or the file whole.
"""
import json
import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import experiment, triallog
from lglab.analysis import AnalysisError, LogFold, estimate_pairs, evaluate_lg, stabilization
from lglab.cli import EXIT_CONFIG, EXIT_OK, SCHEMA_VERSION, load_run_config, main
from lglab.experiment import run_chunks, run_experiment, run_trial_scalar, spacelike_separated
from lglab.hidden_vars import conspiracy_from_quantum
from lglab.triallog import (
    _CHUNK_ROWS,
    TrialLog,
    TrialLogFormatError,
    fold_trial_log,
    read_trial_log,
    write_trial_log,
)
from lglab.jsonutil import dumps_stable
from lglab.rng import MASK64

from conftest import layout_scan_only

MAGIC = 0.5235987755982988  # pi/6
WORLDS = {
    "quantum": {"kind": "quantum"},
    "table": {"kind": "table", "rows": [[0.5, 1, 1, 1], [0.25, -1, 1, -1], [0.25, 1, -1, -1]]},
    "rotor": {"kind": "rotor"},
    "conspiracy": {"kind": "conspiracy"},
}
SIZES = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 7]


def _config(tmp_path, world: str, n_trials: int, seed: int, stride: int = 1000):
    path = tmp_path / f"{world}-{n_trials}.json"
    cfg = {
        "angles": {"theta_ab": MAGIC, "theta_bc": MAGIC},
        "world": WORLDS[world],
        "n_trials": n_trials,
        "master_seed": seed,
        "checkpoint_stride": stride,
    }
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _run(tmp_path, config_path):
    report, trials = tmp_path / "report.json", tmp_path / "trials.csv"
    code = main(["run", "--config", str(config_path), "--report", str(report), "--trials", str(trials)])
    return code, report, trials


def _materialized(tmp_path, config_path):
    """The CSV bytes of the whole-log API, and the log."""
    config = load_run_config(config_path)
    log = run_experiment(config.binding, config.world, config.n_trials, config.master_seed, config.geometry)
    csv = tmp_path / "oracle.csv"
    write_trial_log(log, csv)
    return csv.read_bytes(), log


def _materialized_report(config_path, log) -> bytes:
    config = load_run_config(config_path)
    report = {
        "schema": SCHEMA_VERSION,
        "config": config.echo,
        "freedom_of_choice": {"spacelike": spacelike_separated(*config.geometry), "override": False},
        "lg_report": evaluate_lg(estimate_pairs(log), config.significance).to_json_dict(),
        "stabilization_report": stabilization(log, config.epsilon, config.checkpoint_stride).to_json_dict(),
    }
    return dumps_stable(report).encode()


@pytest.mark.parametrize("n_trials", SIZES)
@pytest.mark.parametrize("world", sorted(WORLDS))
@settings(max_examples=1)
@given(seed=st.integers(0, MASK64))
def test_streamed_run_writes_the_bytes_of_the_materialized_run(tmp_path_factory, world, n_trials, seed):
    tmp_path = tmp_path_factory.mktemp("stream")
    # a stride that divides no chunk, so checkpoints straddle chunk edges
    config_path = _config(tmp_path, world, n_trials, seed, stride=997)
    code, report, trials = _run(tmp_path, config_path)
    csv_bytes, log = _materialized(tmp_path, config_path)
    assert trials.read_bytes() == csv_bytes
    if n_trials == 1:
        # two pairs are empty, which the estimators refuse on both paths
        assert code == EXIT_CONFIG
        with pytest.raises(AnalysisError):
            _materialized_report(config_path, log)
        return
    assert code == EXIT_OK
    assert report.read_bytes() == _materialized_report(config_path, log)


def _split(log: TrialLog, cuts):
    bounds = [0, *sorted(set(cuts)), len(log)]
    return [triallog._rows(log, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


@settings(max_examples=100)
@given(
    world=st.sampled_from(sorted(WORLDS)),
    seed=st.integers(0, MASK64),
    n_trials=st.integers(6, 400),
    stride=st.integers(1, 40),
    cuts=st.lists(st.integers(1, 399), max_size=8),
)
def test_folding_chunk_by_chunk_equals_folding_the_whole_log(tmp_path_factory, world, seed, n_trials, stride, cuts):
    config = load_run_config(_config(tmp_path_factory.mktemp("fold"), world, n_trials, seed))
    log = run_experiment(config.binding, config.world, n_trials, seed, config.geometry)
    whole = LogFold(stride).add(log)
    parts = LogFold.over(_split(log, [c for c in cuts if c < n_trials]), stride)
    assert np.array_equal(parts.counts, whole.counts)
    assert parts.stabilization(0.05) == whole.stabilization(0.05)


def test_run_chunks_are_the_run_in_index_order(magic_binding, spacelike_geometry):
    world = experiment.QuantumWorld()
    n = 2 * _CHUNK_ROWS + 3
    chunks = list(run_chunks(magic_binding, world, n, 9, spacelike_geometry, n_shards=3))
    assert [c.first_index for c in chunks] == np.cumsum([0] + [len(c) for c in chunks[:-1]]).tolist()
    assert all(len(c) <= _CHUNK_ROWS for c in chunks)
    whole = run_experiment(magic_binding, world, n, 9, spacelike_geometry)
    assert triallog._concatenate(iter(chunks)) == whole
    assert chunks[-1][len(chunks[-1]) - 1] == whole[n - 1]  # records carry their run index


# -- the block reader -------------------------------------------------------------


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    """A two-chunk table run of 70 500 trials: its CSV and its log."""
    tmp_path = tmp_path_factory.mktemp("blocks")
    code, _, trials = _run(tmp_path, _config(tmp_path, "table", 70_500, 11))
    assert code == EXIT_OK
    return trials, read_trial_log(trials)


def _analyze(capsys, path) -> str:
    code = main(["analyze", "--trials", str(path)])
    assert code == EXIT_OK
    return capsys.readouterr().out


def test_analyze_output_does_not_depend_on_the_block_size(tmp_path, capsys, no_block_scanned):
    code, _, trials = _run(tmp_path, _config(tmp_path, "table", 5_000, 12, stride=100))
    assert code == EXIT_OK
    capsys.readouterr()
    log = read_trial_log(trials)
    expected = _analyze(capsys, trials)
    # 300-byte blocks split lines; every block must still stream
    with mock.patch.object(triallog, "_READ_BLOCK", 300):
        assert _analyze(capsys, trials) == expected
        assert read_trial_log(trials) == log


@pytest.mark.parametrize("block", [4096, triallog._READ_BLOCK])
def test_chunks_that_a_fold_keeps_stay_as_read(table_run, block, no_block_scanned):
    # the block reader parses every block into arrays of its own; a chunk that
    # fold_trial_log hands out must not change when the next one is parsed
    trials, log = table_run
    with mock.patch.object(triallog, "_READ_BLOCK", block):
        chunks = fold_trial_log(trials, list)
    assert len(chunks) > 1
    first = 0
    for chunk in chunks:
        assert chunk == triallog._rows(log, first, first + len(chunk))
        first += len(chunk)
    assert first == len(log)


def _scanned(data: bytes) -> TrialLog:
    """The log in data as the line scanner alone reads it, the oracle for the
    block reader: universal newlines, the header line off, then every row."""
    header, rows = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n", 1)
    assert header == triallog.TRIAL_LOG_HEADER
    return triallog._scan_lines(rows)


MUTATIONS = {
    "pad_index": lambda line: "00" + line,
    "other_tag": lambda line: line + "2",
    "crlf": lambda line: line + "\r",
}


@settings(max_examples=60)
@given(
    block=st.integers(20, 400),
    n_trials=st.integers(2, 80),
    row=st.integers(0, 79),
    mutation=st.sampled_from(sorted(MUTATIONS) + ["no_final_newline", "lone_cr", "last_lone_cr", "mixed_ends", "none"]),
)
def test_small_blocks_parse_valid_logs_as_the_line_scanner_does(tmp_path_factory, block, n_trials, row, mutation):
    tmp_path = tmp_path_factory.mktemp("small")
    config = load_run_config(_config(tmp_path, "rotor", n_trials, row))
    log = run_experiment(config.binding, config.world, n_trials, row, config.geometry)
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    text = path.read_text(encoding="utf-8")
    if mutation == "no_final_newline":
        text = text[:-1]
    elif mutation == "lone_cr":
        text = text.replace("\n", "\r")
    elif mutation == "last_lone_cr":
        text = text[:-1] + "\r"
    elif mutation == "mixed_ends":
        text = "".join(line + ("\r\n", "\r", "\n")[k % 3] for k, line in enumerate(text.split("\n")[:-1]))
    elif mutation != "none":
        lines = text.split("\n")
        lines[row % n_trials + 1] = MUTATIONS[mutation](lines[row % n_trials + 1])
        text = "\n".join(lines)
    path.write_bytes(text.encode())
    if mutation == "other_tag":
        # a row whose tag differs from the first row's is refused, naming its line
        with pytest.raises(TrialLogFormatError, match="model tag") as expected:
            _scanned(path.read_bytes())
        with mock.patch.object(triallog, "_READ_BLOCK", block), pytest.raises(TrialLogFormatError) as got:
            read_trial_log(path)
        assert str(got.value) == str(expected.value)
        return
    with mock.patch.object(triallog, "_READ_BLOCK", block):
        got = read_trial_log(path)
    expected = _scanned(path.read_bytes())
    assert got == expected
    assert got.lambda_ids.dtype == expected.lambda_ids.dtype


def test_bad_row_at_line_70000_is_named_with_small_blocks(table_run, tmp_path, capsys):
    trials, _ = table_run
    lines = trials.read_text(encoding="utf-8").split("\n")
    fields = lines[69_999].split(",")  # line 70 000
    fields[3] = "0"
    lines[69_999] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines), encoding="utf-8")
    with mock.patch.object(triallog, "_READ_BLOCK", 4096):
        with pytest.raises(TrialLogFormatError, match="^line 70000: outcomes"):
            read_trial_log(bad)
        assert main(["analyze", "--trials", str(bad)]) == EXIT_CONFIG
    assert "error: line 70000: outcomes" in capsys.readouterr().err


def test_a_log_whose_last_block_is_not_canonical_folds_as_the_canonical_one(table_run, tmp_path, capsys):
    trials, log = table_run
    expected = json.loads(_analyze(capsys, trials))
    # the last row gets a padded index: valid, but not as the writer writes it
    data = trials.read_bytes()
    head, last = data[:-1].rsplit(b"\n", 1)
    padded = tmp_path / "padded.csv"
    padded.write_bytes(head + b"\n0" + last + b"\n")
    assert read_trial_log(padded) == log
    assert json.loads(_analyze(capsys, padded)) == expected


def test_a_fold_that_catches_every_exception_still_gets_the_whole_log(table_run, tmp_path):
    trials, log = table_run
    # row 60 000 gets a padded index, so a block past the first is not canonical
    lines = trials.read_bytes().split(b"\n")
    lines[60_001] = b"0" + lines[60_001]
    padded = tmp_path / "padded.csv"
    padded.write_bytes(b"\n".join(lines))

    def count_rows(chunks):
        rows = 0
        try:
            for chunk in chunks:
                rows += len(chunk)
        except Exception:
            pass
        return rows

    assert fold_trial_log(padded, count_rows) == len(read_trial_log(padded)) == len(log)


def _edited(trials, tmp_path, edit: str):
    """A copy of the log at trials, with one valid edit that no writer makes."""
    data = trials.read_bytes()
    if edit == "padded_row_60000":
        lines = data.split(b"\n")
        lines[60_001] = b"0" + lines[60_001]
        data = b"\n".join(lines)
    elif edit == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif edit == "padded":
        lines = data.split(b"\n")
        lines[1:-1] = [b"0" + line for line in lines[1:-1]]
        data = b"\n".join(lines)
    path = tmp_path / f"{edit}.csv"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("edit", ["none", "padded_row_60000", "crlf"])
def test_fold_trial_log_calls_its_fold_once(table_run, tmp_path, edit):
    trials, log = table_run
    calls = []

    def fold(chunks):
        calls.append(edit)
        return triallog._concatenate(chunks)

    assert fold_trial_log(_edited(trials, tmp_path, edit), fold) == log
    assert calls == [edit]


@pytest.mark.parametrize("block", [4096, triallog._READ_BLOCK])
@pytest.mark.parametrize(
    "field, value, message",
    [
        (5, "table2", "model tag 'table2' differs from the first row's 'table'"),
        (4, "0.5", "lambda_id '0.5' is a float in an integer column"),
    ],
    ids=["other_tag", "float_lambda"],
)
def test_a_row_that_changes_the_first_rows_layout_is_refused(table_run, tmp_path, capsys, block, field, value, message):
    # the first row fixes the model tag and the lambda kind, as the first
    # chunk does for a writer
    trials, _ = table_run
    lines = trials.read_text(encoding="utf-8").split("\n")
    fields = lines[69_999].split(",")  # line 70 000
    fields[field] = value
    lines[69_999] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines), encoding="utf-8")
    with mock.patch.object(triallog, "_READ_BLOCK", block):
        with pytest.raises(TrialLogFormatError, match=f"^line 70000: {message}"):
            read_trial_log(bad)
        assert main(["analyze", "--trials", str(bad)]) == EXIT_CONFIG
    assert f"error: line 70000: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("block", [16, 60, 4096])
def test_a_crlf_log_streams_and_names_a_bad_byte_by_its_line(table_run, tmp_path, block):
    # a CRLF header is longer than a canonical one, and than a 16-byte block;
    # once its line ends are \n, every block parses column-wise, and a bad
    # byte far into the file is still named by its line
    trials, log = table_run
    crlf = _edited(trials, tmp_path, "crlf")
    with mock.patch.object(triallog, "_READ_BLOCK", block), layout_scan_only():
        chunks = fold_trial_log(crlf, list)
    assert len(chunks) > 1 and triallog._concatenate(iter(chunks)) == log
    lines = crlf.read_bytes().split(b"\r\n")
    lines[69_999] += b"\xff"
    crlf.write_bytes(b"\r\n".join(lines))
    with mock.patch.object(triallog, "_READ_BLOCK", block):
        with pytest.raises(TrialLogFormatError, match="^line 70000: not valid UTF-8"):
            read_trial_log(crlf)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "line 1: expected header"),
        (b"index\n0,12,1,1,,q\n", "line 1: expected header"),
        (triallog._HEADER_LINE, "line 2: log contains no trials"),
        (triallog._HEADER_LINE[:-1], "line 2: log contains no trials"),
    ],
    ids=["empty", "other_header", "header_only", "header_without_newline"],
)
def test_a_log_without_a_header_or_trials_is_refused(tmp_path, data, message):
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    with pytest.raises(TrialLogFormatError, match=f"^{message}"):
        read_trial_log(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"index\n0,12,1,1,,q\xff\n", "line 1: expected header"),
        (triallog._HEADER_LINE + b"0,12,1,0,,q\n1,12,1,1,,q\xff\n", "line 2: outcomes must be 1 or -1"),
        (triallog._HEADER_LINE + b"x,12,1,1,,q\n1,12,1,1,,q\xff\n", "line 2: index 'x' is not an integer"),
    ],
    ids=["wrong_header", "bad_first_row", "bad_first_index"],
)
def test_the_first_line_breaking_the_schema_is_named_before_a_later_bad_byte(tmp_path, data, message):
    # the header and the first row are read before the rest of their block
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    with pytest.raises(TrialLogFormatError, match=f"^{message}"):
        read_trial_log(path)


def test_a_line_longer_than_the_block_doubles_it(tmp_path):
    path = tmp_path / "long.csv"
    tag = "t" * 300
    rows = [f"{k},12,1,-1,{k},{tag}" for k in range(5)]
    rows[2] = f"0{rows[2]}"  # a padded index: valid, but not canonical
    path.write_text("\n".join([triallog.TRIAL_LOG_HEADER, *rows, ""]), encoding="utf-8")
    with mock.patch.object(triallog, "_READ_BLOCK", 64):
        log = read_trial_log(path)
    assert log == _scanned(path.read_bytes())
    assert (len(log), log.model_tag, log.lambda_ids.tolist()) == (5, tag, list(range(5)))


@pytest.mark.parametrize("canonical", [True, False])
def test_a_log_read_from_a_pipe_parses_as_from_a_file(tmp_path, canonical):
    config = load_run_config(_config(tmp_path, "table", 500, 4))
    log = run_experiment(config.binding, config.world, 500, 4, config.geometry)
    path = tmp_path / "log.csv"
    write_trial_log(log, path)
    data = path.read_bytes() if canonical else path.read_bytes()[:-1]  # no final newline
    fifo = tmp_path / "log.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert read_trial_log(fifo) == log
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# -- memory -----------------------------------------------------------------------


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_run_and_analyze_peaks_do_not_grow_with_n_trials(tmp_path, capsys):
    # a CRLF copy of the log parses column-wise too, once its line ends are \n
    peaks = {}
    for n in (1 << 17, 1 << 20):
        code = {}
        config_path = _config(tmp_path, "quantum", n, 3)
        peaks["run", n] = _peak_mb(lambda: code.setdefault("run", _run(tmp_path, config_path)[0]))
        trials = tmp_path / "trials.csv"
        crlf = _edited(trials, tmp_path, "crlf")
        for command, path in (("analyze", trials), ("analyze_crlf", crlf)):
            with layout_scan_only():
                peaks[command, n] = _peak_mb(lambda: code.setdefault(command, main(["analyze", "--trials", str(path)])))
        capsys.readouterr()
        assert code == {"run": EXIT_OK, "analyze": EXIT_OK, "analyze_crlf": EXIT_OK}
    # the 2^20-trial file alone is 22 MB; its columns are 3 MB
    for command in ("run", "analyze", "analyze_crlf"):
        assert math.isclose(peaks[command, 1 << 20], peaks[command, 1 << 17], abs_tol=2.0), peaks


def test_a_crlf_log_peaks_within_one_block_of_the_canonical_log(tmp_path):
    # a block that holds a \r\n is copied once to \n line ends, and that
    # copy is all a CRLF log holds beyond the canonical one
    assert _run(tmp_path, _config(tmp_path, "quantum", 300_000, 3))[0] == EXIT_OK
    trials = tmp_path / "trials.csv"
    peaks = {}
    for path in (trials, _edited(trials, tmp_path, "crlf")):
        peaks[path.name] = _peak_mb(lambda: fold_trial_log(path, lambda chunks: LogFold.over(chunks, 1000)))
    assert peaks["crlf.csv"] - peaks["trials.csv"] <= 1.25 * 2**20 / 1e6, peaks


def test_analyze_peak_does_not_grow_with_n_trials_on_a_padded_log(tmp_path, capsys):
    # every block of a log whose every index is zero-padded goes through the
    # line scanner, which is still fed one block at a time
    peaks = {}
    for n in (1 << 17, 1 << 20):
        assert _run(tmp_path, _config(tmp_path, "quantum", n, 3))[0] == EXIT_OK
        trials = _edited(tmp_path / "trials.csv", tmp_path, "padded")
        code = []
        peaks[n] = _peak_mb(lambda: code.append(main(["analyze", "--trials", str(trials)])))
        capsys.readouterr()
        assert code == [EXIT_OK]
    assert math.isclose(peaks[1 << 20], peaks[1 << 17], abs_tol=2.0), peaks


def _traced_peaks(monkeypatch, method: str) -> list:
    """Patch _RowCodec.method to record, for each call, its rows and the most
    memory that its allocations, its result among them, held at once. A call
    made while another is traced is part of that call's peak."""
    peaks = []
    real = getattr(triallog._RowCodec, method)

    def traced(self, *args):
        if tracemalloc.is_tracing():
            return real(self, *args)
        tracemalloc.start()
        try:
            result = real(self, *args)
            rows = result.count(b"\n") if method == "encode" else len(result)
            peaks.append((rows, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(triallog._RowCodec, method, traced)
    return peaks


# the rotor's float lambda_ids still go through repr, one Python string per row
@pytest.mark.parametrize("world", ["quantum", "table", "conspiracy"])
def test_every_full_chunk_after_the_first_traces_the_same_bounded_peak(tmp_path, capsys, monkeypatch, world):
    # Every buffer numpy allocates is traced, the encoded rows and the parsed
    # columns too. The codec keeps only its cell matrix from chunk to chunk,
    # made for the first chunk of a stream, so every later chunk allocates its
    # own temporaries, but only a few columns of them: at most 80 bytes per
    # row. The writer's full chunks all hold 2^16 rows, and each traces the
    # same peak; the reader's full blocks hold whole lines of 1 MiB, so their
    # row counts, and with them their peaks, differ.
    encoded, parsed = _traced_peaks(monkeypatch, "encode"), _traced_peaks(monkeypatch, "parse")
    code, _, trials = _run(tmp_path, _config(tmp_path, world, 5 * _CHUNK_ROWS + 7, 3))
    assert code == EXIT_OK
    assert [rows for rows, _ in encoded] == [_CHUNK_ROWS] * 5 + [7]
    assert main(["analyze", "--trials", str(trials)]) == EXIT_OK
    capsys.readouterr()
    assert len(parsed) > 5
    assert len({peak for _, peak in encoded[1:-1]}) == 1, encoded
    for rows, peak in encoded[1:-1] + parsed[1:-1]:
        assert peak <= 80 * rows, (rows, peak)


# -- index ranges -----------------------------------------------------------------


def test_shards_cover_the_index_range_exactly_at_any_size():
    assert list(experiment._shards(2**53 + 1, 1)) == [(0, 2**53 + 1)]
    assert list(experiment._shards(2**53 + 1, 2)) == [(0, 2**52), (2**52, 2**53 + 1)]
    n = 2**63 + 10
    assert list(experiment._shards(n, 1)) == [(0, n)]
    assert list(experiment._shards(n, 3)) == [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
    assert list(experiment._shards(3, 5)) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("n_trials", [2**63 + 10, 2**64])
def test_runs_past_2_63_trials_start_like_any_run(magic_binding, spacelike_geometry, n_trials):
    world = experiment.QuantumWorld()
    first = next(run_chunks(magic_binding, world, n_trials, 9, spacelike_geometry))
    assert first == next(run_chunks(magic_binding, world, _CHUNK_ROWS, 9, spacelike_geometry))


@pytest.mark.parametrize("span", [(2**63 - 100, 2**63 + 100), (2**64 - 70_000, 2**64)], ids=["2^63", "2^64"])
@pytest.mark.parametrize("world", ["quantum", "conspiracy"])
def test_chunks_at_the_top_of_the_index_range_match_the_scalar_trials(
    magic_binding, spacelike_geometry, monkeypatch, span, world
):
    # a run's first shard starts at trial 0, so only a patched shard reaches these indexes
    monkeypatch.setattr(experiment, "_shards", lambda n_trials, n_shards: iter([span]))
    b = magic_binding
    model = experiment.QuantumWorld() if world == "quantum" else conspiracy_from_quantum(b.a, b.b, b.c)
    chunks = list(run_chunks(b, model, 2**64, 9, spacelike_geometry))
    assert [c.first_index for c in chunks] == list(range(*span, _CHUNK_ROWS))
    assert chunks[-1].first_index + len(chunks[-1]) == span[1]
    for chunk in chunks:
        for k in [*range(0, len(chunk), 997), len(chunk) - 1]:
            assert chunk[k] == run_trial_scalar(b, model, chunk.first_index + k, 9)



def test_a_run_whose_indexes_overflow_64_bits_is_refused(magic_binding, spacelike_geometry):
    with pytest.raises(ValueError, match=r"2\^64"):
        run_chunks(magic_binding, experiment.QuantumWorld(), 2**64 + 1, 9, spacelike_geometry)
