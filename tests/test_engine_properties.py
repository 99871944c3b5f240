"""Properties of the chunked, lane-wise engine and the count-based estimators.

run_trial_scalar draws one trial at a time through the public single-draw
operations, so it is the oracle for every lane kernel; a float64 mean and
cumsum of the outcome products is the oracle for the estimators.
"""
import concurrent.futures
import dataclasses
import gc
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    AnalysisError,
    Direction,
    QuantumWorld,
    ResponseModel,
    SlotBinding,
    SpacetimeEvent,
    TableModel,
    TimeSlot,
    TrialLog,
    TrialRecord,
    World,
    estimate_pairs,
    run_chunks,
    run_experiment,
    stabilization,
)
from lglab import experiment
from lglab.experiment import run_trial_scalar
from lglab.hidden_vars import PAIR_ORDER, RotorModel, conspiracy_from_quantum
from lglab.rng import MASK64
from lglab.triallog import _CHUNK_ROWS

GEOMETRY = (SpacetimeEvent(0.0, 0.0, 0.0, 0.0), SpacetimeEvent(0.0, 1.0, 0.0, 0.0))
SEAM = math.nextafter(math.pi, 0.0)
ALL_TRIPLES = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]

seeds = st.integers(0, MASK64) | st.sampled_from([0, 1, MASK64, MASK64 - 1])
# directions across the whole circle, with the pi seam of reduce_direction_angle
angles = st.floats(-10.0, 10.0, allow_nan=False) | st.sampled_from([0.0, -0.0, SEAM, math.pi, -math.pi, -SEAM])


@st.composite
def bindings(draw):
    a, b, c = (Direction(draw(angles)) for _ in range(3))
    return SlotBinding(1.0, 2.0, 3.0, a, b, c)


@st.composite
def table_models(draw):
    triples = draw(st.lists(st.sampled_from(ALL_TRIPLES), min_size=1, max_size=8))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(triples), max_size=len(triples)))
    total = math.fsum(weights)
    return TableModel([(w / total, t) for w, t in zip(weights, triples)])


class ScalarHandOff(World):
    """A world that is no QuantumWorld: it hands its scalar trial to one and
    runs on the default lane kernel."""

    tag = "scalar_hand_off"

    def __init__(self, inner):
        self.inner = inner

    def sample_pair(self, binding, pair, rand):
        return self.inner.sample_pair(binding, pair, rand)


class HandOff(ScalarHandOff):
    """A ScalarHandOff that hands its lane kernel to the QuantumWorld too."""

    tag = "hand_off"

    def sample_lanes(self, binding, codes, states):
        return self.inner.sample_lanes(binding, codes, states)


@st.composite
def worlds(draw, binding):
    kind = draw(st.sampled_from(["quantum_fixed", "quantum_fresh", "table", "rotor", "conspiracy", "hand_off"]))
    if kind == "quantum_fixed":
        return QuantumWorld(initial_angle=draw(angles))
    if kind == "quantum_fresh":
        return QuantumWorld(policy="fresh_uniform")
    if kind == "hand_off":
        return HandOff(QuantumWorld(draw(st.sampled_from(["fixed", "fresh_uniform"])), draw(angles)))
    if kind == "table":
        return draw(table_models())
    if kind == "rotor":
        return RotorModel(binding.directions)
    strength = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]))
    return conspiracy_from_quantum(binding.a, binding.b, binding.c, strength=strength)


@st.composite
def runs(draw):
    binding = draw(bindings())
    return binding, draw(worlds(binding)), draw(seeds)


def _assert_matches_oracle(log, binding, world, seed, indexes):
    for i in indexes:
        assert log[i] == run_trial_scalar(binding, world, i, seed), (world.tag, seed, i)


def _oracle_indexes(n):
    """Both ends, both sides of every chunk boundary, and a spread between."""
    picks = set(range(min(3, n))) | set(range(max(0, n - 3), n))
    for edge in range(_CHUNK_ROWS, n, _CHUNK_ROWS):
        picks |= {edge - 1, edge}
    picks |= set(np.linspace(0, n - 1, 40, dtype=int).tolist())
    return sorted(picks)


@settings(max_examples=150)
@given(run=runs(), n_trials=st.integers(1, 40))
def test_small_runs_equal_the_scalar_oracle(run, n_trials):
    binding, world, seed = run
    log = run_experiment(binding, world, n_trials, seed, GEOMETRY)
    _assert_matches_oracle(log, binding, world, seed, range(n_trials))


@settings(max_examples=60)
@given(
    run=runs(),
    seed=st.integers(0, (1 << 63) - 1),
    n_trials=st.integers(1, 40),
    np_int=st.sampled_from([np.int64, np.uint64]),
)
def test_a_numpy_integer_seed_runs_as_the_python_int(run, seed, n_trials, np_int):
    binding, world, _ = run
    log = run_experiment(binding, world, n_trials, seed, GEOMETRY)
    assert run_experiment(binding, world, n_trials, np_int(seed), GEOMETRY) == log
    for i in (0, n_trials - 1):
        assert run_trial_scalar(binding, world, i, np_int(seed)) == run_trial_scalar(binding, world, i, seed) == log[i]


@pytest.mark.parametrize("n_trials", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
@settings(max_examples=6)
@given(run=runs())
def test_runs_across_a_chunk_boundary_equal_the_scalar_oracle(n_trials, run):
    binding, world, seed = run
    log = run_experiment(binding, world, n_trials, seed, GEOMETRY)
    assert len(log) == n_trials
    _assert_matches_oracle(log, binding, world, seed, _oracle_indexes(n_trials))


@settings(max_examples=40)
@given(
    run=runs(),
    n_trials=st.integers(1, 3 * _CHUNK_ROWS + 5) | st.sampled_from([1, 2, _CHUNK_ROWS, _CHUNK_ROWS + 1]),
    n_shards=st.integers(2, 4),
)
def test_shard_layout_does_not_change_the_log(run, n_trials, n_shards):
    binding, world, seed = run
    serial = run_experiment(binding, world, n_trials, seed, GEOMETRY)
    sharded = run_experiment(binding, world, n_trials, seed, GEOMETRY, n_shards=n_shards)
    assert sharded == serial
    if serial.lambda_ids is not None:
        assert sharded.lambda_ids.dtype == serial.lambda_ids.dtype


@pytest.mark.parametrize("policy", ["fixed", "fresh_uniform"])
@pytest.mark.parametrize("world_type", [HandOff, ScalarHandOff])
def test_the_engine_and_the_oracle_need_only_the_world_interface(magic_binding, world_type, policy):
    world = world_type(QuantumWorld(policy, 0.7))
    n = _CHUNK_ROWS + 2
    log = run_experiment(magic_binding, world, n, 31, GEOMETRY)
    assert log.model_tag == world.tag
    assert log.lambda_ids is None
    _assert_matches_oracle(log, magic_binding, world, 31, _oracle_indexes(n))
    # the same trials as the world it hands off to
    inner = run_experiment(magic_binding, world.inner, n, 31, GEOMETRY)
    for column in ("pair_codes", "s_first", "s_second"):
        assert np.array_equal(getattr(log, column), getattr(inner, column))


def test_every_built_in_world_is_a_world(magic_binding):
    directions = magic_binding.directions
    table = TableModel([(1.0, (1, 1, 1))])
    for world in (QuantumWorld(), table, RotorModel(directions), conspiracy_from_quantum(*directions)):
        assert isinstance(world, World)
        assert type(world).sample_pair_batch is World.sample_pair_batch


def test_wrapping_stream_offsets_equal_the_scalar_oracle(magic_binding):
    # seed + i * golden wraps mod 2^64 from the second trial on
    world = QuantumWorld(policy="fresh_uniform")
    n = 2 * _CHUNK_ROWS + 1
    log = run_experiment(magic_binding, world, n, MASK64, GEOMETRY, n_shards=3)
    _assert_matches_oracle(log, magic_binding, world, MASK64, _oracle_indexes(n))


# -- custom response models: the default lane kernel ---------------------------


class CountingTable(ResponseModel):
    """Integer lambdas from sample_lambda/respond alone, two draws per trial."""

    tag = "counting"

    def sample_lambda(self, rand):
        rand.next_uniform()  # a draw the model discards still advances the stream
        return int(rand.next_uniform() * 8)

    def respond(self, lam, slot):
        return 1 if (lam >> slot.value) & 1 else -1


class HalfTurn(ResponseModel):
    """Float lambdas from sample_lambda/respond alone."""

    tag = "half_turn"

    def sample_lambda(self, rand):
        return rand.next_uniform() * math.pi

    def respond(self, lam, slot):
        return 1 if math.cos(lam + slot.value) >= 0.0 else -1


@pytest.mark.parametrize("model, dtype", [(CountingTable(), np.int64), (HalfTurn(), np.float64)])
@pytest.mark.parametrize("n_shards", [1, 3])
def test_models_with_only_the_abstract_methods_run_and_match_the_oracle(magic_binding, model, dtype, n_shards):
    n = _CHUNK_ROWS + 2
    log = run_experiment(magic_binding, model, n, 77, GEOMETRY, n_shards=n_shards)
    assert log.model_tag == model.tag
    # the column keeps the lambdas' own dtype: float lambdas are not truncated
    assert log.lambda_ids.dtype == dtype
    _assert_matches_oracle(log, magic_binding, model, 77, _oracle_indexes(n))


def test_default_kernel_advances_each_lane_like_the_scalar_draws(magic_binding):
    from lglab.rng import derive_states

    states = derive_states(5, np.arange(100, dtype=np.uint64))
    expected = states.copy()
    for _ in range(2):  # CountingTable draws two uniforms per trial
        expected = expected * np.uint64(6364136223846793005) + np.uint64(1442695040888963407)
    CountingTable().sample_pair_batch((TimeSlot.T1, TimeSlot.T3), states)
    assert np.array_equal(states, expected)


def test_sample_pair_batch_needs_a_protocol_pair():
    model = RotorModel((Direction(0.0), Direction(1.0), Direction(2.0)))
    states = np.zeros(4, dtype=np.uint64)
    for pair in ((TimeSlot.T2, TimeSlot.T1), (TimeSlot.T3, TimeSlot.T3)):
        with pytest.raises(ValueError):
            model.sample_pair_batch(pair, states)


class SometimesHidden(World):
    """A world with only sample_pair, whose lambda is None on some trials."""

    tag = "sometimes"

    def sample_pair(self, binding, pair, rand):
        return 1, -1, None if rand.next_uniform() < 0.5 else 3


def test_the_default_kernel_refuses_lambdas_that_are_none_on_some_trials(magic_binding):
    with pytest.raises(ValueError, match=r"^world 'sometimes': some trials returned lambda None and others a value"):
        run_experiment(magic_binding, SometimesHidden(), 100, 5, GEOMETRY)


# -- one lambda column per run ---------------------------------------------------


class SchemaDrift(World):
    """Lambdas whose column changes after the first chunk.

    The call counter tells the first chunk from the rest only because the
    engine samples a run's first chunk alone and first; the later chunks may
    come concurrently and in any order, and all get the later column.
    """

    tag = "drift"

    def __init__(self, first, later):
        self.columns = (first, later)
        self.chunks = 0

    def sample_pair(self, binding, pair, rand):
        return 1, 1, None

    def sample_lanes(self, binding, codes, states):
        n = len(states)
        lambdas = self.columns[min(self.chunks, 1)](n)
        self.chunks += 1
        return np.ones(n, np.int8), np.ones(n, np.int8), lambdas


DRIFTS = {
    # name: first chunk's lambdas, later chunks' lambdas, later dtype, first dtype
    "int_then_float": (lambda n: np.zeros(n, np.int64), lambda n: np.full(n, 0.5), "float64", "int64"),
    "none_then_int": (lambda n: None, lambda n: np.arange(n, dtype=np.int64), "int64", "None"),
}


@pytest.mark.parametrize("drift", sorted(DRIFTS))
@pytest.mark.parametrize(
    "run", [run_experiment, lambda *args: list(run_chunks(*args))], ids=["run_experiment", "run_chunks"]
)
def test_a_run_whose_lambdas_change_after_the_first_chunk_is_refused(magic_binding, monkeypatch, drift, run):
    first, later, got, fixed = DRIFTS[drift]
    # five chunks: run_experiment samples chunks 1-2 on this thread and 3-4 on
    # a worker, and every one of them is refused; the earliest names the error
    monkeypatch.setattr(experiment, "_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(
        ValueError,
        match=rf"^world 'drift': the chunk from trial {_CHUNK_ROWS} has lambda dtype {got}, "
        rf"but the first chunk's is {fixed};",
    ):
        run(magic_binding, SchemaDrift(first, later), 4 * _CHUNK_ROWS + 5, 3, GEOMETRY)
    assert threading.active_count() == before


def test_a_refused_run_leaves_no_reference_cycle(magic_binding, monkeypatch):
    # the error is raised from the fill's record of it, and its traceback
    # holds the frames that hold the fill and the log: a record kept would
    # keep the log alive until a gc pass
    monkeypatch.setattr(experiment, "_cpus", lambda: 2)
    first, later, _, _ = DRIFTS["int_then_float"]
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ValueError, match="lambda dtype"):
            run_experiment(magic_binding, SchemaDrift(first, later), 4 * _CHUNK_ROWS + 5, 3, GEOMETRY)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the log filled on every CPU ---------------------------------------------------

FILL_SIZES = [2 * _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1, 5 * _CHUNK_ROWS + 3]


class Coin(World):
    """A world with only sample_pair, so the default lane kernel samples it."""

    tag = "coin"

    def sample_pair(self, binding, pair, rand):
        lam = int(rand.next_uniform() * 4)
        return 1 - 2 * (lam & 1), 1 - (lam & 2), lam


def _built_in_worlds(binding):
    return [
        QuantumWorld(initial_angle=0.3),
        QuantumWorld(policy="fresh_uniform"),
        TableModel([(0.25, (1, 1, -1)), (0.75, (-1, 1, 1))]),
        RotorModel(binding.directions),
        conspiracy_from_quantum(binding.a, binding.b, binding.c, strength=0.6),
    ]


def _assert_is_the_stream(log, chunks):
    """log holds the columns of chunks, joined, each with its dtype."""
    assert (log.model_tag, log.first_index, len(log)) == (chunks[0].model_tag, 0, sum(map(len, chunks)))
    for name in ("pair_codes", "s_first", "s_second", "lambda_ids"):
        column = getattr(log, name)
        if chunks[0].lambda_ids is None and name == "lambda_ids":
            assert column is None
            continue
        joined = np.concatenate([getattr(chunk, name) for chunk in chunks])
        assert column.dtype == joined.dtype and np.array_equal(column, joined), name


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
@pytest.mark.parametrize("n_trials", FILL_SIZES)
def test_the_log_is_the_chunk_stream_on_any_number_of_cpus(magic_binding, monkeypatch, n_trials, n_shards, cpus):
    monkeypatch.setattr(experiment, "_cpus", lambda: cpus)
    for world in _built_in_worlds(magic_binding):
        log = run_experiment(magic_binding, world, n_trials, 11, GEOMETRY, n_shards=n_shards)
        chunks = list(run_chunks(magic_binding, world, n_trials, 11, GEOMETRY, n_shards=n_shards))
        _assert_is_the_stream(log, chunks)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_default_kernel_fills_the_log_on_a_worker_too(magic_binding, monkeypatch, cpus):
    # three chunks, the later two on this thread and a worker; the default
    # kernel takes some 2 us a trial, so one size stands for FILL_SIZES here
    monkeypatch.setattr(experiment, "_cpus", lambda: cpus)
    n = 2 * _CHUNK_ROWS + 1
    log = run_experiment(magic_binding, Coin(), n, 11, GEOMETRY, n_shards=3)
    _assert_is_the_stream(log, list(run_chunks(magic_binding, Coin(), n, 11, GEOMETRY, n_shards=3)))


@pytest.mark.parametrize("n_trials", [1, 10_000, _CHUNK_ROWS])
def test_a_one_chunk_run_is_its_chunk(magic_binding, n_trials):
    for world in [*_built_in_worlds(magic_binding), Coin()]:
        [chunk] = run_chunks(magic_binding, world, n_trials, 11, GEOMETRY)
        _assert_is_the_stream(run_experiment(magic_binding, world, n_trials, 11, GEOMETRY), [chunk])


def test_the_cpus_are_those_the_process_may_use(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert experiment._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert experiment._cpus() == (os.cpu_count() or 1)


def _counted_threads(monkeypatch):
    """Patch threading.Thread to count starts and joins, across instances;
    returns the counts and a condition notified at each join."""
    counts = {"start": 0, "join": 0}
    joined = threading.Condition()

    class Counted(threading.Thread):
        def start(self):
            counts["start"] += 1
            super().start()

        def join(self, timeout=None):
            with joined:
                counts["join"] += 1
                joined.notify_all()
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", Counted)
    return counts, joined


@pytest.mark.parametrize(
    "n_trials, cpus, started", [(40 * _CHUNK_ROWS, 2, 1), (40 * _CHUNK_ROWS, 1, 0), (10_000, 2, 0), (10_000, 1, 0)]
)
def test_a_run_starts_a_worker_per_other_cpu_never_one_per_chunk(magic_binding, monkeypatch, n_trials, cpus, started):
    monkeypatch.setattr(experiment, "_cpus", lambda: cpus)
    counts, _ = _counted_threads(monkeypatch)
    log = run_experiment(magic_binding, QuantumWorld(), n_trials, 3, GEOMETRY)
    assert len(log) == n_trials
    assert counts == {"start": started, "join": started}


def _scripted_chunks(monkeypatch, script):
    """Patch the engine to call script(k) as it begins chunk k of a run with
    n_shards=1, on whichever thread samples it; returns the chunks begun."""
    begun = []
    chunk = experiment._chunk

    def scripted(binding, world, master_seed, start, stop, lambda_dtype):
        begun.append(start // _CHUNK_ROWS)
        script(start // _CHUNK_ROWS)
        return chunk(binding, world, master_seed, start, stop, lambda_dtype)

    monkeypatch.setattr(experiment, "_chunk", scripted)
    return begun


def _submitted_runs(monkeypatch):
    """Patch the pool to keep the future of each run it is given; returns a
    function that waits until the run that begins at chunk k has ended."""
    futures, kept = {}, threading.Condition()
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def keep(pool, fn, lo, hi):
        future = submit(pool, fn, lo, hi)
        with kept:
            futures[lo] = future
            kept.notify_all()
        return future

    def ended(k):
        # a worker may begin its run before submit has returned its future
        with kept:
            assert kept.wait_for(lambda: k in futures, 10)
        futures[k].result(10)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", keep)
    return ended


@pytest.mark.parametrize("failing", [[4], [4, 7]], ids=["one", "two"])
def test_a_failing_chunk_stops_the_chunks_after_it_and_raises_as_the_stream_does(
    magic_binding, monkeypatch, failing
):
    # ten chunks over three CPUs: 0 alone, then 1-3 here, 4-6 and 7-9 on workers
    monkeypatch.setattr(experiment, "_cpus", lambda: 3)
    begun_on = {k: threading.Event() for k in (4, 7)}
    ended = _submitted_runs(monkeypatch)

    def script(k):
        if k in begun_on:
            begun_on[k].set()
        if k == 4:
            assert begun_on[7].wait(10)  # each worker is in its first chunk
        # chunk 2 waits until chunk 4 has failed and its worker's run ended,
        # and the later of the two failing chunks fails first
        wait_for = {2: 4, 4: 7 if 7 in failing else None, 7: None if 7 in failing else 4}.get(k)
        if wait_for is not None:
            assert begun_on[wait_for].wait(10)
            ended(wait_for)
        if k in failing:
            raise ValueError(f"chunk {k} fails")

    begun = _scripted_chunks(monkeypatch, script)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^chunk 4 fails$"):
        run_experiment(magic_binding, QuantumWorld(), 10 * _CHUNK_ROWS, 3, GEOMETRY)
    assert threading.active_count() == before
    # this thread's chunks come before the failure and all run; each worker
    # stops at the chunk after the one it was in
    assert sorted(begun) == [0, 1, 2, 3, 4, 7]
    with pytest.raises(ValueError, match="^chunk 4 fails$"):
        list(run_chunks(magic_binding, QuantumWorld(), 10 * _CHUNK_ROWS, 3, GEOMETRY))


@pytest.mark.parametrize("interrupt", ["raised", "signalled"])
def test_an_interrupt_on_the_calling_thread_stops_every_worker_at_its_next_chunk(
    magic_binding, monkeypatch, interrupt
):
    # ten chunks over three CPUs: 0 alone, then 1-3 here, 4-6 and 7-9 on workers
    monkeypatch.setattr(experiment, "_cpus", lambda: 3)
    waits, recorded, last_begun = [], threading.Event(), threading.Event()
    wait = concurrent.futures.wait

    def counted(futures):
        # the workers' stop is lowered before this thread first waits for them
        # if the interrupt was raised in a chunk, and before it waits again if
        # the interrupt came in while it waited
        waits.append(futures)
        if len(waits) == (1 if interrupt == "raised" else 2):
            recorded.set()
        return wait(futures)

    monkeypatch.setattr(concurrent.futures, "wait", counted)

    def script(k):
        if k == 2 and interrupt == "raised":
            raise KeyboardInterrupt  # as if SIGINT came in this chunk
        if k == 3:
            last_begun.set()
        if k == 4 and interrupt == "signalled":
            # SIGINT, most likely while this thread waits for the workers
            assert last_begun.wait(10)
            time.sleep(0.05)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        if k in (4, 7):
            assert recorded.wait(10)  # each worker ends the chunk it is in

    begun = _scripted_chunks(monkeypatch, script)
    before = threading.active_count()
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_experiment(magic_binding, QuantumWorld(), 10 * _CHUNK_ROWS, 3, GEOMETRY)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert threading.active_count() == before
    assert sorted(begun) == ([0, 1, 2, 4, 7] if interrupt == "raised" else [0, 1, 2, 3, 4, 7])


def test_a_worker_that_will_not_start_stops_the_run_and_raises_its_error(magic_binding, monkeypatch):
    # ten chunks over three CPUs: 0 alone, then 1-3 here and 4-6 on a worker;
    # the worker for 7-9 will not start
    monkeypatch.setattr(experiment, "_cpus", lambda: 3)
    start, starts = threading.Thread.start, []

    def refuse_the_second(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", refuse_the_second)
    begun = _scripted_chunks(monkeypatch, lambda k: None)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        run_experiment(magic_binding, QuantumWorld(), 10 * _CHUNK_ROWS, 3, GEOMETRY)
    assert threading.active_count() == before
    assert len(starts) == 2 and begun[0] == 0
    assert not {1, 2, 3} & set(begun)  # this thread's run never began


def test_more_workers_than_cpus_keep_the_log_and_the_earliest_error(magic_binding, monkeypatch):
    monkeypatch.setattr(experiment, "_cpus", lambda: 8)
    n = 20 * _CHUNK_ROWS + 7
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for world in _built_in_worlds(magic_binding)[2:4]:
            log = run_experiment(magic_binding, world, n, 5, GEOMETRY)
            _assert_is_the_stream(log, list(run_chunks(magic_binding, world, n, 5, GEOMETRY)))
        first, later, _, _ = DRIFTS["int_then_float"]
        with pytest.raises(ValueError, match=rf"^world 'drift': the chunk from trial {_CHUNK_ROWS} "):
            run_experiment(magic_binding, SchemaDrift(first, later), n, 5, GEOMETRY)
    finally:
        sys.setswitchinterval(interval)


# -- count-based estimators against a float64 reference -------------------------


@st.composite
def logs(draw):
    n = draw(st.integers(0, 60))
    codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    outcomes = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    return TrialLog(
        np.array(codes, dtype=np.uint8),
        np.array(draw(outcomes), dtype=np.int8),
        np.array(draw(outcomes), dtype=np.int8),
        None,
        "test",
    )


def _reference_products(log):
    products = log.s_first.astype(np.float64) * log.s_second
    return [products[log.pair_codes == code] for code in range(3)]


@settings(max_examples=300)
@given(log=logs())
def test_estimates_equal_float_means(log):
    by_pair = _reference_products(log)
    if min(len(p) for p in by_pair) < 2:
        with pytest.raises(AnalysisError):
            estimate_pairs(log)
        return
    for est, pair, prods in zip(estimate_pairs(log), PAIR_ORDER, by_pair):
        assert est.pair == pair and est.n == len(prods)
        assert est.mean == float(np.mean(prods))
        assert est.std_error == math.sqrt(max(0.0, 1.0 - est.mean**2) / len(prods))


@settings(max_examples=300)
@given(log=logs(), stride=st.integers(1, 7))
def test_stabilization_equals_float_cumsum(log, stride):
    report = stabilization(log, 0.05, stride)
    for got, prods in zip(report.pairs, _reference_products(log)):
        n = len(prods)
        assert got.n == n
        if n == 0:
            assert (got.final_mean, got.n_star, got.stabilized, got.checkpoints) == (None, None, False, ())
            continue
        counts = list(range(stride, n + 1, stride))
        if not counts or counts[-1] != n:
            counts.append(n)
        running = np.cumsum(prods)[np.array(counts) - 1] / np.array(counts)
        assert got.checkpoints == tuple(zip(counts, running.tolist()))
        assert got.final_mean == float(np.mean(prods))


def test_large_log_estimates_equal_float_means(magic_binding):
    log = run_experiment(magic_binding, QuantumWorld(), 400_000, 9, GEOMETRY)
    by_pair = _reference_products(log)
    assert [e.mean for e in estimate_pairs(log)] == [float(np.mean(p)) for p in by_pair]
    for got, prods in zip(stabilization(log).pairs, by_pair):
        assert got.checkpoints[-1] == (len(prods), float(np.cumsum(prods)[-1] / len(prods)))


def test_from_records_round_trips_a_log(magic_binding):
    directions = magic_binding.directions
    for world in (QuantumWorld(), RotorModel(directions), conspiracy_from_quantum(*directions)):
        log = run_experiment(magic_binding, world, 500, 4, GEOMETRY)
        again = TrialLog.from_records(list(log))
        assert again == log
        if log.lambda_ids is not None:
            assert again.lambda_ids.dtype == log.lambda_ids.dtype


def test_from_records_names_mixed_inputs(magic_binding):
    def records(world):
        return list(run_experiment(magic_binding, world, 3, 4, GEOMETRY))

    rotor, table = records(RotorModel(magic_binding.directions)), records(TableModel([(1.0, (1, 1, 1))]))
    with pytest.raises(ValueError, match="mixes"):
        TrialLog.from_records(rotor + records(QuantumWorld()))
    # a trial log holds one run of one world, as a file does
    with pytest.raises(ValueError, match="^record 3 has model tag 'table', but record 0 has 'rotor'$"):
        TrialLog.from_records(rotor + table)


def test_from_records_keeps_the_records_indexes(magic_binding):
    chunks = list(run_chunks(magic_binding, QuantumWorld(), 70_000, 5, GEOMETRY))
    assert chunks[1].first_index == _CHUNK_ROWS
    again = TrialLog.from_records(list(chunks[1]))
    assert again.first_index == _CHUNK_ROWS and again == chunks[1]
    empty = TrialLog.from_records([])
    assert (len(empty), empty.first_index, empty.model_tag) == (0, 0, "")


@pytest.mark.parametrize("indexes, k", [([5, 2], 1), ([0, 1, 3], 2), ([0, 0], 1)])
def test_from_records_refuses_records_out_of_order(indexes, k):
    records = [TrialRecord(i, PAIR_ORDER[0], 1, -1, None, "quantum") for i in indexes]
    expected = indexes[0] + k
    with pytest.raises(ValueError, match=f"^record {k} has index {indexes[k]}, not {expected};"):
        TrialLog.from_records(records)


@pytest.mark.parametrize("name", ["s_first", "s_second"])
@pytest.mark.parametrize("outcome", [0, 1.5, True, 300])
def test_from_records_refuses_an_outcome_that_is_not_the_integer_1_or_minus_1(name, outcome):
    ok = TrialRecord(4, PAIR_ORDER[0], 1, -1, None, "quantum")
    with pytest.raises(ValueError, match=f"^record 1 has {name} {outcome!r}, not 1 or -1$"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=5, **{name: outcome})])


@pytest.mark.parametrize("first_index", [0.0, "0", True, np.True_, None, -1, 2**64])
def test_a_log_takes_its_first_index_by_the_integer_rule(first_index):
    columns = np.zeros(2, np.uint8), np.ones(2, np.int8), -np.ones(2, np.int8)
    with pytest.raises(ValueError, match=r"^first_index must be an integer in \[0, 2\^64 - 1\], got "):
        TrialLog(*columns, None, "quantum", first_index)
    log = TrialLog(*columns, None, "quantum", np.uint64(2**64 - 2))
    assert type(log.first_index) is int and log[-1].index == 2**64 - 1


@pytest.mark.parametrize("index", [0.0, "0", True])
def test_from_records_refuses_an_index_that_is_not_an_integer(index):
    ok = TrialRecord(0, PAIR_ORDER[0], 1, -1, None, "quantum")
    with pytest.raises(ValueError, match=f"^record 0 has index {index!r}, not an integer$"):
        TrialLog.from_records([dataclasses.replace(ok, index=index), dataclasses.replace(ok, index=1)])
    with pytest.raises(ValueError, match=f"^record 1 has index {index!r}, not an integer$"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=index)])


@pytest.mark.parametrize("n, first_index", [(2, 2**64 - 1), (3, 2**64 - 2), (70_000, 2**64 - 69_999)])
def test_a_log_that_runs_past_trial_2_to_the_64_minus_1_is_refused(n, first_index):
    # a log of n trials from 2^64 - n, the last that fits, is taken above
    columns = np.zeros(n, np.uint8), np.ones(n, np.int8), -np.ones(n, np.int8)
    refusal = f"^a log of {n} trials from first_index {first_index} runs past trial 2\\^64 - 1$"
    for first in (first_index, np.uint64(first_index)):
        with pytest.raises(ValueError, match=refusal):
            TrialLog(*columns, None, "quantum", first)
    ok = TrialRecord(first_index, PAIR_ORDER[0], 1, -1, None, "quantum")
    with pytest.raises(ValueError, match=refusal):
        TrialLog.from_records([dataclasses.replace(ok, index=first_index + k) for k in range(n)])


def test_from_records_takes_pairs_by_the_pair_rule():
    ok = TrialRecord(0, PAIR_ORDER[0], 1, -1, None, "quantum")
    slots = [dataclasses.replace(ok, index=k, pair=p.slots) for k, p in enumerate(PAIR_ORDER)]
    members = [dataclasses.replace(ok, index=k, pair=p) for k, p in enumerate(PAIR_ORDER)]
    assert TrialLog.from_records(slots) == TrialLog.from_records(members)
    for pair in ["12", PAIR_ORDER[0].slots[::-1], 0, None]:
        with pytest.raises(ValueError, match="^record 1: .* is not one of the protocol pairs"):
            TrialLog.from_records([ok, dataclasses.replace(ok, index=1, pair=pair)])


def test_from_records_checks_lambdas_then_tags_then_indexes():
    ok = TrialRecord(0, PAIR_ORDER[0], 1, -1, 3, "table")
    with pytest.raises(ValueError, match="mixes empty and non-empty"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=7, lambda_id=None, model_tag="rotor")])
    with pytest.raises(ValueError, match="^record 1 has model tag 'rotor'"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=7, model_tag="rotor")])
    with pytest.raises(ValueError, match="^record 1 has index 7,"):
        TrialLog.from_records([ok, dataclasses.replace(ok, index=7, s_first=0)])
