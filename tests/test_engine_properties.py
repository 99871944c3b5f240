"""Properties of the chunked, lane-wise engine and the count-based estimators.

run_trial_scalar draws one trial at a time through the public single-draw
operations, so it is the oracle for every lane kernel; a float64 mean and
cumsum of the outcome products is the oracle for the estimators.
"""
import math

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
    estimate_pairs,
    run_experiment,
    stabilization,
)
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


@st.composite
def worlds(draw, binding):
    kind = draw(st.sampled_from(["quantum_fixed", "quantum_fresh", "table", "rotor", "conspiracy"]))
    if kind == "quantum_fixed":
        return QuantumWorld(initial_angle=draw(angles))
    if kind == "quantum_fresh":
        return QuantumWorld(policy="fresh_uniform")
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
@given(log=logs(), as_records=st.booleans())
def test_estimates_equal_float_means(log, as_records):
    trials = list(log) if as_records else log
    by_pair = _reference_products(log)
    if min(len(p) for p in by_pair) < 2:
        with pytest.raises(AnalysisError):
            estimate_pairs(trials)
        return
    for est, pair, prods in zip(estimate_pairs(trials), PAIR_ORDER, by_pair):
        assert est.pair == pair and est.n == len(prods)
        assert est.mean == float(np.mean(prods))
        assert est.std_error == math.sqrt(max(0.0, 1.0 - est.mean**2) / len(prods))


@settings(max_examples=300)
@given(log=logs(), as_records=st.booleans(), stride=st.integers(1, 7))
def test_stabilization_equals_float_cumsum(log, as_records, stride):
    trials = list(log) if as_records else log
    report = stabilization(trials, 0.05, stride)
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
    assert TrialLog.from_records(rotor + table).model_tag == "mixed"
