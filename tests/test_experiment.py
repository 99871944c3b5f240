import math
import re

import numpy as np
import pytest

from lglab import (
    ConspiracyModel,
    Direction,
    FreedomOfChoiceError,
    PairChoice,
    PairEstimate,
    PolarizationState,
    QuantumWorld,
    SeededGenerator,
    SlotBinding,
    SpacetimeEvent,
    TableModel,
    TrialLog,
    TrialRecord,
    derive_trial_generator,
    evaluate_lg,
    maximize_violation,
    mixture_bound_check,
    read_trial_log,
    run_chunks,
    run_experiment,
    select_pair,
    spacelike_separated,
    stabilization,
    write_trial_log,
)
from lglab import experiment
from lglab.experiment import SELECT_PAIR_MAX_ATTEMPTS, run_trial_scalar
from lglab.hidden_vars import RotorModel, TimeSlot, conspiracy_from_quantum
from lglab.rng import MASK64, derive_states, mix64
from lglab.triallog import TRIAL_LOG_HEADER, TrialLogFormatError


# -- pinned generator ----------------------------------------------------------


def test_lcg_recurrence_matches_documented_constants():
    gen = SeededGenerator(1)
    # one step of state' = (6364136223846793005*state + 1442695040888963407) mod 2^64,
    # evaluated independently here
    expected = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
    assert gen.step() == expected
    assert gen.state == expected


def test_uniform_extraction_is_top_53_bits():
    gen = SeededGenerator(123)
    shadow = SeededGenerator(123)
    for _ in range(1000):
        u = gen.next_uniform()
        assert u == (shadow.step() >> 11) / 2**53
        assert 0.0 <= u < 1.0


def test_seed_42_first_eight_pair_choices_frozen():
    # regression vector computed once from the documented recurrence
    gen = SeededGenerator(42)
    choices = [select_pair(gen).value for _ in range(8)]
    assert choices == ["23", "12", "13", "23", "23", "12", "12", "12"]


def test_equal_seeds_give_identical_choice_sequences():
    g1, g2 = SeededGenerator(987654321), SeededGenerator(987654321)
    assert [select_pair(g1) for _ in range(500)] == [select_pair(g2) for _ in range(500)]


def test_pair_selection_is_uniform():
    gen = SeededGenerator(42)
    counts = {p: 0 for p in PairChoice}
    n = 1_000_000
    for _ in range(n):
        counts[select_pair(gen)] += 1
    for p, k in counts.items():
        assert 0.332 <= k / n <= 0.335, (p, k / n)


class _TopBits:
    """A generator whose steps have the given top two bits, in order."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def top_two_bits(self) -> int:
        return next(self.bits)


@pytest.mark.parametrize("last", [0, 3], ids=["accepted_on_the_last_attempt", "rejected_on_every_attempt"])
def test_pair_selection_takes_at_most_its_cap_of_attempts(monkeypatch, last):
    # the value 3 is rejected on every attempt but the last one allowed, where
    # last is drawn: the scalar and lane selections keep the same lane or
    # refuse it, and neither steps past the cap
    bits = [3] * (SELECT_PAIR_MAX_ATTEMPTS - 1) + [last]

    def step_states(states):
        states &= np.uint64(MASK64 >> 2)
        states |= np.uint64(bits[len(steps)] << 62)
        steps.append(len(states))
        return states

    steps = []
    monkeypatch.setattr(experiment, "step_states", step_states)
    if last == 3:
        refused = f"^pair selection failed {SELECT_PAIR_MAX_ATTEMPTS} rejections in a row$"
        with pytest.raises(RuntimeError, match=refused):
            select_pair(_TopBits(bits))
        with pytest.raises(RuntimeError, match=refused):
            experiment._select_pairs_batch(np.zeros(4, np.uint64))
    else:
        assert select_pair(_TopBits(bits)) is PairChoice.P12
        assert experiment._select_pairs_batch(np.zeros(4, np.uint64)).tolist() == [0] * 4
    assert steps == [4] * SELECT_PAIR_MAX_ATTEMPTS


def test_derive_trial_generator_is_reproducible_and_distinct():
    assert derive_trial_generator(7, 0).state == derive_trial_generator(7, 0).state
    assert derive_trial_generator(7, 0).state != derive_trial_generator(7, 1).state
    assert derive_trial_generator(7, 5).state != derive_trial_generator(8, 5).state
    # vectorized twin agrees lane for lane
    states = derive_states(7, np.arange(100, dtype=np.uint64))
    for i in range(100):
        assert int(states[i]) == derive_trial_generator(7, i).state


@pytest.mark.parametrize(
    "seed, index",
    [(2**64 - 1, np.uint64(2**64 - 1)), (2**63, np.uint64(2**63 + 5)), (0, np.uint64(0)), (2**64 - 1, 2**64 - 1), (7, 3)],
)
def test_derive_states_of_a_scalar_index_wraps_as_the_scalar_derivation_does(seed, index):
    # a scalar index gives a scalar state, and the seed's add wraps mod 2^64
    # with no overflow warning, which the test settings turn into an error
    state = derive_states(seed, index)
    assert np.ndim(state) == 0 and int(state) == derive_trial_generator(seed, int(index)).state


def test_derive_matches_splitmix_finalizer_by_hand():
    seed, index = 42, 3
    z = (seed + index * 0x9E3779B97F4A7C15) & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    assert derive_trial_generator(seed, index).state == z == mix64(seed + index * 0x9E3779B97F4A7C15)


# -- spacetime geometry ----------------------------------------------------------


def test_spacelike_separation_cases():
    origin = SpacetimeEvent(0, 0, 0, 0)
    assert spacelike_separated(origin, SpacetimeEvent(0, 1, 0, 0)) is True
    assert spacelike_separated(origin, SpacetimeEvent(1, 0, 0, 0)) is False
    # null interval fails the strict inequality
    assert spacelike_separated(origin, SpacetimeEvent(1, 1, 0, 0)) is False


def test_binding_requires_increasing_times():
    d = Direction(0)
    with pytest.raises(ValueError):
        SlotBinding(2.0, 1.0, 3.0, d, d, d)


_MEANS = {p: 0.5 for p in PairChoice}
_BINDING = SlotBinding(1.0, 2.0, 3.0, Direction(0), Direction(0), Direction(0))
_GEOMETRY = (SpacetimeEvent(0, 0, 0, 0), SpacetimeEvent(0, 1, 0, 0))
_ESTIMATES = tuple(PairEstimate(p, 100, m, math.sqrt((1 - m * m) / 100)) for p, m in zip(PairChoice, (0.5, -0.5, 0.5)))
# two trials of each pair, every product 1
_LOG = TrialLog(np.repeat(np.arange(3, dtype=np.uint8), 2), np.ones(6, np.int8), np.ones(6, np.int8), None, "test")


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Direction(10**400), "direction angle"),
        (lambda: Direction(True), "direction angle"),
        (lambda: PolarizationState(10**400), "state angle"),
        (lambda: PolarizationState(True), "state angle"),
        (lambda: SpacetimeEvent(10**400, 0, 0, 0), "event coordinate t"),
        (lambda: SlotBinding(0, 1, math.inf, Direction(0), Direction(0), Direction(0)), "time t3"),
        (lambda: ConspiracyModel(_MEANS, strength=True), "strength"),
        (lambda: ConspiracyModel(_MEANS, strength="1"), "strength"),
        (lambda: ConspiracyModel({**_MEANS, PairChoice.P13: True}), "target mean"),
        (lambda: maximize_violation("x"), "grid step"),
        (lambda: maximize_violation(0.01, 10**400), "refine tolerance"),
        (lambda: QuantumWorld(initial_angle=True), "initial_angle"),
        (lambda: QuantumWorld(initial_angle="0"), "initial_angle"),
        (lambda: SlotBinding(True, 2.0, 3.0, Direction(0), Direction(0), Direction(0)), "time t1"),
        (lambda: SlotBinding("1", 2.0, 3.0, Direction(0), Direction(0), Direction(0)), "time t1"),
        (lambda: SpacetimeEvent(True, 0, 0, 0), "event coordinate t"),
        (lambda: SpacetimeEvent("0", 0, 0, 0), "event coordinate t"),
        (lambda: SeededGenerator(1.5), "generator state"),
        (lambda: SeededGenerator(True), "generator state"),
        (lambda: derive_trial_generator(0, True), "trial index"),
        (lambda: derive_trial_generator(1.5, 0), "master seed"),
        (lambda: derive_trial_generator(42, 2**64), "trial index"),
        (lambda: run_trial_scalar(_BINDING, QuantumWorld(), 2**64, 42), "trial index"),
        (lambda: derive_states("7", np.arange(4, dtype=np.uint64)), "master seed"),
        (lambda: derive_states(1.5, np.arange(4, dtype=np.uint64)), "master seed"),
        (lambda: SeededGenerator(-1), "generator state"),
        (lambda: derive_trial_generator(2**64, 0), "master seed"),
        (lambda: SpacetimeEvent(0, math.inf, 0, 0), "event coordinate x"),
        (lambda: run_experiment(_BINDING, QuantumWorld(), 0, 1, _GEOMETRY), "n_trials"),
        (lambda: QuantumWorld(initial_angle=math.nan), "initial_angle"),
        (lambda: QuantumWorld(initial_angle=math.inf), "initial_angle"),
        (lambda: QuantumWorld(initial_angle=-math.inf), "initial_angle"),
        (lambda: mixture_bound_check(0, SeededGenerator(1)), "trials"),
        (lambda: maximize_violation(grid_step=0.1), "grid step"),
        (lambda: maximize_violation(grid_step=-0.01), "grid step"),
        (lambda: maximize_violation(refine_tolerance=0.0), "refine tolerance"),
        (lambda: maximize_violation(refine_tolerance=math.nan), "refine tolerance"),
        (lambda: maximize_violation(refine_tolerance=math.inf), "refine tolerance"),
        (lambda: stabilization(_LOG, epsilon=0.0), "epsilon"),
        (lambda: stabilization(_LOG, epsilon=0.1, checkpoint_stride=0), "checkpoint_stride"),
        (lambda: stabilization(_LOG, epsilon=math.nan), "epsilon"),
        (lambda: stabilization(_LOG, epsilon=math.inf), "epsilon"),
        (lambda: stabilization(_LOG, epsilon=-math.inf), "epsilon"),
        (lambda: evaluate_lg(_ESTIMATES, math.nan), "significance"),
        (lambda: evaluate_lg(_ESTIMATES, math.inf), "significance"),
        (lambda: evaluate_lg(_ESTIMATES, -math.inf), "significance"),
        (lambda: PairEstimate(PairChoice.P12, 0, 0.0, 0.0), "pair 12: n"),
        (lambda: PairEstimate(PairChoice.P12, 10, 1.5, 0.0), "pair 12: mean"),
        (lambda: PairEstimate(PairChoice.P12, 10, math.nan, 0.0), "pair 12: mean"),
        (lambda: PairEstimate(PairChoice.P12, 2.5, 0.0, 0.0), "pair 12: n"),
        (lambda: PairEstimate(PairChoice.P12, True, 0.0, 0.0), "pair 12: n"),
        (lambda: PairEstimate(PairChoice.P12, 10, 0.0, -1.0), "pair 12: std_error"),
    ],
    ids=[
        "direction_beyond_float_range",
        "direction_bool",
        "state_beyond_float_range",
        "state_bool",
        "event_beyond_float_range",
        "binding_infinite_time",
        "conspiracy_bool_strength",
        "conspiracy_str_strength",
        "conspiracy_bool_target_mean",
        "optimize_str_grid_step",
        "optimize_tolerance_beyond_float_range",
        "quantum_world_bool_angle",
        "quantum_world_str_angle",
        "binding_bool_time",
        "binding_str_time",
        "event_bool_coordinate",
        "event_str_coordinate",
        "generator_float_state",
        "generator_bool_state",
        "trial_generator_bool_index",
        "trial_generator_float_seed",
        "trial_generator_index_2_64",
        "scalar_trial_index_2_64",
        "derive_states_str_seed",
        "derive_states_float_seed",
        "generator_negative_state",
        "trial_generator_seed_2_64",
        "event_infinite_coordinate",
        "run_zero_trials",
        "quantum_world_nan_angle",
        "quantum_world_infinite_angle",
        "quantum_world_minus_infinite_angle",
        "mixture_zero_trials",
        "optimize_grid_step_above_pi_64",
        "optimize_negative_grid_step",
        "optimize_zero_tolerance",
        "optimize_nan_tolerance",
        "optimize_infinite_tolerance",
        "stabilization_zero_epsilon",
        "stabilization_zero_stride",
        "stabilization_nan_epsilon",
        "stabilization_infinite_epsilon",
        "stabilization_minus_infinite_epsilon",
        "evaluate_lg_nan_significance",
        "evaluate_lg_infinite_significance",
        "evaluate_lg_minus_infinite_significance",
        "pair_estimate_without_samples",
        "pair_estimate_mean_beyond_1",
        "pair_estimate_nan_mean",
        "pair_estimate_float_n",
        "pair_estimate_bool_n",
        "pair_estimate_negative_std_error",
    ],
)
def test_value_types_refuse_a_bad_number_with_a_value_error_naming_it(build, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        build()


# -- run_experiment ---------------------------------------------------------------


_NOT_A_STRATEGY = "conspiracy lambda must be an integer in [0, 7], got"
_NOT_A_ROW = "table lambda must be an integer in [0, 1], got"
_TWO_ROWS = TableModel([(0.5, (1, 1, 1)), (0.5, (-1, -1, -1))])


@pytest.mark.parametrize(
    "build, refusal",
    [
        (lambda: QuantumWorld(policy="x"), "unknown initial-state policy 'x'"),
        (lambda: RotorModel((Direction(0), Direction(1))), "rotor model needs exactly three directions, got 2"),
        (lambda: ConspiracyModel(_MEANS).respond(8, TimeSlot.T1), f"{_NOT_A_STRATEGY} 8"),
        (lambda: ConspiracyModel(_MEANS).respond(-1, TimeSlot.T1), f"{_NOT_A_STRATEGY} -1"),
        (lambda: ConspiracyModel(_MEANS).respond(1.7, TimeSlot.T1), f"{_NOT_A_STRATEGY} 1.7"),
        (lambda: ConspiracyModel(_MEANS).respond(True, TimeSlot.T1), f"{_NOT_A_STRATEGY} True"),
        (lambda: _TWO_ROWS.respond(0.9, TimeSlot.T1), f"{_NOT_A_ROW} 0.9"),
        (lambda: _TWO_ROWS.respond(True, TimeSlot.T1), f"{_NOT_A_ROW} True"),
        (lambda: _TWO_ROWS.respond(-1, TimeSlot.T1), f"{_NOT_A_ROW} -1"),
        (lambda: _TWO_ROWS.respond(len(_TWO_ROWS.rows), TimeSlot.T1), f"{_NOT_A_ROW} 2"),
    ],
    ids=[
        "quantum_policy",
        "rotor_two_directions",
        "conspiracy_lambda_8",
        "conspiracy_lambda_minus_1",
        "conspiracy_lambda_1_7",
        "conspiracy_lambda_bool",
        "table_lambda_0_9",
        "table_lambda_bool",
        "table_lambda_minus_1",
        "table_lambda_row_count",
    ],
)
def test_a_world_refuses_what_it_cannot_read_with_a_value_error(build, refusal):
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        build()


def test_quantum_world_tag_is_not_a_parameter():
    assert QuantumWorld("fixed", 0.0).tag == "quantum"
    with pytest.raises(TypeError):
        QuantumWorld("fixed", 0.0, "x")
    with pytest.raises(TypeError):
        QuantumWorld(tag="x")


@pytest.mark.parametrize("run", [run_chunks, run_experiment])
@pytest.mark.parametrize("seed", [2**64, -1, 1.0, True])
def test_run_refuses_a_seed_that_is_not_a_64_bit_unsigned_integer(magic_binding, spacelike_geometry, run, seed):
    with pytest.raises(ValueError, match="master_seed"):
        run(magic_binding, QuantumWorld(), 10, seed, spacelike_geometry)


@pytest.mark.parametrize("run", [run_chunks, run_experiment])
@pytest.mark.parametrize("n_trials", [10.0, True, np.float64(10)])
def test_run_refuses_a_trial_count_that_is_not_an_integer(magic_binding, spacelike_geometry, run, n_trials):
    with pytest.raises(ValueError, match="n_trials"):
        run(magic_binding, QuantumWorld(), n_trials, 1, spacelike_geometry)


@pytest.mark.parametrize("run", [run_chunks, run_experiment])
@pytest.mark.parametrize("n_shards", [2.0, 1.5, True, 0])
def test_run_refuses_a_shard_count_that_is_not_an_integer_of_at_least_one(
    magic_binding, spacelike_geometry, run, n_shards
):
    with pytest.raises(ValueError, match="n_shards"):
        run(magic_binding, QuantumWorld(), 10, 1, spacelike_geometry, n_shards=n_shards)


@pytest.mark.parametrize("policy", ["fixed", "fresh_uniform"])
def test_quantum_world_without_a_binding_refuses_before_drawing(policy):
    world = QuantumWorld(policy=policy)
    states = derive_states(5, np.arange(8, dtype=np.uint64))
    before = states.copy()
    with pytest.raises(ValueError, match="SlotBinding"):
        world.sample_pair_batch(PairChoice.P12, states)
    with pytest.raises(ValueError, match="SlotBinding"):
        world.sample_lanes(None, np.zeros(8, dtype=np.intp), states)
    assert np.array_equal(states, before)
    gen = SeededGenerator(5)
    with pytest.raises(ValueError, match="SlotBinding"):
        world.sample_pair(None, PairChoice.P12, gen)
    assert gen.state == 5


def test_run_refuses_timelike_geometry_without_override(magic_binding, timelike_geometry):
    with pytest.raises(FreedomOfChoiceError):
        run_experiment(magic_binding, QuantumWorld(), 100, 1, timelike_geometry)
    log = run_experiment(
        magic_binding, QuantumWorld(), 100, 1, timelike_geometry, override_foc=True
    )
    assert len(log) == 100


def test_constant_table_world_yields_all_plus_ones(magic_binding, spacelike_geometry):
    world = TableModel([(1.0, (1, 1, 1))])
    log = run_experiment(magic_binding, world, 5000, 3, spacelike_geometry)
    assert np.all(log.s_first == 1)
    assert np.all(log.s_second == 1)
    assert np.all(np.asarray(log.lambda_ids) == 0)


def test_records_are_indexed_consecutively(magic_binding, spacelike_geometry):
    log = run_experiment(magic_binding, QuantumWorld(), 1000, 11, spacelike_geometry)
    assert [r.index for r in log] == list(range(1000))
    assert all(isinstance(r, TrialRecord) for r in (log[0], log[-1]))
    with pytest.raises(IndexError):
        log[1000]


@pytest.mark.parametrize("index", [True, False, np.True_, 1.0, "1"])
def test_records_refuse_an_index_that_is_not_an_integer(magic_binding, spacelike_geometry, index):
    log = run_experiment(magic_binding, QuantumWorld(), 10, 11, spacelike_geometry)
    with pytest.raises(TypeError, match="integer indexing only"):
        log[index]


def test_per_pair_counts_sum_to_n_trials(magic_binding, spacelike_geometry):
    log = run_experiment(magic_binding, QuantumWorld(), 30_000, 23, spacelike_geometry)
    counts = np.bincount(log.pair_codes, minlength=3)
    assert int(counts.sum()) == 30_000
    assert np.all(counts > 0)


def test_pair_choices_do_not_depend_on_world(magic_binding, spacelike_geometry):
    worlds = [
        QuantumWorld(),
        TableModel([(1.0, (1, -1, 1))]),
        RotorModel(magic_binding.directions),
        conspiracy_from_quantum(*magic_binding.directions),
    ]
    logs = [run_experiment(magic_binding, w, 20_000, 99, spacelike_geometry) for w in worlds]
    for other in logs[1:]:
        assert np.array_equal(logs[0].pair_codes, other.pair_codes)


def test_vectorized_run_matches_scalar_reference(magic_binding, spacelike_geometry):
    # the engine must agree, record for record, with the single-draw operations
    worlds = [
        QuantumWorld(),
        QuantumWorld(policy="fresh_uniform"),
        TableModel([(0.25, (1, 1, 1)), (0.25, (1, -1, 1)), (0.5, (-1, 1, -1))]),
        RotorModel(magic_binding.directions),
        conspiracy_from_quantum(*magic_binding.directions),
        conspiracy_from_quantum(*magic_binding.directions, strength=0.4),
    ]
    for world in worlds:
        log = run_experiment(magic_binding, world, 3000, 12345, spacelike_geometry)
        for i in range(3000):
            assert run_trial_scalar(magic_binding, world, i, 12345) == log[i], (world.tag, i)


def test_serial_and_sharded_runs_are_identical(magic_binding, spacelike_geometry):
    for world in (QuantumWorld(), RotorModel(magic_binding.directions)):
        serial = run_experiment(magic_binding, world, 50_000, 7, spacelike_geometry, n_shards=1)
        sharded = run_experiment(magic_binding, world, 50_000, 7, spacelike_geometry, n_shards=8)
        assert serial == sharded


def test_quantum_first_outcome_marginal(magic_binding, spacelike_geometry):
    # fixed initial at angle 0: P(+1 first) = cos^2(initial - first direction)
    log = run_experiment(magic_binding, QuantumWorld(), 200_000, 13, spacelike_geometry)
    for code, pair in enumerate((PairChoice.P12, PairChoice.P13, PairChoice.P23)):
        first_dir = magic_binding.directions_for(pair)[0]
        p = float(np.cos(0.0 - first_dir.angle)) ** 2
        sel = log.pair_codes == code
        n = int(sel.sum())
        freq = float(np.mean(log.s_first[sel] == 1))
        assert abs(freq - p) <= 5 * math.sqrt(max(p * (1 - p), 1e-12) / n)


def test_magic_angle_run_reproduces_cosine_means(magic_binding, spacelike_geometry):
    # the headline configuration: per-pair means near (0.5, -0.5, 0.5)
    log = run_experiment(magic_binding, QuantumWorld(), 1_000_000, 42, spacelike_geometry)
    products = log.s_first.astype(np.float64) * log.s_second
    for code, expected in ((0, 0.5), (1, -0.5), (2, 0.5)):
        mean = float(np.mean(products[log.pair_codes == code]))
        assert abs(mean - expected) < 0.004


# -- trial log file ----------------------------------------------------------------


def test_trial_log_csv_format_is_byte_exact(tmp_path):
    # one log per lambda kind: a file holds the run of one world
    for lambdas, tag, fields in (
        ([None, None, None], "quantum", ["", "", ""]),
        ([3, -12, 0], "table", ["3", "-12", "0"]),
        ([0.5, -1.0, 1e-7], "rotor", ["0.5", "-1.0", "1e-07"]),
    ):
        records = [
            TrialRecord(0, PairChoice.P12, 1, -1, lambdas[0], tag),
            TrialRecord(1, PairChoice.P23, -1, -1, lambdas[1], tag),
            TrialRecord(2, PairChoice.P13, 1, 1, lambdas[2], tag),
        ]
        path = tmp_path / f"{tag}.csv"
        write_trial_log(TrialLog.from_records(records), path)
        expected = (
            "index,pair,s_first,s_second,lambda_id,model_tag\n"
            f"0,12,1,-1,{fields[0]},{tag}\n"
            f"1,23,-1,-1,{fields[1]},{tag}\n"
            f"2,13,1,1,{fields[2]},{tag}\n"
        )
        assert path.read_bytes() == expected.encode()


def test_write_twice_is_identical(magic_binding, spacelike_geometry, tmp_path):
    log = run_experiment(magic_binding, QuantumWorld(), 10_000, 5, spacelike_geometry)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trial_log(log, p1)
    write_trial_log(log, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sharded_run_writes_identical_csv(magic_binding, spacelike_geometry, tmp_path):
    serial = run_experiment(magic_binding, QuantumWorld(), 20_000, 5, spacelike_geometry)
    sharded = run_experiment(magic_binding, QuantumWorld(), 20_000, 5, spacelike_geometry, n_shards=8)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "sharded.csv"
    write_trial_log(serial, p1)
    write_trial_log(sharded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_through_csv(magic_binding, spacelike_geometry, tmp_path):
    for world in (
        QuantumWorld(),
        TableModel([(0.5, (1, 1, 1)), (0.5, (-1, 1, -1))]),
        RotorModel(magic_binding.directions),
    ):
        log = run_experiment(magic_binding, world, 2000, 8, spacelike_geometry)
        path = tmp_path / f"{world.tag}.csv"
        write_trial_log(log, path)
        loaded = read_trial_log(path)
        assert loaded == log


def test_reader_names_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        TRIAL_LOG_HEADER + "\n0,12,1,1,,quantum\n1,12,1\n", encoding="utf-8"
    )
    with pytest.raises(TrialLogFormatError, match="line 3"):
        read_trial_log(path)


def test_reader_rejects_bad_header_and_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="line 1"):
        read_trial_log(path)
    path.write_text(TRIAL_LOG_HEADER + "\n0,14,1,1,,x\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="12\\|13\\|23"):
        read_trial_log(path)
    path.write_text(TRIAL_LOG_HEADER + "\n0,12,2,1,,x\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="outcomes"):
        read_trial_log(path)
    path.write_text(TRIAL_LOG_HEADER + "\n5,12,1,1,,x\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="consecutive"):
        read_trial_log(path)
    path.write_text(TRIAL_LOG_HEADER + "\n0,12,1,1,3,x\n1,12,1,1,3,x\n2,12,1,1,,x\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="line 4: lambda_id column mixes"):
        read_trial_log(path)
    path.write_bytes(TRIAL_LOG_HEADER.encode() + b"\n0,12,1,1,,x\n1,12,1,1,,\xffx\n")
    with pytest.raises(TrialLogFormatError, match="line 3: not valid UTF-8"):
        read_trial_log(path)
    path.write_text(TRIAL_LOG_HEADER + "\n0,12,1,1,3,x\n1,12,1,1,99999999999999999999,x\n", encoding="utf-8")
    with pytest.raises(TrialLogFormatError, match="line 3: lambda_id 99999999999999999999 does not fit"):
        read_trial_log(path)
    # a tag the writers refuse, so that every log read can be written back
    path.write_bytes(TRIAL_LOG_HEADER.encode() + b"\n0,12,1,1,,x\0\n1,12,1,1,,x\0\n")
    with pytest.raises(TrialLogFormatError, match="^line 2: model tag 'x\\\\x00' holds ',', a line break or NUL"):
        read_trial_log(path)


def test_ufunc_values_do_not_depend_on_array_position():
    # sharded runs apply cos to differently-chunked arrays; the values must
    # not depend on where an element sits
    x = np.random.default_rng(0).uniform(0, math.pi, 100_001)
    full = np.cos(x)
    pieces = np.concatenate([np.cos(x[:13]), np.cos(x[13:50_000]), np.cos(x[50_000:])])
    assert np.array_equal(full, pieces)
    singles = np.array([float(np.cos(float(v))) for v in x[:100]])
    assert np.array_equal(full[:100], singles)
