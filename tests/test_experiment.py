import math

import numpy as np
import pytest

from lglab import (
    Direction,
    FreedomOfChoiceError,
    PairChoice,
    QuantumWorld,
    SeededGenerator,
    SlotBinding,
    SpacetimeEvent,
    TableModel,
    TrialLog,
    TrialRecord,
    derive_trial_generator,
    read_trial_log,
    run_chunks,
    run_experiment,
    select_pair,
    spacelike_separated,
    write_trial_log,
)
from lglab.experiment import run_trial_scalar
from lglab.hidden_vars import RotorModel, conspiracy_from_quantum
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


def test_derive_trial_generator_is_reproducible_and_distinct():
    assert derive_trial_generator(7, 0).state == derive_trial_generator(7, 0).state
    assert derive_trial_generator(7, 0).state != derive_trial_generator(7, 1).state
    assert derive_trial_generator(7, 5).state != derive_trial_generator(8, 5).state
    # vectorized twin agrees lane for lane
    states = derive_states(7, np.arange(100, dtype=np.uint64))
    for i in range(100):
        assert int(states[i]) == derive_trial_generator(7, i).state


def test_derive_matches_splitmix_finalizer_by_hand():
    seed, index = 42, 3
    z = (seed + index * 0x9E3779B97F4A7C15) & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    assert derive_trial_generator(seed, index).state == z == mix64(seed + index * 0x9E3779B97F4A7C15)


def test_generator_rejects_bad_state():
    with pytest.raises(ValueError):
        SeededGenerator(-1)
    with pytest.raises(ValueError):
        derive_trial_generator(2**64, 0)


# -- spacetime geometry ----------------------------------------------------------


def test_spacelike_separation_cases():
    origin = SpacetimeEvent(0, 0, 0, 0)
    assert spacelike_separated(origin, SpacetimeEvent(0, 1, 0, 0)) is True
    assert spacelike_separated(origin, SpacetimeEvent(1, 0, 0, 0)) is False
    # null interval fails the strict inequality
    assert spacelike_separated(origin, SpacetimeEvent(1, 1, 0, 0)) is False


def test_event_coordinates_must_be_finite():
    with pytest.raises(ValueError):
        SpacetimeEvent(0, math.inf, 0, 0)


def test_binding_requires_increasing_times():
    d = Direction(0)
    with pytest.raises(ValueError):
        SlotBinding(2.0, 1.0, 3.0, d, d, d)


# -- run_experiment ---------------------------------------------------------------


def test_quantum_world_tag_is_not_a_parameter():
    assert QuantumWorld("fixed", 0.0).tag == "quantum"
    with pytest.raises(TypeError):
        QuantumWorld("fixed", 0.0, "x")
    with pytest.raises(TypeError):
        QuantumWorld(tag="x")


def test_run_refuses_zero_trials(magic_binding, spacelike_geometry):
    with pytest.raises(ValueError):
        run_experiment(magic_binding, QuantumWorld(), 0, 1, spacelike_geometry)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_quantum_world_refuses_a_non_finite_initial_angle(angle):
    with pytest.raises(ValueError, match="initial_angle"):
        QuantumWorld(initial_angle=angle)


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


def test_ufunc_values_do_not_depend_on_array_position():
    # sharded runs apply cos to differently-chunked arrays; the values must
    # not depend on where an element sits
    x = np.random.default_rng(0).uniform(0, math.pi, 100_001)
    full = np.cos(x)
    pieces = np.concatenate([np.cos(x[:13]), np.cos(x[13:50_000]), np.cos(x[50_000:])])
    assert np.array_equal(full, pieces)
    singles = np.array([float(np.cos(float(v))) for v in x[:100]])
    assert np.array_equal(full[:100], singles)
