import math
from itertools import product

import numpy as np
import pytest

from lglab import (
    ConspiracyModel,
    Direction,
    PairChoice,
    RotorModel,
    SeededGenerator,
    TableModel,
    TimeSlot,
    brute_force_bound,
    conspiracy_from_quantum,
    expectation_exact,
    mixture_bound_check,
    sequential_correlation_exact,
)
from lglab.hidden_vars import _mixture_lhs, deterministic_strategy_values, random_table_model, table_lhs_exact
from lglab.rng import derive_states

T1, T2, T3 = TimeSlot.T1, TimeSlot.T2, TimeSlot.T3

ALL_TRIPLES = [t for t, _ in deterministic_strategy_values()]


def uniform_mixture():
    return TableModel([(0.125, t) for t in ALL_TRIPLES])


# -- TableModel and exact expectations ----------------------------------------


def test_table_model_validates_rows():
    with pytest.raises(ValueError):
        TableModel([])
    with pytest.raises(ValueError):
        TableModel([(0.5, (1, 1, 1))])  # weights sum to 0.5
    with pytest.raises(ValueError):
        TableModel([(1.0, (1, 0, 1))])  # 0 is not an outcome
    with pytest.raises(ValueError):
        TableModel([(-0.5, (1, 1, 1)), (1.5, (1, 1, 1))])


def test_expectation_exact_constant_responder():
    model = TableModel([(1.0, (1, 1, 1))])
    assert expectation_exact(model, (T1, T2)) == 1.0


def test_expectation_exact_cancellation():
    model = TableModel([(0.5, (1, 1, 1)), (0.5, (1, -1, 1))])
    assert expectation_exact(model, (T1, T2)) == 0.0
    assert expectation_exact(model, (T1, T3)) == 1.0


def test_expectation_exact_uniform_mixture_vanishes():
    # symmetry: every pair column is half +1, half -1; cross-check by direct sum
    model = uniform_mixture()
    for a, b in ((T1, T2), (T1, T3), (T2, T3)):
        direct = sum(0.125 * t[a.value] * t[b.value] for t in ALL_TRIPLES)
        assert direct == 0.0
        assert expectation_exact(model, (a, b)) == 0.0


def test_expectation_exact_rejects_degenerate_pair():
    model = uniform_mixture()
    with pytest.raises(ValueError):
        expectation_exact(model, (T2, T2))


def test_respond_is_deterministic_for_all_table_lambdas():
    model = random_table_model(SeededGenerator(17))
    for lam in range(len(model.rows)):
        for slot in TimeSlot:
            assert model.respond(lam, slot) == model.respond(lam, slot)
            assert model.respond(lam, slot) in (-1, 1)


def test_sampled_table_matches_exact_expectation():
    # Monte Carlo means agree with the exact sums within 5*sqrt((1-E^2)/N)
    model = TableModel([(0.2, (1, 1, -1)), (0.3, (1, -1, 1)), (0.5, (-1, 1, 1))])
    n = 200_000
    gen = SeededGenerator(404)
    for pair in ((T1, T2), (T1, T3), (T2, T3)):
        gen_pair = SeededGenerator(gen.step())
        total = 0
        for _ in range(n):
            s1, s2, _ = model.sample_pair(None, pair, gen_pair)
            total += s1 * s2
        exact = expectation_exact(model, pair)
        assert abs(total / n - exact) < 5 * math.sqrt((1 - exact**2) / n)


def test_single_lambda_model_is_deterministic():
    model = TableModel([(1.0, (1, -1, 1))])
    gen = SeededGenerator(9)
    for _ in range(100):
        s_first, s_second, lam = model.sample_pair(None, (T2, T3), gen)
        assert (s_first, s_second, lam) == (-1, 1, 0)


def test_sample_trial_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        uniform_mixture().sample_pair(None, (T1, T1), SeededGenerator(1))


# -- RotorModel ----------------------------------------------------------------


def rotor_overlap_quadrature(theta: float, n: int = 2_000_001) -> float:
    """Midpoint-rule oracle for the sign-of-cosine overlap integral."""
    lam = (np.arange(n) + 0.5) * (np.pi / n)
    s1 = np.where(np.cos(2 * lam) >= 0, 1.0, -1.0)
    s2 = np.where(np.cos(2 * (lam - theta)) >= 0, 1.0, -1.0)
    return float(np.mean(s1 * s2))


def test_rotor_closed_form_against_quadrature():
    # E(theta) = 1 - 4*theta/pi on [0, pi/2]; the quadrature oracle confirms it
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3, 0.1):
        assert rotor_overlap_quadrature(theta) == pytest.approx(1 - 4 * theta / math.pi, abs=1e-5)


def test_rotor_pair_mean_matches_overlap_integral(magic_binding):
    # directions 0, pi/6, pi/3: pair (T1, T2) mean -> 1/3 within 0.004 at 1e6
    model = RotorModel(magic_binding.directions)
    states = derive_states(31, np.arange(1_000_000, dtype=np.uint64))
    s1, s2, _ = model.sample_pair_batch((T1, T2), states)
    mean = float(np.mean(s1.astype(np.float64) * s2))
    assert abs(mean - 1.0 / 3.0) < 0.004


def test_rotor_respond_deterministic_and_total():
    model = RotorModel((Direction(0.0), Direction(1.0), Direction(2.0)))
    gen = SeededGenerator(8)
    for _ in range(10_000):
        lam = model.sample_lambda(gen)
        assert 0.0 <= lam < math.pi
        for slot in TimeSlot:
            assert model.respond(lam, slot) == model.respond(lam, slot)
    # tie at cos = 0 resolves to +1: lam - theta = pi/4 gives cos(pi/2) ~ 0
    assert model.respond(math.pi / 4, T1) in (-1, 1)


# -- ConspiracyModel -----------------------------------------------------------


def test_conspiracy_requires_all_pairs_and_valid_means():
    with pytest.raises(ValueError):
        ConspiracyModel(target_means={PairChoice.P12: 0.5})
    with pytest.raises(ValueError):
        ConspiracyModel(
            target_means={PairChoice.P12: 1.5, PairChoice.P13: 0.0, PairChoice.P23: 0.0}
        )
    with pytest.raises(ValueError):
        conspiracy_from_quantum(Direction(0), Direction(1), Direction(2), strength=1.2)


def test_conspiracy_pair_means_hit_targets(magic_binding):
    model = conspiracy_from_quantum(*magic_binding.directions)
    n = 100_000
    for seed, pair in ((1, (T1, T2)), (2, (T1, T3)), (3, (T2, T3))):
        states = derive_states(seed, np.arange(n, dtype=np.uint64))
        s1, s2, _ = model.sample_pair_batch(pair, states)
        mean = float(np.mean(s1.astype(np.float64) * s2))
        target = model.target_means[PairChoice.of(pair)]
        assert abs(mean - target) < 5 * math.sqrt((1 - target**2) / n)


def test_conspiracy_magic_pair_mean_within_mc_tolerance(magic_binding):
    model = conspiracy_from_quantum(*magic_binding.directions)
    states = derive_states(77, np.arange(1_000_000, dtype=np.uint64))
    s1, s2, _ = model.sample_pair_batch((T1, T2), states)
    assert abs(float(np.mean(s1.astype(np.float64) * s2)) - 0.5) < 0.004


def test_conspiracy_quarter_pi_pair_mean_vanishes():
    model = conspiracy_from_quantum(Direction(0.0), Direction(math.pi / 4), Direction(math.pi / 2))
    states = derive_states(13, np.arange(1_000_000, dtype=np.uint64))
    s1, s2, _ = model.sample_pair_batch((T1, T2), states)
    assert abs(float(np.mean(s1.astype(np.float64) * s2))) < 0.004


def test_conspiracy_identical_directions_saturate():
    d = Direction(0.4)
    model = conspiracy_from_quantum(d, d, d)
    for pair in ((T1, T2), (T1, T3), (T2, T3)):
        states = derive_states(5, np.arange(10_000, dtype=np.uint64))
        s1, s2, _ = model.sample_pair_batch(pair, states)
        assert np.all(s1 == s2)


def test_conspiracy_respond_is_deterministic_per_lambda():
    model = conspiracy_from_quantum(Direction(0), Direction(0.5), Direction(1.0))
    for lam in range(8):
        triple = tuple(model.respond(lam, slot) for slot in TimeSlot)
        assert all(s in (-1, 1) for s in triple)
        assert triple == tuple(model.respond(lam, slot) for slot in TimeSlot)
    gen = SeededGenerator(3)
    for _ in range(10_000):
        s1, s2, lam = model.sample_pair(None, (T1, T3), gen)
        # outcomes must be consistent with the reported lambda
        assert s1 == model.respond(lam, T1)
        assert s2 == model.respond(lam, T3)


def test_conspiracy_strength_dial_mixes_toward_uncorrelated():
    d0, d1, d2 = Direction(0.0), Direction(math.pi / 6), Direction(math.pi / 3)
    n = 400_000
    means = {}
    for strength in (1.0, 0.5, 0.0):
        model = conspiracy_from_quantum(d0, d1, d2, strength=strength)
        states = derive_states(19, np.arange(n, dtype=np.uint64))
        s1, s2, _ = model.sample_pair_batch((T1, T2), states)
        means[strength] = float(np.mean(s1.astype(np.float64) * s2))
    # conditioned mean scales linearly with the strength dial
    assert abs(means[1.0] - 0.5) < 0.01
    assert abs(means[0.5] - 0.25) < 0.01
    assert abs(means[0.0]) < 0.01


# -- the classical bound --------------------------------------------------------


def test_brute_force_bound_is_exactly_one():
    assert brute_force_bound() == 1.0


def test_every_deterministic_strategy_evaluates_to_one():
    values = deterministic_strategy_values()
    assert len(values) == 8
    assert {t for t, _ in values} == set(product((-1, 1), repeat=3))
    for triple, value in values:
        assert value == 1.0, triple
    # spot checks from first principles
    assert abs(1 * 1 - 1 * 1) + 1 * 1 == 1
    assert abs(1 * 1 - 1 * (-1)) + 1 * (-1) == 1


def test_degenerate_mixture_saturates_bound():
    for triple in ALL_TRIPLES:
        assert table_lhs_exact(TableModel([(1.0, triple)])) == 1.0


def test_uniform_mixture_lhs_is_zero():
    assert table_lhs_exact(uniform_mixture()) == 0.0


def test_mixture_bound_check_respects_bound():
    max_lhs = mixture_bound_check(10_000, SeededGenerator(2024))
    assert max_lhs <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", [0, 2024, 7])
def test_mixture_rows_equal_the_per_model_oracle(seed):
    # the eight ordered sums give each mixture the LHS that building its TableModel gives
    fast, slow = SeededGenerator(seed), SeededGenerator(seed)
    rows = _mixture_lhs(10_000, fast)
    expected = [table_lhs_exact(random_table_model(slow)) for _ in range(10_000)]
    assert rows.tolist() == expected
    assert fast.state == slow.state
    assert mixture_bound_check(10_000, SeededGenerator(seed)) == max(expected)


def test_one_mixture_sums_its_terms_as_its_table_model_does():
    # a single row once went through a dot product whose order differed from the model's
    for seed in range(200):
        expected = table_lhs_exact(random_table_model(SeededGenerator(seed)))
        assert mixture_bound_check(1, SeededGenerator(seed)) == expected, seed


@pytest.mark.parametrize("trials", [True, False, 2.5, 10.0, "10", None, 0, -1])
def test_mixture_bound_check_refuses_trials_that_are_not_an_integer_at_least_1(trials):
    with pytest.raises(ValueError, match="^trials must be an integer >= 1"):
        mixture_bound_check(trials, SeededGenerator(1))


class _Halves:
    """A uniform source that is not a SeededGenerator."""

    def next_uniform(self) -> float:
        return 0.5


@pytest.mark.parametrize("gen", [_Halves(), None, 1])
def test_mixture_bound_check_refuses_a_gen_that_is_not_a_seeded_generator(gen):
    with pytest.raises(ValueError, match="^gen must be a SeededGenerator"):
        mixture_bound_check(10, gen)


def test_mixture_bound_check_takes_a_numpy_integer_trials():
    assert mixture_bound_check(np.int64(100), SeededGenerator(1)) == mixture_bound_check(100, SeededGenerator(1))


def test_exact_bound_holds_for_every_random_table_model():
    gen = SeededGenerator(555)
    for _ in range(500):
        assert table_lhs_exact(random_table_model(gen)) <= 1.0 + 1e-12


def test_conspiracy_lhs_reproduces_quantum_value(magic_binding):
    # per-pair means copy cos 2*theta, so the assembled LHS reaches ~1.5,
    # which no unconditioned response model can do
    a, b, c = magic_binding.directions
    model = conspiracy_from_quantum(a, b, c)
    assert model.target_means[PairChoice.P12] == sequential_correlation_exact(a, b)
    lhs = abs(
        model.target_means[PairChoice.P12] - model.target_means[PairChoice.P13]
    ) + model.target_means[PairChoice.P23]
    assert lhs == pytest.approx(1.5, abs=1e-12)


# -- TableModel refuses non-numbers and booleans --------------------------------


@pytest.mark.parametrize(
    "rows",
    [
        [("half", (1, 1, 1)), (0.5, (1, 1, 1))],
        [(True, (1, 1, 1))],
        [(np.True_, (1, 1, 1))],
        [(None, (1, 1, 1))],
        [(1.0, (True, 1, 1))],
        [(1.0, (1, np.True_, 1))],
        [(1.0, (1, 1, "1"))],
    ],
)
def test_table_model_rejects_non_numbers_and_booleans(rows):
    with pytest.raises(ValueError, match="row 0"):
        TableModel(rows)


def test_table_model_accepts_numpy_scalars():
    model = TableModel(
        [(np.float64(0.25), (np.int64(1), np.int8(-1), np.float32(1.0))), (np.float32(0.75), (1, 1.0, -1))]
    )
    assert model.rows == [(0.25, (1, -1, 1)), (0.75, (1, 1, -1))]
    assert all(type(w) is float and all(type(s) is int for s in t) for w, t in model.rows)


@pytest.mark.parametrize(
    "rows, named",
    [
        ([(1.0, 5)], "row 0: responses"),
        ([(1.0, None)], "row 0: responses"),
        ([5], "row 0: expected a \\(weight, responses\\) pair"),
        ([(0.5, (1, 1, 1)), (0.5, (1, 1, 1), 3)], "row 1: expected a \\(weight, responses\\) pair"),
        ([(0.5, (1, 1, 1)), ()], "row 1: expected a \\(weight, responses\\) pair"),
    ],
)
def test_table_model_malformed_rows_raise_value_error_naming_the_row(rows, named):
    with pytest.raises(ValueError, match=named):
        TableModel(rows)
