"""One pair type: every entry point takes a PairChoice or its slot tuple,
gives the same trial for both, and refuses any other ordered pair with a
ValueError before it draws anything."""
import numpy as np
import pytest

import lglab
from lglab import experiment
from lglab.hidden_vars import (
    PAIR_ORDER,
    PairChoice,
    ResponseModel,
    RotorModel,
    TableModel,
    TimeSlot,
    conspiracy_from_quantum,
    expectation_exact,
    sample_trial,
)
from lglab.quantum import Direction
from lglab.rng import SeededGenerator, derive_states

T1, T2, T3 = TimeSlot.T1, TimeSlot.T2, TimeSlot.T3

NON_PROTOCOL_PAIRS = [(T2, T1), (T3, T1), (T3, T2), (T1, T1), (T2, T2), (T3, T3)]

DIRECTIONS = (Direction(0.0), Direction(0.5235987755982988), Direction(1.0471975511965976))


class TwoMethodModel(ResponseModel):
    """A response model with only the two abstract methods."""

    tag = "two_method"

    def sample_lambda(self, rand):
        return int(rand.next_uniform() * 8)

    def respond(self, lam, slot):
        return 1 if (lam >> slot.value) & 1 else -1


TABLE = TableModel([(0.2, (1, 1, -1)), (0.3, (1, -1, 1)), (0.5, (-1, 1, 1))])

MODELS = {
    "table": TABLE,
    "rotor": RotorModel(DIRECTIONS),
    "conspiracy": conspiracy_from_quantum(*DIRECTIONS, strength=0.75),
    "two_method": TwoMethodModel(),
}


def test_pair_choice_is_one_type_in_pair_code_order():
    assert PAIR_ORDER == tuple(PairChoice)
    assert [p.code for p in PAIR_ORDER] == [0, 1, 2]
    assert [p.value for p in PAIR_ORDER] == ["12", "13", "23"]
    assert [p.slots for p in PAIR_ORDER] == [(T1, T2), (T1, T3), (T2, T3)]
    assert experiment.PairChoice is lglab.PairChoice is PairChoice
    assert experiment.PAIR_ORDER is PAIR_ORDER


def test_pair_choice_of_takes_members_and_slot_tuples():
    for pair in PairChoice:
        assert PairChoice.of(pair) is pair
        assert PairChoice.of(pair.slots) is pair


@pytest.mark.parametrize("pair", NON_PROTOCOL_PAIRS, ids=str)
def test_pair_choice_of_names_a_non_protocol_pair(pair):
    with pytest.raises(ValueError, match=f"{pair[0].name}, .*{pair[1].name}"):
        PairChoice.of(pair)


@pytest.mark.parametrize("pair", NON_PROTOCOL_PAIRS, ids=str)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_non_protocol_pairs_are_refused_everywhere(name, pair):
    model = MODELS[name]
    gen = SeededGenerator(7)
    with pytest.raises(ValueError):
        sample_trial(model, pair, gen)
    with pytest.raises(ValueError):
        model.sample_pair(pair, gen)
    assert gen.state == SeededGenerator(7).state  # refused before any draw
    states = derive_states(7, np.arange(4, dtype=np.uint64))
    before = states.copy()
    with pytest.raises(ValueError):
        model.sample_pair_batch(pair, states)
    assert np.array_equal(states, before)


@pytest.mark.parametrize("pair", NON_PROTOCOL_PAIRS, ids=str)
def test_expectation_exact_refuses_non_protocol_pairs(pair):
    with pytest.raises(ValueError):
        expectation_exact(TABLE, *pair)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_member_and_slot_tuple_give_the_same_trial(name):
    model = MODELS[name]
    for pair in PairChoice:
        for seed in range(20):
            by_member, by_slots = SeededGenerator(seed), SeededGenerator(seed)
            assert model.sample_pair(pair, by_member) == model.sample_pair(pair.slots, by_slots)
            assert by_member.state == by_slots.state
            assert sample_trial(model, pair, by_member) == sample_trial(model, pair.slots, by_slots)
            assert by_member.state == by_slots.state
        member_states = derive_states(11, np.arange(50, dtype=np.uint64))
        slot_states = member_states.copy()
        got = model.sample_pair_batch(pair, member_states)
        want = model.sample_pair_batch(pair.slots, slot_states)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(member_states, slot_states)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sample_pair_agrees_with_the_lane_kernel(name):
    model = MODELS[name]
    for pair in PairChoice:
        states = derive_states(3, np.arange(40, dtype=np.uint64))
        lanes = [SeededGenerator(int(s)) for s in states]
        s_first, s_second, lams = model.sample_pair_batch(pair, states)
        for k, gen in enumerate(lanes):
            assert model.sample_pair(pair, gen) == (s_first[k], s_second[k], lams[k])
            assert gen.state == int(states[k])
