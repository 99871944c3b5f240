"""The lane kernels' integer and edge tests against the float forms they replace.

A threshold draw compares the top 53 bits k of a lane's state with
thresholds(p) instead of forming k / 2^53 < p; the rotor compares
y = 2 * (lambda - theta) with the float edges of np.cos's sign instead of
evaluating the cosine; stabilization sums segments between checkpoints
instead of a cumsum over every trial. Each property puts lanes exactly on
the edges (k = t - 1 and k = t, y on an edge and its float neighbours), so
a kernel that is off by one threshold step or one ULP fails it.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lglab import TableModel, TimeSlot, TrialLog, stabilization
from lglab.analysis import LogFold
from lglab.experiment import PAIR_ORDER, QuantumWorld, SlotBinding, _quantum_tables, run_quantum_trial
from lglab.hidden_vars import (
    _COS_INNER,
    _COS_OUTER,
    ConspiracyModel,
    RotorModel,
    _cos_nonnegative,
)
from lglab.quantum import Direction, PolarizationState
from lglab.rng import LCG_INC, LCG_MULT, MASK64, SeededGenerator, draw_integers, thresholds, uniforms

TOP = (1 << 53) - 1
LCG_MULT_INVERSE = pow(LCG_MULT, -1, 1 << 64)
ALL_TRIPLES = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
SUBNORMAL = 5e-324
MIN_NORMAL = 2.2250738585072014e-308

# probabilities whose threshold is an exact power of two, the float edges of
# [0, 1], subnormals, and values with bits below 2^-53 (where ceil matters)
EDGE_PROBABILITIES = [
    0.0,
    -0.0,
    1.0,
    0.5,
    math.nextafter(1.0, 0.0),
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
    SUBNORMAL,
    math.nextafter(MIN_NORMAL, 0.0),
    MIN_NORMAL,
    2.0**-53,
    math.nextafter(2.0**-53, 0.0),
    math.nextafter(2.0**-53, 1.0),
    2.0**-54 + 2.0**-80,
    0.1,
    1.0 / 3.0,
    -1.0,
    1.5,
]
probabilities = st.sampled_from(EDGE_PROBABILITIES) | st.floats(0.0, 1.0) | st.floats(-1e-300, 1e-300)


def _unstep(state: int, steps: int) -> int:
    """The state that steps LCG steps take to state."""
    for _ in range(steps):
        state = ((state - LCG_INC) * LCG_MULT_INVERSE) & MASK64
    return state


def _pinned_states(ks, draw: int, low_bits) -> np.ndarray:
    """Lane states whose draw-th draw (from 1) has top 53 bits k, for each k."""
    return np.array([_unstep((k << 11) | low, draw) for k, low in zip(ks, low_bits)], dtype=np.uint64)


def _edge_ks(limits) -> list[int]:
    """k = 0, 2^53 - 1, and t - 1, t, t + 1 for each threshold t, within [0, 2^53)."""
    ks = {0, TOP}
    for t in np.atleast_1d(limits).tolist():
        ks.update(k for k in (t - 1, t, t + 1) if 0 <= k <= TOP)
    return sorted(ks)


low_bits = st.integers(0, (1 << 11) - 1)


@settings(max_examples=200)
@given(p=probabilities, extra=st.lists(st.integers(0, TOP), max_size=4), low=low_bits)
@example(p=0.5, extra=[], low=0)
@example(p=1.0, extra=[], low=(1 << 11) - 1)
@example(p=SUBNORMAL, extra=[], low=0)
def test_threshold_draw_equals_the_float_draw(p, extra, low):
    t = thresholds(p)
    assert 0 <= int(t) <= 1 << 53
    ks = _edge_ks(t) + extra
    states = _pinned_states(ks, 1, [low] * len(ks))
    floats = states.copy()
    got = draw_integers(states) < t
    assert got.tolist() == (uniforms(floats) < p).tolist()
    assert np.array_equal(states, floats)
    for k, start, below in zip(ks, _pinned_states(ks, 1, [low] * len(ks)).tolist(), got.tolist()):
        gen = SeededGenerator(start)
        assert (gen.next_uniform() < p) == below == (k < math.ceil(max(0.0, min(p, 1.0)) * 2.0**53))


def test_thresholds_of_an_array_match_each_scalar():
    ps = np.array([p for p in EDGE_PROBABILITIES])
    assert thresholds(ps).tolist() == [int(thresholds(p)) for p in EDGE_PROBABILITIES]
    assert thresholds(np.nan) == 0


def _assert_lanes_match_the_scalar_trials(model, codes, states):
    starts = states.tolist()
    s_first, s_second, lams = model.sample_lanes(None, codes, states)
    for code, start, end, got in zip(codes.tolist(), starts, states.tolist(), zip(s_first, s_second, lams)):
        gen = SeededGenerator(start)
        want = model.sample_pair(PAIR_ORDER[code], gen)
        assert tuple(got) == want, (code, start)
        assert gen.state == end


# -- tables --------------------------------------------------------------------

# cumulative weights that round above 1: the last (or every) bound admits every k
ROUNDING_TABLES = [
    [(0.2, (1, 1, 1)), (0.4, (1, -1, 1)), (0.3, (-1, 1, -1)), (0.1, (-1, -1, 1))],
    [(1.0 + 5e-13, (1, 1, 1)), (1e-13, (-1, -1, -1)), (1e-13, (1, -1, 1))],
    [(0.5 + 4e-13, (1, 1, -1)), (0.5 + 4e-13, (-1, 1, 1))],
]


@st.composite
def table_rows(draw):
    n = draw(st.integers(1, 32))
    triples = draw(st.lists(st.sampled_from(ALL_TRIPLES), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    rows = [(w / total, t) for w, t in zip(weights, triples)]
    # nudge the total up to 1e-12 above 1, so cumulative weights may round above 1
    bump = draw(st.sampled_from([0.0, 4e-13, 9e-13]))
    return [(w + bump / n, t) for w, t in rows]


@settings(max_examples=60, deadline=None)
@given(
    rows=table_rows() | st.sampled_from(ROUNDING_TABLES),
    codes=st.lists(st.integers(0, 2), min_size=1),
    low=low_bits,
)
def test_table_lanes_on_every_row_bound_match_sample_pair(rows, codes, low):
    model = TableModel(rows)
    ks = _edge_ks(thresholds(np.cumsum([w for w, _ in rows])))
    lane_codes = np.resize(np.array(codes, dtype=np.intp), len(ks))
    _assert_lanes_match_the_scalar_trials(model, lane_codes, _pinned_states(ks, 1, [low] * len(ks)))


def test_rounding_tables_reach_their_bounds():
    # the fixtures exercise what they claim: a cumulative weight above 1
    for rows in ROUNDING_TABLES:
        assert np.cumsum([w for w, _ in rows])[-1] > 1.0


# -- conspiracy ------------------------------------------------------------------

EDGE_MEANS = [-1.0, 1.0, 0.0, 0.5, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)]
means = st.sampled_from(EDGE_MEANS) | st.floats(-1.0, 1.0)
strengths = st.sampled_from([0.0, 1.0, 0.5, math.nextafter(1.0, 0.0), SUBNORMAL]) | st.floats(0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(m12=means, m13=means, m23=means, strength=strengths, draw=st.integers(1, 4), low=low_bits)
@example(m12=1.0, m13=-1.0, m23=0.0, strength=1.0, draw=3, low=0)
@example(m12=-1.0, m13=1.0, m23=1.0, strength=0.0, draw=1, low=0)
def test_conspiracy_lanes_on_every_draw_edge_match_sample_pair(m12, m13, m23, strength, draw, low):
    slots = [p.slots for p in PAIR_ORDER]
    model = ConspiracyModel(target_means=dict(zip(slots, (m12, m13, m23))), strength=strength)
    # draw 1 decides conditioning, 2 the first sign, 3 the second, 4 the left-out slot
    limits = {1: [thresholds(strength)], 3: list(thresholds([(1.0 + m) / 2.0 for m in (m12, m13, m23)]))}
    ks = _edge_ks(limits.get(draw, []) + [thresholds(0.5)])
    for code in range(3):
        codes = np.full(len(ks), code, dtype=np.intp)
        _assert_lanes_match_the_scalar_trials(model, codes, _pinned_states(ks, draw, [low] * len(ks)))


# -- quantum, fixed initial state ----------------------------------------------------

angles = st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi / 6]) | st.floats(0.0, 3.2)


@settings(max_examples=40, deadline=None)
@given(a=angles, b=angles, c=angles, initial=angles, draw=st.integers(1, 2), low=low_bits)
def test_quantum_fixed_lanes_on_every_threshold_match_the_scalar_trial(a, b, c, initial, draw, low):
    binding = SlotBinding(1.0, 2.0, 3.0, Direction(a), Direction(b), Direction(c))
    world = QuantumWorld(initial_angle=initial)
    _, p1_limits, p2_limits = _quantum_tables(binding, world.initial_angle)
    ks = _edge_ks(list(p1_limits if draw == 1 else p2_limits))
    for pair in PAIR_ORDER:
        states = _pinned_states(ks, draw, [low] * len(ks))
        starts = states.tolist()
        s_first, s_second, _ = world.sample_lanes(binding, np.full(len(ks), pair.code, dtype=np.intp), states)
        for start, end, got in zip(starts, states.tolist(), zip(s_first.tolist(), s_second.tolist())):
            gen = SeededGenerator(start)
            first, second = binding.directions_for(pair)
            assert got == run_quantum_trial(PolarizationState(world.initial_angle), first, second, gen)
            assert gen.state == end


# -- rotor -----------------------------------------------------------------------

EDGES = list(_COS_INNER + _COS_OUTER)


def _respond(lam: float, theta: float) -> int:
    return RotorModel((Direction(theta), Direction(0.0), Direction(0.0))).respond(lam, TimeSlot.T1)


def test_cos_edges_are_the_last_nonnegative_floats():
    for edge, outward in zip(EDGES, (-math.inf, math.inf, math.inf, -math.inf)):
        assert np.cos(edge) >= 0.0 > np.cos(math.nextafter(edge, outward))


@settings(max_examples=200)
@given(
    edge=st.sampled_from(EDGES),
    steps=st.integers(-3, 3),
    theta=st.floats(0.0, math.pi, exclude_max=True) | st.just(0.0),
)
def test_rotor_sign_on_and_beside_each_edge_matches_respond(edge, steps, theta):
    y = edge
    for _ in range(abs(steps)):
        y = math.nextafter(y, math.copysign(math.inf, steps))
    # a lambda whose 2 * (lambda - theta) is y, or the float beside it
    lam = theta + y / 2.0
    got = bool(_cos_nonnegative(np.array([lam]), theta)[0])
    assert got == (_respond(lam, theta) == 1)
    assert got == (np.cos(2.0 * (lam - theta)) >= 0.0)
    if theta == 0.0:
        assert 2.0 * (lam - theta) == y  # theta 0 lands exactly on y
        assert got == (steps >= 0 if edge in (_COS_INNER[0], _COS_OUTER[1]) else steps <= 0)


@settings(max_examples=100)
@given(lam=st.floats(0.0, math.pi), theta=st.floats(0.0, math.pi, exclude_max=True))
def test_rotor_sign_anywhere_matches_respond(lam, theta):
    assert bool(_cos_nonnegative(np.array([lam]), theta)[0]) == (_respond(lam, theta) == 1)


# -- stabilization ------------------------------------------------------------------

STRIDES = [1, 2, 999, 1 << 16, (1 << 16) + 1]


def _full_cumsum_checkpoints(log: TrialLog, stride: int) -> list[tuple]:
    """Every pair's checkpoints from a float cumsum over all of its trials."""
    want = []
    products = log.s_first.astype(np.float64) * log.s_second
    for code in range(3):
        prods = products[log.pair_codes == code]
        counts = list(range(stride, len(prods) + 1, stride))
        if len(prods) and (not counts or counts[-1] != len(prods)):
            counts.append(len(prods))
        want.append(tuple(zip(counts, (np.cumsum(prods)[np.array(counts, dtype=np.intp) - 1] / counts).tolist())))
    return want


@settings(max_examples=12, deadline=None)
@given(
    stride=st.sampled_from(STRIDES),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 1000) | st.integers(3 << 16, (3 << 16) + 5000),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_sparse_checkpoints_equal_the_full_cumsum_over_any_chunk_split(stride, seed, n, cuts):
    rng = np.random.default_rng(seed)
    log = TrialLog(
        rng.integers(0, 3, n).astype(np.uint8),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
        None,
        "test",
    )
    edges = sorted({0, n, *(int(c * n) for c in cuts)})
    chunks = [
        TrialLog(log.pair_codes[lo:hi], log.s_first[lo:hi], log.s_second[lo:hi], None, "test", lo)
        for lo, hi in zip(edges, edges[1:])
    ]
    split = LogFold.over(chunks, stride).stabilization(0.05)
    whole = stabilization(log, 0.05, stride)
    assert split == whole
    assert [p.checkpoints for p in split.pairs] == _full_cumsum_checkpoints(log, stride)
