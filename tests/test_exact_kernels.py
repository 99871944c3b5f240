"""The lane kernels' integer and edge tests against the float forms they replace.

A threshold draw compares the top 53 bits k of a lane's state with
thresholds(p) instead of forming k / 2^53 < p; the rotor compares
y = 2 * (lambda - theta) with the float edges of np.cos's sign instead of
evaluating the cosine; stabilization sums segments between checkpoints
instead of a cumsum over every trial. Each property puts lanes exactly on
the edges (k = t - 1 and k = t, y on an edge and its float neighbours), so
a kernel that is off by one threshold step or one ULP fails it. The
fresh-uniform kernel draws its angle as one product k * (pi * 2^-53), and
screens cos^2 with a float32 cosine and recomputes the float64 one only near
u; its properties put k on its edges and u on and beside both values.
SeededGenerator.next_integers jumps ahead instead of stepping, and the
mixture check built on it rejects a zero draw as the scalar weights do; the
last properties plant that zero on the group and round edges.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lglab import TableModel, TimeSlot, TrialLog, stabilization
from lglab.analysis import LogFold
from lglab import experiment
from lglab.experiment import (
    _SCREEN_MARGIN,
    QuantumWorld,
    SlotBinding,
    _cos_squared_above,
    _quantum_tables,
)
from lglab.hidden_vars import (
    _COS_INNER,
    _COS_OUTER,
    PAIR_ORDER,
    ConspiracyModel,
    RotorModel,
    _cos_nonnegative,
    _mixture_lhs,
    random_table_model,
    table_lhs_exact,
)
from lglab.quantum import (
    Direction,
    PolarizationState,
    cos_squared,
    measure_polarization,
    reduce_direction_angle,
    run_quantum_trial,
)
from lglab.rng import (
    LCG_INC,
    LCG_MULT,
    MASK64,
    SeededGenerator,
    angles,
    derive_states,
    draw_integers,
    thresholds,
    uniforms,
)

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
        want = model.sample_pair(None, PAIR_ORDER[code], gen)
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
    model = ConspiracyModel(target_means=dict(zip(PAIR_ORDER, (m12, m13, m23))), strength=strength)
    # draw 1 decides conditioning, 2 the first sign, 3 the second, 4 the left-out slot
    limits = {1: [thresholds(strength)], 3: list(thresholds([(1.0 + m) / 2.0 for m in (m12, m13, m23)]))}
    ks = _edge_ks(limits.get(draw, []) + [thresholds(0.5)])
    for code in range(3):
        codes = np.full(len(ks), code, dtype=np.intp)
        _assert_lanes_match_the_scalar_trials(model, codes, _pinned_states(ks, draw, [low] * len(ks)))


# -- quantum, fixed initial state ----------------------------------------------------

direction_angles = st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi / 6]) | st.floats(0.0, 3.2)


@settings(max_examples=40, deadline=None)
@given(
    a=direction_angles,
    b=direction_angles,
    c=direction_angles,
    initial=direction_angles,
    draw=st.integers(1, 2),
    low=low_bits,
)
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


# -- quantum, fresh uniform initial state ---------------------------------------------

# (initial uniform, first-slot angle) at which libm pow(c, 2), Python's c ** 2,
# rounds above c * c for the cosine c of the first measurement
POW_ABOVE_PRODUCT = [
    (0.8229228620025792, 0.0),
    (0.2463208735168011, 0.0),
    (0.7159409359468822, math.pi / 6),
    (0.5757051603390986, math.pi / 3),
]


class _Draw:
    """A UnitUniformSource whose every draw is u."""

    def __init__(self, u: float):
        self.u = u

    def next_uniform(self) -> float:
        return self.u


@pytest.mark.parametrize("initial, first_angle", POW_ABOVE_PRODUCT)
def test_fresh_uniform_oracle_squares_the_cosine_as_the_kernel_does(initial, first_angle):
    # one lane's state fixes both its draws, so a stub draws the first outcome
    # at exactly the kernel's probability, between the two squarings
    k = int(initial * 2.0**53)
    assert k * 2.0**-53 == initial
    p1 = float(cos_squared(angles(_pinned_states([k], 1, [0])) - first_angle)[0])
    c = float(np.cos(initial * math.pi - first_angle))
    assert c**2 > p1 == c * c
    u = p1
    kernel = 1 if p1 > u else -1
    oracle, _ = measure_polarization(PolarizationState(initial * math.pi), Direction(first_angle), _Draw(u))
    assert oracle == kernel


# the float32 screen of cos^2(y) > u: y = initial * pi - first-slot angle

# float32 cosines are off most here: where |cos y| is steepest and near 0 and 1
SCREEN_ANGLES = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi / 4, -3 * math.pi / 4, 1e-300]
SCREEN_ANGLES += [math.nextafter(math.pi, 0.0), -math.nextafter(math.pi, 0.0), (TOP * 2.0**-53) * math.pi]
screen_angles = st.sampled_from(SCREEN_ANGLES) | st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)


def _screened(y: np.ndarray) -> np.ndarray:
    """The screen's cos^2: the float32 cosine of y rounded to float32, squared."""
    c = np.cos(np.asarray(y, dtype=np.float64).astype(np.float32))
    c *= c
    return c.astype(np.float64)


def _edge_uniforms(y: float) -> list[float]:
    """u at cos_squared(y) and the screen's value, their float neighbours, and
    the edges of the margin around the screen's value."""
    us = []
    for p in (cos_squared(y), float(_screened(y))):
        us += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
        for edge in (p - _SCREEN_MARGIN, p + _SCREEN_MARGIN):
            us += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    return us


def _screen_rows(ys) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """(y, u, cos_squared(y) > u) on every edge uniform of every y."""
    rows = [(y, u) for y in ys for u in _edge_uniforms(y)]
    return (
        np.array([y for y, _ in rows]),
        np.array([u for _, u in rows]),
        [cos_squared(y) > u for y, u in rows],
    )


SCREEN_GRID = SCREEN_ANGLES + np.linspace(-math.pi, math.pi, 4097)[1:-1].tolist()


def test_the_screen_on_a_grid_matches_cos_squared():
    y, u, want = _screen_rows(SCREEN_GRID)
    assert _cos_squared_above(y, u).tolist() == want
    # the rows straddle the screen: some u lie between the two cos^2
    exact, screened = np.cos(y), _screened(y)
    exact *= exact
    assert ((np.minimum(screened, exact) < u) & (u < np.maximum(screened, exact))).any()


@settings(max_examples=300)
@given(ys=st.lists(screen_angles, min_size=1, max_size=40))
def test_the_screen_anywhere_matches_cos_squared(ys):
    y, u, want = _screen_rows(ys)
    assert _cos_squared_above(y, u).tolist() == want


@pytest.mark.parametrize("margin", [0.0, 2.0**-30])
def test_a_margin_below_the_screen_error_is_caught(monkeypatch, margin):
    monkeypatch.setattr(experiment, "_SCREEN_MARGIN", margin)
    y, u, want = _screen_rows(SCREEN_GRID)
    assert _cos_squared_above(y, u).tolist() != want


def test_the_screen_error_is_far_below_the_margin():
    # a dense grid of (-pi, pi), and reachable angles of the bundled directions
    grid = np.linspace(-math.pi, math.pi, 2_000_001)[1:-1]
    ks = np.random.default_rng(12).integers(0, 1 << 53, 1_000_000)
    initial = ks * 2.0**-53 * np.pi
    for y in [grid] + [initial - theta for theta in (0.0, math.pi / 6, math.pi / 3, 2.5)]:
        exact = np.cos(y)
        exact *= exact
        assert np.abs(_screened(y) - exact).max() <= _SCREEN_MARGIN / 100


@pytest.mark.parametrize("length", [1, 7, 8, 9, 33])
@pytest.mark.parametrize("offset", [0, 1, 3, 8, 61])
def test_the_cosine_of_a_subset_equals_the_subset_of_the_cosines(length, offset):
    # the fallback takes np.cos of the near lanes only, which must give the
    # values the whole array (and the scalar oracle) would
    y = np.random.default_rng(length * 100 + offset).uniform(-math.pi, math.pi, 128)
    y[::5] = np.array(SCREEN_ANGLES * 3)[: len(y[::5])]
    whole = np.cos(y)
    for idx in (np.arange(offset, offset + length), np.arange(offset, offset + 2 * length, 2)):
        assert np.array_equal(np.cos(y[idx]), whole[idx])
        assert np.cos(y[idx]).tolist() == [float(np.cos(v)) for v in y[idx].tolist()]


def test_the_fallback_takes_few_lanes_and_the_kernel_stays_exact(monkeypatch):
    binding = SlotBinding(1.0, 2.0, 3.0, Direction(0.0), Direction(math.pi / 6), Direction(math.pi / 3))
    world = QuantumWorld(policy="fresh_uniform")
    first_angle, _, _ = _quantum_tables(binding, world.initial_angle)
    n, lanes = 1_000_000, 1 << 16
    states = derive_states(7, np.arange(n, dtype=np.uint64))
    codes = np.random.default_rng(7).integers(0, 3, n).astype(np.intp)
    exact_states = states.copy()
    p1 = cos_squared(angles(exact_states) - first_angle.take(codes))
    want = np.where(p1 > uniforms(exact_states), 1, -1)

    calls = []
    real = experiment.cos_squared

    def counting(y):
        if isinstance(y, np.ndarray):  # the run's tables square floats
            calls.append(len(y))
        return real(y)

    monkeypatch.setattr(experiment, "cos_squared", counting)
    for lo in range(0, n, lanes):
        s_first, _, _ = world.sample_lanes(binding, codes[lo : lo + lanes], states[lo : lo + lanes])
        assert np.array_equal(s_first, want[lo : lo + lanes])
    share = sum(calls) / n
    # about 2 * margin of the lanes have a u within the margin of cos^2
    assert _SCREEN_MARGIN < share < 1e-3


EDGE_KS = [0, 1, 2, (1 << 52) - 1, 1 << 52, (1 << 52) + 1, TOP - 1, TOP]


@settings(max_examples=100)
@given(ks=st.lists(st.sampled_from(EDGE_KS) | st.integers(0, TOP), min_size=1, max_size=8), low=low_bits)
def test_uniforms_equal_next_uniform(ks, low):
    states = _pinned_states(ks, 1, [low] * len(ks))
    gens = [SeededGenerator(s) for s in states.tolist()]
    got = uniforms(states)
    assert got.dtype == np.float64
    assert got.tolist() == [g.next_uniform() for g in gens] == [k / 2.0**53 for k in ks]
    assert states.tolist() == [g.state for g in gens]


@settings(max_examples=100)
@given(ks=st.lists(st.sampled_from(EDGE_KS) | st.integers(0, TOP), min_size=1, max_size=8), low=low_bits)
@example(ks=EDGE_KS, low=0)
@example(ks=EDGE_KS, low=(1 << 11) - 1)
def test_angles_equal_next_uniform_times_pi(ks, low):
    states = _pinned_states(ks, 1, [low] * len(ks))
    gens = [SeededGenerator(s) for s in states.tolist()]
    got = angles(states)
    assert got.dtype == np.float64
    assert got.tolist() == [g.next_uniform() * math.pi for g in gens] == [k / 2.0**53 * math.pi for k in ks]
    assert states.tolist() == [g.state for g in gens]


@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 3, math.nextafter(math.pi, 0.0)])
def test_fresh_angles_need_no_reduction_at_the_seam(theta):
    ks = [0, 1, 1 << 52, TOP]
    states = _pinned_states(ks, 1, [(1 << 11) - 1] * len(ks))
    starts = states.tolist()
    y = angles(states) - theta
    prepared = [SeededGenerator(s).next_uniform() * math.pi for s in starts]
    assert y.tolist() == [reduce_direction_angle(a) - theta for a in prepared]
    assert prepared == [reduce_direction_angle(a) for a in prepared]
    # the largest uniform maps below pi, so no lane reaches the seam
    assert prepared[-1] == 3.1415926535897927 < math.pi


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


# -- jump-ahead draws and the mixture check's rejection -------------------------


# n around the doubling rounds: each round doubles the steps whose maps are built
DOUBLING_EDGES = sorted({0, 1, 2, 3} | {(1 << k) + d for k in range(1, 15) for d in (-1, 0, 1)})


@settings(max_examples=60, deadline=None)
@given(
    state=st.integers(0, MASK64) | st.sampled_from([0, 1, MASK64]),
    n=st.sampled_from(DOUBLING_EDGES) | st.integers(0, 30_000),
)
def test_next_integers_are_the_top_bits_of_the_next_n_steps(state, n):
    bulk, scalar = SeededGenerator(state), SeededGenerator(state)
    ks = bulk.next_integers(n)
    assert ks.dtype == np.uint64
    assert ks.tolist() == [scalar.step() >> 11 for _ in range(n)]
    assert bulk.state == scalar.state


def test_next_integers_of_zero_steps_leave_the_state_alone():
    gen = SeededGenerator(12345)
    assert gen.next_integers(0).tolist() == []
    assert gen.state == 12345


@pytest.mark.parametrize("n", [-1, True, False, 2.5, 3.0, "3", None])
def test_next_integers_refuses_an_n_that_is_not_an_integer_at_least_0(n):
    gen = SeededGenerator(12345)
    with pytest.raises(ValueError, match="^n must be an integer >= 0"):
        gen.next_integers(n)
    assert gen.state == 12345


class _PlantedZeros(SeededGenerator):
    """A generator whose draws at the given positions (from 1) have k = 0.

    Its state runs on as the unplanted generator's does, so two zeros can sit
    in one group of 8, which no seed of the LCG gives.
    """

    def __init__(self, state: int, zeros):
        super().__init__(state)
        self.zeros, self.drawn = set(zeros), 0

    def step(self) -> int:
        self.drawn += 1
        state = super().step()
        return state & 0x7FF if self.drawn in self.zeros else state

    def next_integers(self, n: int) -> np.ndarray:
        ks = super().next_integers(n)
        ks[[d - self.drawn - 1 for d in sorted(self.zeros) if self.drawn < d <= self.drawn + n]] = 0
        self.drawn += n
        return ks


MIXTURES = 4


def _assert_mixtures_equal_the_oracle(fast: SeededGenerator, slow: SeededGenerator):
    rows = _mixture_lhs(MIXTURES, fast)
    assert rows.tolist() == [table_lhs_exact(random_table_model(slow)) for _ in range(MIXTURES)]
    assert fast.state == slow.state


# a zero at the first draw, at the end of the first group, at the start of the
# second, and at the last draw of the first round, which forces a second round
@pytest.mark.parametrize("draw", [1, 8, 9, 8 * MIXTURES])
@pytest.mark.parametrize("low", [0, 1, 0x7FF])
def test_a_planted_zero_draw_rejects_its_group_as_the_scalar_weights_do(draw, low):
    start = _unstep(low, draw)
    probe = SeededGenerator(start)
    assert probe.next_integers(draw)[-1] == 0
    _assert_mixtures_equal_the_oracle(SeededGenerator(start), SeededGenerator(start))


@pytest.mark.parametrize("zeros", [(3, 6), (9, 16), (8 * MIXTURES - 1, 8 * MIXTURES), (1, 8, 9, 8 * MIXTURES + 8)])
def test_several_zero_draws_reject_their_groups_as_the_scalar_weights_do(zeros):
    fast, slow = _PlantedZeros(2024, zeros), _PlantedZeros(2024, zeros)
    _assert_mixtures_equal_the_oracle(fast, slow)
    assert fast.drawn == slow.drawn == 8 * (MIXTURES + len({(d - 1) // 8 for d in zeros}))
