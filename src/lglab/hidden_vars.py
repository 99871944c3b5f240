"""Deterministic hidden-variable response models and the classical bound.

A response model is a family of deterministic answers S(lambda, slot) in
{-1, +1} for the three measurement time slots, together with a distribution
over the standing initial conditions lambda. Drawing one lambda per trial and
reading off both requested slots makes the strict-determinism postulate
executable: both outcomes of a trial come from the same lambda.

The classical bound |E(T1,T2) - E(T1,T3)| + E(T2,T3) <= 1 is certified two
independent ways: exhaustively over the 8 deterministic strategies, and
statistically over random mixtures.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Sequence, Union

import numpy as np

from .quantum import _direction, sequential_correlation_exact
from .rng import SeededGenerator, UnitUniformSource, _integer, _is_finite_real, _real, angles, draw_integers, thresholds

# lambda identifiers: a row index for discrete models, an angle for continuous ones
HiddenVariable = Union[int, float]

WEIGHT_SUM_TOL = 1e-12


class TimeSlot(Enum):
    """The three measurement time slots; each is bound to a fixed direction."""

    T1 = 0
    T2 = 1
    T3 = 2


SlotPair = tuple[TimeSlot, TimeSlot]


class PairChoice(Enum):
    """Which two of the three measurement times a trial uses (earlier first).

    Members are listed in pair-code order: code is the per-lane value every
    lane kernel is indexed by, and slots the two time slots the pair reads.
    """

    P12 = ("12", TimeSlot.T1, TimeSlot.T2)
    P13 = ("13", TimeSlot.T1, TimeSlot.T3)
    P23 = ("23", TimeSlot.T2, TimeSlot.T3)

    def __new__(cls, value: str, first: TimeSlot, second: TimeSlot):
        member = object.__new__(cls)
        member._value_ = value
        member.code = len(cls.__members__)
        member.slots = (first, second)
        return member

    @classmethod
    def of(cls, pair: Union["PairChoice", SlotPair]) -> "PairChoice":
        """The member for a member or a (TimeSlot, TimeSlot) tuple; ValueError for any other pair."""
        if isinstance(pair, cls):
            return pair
        for member in cls:
            if member.slots == pair:
                return member
        if isinstance(pair, tuple) and all(isinstance(s, TimeSlot) for s in pair):
            shown = "(" + ", ".join(s.name for s in pair) + ")"
        else:
            shown = repr(pair)
        raise ValueError(f"{shown} is not one of the protocol pairs (T1, T2), (T1, T3), (T2, T3)")


PAIR_ORDER: tuple[PairChoice, ...] = tuple(PairChoice)

# Slot numbers by pair code: which response each outcome reads, and the slot
# the pair leaves out. They are also the bit positions of a strategy mask.
_FIRST_SLOT = np.array([p.slots[0].value for p in PAIR_ORDER], dtype=np.int64)
_SECOND_SLOT = np.array([p.slots[1].value for p in PAIR_ORDER], dtype=np.int64)
_OTHER_SLOT = 3 - _FIRST_SLOT - _SECOND_SLOT

# draw_integers threshold of a fair sign: k / 2^53 < 0.5
_HALF = thresholds(0.5)

# The strategy index a conspiracy trial reports, by pair code and the signs
# of its first, second and left-out slot: bit i of lambda is slot Ti's sign.
_STRATEGY = np.array(
    [
        (f << _FIRST_SLOT[c]) | (s << _SECOND_SLOT[c]) | (o << _OTHER_SLOT[c])
        for c in range(3)
        for f in (0, 1)
        for s in (0, 1)
        for o in (0, 1)
    ],
    dtype=np.int64,
)


def signs(positive: np.ndarray) -> np.ndarray:
    """Outcomes as int8: +1 where positive is True, -1 elsewhere."""
    return positive.view(np.int8) * 2 - 1


class World(ABC):
    """A world-model: what every trial reads its two outcomes from.

    sample_pair is one trial on one pair, drawn from rand: (s_first,
    s_second, lambda), with lambda None for a world without hidden variables.
    It is the scalar oracle. The engine samples a world only through
    sample_lanes, whose default kernel runs sample_pair lane by lane, so a
    subclass that implements sample_pair alone already runs; overriding
    sample_lanes with array code is an optimization that must give the same
    outcomes and lambdas. binding is the run's SlotBinding, which worlds
    that carry their own directions ignore.
    """

    tag: str = "world"

    @abstractmethod
    def sample_pair(self, binding, pair: Union[PairChoice, SlotPair], rand: UnitUniformSource) -> tuple:
        """Draw one trial for the given pair: (s_first, s_second, lambda)."""

    def sample_lanes(self, binding, codes, states: np.ndarray):
        """One trial per lane: (s_first, s_second, lambda_ids) as arrays.

        codes holds each lane's pair code (an index into PAIR_ORDER), or one
        code for every lane; states holds each lane's generator state and is
        advanced in place by the draws the lane consumes. The engine passes
        the chunk's own pair-code column as codes, which the log keeps, so a
        kernel reads it and never writes it. The lambda array's dtype is the
        column's dtype in the trial log, and every chunk of a run keeps the
        first chunk's lambda dtype (the engine refuses a chunk that changes it);
        lambda_ids is None when every lambda is, and a chunk in which some
        lambdas are None and others not is refused with ValueError.

        The engine samples a run's first chunk alone and first; run_experiment
        may sample the later chunks concurrently, on the calling thread and
        the workers of a thread pool, and out of index order. So a kernel
        keeps no state between calls: what it returns depends on its
        arguments alone.
        """
        gens = [SeededGenerator(state) for state in states.tolist()]
        codes = np.broadcast_to(codes, states.shape).tolist()
        trials = [self.sample_pair(binding, PAIR_ORDER[code], gen) for code, gen in zip(codes, gens)]
        s_first, s_second, lams = zip(*trials) if trials else ((), (), ())
        lambda_ids = None
        if any(lam is not None for lam in lams):
            if any(lam is None for lam in lams):
                raise ValueError(
                    f"world {self.tag!r}: some trials returned lambda None and others a value; "
                    "a run's lambdas are None on every trial or on none"
                )
            lambda_ids = np.array(lams)
        states[:] = [gen.state for gen in gens]
        return np.array(s_first, dtype=np.int8), np.array(s_second, dtype=np.int8), lambda_ids

    def sample_pair_batch(self, pair: Union[PairChoice, SlotPair], states: np.ndarray):
        """sample_lanes with every lane on the same pair and no binding, so
        only for worlds that carry their own directions."""
        return self.sample_lanes(None, PairChoice.of(pair).code, states)


class ResponseModel(World):
    """Deterministic response family S(lambda, slot) with a lambda distribution.

    respond must be a pure function of (lambda, slot): the standing initial
    conditions fix all three slot responses at once, and sample_pair draws
    one lambda and reads it on both slots of the pair. A subclass implements
    only the two abstract methods.
    """

    tag: str = "response"

    @abstractmethod
    def sample_lambda(self, rand: UnitUniformSource) -> HiddenVariable: ...

    @abstractmethod
    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int: ...

    def sample_pair(self, binding, pair, rand: UnitUniformSource) -> tuple[int, int, HiddenVariable]:
        first, second = PairChoice.of(pair).slots
        lam = self.sample_lambda(rand)
        return self.respond(lam, first), self.respond(lam, second), lam


class TableModel(ResponseModel):
    """Discrete lambda-space: weighted rows of response triples.

    rows: sequence of (weight, (s1, s2, s3)) with positive weights summing to
    1 within 1e-12 and outcomes in {-1, +1}.
    """

    tag = "table"

    def __init__(self, rows: Sequence[tuple[float, tuple[int, int, int]]]):
        if not rows:
            raise ValueError("a table model needs at least one lambda row")
        weights = []
        triples = []
        for k, row in enumerate(rows):
            try:
                w, triple = row
            except (TypeError, ValueError):
                raise ValueError(f"row {k}: expected a (weight, responses) pair, got {row!r}") from None
            _real(w, f"row {k}: weight", 0, above=True)
            if (
                not hasattr(triple, "__len__")
                or len(triple) != 3
                or not all(_is_finite_real(s) and s in (-1, 1) for s in triple)
            ):
                raise ValueError(f"row {k}: responses must be a triple of -1/+1, got {triple}")
            weights.append(float(w))
            triples.append(tuple(int(s) for s in triple))
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        self.rows = list(zip(weights, triples))
        self._weights = np.array(weights, dtype=np.float64)
        self._responses = np.array(triples, dtype=np.int8)
        self._cum = np.cumsum(self._weights)
        # the lane kernel's row bounds: k reaches row j + 1 once u >= cum[j];
        # the last bound is left out, which is the clip of sample_lambda
        self._row_limits = thresholds(self._cum[:-1])
        # each row's first and second outcome by pair code, at 3 * row + code
        self._first_by_row = self._responses[:, _FIRST_SLOT].ravel()
        self._second_by_row = self._responses[:, _SECOND_SLOT].ravel()

    def sample_lambda(self, rand: UnitUniformSource) -> int:
        u = rand.next_uniform()
        # row k covers cum[k-1] <= u < cum[k]; clip guards the fp tail of cum
        return int(min(np.searchsorted(self._cum, u, side="right"), len(self.rows) - 1))

    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int:
        return int(self._responses[_integer(lam, "table lambda", 0, len(self.rows) - 1), slot.value])

    def sample_lanes(self, binding, codes, states: np.ndarray):
        # cum[j] <= u exactly when row_limits[j] <= k, so lam counts the rows
        # searchsorted counts in sample_lambda, one comparison per row bound
        k = draw_integers(states)
        lam = np.zeros_like(k, dtype=np.int64)
        for limit in self._row_limits:
            lam += k >= limit
        at = lam * 3
        at += codes
        return self._first_by_row.take(at), self._second_by_row.take(at), lam


class RotorModel(ResponseModel):
    """Continuous lambda-space: a uniform angle on [0, pi).

    respond(lam, slot) is the sign of cos 2*(lam - theta_slot), with the
    measure-zero tie cos = 0 resolved to +1 so respond is total.
    """

    tag = "rotor"

    def __init__(self, directions: Sequence):
        if len(directions) != 3:
            raise ValueError(f"rotor model needs exactly three directions, got {len(directions)}")
        self.directions = tuple(_direction(d, f"rotor model direction {s.name}") for d, s in zip(directions, TimeSlot))
        self._angles = np.array([d.angle for d in self.directions], dtype=np.float64)
        self._first_angle = self._angles[_FIRST_SLOT]
        self._second_angle = self._angles[_SECOND_SLOT]

    def sample_lambda(self, rand: UnitUniformSource) -> float:
        return rand.next_uniform() * math.pi

    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int:
        c = float(np.cos(2.0 * (float(lam) - self._angles[slot.value])))
        return 1 if c >= 0.0 else -1

    def sample_lanes(self, binding, codes, states: np.ndarray):
        lam = angles(states)
        s_first = signs(_cos_nonnegative(lam, self._first_angle.take(codes)))
        s_second = signs(_cos_nonnegative(lam, self._second_angle.take(codes)))
        return s_first, s_second, lam


def _cos_edge(y: float, outward: float) -> float:
    """The float nearest the zero of cos beside y, toward outward, at which
    np.cos is still >= 0; cos must turn negative going outward from there."""
    inward = -outward
    while np.cos(y) < 0.0:
        y = float(np.nextafter(y, inward))
    while np.cos(np.nextafter(y, outward)) >= 0.0:
        y = float(np.nextafter(y, outward))
    return y


# On (-2pi, 2pi], np.cos(y) >= 0 exactly on [-pi/2, pi/2] and outside
# (-3pi/2, 3pi/2), with the float edges np.cos itself draws: stepping from
# the nearest floats finds them, so the test below agrees with
# RotorModel.respond on every float, edges included.
_COS_INNER = (_cos_edge(-math.pi / 2, -math.inf), _cos_edge(math.pi / 2, math.inf))
_COS_OUTER = (_cos_edge(-1.5 * math.pi, math.inf), _cos_edge(1.5 * math.pi, -math.inf))


def _cos_nonnegative(lam: np.ndarray, theta) -> np.ndarray:
    """np.cos(2 * (lam - theta)) >= 0 for lam in [0, pi] and theta in [0, pi),
    from the float edges of np.cos's sign, without evaluating a cosine."""
    y = lam - theta
    y *= 2.0
    inner = y >= _COS_INNER[0]
    inner &= y <= _COS_INNER[1]
    inner |= y <= _COS_OUTER[0]
    inner |= y >= _COS_OUTER[1]
    return inner


@dataclass(frozen=True)
class ConspiracyModel(World):
    """Setting-conditioned lambda sampling: the freedom-of-choice loophole.

    The responses themselves stay deterministic per lambda (lambda indexes the
    8 strategy triples, bit i = slot Ti response), but the lambda distribution
    depends on which pair was selected: for pair (X, Y) the first outcome is a
    fair sign and the second matches it with probability (1 + target)/2, so
    the pair's product mean equals the target. strength in [0, 1] dials the
    conditioning: with probability 1 - strength a trial falls back to the
    unconditioned uniform strategy mix (all pair means 0).
    """

    target_means: dict[PairChoice, float]
    strength: float = 1.0
    tag: str = field(default="conspiracy", init=False)

    def __post_init__(self) -> None:
        if set(self.target_means) != set(PAIR_ORDER):
            raise ValueError("conspiracy model needs a target mean keyed by each of the three PairChoice members")
        for pair, m in self.target_means.items():
            _real(m, f"target mean for {pair}", -1, 1)
        _real(self.strength, "strength", 0, 1)
        # the lane kernel's match probabilities, by pair code
        p_same = [(1.0 + self.target_means[p]) / 2.0 for p in PAIR_ORDER]
        object.__setattr__(self, "_same_limits", thresholds(p_same))
        object.__setattr__(self, "_strength_limit", thresholds(self.strength))

    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int:
        return 1 if (_integer(lam, "conspiracy lambda", 0, 7) >> slot.value) & 1 else -1

    def sample_pair(self, binding, pair, rand: UnitUniformSource) -> tuple[int, int, int]:
        """Draw one trial for the given pair: (s_first, s_second, lambda).

        Consumes exactly four uniforms: mode, first sign, second sign/match,
        unused-slot sign.
        """
        pair = PairChoice.of(pair)
        first, second = pair.slots
        conditioned = rand.next_uniform() < self.strength
        s_first = 1 if rand.next_uniform() < 0.5 else -1
        u2 = rand.next_uniform()
        if conditioned:
            s_second = s_first if u2 < (1.0 + self.target_means[pair]) / 2.0 else -s_first
        else:
            s_second = 1 if u2 < 0.5 else -1
        s_other = 1 if rand.next_uniform() < 0.5 else -1
        other = TimeSlot(3 - first.value - second.value)
        lam = sum(1 << slot.value for slot, s in ((first, s_first), (second, s_second), (other, s_other)) if s > 0)
        return s_first, s_second, lam

    def sample_lanes(self, binding, codes, states: np.ndarray):
        """sample_pair on every lane at once, lane k on pair code codes[k]."""
        conditioned = draw_integers(states) < self._strength_limit
        first_plus = draw_integers(states) < _HALF
        k2 = draw_integers(states)
        fair = k2 < _HALF
        # a conditioned second outcome matches the first iff u2 < p_same
        matched = (k2 < self._same_limits.take(codes)) == first_plus
        # second_plus = np.where(conditioned, matched, fair), done bitwise
        # because np.where on booleans is some 20 times slower
        matched ^= fair
        matched &= conditioned
        second_plus = fair ^ matched
        other_plus = draw_integers(states) < _HALF
        # lam = _STRATEGY[8 * code + 4 * first_plus + 2 * second_plus + other_plus]
        key = first_plus.view(np.uint8) * np.uint8(4)
        key += second_plus.view(np.uint8) * np.uint8(2)
        key += other_plus.view(np.uint8)
        at = np.multiply(codes, 8, dtype=np.intp)
        at += key
        return signs(first_plus), signs(second_plus), _STRATEGY.take(at)


def expectation_exact(model: TableModel, pair: Union[PairChoice, SlotPair]) -> float:
    """Exact pair expectation of a discrete model: sum of weight * S_first * S_second,
    added row by row in order, as _mixture_lhs adds its eight terms."""
    first, second = PairChoice.of(pair).slots
    products = model._responses[:, first.value] * model._responses[:, second.value]
    total = 0.0
    for term in (model._weights * products).tolist():
        total += term
    return total


def table_lhs_exact(model: TableModel) -> float:
    """Exact |E(T1,T2) - E(T1,T3)| + E(T2,T3) for a discrete model."""
    e12, e13, e23 = (expectation_exact(model, pair) for pair in PAIR_ORDER)
    return abs(e12 - e13) + e23


def conspiracy_from_quantum(a, b, c, strength: float = 1.0) -> ConspiracyModel:
    """Conspiracy model whose pair means copy the quantum cos 2*theta values.

    Despite per-lambda determinism, the setting-conditioned distribution lets
    the model reproduce the quantum statistics, including the inequality
    violation, which is exactly the loophole being demonstrated.
    """
    directions = (a, b, c)
    means = {p: sequential_correlation_exact(*(directions[s.value] for s in p.slots)) for p in PAIR_ORDER}
    return ConspiracyModel(target_means=means, strength=strength)


def deterministic_strategy_values() -> list[tuple[tuple[int, int, int], float]]:
    """The 8 deterministic strategies and their |s1s2 - s1s3| + s2s3 values."""
    return [
        ((s1, s2, s3), float(abs(s1 * s2 - s1 * s3) + s2 * s3))
        for s1, s2, s3 in product((-1, 1), repeat=3)
    ]


def brute_force_bound() -> float:
    """Exhaustive certification of the classical bound.

    Every deterministic strategy evaluates to exactly 1, so the maximum over
    strategies (and, by convexity, over all mixtures) is exactly 1.
    """
    return max(value for _, value in deterministic_strategy_values())


def _random_mixture_weights(rand: UnitUniformSource) -> list[float]:
    """Eight positive weights summing to 1, one per deterministic strategy."""
    while True:
        weights = [rand.next_uniform() for _ in range(8)]
        total = math.fsum(weights)
        if all(w > 0.0 for w in weights) and total > 0.0:
            return [w / total for w in weights]


def random_table_model(rand: UnitUniformSource) -> TableModel:
    """A random mixture over the 8 deterministic strategies."""
    triples = [t for t, _ in deterministic_strategy_values()]
    return TableModel(list(zip(_random_mixture_weights(rand), triples)))


def _mixture_lhs(trials: int, gen: SeededGenerator) -> np.ndarray:
    """Exact inequality LHS of trials random mixtures, drawn as random_table_model draws them.

    random_table_model is the scalar oracle. Here each round draws 8 * missing
    uniforms at once, as integers k with uniform k / 2^53, and keeps in order
    each group of 8 with no k == 0, the only draw that weight rejects; a round
    completes the count only if it keeps every group, so the generator ends
    where the oracle's does. A row's k sum exactly in int64 (below 2^56), so
    one rounding to float64 gives the correctly rounded total that math.fsum
    does, and (k * 2^-53) / total is the oracle's w / total bit for bit.
    Each mixture's three pair expectations add the eight weight * (+/-1)
    terms strategy by strategy, the order in which expectation_exact adds
    one model's rows, so the two agree on every platform.
    """
    rounds, missing = [], trials
    while missing:
        ks = gen.next_integers(8 * missing).reshape(missing, 8)
        kept = ks[np.all(ks != 0, axis=1)]
        rounds.append(kept)
        missing -= len(kept)
    ks = np.concatenate(rounds).view(np.int64)
    totals = ks.sum(axis=1).astype(np.float64) * 2.0**-53
    weights = ks * 2.0**-53 / totals[:, None]
    responses = np.array([t for t, _ in deterministic_strategy_values()], dtype=np.float64)
    products = responses[:, _FIRST_SLOT] * responses[:, _SECOND_SLOT]  # column = pair code
    sums = weights[:, 0, None] * products[0]
    for j in range(1, 8):
        sums += weights[:, j, None] * products[j]
    e12, e13, e23 = sums.T
    return np.abs(e12 - e13) + e23


def mixture_bound_check(trials: int, gen: SeededGenerator) -> float:
    """Max exact inequality LHS over random strategy mixtures; must stay <= 1."""
    trials = _integer(trials, "trials", 1)
    if not isinstance(gen, SeededGenerator):
        raise ValueError(f"gen must be a SeededGenerator, got {gen!r}")
    return float(np.max(_mixture_lhs(trials, gen)))
