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
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Sequence, Union

import numpy as np

from .rng import SeededGenerator, UnitUniformSource, uniforms

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
            pair = "(" + ", ".join(s.name for s in pair) + ")"
        raise ValueError(f"{pair} is not one of the protocol pairs (T1, T2), (T1, T3), (T2, T3)")


PAIR_ORDER: tuple[PairChoice, ...] = tuple(PairChoice)

# Slot numbers by pair code: which response each outcome reads, and the slot
# the pair leaves out. They are also the bit positions of a strategy mask.
_FIRST_SLOT = np.array([p.slots[0].value for p in PAIR_ORDER], dtype=np.int64)
_SECOND_SLOT = np.array([p.slots[1].value for p in PAIR_ORDER], dtype=np.int64)
_OTHER_SLOT = 3 - _FIRST_SLOT - _SECOND_SLOT


def _is_real(value) -> bool:
    """True for int, float and numpy real scalars; False for booleans and non-numbers."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """math.isfinite, False too for an integer beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def signs(positive: np.ndarray) -> np.ndarray:
    """Outcomes as int8: +1 where positive is True, -1 elsewhere."""
    return positive.view(np.int8) * 2 - 1


class ResponseModel(ABC):
    """Deterministic response family S(lambda, slot) with a lambda distribution.

    respond must be a pure function of (lambda, slot): the standing initial
    conditions fix all three slot responses at once.

    sample_pair is one trial: one lambda, read on both slots of the pair.
    The engine samples a model through sample_lanes, whose default kernel
    runs sample_pair lane by lane, so a subclass that implements only the
    two abstract methods already runs; overriding sample_lanes with array
    code is an optimization that must give the same outcomes and lambdas.
    """

    tag: str = "response"

    @abstractmethod
    def sample_lambda(self, rand: UnitUniformSource) -> HiddenVariable: ...

    @abstractmethod
    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int: ...

    def sample_pair(
        self, pair: Union[PairChoice, SlotPair], rand: UnitUniformSource
    ) -> tuple[int, int, HiddenVariable]:
        """Draw one trial for the given pair: (s_first, s_second, lambda)."""
        first, second = PairChoice.of(pair).slots
        lam = self.sample_lambda(rand)
        return self.respond(lam, first), self.respond(lam, second), lam

    def sample_lanes(self, binding, codes, states: np.ndarray):
        """One trial per lane: (s_first, s_second, lambda_ids) as arrays.

        codes holds each lane's pair code (an index into PAIR_ORDER), or one
        code for every lane; states holds each lane's generator state and is
        advanced in place by the draws the lane consumes. binding is the
        run's SlotBinding, which response models do not need: they carry
        their own directions. The lambda array's dtype is the column's dtype
        in the trial log.
        """
        gens = [SeededGenerator(state) for state in states.tolist()]
        codes = np.broadcast_to(codes, states.shape).tolist()
        trials = [self.sample_pair(PAIR_ORDER[code], gen) for code, gen in zip(codes, gens)]
        states[:] = [gen.state for gen in gens]
        s_first, s_second, lams = zip(*trials) if trials else ((), (), ())
        return np.array(s_first, dtype=np.int8), np.array(s_second, dtype=np.int8), np.array(lams)

    def sample_pair_batch(self, pair: Union[PairChoice, SlotPair], states: np.ndarray):
        """sample_lanes with every lane on the same pair."""
        return self.sample_lanes(None, PairChoice.of(pair).code, states)


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
            if not (_is_real(w) and w > 0.0 and _is_finite(w)):
                raise ValueError(f"row {k}: weight must be a finite number > 0, got {w!r}")
            if (
                not hasattr(triple, "__len__")
                or len(triple) != 3
                or not all(_is_real(s) and s in (-1, 1) for s in triple)
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
        self._flat_responses = self._responses.ravel()
        self._cum = np.cumsum(self._weights)

    def sample_lambda(self, rand: UnitUniformSource) -> int:
        u = rand.next_uniform()
        # row k covers cum[k-1] <= u < cum[k]; clip guards the fp tail of cum
        return int(min(np.searchsorted(self._cum, u, side="right"), len(self.rows) - 1))

    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int:
        return int(self._responses[int(lam), slot.value])

    def sample_lanes(self, binding, codes, states: np.ndarray):
        u = uniforms(states)
        lam = np.minimum(np.searchsorted(self._cum, u, side="right"), len(self.rows) - 1)
        row = lam * 3
        s_first = self._flat_responses[row + _FIRST_SLOT[codes]]
        s_second = self._flat_responses[row + _SECOND_SLOT[codes]]
        return s_first, s_second, lam.astype(np.int64, copy=False)


class RotorModel(ResponseModel):
    """Continuous lambda-space: a uniform angle on [0, pi).

    respond(lam, slot) is the sign of cos 2*(lam - theta_slot), with the
    measure-zero tie cos = 0 resolved to +1 so respond is total.
    """

    tag = "rotor"

    def __init__(self, directions: Sequence):
        if len(directions) != 3:
            raise ValueError(f"rotor model needs exactly three directions, got {len(directions)}")
        self.directions = tuple(directions)
        self._angles = np.array([d.angle for d in self.directions], dtype=np.float64)
        self._first_angle = self._angles[_FIRST_SLOT]
        self._second_angle = self._angles[_SECOND_SLOT]

    def sample_lambda(self, rand: UnitUniformSource) -> float:
        return rand.next_uniform() * math.pi

    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int:
        c = float(np.cos(2.0 * (float(lam) - self._angles[slot.value])))
        return 1 if c >= 0.0 else -1

    def sample_lanes(self, binding, codes, states: np.ndarray):
        lam = uniforms(states) * np.pi
        s_first = signs(np.cos(2.0 * (lam - self._first_angle[codes])) >= 0.0)
        s_second = signs(np.cos(2.0 * (lam - self._second_angle[codes])) >= 0.0)
        return s_first, s_second, lam


@dataclass(frozen=True)
class ConspiracyModel:
    """Setting-conditioned lambda sampling: the freedom-of-choice loophole.

    The responses themselves stay deterministic per lambda (lambda indexes the
    8 strategy triples, bit i = slot Ti response), but the lambda distribution
    depends on which pair was selected: for pair (X, Y) the first outcome is a
    fair sign and the second matches it with probability (1 + target)/2, so
    the pair's product mean equals the target. strength in [0, 1] dials the
    conditioning: with probability 1 - strength a trial falls back to the
    unconditioned uniform strategy mix (all pair means 0).
    """

    target_means: dict[SlotPair, float]
    strength: float = 1.0
    tag: str = field(default="conspiracy", init=False)

    def __post_init__(self) -> None:
        if set(self.target_means) != {p.slots for p in PAIR_ORDER}:
            raise ValueError("conspiracy model needs a target mean for each of the three slot pairs")
        for pair, m in self.target_means.items():
            if not (-1.0 <= m <= 1.0):
                raise ValueError(f"target mean for {pair} must lie in [-1, 1], got {m}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"strength must lie in [0, 1], got {self.strength}")
        # the lane kernel's match probabilities, by pair code
        p_same = [(1.0 + self.target_means[p.slots]) / 2.0 for p in PAIR_ORDER]
        object.__setattr__(self, "_p_same_by_code", np.array(p_same))

    def respond(self, lam: HiddenVariable, slot: TimeSlot) -> int:
        lam = int(lam)
        if not 0 <= lam <= 7:
            raise ValueError(f"conspiracy lambda must index one of the 8 strategies, got {lam}")
        return 1 if (lam >> slot.value) & 1 else -1

    def sample_pair(
        self, pair: Union[PairChoice, SlotPair], rand: UnitUniformSource
    ) -> tuple[int, int, int]:
        """Draw one trial for the given pair: (s_first, s_second, lambda).

        Consumes exactly four uniforms: mode, first sign, second sign/match,
        unused-slot sign.
        """
        first, second = PairChoice.of(pair).slots
        conditioned = rand.next_uniform() < self.strength
        s_first = 1 if rand.next_uniform() < 0.5 else -1
        u2 = rand.next_uniform()
        if conditioned:
            s_second = s_first if u2 < (1.0 + self.target_means[(first, second)]) / 2.0 else -s_first
        else:
            s_second = 1 if u2 < 0.5 else -1
        s_other = 1 if rand.next_uniform() < 0.5 else -1
        other = TimeSlot(3 - first.value - second.value)
        lam = sum(1 << slot.value for slot, s in ((first, s_first), (second, s_second), (other, s_other)) if s > 0)
        return s_first, s_second, lam

    def sample_lanes(self, binding, codes, states: np.ndarray):
        """sample_pair on every lane at once, lane k on pair code codes[k]."""
        conditioned = uniforms(states) < self.strength
        first_plus = uniforms(states) < 0.5
        u2 = uniforms(states)
        # a conditioned second outcome matches the first iff u2 < p_same
        second_plus = np.where(conditioned, (u2 < self._p_same_by_code[codes]) == first_plus, u2 < 0.5)
        other_plus = uniforms(states) < 0.5
        lam = first_plus.astype(np.int64) << _FIRST_SLOT[codes]
        lam |= second_plus.astype(np.int64) << _SECOND_SLOT[codes]
        lam |= other_plus.astype(np.int64) << _OTHER_SLOT[codes]
        return signs(first_plus), signs(second_plus), lam

    def sample_pair_batch(self, pair: Union[PairChoice, SlotPair], states: np.ndarray):
        """sample_lanes with every lane on the same pair."""
        return self.sample_lanes(None, PairChoice.of(pair).code, states)


def expectation_exact(model: TableModel, slot_a: TimeSlot, slot_b: TimeSlot) -> float:
    """Exact pair expectation of a discrete model: sum of weight * S_a * S_b."""
    first, second = PairChoice.of((slot_a, slot_b)).slots
    products = model._responses[:, first.value].astype(np.float64) * model._responses[:, second.value]
    return float(np.dot(model._weights, products))


def table_lhs_exact(model: TableModel) -> float:
    """Exact |E(T1,T2) - E(T1,T3)| + E(T2,T3) for a discrete model."""
    e12 = expectation_exact(model, TimeSlot.T1, TimeSlot.T2)
    e13 = expectation_exact(model, TimeSlot.T1, TimeSlot.T3)
    e23 = expectation_exact(model, TimeSlot.T2, TimeSlot.T3)
    return abs(e12 - e13) + e23


def sample_trial(
    model: Union[ResponseModel, ConspiracyModel], pair: Union[PairChoice, SlotPair], rand: UnitUniformSource
) -> tuple[int, int, HiddenVariable]:
    """One trial under a hidden-variable model: (s_first, s_second, lambda).

    Response models read both outcomes from a single freshly drawn lambda;
    conspiracy models draw from their pair-conditioned distribution.
    """
    return model.sample_pair(pair, rand)


def conspiracy_from_quantum(a, b, c, strength: float = 1.0) -> ConspiracyModel:
    """Conspiracy model whose pair means copy the quantum cos 2*theta values.

    Despite per-lambda determinism, the setting-conditioned distribution lets
    the model reproduce the quantum statistics, including the inequality
    violation, which is exactly the loophole being demonstrated.
    """
    from .quantum import sequential_correlation_exact

    directions = (a, b, c)
    means = {
        (x, y): sequential_correlation_exact(directions[x.value], directions[y.value])
        for x, y in (p.slots for p in PAIR_ORDER)
    }
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


def _mixture_lhs(trials: int, rand: UnitUniformSource) -> np.ndarray:
    """Exact inequality LHS of trials random mixtures, drawn as random_table_model draws them.

    One (trials, 8) @ (8, 3) product gives every mixture's three pair
    expectations; each is the same sum of weight * (+/-1) that
    expectation_exact forms for one model.
    """
    weights = np.array([_random_mixture_weights(rand) for _ in range(trials)])
    responses = np.array([t for t, _ in deterministic_strategy_values()], dtype=np.float64)
    products = responses[:, _FIRST_SLOT] * responses[:, _SECOND_SLOT]  # column = pair code
    e12, e13, e23 = (weights @ products).T
    return np.abs(e12 - e13) + e23


def mixture_bound_check(trials: int, rand: UnitUniformSource) -> float:
    """Max exact inequality LHS over random strategy mixtures; must stay <= 1."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return float(np.max(_mixture_lhs(trials, rand)))
