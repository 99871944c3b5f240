"""The sequential-measurement protocol, end to end.

A run fixes three increasing times bound to three polarization directions,
then for each prepared photon selects one of the three time pairs with the
pinned pseudorandom device and executes the chosen world-model (quantum,
hidden-variable, or conspiracy) for that pair. Preparation and pair choice
must be space-like separated, which is the freedom-of-choice arrangement;
loophole studies may override the check explicitly.

Trials derive independent generator streams from (master_seed, index), so a
run can be sharded across workers and still produce a byte-identical log.
The engine works through the index range in fixed chunks: each chunk selects
one pair per lane and hands every lane to the world's lane kernel at once.
The chunks form one stream (run_chunks) that `lglab run` samples, folds into
the estimators and writes one chunk at a time; run_experiment collects it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .hidden_vars import PAIR_ORDER, PairChoice, World, _is_finite, _is_integer, signs
from .quantum import Direction, PolarizationState, cos_squared, reduce_direction_angle, run_quantum_trial
from .rng import (
    MASK64,
    SeededGenerator,
    StateBuffer,
    derive_trial_generator,
    draw_integers,
    step_states,
    thresholds,
    uniforms,
)
from .triallog import _CHUNK_ROWS, TrialLog, TrialRecord

# re-exports: perfbench/ reads write_trial_log, read_trial_log and TrialLog from this module
from .triallog import read_trial_log, write_trial_log  # noqa: F401

__all__ = [
    "SlotBinding",
    "SpacetimeEvent",
    "QuantumWorld",
    "FreedomOfChoiceError",
    "select_pair",
    "spacelike_separated",
    "run_chunks",
    "run_experiment",
]

SELECT_PAIR_MAX_ATTEMPTS = 128


@dataclass(frozen=True)
class SlotBinding:
    """The fixed correspondence between measurement times and directions.

    Times are seconds relative to each photon's preparation and must strictly
    increase; the binding never changes within a run. The times are bookkeeping
    only: no evolution happens between measurements, so statistics depend only
    on the directions.
    """

    t1: float
    t2: float
    t3: float
    a: Direction
    b: Direction
    c: Direction

    def __post_init__(self) -> None:
        if not (self.t1 < self.t2 < self.t3):
            raise ValueError(f"times must strictly increase, got {self.t1}, {self.t2}, {self.t3}")

    @property
    def directions(self) -> tuple[Direction, Direction, Direction]:
        return (self.a, self.b, self.c)

    def directions_for(self, pair: PairChoice) -> tuple[Direction, Direction]:
        first, second = pair.slots
        return self.directions[first.value], self.directions[second.value]


@dataclass(frozen=True)
class SpacetimeEvent:
    """An event in units where light speed is 1 (seconds, light-seconds)."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"event coordinate {name} must be finite")


def spacelike_separated(e1: SpacetimeEvent, e2: SpacetimeEvent) -> bool:
    """True iff the interval is strictly space-like (null intervals fail)."""
    dt = e1.t - e2.t
    dx = e1.x - e2.x
    dy = e1.y - e2.y
    dz = e1.z - e2.z
    return (dx * dx + dy * dy + dz * dz) - dt * dt > 0.0


class FreedomOfChoiceError(RuntimeError):
    """Raised when preparation and pair choice are not space-like separated."""


@dataclass(frozen=True)
class QuantumWorld(World):
    """Quantum world-model plus the initial-state policy for a run.

    policy "fixed" prepares every photon at initial_angle; "fresh_uniform"
    draws a uniform direction per trial, which exercises the claim that the
    pair statistics do not depend on the prepared state.
    """

    policy: str = "fixed"
    initial_angle: float = 0.0
    tag: str = field(default="quantum", init=False)

    def __post_init__(self) -> None:
        if self.policy not in ("fixed", "fresh_uniform"):
            raise ValueError(f"unknown initial-state policy {self.policy!r}")
        if not _is_finite(self.initial_angle):
            raise ValueError(f"initial_angle must be finite, got {self.initial_angle!r}")
        object.__setattr__(self, "initial_angle", reduce_direction_angle(self.initial_angle))

    def sample_pair(self, binding: SlotBinding, pair, rand) -> tuple[int, int, None]:
        """Two consecutive measurements on one photon along the pair's
        directions; a fresh initial state is drawn before them. No lambda."""
        first, second = binding.directions_for(PairChoice.of(pair))
        angle = rand.next_uniform() * math.pi if self.policy == "fresh_uniform" else self.initial_angle
        s_first, s_second = run_quantum_trial(PolarizationState(angle), first, second, rand)
        return s_first, s_second, None

    def sample_lanes(
        self, binding: SlotBinding, codes, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, None]:
        """Two consecutive measurements per lane, lane k on pair code codes[k].

        The lane-wise form of run_quantum_trial: every per-pair constant is a
        table indexed by pair code, so each lane reads exactly the values the
        scalar path computes for its pair, and a fixed probability p is drawn
        as the exact integer comparison of its thresholds() value.
        """
        first_angle, p1_limits, p2_limits = _quantum_tables(binding, self.initial_angle)
        if self.policy == "fresh_uniform":
            # the initial angle is drawn before u, as in the scalar path
            o1 = _cos_squared_above(_fresh_angle(uniforms(states), first_angle.take(codes)), uniforms(states))
        else:
            o1 = draw_integers(states) < p1_limits.take(codes)
        at = np.multiply(codes, 2, dtype=np.intp)
        at += o1
        o2 = draw_integers(states) < p2_limits.take(at)
        return signs(o1), signs(o2), None


# The screen's cos^2, the float32 cosine of y rounded to float32 and squared
# in float32, is within 2.4e-7 of cos_squared(y) on (-pi, pi), about 1000
# times below this margin (tests/test_exact_kernels.py measures it on a dense
# grid). So a lane whose screened cos^2 lies more than the margin from its
# uniform u compares with u as cos_squared(y) does.
_SCREEN_MARGIN = 2.0**-12


def _fresh_angle(initial: np.ndarray, first_angle) -> np.ndarray:
    """initial * pi - first_angle in initial's buffer: the angle between the
    first direction and the states that the uniforms initial draw.

    A uniform is at most 1 - 2^-53, and fl((1 - 2^-53) * pi) is below pi, so
    every initial * pi is already in [0, pi), where the scalar path's
    reduce_direction_angle returns it unchanged.
    """
    initial *= np.pi
    initial -= first_angle
    return initial


def _cos_squared_lanes(y: np.ndarray) -> np.ndarray:
    """cos_squared on every lane, in y's buffer."""
    np.cos(y, out=y)
    return np.multiply(y, y, out=y)  # as cos_squared squares


def _fresh_p1(initial: np.ndarray, first_angle) -> np.ndarray:
    """cos^2(initial * pi - first_angle) in initial's buffer: the first
    outcome's probability for the uniforms that draw the initial states."""
    return _cos_squared_lanes(_fresh_angle(initial, first_angle))


def _cos_squared_above(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cos_squared(y) > u on every lane, exactly, for y in (-pi, pi).

    A float32 cosine screens every lane; only the lanes whose screened cos^2
    is within _SCREEN_MARGIN of u, about 5e-4 of them, take the float64 one.
    """
    c = y.astype(np.float32)
    np.cos(c, out=c)
    c *= c
    d = np.subtract(c, u)
    above = d > 0.0
    near = np.flatnonzero(np.abs(d, out=d) <= _SCREEN_MARGIN)
    above[near] = _cos_squared_lanes(y[near]) > u[near]
    return above


def _quantum_tables(binding: SlotBinding, initial_angle: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A run's quantum lane tables.

    (first-slot angle by pair code, threshold of the first outcome from the
    fixed initial_angle by code, threshold of the second outcome at
    2 * code + o1): after the first outcome the photon lies along the first
    direction (o1 = 1) or across it (o1 = 0).
    """
    directions = [binding.directions_for(pair) for pair in PAIR_ORDER]
    first_angle = np.array([first.angle for first, _ in directions])
    p1 = [cos_squared(initial_angle - first.angle) for first, _ in directions]
    p2 = [
        cos_squared(reduce_direction_angle(post) - second.angle)
        for first, second in directions
        for post in (first.angle + math.pi / 2.0, first.angle)
    ]
    return first_angle, thresholds(p1), thresholds(p2)


def select_pair(gen: SeededGenerator) -> PairChoice:
    """Draw a uniform pair choice from the pinned device.

    Takes the top two bits of successive generator steps, rejecting the value
    3; the three remaining values map to P12, P13, P23. The attempt cap only
    guards against a broken generator (p = 4^-128 for a healthy one).
    """
    for _ in range(SELECT_PAIR_MAX_ATTEMPTS):
        bits = gen.top_two_bits()
        if bits != 3:
            return PAIR_ORDER[bits]
    raise RuntimeError(f"pair selection failed {SELECT_PAIR_MAX_ATTEMPTS} rejections in a row")


# -- vectorized engine -------------------------------------------------------


def _select_pairs_batch(states: np.ndarray) -> np.ndarray:
    """Vectorized select_pair: one code in {0,1,2} per lane, stepping lanes
    exactly as the scalar rejection loop would."""
    step_states(states)
    codes = (states >> np.uint64(62)).astype(np.uint8)
    # about a quarter of the lanes draw the rejected value 3 and step again
    rejected = np.flatnonzero(codes == 3)
    for _ in range(SELECT_PAIR_MAX_ATTEMPTS - 1):
        if rejected.size == 0:
            return codes
        sub = step_states(states[rejected])  # fancy indexing copies the lanes
        states[rejected] = sub
        bits = (sub >> np.uint64(62)).astype(np.uint8)
        codes[rejected] = bits
        rejected = rejected[bits == 3]
    if rejected.size == 0:
        return codes
    raise RuntimeError(f"pair selection failed {SELECT_PAIR_MAX_ATTEMPTS} rejections in a row")


def run_chunks(
    binding: SlotBinding,
    world: World,
    n_trials: int,
    master_seed: int,
    geometry: tuple[SpacetimeEvent, SpacetimeEvent],
    *,
    override_foc: bool = False,
    n_shards: int = 1,
) -> Iterator[TrialLog]:
    """The run of run_experiment as a stream of chunks.

    Chunks are TrialLogs of at most 2^16 trials, in index order; the
    arguments are checked, and a geometry refused, before the first chunk is
    drawn. n_shards splits the index range into that many parts, each worked
    through chunk by chunk; it moves chunk boundaries, never trials. Every
    chunk's lambda column takes the dtype of the first chunk's lambdas.
    """
    if not _is_integer(n_trials):
        raise ValueError(f"n_trials must be an integer, got {n_trials!r}")
    if not (_is_integer(master_seed) and 0 <= master_seed <= MASK64):
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    if n_trials > 1 << 64:
        raise ValueError(f"trial indexes must fit in 64 bits, so at most 2^64 trials, got {n_trials}")
    prep, choice = geometry
    if not spacelike_separated(prep, choice) and not override_foc:
        raise FreedomOfChoiceError(
            "preparation and pair-choice events are not space-like separated; "
            "freedom of choice is not guaranteed (set the override to run anyway)"
        )
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return _chunk_stream(binding, world, n_trials, master_seed, n_shards)


def _shards(n_trials: int, n_shards: int) -> Iterator[tuple[int, int]]:
    """The index ranges of min(n_shards, n_trials) near-equal shards, in
    integers, so exact for any number of trials."""
    parts = min(n_shards, n_trials)
    return ((n_trials * k // parts, n_trials * (k + 1) // parts) for k in range(parts))


def _chunk_stream(binding: SlotBinding, world: World, n_trials: int, master_seed: int, n_shards: int):
    lambda_dtype = None
    # the lanes' states and intp pair codes live in buffers the stream
    # reuses: per-chunk arrays of this size would be faulted in again after
    # glibc trims the heap between chunks
    lanes = StateBuffer(master_seed, min(n_trials, _CHUNK_ROWS))
    lane_codes = np.empty(min(n_trials, _CHUNK_ROWS), dtype=np.intp)
    for lo, hi in _shards(n_trials, n_shards):
        for start in range(lo, hi, _CHUNK_ROWS):
            states = lanes.derive(start, min(_CHUNK_ROWS, hi - start))
            codes = _select_pairs_batch(states)
            # the kernels' per-pair lookups are take()s, which cast uint8 codes on every call
            kernel_codes = lane_codes[: len(codes)]
            np.copyto(kernel_codes, codes)
            s_first, s_second, lambda_ids = world.sample_lanes(binding, kernel_codes, states)
            if lambda_ids is not None:
                if lambda_dtype is None:
                    lambda_dtype = lambda_ids.dtype
                lambda_ids = lambda_ids.astype(lambda_dtype, copy=False)
            yield TrialLog(
                codes,
                s_first.astype(np.int8, copy=False),
                s_second.astype(np.int8, copy=False),
                lambda_ids,
                world.tag,
                first_index=start,
            )


def run_experiment(
    binding: SlotBinding,
    world: World,
    n_trials: int,
    master_seed: int,
    geometry: tuple[SpacetimeEvent, SpacetimeEvent],
    *,
    override_foc: bool = False,
    n_shards: int = 1,
) -> TrialLog:
    """Run the full protocol and return the trial log.

    geometry is (preparation event, pair-choice event); the run refuses
    non-space-like geometries unless override_foc is set, which is how
    loophole studies acknowledge giving up freedom of choice. Identical
    arguments produce identical logs regardless of n_shards. The log holds
    the chunks of run_chunks, which a caller that needs no columns can
    consume one at a time instead.
    """
    log: Optional[TrialLog] = None
    for chunk in run_chunks(
        binding, world, n_trials, master_seed, geometry, override_foc=override_foc, n_shards=n_shards
    ):
        if log is None:
            lambdas = chunk.lambda_ids
            log = TrialLog(
                np.empty(n_trials, dtype=np.uint8),
                np.empty(n_trials, dtype=np.int8),
                np.empty(n_trials, dtype=np.int8),
                None if lambdas is None else np.empty(n_trials, dtype=lambdas.dtype),
                world.tag,
            )
        start, stop = chunk.first_index, chunk.first_index + len(chunk)
        log.pair_codes[start:stop] = chunk.pair_codes
        log.s_first[start:stop] = chunk.s_first
        log.s_second[start:stop] = chunk.s_second
        if log.lambda_ids is not None:
            log.lambda_ids[start:stop] = chunk.lambda_ids
    return log


def run_trial_scalar(
    binding: SlotBinding, world: World, trial_index: int, master_seed: int
) -> TrialRecord:
    """Reference scalar execution of one trial; run_experiment must agree.

    Spelled out with the public single-draw operations, down to the world's
    scalar sample_pair, so the vectorized engine has an independent oracle.
    """
    gen = derive_trial_generator(master_seed, trial_index)
    pair = select_pair(gen)
    s_first, s_second, lam = world.sample_pair(binding, pair, gen)
    return TrialRecord(trial_index, pair, s_first, s_second, lam, world.tag)
