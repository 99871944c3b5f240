"""Pinned pseudorandom machinery.

Every random draw in a run flows from a single 64-bit master seed through
the generators defined here, so runs replay byte-for-byte on any platform.
The generator is a fixed 64-bit linear congruential recurrence; per-trial
streams are derived with a splitmix-style finalizer so that trials can be
computed in any order (serial, sharded, vectorized) with identical results.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

MASK64 = (1 << 64) - 1

# LCG step constants (64-bit multiplicative congruential recurrence).
LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407

# Stream-derivation constants (additive sequence + avalanche finalizer).
STREAM_GOLDEN = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

_TWO53 = float(1 << 53)


class UnitUniformSource(Protocol):
    """Anything that yields successive uniforms on [0, 1)."""

    def next_uniform(self) -> float: ...


@dataclass
class SeededGenerator:
    """64-bit LCG with pinned constants.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
    Unit uniforms take the top 53 bits of state' divided by 2^53.
    """

    state: int

    def __post_init__(self) -> None:
        if not 0 <= self.state <= MASK64:
            raise ValueError(f"generator state must be a 64-bit unsigned integer, got {self.state}")

    def step(self) -> int:
        """Advance one step and return the new state."""
        self.state = (LCG_MULT * self.state + LCG_INC) & MASK64
        return self.state

    def next_uniform(self) -> float:
        return (self.step() >> 11) / _TWO53

    def top_two_bits(self) -> int:
        """Advance one step and return the top 2 bits of the new state."""
        return self.step() >> 62


def mix64(z: int) -> int:
    """Avalanche finalizer: bijective mixing of a 64-bit word."""
    z &= MASK64
    z ^= z >> 30
    z = (z * MIX_MULT_1) & MASK64
    z ^= z >> 27
    z = (z * MIX_MULT_2) & MASK64
    z ^= z >> 31
    return z


def derive_trial_generator(master_seed: int, trial_index: int) -> SeededGenerator:
    """Per-trial generator, order-free in trial_index.

    state = mix64(master_seed + trial_index * STREAM_GOLDEN), all mod 2^64.
    Distinct indexes land in well-separated streams, and the derivation does
    not depend on any other trial, so serial and sharded runs agree.
    """
    if not 0 <= master_seed <= MASK64:
        raise ValueError(f"master seed must be a 64-bit unsigned integer, got {master_seed}")
    if trial_index < 0:
        raise ValueError(f"trial index must be non-negative, got {trial_index}")
    return SeededGenerator(mix64((master_seed + trial_index * STREAM_GOLDEN) & MASK64))


# -- vectorized counterparts ------------------------------------------------
#
# The array kernels below implement exactly the scalar semantics above on
# uint64 lanes (one lane = one trial stream). All arithmetic stays in array
# ops, which wrap modulo 2^64 silently; numpy only warns for 0-d scalars.

_U64_MULT = np.uint64(LCG_MULT)
_U64_INC = np.uint64(LCG_INC)
_U64_GOLDEN = np.uint64(STREAM_GOLDEN)
_U64_MIX1 = np.uint64(MIX_MULT_1)
_U64_MIX2 = np.uint64(MIX_MULT_2)


def derive_states(master_seed: int, indexes: np.ndarray) -> np.ndarray:
    """Vectorized derive_trial_generator: one uint64 state per index."""
    z = np.asarray(np.uint64(master_seed) + np.asarray(indexes, dtype=np.uint64) * _U64_GOLDEN)
    return _mix_lanes(z, np.empty_like(z))[()]  # [()]: a scalar for a scalar index


def _mix_lanes(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """mix64 on every lane of z, in place; scratch is a same-sized buffer."""
    for shift, mult in ((30, _U64_MIX1), (27, _U64_MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


class StateBuffer:
    """derive_states for consecutive index ranges of one run, into one reused buffer.

    The lane offsets i * STREAM_GOLDEN are formed once, so each range costs
    one add and the in-place finalizer, and no range allocates.
    """

    def __init__(self, master_seed: int, rows: int):
        self.master_seed = master_seed
        self._offsets = np.arange(rows, dtype=np.uint64) * _U64_GOLDEN
        self._states = np.empty(rows, dtype=np.uint64)
        self._scratch = np.empty(rows, dtype=np.uint64)

    def derive(self, start: int, n: int) -> np.ndarray:
        """derive_states(master_seed, range(start, start + n)), n at most the
        buffer's rows, as a view that the next call overwrites."""
        base = np.uint64((self.master_seed + start * STREAM_GOLDEN) & MASK64)
        states = np.add(self._offsets[:n], base, out=self._states[:n])
        return _mix_lanes(states, self._scratch[:n])


def step_states(states: np.ndarray) -> np.ndarray:
    """Advance every lane one LCG step in place; returns the array."""
    states *= _U64_MULT
    states += _U64_INC
    return states


def uniforms(states: np.ndarray) -> np.ndarray:
    """Advance every lane one step and return its unit uniform."""
    u = draw_integers(states).astype(np.float64)
    u /= _TWO53
    return u


def draw_integers(states: np.ndarray) -> np.ndarray:
    """Advance every lane one step and return k, the top 53 bits of its new
    state: the lane's unit uniform is k / 2^53."""
    step_states(states)
    return states >> np.uint64(11)


def thresholds(p) -> np.ndarray:
    """For each probability p, the integer t with k < t exactly when k / 2^53 < p.

    p * 2^53 is exact (a power-of-two scaling, subnormals included), and an
    integer k is below a real x exactly when it is below ceil(x), so
    t = ceil(p * 2^53), within [0, 2^53]: 2^53 (p at least 1) admits every
    k, 0 (p at most 0, or NaN) none. A draw u < p is then the uint64
    comparison draw_integers(states) < t, with no float work per lane.
    """
    # clipping p to [0, 1] first (fmax maps NaN to 0) keeps the product finite
    p = np.fmin(np.fmax(np.asarray(p, dtype=np.float64), 0.0), 1.0)
    return np.ceil(p * _TWO53).astype(np.uint64)
