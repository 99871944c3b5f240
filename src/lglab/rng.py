"""Pinned pseudorandom machinery.

Every random draw in a run flows from a single 64-bit master seed through
the generators defined here, so runs replay byte-for-byte on any platform.
The generator is a fixed 64-bit linear congruential recurrence; per-trial
streams are derived with a splitmix-style finalizer so that trials can be
computed in any order (serial, sharded, vectorized) with identical results.

SeededGenerator.step is the scalar definition, and the oracle that every
array form here is tested against: the lane kernels, and next_integers, which
computes a generator's next n states at once by jump-ahead.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Protocol

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
_TWO_MINUS53 = 2.0**-53
_PI_TWO_MINUS53 = np.pi * _TWO_MINUS53
# the 64-bit bounds as a refusal writes them
_BOUND_TEXT = {MASK64: "2^64 - 1", 1 << 64: "2^64"}


def _is_integer(value) -> bool:
    """True for an int or numpy integer scalar, False for a bool or any other value."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_finite_real(value) -> bool:
    """True for a finite int, float or numpy real scalar, False for a bool, any other
    value or an int beyond the float range: the predicate of _real, as _is_integer is _integer's."""
    try:  # a float skips the ABC check
        real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        return real and math.isfinite(value)
    except OverflowError:
        return False


def _integer(value, name: str, low: int, high: Optional[int] = None) -> int:
    """int(value), if value is an integer in [low, high] (or >= low, with no
    high); else a ValueError naming it. With _real, the library's number rule."""
    if _is_integer(value) and low <= value and (high is None or value <= high):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {_BOUND_TEXT.get(high, high)}]"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _real(value, name: str, low=-math.inf, high=math.inf, *, above: bool = False):
    """value, unchanged, if it is a finite real number in [low, high] (in
    (low, high] if above); else a ValueError naming it."""
    if _is_finite_real(value) and (low < value if above else low <= value) and value <= high:
        return value
    if high < math.inf:
        bounds = f" in {'(' if above else '['}{low}, {high}]"
    else:
        bounds = "" if low == -math.inf else f" {'>' if above else '>='} {low}"
    raise ValueError(f"{name} must be a finite number{bounds}, got {value!r}")


class UnitUniformSource(Protocol):
    """Anything that yields successive uniforms on [0, 1)."""

    def next_uniform(self) -> float: ...


@dataclass
class SeededGenerator:
    """64-bit LCG with pinned constants.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
    Unit uniforms take the top 53 bits of state' divided by 2^53.

    step and next_uniform are the scalar oracle; next_integers draws the
    same values in bulk.
    """

    state: int

    def __post_init__(self) -> None:
        self.state = _integer(self.state, "generator state", 0, MASK64)

    def step(self) -> int:
        """Advance one step and return the new state."""
        self.state = (LCG_MULT * self.state + LCG_INC) & MASK64
        return self.state

    def next_uniform(self) -> float:
        return (self.step() >> 11) / _TWO53

    def top_two_bits(self) -> int:
        """Advance one step and return the top 2 bits of the new state."""
        return self.step() >> 62

    def next_integers(self, n: int) -> np.ndarray:
        """Advance n steps and return the top 53 bits k of each new state, as
        uint64: next_uniform would have returned k / 2^53 for each.

        Step j of the n is the affine map s -> A_j * s + C_j (mod 2^64). The
        maps for j = 1..m give those for j = m+1..2m, since step m + i is step
        i after step m, so ceil(log2 n) doubling rounds of array products
        build them all (Brown, Trans. Am. Nucl. Soc. 71, 202, 1994).
        """
        n = _integer(n, "n", 0)
        if n == 0:
            return np.zeros(0, dtype=np.uint64)
        mult = np.empty(n, dtype=np.uint64)
        inc = np.empty(n, dtype=np.uint64)
        mult[0], inc[0] = _U64_MULT, _U64_INC
        m = 1
        while m < n:
            # every product is array by scalar, which wraps without a warning
            step = min(m, n - m)
            np.multiply(mult[:step], mult[m - 1], out=mult[m : m + step])
            np.multiply(mult[:step], inc[m - 1], out=inc[m : m + step])
            inc[m : m + step] += inc[:step]
            m += step
        states = mult * np.uint64(self.state)
        states += inc
        self.state = int(states[-1])
        return states >> np.uint64(11)


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
    master_seed = _integer(master_seed, "master seed", 0, MASK64)
    trial_index = _integer(trial_index, "trial index", 0, MASK64)
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
    master_seed = _integer(master_seed, "master seed", 0, MASK64)
    indexes = np.asarray(indexes, dtype=np.uint64)
    # made before the states, so that the block it frees on return lies below
    # them, where the caller's next temporaries reuse it, and not at the top
    # of the heap, which the allocator may give back and fault in again
    scratch = np.empty(indexes.shape, np.uint64)
    # one product, into an array even for a scalar index, so the seed's add
    # wraps as array arithmetic does, without an overflow warning
    z = np.multiply(indexes, _U64_GOLDEN, out=np.empty_like(scratch))
    z += np.uint64(master_seed)
    # mix64 on every lane, in place
    for shift, mult in ((30, _U64_MIX1), (27, _U64_MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z[()]  # a scalar for a scalar index


def step_states(states: np.ndarray) -> np.ndarray:
    """Advance every lane one LCG step in place; returns the array."""
    states *= _U64_MULT
    states += _U64_INC
    return states


def uniforms(states: np.ndarray) -> np.ndarray:
    """Advance every lane one step and return its unit uniform, k / 2^53.

    The product k * 2^-53 is that quotient bit for bit: k is below 2^53, so
    its float64 is exact, and scaling by a power of two is exact. k goes to
    float64 through an int64 view, which converts faster than uint64.
    """
    return np.multiply(draw_integers(states).view(np.int64), _TWO_MINUS53)


def angles(states: np.ndarray) -> np.ndarray:
    """Advance every lane one step and return its uniform angle, next_uniform() * pi.

    One product, k * (pi * 2^-53): scaling the float pi by 2^-53 is exact, so
    that is the real number (k * 2^-53) * pi and rounds to the same float.
    The largest k, 2^53 - 1, gives the float below pi, so every angle is
    already in [0, pi), where reduce_direction_angle returns it unchanged.
    """
    return np.multiply(draw_integers(states).view(np.int64), _PI_TWO_MINUS53)


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
