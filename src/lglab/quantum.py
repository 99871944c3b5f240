"""Quantum world-model: photon linear polarization under projective measurement.

A linear polarization direction is an angle modulo pi. Measuring along a
polarizer direction yields +1 with probability cos^2 of the angle between
state and polarizer, collapsing the state onto the polarizer axis (or its
perpendicular on -1). Two consecutive measurements separated by angle theta
then have product expectation cos 2*theta regardless of the initial state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import UnitUniformSource, _real

# Outcomes of a dichotomic polarization measurement are normalized to +1/-1.
Outcome = int

HALF_PI = math.pi / 2.0


def reduce_direction_angle(theta: float) -> float:
    """Reduce any real angle to the canonical direction range [0, pi)."""
    a = math.fmod(theta, math.pi)
    if a < 0.0:
        a += math.pi
    if a >= math.pi:  # fp rounding at the seam collapses to 0
        a = 0.0
    return a


def cos_squared(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """cos^2 x, of a float or of every element of an array, squared by one
    correctly rounded product.

    The one squaring of the scalar oracle and the lane kernels: Python's
    x ** 2 is libm pow, which rounds some squares differently from x * x.
    np.cos keeps the scalar path bit-identical to the vectorized engine; a
    float x gives a numpy float64, which is a float.
    """
    c = np.cos(x)
    return c * c


@dataclass(frozen=True)
class Direction:
    """A polarization direction: an angle in [0, pi), reduced on construction."""

    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", reduce_direction_angle(_real(self.angle, "direction angle")))


def _direction(value, name: str) -> Direction:
    """value, if it is a Direction; ValueError naming it as name otherwise."""
    if not isinstance(value, Direction):
        raise ValueError(f"{name} must be a Direction, got {value!r}")
    return value


@dataclass(frozen=True)
class PolarizationState:
    """Pure linear polarization state of one photon, angle in [0, pi)."""

    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", reduce_direction_angle(_real(self.angle, "state angle")))


def measure_polarization(
    state: PolarizationState, direction: Direction, rand: UnitUniformSource
) -> tuple[Outcome, PolarizationState]:
    """One projective polarization measurement with collapse.

    Returns +1 with probability cos^2(state - direction), in which case the
    photon collapses onto the polarizer direction; otherwise returns -1 and
    the photon collapses onto the perpendicular direction. Consumes exactly
    one uniform; the outcome is +1 iff the draw is strictly below cos^2.
    """
    p_plus = cos_squared(state.angle - direction.angle)
    if rand.next_uniform() < p_plus:
        return 1, PolarizationState(direction.angle)
    return -1, PolarizationState(direction.angle + HALF_PI)


def sequential_correlation_exact(d1: Direction, d2: Direction) -> float:
    """Closed-form expectation of the product of two consecutive outcomes.

    Equals cos(2*(d1 - d2)) for measurements along d1 then d2, independent of
    the photon state before the first measurement: the first collapse erases
    it, leaving a state aligned with d1 (or its perpendicular) either way.
    """
    return float(np.cos(2.0 * (d1.angle - d2.angle)))


def run_quantum_trial(
    initial: PolarizationState,
    first: Direction,
    second: Direction,
    rand: UnitUniformSource,
) -> tuple[Outcome, Outcome]:
    """Two consecutive measurements on one photon, threading the collapse.

    Consumes exactly two uniforms (one per measurement).
    """
    o1, collapsed = measure_polarization(initial, first, rand)
    o2, _ = measure_polarization(collapsed, second, rand)
    return o1, o2
