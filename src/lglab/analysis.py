"""Estimation and inference on trial logs.

Estimates the three pair correlations with standard errors, evaluates the
inequality |P(a,b) - P(a,c)| <= 1 - P(b,c) as a one-sided z-test against the
classical bound, scans the quantum prediction for the maximal violation, and
measures how fast the running estimates stabilize with sample size. The
estimators fold a log one chunk at a time (LogFold), so a command can
estimate a run that it never holds whole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .hidden_vars import PAIR_ORDER, PairChoice
from .rng import _integer, _real, mix64
from .triallog import TrialLog, _check_chunk

DEFAULT_SIGNIFICANCE = 3.0
DEFAULT_EPSILON = 0.01
DEFAULT_CHECKPOINT_STRIDE = 1000
BOOTSTRAP_RESAMPLES = 10_000
# the bootstrap's seed, pinned so that a report never varies between runs
BOOTSTRAP_SEED = 0


class AnalysisError(ValueError):
    """An estimator precondition failed (for example, an undersampled pair)."""


@dataclass(frozen=True)
class PairEstimate:
    """Sample mean of outcome products for one pair, with its standard error.

    Products are dichotomic, so se = sqrt((1 - mean^2) / n), which is 0 when
    every product agrees.
    """

    pair: PairChoice
    n: int
    mean: float
    std_error: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, f"pair {self.pair.value}: n", 1))
        _real(self.mean, f"pair {self.pair.value}: mean", -1, 1)
        _real(self.std_error, f"pair {self.pair.value}: std_error", 0)


def estimates_from_counts(counts) -> tuple[PairEstimate, PairEstimate, PairEstimate]:
    """Per-pair product means and standard errors, in (12, 13, 23) order.

    counts[code] is (trials whose outcomes differ, trials whose outcomes
    agree) for the pair with that code, as Python ints. Products are +/-1, so
    a pair's mean is (n_same - n_diff) / n from integer counts; that equals
    the mean of the float products exactly, because their sum is an integer
    below 2^53.
    """
    undersampled = [p.value for p, (n_diff, n_same) in zip(PAIR_ORDER, counts) if n_diff + n_same < 2]
    if undersampled:
        raise AnalysisError(
            f"pair(s) {', '.join(undersampled)} have fewer than 2 trials; every pair needs n >= 2"
        )
    estimates = []
    for pair, (n_diff, n_same) in zip(PAIR_ORDER, counts):
        n = n_diff + n_same
        mean = (n_same - n_diff) / n
        se = math.sqrt(max(0.0, 1.0 - mean * mean) / n)
        estimates.append(PairEstimate(pair=pair, n=n, mean=mean, std_error=se))
    return tuple(estimates)


def estimate_pairs(log: TrialLog) -> tuple[PairEstimate, PairEstimate, PairEstimate]:
    """Per-pair product means and standard errors, in (12, 13, 23) order."""
    return LogFold.over(log.chunks()).estimates()


@dataclass(frozen=True)
class LgReport:
    """Inequality evaluation: LHS, its error, and the violation verdict."""

    estimates: tuple[PairEstimate, PairEstimate, PairEstimate]
    lhs: float
    lhs_std_error: float
    bound: float
    violated: bool
    z_score: float
    significance: float
    degenerate: bool
    se_method: str
    config_echo: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "estimates": [
                {"pair": e.pair.value, "n": e.n, "mean": e.mean, "std_error": e.std_error}
                for e in self.estimates
            ],
            "lhs": self.lhs,
            "lhs_std_error": self.lhs_std_error,
            "bound": self.bound,
            "z_score": self.z_score,
            "significance": self.significance,
            "violated": self.violated,
            "degenerate": self.degenerate,
            "se_method": self.se_method,
            "config_echo": self.config_echo,
        }


def _bootstrap_lhs_std_error(
    estimates: tuple[PairEstimate, PairEstimate, PairEstimate],
    seed: int,
    n_resamples: int,
) -> float:
    """Resampling error for the LHS near the |.| kink.

    Products are +/-1, so resampling n of them with replacement and averaging
    is exactly a Binomial(n, p_plus) draw rescaled to [-1, 1]; that shortcut
    keeps 10^4 resamples of million-trial logs cheap.
    """
    rng = np.random.Generator(np.random.PCG64(mix64(seed)))
    means = []
    for est in estimates:
        p_plus = (est.mean + 1.0) / 2.0
        means.append(2.0 * rng.binomial(est.n, p_plus, size=n_resamples) / est.n - 1.0)
    lhs_samples = np.abs(means[0] - means[1]) + means[2]
    return float(np.std(lhs_samples, ddof=1))


def evaluate_lg(
    estimates: tuple[PairEstimate, PairEstimate, PairEstimate],
    significance: float = DEFAULT_SIGNIFICANCE,
) -> LgReport:
    """Evaluate |P12 - P13| + P23 against the classical bound of 1.

    The error combines the three pair errors in quadrature; when the |.| term
    sits within one standard error of zero that propagation is unreliable, so
    a binomial bootstrap of the trial products replaces it. The verdict is a
    one-sided z-test: violated iff (lhs - 1)/se exceeds the significance,
    which must be a finite real number (not a bool).
    """
    _real(significance, "significance")
    by_pair = {e.pair: e for e in estimates}
    if len(by_pair) != 3 or len(estimates) != 3:
        got = ", ".join(e.pair.value for e in estimates) or "none"
        raise AnalysisError(f"estimates must cover pairs 12, 13, 23 exactly, got {got}")
    ordered = tuple(by_pair[p] for p in PAIR_ORDER)
    e12, e13, e23 = ordered

    diff = e12.mean - e13.mean
    lhs = abs(diff) + e23.mean
    degenerate = abs(diff) < max(e12.std_error, e13.std_error)
    if degenerate:
        se_method = "bootstrap"
        lhs_se = _bootstrap_lhs_std_error(ordered, BOOTSTRAP_SEED, BOOTSTRAP_RESAMPLES)
    else:
        # first-order propagation; d|diff|/ddiff = sign(diff) drops out in quadrature
        se_method = "propagation"
        lhs_se = math.sqrt(e12.std_error**2 + e13.std_error**2 + e23.std_error**2)
    if lhs_se > 0.0:
        z = (lhs - 1.0) / lhs_se
    else:
        z = math.inf if lhs > 1.0 else (-math.inf if lhs < 1.0 else 0.0)
    return LgReport(
        estimates=ordered,
        lhs=lhs,
        lhs_std_error=lhs_se,
        bound=1.0,
        violated=bool(z > significance),
        z_score=z,
        significance=significance,
        degenerate=degenerate,
        se_method=se_method,
        config_echo={
            "significance": significance,
            "bootstrap_seed": BOOTSTRAP_SEED,
            "n_resamples": BOOTSTRAP_RESAMPLES,
        },
    )


def quantum_lhs(theta_ab: float, theta_bc: float) -> float:
    """Closed-form LHS for coplanar directions: theta_ac = theta_ab + theta_bc."""
    return abs(math.cos(2.0 * theta_ab) - math.cos(2.0 * (theta_ab + theta_bc))) + math.cos(
        2.0 * theta_bc
    )


# angle pairs where the closed-form LHS attains its global maximum of 1.5
VIOLATION_ARGMAX_ORBIT = (
    (math.pi / 6, math.pi / 6),
    (2 * math.pi / 3, math.pi / 6),
    (math.pi / 3, 5 * math.pi / 6),
    (5 * math.pi / 6, 5 * math.pi / 6),
)


def maximize_violation(
    grid_step: float = math.pi / 64, refine_tolerance: float = 1e-9
) -> tuple[float, float, float]:
    """Locate the maximal quantum violation of the inequality.

    Coarse grid over [0, pi)^2 followed by coordinate descent with interval
    halving until the step drops below refine_tolerance. Returns
    (theta_ab, theta_bc, lhs_max); the maximum is 1.5, reached at
    theta_ab = theta_bc = pi/6 and its symmetry-equivalent points.
    """
    _real(grid_step, "grid step", 0, math.pi / 64, above=True)
    _real(refine_tolerance, "refine tolerance", 0, above=True)

    axis = np.arange(0.0, math.pi, grid_step)
    a_grid, b_grid = np.meshgrid(axis, axis, indexing="ij")
    values = np.abs(np.cos(2 * a_grid) - np.cos(2 * (a_grid + b_grid))) + np.cos(2 * b_grid)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    best_a, best_b = float(axis[i]), float(axis[j])
    best = quantum_lhs(best_a, best_b)

    step = grid_step
    while step > refine_tolerance:
        improved = False
        for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand_a = (best_a + da) % math.pi
            cand_b = (best_b + db) % math.pi
            value = quantum_lhs(cand_a, cand_b)
            if value > best:
                best, best_a, best_b = value, cand_a, cand_b
                improved = True
        if not improved:
            step /= 2.0
    return best_a, best_b, best


@dataclass(frozen=True)
class PairStabilization:
    """Running-mean settling data for one pair."""

    pair: PairChoice
    n: int
    final_mean: Optional[float]
    n_star: Optional[int]
    stabilized: bool
    checkpoints: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class StabilizationReport:
    """Per-pair smallest sample size beyond which running means stay settled."""

    epsilon: float
    checkpoint_stride: int
    pairs: tuple[PairStabilization, PairStabilization, PairStabilization]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "checkpoint_stride": self.checkpoint_stride,
            "pairs": {
                p.pair.value: {
                    "n": p.n,
                    "final_mean": p.final_mean,
                    "n_star": p.n_star,
                    "stabilized": p.stabilized,
                    # the (count, mean) tuples themselves: JSON writes a tuple
                    # as an array, and a long run has many checkpoints
                    "checkpoints": p.checkpoints,
                }
                for p in self.pairs
            },
        }


_NO_COUNTS, _NO_MEANS = np.zeros(0, np.int64), np.zeros(0)
# LogFold.add finds the marks of a chunk of at least _PACKED_ROWS trials, at
# a stride of at least _PACKED_STRIDE, in packed words; shorter chunks and
# denser strides take np.compress, which costs less there
_PACKED_ROWS, _PACKED_STRIDE = 1 << 14, 256
# a column of the pair codes, which broadcasts one chunk's codes to its three masks
_PAIR_CODES = np.arange(3, dtype=np.uint8)[:, None]
# _THROUGH_BIT[k] has bits 0 to k set
_THROUGH_BIT = ~np.uint64(0) >> np.arange(63, -1, -1, dtype=np.uint64)


class LogFold:
    """The estimators' state, folded one chunk of trials at a time.

    counts[code] is (trials whose outcomes differ, trials whose outcomes
    agree) for each pair so far, and every chunk is counted the same way. A
    checkpoint stride only adds marks: as each chunk passes them, the running
    mean of a pair at each of its stride-th trials, from exact integer
    counts. Chunks must arrive in trial order; folding a log as one chunk
    gives the same numbers as folding its chunks.
    """

    def __init__(self, checkpoint_stride: Optional[int] = None):
        if checkpoint_stride is not None:
            checkpoint_stride = _integer(checkpoint_stride, "checkpoint_stride", 1)
        self.checkpoint_stride = checkpoint_stride
        self.counts = [[0, 0], [0, 0], [0, 0]]
        # per pair: the checkpoints' trial counts and running means, each
        # starting empty and growing by one array per chunk
        self._marks = [([_NO_COUNTS], [_NO_MEANS]) for _ in range(3)]

    @classmethod
    def over(cls, chunks: Iterable[TrialLog], checkpoint_stride: Optional[int] = None) -> "LogFold":
        """The fold of a stream of chunks."""
        fold = cls(checkpoint_stride)
        for chunk in chunks:
            fold.add(chunk)
        return fold

    def add(self, chunk: TrialLog) -> "LogFold":
        """Fold one chunk in. A pair code or outcome the trial-log writers
        refuse is refused in their words before anything is folded."""
        _check_chunk(chunk)
        rows, stride = len(chunk), self.checkpoint_stride
        packed = stride is not None and stride >= _PACKED_STRIDE and rows >= _PACKED_ROWS
        # rows: the three pair masks, then whether the outcomes agree; packed,
        # each row runs on to a whole number of 64-trial words
        flags = np.empty((4, -(-rows // 64) * 64 if packed else rows), dtype=bool)
        np.equal(chunk.pair_codes, _PAIR_CODES, out=flags[:3, :rows])
        same = np.equal(chunk.s_first, chunk.s_second, out=flags[3, :rows])
        in_pair = list(flags[:3, :rows])
        n_pair = [int(np.count_nonzero(mask)) for mask in in_pair]
        if packed:
            self._checkpoint_packed(flags, rows, n_pair)
        elif stride is not None:
            for code, mask in enumerate(in_pair):
                # several times faster than same[mask]
                self._checkpoint(code, np.compress(mask, same))
        # the third pair's agreements are the chunk's less the other two pairs'
        n_same = [int(np.count_nonzero(np.logical_and(mask, same, out=mask))) for mask in in_pair[:2]]
        n_same.append(int(np.count_nonzero(same)) - sum(n_same))
        for counts, n, agree in zip(self.counts, n_pair, n_same):
            counts[0] += n - agree
            counts[1] += agree
        return self

    def _checkpoint(self, code: int, pair_same: np.ndarray) -> None:
        """Record the marks that fall among pair_same, the pair's
        outcomes-agree flags in this chunk, before the chunk is counted."""
        stride = self.checkpoint_stride
        # where the pair's stride multiples fall in this chunk
        at = np.arange(stride - 1 - sum(self.counts[code]) % stride, len(pair_same), stride)
        if len(at):
            # agreements up to each checkpoint: the sums of the segments that
            # end at the checkpoints, then a cumsum over one sum per checkpoint
            starts = at - (stride - 1)
            starts[0] = 0
            self._mark(code, at, np.add.reduceat(pair_same[: at[-1] + 1], starts, dtype=np.int64).cumsum())

    def _checkpoint_packed(self, flags: np.ndarray, rows: int, n_pair: list[int]) -> None:
        """Record the marks of all three pairs in this chunk, as _checkpoint
        does, by rank and select over flags packed 64 trials to a word
        (Jacobson, FOCS 1989), before the chunk is counted. flags are add's
        rows for the chunk's trials, run on to whole words, and n_pair counts
        each pair's trials."""
        stride = self.checkpoint_stride
        # where each pair's stride multiples fall among its trials in this chunk
        ats = [np.arange(stride - 1 - sum(counts) % stride, k, stride) for counts, k in zip(self.counts, n_pair)]
        if not any(len(at) for at in ats):
            return
        flags[:, rows:] = False
        # bit k of word w in a row is trial 64 * w + k
        words = np.packbits(flags, axis=1, bitorder="little").view("<u8")
        pair_words, agree_words = words[:3].ravel(), (words[:3] & words[3]).ravel()
        # rank: the pair trials in each word and through it, the three rows end to end
        in_word = np.bitwise_count(pair_words)
        through = np.cumsum(in_word, dtype=np.int64)
        ranks = np.concatenate([at + offset for at, offset in zip(ats, (0, n_pair[0], n_pair[0] + n_pair[1]))])
        hit = np.searchsorted(through, ranks, side="right")
        nth = ranks - (through[hit] - in_word[hit])
        # select: the nth set bit of each mark's word, among just those words' bits
        set_bits = np.flatnonzero(np.unpackbits(pair_words[hit].view(np.uint8), bitorder="little"))
        bit = set_bits[np.cumsum(in_word[hit], dtype=np.int64) - in_word[hit] + nth] % 64
        # agreements in the pair's row before each mark's word, then through its bit
        agree_in_word = np.bitwise_count(agree_words).reshape(3, -1)
        agree_before_word = (np.cumsum(agree_in_word, axis=1, dtype=np.int64) - agree_in_word).ravel()
        running = agree_before_word[hit] + np.bitwise_count(agree_words[hit] & _THROUGH_BIT[bit])
        ends = np.cumsum([len(at) for at in ats])
        for code, at in enumerate(ats):
            if len(at):
                self._mark(code, at, running[ends[code] - len(at) : ends[code]])

    def _mark(self, code: int, at: np.ndarray, running: np.ndarray) -> None:
        """Append the pair's marks at its at-th trials in this chunk, before
        the chunk is counted; running[i] counts its agreements in this chunk
        up to and including trial at[i]."""
        n_before, agree_before = sum(self.counts[code]), self.counts[code][1]
        counts, means = self._marks[code]
        counts.append(at + (n_before + 1))
        # the running product sum after k samples is 2 * (agreements so far) - k,
        # an exact integer, so the division matches a float cumsum's bit for bit
        means.append((2 * (running + agree_before) - counts[-1]) / counts[-1])

    def estimates(self) -> tuple[PairEstimate, PairEstimate, PairEstimate]:
        return estimates_from_counts(self.counts)

    def stabilization(self, epsilon: float = DEFAULT_EPSILON) -> StabilizationReport:
        """The settling report of stabilization() for the trials folded so far."""
        _real(epsilon, "epsilon", 0, above=True)
        if self.checkpoint_stride is None:
            raise ValueError("stabilization needs a fold with a checkpoint stride")
        reports = []
        for pair, (n_diff, n_same), (counts, means) in zip(PAIR_ORDER, self.counts, self._marks):
            n = n_diff + n_same
            if n == 0:
                reports.append(
                    PairStabilization(pair=pair, n=0, final_mean=None, n_star=None, stabilized=False, checkpoints=())
                )
                continue
            counts, means = np.concatenate(counts), np.concatenate(means)
            # the final sample is a checkpoint too; (n_same - n_diff) / n is the
            # same float as a mean at a stride multiple, and deviates by 0
            final_mean = (n_same - n_diff) / n
            checkpoints = list(zip(counts.tolist(), means.tolist()))
            if not checkpoints or checkpoints[-1][0] != n:
                checkpoints.append((n, final_mean))
            # suffix max: checkpoint k qualifies iff nothing at or after k deviates
            settled = np.maximum.accumulate(np.abs(means - final_mean)[::-1])[::-1] <= epsilon
            qualifying = np.flatnonzero(settled)
            n_star = int(counts[qualifying[0]]) if len(qualifying) else n
            reports.append(
                PairStabilization(
                    pair=pair,
                    n=n,
                    final_mean=final_mean,
                    n_star=n_star,
                    stabilized=True,
                    checkpoints=tuple(checkpoints),
                )
            )
        return StabilizationReport(epsilon=epsilon, checkpoint_stride=self.checkpoint_stride, pairs=tuple(reports))


def stabilization(
    log: TrialLog,
    epsilon: float = DEFAULT_EPSILON,
    checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE,
) -> StabilizationReport:
    """How fast do the pair estimates settle?

    For each pair, running product means are recorded at every stride-th
    sample (plus the final sample); n_star is the smallest checkpoint from
    which every later checkpoint stays within epsilon of the final mean. An
    empty pair is flagged not-stabilized with no n_star.
    """
    _real(epsilon, "epsilon", 0, above=True)
    return LogFold.over(log.chunks(), checkpoint_stride).stabilization(epsilon)
