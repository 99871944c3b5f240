"""The three benchmark workloads and their correctness gates.

Each workload runs its ops until `seconds` of timed work have passed (or
`max_rounds` rounds, for the traced comparison), then checks every output
outside the timed region. An op is one CLI command, one world's pipeline or
one sweep run; it fails if it exits non-zero, raises, or fails a check.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from lglab import analysis, experiment, hidden_vars
from lglab.quantum import Direction

from bench import ROOT, Pace, Tracer, run_child, sha256_file, timing_summary

PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))
BUNDLED_CONFIG = ROOT / PINS["config"]

BINDING = experiment.SlotBinding(
    t1=1.0, t2=2.0, t3=3.0, a=Direction(0.0), b=Direction(math.pi / 6), c=Direction(math.pi / 3)
)
GEOMETRY = (experiment.SpacetimeEvent(0.0, 0.0, 0.0, 0.0), experiment.SpacetimeEvent(0.0, 1.0, 0.0, 0.0))
# E12 = 1, E13 = E23 = 0: LHS is exactly 1, away from the |.| kink.
OFF_KINK_TABLE = hidden_vars.TableModel([(0.5, (1, 1, 1)), (0.5, (1, 1, -1))])
# E12 = E13 = 0, E23 = 1: LHS is exactly 1, on the |.| kink.
KINK_TABLE = hidden_vars.TableModel([(0.5, (1, 1, 1)), (0.5, (1, -1, -1))])

# A classical world fails only beyond 5 sigma: its 3-sigma verdict is
# wrong on 0.135% of seeds by design, which a gate must not count.
GATE_SIGMAS = 5.0
# Kink-sweep false violations are tested against Binomial(runs, p) at this
# tail probability. With E23 = 1 exactly, a violation needs |P12 - P13| > 3
# of its propagated errors: P(|Z| > 3) = 0.27%. Five seeds of 3000 runs
# gave 0.17% to 0.27% at this commit.
KINK_FALSE_VIOLATION_RATE = 0.0027
KINK_TAIL_PROBABILITY = 1e-6
# The median bootstrap standard error must match the run-to-run standard
# deviation of LHS within this ratio range (1.00 to 1.13 over five seeds at
# this commit), checked once the sweep has this many runs.
BOOTSTRAP_SE_RATIO = (0.75, 1.5)
BOOTSTRAP_CHECK_MIN_RUNS = 100
# Sweep runs last about 3 ms, so the pace is read once per block of runs.
# About half the runs take the 1 ms bootstrap branch, so the run times are
# bimodal and their median jumps between the modes from seed to seed; the
# sweep's op latency is therefore the median over blocks of the block mean.
KINK_PACE_BLOCK = 200


@dataclass(frozen=True)
class Scale:
    """Problem sizes; the self-test shrinks them."""

    cli_trials: Optional[int] = None  # None: the bundled config's 10^6
    engine_trials: int = 4_000_000
    kink_trials: int = 10_000


FULL = Scale()


@dataclass
class Ledger:
    """Ops attempted and the reasons each failed op failed."""

    attempted: int = 0
    failures: dict[int, list[str]] = field(default_factory=dict)

    def begin(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Context:
    seed: int
    work_dir: Path
    ledger: Ledger
    tracer: Tracer
    seconds: float = 20.0
    max_rounds: Optional[int] = None
    scale: Scale = FULL
    # How a CLI command is started; the self-test swaps in a broken build.
    cli_prefix: list[str] = field(default_factory=lambda: [sys.executable, "-m", "lglab.cli"])
    pace: Pace = field(default_factory=Pace)

    def more(self, rounds_done: int, wall_s: float) -> bool:
        if self.max_rounds is not None:
            return rounds_done < self.max_rounds
        return rounds_done == 0 or wall_s < self.seconds


@dataclass
class WorkloadRun:
    op_s: float  # median paced latency of the workload's unit of work
    paced_s: float  # paced time of all timed rounds
    wall_s: float  # wall time of all timed rounds
    trials_per_s: float  # total trials over total paced time
    peak_rss_mb: float
    details: dict  # the workload's own named metrics


def guard(ctx: Context, op: int, fn: Callable):
    """Run one op body; an exception fails the op instead of the run."""
    try:
        return fn()
    except Exception:  # the boundary that must keep running: record and go on
        ctx.ledger.fail(op, traceback.format_exc(limit=4))
        return None


def _self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_oracle(log, world, master_seed: int, indexes) -> list[str]:
    """run_experiment must equal run_trial_scalar at the sampled indexes."""
    bad = []
    for i in indexes:
        ref = experiment.run_trial_scalar(BINDING, world, int(i), master_seed)
        got = log[int(i)]
        if (got.pair, got.s_first, got.s_second, got.lambda_id) != (
            ref.pair,
            ref.s_first,
            ref.s_second,
            ref.lambda_id,
        ):
            bad.append(f"trial {i}: engine {got} != oracle {ref}")
    return bad


def _sample_indexes(n: int, rng: random.Random, edge: int, inner: int) -> list[int]:
    picks = set(range(min(edge, n))) | set(range(max(0, n - edge), n))
    picks |= {rng.randrange(n) for _ in range(inner)}
    return sorted(picks)


def _check_verdict(lg: dict, quantum_like: bool) -> list[str]:
    """Check an `lg_report` as `LgReport.to_json_dict` or the report has it."""
    lhs, se = lg["lhs"], lg["lhs_std_error"]
    if quantum_like:
        if not lg["violated"] or abs(lhs - 1.5) > GATE_SIGMAS * se:
            return [f"expected a violation with LHS 1.5 +- {GATE_SIGMAS} se, got {lhs} +- {se}"]
    elif lg["z_score"] > GATE_SIGMAS:
        return [f"classical world violates the bound at z = {lg['z_score']}"]
    return []


def _log_digest(log, lg, stab) -> str:
    h = hashlib.sha256()
    for column in (log.pair_codes, log.s_first, log.s_second, log.lambda_ids):
        if column is not None:
            h.update(np.ascontiguousarray(column).tobytes())
    h.update(json.dumps([lg.to_json_dict(), stab.to_json_dict()]).encode())
    return h.hexdigest()


def _pipeline(ctx: Context, op: int, world, n_trials: int, master_seed: int):
    """run_experiment -> estimate_pairs -> evaluate_lg -> stabilization."""
    tr = ctx.tracer
    with tr.span("experiment.run_experiment", op):
        log = experiment.run_experiment(BINDING, world, n_trials, master_seed, GEOMETRY)
    with tr.span("analysis.estimate_pairs", op):
        estimates = analysis.estimate_pairs(log)
    with tr.span("analysis.evaluate_lg", op) as span:
        lg = analysis.evaluate_lg(estimates)
    if span is not None:
        span.name += "." + lg.se_method
    with tr.span("analysis.stabilization", op):
        stab = analysis.stabilization(log)
    return log, lg, stab


# -- cli_roundtrip -------------------------------------------------------------


def _tokens(raw: bytes):
    """Parse JSON keeping every number as its printed digits."""
    return json.loads(raw, parse_float=str, parse_int=str, parse_constant=str)


def _check_run(csv_path: Path, report_path: Path, config_path: Path, rng: random.Random) -> list[str]:
    """Sampled CSV rows equal the scalar oracle; the quantum run violates."""
    from lglab.cli import load_run_config

    config = load_run_config(config_path)
    lines = csv_path.read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    n = len(lines) - 1
    if n != config.n_trials:
        return [f"CSV has {n} trials, config asks for {config.n_trials}"]
    bad = []
    for i in _sample_indexes(n, rng, edge=5, inner=20):
        ref = experiment.run_trial_scalar(config.binding, config.world, i, config.master_seed)
        want = f"{i},{ref.pair.value},{ref.s_first},{ref.s_second},,{ref.model_tag}".encode()
        if lines[i + 1] != want:
            bad.append(f"CSV line {i + 2}: {lines[i + 1]!r} != oracle {want!r}")
    return bad + _check_verdict(json.loads(report_path.read_bytes())["lg_report"], quantum_like=True)


def _check_analyze(report_path: Path, analyze_out: Path) -> list[str]:
    """analyze must print the run report's sections, number for number."""
    ran = _tokens(report_path.read_bytes())
    analyzed = _tokens(analyze_out.read_bytes())
    return [
        f"{section} differs from the run report"
        for section in ("lg_report", "stabilization_report")
        if ran.get(section) is None or ran.get(section) != analyzed.get(section)
    ]


def _check_bound(bound_out: Path) -> list[str]:
    bound = json.loads(bound_out.read_bytes())
    if bound["bound"] != 1.0 or not bound["mixture_check"]["within_bound"]:
        return [f"classical bound not certified: {bound['mixture_check']}"]
    return []


def _cli(ctx: Context, op: int, name: str, args: list[str]):
    out, err = ctx.work_dir / f"{name}.out", ctx.work_dir / f"{name}.err"
    with ctx.tracer.span(f"cli.{name}", op):
        res = run_child(ctx.cli_prefix + args, out, err)
    if res.returncode != 0:
        ctx.ledger.fail(op, f"lglab {name} exited {res.returncode}: {res.stderr.decode(errors='replace')[-500:]}")
    return res


def _pinned_run(ctx: Context) -> None:
    """The bundled config must still give the pinned CSV and report bytes."""
    op = ctx.ledger.begin()
    csv, report = ctx.work_dir / "pinned.csv", ctx.work_dir / "pinned.json"
    args = ["run", "--config", str(BUNDLED_CONFIG), "--report", str(report), "--trials", str(csv)]
    res = _cli(ctx, op, "pinned_run", args)
    if res.returncode != 0:
        return
    for path, key in ((csv, "trials_csv_sha256"), (report, "report_json_sha256")):
        got = sha256_file(path)
        if got != PINS[key]:
            ctx.ledger.fail(op, f"{path.name}: sha256 {got} != pinned {PINS[key]}")


def cli_roundtrip(ctx: Context) -> WorkloadRun:
    """A user's session: `lglab run`, `lglab analyze` on its CSV, `lglab bound`."""
    config = json.loads(BUNDLED_CONFIG.read_text(encoding="utf-8"))
    config["master_seed"] = ctx.seed % (1 << 64)
    if ctx.scale.cli_trials is not None:
        config["n_trials"] = ctx.scale.cli_trials
    config_path = ctx.work_dir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    csv, report = ctx.work_dir / "trials.csv", ctx.work_dir / "report.json"
    commands = (
        ("run", ["run", "--config", str(config_path), "--report", str(report), "--trials", str(csv)]),
        ("analyze", ["analyze", "--trials", str(csv)]),
        ("bound", ["bound"]),
    )

    walls: dict[str, list[float]] = {name: [] for name, _ in commands}
    paced: dict[str, list[float]] = {name: [] for name, _ in commands}
    peak = 0.0
    first: dict[str, str] = {}  # digest of each command's output in its first good session
    first_ops: dict[str, int] = {}
    rounds_s: list[float] = []
    while ctx.more(len(rounds_s), sum(sum(v) for v in walls.values())):
        session_s = 0.0
        for name, args in commands:
            op = ctx.ledger.begin()
            res = _cli(ctx, op, name, args)
            walls[name].append(res.wall_s)
            paced[name].append(res.wall_s * ctx.pace.factor())
            session_s += paced[name][-1]
            peak = max(peak, res.peak_rss_mb)
            if res.returncode != 0:
                continue
            if name == "run":
                digest = sha256_file(csv) + sha256_file(report)
            else:
                digest = hashlib.sha256(res.stdout).hexdigest()
            first.setdefault(name, digest)
            first_ops.setdefault(name, op)
            if digest != first[name]:
                ctx.ledger.fail(op, f"lglab {name}: output bytes differ from the first session on the same seed")
        rounds_s.append(session_s)

    # Every session wrote identical bytes, so checking the last one's files
    # checks them all.
    checks = {
        "run": lambda: _check_run(csv, report, config_path, random.Random(ctx.seed)),
        "analyze": lambda: _check_analyze(report, ctx.work_dir / "analyze.out"),
        "bound": lambda: _check_bound(ctx.work_dir / "bound.out"),
    }
    for name, op in first_ops.items():
        for reason in guard(ctx, op, checks[name]) or []:
            ctx.ledger.fail(op, f"lglab {name}: {reason}")
    _pinned_run(ctx)

    details = {}
    for name, _ in commands:
        details[f"{name}_s"] = timing_summary(paced[name])
        details[f"{name}_wall_s"] = timing_summary(walls[name])
    return WorkloadRun(
        op_s=statistics.median(rounds_s),
        paced_s=sum(rounds_s),
        wall_s=sum(sum(v) for v in walls.values()),
        trials_per_s=config["n_trials"] * len(paced["run"]) / sum(paced["run"]),
        peak_rss_mb=peak,
        details=details,
    )


# -- engine_worlds -------------------------------------------------------------


def engine_worlds_models() -> list[tuple[str, object, bool]]:
    """(name, world, expect a violation) for the four worlds."""
    return [
        ("quantum_fresh", experiment.QuantumWorld(policy="fresh_uniform"), True),
        ("table_off_kink", OFF_KINK_TABLE, False),
        ("rotor", hidden_vars.RotorModel(BINDING.directions), False),
        ("conspiracy", hidden_vars.conspiracy_from_quantum(BINDING.a, BINDING.b, BINDING.c), True),
    ]


def engine_worlds(ctx: Context) -> WorkloadRun:
    """The in-process pipeline on each of four worlds, no file I/O."""
    n = ctx.scale.engine_trials
    rng = random.Random(ctx.seed)
    worlds = [(name, world, quantum_like, rng.getrandbits(64)) for name, world, quantum_like in engine_worlds_models()]

    # Warm-up: one untimed call per world, checked against the oracle.
    reference: dict[str, str] = {}
    for name, world, quantum_like, master_seed in worlds:
        op = ctx.ledger.begin()
        out = guard(ctx, op, lambda: _pipeline(ctx, op, world, n, master_seed))
        if out is None:
            continue
        log, lg, stab = out
        bad = _check_oracle(log, world, master_seed, _sample_indexes(n, rng, edge=5, inner=10))
        for reason in bad + _check_verdict(lg.to_json_dict(), quantum_like):
            ctx.ledger.fail(op, f"{name}: {reason}")
        reference[name] = _log_digest(log, lg, stab)
        del log, out

    rounds_s: list[float] = []
    walls: list[float] = []
    ctx.pace.factor()  # start the first block's pace after the warm-up
    while ctx.more(len(rounds_s), sum(walls)):
        round_s = round_wall = 0.0
        for name, world, _, master_seed in worlds:
            op = ctx.ledger.begin()
            t0 = time.perf_counter()
            out = guard(ctx, op, lambda: _pipeline(ctx, op, world, n, master_seed))
            wall = time.perf_counter() - t0
            round_wall += wall
            round_s += wall * ctx.pace.factor()
            if out is not None and _log_digest(*out) != reference.get(name):
                ctx.ledger.fail(op, f"{name}: output differs from the warm-up call on the same seed")
            del out
        rounds_s.append(round_s)
        walls.append(round_wall)

    trials_per_s = len(worlds) * n * len(rounds_s) / sum(rounds_s)
    return WorkloadRun(
        op_s=statistics.median(rounds_s),
        paced_s=sum(rounds_s),
        wall_s=sum(walls),
        trials_per_s=trials_per_s,
        peak_rss_mb=_self_peak_mb(),
        details={
            "trials_per_s": trials_per_s,
            "round_s": timing_summary(rounds_s),
            "round_wall_s": timing_summary(walls),
        },
    )


# -- kink_sweep ----------------------------------------------------------------


def binomial_upper_limit(n: int, p: float, tail: float) -> int:
    """Smallest k with P(Binomial(n, p) > k) <= tail."""
    pmf = (1.0 - p) ** n
    cdf = pmf
    k = 0
    while 1.0 - cdf > tail and k < n:
        k += 1
        pmf *= (n - k + 1) / k * p / (1.0 - p)
        cdf += pmf
    return k


def kink_sweep(ctx: Context) -> WorkloadRun:
    """Many small runs of the bound-saturating table, each on its own seed."""
    n = ctx.scale.kink_trials
    rng = random.Random(ctx.seed)
    run_s: list[float] = []  # paced
    walls: list[float] = []
    block_means: list[float] = []

    def pace_block():
        factor = ctx.pace.factor()
        block = [w * factor for w in walls[len(run_s) :]]
        run_s.extend(block)
        block_means.append(statistics.fmean(block))

    ctx.pace.factor()
    # Only what the gates need, so memory does not grow with the run count.
    first: list[tuple[str, int]] = []  # digest and seed of the first runs
    lhs: list[float] = []
    violations: list[int] = []  # ops
    bootstrap: list[tuple[int, float]] = []  # op, lhs_std_error
    while ctx.more(len(walls), sum(walls)):
        master_seed = rng.getrandbits(64)
        op = ctx.ledger.begin()
        t0 = time.perf_counter()
        out = guard(ctx, op, lambda: _pipeline(ctx, op, KINK_TABLE, n, master_seed))
        walls.append(time.perf_counter() - t0)
        if len(walls) % KINK_PACE_BLOCK == 0:
            pace_block()
        if out is None:
            continue
        log, lg, stab = out
        for reason in _check_oracle(log, KINK_TABLE, master_seed, (0, n - 1, rng.randrange(n))):
            ctx.ledger.fail(op, reason)
        if len(first) < 5:
            first.append((_log_digest(log, lg, stab), master_seed))
        lhs.append(lg.lhs)
        if lg.violated:
            violations.append(op)
        if lg.se_method == "bootstrap":
            bootstrap.append((op, lg.lhs_std_error))

    if len(run_s) < len(walls):
        pace_block()

    # The first runs again on the same seeds must give identical bytes.
    for digest, master_seed in first:
        op = ctx.ledger.begin()
        again = guard(ctx, op, lambda: _pipeline(ctx, op, KINK_TABLE, n, master_seed))
        if again is not None and _log_digest(*again) != digest:
            ctx.ledger.fail(op, "repeated run on the same seed gave different bytes")

    limit = binomial_upper_limit(len(lhs), KINK_FALSE_VIOLATION_RATE, KINK_TAIL_PROBABILITY)
    if len(violations) > limit:
        for op in violations:
            ctx.ledger.fail(op, f"{len(violations)} false violations in {len(lhs)} runs exceed the limit {limit}")
    se_ratio = None
    if len(lhs) >= BOOTSTRAP_CHECK_MIN_RUNS and bootstrap:
        se_ratio = statistics.median(se for _, se in bootstrap) / statistics.stdev(lhs)
        if not BOOTSTRAP_SE_RATIO[0] <= se_ratio <= BOOTSTRAP_SE_RATIO[1]:
            for op, _ in bootstrap:
                ctx.ledger.fail(op, f"bootstrap se / LHS spread = {se_ratio:.3f}, outside {BOOTSTRAP_SE_RATIO}")

    timed = sum(run_s)
    details = {
        "runs_per_s": len(run_s) / timed,
        "run_ms": timing_summary(run_s, 1000.0),
        "run_wall_ms": timing_summary(walls, 1000.0),
        "false_violations": len(violations),
        "false_violation_limit": limit,
        "bootstrap_share": len(bootstrap) / max(1, len(lhs)),
        "bootstrap_se_ratio": se_ratio,
    }
    return WorkloadRun(
        op_s=statistics.median(block_means),
        paced_s=timed,
        wall_s=sum(walls),
        trials_per_s=len(run_s) * n / timed,
        peak_rss_mb=_self_peak_mb(),
        details=details,
    )


WORKLOADS = {"cli_roundtrip": cli_roundtrip, "engine_worlds": engine_worlds, "kink_sweep": kink_sweep}
# Rounds timed each way when a traced run measures the tracing overhead.
TRACE_ROUNDS = {"cli_roundtrip": 1, "engine_worlds": 1, "kink_sweep": 300}
