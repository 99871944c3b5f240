"""The traced layer suite: times each lglab layer from outside.

Every call into a public function of the seven modules (plus the private
pair selector, which is 62 of the 157 ms of a 10^6-trial quantum run) sits
in a span. Per-layer metrics are medians of the spans' self times, at 10^6
trials or lanes unless a name says otherwise. Two ops mirror `lglab run`
and `lglab analyze` call for call, so the coverage share shows how much of
each command's time the layers account for.
"""
from __future__ import annotations

import random
import statistics
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from lglab import analysis, cli, experiment, hidden_vars, jsonutil, rng
from lglab.experiment import QuantumWorld

from bench import run_child, sha256_file
from workloads import BINDING, BUNDLED_CONFIG, GEOMETRY, KINK_TABLE, OFF_KINK_TABLE, PINS, Context, guard

N = 1_000_000
REPS = 5
KINK_RUNS = 200
ORACLE_TRIALS = 20_000
SUITE_SEED = 20130916

PER_LAYER = [
    ("rng.derive_states_ms", "ms"),
    ("rng.uniforms_ms", "ms"),
    ("experiment.select_pairs_ms", "ms"),
    ("experiment.run_experiment.quantum_fixed_ms", "ms"),
    ("experiment.run_experiment.quantum_fresh_ms", "ms"),
    ("experiment.run_experiment.table_ms", "ms"),
    ("experiment.run_experiment.rotor_ms", "ms"),
    ("experiment.run_experiment.conspiracy_ms", "ms"),
    ("experiment.run_experiment.shard2_ms", "ms"),
    ("experiment.run_experiment_peak_mb", "MB"),
    ("experiment.write_trial_log_ms", "ms"),
    ("experiment.csv_bytes", "count"),
    ("experiment.read_trial_log_ms", "ms"),
    ("experiment.read_trial_log_peak_mb", "MB"),
    ("hidden_vars.sample_pair_batch.table_ms", "ms"),
    ("hidden_vars.sample_pair_batch.rotor_ms", "ms"),
    ("hidden_vars.sample_pair_batch.conspiracy_ms", "ms"),
    ("hidden_vars.mixture_bound_check_ms", "ms"),
    ("analysis.estimate_pairs_ms", "ms"),
    ("analysis.stabilization_ms", "ms"),
    ("analysis.evaluate_lg.propagation_ms", "ms"),
    ("analysis.evaluate_lg.bootstrap_ms", "ms"),
    ("analysis.bootstrap_share", "share"),
    ("jsonutil.dumps_stable_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("quantum.oracle_trials_per_s", "1/s"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.coverage_run_share", "share"),
    ("trace.coverage_analyze_share", "share"),
]

_IMPORT_PROBE = "import time; t = time.perf_counter(); import lglab.cli; print(time.perf_counter() - t)"


def _states(n: int = N) -> np.ndarray:
    return rng.derive_states(SUITE_SEED, np.arange(n, dtype=np.uint64))


def _mirror_run(ctx: Context, op: int, csv: Path, report_path: Path) -> dict:
    """`lglab run` on the bundled config, one span per layer call."""
    tr = ctx.tracer
    with tr.span("cli.load_run_config", op):
        config = cli.load_run_config(BUNDLED_CONFIG)
    with tr.span("experiment.run_experiment.quantum_fixed", op):
        log = experiment.run_experiment(
            config.binding, config.world, config.n_trials, config.master_seed, config.geometry
        )
    with tr.span("experiment.write_trial_log", op):
        experiment.write_trial_log(log, csv)
    report = {
        "schema": cli.SCHEMA_VERSION,
        "config": config.echo,
        "freedom_of_choice": {"spacelike": experiment.spacelike_separated(*config.geometry), "override": False},
    }
    report.update(_analysis_sections(ctx, op, log, config.significance, config.epsilon))
    with tr.span("jsonutil.dumps_stable", op):
        text = jsonutil.dumps_stable(report)
    with tr.span("cli.write_report", op):
        report_path.write_text(text, encoding="utf-8", newline="\n")
    return report


def _mirror_analyze(ctx: Context, op: int, csv: Path) -> None:
    """`lglab analyze` on the CSV the mirror run wrote."""
    with ctx.tracer.span("experiment.read_trial_log", op):
        log = experiment.read_trial_log(csv)
    out = {"schema": cli.SCHEMA_VERSION}
    out.update(_analysis_sections(ctx, op, log, analysis.DEFAULT_SIGNIFICANCE, analysis.DEFAULT_EPSILON))
    with ctx.tracer.span("jsonutil.dumps_stable", op):
        jsonutil.dumps_stable(out)


def _analysis_sections(ctx: Context, op: int, log, significance: float, epsilon: float) -> dict:
    tr = ctx.tracer
    with tr.span("analysis.estimate_pairs", op):
        estimates = analysis.estimate_pairs(log)
    with tr.span("analysis.evaluate_lg", op) as span:
        lg = analysis.evaluate_lg(estimates, significance)
    span.name += "." + lg.se_method
    with tr.span("analysis.stabilization", op):
        stab = analysis.stabilization(log, epsilon, analysis.DEFAULT_CHECKPOINT_STRIDE)
    return {"lg_report": lg.to_json_dict(), "stabilization_report": stab.to_json_dict()}


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layer_suite(ctx: Context, setup_s: float) -> dict[str, float]:
    """Run every layer under spans; returns the per-layer metrics except the
    tracing overhead, which the caller measures on the workload's own ops."""
    tr, ledger = ctx.tracer, ctx.ledger
    values: dict[str, float] = {}

    def op(fn):
        op_id = ledger.begin()
        guard(ctx, op_id, lambda: fn(op_id))

    def rng_layers(o):
        idx = np.arange(N, dtype=np.uint64)
        for _ in range(REPS):
            with tr.span("rng.derive_states", o):
                states = rng.derive_states(SUITE_SEED, idx)
            with tr.span("rng.uniforms", o):
                rng.uniforms(states)
            states = _states()
            with tr.span("experiment.select_pairs", o):
                experiment._select_pairs_batch(states)

    def engine_layers(o):
        worlds = {
            "quantum_fixed": QuantumWorld(),
            "quantum_fresh": QuantumWorld(policy="fresh_uniform"),
            "table": OFF_KINK_TABLE,
            "rotor": hidden_vars.RotorModel(BINDING.directions),
            "conspiracy": hidden_vars.conspiracy_from_quantum(BINDING.a, BINDING.b, BINDING.c),
        }
        for _ in range(3):
            for name, world in worlds.items():
                with tr.span(f"experiment.run_experiment.{name}", o):
                    experiment.run_experiment(BINDING, world, N, SUITE_SEED, GEOMETRY)
            with tr.span("experiment.run_experiment.shard2", o):
                experiment.run_experiment(BINDING, worlds["quantum_fixed"], N, SUITE_SEED, GEOMETRY, n_shards=2)
        pair = (hidden_vars.TimeSlot.T1, hidden_vars.TimeSlot.T2)
        for _ in range(REPS):
            for name in ("table", "rotor", "conspiracy"):
                states = _states()
                with tr.span(f"hidden_vars.sample_pair_batch.{name}", o):
                    worlds[name].sample_pair_batch(pair, states)
        values["experiment.run_experiment_peak_mb"] = _peak_mb(
            lambda: experiment.run_experiment(BINDING, worlds["quantum_fixed"], N, SUITE_SEED, GEOMETRY)
        )

    csv, report_path = ctx.work_dir / "mirror.csv", ctx.work_dir / "mirror.json"
    # Mirror ops are paced like the commands they mirror, so coverage
    # compares like with like on a host whose speed drifts.
    mirror_ops: dict[str, list[tuple[int, float]]] = {"run": [], "analyze": []}
    reports: list[dict] = []

    def paced_op(name, fn):
        def body(o):
            ctx.pace.factor()
            try:
                fn(o)
            finally:
                mirror_ops[name].append((o, ctx.pace.factor()))

        return body

    def mirror(o):
        reports.append(_mirror_run(ctx, o, csv, report_path))
        for path, key in ((csv, "trials_csv_sha256"), (report_path, "report_json_sha256")):
            if sha256_file(path) != PINS[key]:
                ledger.fail(o, f"mirrored lglab run: {path.name} differs from the pinned bytes")
        values["experiment.csv_bytes"] = csv.stat().st_size

    def mirror_analyze(o):
        _mirror_analyze(ctx, o, csv)

    def kink_layers(o):
        seeds = random.Random(SUITE_SEED)
        methods = []
        for _ in range(KINK_RUNS):
            log = experiment.run_experiment(BINDING, KINK_TABLE, 10_000, seeds.getrandbits(64), GEOMETRY)
            estimates = analysis.estimate_pairs(log)
            with tr.span("analysis.evaluate_lg", o) as span:
                lg = analysis.evaluate_lg(estimates)
            span.name += "." + lg.se_method
            methods.append(lg.se_method)
        values["analysis.bootstrap_share"] = methods.count("bootstrap") / len(methods)

    def misc_layers(o):
        for _ in range(REPS):
            with tr.span("jsonutil.dumps_stable", o):
                jsonutil.dumps_stable(reports[-1])
        for _ in range(2):
            with tr.span("hidden_vars.mixture_bound_check", o):
                hidden_vars.mixture_bound_check(10_000, rng.SeededGenerator(0))
        with tr.span("quantum.oracle", o) as span:
            for i in range(ORACLE_TRIALS):
                experiment.run_trial_scalar(BINDING, QuantumWorld(), i, SUITE_SEED)
        values["quantum.oracle_trials_per_s"] = ORACLE_TRIALS / span.duration
        values["experiment.read_trial_log_peak_mb"] = _peak_mb(lambda: experiment.read_trial_log(csv))
        probe = [sys.executable, "-c", _IMPORT_PROBE]
        out, err = ctx.work_dir / "probe.out", ctx.work_dir / "probe.err"
        samples = []
        for _ in range(REPS):
            res = run_child(probe, out, err)
            if res.returncode != 0:
                raise RuntimeError(f"import probe failed: {res.stderr.decode(errors='replace')[-300:]}")
            samples.append(float(res.stdout) * 1000.0)
        values["cli.import_ms"] = statistics.median(samples)

    op(rng_layers)
    op(engine_layers)
    for _ in range(2):
        op(paced_op("run", mirror))
        op(paced_op("analyze", mirror_analyze))
    op(kink_layers)
    op(misc_layers)

    self_times = tr.self_times()
    by_name: dict[str, list[float]] = {}
    by_op: dict[int, float] = {}
    for s, t in zip(tr.spans, self_times):
        by_name.setdefault(s.name, []).append(t)
        by_op[s.op] = by_op.get(s.op, 0.0) + t
    for name, unit in PER_LAYER:
        if unit == "ms" and name[: -len("_ms")] in by_name:
            values[name] = statistics.median(by_name[name[: -len("_ms")]]) * 1000.0

    # Coverage: the share of each untraced command, less interpreter set-up,
    # that the mirrored layer calls account for; all times paced.
    def coverage(o):
        commands = {
            "run": ["run", "--config", str(BUNDLED_CONFIG), "--report", str(report_path), "--trials", str(csv)],
            "analyze": ["analyze", "--trials", str(csv)],
        }
        for name, args in commands.items():
            command_s = []
            ctx.pace.factor()
            for _ in range(2):
                res = run_child(ctx.cli_prefix + args, ctx.work_dir / "cover.out", ctx.work_dir / "cover.err")
                if res.returncode != 0:
                    raise RuntimeError(f"lglab {name} exited {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}")
                command_s.append(res.wall_s * ctx.pace.factor())
            layer_s = statistics.median(by_op.get(m, 0.0) * f for m, f in mirror_ops[name])
            values[f"trace.coverage_{name}_share"] = layer_s / (statistics.median(command_s) - setup_s)

    op(coverage)
    return values
