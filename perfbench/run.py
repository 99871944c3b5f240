"""lglab benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload cli_roundtrip --seed 42 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 times the same ops again with spans on (their
difference is the tracing overhead) and runs the traced layer suite for
the per-layer metrics. Spans and the full result are written to
.bench_out/ in the checkout. Exit 0 with a result line, or non-zero with
none when the lglab source tree is missing.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from bench import OUT_DIR, SRC, Pace, Tracer, environment_stamp, median, setup_samples

SETUP_REPEATS = 4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cli_roundtrip", "engine_worlds", "kink_sweep"))
    parser.add_argument("--seed", type=int, default=42, help="workload seed; 42 is the bundled config's")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lglab" / "__init__.py").is_file():
        print(f"error: no lglab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lglab
    import layers
    from workloads import TRACE_ROUNDS, WORKLOADS, Context, Ledger

    if SRC not in Path(lglab.__file__).resolve().parents:
        print(f"error: imported lglab from {lglab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ledger = Ledger()
        pace = Pace()
        # Set-up is sampled before and after the workload, so its median
        # spans the whole run.
        setup = setup_samples(work_dir, SETUP_REPEATS, pace)
        workload = WORKLOADS[args.workload]

        def context(tracer, **kw):
            return Context(seed=args.seed, work_dir=work_dir, ledger=ledger, tracer=tracer, pace=pace, **kw)

        if not args.trace:
            run = workload(context(Tracer(enabled=False), seconds=args.seconds))
            metrics = {
                "op_ms_p50": _metric(run.op_s * 1000.0, "ms"),
                "trials_per_s": _metric(run.trials_per_s, "1/s"),
                "peak_rss_mb": _metric(run.peak_rss_mb, "MB"),
            }
            details = dict(run.details, peak_rss_mb=run.peak_rss_mb)
        else:
            rounds = TRACE_ROUNDS[args.workload]
            tracer = Tracer(enabled=True)
            untraced = workload(context(Tracer(enabled=False), max_rounds=rounds))
            traced = workload(context(tracer, max_rounds=rounds))
            suite_tracer = Tracer(enabled=True)
            values = layers.layer_suite(context(suite_tracer), median(p for _, p in setup))
            values["trace.overhead_ms"] = (traced.paced_s - untraced.paced_s) * 1000.0
            values["trace.spans"] = len(tracer.spans) + len(suite_tracer.spans)
            missing = [name for name, _ in layers.PER_LAYER if name not in values]
            if missing:
                ledger.fail(ledger.begin(), f"per-layer metrics not measured: {missing}")
            metrics = {name: _metric(values[name], unit) for name, unit in layers.PER_LAYER if name in values}
            details = {
                "traced_s": traced.paced_s,
                "untraced_s": untraced.paced_s,
                "traced_wall_s": traced.wall_s,
                "untraced_wall_s": untraced.wall_s,
                "rounds": rounds,
            }
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps({"workload": tracer.to_json(), "layer_suite": suite_tracer.to_json()}), encoding="utf-8"
            )
        setup += setup_samples(work_dir, SETUP_REPEATS, pace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_s = median(p for _, p in setup)
    details.update(setup_s=setup_s, setup_wall_s=median(w for w, _ in setup))
    if not args.trace:
        metrics["setup_s"] = _metric(setup_s, "s")

    env = environment_stamp(args.seed)
    failures = {str(op): reasons for op, reasons in ledger.failures.items()}
    details.update(ops=ledger.attempted, ops_failed=ledger.failed)
    full = {"workload": args.workload, "trace": args.trace, "env": env, "details": details, "failures": failures}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2), encoding="utf-8"
    )
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "details": details}))
    for op, reasons in failures.items():
        print(f"op {op} failed: {' | '.join(reasons)}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
