"""Self-test of the benchmark: smoke-size runs pass, broken layers fail.

    python3 -m pytest -q -p no:cacheprovider perfbench

A broken layer must show up as a failed op, never as a faster run.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from bench import Tracer  # noqa: E402
from lglab import analysis, experiment  # noqa: E402
from workloads import Context, Ledger, Scale  # noqa: E402

SMOKE = Scale(cli_trials=20_000, engine_trials=50_000, kink_trials=10_000)
SMOKE_ROUNDS = {"cli_roundtrip": 2, "engine_worlds": 2, "kink_sweep": 150}

# Started in place of `python -m lglab.cli`: a writer that flips one outcome
# in the file while the in-memory log, and so the run report, stays right.
FLIPPING_WRITER = """
import lglab.cli as cli
from lglab.experiment import TrialLog

real = cli.write_trial_log

def flipped(trials, path):
    s_first = trials.s_first.copy()
    s_first[len(s_first) // 2] *= -1
    real(TrialLog(trials.pair_codes, s_first, trials.s_second, trials.lambda_ids, trials.model_tag), path)

cli.write_trial_log = flipped
cli.main_entry()
"""


def _context(tmp_path, name, tracer=None, **kw) -> Context:
    return Context(
        seed=5,
        work_dir=tmp_path,
        ledger=Ledger(),
        tracer=tracer or Tracer(enabled=False),
        max_rounds=SMOKE_ROUNDS[name],
        scale=SMOKE,
        **kw,
    )


@pytest.mark.parametrize("name", sorted(SMOKE_ROUNDS))
def test_smoke_run_has_no_failed_ops(tmp_path, name):
    ctx = _context(tmp_path, name)
    run = workloads.WORKLOADS[name](ctx)
    assert ctx.ledger.failures == {}
    assert ctx.ledger.attempted >= SMOKE_ROUNDS[name]
    assert run.op_s > 0 and run.trials_per_s > 0 and run.peak_rss_mb > 0
    assert run.paced_s >= run.op_s


def test_traced_ops_record_layer_spans(tmp_path):
    tracer = Tracer(enabled=True)
    ctx = _context(tmp_path, "kink_sweep", tracer=tracer)
    workloads.kink_sweep(ctx)
    names = {s.name for s in tracer.spans}
    assert {"experiment.run_experiment", "analysis.estimate_pairs", "analysis.stabilization"} <= names
    assert names & {"analysis.evaluate_lg.bootstrap", "analysis.evaluate_lg.propagation"}
    assert all(s.end >= s.start and s.op >= 1 for s in tracer.spans)
    assert all(t >= 0.0 for t in tracer.self_times())


def test_flipped_outcome_in_csv_fails_ops(tmp_path):
    shim = tmp_path / "flipping_writer.py"
    shim.write_text(FLIPPING_WRITER, encoding="utf-8")
    ctx = _context(tmp_path, "cli_roundtrip", cli_prefix=[sys.executable, str(shim)])
    workloads.cli_roundtrip(ctx)
    reasons = " ".join(r for rs in ctx.ledger.failures.values() for r in rs)
    assert ctx.ledger.failed > 0
    assert "differs from the run report" in reasons
    assert "differs from the pinned" in reasons or "!= pinned" in reasons


def test_halved_bootstrap_error_fails_ops(tmp_path, monkeypatch):
    real = analysis._bootstrap_lhs_std_error
    monkeypatch.setattr(analysis, "_bootstrap_lhs_std_error", lambda *a, **kw: real(*a, **kw) / 2)
    ctx = _context(tmp_path, "kink_sweep")
    workloads.kink_sweep(ctx)
    assert ctx.ledger.failed > 0


def test_engine_that_flips_the_last_outcome_fails_ops(tmp_path, monkeypatch):
    real = experiment.run_experiment

    def flipped(*args, **kw):
        log = real(*args, **kw)
        log.s_second[-1] *= -1
        return log

    monkeypatch.setattr(experiment, "run_experiment", flipped)
    ctx = _context(tmp_path, "engine_worlds")
    workloads.engine_worlds(ctx)
    assert ctx.ledger.failed >= 4  # each world's warm-up call


def test_without_the_source_tree_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kink_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    for line in res.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_binomial_limit():
    assert workloads.binomial_upper_limit(1000, 0.0, 1e-6) == 0
    # P(Binomial(1000, 0.0027) > k) <= 1e-6 first holds at k = 13 (scipy.stats.binom.isf agrees).
    assert workloads.binomial_upper_limit(1000, 0.0027, 1e-6) == 13
