"""Command-line front end.

Commands:
  run       execute a configured experiment, write the CSV trial log and the
            JSON report
  exact     closed-form pair correlations and inequality LHS for two angles
  bound     exhaustive + randomized certification of the classical bound
  optimize  search the quantum prediction for the maximal violation
  analyze   re-run the estimation/inference stage on an existing trial log

Exit codes: 0 success, 1 configuration/usage errors, 2 freedom-of-choice
refusal. All randomness flows from the config's master seed; reports and logs
are byte-identical across repeated invocations.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .analysis import (
    DEFAULT_CHECKPOINT_STRIDE,
    DEFAULT_EPSILON,
    DEFAULT_SIGNIFICANCE,
    AnalysisError,
    LogFold,
    evaluate_lg,
    maximize_violation,
    quantum_lhs,
)
from .experiment import (
    FreedomOfChoiceError,
    QuantumWorld,
    SlotBinding,
    SpacetimeEvent,
    run_chunks,
    spacelike_separated,
)
from .hidden_vars import RotorModel, TableModel, World, conspiracy_from_quantum
from .jsonutil import dump_stable
from .quantum import Direction, sequential_correlation_exact
from .rng import MASK64, _integer, _real
from .triallog import TrialLogFormatError, TrialLogWriter, fold_trial_log, write_trial_log

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FOC = 2

# how many random mixtures `lglab bound` checks against the bound
BOUND_MIXTURES = 10_000

# the largest angle whose double, which the closed form takes the cosine of, is finite
_HALF_MAX = sys.float_info.max / 2

DEFAULT_TIMES = (1.0, 2.0, 3.0)
DEFAULT_GEOMETRY = {
    "preparation": {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0},
    "choice": {"t": 0.0, "x": 1.0, "y": 0.0, "z": 0.0},
}


class ConfigError(ValueError):
    """A run configuration is malformed; the message names the field."""


@dataclass
class RunConfig:
    binding: SlotBinding
    world: World
    n_trials: int
    master_seed: int
    geometry: tuple[SpacetimeEvent, SpacetimeEvent]
    significance: float
    epsilon: float
    checkpoint_stride: int
    override_foc: bool
    echo: dict


def _require_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required field {key!r}")


def _read(rule, value, name: str, *bounds, **options):
    """rule(value, name, *bounds, **options), for rng's _integer or _real,
    with its refusal raised as a ConfigError of the same text."""
    try:
        return rule(value, name, *bounds, **options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _finite(value, field: str) -> float:
    """value as a float, if it is a JSON number that a finite float holds."""
    return float(_read(_real, value, field))


def _number(obj: dict, path: str, key: str, default=None) -> float:
    return _finite(obj.get(key, default), f"{path}.{key}")


def _parse_angles(obj: dict) -> tuple[Direction, Direction, Direction]:
    if not isinstance(obj, dict):
        raise ConfigError("angles: expected a JSON object")
    if "theta_ab" in obj or "theta_bc" in obj:
        _require_keys(obj, "angles", ("theta_ab", "theta_bc"))
        theta_ab = _number(obj, "angles", "theta_ab")
        theta_bc = _number(obj, "angles", "theta_bc")
        _read(_real, theta_ab + theta_bc, "angles: theta_ab + theta_bc")
        # coplanar convention: a at 0, c beyond b, so theta_ac = theta_ab + theta_bc
        return Direction(0.0), Direction(theta_ab), Direction(theta_ab + theta_bc)
    _require_keys(obj, "angles", ("a", "b", "c"))
    return (
        Direction(_number(obj, "angles", "a")),
        Direction(_number(obj, "angles", "b")),
        Direction(_number(obj, "angles", "c")),
    )


def _parse_event(obj: dict, path: str) -> SpacetimeEvent:
    _require_keys(obj, path, ("t", "x", "y", "z"))
    return SpacetimeEvent(
        t=_number(obj, path, "t"),
        x=_number(obj, path, "x"),
        y=_number(obj, path, "y"),
        z=_number(obj, path, "z"),
    )


def _parse_world(obj: dict, binding: SlotBinding, initial_state: Optional[dict]) -> World:
    _require_keys(obj, "world", ("kind",), ("rows", "strength"))
    kind = obj["kind"]
    if kind not in ("quantum", "table", "rotor", "conspiracy"):
        raise ConfigError(f"world.kind: expected quantum|table|rotor|conspiracy, got {kind!r}")
    # each payload field belongs to one world
    if "rows" in obj and kind != "table":
        raise ConfigError("world.rows: only meaningful for the table world")
    if "strength" in obj and kind != "conspiracy":
        raise ConfigError("world.strength: only meaningful for the conspiracy world")
    if kind == "quantum":
        policy, angle = "fixed", 0.0
        if initial_state is not None:
            _require_keys(initial_state, "initial_state", ("policy",), ("angle",))
            policy = initial_state["policy"]
            if policy not in ("fixed", "fresh_uniform"):
                raise ConfigError(f"initial_state.policy: expected fixed or fresh_uniform, got {policy!r}")
            if policy == "fixed":
                angle = _number(initial_state, "initial_state", "angle", 0.0)
            elif "angle" in initial_state:
                raise ConfigError("initial_state.angle: not allowed with the fresh_uniform policy")
        return QuantumWorld(policy=policy, initial_angle=angle)
    if initial_state is not None:
        raise ConfigError("initial_state: only meaningful for the quantum world")
    if kind == "rotor":
        return RotorModel(binding.directions)
    if kind == "table":
        if "rows" not in obj:
            raise ConfigError("world.rows: required for the table world")
        rows = obj["rows"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("world.rows: expected a non-empty list of [weight, s1, s2, s3] rows")
        parsed = []
        for k, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 4:
                raise ConfigError(f"world.rows[{k}]: expected [weight, s1, s2, s3]")
            parsed.append((row[0], (row[1], row[2], row[3])))
        try:
            return TableModel(parsed)
        except ValueError as exc:
            raise ConfigError(f"world.rows: {exc}") from None
    strength = _number(obj, "world", "strength", 1.0)
    try:
        return conspiracy_from_quantum(binding.a, binding.b, binding.c, strength=strength)
    except ValueError as exc:
        raise ConfigError(f"world.strength: {exc}") from None


def load_run_config(path) -> RunConfig:
    """Load and validate a JSON run configuration; unknown fields are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require_keys(
        raw,
        "config",
        ("angles", "world", "n_trials", "master_seed"),
        (
            "schema",
            "times",
            "geometry",
            "initial_state",
            "significance",
            "epsilon",
            "checkpoint_stride",
            "override_foc",
        ),
    )
    schema = _read(_integer, raw.get("schema", SCHEMA_VERSION), "schema", 0)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: this build reads schema {SCHEMA_VERSION}, got {schema!r}")

    a, b, c = _parse_angles(raw["angles"])

    times = raw.get("times", list(DEFAULT_TIMES))
    if not isinstance(times, list) or len(times) != 3:
        raise ConfigError("times: expected [t1, t2, t3]")
    t1, t2, t3 = (_finite(v, f"times[{k}]") for k, v in enumerate(times))
    try:
        binding = SlotBinding(t1=t1, t2=t2, t3=t3, a=a, b=b, c=c)
    except ValueError as exc:
        raise ConfigError(f"times: {exc}") from None

    # trial indexes run to n_trials - 1, which must fit in 64 bits
    n_trials = _read(_integer, raw["n_trials"], "n_trials", 1, 1 << 64)
    master_seed = _read(_integer, raw["master_seed"], "master_seed", 0, MASK64)

    geometry_raw = raw.get("geometry", DEFAULT_GEOMETRY)
    _require_keys(geometry_raw, "geometry", ("preparation", "choice"))
    geometry = (
        _parse_event(geometry_raw["preparation"], "geometry.preparation"),
        _parse_event(geometry_raw["choice"], "geometry.choice"),
    )

    world = _parse_world(raw["world"], binding, raw.get("initial_state"))

    significance = _finite(raw.get("significance", DEFAULT_SIGNIFICANCE), "significance")
    epsilon = float(_read(_real, raw.get("epsilon", DEFAULT_EPSILON), "epsilon", 0, above=True))
    stride = _read(_integer, raw.get("checkpoint_stride", DEFAULT_CHECKPOINT_STRIDE), "checkpoint_stride", 1)
    override_foc = raw.get("override_foc", False)
    if not isinstance(override_foc, bool):
        raise ConfigError(f"override_foc: expected true or false, got {override_foc!r}")

    return RunConfig(
        binding=binding,
        world=world,
        n_trials=n_trials,
        master_seed=master_seed,
        geometry=geometry,
        significance=significance,
        epsilon=epsilon,
        checkpoint_stride=stride,
        override_foc=override_foc,
        echo=raw,
    )


def _analysis_sections(fold: LogFold, significance: float, epsilon: float) -> dict:
    lg = evaluate_lg(fold.estimates(), significance)
    stab = fold.stabilization(epsilon)
    return {"lg_report": lg.to_json_dict(), "stabilization_report": stab.to_json_dict()}


def cmd_run(config_path, report_path, trials_path) -> int:
    config = load_run_config(config_path)
    chunks = run_chunks(
        config.binding,
        config.world,
        config.n_trials,
        config.master_seed,
        config.geometry,
        override_foc=config.override_foc,
    )
    fold = LogFold(config.checkpoint_stride)
    try:
        # sample -> fold -> encode -> write, one chunk at a time; del frees
        # the writer's cell matrix before the report is built
        with open(trials_path, "wb") as out:
            writer = TrialLogWriter(out)
            for chunk in chunks:
                fold.add(chunk)
                write_trial_log(chunk, writer)
            del writer
    except OSError as exc:
        raise ConfigError(f"cannot write --trials file: {exc}") from None
    report = {
        "schema": SCHEMA_VERSION,
        "config": config.echo,
        "freedom_of_choice": {
            "spacelike": spacelike_separated(*config.geometry),
            "override": config.override_foc,
        },
    }
    report.update(_analysis_sections(fold, config.significance, config.epsilon))
    try:
        with open(report_path, "w", encoding="utf-8", newline="\n") as out:
            dump_stable(report, out)
    except OSError as exc:
        raise ConfigError(f"cannot write --report file: {exc}") from None
    lhs = report["lg_report"]["lhs"]
    violated = report["lg_report"]["violated"]
    print(f"wrote {trials_path} ({config.n_trials} trials) and {report_path}")
    print(f"lhs = {lhs:.6f} (bound 1), violated = {violated}")
    return EXIT_OK


def cmd_exact(theta_ab: float, theta_bc: float) -> int:
    # the closed-form LHS takes cos(2 * angle) of both angles and of their sum
    angles = (("--theta-ab", theta_ab), ("--theta-bc", theta_bc), ("--theta-ab + --theta-bc", theta_ab + theta_bc))
    for flag, value in angles:
        _read(_real, value, flag, -_HALF_MAX, _HALF_MAX)
    a, b, c = Direction(0.0), Direction(theta_ab), Direction(theta_ab + theta_bc)
    out = {
        "schema": SCHEMA_VERSION,
        "theta_ab": theta_ab,
        "theta_bc": theta_bc,
        "theta_ac": theta_ab + theta_bc,
        "cosines": {
            "p_ab": sequential_correlation_exact(a, b),
            "p_ac": sequential_correlation_exact(a, c),
            "p_bc": sequential_correlation_exact(b, c),
        },
        "lhs": quantum_lhs(theta_ab, theta_bc),
    }
    dump_stable(out, sys.stdout)
    return EXIT_OK


def cmd_bound() -> int:
    from .hidden_vars import brute_force_bound, deterministic_strategy_values, mixture_bound_check
    from .rng import SeededGenerator

    strategies = [
        {"responses": list(triple), "value": value}
        for triple, value in deterministic_strategy_values()
    ]
    # the mixture check is statistical plumbing; its seed is pinned so the
    # command's output never varies
    max_lhs = mixture_bound_check(BOUND_MIXTURES, SeededGenerator(0))
    out = {
        "schema": SCHEMA_VERSION,
        "bound": brute_force_bound(),
        "strategies": strategies,
        "mixture_check": {
            "n_mixtures": BOUND_MIXTURES,
            "max_lhs": max_lhs,
            "tolerance": 1e-12,
            "within_bound": bool(max_lhs <= 1.0 + 1e-12),
        },
    }
    dump_stable(out, sys.stdout)
    return EXIT_OK


def cmd_optimize(grid_step: float, tolerance: float) -> int:
    _read(_real, tolerance, "--tol", 0, above=True)
    try:
        theta_ab, theta_bc, lhs_max = maximize_violation(grid_step, tolerance)
    except ValueError as exc:  # --tol passed above, so it concerns the grid step
        raise ConfigError(f"--grid-step: {exc}") from None
    out = {
        "schema": SCHEMA_VERSION,
        "grid_step": grid_step,
        "refine_tolerance": tolerance,
        "theta_ab": theta_ab,
        "theta_bc": theta_bc,
        "lhs_max": lhs_max,
    }
    dump_stable(out, sys.stdout)
    return EXIT_OK


def cmd_analyze(trials_path, significance: float, epsilon: float, checkpoint_stride: int) -> int:
    _read(_real, significance, "--significance")
    _read(_real, epsilon, "--epsilon", 0, above=True)
    _read(_integer, checkpoint_stride, "--checkpoint-stride", 1)
    try:
        fold = fold_trial_log(trials_path, lambda chunks: LogFold.over(chunks, checkpoint_stride))
    except OSError as exc:
        raise ConfigError(f"cannot read trial log: {exc}") from None
    dump_stable({"schema": SCHEMA_VERSION, **_analysis_sections(fold, significance, epsilon)}, sys.stdout)
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers, so "-1e-3" or
        # "-inf" would read as an unknown option rather than a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)

    # argparse exits with code 2 on usage errors; 2 is reserved for the
    # freedom-of-choice refusal, so route usage errors to exit 1 instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lglab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--report", required=True, help="output JSON report path")
    p_run.add_argument("--trials", required=True, help="output CSV trial log path")

    p_exact = sub.add_parser("exact", help="closed-form correlations and LHS")
    p_exact.add_argument("--theta-ab", type=float, required=True, help="angle a-b in radians")
    p_exact.add_argument("--theta-bc", type=float, required=True, help="angle b-c in radians")

    sub.add_parser("bound", help="certify the classical bound")

    p_opt = sub.add_parser("optimize", help="maximize the quantum violation")
    p_opt.add_argument("--grid-step", type=float, default=math.pi / 64, help="coarse grid step in radians")
    p_opt.add_argument("--tol", type=float, default=1e-9, help="refinement stopping step")

    p_an = sub.add_parser("analyze", help="analyze an existing trial log")
    p_an.add_argument("--trials", required=True, help="CSV trial log path")
    p_an.add_argument("--significance", type=float, default=DEFAULT_SIGNIFICANCE, help="z threshold for violation")
    p_an.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="stabilization tolerance")
    p_an.add_argument(
        "--checkpoint-stride",
        type=int,
        default=DEFAULT_CHECKPOINT_STRIDE,
        help="stabilization checkpoint every this many trials of a pair (the run config's checkpoint_stride)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args.config, args.report, args.trials)
        if args.command == "exact":
            return cmd_exact(args.theta_ab, args.theta_bc)
        if args.command == "bound":
            return cmd_bound()
        if args.command == "optimize":
            return cmd_optimize(args.grid_step, args.tol)
        if args.command == "analyze":
            return cmd_analyze(args.trials, args.significance, args.epsilon, args.checkpoint_stride)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, AnalysisError, TrialLogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FreedomOfChoiceError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_FOC


def main_entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
