import hashlib
import json
import math

import pytest

from lglab import cli
from lglab.cli import EXIT_CONFIG, EXIT_FOC, EXIT_OK, load_run_config, main
from lglab.jsonutil import dumps_stable
from lglab.triallog import TRIAL_LOG_HEADER

MAGIC = 0.5235987755982988  # pi/6


def base_config(**overrides):
    cfg = {
        "schema": 1,
        "angles": {"theta_ab": MAGIC, "theta_bc": MAGIC},
        "world": {"kind": "quantum"},
        "n_trials": 30_000,
        "master_seed": 42,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)), encoding="utf-8")
    return path


def run_cli(tmp_path, config_path, report="report.json", trials="trials.csv"):
    report_path = tmp_path / report
    trials_path = tmp_path / trials
    code = main(
        ["run", "--config", str(config_path), "--report", str(report_path), "--trials", str(trials_path)]
    )
    return code, report_path, trials_path


# -- config loading ------------------------------------------------------------


def test_unknown_top_level_field_is_named(tmp_path):
    path = write_config(tmp_path, bogus=1)
    code, _, _ = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    with pytest.raises(Exception, match="bogus"):
        load_run_config(path)


def test_unknown_nested_field_is_named(tmp_path):
    path = write_config(tmp_path, angles={"theta_ab": MAGIC, "theta_bc": MAGIC, "x": 2})
    with pytest.raises(Exception, match="'x'"):
        load_run_config(path)


def test_a_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(base_config(world={"kind": "table"})).encode("latin-1") + b" \xe9\n")
    code, report, trials = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: config is not UTF-8 text: ")
    assert not report.exists() and not trials.exists()


def test_zero_trials_rejected(tmp_path):
    path = write_config(tmp_path, n_trials=0)
    code, _, _ = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG


def test_bad_world_kind_rejected(tmp_path):
    path = write_config(tmp_path, world={"kind": "magic8ball"})
    with pytest.raises(Exception, match="magic8ball"):
        load_run_config(path)


def test_explicit_direction_angles_accepted(tmp_path):
    path = write_config(tmp_path, angles={"a": 0.0, "b": MAGIC, "c": 2 * MAGIC})
    config = load_run_config(path)
    assert config.binding.b.angle == pytest.approx(MAGIC)


def test_table_world_rows_load(tmp_path):
    path = write_config(
        tmp_path, world={"kind": "table", "rows": [[0.5, 1, 1, 1], [0.5, -1, 1, -1]]}
    )
    config = load_run_config(path)
    assert config.world.tag == "table"
    code, report_path, trials_path = run_cli(tmp_path, path)
    assert code == EXIT_OK
    assert ",table" in trials_path.read_text().splitlines()[1]


def test_table_world_bad_rows_named(tmp_path):
    path = write_config(tmp_path, world={"kind": "table", "rows": [[0.5, 1, 1, 1]]})
    with pytest.raises(Exception, match="world.rows"):
        load_run_config(path)


def test_initial_state_only_for_quantum(tmp_path):
    path = write_config(
        tmp_path, world={"kind": "rotor"}, initial_state={"policy": "fixed", "angle": 0.0}
    )
    with pytest.raises(Exception, match="initial_state"):
        load_run_config(path)


_EVENT = {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}


# each refusal of load_run_config: the config's text, or overrides of
# base_config, and the field that the error names
@pytest.mark.parametrize(
    "config, field",
    [
        ("[]", "config"),
        ({"geometry": {"preparation": {"x": 0.0, "y": 0.0, "z": 0.0}, "choice": _EVENT}}, "geometry.preparation"),
        ({"angles": [MAGIC, MAGIC]}, "angles"),
        ({"world": {"kind": "quantum", "rows": []}}, "world.rows"),
        ({"world": {"kind": "quantum", "strength": 1.0}}, "world.strength"),
        ({"world": {"kind": "rotor", "strength": 1.0}}, "world.strength"),
        ({"world": {"kind": "rotor", "rows": []}}, "world.rows"),
        ({"world": {"kind": "table"}}, "world.rows"),
        ({"world": {"kind": "table", "rows": [[1.0, 1, 1, 1]], "strength": 1.0}}, "world.strength"),
        ({"world": {"kind": "table", "rows": []}}, "world.rows"),
        ({"world": {"kind": "table", "rows": [[1.0, 1, 1]]}}, "world.rows[0]"),
        ({"world": {"kind": "conspiracy", "rows": []}}, "world.rows"),
        ({"world": {"kind": "conspiracy", "strength": 2}}, "world.strength"),
        ({"initial_state": {"policy": "random"}}, "initial_state.policy"),
        ({"initial_state": {"policy": "fresh_uniform", "angle": 0.0}}, "initial_state.angle"),
        (None, "cannot read config file"),
        ("{", "config is not valid JSON"),
        ({"schema": 2}, "schema"),
        ({"schema": True}, "schema"),
        ({"schema": 1.0}, "schema"),
        ({"times": [1.0, 2.0]}, "times"),
        ({"times": [1.0, 3.0, 2.0]}, "times"),
        ({"master_seed": 1 << 64}, "master_seed"),
        ({"epsilon": 0}, "epsilon"),
        ({"checkpoint_stride": 0}, "checkpoint_stride"),
        ({"override_foc": "yes"}, "override_foc"),
    ],
    ids=[
        "top_level_list",
        "event_without_t",
        "angles_not_an_object",
        "quantum_with_rows",
        "quantum_with_strength",
        "rotor_with_strength",
        "rotor_with_rows",
        "table_without_rows",
        "table_with_strength",
        "table_with_no_rows",
        "table_row_of_three",
        "conspiracy_with_rows",
        "conspiracy_strength_2",
        "bad_policy",
        "angle_with_fresh_uniform",
        "unreadable_path",
        "invalid_json",
        "schema_2",
        "schema_true",
        "schema_float",
        "times_not_three",
        "times_not_increasing",
        "master_seed_out_of_range",
        "epsilon_0",
        "checkpoint_stride_0",
        "override_foc_not_a_bool",
    ],
)
def test_every_config_refusal_exits_1_naming_its_field(tmp_path, capsys, config, field):
    path = tmp_path / "config.json"
    if isinstance(config, str):
        path.write_text(config, encoding="utf-8")
    elif config is not None:
        path = write_config(tmp_path, **config)
    code, report, trials = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    # a wrapped refusal reads "<field>: ...", the number rule's "<field> must be ..."
    assert capsys.readouterr().err.startswith((f"error: {field}: ", f"error: {field} must be "))
    assert not report.exists() and not trials.exists()


# -- run ------------------------------------------------------------------------


def test_run_writes_log_and_report(tmp_path):
    path = write_config(tmp_path)
    code, report_path, trials_path = run_cli(tmp_path, path)
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert report["config"] == base_config()
    assert report["freedom_of_choice"] == {"spacelike": True, "override": False}
    assert report["lg_report"]["violated"] is True
    assert trials_path.read_text().splitlines()[0] == TRIAL_LOG_HEADER


def test_run_is_byte_reproducible(tmp_path):
    path = write_config(tmp_path)
    _, r1, t1 = run_cli(tmp_path, path, "r1.json", "t1.csv")
    _, r2, t2 = run_cli(tmp_path, path, "r2.json", "t2.csv")
    assert r1.read_bytes() == r2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def test_integer_significance_and_epsilon_are_written_as_floats(tmp_path):
    # the report's sections hold the numbers as read, floats; only the
    # config's echo keeps the integers it was given
    path = write_config(tmp_path, significance=3, epsilon=1)
    code, report_path, _ = run_cli(tmp_path, path)
    assert code == EXIT_OK
    text = report_path.read_text()
    report = json.loads(text)
    assert (report["config"]["significance"], report["config"]["epsilon"]) == (3, 1)
    assert repr(report["lg_report"]["significance"]) == "3.0"
    assert repr(report["stabilization_report"]["epsilon"]) == "1.0"
    assert '"significance": 3.0' in text and '"epsilon": 1.0' in text


@pytest.mark.parametrize("flag", ["--trials", "--report"])
def test_run_unwritable_output_exits_1_naming_the_flag(tmp_path, capsys, flag):
    path = write_config(tmp_path)
    missing_dir = tmp_path / "missing" / "out"
    outputs = {"--report": tmp_path / "report.json", "--trials": tmp_path / "trials.csv", flag: missing_dir}
    args = ["run", "--config", str(path)] + [str(a) for item in outputs.items() for a in item]
    assert main(args) == EXIT_CONFIG
    assert f"error: cannot write {flag} file" in capsys.readouterr().err


def test_timelike_geometry_refused_with_exit_2(tmp_path, capsys):
    geometry = {
        "preparation": {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0},
        "choice": {"t": 1.0, "x": 0.0, "y": 0.0, "z": 0.0},
    }
    path = write_config(tmp_path, geometry=geometry)
    code, _, _ = run_cli(tmp_path, path)
    assert code == EXIT_FOC
    assert "freedom of choice" in capsys.readouterr().err


def test_override_runs_and_is_recorded(tmp_path):
    geometry = {
        "preparation": {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0},
        "choice": {"t": 1.0, "x": 0.0, "y": 0.0, "z": 0.0},
    }
    path = write_config(tmp_path, geometry=geometry, override_foc=True)
    code, report_path, _ = run_cli(tmp_path, path)
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["freedom_of_choice"] == {"spacelike": False, "override": True}
    assert report["config"]["override_foc"] is True


def test_conspiracy_run_violates(tmp_path):
    path = write_config(tmp_path, world={"kind": "conspiracy"}, n_trials=100_000)
    code, report_path, _ = run_cli(tmp_path, path)
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["lg_report"]["lhs"] > 1.4
    assert report["lg_report"]["violated"] is True


# -- analyze ----------------------------------------------------------------------


@pytest.mark.parametrize("stride", [None, 500, 7])
def test_analyze_reproduces_run_report_sections(tmp_path, capsys, stride):
    # a run's checkpoint_stride is what analyze's --checkpoint-stride takes
    overrides, flags = {}, []
    if stride is not None:
        overrides, flags = {"checkpoint_stride": stride}, ["--checkpoint-stride", str(stride)]
    path = write_config(tmp_path, **overrides)
    _, report_path, trials_path = run_cli(tmp_path, path)
    capsys.readouterr()  # drop the run command's summary lines
    code = main(["analyze", "--trials", str(trials_path)] + flags)
    assert code == EXIT_OK
    analyzed = json.loads(capsys.readouterr().out)
    run_report = json.loads(report_path.read_text())
    # the analysis sections must match byte for byte once serialized
    assert dumps_stable(analyzed["lg_report"]) == dumps_stable(run_report["lg_report"])
    assert dumps_stable(analyzed["stabilization_report"]) == dumps_stable(
        run_report["stabilization_report"]
    )


def test_unexpected_value_error_is_not_reported_as_a_config_error(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["analyze", "--trials", str(tmp_path / "trials.csv")])
    assert "error:" not in capsys.readouterr().err


def test_analyze_handwritten_log(tmp_path, capsys):
    lines = [TRIAL_LOG_HEADER]
    k = 0
    for pair, products in (("12", (1, 1)), ("13", (1, -1)), ("23", (-1, -1))):
        for p in products:
            lines.append(f"{k},{pair},1,{p},,byhand")
            k += 1
    path = tmp_path / "hand.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["analyze", "--trials", str(path)])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    means = {e["pair"]: e["mean"] for e in out["lg_report"]["estimates"]}
    assert means == {"12": 1.0, "13": 0.0, "23": -1.0}


def test_analyze_four_line_log_names_missing_pair(tmp_path, capsys):
    # two pairs with two trials each: the third pair is undersampled and the
    # error must say which one
    lines = [TRIAL_LOG_HEADER, "0,12,1,1,,x", "1,12,1,1,,x", "2,13,1,-1,,x", "3,13,1,-1,,x"]
    path = tmp_path / "four.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["analyze", "--trials", str(path)])
    assert code == EXIT_CONFIG
    assert "23" in capsys.readouterr().err


def test_analyze_truncated_line_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(TRIAL_LOG_HEADER + "\n0,12,1,1,,q\n1,12,1,1\n", encoding="utf-8")
    code = main(["analyze", "--trials", str(path)])
    assert code == EXIT_CONFIG
    assert "line 3" in capsys.readouterr().err


def test_analyze_a_tag_no_writer_writes_exits_1(tmp_path, capsys):
    path = tmp_path / "nul.csv"
    path.write_bytes(f"{TRIAL_LOG_HEADER}\n0,12,1,1,,q\0\n".encode())
    code = main(["analyze", "--trials", str(path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: line 2: model tag 'q\\x00' holds")


def test_analyze_missing_file_exits_1(tmp_path):
    assert main(["analyze", "--trials", str(tmp_path / "nope.csv")]) == EXIT_CONFIG


def _handwritten_log(tmp_path):
    lines = [TRIAL_LOG_HEADER] + [f"{k},{pair},1,1,,x" for k, pair in enumerate(("12", "13", "23") * 2)]
    path = tmp_path / "hand.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_analyze_non_finite_significance_exits_1(tmp_path, capsys, value):
    path = _handwritten_log(tmp_path)
    code = main(["analyze", "--trials", str(path), "--significance", value])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--significance" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_analyze_bad_epsilon_exits_1(tmp_path, capsys, value):
    path = _handwritten_log(tmp_path)
    code = main(["analyze", "--trials", str(path), "--epsilon", value])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--epsilon" in captured.err


@pytest.mark.parametrize("value", ["0", "-1", "2.5", "1e3", "x"])
def test_analyze_bad_checkpoint_stride_exits_1_naming_the_flag(tmp_path, capsys, value):
    path = _handwritten_log(tmp_path)
    code = main(["analyze", "--trials", str(path), "--checkpoint-stride", value])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--checkpoint-stride" in captured.err


# -- exact / bound / optimize -------------------------------------------------------


def test_exact_magic_angles(capsys):
    code = main(["exact", "--theta-ab", str(MAGIC), "--theta-bc", str(MAGIC)])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["lhs"] == 1.5
    assert out["cosines"]["p_ab"] == pytest.approx(0.5, abs=1e-15)
    assert out["cosines"]["p_ac"] == pytest.approx(-0.5, abs=1e-15)


def test_exact_zero_angles(capsys):
    code = main(["exact", "--theta-ab", "0", "--theta-bc", "0"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["lhs"] == 1.0


def test_exact_hand_value(capsys):
    code = main(["exact", "--theta-ab", str(math.pi / 4), "--theta-bc", str(math.pi / 8)])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["lhs"] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_bound_output(capsys):
    code = main(["bound"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == 1.0
    assert len(out["strategies"]) == 8
    assert all(s["value"] == 1.0 for s in out["strategies"])
    assert out["mixture_check"]["max_lhs"] <= 1.0 + 1e-12
    assert out["mixture_check"]["within_bound"] is True


def test_bound_output_is_stable(capsys):
    main(["bound"])
    first = capsys.readouterr().out
    main(["bound"])
    assert capsys.readouterr().out == first


def test_bound_output_bytes_are_pinned(capsys):
    # the SHA-256 of the output of the per-model mixture loop the vectorized check replaced
    assert main(["bound"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "98c0de289ef8124e4d713663705035ad97c432be97fe442a998cebd6d99c8e0c"


def test_optimize_defaults(capsys):
    code = main(["optimize"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["lhs_max"] - 1.5) < 1e-6


def test_optimize_loose_tolerance(capsys):
    code = main(["optimize", "--tol", "1e-2"])
    assert code == EXIT_OK
    assert abs(json.loads(capsys.readouterr().out)["lhs_max"] - 1.5) < 0.02


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_optimize_bad_tolerance_exits_1(capsys, value):
    assert main(["optimize", "--tol", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --tol" in captured.err


def test_optimize_degenerate_grid_rejected(capsys):
    code = main(["optimize", "--grid-step", "-1"])
    assert code == EXIT_CONFIG
    assert "grid step" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.0", "0", "-1", "nan", "inf"])
def test_optimize_bad_grid_step_names_the_flag(capsys, value):
    assert main(["optimize", "--grid-step", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid-step: ")


def test_usage_errors_exit_1_not_2(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["run", "--config"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["exact", "--theta-ab", "0.5"]) == EXIT_CONFIG


# -- option values, table rows and angles that must be refused or accepted -----


@pytest.mark.parametrize(
    "rows, named",
    [
        ([["half", 1, 1, 1], [0.5, 1, 1, 1]], "weight"),
        ([[True, 1, 1, 1]], "weight"),
        ([[None, 1, 1, 1]], "weight"),
        ([[1, True, 1, 1]], "responses"),
        ([[1, 1, "1", 1]], "responses"),
    ],
)
def test_table_rows_with_non_numbers_or_booleans_exit_1(tmp_path, capsys, rows, named):
    path = write_config(tmp_path, world={"kind": "table", "rows": rows})
    code, _, trials_path = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    assert f"error: world.rows: row 0: {named}" in capsys.readouterr().err
    assert not trials_path.exists()


@pytest.mark.parametrize("token, value", [("-1e-3", -0.001), ("-2E+1", -20.0), ("-.5", -0.5)])
def test_negative_exponent_form_is_an_option_value(capsys, token, value):
    assert main(["exact", "--theta-ab", token, "--theta-bc", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["theta_ab"] == value
    assert f'"theta_ab": {value!r}' in out
    assert main(["exact", "--theta-ab", "0.5", "--theta-bc", token]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["theta_bc"] == value


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
def test_optimize_negative_exponent_tolerance_names_tol(capsys, value):
    assert main(["optimize", "--tol", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --tol" in captured.err


@pytest.mark.parametrize(
    "args, named",
    [
        (["--theta-ab", "nan", "--theta-bc", "0.5"], "--theta-ab"),
        (["--theta-ab", "0.5", "--theta-bc", "inf"], "--theta-bc"),
        (["--theta-ab", "0.5", "--theta-bc", "-inf"], "--theta-bc"),
        # each angle is read first, so one beyond half the float range is named
        # before the sum, which two angles within it cannot overflow
        (["--theta-ab", "1e308", "--theta-bc", "1e308"], "--theta-ab must be "),
    ],
)
def test_exact_non_finite_angles_name_the_flag(capsys, args, named):
    assert main(["exact"] + args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")


@pytest.mark.parametrize(
    "args, named",
    [
        (["--theta-ab", "1e308", "--theta-bc", "0"], "--theta-ab must be "),
        (["--theta-ab", "0", "--theta-bc", "-1e308"], "--theta-bc must be "),
        (["--theta-ab", "6e307", "--theta-bc", "6e307"], "--theta-ab + --theta-bc must be "),
    ],
)
def test_exact_angles_whose_double_overflows_name_the_flag(capsys, args, named):
    # the closed form takes cos(2 * angle), which is not finite for these
    assert main(["exact"] + args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")


def test_config_angle_sum_overflow_names_angles(tmp_path, capsys):
    path = write_config(tmp_path, angles={"theta_ab": 1e308, "theta_bc": 1e308})
    code, _, _ = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: angles: theta_ab + theta_bc")


BEYOND_FLOAT = 10**400  # a JSON integer literal no float holds


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"epsilon": BEYOND_FLOAT}, "epsilon"),
        ({"significance": -BEYOND_FLOAT}, "significance"),
        ({"times": [1.0, 2.0, BEYOND_FLOAT]}, "times[2]"),
        (
            {
                "geometry": {
                    "preparation": {"t": 0, "x": 0, "y": 0, "z": 0},
                    "choice": {"t": 0, "x": BEYOND_FLOAT, "y": 0, "z": 0},
                }
            },
            "geometry.choice.x",
        ),
        ({"angles": {"theta_ab": BEYOND_FLOAT, "theta_bc": MAGIC}}, "angles.theta_ab"),
        ({"initial_state": {"policy": "fixed", "angle": BEYOND_FLOAT}}, "initial_state.angle"),
        ({"world": {"kind": "table", "rows": [[BEYOND_FLOAT, 1, 1, 1]]}}, "world.rows: row 0: weight"),
    ],
)
def test_config_numbers_beyond_the_float_range_name_the_field(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, **overrides)
    code, _, trials_path = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}"), err
    assert "finite number" in err
    assert not trials_path.exists()


@pytest.mark.parametrize("n_trials", [2**64 + 1, 2**70])
def test_n_trials_whose_indexes_overflow_64_bits_is_named(tmp_path, capsys, n_trials):
    path = write_config(tmp_path, n_trials=n_trials)
    code, _, trials_path = run_cli(tmp_path, path)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: n_trials must be an integer in [1, 2^64], got ")
    assert not trials_path.exists()
