"""Each lglab module imports first, before any other, in a fresh interpreter.

`import lglab` runs the package's imports in one fixed order, which can hide
an import cycle between two modules; so each module here is imported with
the package registered but its __init__ not run.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import lglab
from lglab import cli, experiment, triallog

IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("lglab")
package.__path__ = [sys.argv[1]]
sys.modules["lglab"] = package
importlib.import_module(sys.argv[2])
"""


PI_MODULES = ("math", "np", "numpy")

MODULES = [
    "lglab.rng",
    "lglab.quantum",
    "lglab.hidden_vars",
    "lglab.jsonutil",
    "lglab.triallog",
    "lglab.experiment",
    "lglab.analysis",
    "lglab.cli",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_without_error(module):
    package_dir = str(Path(lglab.__file__).parent)
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_FIRST, package_dir, module], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr


def test_experiment_re_exports_the_trial_log_objects():
    assert experiment.write_trial_log is triallog.write_trial_log is lglab.write_trial_log
    assert experiment.read_trial_log is triallog.read_trial_log is lglab.read_trial_log
    assert experiment.TrialLog is triallog.TrialLog is lglab.TrialLog


def test_cli_imports_no_private_name_of_the_trial_log():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "triallog"), (0, "lglab.triallog"))
        for alias in node.names
    ]
    assert "TrialLogWriter" in names
    assert [name for name in names if name.startswith("_")] == []


def test_only_rng_holds_the_number_rule():
    # the number rule, its predicates, ranges and refusals, lives in rng.py:
    # every number argument, config field and numeric flag goes through
    # rng._integer or rng._real. Only the checks of a record, an index and a
    # table response, which are not number arguments, use a predicate
    # themselves
    predicates = {"_is_integer", "_is_finite_real"}
    predicate_users = {
        "triallog.py": {"TrialLog.from_records", "TrialLog.__getitem__"},
        "hidden_vars.py": {"TableModel.__init__"},
    }
    # the rule's words, and those of the config reader's former copy of it
    number_words = ("must be an integer", "must be a finite number", "expected an integer", "expected a finite")
    number_words += ("64-bit unsigned",)

    def refuses_a_number(node):
        if not isinstance(node, ast.Raise):
            return False
        if getattr(getattr(node.exc, "func", None), "id", None) not in ("ValueError", "ConfigError"):
            return False
        words = "".join(n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
        return any(w in words for w in number_words)

    for path in sorted(Path(lglab.__file__).parent.glob("*.py")):
        if path.name == "rng.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        imported = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
        imported += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level]
        defined = [node.name for node in nodes if isinstance(node, ast.FunctionDef) and node.name.startswith("_is_")]
        assert ("numbers" in imported, defined) == (False, []), path.name
        assert not any(map(refuses_a_number, nodes)), path.name
        # each top-level function, or method by its class, that names a predicate
        tops = [(f"{top.name}.", top.body) if isinstance(top, ast.ClassDef) else ("", [top]) for top in tree.body]
        users = {
            prefix + getattr(node, "name", type(node).__name__)
            for prefix, body in tops
            for node in body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            and any(getattr(n, "id", None) in predicates for n in ast.walk(node))
        }
        assert users == predicate_users.get(path.name, set()), path.name


def test_only_triallog_holds_the_chunk_rule():
    # the trial-log writers and the estimators' fold take a chunk's pair codes
    # and outcomes by triallog._check_chunk alone, so they refuse the same
    # chunks in the same words
    def refuses(node):
        if not (isinstance(node, ast.Raise) and getattr(getattr(node.exc, "func", None), "id", None) == "ValueError"):
            return False
        words = " ".join(n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
        return "pair code" in words or "outcome" in words

    for path in sorted(Path(lglab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def users(name):
            return {f.name for f in functions if any(getattr(n, "id", None) == name for n in ast.walk(f))}

        rule = {"_check_chunk"} if path.name == "triallog.py" else set()
        callers = {"triallog.py": {"_check_columns"}, "analysis.py": {"add"}}.get(path.name, set())
        raising = {f.name for f in functions if any(map(refuses, ast.walk(f)))}
        assert (raising, users("_check_chunk")) == (rule, callers), path.name


def test_only_the_two_stream_derivations_name_the_stream_constant():
    # a trial's stream is mix64(seed + i * STREAM_GOLDEN) in one scalar and one
    # array form, so no third derivation can drift from them
    golden = {"STREAM_GOLDEN", "_U64_GOLDEN"}
    for path in sorted(Path(lglab.__file__).parent.glob("*.py")):
        users = set()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.Assign) and {getattr(t, "id", None) for t in top.targets} <= golden:
                continue  # a definition of one of the two constants
            names = {getattr(node, "id", None) for node in ast.walk(top)}
            names |= {node.name for node in ast.walk(top) if isinstance(node, ast.alias)}
            if names & golden:
                users.add(getattr(top, "name", type(top).__name__))
        expected = {"derive_trial_generator", "derive_states"} if path.name == "rng.py" else set()
        assert users == expected, path.name


def test_only_rng_scales_a_lane_draw_by_pi():
    # a uniform angle is next_uniform() * pi in the scalar oracle and
    # rng.angles on lanes, so no kernel builds its own angle from a draw: a
    # product with pi takes a number or one scalar draw, and only rng.py
    # names numpy's pi
    def is_pi(node):
        return isinstance(node, ast.Attribute) and node.attr == "pi" and getattr(node.value, "id", None) in PI_MODULES

    def is_number_or_draw(node):
        if isinstance(node, ast.Call):
            return getattr(node.func, "attr", None) == "next_uniform" and not node.args
        try:
            return isinstance(ast.literal_eval(node), (int, float))
        except ValueError:
            return False

    def factors(node):
        """The two factors of a product, or none for any other node."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return [node.left, node.right]
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            return [node.target, node.value]
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "multiply":
            return node.args[:2]
        return []

    def scales_by_pi(node):
        if is_pi(node) and node.value.id != "math":
            return True
        pair = factors(node)
        return any(is_pi(a) and not is_number_or_draw(b) for a, b in zip(pair, pair[::-1]))

    for path in sorted(Path(lglab.__file__).parent.glob("*.py")):
        users = set()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(map(scales_by_pi, ast.walk(top))):
                users.add(getattr(top, "name", None) or ast.unparse(getattr(top, "targets", [top])[0]))
        assert users == ({"_PI_TWO_MINUS53"} if path.name == "rng.py" else set()), path.name


def test_only_the_bootstrap_names_numpy_random():
    # every draw comes from the seed through rng.py's streams; the bootstrap's
    # pinned numpy generator is the one other random source
    def random_module(name):
        return name.split(".")[0] == "random" or name.split(".")[:2] == ["numpy", "random"]

    users = set()
    for path in sorted(Path(lglab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy"):
                    names = [f"numpy.{node.attr}"]
                else:
                    continue
                if any(map(random_module, names)):
                    users.add(f"{path.stem}.{getattr(top, 'name', type(top).__name__)}")
    assert users == {"analysis._bootstrap_lhs_std_error"}


def test_only_the_engine_imports_threading():
    # run_experiment's fill of its log is the one place that runs lglab code
    # on more than one thread, so no other module can come to depend on it
    for path in sorted(Path(lglab.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {a.name.split(".")[0] for node in nodes if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module.split(".")[0] for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
        in_engine = path.name == "experiment.py"
        assert ("threading" in imported, "concurrent" in imported) == (in_engine, in_engine), path.name


def test_the_cli_does_not_import_the_thread_pool():
    # the pool's import, with the logging it pulls in, is paid by a run of
    # more than one chunk in run_experiment, never by a start of the CLI
    code = "import sys; sys.path.insert(0, sys.argv[1]); import lglab.cli; "
    code += "print(sorted({'concurrent', 'logging'} & set(sys.modules)))"
    source = str(Path(lglab.__file__).parents[1])
    res = subprocess.run([sys.executable, "-c", code, source], capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr
