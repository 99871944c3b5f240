"""Each lglab module imports first, before any other, in a fresh interpreter.

`import lglab` runs the package's imports in one fixed order, which can hide
an import cycle between two modules; so each module here is imported with
the package registered but its __init__ not run.
"""
import subprocess
import sys
from pathlib import Path

import pytest

import lglab
from lglab import experiment, triallog

IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("lglab")
package.__path__ = [sys.argv[1]]
sys.modules["lglab"] = package
importlib.import_module(sys.argv[2])
"""


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
