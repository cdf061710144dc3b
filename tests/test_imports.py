"""What each command imports: the package exports its names lazily, and
numpy, the csum layer and the suites load only where a command uses them."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsums

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter and prints which of the optional modules are
# loaded after each step.
_PROBE = """
import json, sys
from ramsums import cli

loaded = {}

def step(name):
    optional = ("numpy", "ramsums.arith", "ramsums.checks", "ramsums.csums")
    loaded[name] = [m for m in optional if m in sys.modules]

cli.build_parser()
step("parser")
cli.main(["count", "--instance", "z", "--x", "1e7", "--scan", "--out", sys.argv[1]])
step("count z")
cli.make_instance("q:-23")
step("q:-23")
cli.main(["count", "--instance", "q:-1", "--x", "1e7", "--scan", "--out", sys.argv[1]])
step("count q:-1")
cli.main(["invariants", "--instance", "q:-23", "--out", sys.argv[1]])
step("invariants q:-23")
cli.main(["count", "--instance", "q:-1000003", "--x", "1e7", "--out", sys.argv[1]])
step("count q:-1000003")
print(json.dumps(loaded))
"""


def test_commands_load_only_what_they_use(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "out.csv")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == {
        "parser": [],
        "count z": [],
        "q:-23": [],
        "count q:-1": [],
        "invariants q:-23": [],
        "count q:-1000003": ["numpy"],
    }


def test_every_export_is_its_submodule_attribute():
    assert len(ramsums._EXPORTS) == 60
    for name, module in ramsums._EXPORTS.items():
        assert getattr(ramsums, name) is getattr(importlib.import_module(f"ramsums.{module}"), name)
    assert set(ramsums._EXPORTS) <= set(dir(ramsums))
    with pytest.raises(AttributeError, match="no_such_name"):
        ramsums.no_such_name  # noqa: B018

