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

#: Standard-library modules that the count path never runs: each costs
#: start-up (``dataclasses`` pulls in ``inspect``, ``fractions`` pulls in
#: ``decimal``), and of the probed commands only ``invariants`` writes JSON.
_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "json")

# Runs in a fresh interpreter and prints which of the optional modules, and
# of the standard-library modules named after its output path, are loaded
# after each step; it loads json itself only after the last step.
_PROBE = """
import sys
from ramsums import cli

loaded = {}

def step(name):
    optional = ("numpy", "numpy.ma", "ramsums.arith", "ramsums.checks", "ramsums.csums",
                *sys.argv[2:])
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
cli.main(["check", "--suite", "all", "--instance", "z", "--bound", "60", "--out", sys.argv[1]])
step("check all")
cli.main(["sxy", "--instance", "z", "--x", "1e4", "--y", "20", "--scan", "--out", sys.argv[1]])
step("sxy")
cli.main(["table", "--instance", "z", "--x", "300", "--y", "100", "--out", sys.argv[1]])
step("table")
cli.main(["residue", "--instance", "z", "--k", "12", "--direct", "--x", "1e4", "--out", sys.argv[1]])
step("residue direct")
import json
print(json.dumps(loaded))
"""


def test_commands_load_only_what_they_use(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def python(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", *argv], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    # what a bare interpreter here already loads (a site hook, say) is no command's doing
    bare = python(f"import sys; print(*(m for m in {_STDLIB!r} if m in sys.modules))").split()
    loaded = json.loads(python(_PROBE, str(tmp_path / "out.csv"), *_STDLIB))
    assert {name: [m for m in mods if m not in _STDLIB] for name, mods in loaded.items()} == {
        "parser": [],
        "count z": [],
        "q:-23": [],
        "count q:-1": [],
        "invariants q:-23": [],
        "count q:-1000003": ["numpy"],
        # numpy.ma, which a bare np.unique(a) imports, costs 8-15 ms a process
        "check all": ["numpy", "ramsums.arith", "ramsums.checks", "ramsums.csums"],
        "sxy": ["numpy", "ramsums.arith", "ramsums.checks", "ramsums.csums"],
        "table": ["numpy", "ramsums.arith", "ramsums.checks", "ramsums.csums"],
        "residue direct": ["numpy", "ramsums.arith", "ramsums.checks", "ramsums.csums"],
    }
    stdlib = {name: [m for m in mods if m in _STDLIB and m not in bare]
              for name, mods in list(loaded.items())[:5]}  # numpy loads inspect itself
    assert stdlib == {
        "parser": [],
        "count z": [],
        "q:-23": [],
        "count q:-1": [],
        "invariants q:-23": ["json"],
    }


def test_every_export_is_its_submodule_attribute():
    assert len(ramsums._EXPORTS) == 60
    for name, module in ramsums._EXPORTS.items():
        assert getattr(ramsums, name) is getattr(importlib.import_module(f"ramsums.{module}"), name)
    assert set(ramsums._EXPORTS) <= set(dir(ramsums))
    with pytest.raises(AttributeError, match="no_such_name"):
        ramsums.no_such_name  # noqa: B018

