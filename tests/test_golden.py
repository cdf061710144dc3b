"""The README's CLI lines, run through ``cli.main``, print their golden stdout.

Each ``ramsums ...`` line of the README's CLI block has a file under
``tests/golden/`` holding the exact bytes it writes to stdout.  After an
intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ramsums import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def readme_lines() -> list[tuple[str, list[str]]]:
    """(golden file name, argv) for each line of the README's CLI block."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    argvs = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.startswith("ramsums ")]
    return [(f"{i:02d}_{argv[0]}.out", argv) for i, argv in enumerate(argvs, 1)]


def run_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", readme_lines(), ids=[n for n, _ in readme_lines()])
def test_readme_line_matches_golden(name, argv):
    code, out = run_main(argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in readme_lines():
        code, out = run_main(argv)
        if code:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out.encode("utf-8"))
        print(name)
