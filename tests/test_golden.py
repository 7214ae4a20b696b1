"""Byte-for-byte report stability across code changes.

The JSON reports of the CLI for the acceptance problems and for
`fixtures` must equal the reports checked in under tests/golden/.
Refactors keep every report byte; a change that means to alter a report
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which bytes changed and why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from reescalc.cli import main as cli_main

from test_acceptance import PROBLEMS

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(PROBLEMS) + ["fixtures"]


def _report(name, workdir):
    if name == "fixtures":
        argv = ["fixtures"]
    else:
        path = Path(workdir) / f"{name}.problem"
        path.write_text(PROBLEMS[name])
        argv = [name, str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli_main(argv)
    assert status == 0, (name, status)
    return out.getvalue()


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_text()
    assert _report(name, tmp_path) == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        for name in NAMES:
            (GOLDEN / f"{name}.json").write_text(_report(name, workdir))
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
