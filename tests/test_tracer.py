"""perfbench/tracer.py still runs against the library.

The tracer wraps library functions by name and reads some attributes of
ModuleEmbedding and SubmoduleData; a refactor that renames one of them
breaks the benchmark's per-layer metrics, which nothing else here runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import reescalc

SRC = Path(reescalc.__file__).resolve().parent.parent
TRACER = SRC.parent / "perfbench" / "tracer.py"

BINOMIAL = ("matrix {\n"
            "  row = X^2, X*Y+Y^2, Y^3, 0\n"
            "  row = 0, X^2-Y^2, X*Y, Y^2\n}\n")


def test_tracer_runs_rr_of_the_binomial_module(tmp_path):
    problem = tmp_path / "binomial.problem"
    problem.write_text(BINOMIAL)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(TRACER), "rr:binomial", str(spans_path), "rr",
         str(problem)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "rr"
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[3] for span in spans}
    assert {"rees.power_piece", "groebner.groebner_basis"} <= names
    # The tracer tells a cached basis (hit) from a computed one by looking
    # up groebner.DEFAULT_ORDER in SubmoduleData._cache.  M's basis is
    # computed once, by Buchberger, and every later call finds it cached
    # (nine at the time of writing); were the key to change, every call
    # would read as a computation and gb_hit_frac would read 0.
    kinds = [span[7][0] for span in spans
             if span[3] == "groebner.groebner_basis"]
    assert kinds.count("general") == 1
    assert kinds.count("hit") >= 1
    assert set(kinds) == {"general", "hit"}
