"""perfbench's tracer still wraps every function it names in freealg."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACER_RUNNER = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:]
import spans
from freealg import albert27, cli
tracer = spans.Tracer("test")
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", "assym", "lietriple(t1,t2,t3)", "--mode", "plus"]) == 0
albert27.sample_report("jor(t1,t2)", 1, 2)
print(json.dumps(tracer.layer_metrics()))
"""


def test_tracer_installs_and_records():
    # in a fresh interpreter: install() replaces freealg functions for good
    rc = subprocess.run([sys.executable, "-c", TRACER_RUNNER, os.path.join(ROOT, "src"),
                         os.path.join(ROOT, "perfbench")],
                        capture_output=True, text=True, cwd=ROOT)
    assert rc.returncode == 0, rc.stderr
    metrics = json.loads(rc.stdout)
    assert metrics["lang.expand_s"] > 0
    assert metrics["albert27.samples"] == 2
