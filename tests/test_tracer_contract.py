"""The benchmark's tracer finds a live entry point for every per-layer
metric it reports.

bench/tracer.py looks the package's entry points up by name and leaves out
a metric none of whose entry points exists, so a deleted or renamed
function would silently drop a metric from a traced benchmark run.  The
tracer is loaded in a fresh interpreter without writing bytecode, so the
check leaves bench/ untouched and the wrappers never reach this process.
A traced smoke run of bench/child.py checks that the wrappers leave every
report byte for byte as it is and that no metric is absent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# per-layer names that bench/run.py and bench/child.py add to the tracer's
CHILD_METRICS = {"cli.import_s", "trace.wall_s", "trace.overhead_frac",
                 "trace.unattributed_s"}


def installed_tracer():
    script = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from tracer import METRICS, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps({'absent': tracer.metrics()[1],\n"
        "                  'metrics': list(METRICS)}))\n"
        % str(ROOT / "bench"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-B", "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_per_layer_metric_has_a_live_entry_point():
    traced = installed_tracer()
    assert traced["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    assert len(names) == len(set(names))
    assert set(traced["metrics"]) | CHILD_METRICS == set(names)
    assert not set(traced["metrics"]) & CHILD_METRICS


def run_child(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-B", str(ROOT / "bench" /
                                                     "child.py")] + args,
                          env=env, capture_output=True)


@pytest.mark.parametrize("command", [
    ["verify", "--family", "PSL2", "--f", "1", "--p", "7"],
    ["clifford", "--family", "2F4", "--f", "1", "--p", "7"],
], ids=lambda c: c[0])
def test_traced_run_prints_the_untraced_report(command, tmp_path):
    trace = tmp_path / "trace.json"
    traced = run_child(["--trace-out", str(trace)] + command)
    plain = run_child(command)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(trace.read_text())["absent"] == []
