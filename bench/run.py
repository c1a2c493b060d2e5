"""galmckay benchmark: cold `galmckay verify` processes, one workload per run.

    python3 bench/run.py --workload sz8 --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run measures one workload.  Its invocations run one at a time,
each in a fresh interpreter, in an order shuffled by ``--seed``; the list is
repeated, reshuffled, while at least half of one more pass fits in
``--seconds``.
Every report is checked (see ``Checker``) and the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  wall_s       wall seconds of one pass of the list: the sum over its
               invocations of each one's median launch-to-exit time over
               the passes of the run
  cpu_s        user+sys CPU seconds of one pass: the sum over the
               invocations of each one's median child CPU time
  setup_s      median wall seconds of a cold process importing galmckay.cli
  peak_rss_mb  largest maximum resident set size of any child

The three times are scaled to an undisturbed host (see ``HostSpeed``):
on a shared host, other tenants slow this machine's CPUs by up to 1.7
times for a minute or more at once, which no run of a minute can average
out.  The unscaled times are printed on the ``host speed`` line.

``--trace 1`` runs the list once untraced and once traced (bench/child.py
with bench/tracer.py installed in each process) and reports the per-layer
metrics summed over the invocations, plus ``trace.overhead_frac`` (traced
over untraced wall, minus one) and ``trace.unattributed_s`` (traced wall not
covered by any layer).  Spans are kept in ``.bench_out/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def _verify(family, f, *primes):
    return [("verify", family, f, p) for p in primes]


# The workloads split the work between layers; each one is the workload
# where some planned change should move `wall_s`, and another is the one
# where it should not.  Targets left out: 2B2 f=1 p=5 and p=7 repeat the
# global Sz(8) work of p=13; 2F4 p=13 takes 556 s in clifford_label.
WORKLOADS = {
    # the 29,120- and 87,360-element groups: the permutation-group kernel
    "sz8": _verify("2B2", 1, 13),
    # local-only targets with large conductors: cyclotomic arithmetic and
    # Galois action on big tables, almost no group-kernel time
    "torus-cyclo": (_verify("2F4", 1, 109, 19) + _verify("2B2", 2, 31, 41)
                    + _verify("2G2", 1, 37)),
    # full-target paths on groups of order at most about 2,400, where set-up
    # and per-group fixed costs are most of each invocation
    "grid-small": (_verify("PSL2", 1, 2, 3, 7) + _verify("2B2", 2, 5)
                   + _verify("2F4", 1, 5, 7, 37) + _verify("2G2", 1, 7, 13, 19)),
    # Clifford labeling, which no CLI command reaches: induce and
    # inner_product on many small subgroup tables
    "clifford": [("clifford", "2F4", 1, 7), ("clifford", "2F4", 1, 5)],
}


def invocation_name(inv):
    return "%s_%s_%d_%d" % inv


def child_argv(inv, trace_out=None):
    command, family, f, p = inv
    args = [command, "--family", family, "--f", str(f), "--p", str(p)]
    if trace_out is not None:
        return [sys.executable, str(BENCH / "child.py"), "--trace-out",
                str(trace_out)] + args
    if command == "verify":
        return [sys.executable, "-m", "galmckay"] + args
    return [sys.executable, str(BENCH / "child.py")] + args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


class Child:
    """Result of one child process."""

    def __init__(self, returncode, stdout, stderr, wall_s, cpu_s):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.cpu_s = cpu_s


def _probe_s():
    """CPU seconds this thread spends on a fixed bit of Fraction arithmetic.

    Fractions allocate and hash like the program's cyclotomic and group
    code do, so host contention slows this probe in step with the program
    (see HostSpeed.SENSITIVITY); a loop of small-int arithmetic followed
    the program's slowdowns less closely.
    """
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i, i * i + 1)
    return time.thread_time() - start


class HostSpeed:
    """The host's speed while the children of a run ran.

    On a shared host the speed of this machine's CPUs swings, as other
    tenants come and go, by up to 1.7 times for a minute or more at once.
    A child's times swing with it, and so does the probe, which is timed
    in CPU seconds of its own thread, so that a child busy on the same CPU
    does not slow it.  The probe runs every PROBE_EVERY_S while a child
    runs (about 2% of one CPU), and `scale` takes the mean probe time over
    the children's wall time out of the run's times.
    """

    # _probe_s in the quiet spells of a 2-vCPU "Intel(R) Xeon(R) Processor"
    # virtual machine; its busy spells take 12-13 ms
    QUIET_S = 0.009
    # The children slow by the probe's slowdown to about this power: in two
    # sets of ten runs of each workload, log wall time against log mean
    # probe time had slopes of 1.47 to 2.1 (correlation 0.81 to 0.99).  The
    # probe's small working set suffers less from neighbours' cache traffic.
    SENSITIVITY = 1.5

    def __init__(self):
        self.busy_s = 0.0
        self.weighted_probe_s = 0.0

    def add(self, wall_s, probes):
        """Count a child's wall time at the mean probe time meanwhile."""
        self.busy_s += wall_s
        self.weighted_probe_s += wall_s * statistics.mean(probes)

    def scale(self):
        """Factor from this run's times to times on an undisturbed host."""
        if not self.busy_s:
            return 1.0
        return (self.QUIET_S * self.busy_s
                / self.weighted_probe_s) ** self.SENSITIVITY


SPEED = HostSpeed()
PROBE_EVERY_S = 0.5


def run_child(argv):
    """Run argv to completion; wall from launch to exit, CPU of the child.

    The host's speed just before, while and just after the child runs
    goes to SPEED."""
    probes = [_probe_s()]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    while True:
        try:
            out, err = proc.communicate(timeout=PROBE_EVERY_S)
            break
        except subprocess.TimeoutExpired:
            pass
        if time.perf_counter() - start > CHILD_TIMEOUT_S:
            proc.kill()
            out, err = proc.communicate()
            err += b"\nkilled after %d s" % CHILD_TIMEOUT_S
            break
        probes.append(_probe_s())
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime
                                               + before.ru_stime)
    probes.append(_probe_s())
    SPEED.add(wall, probes)
    return Child(proc.returncode, out, err, wall, cpu)


def peak_rss_mb():
    """Largest maximum resident set size of any child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def golden_mismatches(golden, actual, path="$"):
    """Paths where `actual` lacks or changes a key or value of `golden`.

    Keys that `actual` adds to a JSON object are allowed.
    """
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return [path]
        out = []
        for key, value in golden.items():
            if key not in actual:
                out.append("%s.%s missing" % (path, key))
            else:
                out += golden_mismatches(value, actual[key],
                                         "%s.%s" % (path, key))
        return out
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return [path]
        out = []
        for i, (g, a) in enumerate(zip(golden, actual)):
            out += golden_mismatches(g, a, "%s[%d]" % (path, i))
        return out
    if type(golden) is not type(actual) or golden != actual:
        return [path]
    return []


class Checker:
    """Correctness check for invocation outputs within one benchmark process.

    An invocation fails when it exits nonzero, when its report lacks or
    changes anything in the golden report, or when its stdout bytes differ
    from an earlier run of the same invocation in this process.
    """

    def __init__(self):
        self.goldens = {}
        self.seen = {}

    @staticmethod
    def golden_path(inv):
        return GOLDEN / (invocation_name(inv) + ".json")

    def problems(self, inv, returncode, stdout):
        out = []
        if returncode != 0:
            out.append("exit code %s" % returncode)
        name = invocation_name(inv)
        if name not in self.goldens:
            with open(self.golden_path(inv)) as fh:
                self.goldens[name] = json.load(fh)
        try:
            report = json.loads(stdout)
        except ValueError:
            out.append("stdout is not a JSON document")
        else:
            out += ["golden mismatch at " + m
                    for m in golden_mismatches(self.goldens[name], report)]
        earlier = self.seen.setdefault(name, stdout)
        if earlier != stdout:
            out.append("stdout differs from an earlier run")
        return out


class ListResult:
    def __init__(self):
        self.wall_s = 0.0
        self.children = {}
        self.attempted = 0
        self.failed = 0
        self.traces = []


def run_list(order, checker, trace_dir=None):
    """Run the invocations in order; check them once the last has exited."""
    res = ListResult()
    children = []
    start = time.perf_counter()
    for inv in order:
        trace_out = None
        if trace_dir is not None:
            trace_out = trace_dir / (invocation_name(inv) + ".json")
        children.append((inv, trace_out, run_child(child_argv(inv, trace_out))))
    res.wall_s = time.perf_counter() - start
    for inv, trace_out, child in children:
        res.attempted += 1
        res.children[invocation_name(inv)] = child
        problems = checker.problems(inv, child.returncode, child.stdout)
        if trace_out is not None and not problems:
            try:
                with open(trace_out) as fh:
                    res.traces.append(json.load(fh))
            except (OSError, ValueError) as exc:
                problems.append("no trace: %s" % exc)
        if problems:
            res.failed += 1
            print("FAILED %s: %s" % (" ".join(map(str, inv)),
                                     "; ".join(problems)))
            tail = child.stderr.decode(errors="replace").strip()[-2000:]
            if tail:
                print(tail)
    return res


def typical_pass(runs, field):
    """Sum over the invocations of each one's median `field` in runs."""
    return sum(statistics.median(getattr(r.children[name], field)
                                 for r in runs)
               for name in runs[0].children)


def setup_probe():
    child = run_child([sys.executable, "-c", "import galmckay.cli"])
    if child.returncode != 0:
        raise SystemExit("importing galmckay.cli failed:\n"
                         + child.stderr.decode(errors="replace"))
    return child.wall_s


def layer_metrics(untraced, traced):
    """Per-layer metrics summed over the traced invocations."""
    metrics, absent = {}, None
    for doc in traced.traces:
        for name, value in doc["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
        absent = set(doc["absent"]) if absent is None \
            else absent & set(doc["absent"])
    layers = sum(v for k, v in metrics.items()
                 if k.endswith(".self_s") or k == "cli.import_s")
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1
    metrics["trace.unattributed_s"] = traced.wall_s - layers
    return metrics, sorted(absent or ())


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def run_metadata(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    src_lines = 0
    for path in sorted((SRC / "galmckay").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "sympy": sympy,
            "src_lines": src_lines}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    invocations = WORKLOADS[args.workload]
    checker = Checker()
    missing = [str(p) for p in [SRC / "galmckay" / "cli.py"]
               + [checker.golden_path(inv) for inv in invocations]
               if not p.is_file()]
    if missing:
        sys.stderr.write("not a galmckay checkout; missing: %s\n"
                         % ", ".join(missing))
        return 2
    rng = random.Random(args.seed)
    print("meta " + json.dumps(run_metadata(args), sort_keys=True))
    # the probes also fill the bytecode caches before any list is timed
    setup = [setup_probe() for _ in range(SETUP_PROBES)]

    if args.trace:
        order = rng.sample(invocations, len(invocations))
        print("order " + ", ".join(" ".join(map(str, i)) for i in order))
        untraced = run_list(order, checker)
        trace_dir = OUT / args.workload
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_list(order, checker, trace_dir)
        runs = [untraced, traced]
        metrics, absent = layer_metrics(untraced, traced)
        if absent:
            print("absent " + " ".join(absent))
    else:
        runs = []
        # a pass is started while at least half of it fits in --seconds
        while not runs or (sum(r.wall_s for r in runs) * (1 + 0.5 / len(runs))
                           <= args.seconds):
            order = rng.sample(invocations, len(invocations))
            print("order " + ", ".join(" ".join(map(str, i)) for i in order))
            runs.append(run_list(order, checker))
        raw = {
            "wall_s": typical_pass(runs, "wall_s"),
            "cpu_s": typical_pass(runs, "cpu_s"),
            "setup_s": statistics.median(setup),
        }
        scale = SPEED.scale()
        unscaled = ", ".join("%s %.6g s" % kv for kv in raw.items())
        print("host speed: scale %.4f over %.1f s of children; unscaled %s"
              % (scale, SPEED.busy_s, unscaled))
        metrics = {name: value * scale for name, value in raw.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for name, value in metrics.items():
        print("%s %.6g %s" % (name, value, unit(name)))
    print("failed_frac %.6g frac (%d of %d invocations failed)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
