"""Tests of the benchmark itself:  python3 -m pytest bench"""

import json
import subprocess
import sys
import textwrap

import pytest

import run
from tracer import Tracer

SMALL = ("verify", "PSL2", 1, 2)


def golden_bytes(inv):
    return run.Checker().golden_path(inv).read_bytes()


def fake_list(monkeypatch, outputs):
    """run_list over SMALL with run_child replaced by canned results."""
    results = iter(outputs)
    monkeypatch.setattr(run, "run_child", lambda argv: next(results))
    checker = run.Checker()
    return [run.run_list([SMALL], checker) for _ in outputs]


def test_golden_report_passes(monkeypatch):
    ok = run.Child(0, golden_bytes(SMALL), b"", 1.0, 1.0)
    res = fake_list(monkeypatch, [ok, ok])
    assert [(r.attempted, r.failed) for r in res] == [(1, 0), (1, 0)]


def test_flipped_invariant_counts_as_failed(monkeypatch):
    report = json.loads(golden_bytes(SMALL))
    assert report["extensions"][0]["invariant"] is True
    report["extensions"][0]["invariant"] = False
    tampered = json.dumps(report, sort_keys=True, indent=2).encode() + b"\n"
    res = fake_list(monkeypatch, [run.Child(0, tampered, b"", 1.0, 1.0)])
    assert (res[0].attempted, res[0].failed) == (1, 1)


def test_nonzero_exit_counts_as_failed(monkeypatch):
    res = fake_list(monkeypatch,
                    [run.Child(2, golden_bytes(SMALL), b"", 1.0, 1.0)])
    assert res[0].failed == 1


def test_added_keys_pass_but_changed_bytes_fail():
    report = json.loads(golden_bytes(SMALL))
    report["provenance"] = {"orders": [504]}
    extended = json.dumps(report, sort_keys=True, indent=2).encode()
    checker = run.Checker()
    assert checker.problems(SMALL, 0, extended) == []
    assert checker.problems(SMALL, 0, golden_bytes(SMALL)) == [
        "stdout differs from an earlier run"]


def test_golden_mismatches_names_the_path():
    golden = {"a": [1, {"b": True}], "c": None}
    assert run.golden_mismatches(golden, {"a": [1, {"b": True}], "c": None,
                                          "d": 0}) == []
    assert run.golden_mismatches(golden, {"a": [1, {"b": 1}], "c": None}) \
        == ["$.a[1].b"]
    assert run.golden_mismatches(golden, {"a": [1]}) == ["$.a", "$.c missing"]


def test_typical_pass_sums_per_invocation_medians():
    passes = []
    for walls in ({"a": 1.0, "b": 5.0}, {"a": 3.0, "b": 4.0},
                  {"a": 2.0, "b": 9.0}):
        res = run.ListResult()
        res.children = {name: run.Child(0, b"", b"", wall, wall / 2)
                        for name, wall in walls.items()}
        passes.append(res)
    assert run.typical_pass(passes, "wall_s") == 2.0 + 5.0
    assert run.typical_pass(passes, "cpu_s") == 1.0 + 2.5


def test_host_speed_scales_to_a_quiet_host():
    speed = run.HostSpeed()
    assert speed.scale() == 1.0
    q = speed.QUIET_S
    speed.add(3.0, [2 * q, 2 * q])
    speed.add(1.0, [6 * q])
    # mean probe over the 4 s of children: (3 * 2q + 1 * 6q) / 4 = 3q
    assert speed.scale() == pytest.approx((1 / 3) ** speed.SENSITIVITY)
    assert run._probe_s() > 0


FAKE_GROUPS = """
    def compose(p, q):
        return tuple(p[i] for i in q)

    class FiniteGroup:
        def __init__(self, n):
            self.n = n

        @property
        def order(self):
            return self.n
"""

FAKE_VERIFY = """
    from .groups import FiniteGroup, compose

    def verify_target():
        return FiniteGroup(compose((1, 0), (1, 0))[0] + 2).order
"""


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "groups.py").write_text(textwrap.dedent(FAKE_GROUPS))
    (pkg / "verify.py").write_text(textwrap.dedent(FAKE_VERIFY))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_missing_entry_point_gives_absent_metric(fakepkg):
    tracer = Tracer(
        entry_points={
            "groups": "compose* FiniteGroup.__init__* FiniteGroup.order* "
                      "GroupMap.__init__ identity_map*",
            "verify": "verify_target",
            "cyclo": "Cyclotomic.__add__*",
        },
        metrics={
            "groups.self_s": ("self", "groups"),
            "groups.order_s": ("time", "groups.FiniteGroup.order"),
            "groups.groups_built": ("calls", "groups.FiniteGroup.__init__"),
            "groups.automorphism_s": ("time", "groups.GroupMap.__init__ "
                                              "groups.identity_map"),
            "cyclo.self_s": ("self", "cyclo"),
            "verify.self_s": ("self", "verify"),
        },
        package=fakepkg)
    tracer.install()
    import fakepkg.verify
    assert fakepkg.verify.verify_target() == 2
    metrics, absent = tracer.metrics()
    assert sorted(absent) == ["cyclo.self_s", "groups.automorphism_s"]
    assert sorted(tracer.absent) == ["cyclo.Cyclotomic.__add__",
                                     "groups.GroupMap.__init__",
                                     "groups.identity_map"]
    assert metrics["groups.groups_built"] == 1
    # compose was bound into verify by "from .groups import"
    assert tracer.calls["groups.compose"] == [1]
    assert metrics["groups.order_s"] > 0
    # self times add up to the outermost span
    [(name, start, end, parent)] = tracer.spans
    assert (name, parent) == ("verify.verify_target", -1)
    assert end - start == pytest.approx(
        metrics["groups.self_s"] + metrics["verify.self_s"])


def test_traced_report_equals_golden_bytes(tmp_path):
    trace_out = tmp_path / "trace.json"
    proc = subprocess.run(run.child_argv(SMALL, trace_out), cwd=run.ROOT,
                          env=run.child_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_bytes(SMALL)
    doc = json.loads(trace_out.read_text())
    assert doc["absent"] == [] and doc["absent_entry_points"] == []
    assert doc["metrics"]["chartab.tables"] > 0
    assert doc["metrics"]["groups.self_s"] > 0
