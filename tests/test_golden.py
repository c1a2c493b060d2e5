"""`galmckay verify` reports against the golden copies in bench/golden/.

Every golden file is checked: the `verify` report of each of the 19
targets in `list-targets` (the local-only ones rest on the Galois action
on torus-normalizer tables, the full targets of PSL(2,8) and Sz(8) on the
global and local tables and their extension products), and the Clifford
labels of the 2F4 p=5 and p=7 torus normalizers.  The comparison rule is
the benchmark's: every
key and value of the golden report must be present and equal; keys the
report adds are allowed.
"""

import json
from pathlib import Path

import pytest

from galmckay import cli
from galmckay.galois import clifford_label
from galmckay.verify import list_targets
from galmckay.zoo import torus_normalizer

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


def golden_mismatches(golden, actual, path="$"):
    """Paths where `actual` lacks or changes a key or value of `golden`."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return [path]
        out = []
        for key, value in golden.items():
            if key in actual:
                out += golden_mismatches(value, actual[key],
                                         "%s.%s" % (path, key))
            else:
                out.append("%s.%s missing" % (path, key))
        return out
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return [path]
        return [m for i, (g, a) in enumerate(zip(golden, actual))
                for m in golden_mismatches(g, a, "%s[%d]" % (path, i))]
    if type(golden) is not type(actual) or golden != actual:
        return [path]
    return []


def test_golden_rule():
    golden = {"a": [1, {"b": True}], "c": None}
    assert golden_mismatches(golden, dict(golden, extra=1)) == []
    assert golden_mismatches(golden, {"a": [1, {"b": 1}], "c": None}) \
        == ["$.a[1].b"]
    assert golden_mismatches(golden, {"a": [1]}) == ["$.a", "$.c missing"]


VERIFY_GOLDENS = sorted(GOLDEN.glob("verify_*.json"))
CLIFFORD_GOLDENS = sorted(GOLDEN.glob("clifford_*.json"))


def target_of(path):
    """(family, f, p) from a golden file name such as verify_2B2_1_13."""
    family, f, p = path.stem.split("_")[1:]
    return family, int(f), int(p)


def test_every_target_has_a_verify_golden():
    targets = [(t["family"], t["f"], t["p"]) for t in list_targets()]
    assert sorted(map(target_of, VERIFY_GOLDENS)) == sorted(targets)
    assert len(targets) == 19 and len(CLIFFORD_GOLDENS) == 2


@pytest.mark.parametrize("family,f,p", map(target_of, VERIFY_GOLDENS))
def test_verify_matches_golden(family, f, p, capsys):
    with open(GOLDEN / ("verify_%s_%d_%d.json" % (family, f, p))) as fh:
        golden = json.load(fh)
    code = cli.run(["verify", "--family", family, "--f", str(f),
                    "--p", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["status"] == "verified"
    assert golden_mismatches(golden, report) == []


def test_clifford_labels_match_golden():
    for path in CLIFFORD_GOLDENS:
        with open(path) as fh:
            golden = json.load(fh)
        labels = clifford_label(torus_normalizer(*target_of(path)))
        doc = {str(row): {"s_row": lab.s_row,
                          "s_values": [v.serialize() for v in lab.s_values],
                          "orbit": list(lab.orbit),
                          "stabilizer_order": lab.stabilizer_order,
                          "eta_index": lab.eta_index,
                          "eta_degree": lab.eta_degree}
               for row, lab in labels.items()}
        assert golden_mismatches(golden, json.loads(json.dumps(doc))) == [], \
            path.name
        assert sorted(doc) == sorted(golden), path.name
