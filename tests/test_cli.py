import hashlib
import json

import pytest

from galmckay.cli import _GROUP_BUILDERS, run, serialize_table
from galmckay.cyclo import ZERO, rational
from galmckay.chartab import dixon_schneider
from galmckay.zoo import agl18_normalizer
from oracles import cyclic_group, deserialize_table

# sha256 of the stdout of `galmckay chartab --group <name>`, the same under
# any PYTHONHASHSEED: generators, class order and row order are all fixed
CHARTAB_SHA256 = {
    "psl2_8":
        "3fb9afd85ec0c072845a55176b57b0f8bd99751c550f12e2575a5e897904e39f",
    "agl18_normalizer":
        "82a347509042c526f52a85b519b9590f5e911aa5c6363bc39dece64a0683c7ef",
    "su3_2":
        "02ca8538f8e547613346a98c41795b987dfc52d9c2b07f5c7b2adea532ad2596",
    "su3_2_ext":
        "8ab50da3278b4543038e503b6e9d1e5be206b9d89174818371cc6e49921d7570",
    "su3_3":
        "ee542aab5c2310f23b1dd6dbbef426599989b768913400510d1263840b1dc578",
    "g2_2":
        "faf541b2358c07dd5201f1877ce46c068f4fb7c7f88d619471fd0eee891ea2a1",
    "psl3_4":
        "26b4e88b471f9b28922d380c25f4833f292845bc654a19ac2b6b0406839ed354",
    "sl3_4":
        "0bca062bfc3d17b72bb239e2a80537964c50591ca684acbfc6e41fd6f07ad9ae",
    "sz8":
        "8e75e3905f41e61f74dfe2be49531d7fc497f9698730ca80b25eac2ef7c547d7",
}


def test_serialize_c2_table():
    doc = serialize_table(dixon_schneider(cyclic_group(2)))
    assert doc["order"] == 2
    assert len(doc["classes"]) == 2
    assert len(doc["irreducibles"]) == 2


def test_serialize_roundtrip():
    t = dixon_schneider(agl18_normalizer())
    doc = serialize_table(t)
    back = deserialize_table(json.loads(json.dumps(doc)))
    for row, orig in zip(back["irreducibles"], t.rows):
        assert tuple(row["values"]) == orig.values


def test_serialized_orthogonality():
    t = dixon_schneider(agl18_normalizer())
    doc = json.loads(json.dumps(serialize_table(t)))
    back = deserialize_table(doc)
    sizes = [c["size"] for c in back["classes"]]
    rows = back["irreducibles"]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            acc = ZERO
            for s, x, y in zip(sizes, a["values"], b["values"]):
                acc = acc + x * y.galois(-1) * s
            want = rational(back["order"]) if i == j else ZERO
            assert acc == want


def test_cli_chartab(tmp_path):
    out = tmp_path / "t.json"
    assert run(["chartab", "--group", "agl18_normalizer",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 168
    assert sum(r["degree"] ** 2 for r in doc["irreducibles"]) == 168


@pytest.mark.parametrize("group", sorted(_GROUP_BUILDERS))
def test_cli_chartab_bytes_pinned(group, capsys):
    assert run(["chartab", "--group", group]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTAB_SHA256[group]


def test_cli_unwritable_out_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run(["list-targets", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write %s: No such file or "
                            "directory\n" % out)
    assert not out.exists()


def test_cli_chartab_unknown_group():
    assert run(["chartab", "--group", "nope"]) == 1


def test_cli_lemma32(tmp_path):
    out = tmp_path / "l.json"
    assert run(["lemma32", "--f-min", "1", "--f-max", "2",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"]


def test_cli_list_targets(tmp_path):
    out = tmp_path / "t.json"
    assert run(["list-targets", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert any(t["family"] == "2B2" and t["p"] == 5
               for t in doc["targets"])


def test_cli_list_targets_text(capsys):
    # a dict key above its nested value, one "-" line per dict in a list,
    # and scalars inline after their key
    assert run(["list-targets", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == ["targets:", "  -", "    family: 2B2", "    f: 1",
                         "    p: 5", "    mode: full"]
    assert lines[-5:] == ["  -", "    family: 2G2", "    f: 1", "    p: 37",
                          "    mode: local-only"]
    assert len(lines) == 1 + 5 * 19


def test_cli_lemma32_text(capsys):
    # nested lists print as "-" lines, scalar items as "- value", and an
    # empty list or dict inline after its key
    assert run(["lemma32", "--f-min", "1", "--f-max", "1",
                "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:18] == [
        "f_min: 1",
        "f_max: 1",
        "ok: True",
        "per_f:",
        "  -",
        "    f: 1",
        "    q2: 8",
        "    identities: True",
        "    values:",
        "      T1:",
        "        value: 7",
        "        factors:",
        "          -",
        "            - 7",
        "            - 1",
        "        rule: mod 8 in {1,7}",
        "        ok: True",
        "        violations: []",
    ]
    assert lines[-8:] == [
        "        factors:",
        "          -",
        "            - 37",
        "            - 1",
        "        rule: mod 12 in {1,11} unless p = 3",
        "        ok: True",
        "        violations: []",
        "    ok: True",
    ]
    assert len(lines) == 67


def test_cli_local_model(tmp_path):
    out = tmp_path / "m.json"
    assert run(["local-model", "--family", "2B2", "--f", "1", "--p", "5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["order"] == 20


def test_cli_local_model_out_of_scope(tmp_path):
    out = tmp_path / "m.json"
    assert run(["local-model", "--family", "2B2", "--f", "1", "--p", "11",
                "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "out-of-scope"


def test_cli_cross_check_out_of_scope(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["cross-check", "--family", "2B2", "--f", "1", "--p", "11",
                "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "out-of-scope"
    assert {"family": "2B2", "f": 1, "p": 13, "mode": "full"} \
        in doc["known_targets"]
    assert capsys.readouterr().err == ""


def test_cli_verify_out_of_scope(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--family", "2B2", "--f", "1", "--p", "11",
                "--out", str(out)]) == 1


def test_cli_verify_psl28_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "--family", "PSL2", "--f", "1", "--p", "7",
                "--out", str(a)]) == 0
    assert run(["verify", "--family", "PSL2", "--f", "1", "--p", "7",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["verdict"] == {"part1": True, "part2": True}


def test_cli_cross_check(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cross-check", "--family", "2B2", "--f", "1", "--p", "7",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["consistent"]


def test_cli_usage_error():
    assert run(["verify", "--family", "2B2"]) == 1
    assert run(["bogus"]) == 1


def test_cli_library_errors_exit_one(monkeypatch, capsys):
    from galmckay import cli
    from galmckay.extend import ExtendError
    from galmckay.galois import GaloisError

    for exc in (ExtendError("order does not divide k"),
                GaloisError("mixed moduli")):
        def fail(family, f, p, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "verify_target", fail)
        assert run(["verify", "--family", "2B2", "--f", "1",
                    "--p", "5"]) == 1
        err = capsys.readouterr().err
        assert err == "error: %s\n" % exc


def test_cli_group_over_budget_exits_one(monkeypatch, capsys):
    from galmckay import groups

    monkeypatch.setattr(groups, "ENUMERATION_BUDGET", 1000)
    assert run(["chartab", "--group", "psl2_8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # PSL(2,8) has a base of 3 points and 3 generators
    need = groups.enumeration_bytes(504, 3, 3)
    assert captured.err == (
        "error: group of order 504 on 9 points needs about %d bytes to "
        "enumerate (budget 1000)\n" % need)
