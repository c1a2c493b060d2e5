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
        "977cb38ffd4994bd1efa54712ed7150f89ea9435b8dfb2b995d1202741b68779",
    "su3_2_ext":
        "8ab50da3278b4543038e503b6e9d1e5be206b9d89174818371cc6e49921d7570",
    "su3_3":
        "36f90fa0e813c28776a69626582de6ed5f06ae18528c2e45ec986e083035016b",
    "g2_2":
        "faf541b2358c07dd5201f1877ce46c068f4fb7c7f88d619471fd0eee891ea2a1",
    "psl3_4":
        "26b4e88b471f9b28922d380c25f4833f292845bc654a19ac2b6b0406839ed354",
    "sl3_4":
        "aa449902d4cffa0d2bce8e2f33d8f1bc40490116f6e7c778f89cf0feb7047c71",
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


# sha256 of json.dumps([stdout, stderr, exit code]) of one cli.run call for
# `local-model` and `cross-check` on every list-targets target, and of
# `list-targets` and `lemma32 --f-min 1 --f-max 8`
CLI_SHA256 = {
    "cross-check 2B2 1 13":
        "c6890f2b572de1c2c6850e2221194dab231d0e9a3f5df3501f80db8cae1d04b4",
    "cross-check 2B2 1 5":
        "3df22b35b5db33ef6635b10e5a4a4081e87a6e50f38777b93752a8f5d64fc5ca",
    "cross-check 2B2 1 7":
        "335a83471fc3f029565577b59e54ddfa74186a3c0f511402e742f3121164181c",
    "cross-check 2B2 2 31":
        "35d3f588898866ffe6a82b2505e4ea0ea54b7b43fc208407247683d57c274595",
    "cross-check 2B2 2 41":
        "8e49701ba4067fe8ac3f33be2c469d94f95b4c19c6e2287b98820878fae20eb0",
    "cross-check 2B2 2 5":
        "cee038a72807ec739c45bb154353c03baad6c615adff90765de0e89622fefee2",
    "cross-check 2F4 1 109":
        "d78e17c8ce01c9176da5c487cb443da9bed498094d7e2621eed90391f0f19afe",
    "cross-check 2F4 1 13":
        "4a0c9ab7c6593b58f2d33aa75c933ed81a780f76b74a87937eaa65eb2f6b5582",
    "cross-check 2F4 1 19":
        "3df01305d5bac590624c7d9f6a78ad1b087327b990609ae7efb4add197604cd6",
    "cross-check 2F4 1 37":
        "ae9cd0d37c55ad1122f9a759a7e4c3e6910f810e39ca23282c0b795a0054f623",
    "cross-check 2F4 1 5":
        "78e3d90ccb48a4c8b4afa506647def5e0f5c0804f11505768e253a3f3a70332e",
    "cross-check 2F4 1 7":
        "d6c3b6c91ce100fa5688d4a596fd9f2c3460dca2e04762471f3f26ae73aed15a",
    "cross-check 2G2 1 13":
        "5a6e339ed455e9e06f73415e74805811571d459ecf4f8988f38044ef45e7d229",
    "cross-check 2G2 1 19":
        "07170d151a120948231de3e55f6b81a4cb37d0e0a61c6a40e981ee001dabdd42",
    "cross-check 2G2 1 37":
        "c55f44a208c2b22faea3dbb385f2c5a9a4e4d048bf45621f5d42277676c32974",
    "cross-check 2G2 1 7":
        "0df0f5e8008fbae01d83c1db21c36113e849e53581cfed008032fa85a67dcc09",
    "cross-check PSL2 1 2":
        "ba4eed7641168833d87bc4275080b533d2490c2ae7184f0723b74a20f7966b4c",
    "cross-check PSL2 1 3":
        "d400b9fd40bb31cbb54f49c0d56dd69d23b3798683dc7b6f23f26e232d18c5bb",
    "cross-check PSL2 1 7":
        "2f1133d76de3f1e678f3035c85e74f25c0059a2f2a0e16c0e315ef593f9a9736",
    "lemma32":
        "bdbe18e82e3a9f37ba227de8b66c41b6d91a104450b42513c5b40729d83acd90",
    "list-targets":
        "62bbe7a67185638896e8663c21e45df644c28a33b89ea64dc15a9b22d89c5559",
    "local-model 2B2 1 13":
        "7143275b5c498be8152ed11cbeb7fb45785485254915b0f62289a70173b05a53",
    "local-model 2B2 1 5":
        "0a42ab62a15ce9cd3a048115297c0daadaba5bab2499b80b24c252c2830f4c6d",
    "local-model 2B2 1 7":
        "a84388aa818dd9a54b6036d7e2802669bea1f371427b279c7e804481e9167906",
    "local-model 2B2 2 31":
        "9dd4e3e5ff8a71e15de2afa28440afabeea54d50d08f71e59c1b5ad9db8776ce",
    "local-model 2B2 2 41":
        "ebbadda403427152dfb492234de4a14810be529ac28d5ae4372fcb658989122a",
    "local-model 2B2 2 5":
        "470a79fbb999ab5486a5cc321993e86cb974ff9b4ccd9b09b50d25744f6b35dc",
    "local-model 2F4 1 109":
        "941f3b085b15dcacadc2db4ae70a834c576ae3e703e72fe445fbb6ee25bbe8eb",
    "local-model 2F4 1 13":
        "2b5d106023b2ebeb99c25e1474c28a2fad4724d3fc0c565748b79efcfe18910b",
    "local-model 2F4 1 19":
        "fe16ae921d51b718baeb0d2ee80dd883129c2947d505c9820b41cc35053a2f90",
    "local-model 2F4 1 37":
        "0331b36843c17bbfd1c563b0bfa139ec8e74e632d97c8b4afec1b7b6dc86803c",
    "local-model 2F4 1 5":
        "4cb65259eeaa2dab9ffd2ae60736de9e5c36e7826b8d411507a465da8080503c",
    "local-model 2F4 1 7":
        "db1025d3bd01aecf7ebe99c439471cb9b6654b872b6e5b919942388ddf4f0285",
    "local-model 2G2 1 13":
        "d439ab172ac577e06df593c354c6ec2be455e53314fffc676d8d410c9d4c91a5",
    "local-model 2G2 1 19":
        "41e7f22a4271fd6b8fe58835732e8ead77dadc61e1d5ac5dc84309fca4692101",
    "local-model 2G2 1 37":
        "0aea0d2f6df481c08e26d4e21a8f93da1da99bc47cdc16aafcbafbc3ab0ea8c0",
    "local-model 2G2 1 7":
        "8cc48380e1b85a59b176e4b8c9f751a7cb52a83c74cc48ec83416527b79986cb",
    "local-model PSL2 1 2":
        "5487019cb2010afdc7d4e57072451739d626836ab429a9de80f495a8f3eed361",
    "local-model PSL2 1 3":
        "c1ea95bfa83a2883d326b1e38e820b4a42f9da15d8b1a9a079f4326305dd6e5b",
    "local-model PSL2 1 7":
        "a84388aa818dd9a54b6036d7e2802669bea1f371427b279c7e804481e9167906",
}


def _cli_argv(name):
    command, *rest = name.split()
    if command == "lemma32":
        return ["lemma32", "--f-min", "1", "--f-max", "8"]
    if not rest:
        return [command]
    family, f, p = rest
    return [command, "--family", family, "--f", f, "--p", p]


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_outputs_pinned(name, capsys):
    code = run(_cli_argv(name))
    out, err = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([out, err, code]).encode())
    assert digest.hexdigest() == CLI_SHA256[name]


def test_cli_outputs_pinned_for_every_target():
    from galmckay.verify import list_targets

    names = {"%s %s %d %d" % (command, t["family"], t["f"], t["p"])
             for t in list_targets()
             for command in ("local-model", "cross-check")}
    assert set(CLI_SHA256) == names | {"list-targets", "lemma32"}
