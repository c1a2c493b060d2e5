"""Acceptance suite: one test (and one pass/fail line) per criterion."""

import json
import os
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

from galmckay.chartab import dixon_schneider
from galmckay.extend import find_extensions
from galmckay.galois import (
    GaloisElement, h_group, act_on_table, clifford_label,
)
from galmckay.cyclo import ONE
from galmckay.verify import (
    verify_target, match_actions, global_side,
    local_side, galois_group, cross_model_check, lemma_congruence_check,
    local_model_group,
)
from galmckay.zoo import suzuki_group, torus_normalizer
from oracles import brute_force_match_exists, power_compatibility_check, root

SRC = Path(__file__).resolve().parent.parent / "src"


FULL_GRID = [
    ("2B2", 1, 5), ("2B2", 1, 7), ("2B2", 1, 13),
    ("PSL2", 1, 2), ("PSL2", 1, 3), ("PSL2", 1, 7),
]

EXPECTED_COUNTS = {
    ("2B2", 1, 5): 5, ("2B2", 1, 7): 5, ("2B2", 1, 13): 7,
    ("PSL2", 1, 2): 8,
}

_reports = {}


def _report_for(family, f, p):
    key = (family, f, p)
    if key not in _reports:
        _reports[key] = verify_target(family, f, p)
    return _reports[key]


def _announce(n, ok, detail):
    print("criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (n, detail)


def _is_real_row(row):
    return all(v == v.galois(-1) for v in row.values)


def _s_trivial(label):
    return all(v == ONE for v in label.s_values)


def test_criterion_1_sz8_character_table():
    start = time.monotonic()
    table = dixon_schneider(suzuki_group(1))
    elapsed = time.monotonic() - start
    table.validate()
    degrees = sorted(r.degree_int() for r in table.rows)
    ok = (len(table.rows) == 11
          and degrees == [1, 14, 14, 35, 35, 35, 64, 65, 65, 65, 91]
          and sum(d * d for d in degrees) == 29120
          and elapsed <= 120.0)
    _announce(1, ok, "11 rows, degree multiset and orthogonality exact, "
              "%.1fs" % elapsed)


def test_criterion_2_mckay_counts_two_paths():
    details = []
    for family, f, p in FULL_GRID:
        rep = _report_for(family, f, p)
        counts = rep["counts"]
        assert counts["global"] == counts["local"]
        want = EXPECTED_COUNTS.get((family, f, p))
        if want is not None:
            assert counts["global"] == want
        # independent second path: the model local group's table
        model = dixon_schneider(local_model_group(family, f, p))
        assert len(model.p_prime_rows(p)) == counts["local"]
        details.append("%s/%d p=%d: %d=%d" % (family, f, p,
                                              counts["global"],
                                              counts["local"]))
    _announce(2, True, "; ".join(details))


def test_criterion_3_equivariant_bijections():
    for family, f, p in FULL_GRID:
        rep = _report_for(family, f, p)
        assert rep["verdict"]["part1"] is True
        assert rep["bijection"] is not None
        assert len(rep["bijection"]) == rep["counts"]["global"]
    _announce(3, True, "equivariant bijection found for all %d targets"
              % len(FULL_GRID))


def test_criterion_4_extension_sweeps():
    total = 0
    for family, f, p in FULL_GRID:
        rep = _report_for(family, f, p)
        assert rep["verdict"]["part2"] is True
        exts = rep["extensions"]
        sides = {e["side"] for e in exts}
        assert sides == {"global", "local"}
        assert all(e["invariant"] for e in exts)
        for side in sides:
            n = sum(1 for e in exts if e["side"] == side)
            assert n == rep["counts"][side]
        total += len(exts)
    _announce(4, True, "%d invariant-extension witnesses across both sides "
              "of all targets" % total)


def test_criterion_5_order168_normalizer(agl168_table):
    table = agl168_table
    assert table.group.order == 168
    degrees = sorted(r.degree_int() for r in table.rows)
    assert degrees == [1, 1, 1, 3, 3, 7, 7, 7]
    # all degrees are odd, so the 2'-rows are all eight rows
    assert table.p_prime_rows(2) == list(range(8))
    m = table.exponent
    sigma = next(s for s in h_group(2, m) if s.b % 3 == 2)
    assert root(3).galois(sigma.b) == root(3, 2)
    perm = act_on_table(table, sigma)
    moved = sorted(i for i in range(8) if perm[i] != i)
    assert len(moved) == 4
    assert all(perm[perm[i]] == i for i in moved)
    pair_degrees = sorted(
        sorted(table.rows[j].degree_int() for j in (i, perm[i]))
        for i in moved if i < perm[i])
    assert pair_degrees == [[1, 1], [7, 7]]
    fixed_degrees = sorted(table.rows[i].degree_int()
                           for i in range(8) if perm[i] == i)
    assert fixed_degrees == [1, 3, 3, 7]
    _announce(5, True, "degrees 1,1,1,3,3,7,7,7; xi3 -> xi3^2 swaps one "
              "linear pair and one degree-7 pair, fixes the rest")


def test_criterion_6_su32_extension(su32_ext_table):
    table = su32_ext_table
    assert table.group.order == 432
    rows3 = table.p_prime_rows(3)
    assert len(rows3) == 9
    for sigma in h_group(3, table.exponent):
        perm = act_on_table(table, sigma)
        assert all(perm[i] == i for i in rows3)
    non_real = [i for i in rows3 if not _is_real_row(table.rows[i])]
    assert len(non_real) == 2
    assert all(table.rows[i].degree_int() == 2 for i in non_real)
    _announce(6, True, "order 432, nine 3'-rows, Galois-trivial, exactly "
              "two non-real rows of degree 2")


def test_criterion_7_congruence_sweep():
    start = time.monotonic()
    rep = lemma_congruence_check(1, 8)
    elapsed = time.monotonic() - start
    ok = rep["ok"] and elapsed <= 60.0
    _announce(7, ok, "all torus-order prime factors satisfy their "
              "congruences for f in [1,8], %.1fs" % elapsed)


def _criterion_8_galois_closure(tables):
    for table in tables:
        m = table.exponent
        for b in range(1, m):
            if gcd(b, m) != 1:
                continue
            sigma = GaloisElement(m, b)
            act_on_table(table, sigma)
            assert power_compatibility_check(table, sigma)


def _criterion_8_match_oracle():
    checked = 0
    for family, f, p in FULL_GRID:
        g, l = global_side(family, f), local_side(family, f, p)
        H = galois_group(g, l, p)
        X = g.action(H).restrict(g.table.p_prime_rows(p))
        Y = l.action(H).restrict(l.table.p_prime_rows(p))
        if X.n > 8 or Y.n > 8:
            continue
        assert (match_actions(X, Y)[0] is not None) == \
            brute_force_match_exists(X, Y)
        checked += 1
    assert checked == len(FULL_GRID)


def _criterion_8_gallagher_and_real(family, f, p):
    g = global_side(family, f)
    table = g.table
    for row in range(len(table.rows)):
        ext_side, _, rows = find_extensions(g, row)
        a_psi_order = sum(perm[row] == row for perm in g.automorphism_perms)
        assert len(rows) == a_psi_order
        # odd cyclic stabilizer quotient: a real row has exactly one
        # real extension
        if _is_real_row(table.rows[row]) and a_psi_order % 2 == 1:
            real = [i for i in rows if _is_real_row(ext_side.table.rows[i])]
            assert len(real) == 1


def _criterion_8_d16_orbit_types():
    spec = torus_normalizer("2F4", 1, 7)
    labels = clifford_label(spec)
    T = spec.torus_subgroup()
    tt = dixon_schneider(T)
    gen_classes = [T.class_of_element(g) for g in spec.torus_gens]

    def coords(row):
        out = []
        for c in gen_classes:
            v = tt.rows[row].values[c]
            out.append(next(a for a in range(7)
                            if v == (ONE if a == 0 else root(7, a))))
        return tuple(out)

    orbits = {}
    for lab in labels.values():
        orbits[lab.s_row] = lab
    trivial = [lab for lab in orbits.values() if _s_trivial(lab)]
    assert len(trivial) == 1 and len(trivial[0].orbit) == 1
    axis = graph = 0
    for lab in orbits.values():
        if _s_trivial(lab):
            continue
        assert len(lab.orbit) == 8
        pts = [coords(r) for r in lab.orbit]
        is_axis = any(a == 0 or b == 0 for a, b in pts)
        is_graph = any(a != 0 and b != 0
                       and (b == 5 * a % 7 or a == 5 * b % 7)
                       for a, b in pts)
        assert is_axis != is_graph
        if is_axis:
            axis += 1
        else:
            graph += 1
    # At d = 7 every nonzero vector lies on an axis or graph orbit, so
    # the generic size-16 orbit type is unpopulated; the populated types
    # realize sizes 1, 8 and 8.
    assert axis == 3 and graph == 3
    eta_degrees = sorted(lab.eta_degree for lab in labels.values()
                         if _s_trivial(lab))
    assert eta_degrees == [1, 1, 1, 1, 2, 2, 2]


def test_criterion_8_property_suites(sz8_table, psl28_table, agl168_table,
                                     su32_ext_table):
    local_tables = [dixon_schneider(local_model_group(family, f, p))
                    for family, f, p in FULL_GRID]
    _criterion_8_galois_closure([sz8_table, psl28_table, agl168_table,
                                 su32_ext_table] + local_tables)
    _criterion_8_match_oracle()
    _criterion_8_gallagher_and_real("2B2", 1, 5)
    _criterion_8_gallagher_and_real("PSL2", 1, 7)
    for p in (5, 7, 13):
        assert cross_model_check("2B2", 1, p)
    _criterion_8_d16_orbit_types()
    _announce(8, True, "Galois closure, power compatibility, bijection "
              "oracle, Gallagher counts, unique real extensions, "
              "cross-model checks, d=7 torus orbit types 1+8x3+8x3 "
              "(generic size-16 type unpopulated at d=7)")


def test_criterion_9_deterministic_reports(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "galmckay", "verify", "--family", "2B2",
             "--f", "1", "--p", "5", "--format", "json",
             "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["verdict"] == {"part1": True, "part2": True}
    _announce(9, True, "two subprocess runs produced byte-identical "
              "verified reports")
