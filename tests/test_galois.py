from math import gcd

import pytest

from galmckay.cyclo import ONE, Cyclotomic
from galmckay.groups import (
    FiniteGroup, induced_class_permutation, perm_pow,
)
from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, dixon_schneider,
)
from galmckay.galois import (
    GaloisError, GaloisElement, h_group, act_on_table, clifford_label,
)
from galmckay.extend import Side
from galmckay.zoo import torus_normalizer
from oracles import (
    cyclic_group, full_galois_group, galois_image, power_compatibility_check,
    symmetric_group,
)


def times_mod(m, n):
    """x -> m*x on Z/n, a realizer normalizing C_n and C_n x| <x -> u*x>."""
    return tuple(m * i % n for i in range(n))


def value_wise_perm(table, b):
    """Oracle: the row index of sigma_b applied to every value of each row."""
    return tuple(table.row_index(galois_image(row, b)) for row in table.rows)


def s_trivial(label):
    return all(v == ONE for v in label.s_values)


def test_galois_element_basics():
    s = GaloisElement(20, 29)
    assert (s.m, s.b) == (20, 9)
    assert s == GaloisElement(20, 9)
    assert hash(s) == hash(GaloisElement(20, 9))
    with pytest.raises(GaloisError):
        GaloisElement(20, 4)


def test_h_group_5_20():
    h = h_group(5, 20)
    assert sorted(s.b for s in h) == [1, 9, 13, 17]


def test_h_group_5_1820():
    h = h_group(5, 1820)
    assert len(h) == 48


def test_h_group_trivial_modulus():
    h = h_group(7, 1)
    assert len(h) == 1


def test_h_group_closed():
    residues = {s.b for s in h_group(5, 20)}
    for a in residues:
        assert pow(a, -1, 20) in residues
        for b in residues:
            assert a * b % 20 in residues


def test_h_group_rejects_composite():
    with pytest.raises(GaloisError):
        h_group(6, 20)


def test_act_on_table_identity():
    t = dixon_schneider(symmetric_group(4))
    m = t.exponent
    assert act_on_table(t, GaloisElement(m, 1)) == tuple(range(len(t.rows)))


def test_act_on_table_is_action():
    G = cyclic_group(7)
    t = dixon_schneider(G)
    sigmas = full_galois_group(t.exponent)
    for a in sigmas:
        pa = act_on_table(t, a)
        for b in sigmas:
            pb = act_on_table(t, b)
            pab = act_on_table(t, GaloisElement(t.exponent, a.b * b.b))
            composed = tuple(pb[pa[i]] for i in range(len(pa)))
            assert composed == pab


def test_act_on_table_preserves_degrees():
    G = symmetric_group(4)
    t = dixon_schneider(G)
    for sigma in full_galois_group(t.exponent):
        perm = act_on_table(t, sigma)
        for i, j in enumerate(perm):
            assert t.rows[i].degree_int() == t.rows[j].degree_int()


def test_power_compatibility_small_groups():
    for G in (cyclic_group(12), symmetric_group(4)):
        t = dixon_schneider(G)
        for sigma in full_galois_group(t.exponent):
            assert power_compatibility_check(t, sigma)


def test_power_compatibility_detects_corruption():
    G = cyclic_group(5)
    t = dixon_schneider(G)
    sigma = GaloisElement(t.exponent, 2)
    assert power_compatibility_check(t, sigma)
    bad = list(t.rows)
    i = next(k for k, r in enumerate(bad) if any(v != ONE for v in r.values))
    vals = list(bad[i].values)
    vals[1], vals[2] = vals[2], vals[1]
    bad[i] = ClassFunction(G, vals)
    from galmckay.chartab import CharacterTable
    corrupt = CharacterTable(G, bad)
    assert not power_compatibility_check(corrupt, sigma)


def test_act_on_table_matches_value_wise_action(psl28_table):
    d14 = FiniteGroup(7, [tuple((i + 1) % 7 for i in range(7)),
                          times_mod(-1, 7)], name="D14")
    ext_table = Side(dixon_schneider(d14), times_mod(2, 7),
                     3).product(1)[0].table
    tables = [dixon_schneider(symmetric_group(4)),
              dixon_schneider(cyclic_group(12)), psl28_table, ext_table,
              dixon_schneider(torus_normalizer("2B2", 1, 13).group)]
    assert ext_table.group.order == 42
    for t in tables:
        e = t.exponent
        for b in range(1, e + 1):
            if gcd(b, e) == 1:
                perm = act_on_table(t, GaloisElement(e, b))
                assert perm == value_wise_perm(t, b)
                # residues congruent mod the exponent act alike
                assert act_on_table(t, GaloisElement(e * e, b + e)) == perm


def test_act_on_table_detects_corruption():
    # two values of a non-rational row of C5's table swapped
    G = cyclic_group(5)
    t = dixon_schneider(G)
    bad = list(t.rows)
    i = next(k for k, r in enumerate(bad) if any(v != ONE for v in r.values))
    vals = list(bad[i].values)
    vals[1], vals[2] = vals[2], vals[1]
    bad[i] = ClassFunction(G, vals)
    corrupt = CharacterTable(G, bad)
    with pytest.raises(ChartabError, match="disagrees with the power map"):
        corrupt.validate()
    with pytest.raises(GaloisError, match="has not passed validate"):
        act_on_table(corrupt, GaloisElement(t.exponent, 2))


def test_act_on_table_checks_values_not_only_power_maps():
    # The rows (1,1,1), (1,2,3), (1,3,2) of C3 are closed under the power
    # map g -> g^2, which swaps the two nontrivial classes, but sigma_2
    # fixes their rational values, so the two actions disagree.  validate
    # rejects the table, and act_on_table refuses it for every residue,
    # the identity's included.
    G = cyclic_group(3)
    fake = CharacterTable(G, [ClassFunction(G, v) for v in
                              ((1, 1, 1), (1, 2, 3), (1, 3, 2))])
    with pytest.raises(ChartabError, match="disagrees with the power map"):
        fake.validate()
    for b in (2, 2, 1):
        with pytest.raises(GaloisError, match="has not passed validate"):
            act_on_table(fake, GaloisElement(3, b))
    assert not fake.validated


def test_act_on_table_value_wise_passes(monkeypatch):
    """After dixon_schneider, act_on_table applies no Galois automorphism
    to any value: validate has proved sigma_b(chi(g)) = chi(g^b).  A table
    built from the same rows is refused until it passes validate, and a
    corrupted one fails validate and stays refused."""
    calls = []
    original = Cyclotomic.galois

    def counting(self, b):
        calls.append(b)
        return original(self, b)

    monkeypatch.setattr(Cyclotomic, "galois", counting)
    G = cyclic_group(7)
    t = dixon_schneider(G)
    calls.clear()
    units = full_galois_group(t.exponent)
    assert len(units) == 6
    perms = [act_on_table(t, s) for s in units]
    assert calls == []
    assert [act_on_table(t, s) for s in units] == perms
    assert calls == []
    assert len(set(perms)) == 6
    monkeypatch.undo()
    assert perms == [value_wise_perm(t, s.b) for s in units]

    fresh = CharacterTable(G, t.rows)
    with pytest.raises(GaloisError, match="has not passed validate"):
        act_on_table(fresh, units[0])
    assert fresh.validate()
    assert [act_on_table(fresh, s) for s in units] == perms
    # chi_1 with its values at two classes swapped
    vals = list(t.rows[1].values)
    vals[1], vals[2] = vals[2], vals[1]
    bad = CharacterTable(G, t.rows[:1] + (ClassFunction(G, vals),)
                         + t.rows[2:])
    with pytest.raises(ChartabError, match="disagrees with the power map"):
        bad.validate()
    with pytest.raises(GaloisError, match="has not passed validate"):
        act_on_table(bad, units[0])


def test_joint_stabilizer_brute_force():
    # C13 x| C4 with the order-3 automorphism x -> 3x of the torus
    spec = torus_normalizer("2B2", 1, 13)
    t = dixon_schneider(spec.group)
    r, k = times_mod(3, 13), 3
    H = full_galois_group(t.exponent)
    pairs = []
    for row, psi in enumerate(t.rows):
        want = []
        for j in range(k):
            cperm = induced_class_permutation(t.group, perm_pow(r, j))
            moved = [psi.values[c] for c in cperm]
            want += [(j, s.b) for s in H
                     if all(v.galois(s.b) == w
                            for v, w in zip(moved, psi.values))]
        got = Side(t, r, k).action(H).stabilizer(row)
        assert got == frozenset(want) and len(want) == len(got)
        pairs += got
    # every row has (0, identity); some rows are fixed by a^j with j > 0
    assert len(pairs) > len(t.rows)
    assert any(j for j, _ in pairs)


def test_clifford_label_c13_c4():
    spec = torus_normalizer("2B2", 1, 13)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if s_trivial(l)]
    nontrivial = [l for l in labels.values() if not s_trivial(l)]
    assert len(trivial) == 4
    assert len(nontrivial) == 3
    assert all(len(l.orbit) == 4 for l in nontrivial)
    assert all(l.stabilizer_order == 1 for l in nontrivial)


def test_clifford_label_c5_c4():
    spec = torus_normalizer("2B2", 1, 5)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if s_trivial(l)]
    nontrivial = [l for l in labels.values() if not s_trivial(l)]
    assert len(trivial) == 4
    assert len(nontrivial) == 1
    assert nontrivial[0].eta_degree == 1


def test_clifford_label_d14():
    spec = torus_normalizer("2B2", 1, 7)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if s_trivial(l)]
    nontrivial = [l for l in labels.values() if not s_trivial(l)]
    assert len(trivial) == 2
    assert len(nontrivial) == 3
    assert all(len(l.orbit) == 2 for l in nontrivial)


def test_clifford_label_d16_types():
    # (Z7)^2 torus with D16 complement: orbits of nontrivial torus
    # characters split into axis type and graph type, three of each, all
    # of size 8 with stabilizer of order 2; the generic type with orbit
    # size 16 is provably empty at d = 7 since each of the 8 reflections
    # fixes exactly one of the 48 nontrivial characters' worth of lines.
    spec = torus_normalizer("2F4", 1, 7)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if s_trivial(l)]
    nontrivial = [l for l in labels.values() if not s_trivial(l)]
    # D16 has 7 irreducibles, so 7 labels over the trivial character
    assert len(trivial) == 7
    assert sorted(l.eta_degree for l in trivial) == [1, 1, 1, 1, 2, 2, 2]
    orbit_reps = {l.s_row for l in nontrivial}
    assert len(orbit_reps) == 6
    for l in nontrivial:
        assert len(l.orbit) == 8
        assert l.stabilizer_order == 2
    # two labels per orbit (stabilizer C2 has two linear characters)
    assert len(nontrivial) == 12
    # total count and degree identity were certified inside clifford_label
    assert len(labels) == 19


def test_clifford_label_builds_each_stabilizer_once(monkeypatch):
    from galmckay import galois
    from galmckay.groups import FiniteGroup

    spec = torus_normalizer("2F4", 1, 7)
    built, tables = [], []
    subgroup = FiniteGroup.subgroup

    def counting_subgroup(self, gens, name=None):
        built.append(frozenset(map(tuple, gens)))
        return subgroup(self, gens, name)

    def counting_table(G, *args):
        tables.append(G)
        return dixon_schneider(G, *args)

    monkeypatch.setattr(FiniteGroup, "subgroup", counting_subgroup)
    monkeypatch.setattr(galois, "dixon_schneider", counting_table)
    labels = clifford_label(spec)
    assert len(labels) == len(tables[0].conjugacy_classes)
    # W, then W_s and N_s once per distinct stabilizer (4 of 7 orbits)
    assert len(built) == len(set(built)) == 9
    # N, T and one W_s table per distinct stabilizer
    assert len(tables) == 6
    assert len({id(G) for G in tables}) == 6
