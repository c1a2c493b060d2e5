import pytest

from galmckay.cyclo import ONE, make_root, rational
from galmckay.groups import cyclic_group, symmetric_group
from galmckay.chartab import dixon_schneider, ClassFunction
from galmckay.galois import (
    GaloisError, GaloisElement, h_group, full_galois_group,
    act_on_table, power_compatibility_check, clifford_label,
)
from galmckay.zoo import torus_normalizer


def test_galois_element_basics():
    s = GaloisElement(20, 9)
    t = GaloisElement(20, 13)
    assert s.compose(t).b == (9 * 13) % 20
    assert s.compose(s.inverse()).is_identity()
    with pytest.raises(GaloisError):
        GaloisElement(20, 4)
    z = make_root(5, 1)
    assert s.apply(z) == make_root(5, 4)


def test_h_group_5_20():
    h = h_group(5, 20)
    assert sorted(h.residues()) == [1, 9, 13, 17]


def test_h_group_5_1820():
    h = h_group(5, 1820)
    assert len(h) == 48


def test_h_group_trivial_modulus():
    h = h_group(7, 1)
    assert len(h) == 1


def test_h_group_closed():
    h = h_group(5, 20)
    elems = set(h.elements)
    for a in h:
        assert a.inverse() in elems
        for b in h:
            assert a.compose(b) in elems


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
            pab = act_on_table(t, a.compose(b))
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


def test_clifford_label_c13_c4():
    spec = torus_normalizer("2B2", 1, 13)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if l.s_trivial]
    nontrivial = [l for l in labels.values() if not l.s_trivial]
    assert len(trivial) == 4
    assert len(nontrivial) == 3
    assert all(len(l.orbit) == 4 for l in nontrivial)
    assert all(l.stabilizer_order == 1 for l in nontrivial)


def test_clifford_label_c5_c4():
    spec = torus_normalizer("2B2", 1, 5)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if l.s_trivial]
    nontrivial = [l for l in labels.values() if not l.s_trivial]
    assert len(trivial) == 4
    assert len(nontrivial) == 1
    assert nontrivial[0].eta_degree == 1


def test_clifford_label_d14():
    spec = torus_normalizer("2B2", 1, 7)
    labels = clifford_label(spec)
    trivial = [l for l in labels.values() if l.s_trivial]
    nontrivial = [l for l in labels.values() if not l.s_trivial]
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
    trivial = [l for l in labels.values() if l.s_trivial]
    nontrivial = [l for l in labels.values() if not l.s_trivial]
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
