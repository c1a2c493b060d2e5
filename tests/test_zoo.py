import hashlib
from math import prod

import pytest

from galmckay.groups import (
    FiniteGroup, compose, inverse, perm_order, identity_perm,
    coset_order, induced_class_permutation,
)
from galmckay.zoo import (
    FiniteField, ZooError, suzuki_group, psl2_8, agl18_normalizer,
    small_group, field_automorphism, torus_normalizer, torus_rows,
    psl2_local_model,
)


def test_finite_field_f8():
    F = FiniteField(2, 3)
    assert F.q == 8
    for a in range(1, 8):
        assert F.mul(a, F.inv(a)) == 1
    g = F.generator()
    seen = set()
    x = 1
    for _ in range(7):
        x = F.mul(x, g)
        seen.add(x)
    assert len(seen) == 7
    assert F.frob(F.frob(F.frob(g))) == g


def test_finite_field_f9():
    F = FiniteField(3, 2)
    assert F.q == 9
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1
        assert F.frob(F.frob(a)) == a


def test_suzuki_order_and_classes():
    G = suzuki_group(1)
    assert G.degree == 65
    assert G.order == 29120
    cls = G.conjugacy_classes
    assert len(cls) == 11
    assert sorted(c.element_order for c in cls) == \
        [1, 2, 4, 4, 5, 7, 7, 7, 13, 13, 13]
    assert sum(c.size for c in cls) == 29120


def test_suzuki_two_transitive():
    G = suzuki_group(1)
    # transitive on 65 points
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in G.generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    assert len(orbit) == 65
    # stabilizer of the first point is transitive on the rest
    stab_gens = [g for g in G.generators if g[0] == 0]
    orbit = {1}
    frontier = [1]
    H = FiniteGroup(65, stab_gens)
    while frontier:
        x = frontier.pop()
        for g in H.generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    assert len(orbit) == 64


def test_suzuki_f2_order_only():
    G = suzuki_group(2)
    assert G.degree == 1025
    assert G.order == 1024 * 1025 * 31


def test_suzuki_rejects_bad_f():
    with pytest.raises(ZooError):
        suzuki_group(0)


def assert_outer(G, r):
    """r lies outside G and moves a class; an inner automorphism would fix
    every class."""
    assert r not in G
    cperm = induced_class_permutation(G, r)
    assert cperm != tuple(range(len(G.conjugacy_classes)))


def test_field_automorphism_sz8():
    G = suzuki_group(1)
    r = field_automorphism(G)
    assert perm_order(r) == 3
    assert_outer(G, r)
    assert coset_order(G, r) == 3


def test_field_automorphism_psl28():
    G = psl2_8()
    r = field_automorphism(G)
    assert coset_order(G, r) == 3
    assert_outer(G, r)


def test_field_automorphism_requires_provenance():
    with pytest.raises(ZooError):
        field_automorphism(FiniteGroup(3, [(1, 2, 0)]))


def test_psl2_8():
    G = psl2_8()
    assert G.order == 504
    assert len(G.conjugacy_classes) == 9


def test_agl18_normalizer():
    G = agl18_normalizer()
    assert G.order == 168
    s = G.sylow_subgroup(2)
    assert s.order == 8
    # normal and elementary abelian
    assert G.normalizer(s).order == 168
    assert all(perm_order(x) in (1, 2) for x in s.elements)


def test_psl2_local_model_at_2_is_agl18():
    """The Sylow 2-normalizer model of PSL2(8): x -> x + 1 and
    x -> lambda*x give AGL(1,8), of order 56, without the Frobenius map."""
    G = psl2_local_model(2)
    assert G.order == 56
    assert agl18_normalizer().frobenius_perm not in G


def test_small_group_orders():
    assert small_group("su3_2").order == 216
    ext = small_group("su3_2_ext")
    assert ext.order == 432
    assert all(g in ext for g in small_group("su3_2").generators)
    assert small_group("su3_3").order == 6048
    g22 = small_group("g2_2")
    assert g22.order == 12096
    with pytest.raises(ZooError):
        small_group("nope")


def test_sl3_psl3():
    assert small_group("sl3_4").order == 60480
    assert small_group("psl3_4").order == 20160


def test_torus_normalizer_2b2():
    s5 = torus_normalizer("2B2", 1, 5)
    assert s5.group.order == 20
    s7 = torus_normalizer("2B2", 1, 7)
    assert s7.group.order == 14
    s13 = torus_normalizer("2B2", 1, 13)
    assert s13.group.order == 52
    with pytest.raises(ZooError):
        torus_normalizer("2B2", 1, 11)


def _element_orbit_sizes(spec):
    """Orbit sizes of the complement on nontrivial torus elements."""
    T = spec.torus_subgroup()
    telems = set(T.elements)
    comp = spec.complement_gens
    sizes = []
    seen = set()
    for t in sorted(telems):
        if t in seen or t == identity_perm(spec.group.degree):
            continue
        orbit = {t}
        frontier = [t]
        while frontier:
            x = frontier.pop()
            for w in comp:
                y = compose(compose(inverse(w), x), w)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def test_torus_orbit_sizes_2b2():
    assert _element_orbit_sizes(torus_normalizer("2B2", 1, 5)) == [4]
    assert _element_orbit_sizes(torus_normalizer("2B2", 1, 7)) == [2, 2, 2]
    assert _element_orbit_sizes(torus_normalizer("2B2", 1, 13)) == [4, 4, 4]


def test_torus_orbit_sizes_d16():
    # The (C_{q2-1})^2 torus at f=1 is C7 x C7 with complement D16.
    # Nontrivial elements split into three types: "axis" (one coordinate
    # trivial), "graph" (second coordinate = first^(r+1) with r = 2^(f+1)),
    # and generic.  Axis and graph orbits have size 8; a generic orbit
    # would have size 16, but at d = 7 each of the 8 reflections fixes a
    # line of 6 nonzero vectors, accounting for all 48, so every vector is
    # fixed by exactly one reflection and the generic type is empty.
    spec = torus_normalizer("2F4", 1, 7)
    assert spec.complement_tag == "D16"
    sizes = _element_orbit_sizes(spec)
    assert sizes == [8, 8, 8, 8, 8, 8]
    assert sum(sizes) == 48


def test_torus_orbit_sizes_ree_half():
    spec = [b for label, (o, tag, b)
            in torus_rows("2G2", 1).items() if label == "(q2+1)/2x2"][0]()
    sizes = _element_orbit_sizes(spec)
    # the three involutions of the 2-torsion form a single orbit of size 3
    assert 3 in sizes


def test_complement_orders_2f4():
    want = {"(q2-1)^2": 16, "(q2+1)^2": 48, "(q2+r+1)^2": 96,
            "(q2-r+1)^2": 96, "q4-q2+1": 6, "t4+": 12, "t4-": 12}
    for label, (orders, tag, build) in torus_rows("2F4", 1).items():
        spec = build()
        n = prod(spec.torus_orders)
        assert spec.group.order == n * want[label]


def test_torus_normalizer_all_2g2_rows():
    for label, (orders, tag, build) in torus_rows("2G2", 1).items():
        spec = build()
        assert spec.group.order == prod(spec.torus_orders) * \
            {"C2": 2, "C6": 6}[tag]


@pytest.mark.parametrize("family,f,p,rows", [
    ("2F4", 1, 3, ["(q2+1)^2", "q4-q2+1"]),
    ("2G2", 1, 2, ["q2-1", "(q2+1)/2x2"]),
])
def test_torus_normalizer_rejects_prime_of_several_rows(family, f, p, rows):
    with pytest.raises(ZooError) as err:
        torus_normalizer(family, f, p)
    assert "several rows" in str(err.value)
    assert str(err.value).endswith(": " + ", ".join(rows))


@pytest.mark.parametrize("family,f,digest", [
    ("2B2", 1,
     "19a19580eb7c79c5dbb152fbe07db25898ea658026e08f96aa806803c86dc5d1"),
    ("2B2", 2,
     "aaf88fd9c766ecd0fea89e5cfd9c4461642b38b0e9994e6f22280e9ec84fcc7b"),
    ("2G2", 1,
     "a137cac17dbf2d9890b17d6b30db6f85e195e90caf0584a400e7679f0bdf79b0"),
    ("2F4", 1,
     "8c552129f62f031249cc4b08eeab588ad6504e32ac883bfc78716d4baf50104e"),
])
def test_torus_models_pinned(family, f, digest):
    # every row's labels, orders and generators, in row order; the digests
    # do not depend on PYTHONHASHSEED
    models = repr([
        (label, tuple(orders), tag, tuple(s.torus_orders),
         s.group.generators, s.torus_gens, s.complement_gens)
        for label, (orders, tag, b) in torus_rows(family, f).items()
        for s in [b()]])
    assert hashlib.sha256(models.encode()).hexdigest() == digest


def test_field_generators_are_the_least():
    """The least element of multiplicative order q - 1 in each field on
    file, checked by listing the powers of every smaller element."""
    want = {(2, 2): 2, (2, 3): 2, (2, 5): 2, (3, 2): 4}
    for (p, k), g in want.items():
        F = FiniteField(p, k)
        orders = [len({F.pow(a, e) for e in range(F.q - 1)})
                  for a in range(1, g + 1)]
        assert orders[-1] == F.q - 1 and max(orders[:-1]) < F.q - 1
        assert F.generator() == g
