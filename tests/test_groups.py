import random
from functools import cache

import pytest

from galmckay.cli import _GROUP_BUILDERS
from galmckay.groups import (
    FiniteGroup, GroupError, compose, inverse, conjugate, perm_order,
    perm_pow, identity_perm, semidirect_product, check_realizer,
    coset_order, induced_class_permutation,
)
from oracles import (
    base_key_lookup, cyclic_group, dihedral_group, symmetric_group,
)


def test_perm_helpers():
    p = (1, 2, 0, 3)
    assert compose(p, inverse(p)) == identity_perm(4)
    assert perm_order(p) == 3
    assert perm_pow(p, 3) == identity_perm(4)
    assert perm_pow(p, -1) == inverse(p)


def _map_compose(p, q):
    return tuple(map(q.__getitem__, p))


@pytest.mark.parametrize("degree", [0, 1, 2, 9, 65])
def test_products_match_map_form(degree):
    """compose (an itemgetter call from two points on), inverse and
    perm_pow give the tuples that products built by tuple(map(...)) do."""
    rng = random.Random(degree)
    ident = identity_perm(degree)
    for _ in range(10):
        p = tuple(rng.sample(range(degree), degree))
        q = tuple(rng.sample(range(degree), degree))
        pq = compose(p, q)
        assert type(pq) is tuple and pq == _map_compose(p, q)
        pi = inverse(p)
        assert _map_compose(p, pi) == ident == _map_compose(pi, p)
        acc = ident
        for k in range(8):
            assert perm_pow(p, k) == acc
            assert _map_compose(perm_pow(p, -k), acc) == ident
            acc = _map_compose(acc, p)


def test_trivial_and_cyclic():
    t = FiniteGroup(1, [])
    assert t.order == 1
    c5 = cyclic_group(5)
    assert c5.order == 5
    assert len(c5.conjugacy_classes) == 5


def test_symmetric_group():
    s4 = symmetric_group(4)
    assert s4.order == 24
    assert len(s4.conjugacy_classes) == 5
    sizes = sorted(c.size for c in s4.conjugacy_classes)
    assert sizes == [1, 3, 6, 6, 8]
    assert sum(sizes) == 24


def test_elementary_abelian_8():
    gens = []
    for b in range(3):
        perm = [i ^ (1 << b) for i in range(8)]
        gens.append(tuple(perm))
    g = FiniteGroup(8, gens)
    assert g.order == 8
    assert len(g.conjugacy_classes) == 8
    assert all(c.size == 1 for c in g.conjugacy_classes)


def test_dihedral_14_classes():
    d = dihedral_group(7)
    assert d.order == 14
    assert len(d.conjugacy_classes) == 5


def test_class_ordering_deterministic():
    d = dihedral_group(7)
    key = [(c.element_order, c.size) for c in d.conjugacy_classes]
    assert key == sorted(key)
    assert d.conjugacy_classes[0].element_order == 1


def test_power_map():
    d = dihedral_group(7)
    for c in range(len(d.conjugacy_classes)):
        assert d.power_map(c, 1) == c
    # a class of 7-elements: squaring then cubing returns g^6 = g^-1's class
    for c, cl in enumerate(d.conjugacy_classes):
        if cl.element_order == 7:
            c2 = d.power_map(c, 2)
            assert d.conjugacy_classes[c2].element_order == 7
            assert d.power_map(c2, 3) == d.power_map(c, 6)


def test_sylow_and_normalizer():
    s4 = symmetric_group(4)
    p2 = s4.sylow_subgroup(2)
    assert p2.order == 8
    p3 = s4.sylow_subgroup(3)
    assert p3.order == 3
    n3 = s4.normalizer(p3)
    assert n3.order == 6
    assert s4.normalizer(s4.subgroup(s4.generators)).order == 24
    with pytest.raises(GroupError):
        s4.sylow_subgroup(5)


def test_enumeration_refuses_a_count_the_chain_does_not_give():
    """The count of enumerated elements is checked against the chain's
    order by a raise, so the check also runs under python -O."""
    s4 = symmetric_group(4)
    s4._order = 25
    with pytest.raises(GroupError, match="enumerated 24 elements"):
        s4.elements


def test_normalizer_refuses_a_walk_that_misses_a_conjugate(monkeypatch):
    """|N_G(H)| times the number of conjugates of H must be |G|: a walk
    that drops one new conjugate is refused by a raise."""
    s4 = symmetric_group(4)
    p3 = s4.sylow_subgroup(3)
    walk = FiniteGroup._conjugate_walk

    def dropping(G, A):
        dropped = False
        for step in walk(G, A):
            if step[3] is None and not dropped:
                dropped = True
                continue
            yield step

    monkeypatch.setattr(FiniteGroup, "_conjugate_walk", dropping)
    with pytest.raises(GroupError, match="order 6 and 3 conjugates"):
        s4.normalizer(p3)


def neg_mod(n):
    """x -> -x on Z/n: conjugation by it inverts the cyclic generator."""
    return tuple((-i) % n for i in range(n))


def test_group_map_checks():
    c6 = cyclic_group(6)
    inv = neg_mod(6)
    assert check_realizer(c6, inv) == inv
    assert coset_order(c6, inv) == 2
    # not inner: the realizer lies outside C6 and moves a class
    assert inv not in c6
    assert induced_class_permutation(c6, inv) != tuple(range(6))
    with pytest.raises(GroupError):
        # a 3-cycle on the points does not normalize C6
        check_realizer(c6, (1, 2, 0, 3, 4, 5))
    with pytest.raises(GroupError):
        induced_class_permutation(c6, (1, 2, 0, 3, 4, 5))


def test_induced_class_permutation_identity_and_inner():
    s4 = symmetric_group(4)
    assert induced_class_permutation(s4, identity_perm(4)) == tuple(range(5))
    g = s4.elements[7]
    assert induced_class_permutation(s4, check_realizer(s4, g)) == \
        tuple(range(5))


def test_semidirect_dihedral():
    c7 = cyclic_group(7)
    inv = neg_mod(7)
    sd = semidirect_product(c7, inv)
    assert sd.order == 14
    d = dihedral_group(7)
    assert sorted(c.size for c in sd.conjugacy_classes) == \
        sorted(c.size for c in d.conjugacy_classes)
    # the realizer is the complement generator and induces the automorphism
    assert inv in sd and all(g in sd for g in c7.generators)
    for g in c7.generators:
        assert conjugate(g, inv) == inverse(g)


def test_semidirect_c13_c4():
    c13 = cyclic_group(13)
    r = tuple(8 * i % 13 for i in range(13))
    assert conjugate(c13.generators[0], r) == perm_pow(c13.generators[0], 8)
    sd = semidirect_product(c13, r)
    assert sd.order == 52
    assert len(sd.conjugacy_classes) == 7


def test_semidirect_trivial():
    s4 = symmetric_group(4)
    sd = semidirect_product(s4, identity_perm(4))
    assert sd.order == 24
    assert sorted(c.size for c in sd.conjugacy_classes) == \
        sorted(c.size for c in s4.conjugacy_classes)


def test_semidirect_rejects_wrong_order():
    # k lives on the side: x -> -x has coset order 2, so C7 x| C3 under
    # it would have order 14, not 21
    from galmckay.chartab import dixon_schneider
    from galmckay.extend import ExtendError, Side

    c7 = cyclic_group(7)
    with pytest.raises(ExtendError, match="order 14, not 3/1"):
        Side(dixon_schneider(c7), neg_mod(7), 3).product(1)


def test_semidirect_with_realizer():
    # S3 inside S4 point-stabilizer style: use realizer for C3 x C2 demo
    c3 = FiniteGroup(3, [(1, 2, 0)], name="C3")
    r = (0, 2, 1)  # transposition inverting the 3-cycle by conjugation
    sd = semidirect_product(c3, r)
    assert sd.order == 6
    assert sd.degree == 3
    assert r in sd
    # a realizer inside the group gives the group, as one coset
    inner = semidirect_product(c3, (1, 2, 0))
    assert (inner.order, inner._k, inner.generators) == (3, 1, c3.generators)
    assert len(inner.conjugacy_classes) == 3


# -- the coset product against the enumerated product -------------------------

def product_cases():
    """(G, r, k, product) for small products, the non-split ones among
    them, PSL(2,8) x| C3, the local products of the full targets and
    Sz(8) x| C3; the last ones are the products verify builds.  The small
    ones come first, so that a broken product fails on them before verify
    builds its tables."""
    from galmckay.verify import global_side, list_targets, local_side
    from oracles import nonsplit_cases

    c3 = FiniteGroup(3, [(1, 2, 0)], name="C3")
    # Dic3 = C3 x| C4 with r^2 centralizing C3: in the coset C3 r^2 the
    # classes of C3 fuse only under conjugation by r
    c3_7 = FiniteGroup(7, [(1, 2, 0, 3, 4, 5, 6)], name="C3")
    # C11 x| C5 and C7 x| C6 under x -> 3x: cosets j > k/2 are read as
    # the inverses of coset k - j, and coset 3 of C7 x| C6 is its own pair
    small = [(cyclic_group(7), neg_mod(7), 2),
             (cyclic_group(13), tuple(8 * i % 13 for i in range(13)), 4),
             (cyclic_group(11), tuple(3 * i % 11 for i in range(11)), 5),
             (cyclic_group(7), tuple(3 * i % 7 for i in range(7)), 6),
             (c3, (0, 2, 1), 2),
             (c3_7, (0, 2, 1, 4, 5, 6, 3), 4),
             (symmetric_group(4), identity_perm(4), 1)] + nonsplit_cases()
    for G, r, k in small:
        yield G, r, k, semidirect_product(G, r)
    sides = [global_side("PSL2", 1)]
    sides += [local_side(t["family"], t["f"], t["p"])
              for t in list_targets() if t["mode"] == "full"]
    sides.append(global_side("2B2", 1))
    for s in sides:
        yield s.table.group, s.realizer, s.k, s.product(1)[0].table.group


def product_elements(G, r, k):
    """The elements of G x| <r>, m r^j at index j*|G| + G.index_of(m)."""
    elements = G.elements
    return [compose(m, rj) for rj in (perm_pow(r, j) for j in range(k))
            for m in elements]


def brute_class_matrix(elements, classes, class_of_element, i):
    """M[j][k] = #{x in C_i : x^-1 z_k in C_j}, by composing permutations;
    elements[t] is the element numbered t."""
    M = [[0] * len(classes) for _ in classes]
    for t in classes[i].indices:
        xi = inverse(elements[t])
        for k, cl in enumerate(classes):
            M[class_of_element(compose(xi, cl.rep))][k] += 1
    return M


def checked_classes(H):
    """Every class of a group below 2,000 elements.  Above that, the
    smallest classes until they hold 64 elements, and the smallest class
    in each coset of a product."""
    classes = H.conjugacy_classes
    if H.order < 2000:
        return range(len(classes))
    n = H.order // getattr(H, "_k", 1)
    picked, held, smallest = set(), 0, {}
    for c in sorted(range(len(classes)), key=lambda c: classes[c].size):
        if held < 64:
            picked.add(c)
            held += classes[c].size
        smallest.setdefault(classes[c].indices[0] // n, c)
    return sorted(picked | set(smallest.values()))


def test_coset_product_matches_enumerated_product():
    from galmckay.chartab import dixon_schneider
    from oracles import semidirect_product_by_enumeration

    for G, r, k, H in product_cases():
        O = semidirect_product_by_enumeration(G, r)
        elements = product_elements(G, r, k)
        o_elements = O.elements
        assert H.order == k * G.order, H.name
        assert (H.order, H.exponent) == (O.order, O.exponent), H.name
        assert len(H.conjugacy_classes) == len(O.conjugacy_classes)
        for a, b in zip(H.conjugacy_classes, O.conjugacy_classes):
            assert (a.size, a.element_order) == (b.size, b.element_order)
            members = {elements[i] for i in a.indices}
            assert members == {o_elements[i] for i in b.indices}, H.name
            assert a.rep == elements[a.indices[0]]
        for i, x in enumerate(elements):
            assert H.index_of(x) == i
            assert H.class_of_element(x) == O.class_of_element(x)
        for i in checked_classes(H):
            assert H.class_matrix(i) == brute_class_matrix(
                elements, H.conjugacy_classes, O.class_of_element, i), \
                (H.name, i)
        assert [row.values for row in dixon_schneider(H).rows] == \
            [row.values for row in dixon_schneider(O).rows], H.name


def test_coset_product_membership():
    c7 = cyclic_group(7)
    H = semidirect_product(c7, neg_mod(7))
    assert neg_mod(7) in H and c7.generators[0] in H
    assert identity_perm(7) in H
    # the affine map x -> 2x is in no coset of C7
    assert tuple(2 * i % 7 for i in range(7)) not in H
    assert (0, 1, 2) not in H and (0,) * 7 not in H
    with pytest.raises(KeyError):
        H.class_of_element(tuple(2 * i % 7 for i in range(7)))


def cold_verify_2b2_13(monkeypatch):
    """verify_target("2B2", 1, 13) with fresh caches of the sides."""
    from functools import cache

    from galmckay import verify

    for name in ("_field_action", "global_side", "local_side"):
        monkeypatch.setattr(verify, name,
                            cache(getattr(verify, name).__wrapped__))
    assert verify.verify_target("2B2", 1, 13)["status"] == "verified"


def test_verify_enumerates_no_group_above_sz8(monkeypatch):
    """A cold verify 2B2 1 13 enumerates Sz(8) and smaller groups, never
    its extension product Sz(8) x| C3."""
    orders = []
    enumerate_group = FiniteGroup._enumerate

    def spy(G):
        if G._right is None:
            orders.append(G.order)
        enumerate_group(G)

    monkeypatch.setattr(FiniteGroup, "_enumerate", spy)
    cold_verify_2b2_13(monkeypatch)
    assert 29120 in orders
    assert max(orders) == 29120


def test_verify_rebuilds_few_sz8_elements(monkeypatch):
    """A cold verify 2B2 1 13 rebuilds class representatives and the
    prefix of Sz(8) that sylow_subgroup reads, never all 29,120 of its
    permutations."""
    rebuilt = []
    walk, element = FiniteGroup._walk_elements, FiniteGroup.element

    def walk_spy(G):
        for x in walk(G):
            if G.order == 29120:
                rebuilt.append(x)
            yield x

    def element_spy(G, i):
        x = element(G, i)
        if G.order == 29120:
            rebuilt.append(x)
        return x

    monkeypatch.setattr(FiniteGroup, "_walk_elements", walk_spy)
    monkeypatch.setattr(FiniteGroup, "element", element_spy)
    cold_verify_2b2_13(monkeypatch)
    assert 0 < len(rebuilt) < 100


@cache
def chartab_group(tag):
    """The group of chartab --group tag, built once for this module."""
    return _GROUP_BUILDERS[tag]()


def table_cases():
    """(G, realizer or None) for the base groups of product_cases and the
    chartab groups below 10,000 elements, each group once."""
    seen = set()
    for G, r, k, _ in product_cases():
        if id(G) not in seen:
            seen.add(id(G))
            yield G, (r if k > 1 else None)
    for tag in sorted(_GROUP_BUILDERS):
        G = chartab_group(tag)
        if G.order < 10 ** 4 and tag != "sz8":
            yield G, None


def test_tables_match_brute_force():
    """R, L and C tables, tree words and class matrices of FiniteGroup
    against products and conjugates of the rebuilt permutations."""
    rng = random.Random(16)
    for G, r in table_cases():
        elements = G.elements
        index = {x: i for i, x in enumerate(elements)}
        assert len(index) == G.order, G.name
        for i in rng.sample(range(G.order), min(G.order, 50)):
            assert G.element(i) == elements[i], (G.name, i)
        for s, g in enumerate(G.generators):
            assert G._right[s] == [index[compose(x, g)] for x in elements]
        # the tree: e_i is its parent times a generator
        for i in range(1, G.order):
            assert elements[i] == compose(elements[G._parent[i - 1]],
                                          G.generators[G._gen[i - 1]])
        picks = rng.sample(range(G.order), min(G.order, 2))
        for h in picks:
            assert G._tree_walk(h, G._right) == \
                [index[compose(elements[h], x)] for x in elements], G.name
        for s, g in enumerate(G.generators):
            gi = inverse(g)
            assert G.conjugation_table(s) == \
                [index[compose(compose(gi, x), g)] for x in elements]
            assert G.conjugation_table(s) is G.conjugation_table(s)
        # a realizer outside G acts by conjugating permutations
        if r is not None:
            for x in elements:
                y = conjugate(x, r)
                assert G.index_of(y) == index[y], G.name
        S = rng.sample(range(G.order), min(G.order, 200))
        for i in picks + [0]:
            assert G.times(S, i) == \
                [index[compose(elements[x], elements[i])] for x in S]
        for i in checked_classes(G):
            assert G.class_matrix(i) == brute_class_matrix(
                elements, G.conjugacy_classes, G.class_of_element, i), \
                (G.name, i)
        # classes are unions of C-table orbits under every generator
        for cl in G.conjugacy_classes:
            members = set(cl.indices)
            for s in range(len(G.generators)):
                assert set(G.conjugate_indices(cl.indices, s)) == members


def test_coset_product_times_match_brute_force():
    """SemidirectProduct.times: x z read as m (r^a z' r^-a) r^(a+b)."""
    rng = random.Random(61)
    for G, r, k, H in product_cases():
        elements = product_elements(G, r, k)
        n = G.order
        for a in range(k):
            S = rng.sample(range(a * n, (a + 1) * n), min(n, 100))
            for zi in rng.sample(range(H.order), min(H.order, 6)):
                assert H.times(S, zi) == [
                    H.index_of(compose(elements[x], elements[zi]))
                    for x in S], (H.name, a, zi)


def passed_generators(monkeypatch, build, *args) -> tuple:
    """(build(*args), the generators build passes to FiniteGroup)."""
    from galmckay import zoo

    passed = []

    def spy(degree, generators, name="G"):
        passed.append([tuple(g) for g in generators])
        return FiniteGroup(degree, generators, name)

    with monkeypatch.context() as m:
        m.setattr(zoo, "FiniteGroup", spy)
        G = build(*args)
    (gens,) = passed
    return G, gens


@pytest.mark.parametrize("tag, every, sample",
                         [("su3_2", 19, None), ("su3_3", 67, 1000)],
                         ids=["su3_2-19", "su3_3-67"])
def test_kept_generators_keep_classes(monkeypatch, tag, every, sample):
    """A group keeps fewer generators than zoo passes in, and classes read
    from the kept ones are still classes: conjugation by every generator
    passed in maps each class into itself.  su3_2 is checked on every
    element, and its classes are exactly the orbits under all generators
    passed in; su3_3 on the class representatives and a seeded sample."""
    from galmckay.groups import _orbits
    from galmckay.zoo import small_group

    G, passed = passed_generators(monkeypatch, small_group, tag)
    assert len(set(passed) - {identity_perm(G.degree)}) == every
    assert len(G.generators) < every
    assert set(G.generators) < set(passed)
    classes = G.conjugacy_classes
    if sample is None:
        tables = [[G.index_of(conjugate(x, g)) for x in G.elements]
                  for g in passed]
        assert [list(cl.indices) for cl in classes] == sorted(
            _orbits(G.order, tables),
            key=lambda o: (perm_order(G.element(o[0])), len(o), o[0]))
        return
    indices = [cl.indices[0] for cl in classes] + random.Random(3).sample(
        range(G.order), sample)
    for i in indices:
        x, c = G.element(i), G._class_of[i]
        assert all(G.class_of_element(conjugate(x, g)) == c for g in passed)


@pytest.mark.parametrize("tag", ["su3_2", "su3_3"])
def test_table_does_not_depend_on_the_generators_kept(monkeypatch, tag):
    """The generators zoo passes in, shuffled with a fixed seed, leave the
    group another kept set and the same table up to row and column
    order."""
    from galmckay.chartab import dixon_schneider
    from galmckay.verify import tables_equivalent
    from galmckay.zoo import small_group

    G, passed = passed_generators(monkeypatch, small_group, tag)
    random.Random(5).shuffle(passed)
    H = FiniteGroup(G.degree, passed, name=tag + "-shuffled")
    assert H.order == G.order
    assert set(H.generators) != set(G.generators)
    assert tables_equivalent(dixon_schneider(G), dixon_schneider(H))


def test_sz8_kernel_memory_within_estimate(monkeypatch):
    """The tracemalloc peak of enumerating Sz(8), its classes and the 4
    class matrices its table needs stays within enumeration_bytes and
    under 4.5 MiB (it reads about 4 MiB).  What is still held after the classes of Sz(8) and of Sz(8) x| C3 stays
    under 5 MiB: the base-key map does not outlive the enumeration, and
    the write-once per-element integers are int32 arrays."""
    import tracemalloc

    from galmckay.groups import enumeration_bytes
    from galmckay.zoo import field_automorphism, suzuki_group

    G, passed = passed_generators(monkeypatch, suzuki_group, 1)
    assert (G.order, len(G.base), len(G.generators)) == (29120, 3, 3)
    # the group keeps every generator suzuki_group passes in
    assert G.generators == tuple(passed)
    frob = field_automorphism(G)
    tracemalloc.start()
    try:
        G.conjugacy_classes
        for i in (1, 2, 8, 5):   # the classes dixon_schneider uses
            G.class_matrix(i)
        _, peak = tracemalloc.get_traced_memory()
        E = semidirect_product(G, frob)
        E.conjugacy_classes
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= enumeration_bytes(29120, 3, 3)
    assert peak <= 4.5 * 2 ** 20
    assert held <= 5 * 2 ** 20
    for H in (G, E):
        assert not any(isinstance(v, dict) and len(v) >= G.order
                       for v in vars(H).values()), H.name
    # one tree word per transversal element: 65 + 64 + 7
    assert sum(map(len, G._transversal)) == 136
    for a in (G._parent, G._gen, G._class_of, E._class_of):
        assert a.typecode == "i"
    for H in (G, E):
        assert all(cl.indices.typecode == "i" for cl in H.conjugacy_classes)


def test_induced_class_permutation_brute_force():
    # oracle: conjugate every element of each class by the realizer and
    # compare the image set with the class the permutation names
    from galmckay.verify import stable_sylow_setup
    from galmckay.zoo import field_automorphism, psl2_8

    G = psl2_8()
    frob = field_automorphism(G)
    cases = [(G, frob)]
    for p in (2, 3, 7):
        cases.append(stable_sylow_setup(G, p, frob))
    for H, r in cases:
        cperm = induced_class_permutation(H, r)
        assert sorted(cperm) == list(range(len(H.conjugacy_classes)))
        elements = H.elements
        for c, cl in enumerate(H.conjugacy_classes):
            image = {conjugate(elements[i], r) for i in cl.indices}
            target = H.conjugacy_classes[cperm[c]]
            assert image == {elements[i] for i in target.indices}
    assert any(induced_class_permutation(H, r) !=
               tuple(range(len(H.conjugacy_classes))) for H, r in cases)


def test_class_sizes_divide_order():
    for g in (symmetric_group(4), dihedral_group(9), cyclic_group(12)):
        for c in g.conjugacy_classes:
            assert g.order % c.size == 0
        assert sum(c.size for c in g.conjugacy_classes) == g.order


# -- the base-image kernel against the former whole-permutation kernel ------

def reference_kernel(G):
    """The former kernel: BFS and class orbits keyed by whole permutations.

    Returns (elements, class records (rep, size, element order, indices),
    class_of, index) with the same ordering rules as FiniteGroup.
    """
    ident = identity_perm(G.degree)
    elements, index = [ident], {ident: 0}
    for e in elements:
        for g in G.generators:
            ne = compose(e, g)
            if ne not in index:
                index[ne] = len(elements)
                elements.append(ne)
    gen_pairs = [(inverse(g), g) for g in G.generators]
    raw, seen = [], set()
    for start in range(len(elements)):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        for xi in orbit:
            for gi, g in gen_pairs:
                yi = index[compose(compose(gi, elements[xi]), g)]
                if yi not in seen:
                    seen.add(yi)
                    orbit.append(yi)
        raw.append(sorted(orbit))
    keyed = sorted(((perm_order(elements[o[0]]), len(o), o[0], o)
                    for o in raw), key=lambda t: t[:3])
    classes = [(elements[mi], size, eo, tuple(o))
               for eo, size, mi, o in keyed]
    class_of = [0] * len(elements)
    for c, cl in enumerate(classes):
        for i in cl[3]:
            class_of[i] = c
    return elements, classes, class_of, index


def oracle_groups():
    from galmckay.verify import list_targets, local_model_group
    from galmckay.zoo import agl18_normalizer, psl2_8, small_group

    # D520 on 260 points: the tuple base keys of degrees above 256
    groups = [psl2_8(), agl18_normalizer(), symmetric_group(4),
              dihedral_group(9), dihedral_group(260), cyclic_group(12),
              cyclic_group(5)]
    groups += [small_group(tag) for tag in ("su3_2", "su3_2_ext", "su3_3")]
    groups += [local_model_group(t["family"], t["f"], t["p"])
               for t in list_targets()]
    # fresh copies: nothing cached by other tests
    return [FiniteGroup(G.degree, G.generators, name=G.name) for G in groups]


def test_base_image_kernel_matches_reference():
    from sympy import primefactors

    for G in oracle_groups():
        elements, classes, class_of, index = reference_kernel(G)
        assert G.elements == elements, G.name
        assert [(cl.rep, cl.size, cl.element_order, tuple(cl.indices))
                for cl in G.conjugacy_classes] == classes, G.name
        for i, x in enumerate(elements):
            assert G.index_of(x) == i
            assert G.class_of_element(x) == class_of[i]
        for i in checked_classes(G):
            assert G.class_matrix(i) == brute_class_matrix(
                elements, G.conjugacy_classes,
                lambda x: class_of[index[x]], i), (G.name, i)
        for c, cl in enumerate(classes):
            for k in primefactors(G.exponent) + [-1, G.exponent + 1]:
                assert G.power_map(c, k) == \
                    class_of[index[perm_pow(cl[0], k)]], (G.name, c, k)


def test_stabilizer_chain_matches_sympy():
    """Order and membership before enumeration against sympy's
    PermutationGroup; then the base keys tell the elements apart."""
    import random
    from operator import itemgetter

    from sympy.combinatorics import Permutation, PermutationGroup

    rng = random.Random(5)
    for G in oracle_groups() + [symmetric_group(12)]:
        S = PermutationGroup([Permutation(list(g)) for g in G.generators]
                             or [Permutation(list(range(G.degree)))])
        assert G.order == S.order(), G.name
        members = list(G.generators)
        for _ in range(20):
            x = identity_perm(G.degree)
            for _ in range(rng.randrange(1, 12)):
                x = compose(x, rng.choice(G.generators))
            members.append(x)
        assert all(x in G for x in members), G.name
        others = [tuple(rng.sample(range(G.degree), G.degree))
                  for _ in range(20)]
        if G.degree == 5:
            others.append(tuple((2 * x + 1) % 5 for x in range(5)))
        for x in others:
            assert (x in G) == S.contains(Permutation(list(x))), (G.name, x)
        assert G._right is None, G.name   # nothing enumerated so far
        if G.order < 10 ** 6:
            keys = {itemgetter(*G.base)(x) for x in G.elements}
            assert len(keys) == G.order, G.name
    assert tuple((2 * x + 1) % 5 for x in range(5)) not in cyclic_group(5)


def test_normalizer_matches_brute_force():
    from galmckay.zoo import psl2_8

    for G in (psl2_8(), symmetric_group(4)):
        for p in sorted({cl.element_order for cl in G.conjugacy_classes}):
            if p == 1 or any(p % q == 0 for q in range(2, p)):
                continue
            H = G.sylow_subgroup(p)
            hset = set(H.elements)
            brute = {g for g in G.elements
                     if {conjugate(h, g) for h in H.generators} <= hset}
            assert set(G.normalizer(H).elements) == brute, (G.name, p)
    with pytest.raises(GroupError):
        # the normalizer is computed for subgroups only
        cyclic_group(5).normalizer(FiniteGroup(5, [(1, 0, 2, 3, 4)]))


# -- chain numbering against the base-key lookup ------------------------------

def key_twin(H, base, x):
    """A permutation outside H with the images of base under x: x after a
    transposition of two points outside base that is not in H; None if
    there is no such transposition."""
    rest = [a for a in range(H.degree) if a not in base]
    for a, b in zip(rest, rest[1:]):
        swap = list(range(H.degree))
        swap[a], swap[b] = b, a
        if tuple(swap) not in H:
            return compose(tuple(swap), x)
    return None


@pytest.mark.parametrize("tag", sorted(_GROUP_BUILDERS))
def test_chain_numbering_matches_base_key_lookup(tag):
    """index_of numbers every element of each chartab group, Sz(8) and
    PSL(2,8) among them, as the base-key lookup does, and _number refuses
    permutations that share a member's base key."""
    G = chartab_group(tag)
    elements = G.elements
    number = base_key_lookup(G, elements)
    step = G.order // 40 + 1
    for i, x in enumerate(elements):
        assert G.index_of(x) == number(x) == i, (tag, i)
        if i % step == 0:
            twin = key_twin(G, G.base, x)
            assert G._number(twin) is None and number(twin) is None, tag
            assert twin not in G


def test_chain_numbering_of_short_chains():
    """The trivial group (no chain levels) and groups whose base is
    padded with point 0."""
    trivial = FiniteGroup(3, [], name="1")
    c3 = FiniteGroup(4, [(0, 2, 3, 1)], name="C3")   # fixes point 0
    c5 = cyclic_group(5)
    assert (trivial.base, c3.base, c5.base) == ((0, 0), (1, 0), (0, 0))
    for G in (trivial, c3, c5):
        elements = G.elements
        number = base_key_lookup(G, elements)
        for i, x in enumerate(elements):
            assert G.index_of(x) == number(x) == i, G.name
            twin = key_twin(G, G.base, x)
            assert G._number(twin) is None and number(twin) is None
            with pytest.raises(KeyError):
                G.index_of(twin)
    assert trivial._transversal == []
    assert [len(words) for words in c5._transversal] == [5]


def test_coset_product_numbers_every_coset():
    """SemidirectProduct.index_of numbers elements of every coset G r^j as
    G's base-key lookup numbers them after r^-j, and refuses a
    permutation outside the product whose image after r^-j has the base
    key of a member of G."""
    rng = random.Random(25)
    no_twins = set()
    for G, r, k, H in product_cases():
        elements = G.elements
        number = base_key_lookup(G, elements)
        n = G.order
        for j in range(k):
            rj, rinv = perm_pow(r, j), perm_pow(r, -j)
            for i in rng.sample(range(n), min(n, 30)):
                x = compose(elements[i], rj)
                assert H.index_of(x) == j * n + number(compose(x, rinv)) \
                    == j * n + i, (H.name, j, i)
                twin = key_twin(H, G.base, x)
                if twin is None:
                    no_twins.add(H.name)
                    continue
                assert twin not in H
                with pytest.raises(KeyError):
                    H.index_of(twin)
    # S3 on 3 points holds every swap; S4's base leaves one point out
    assert no_twins == {"C3.2", "S4.1"}


def test_coprime_cosets_need_no_realizer_table():
    """In a coset G r^j with gcd(j, k) = 1 the orbits of G's maps are
    closed under conjugation by r; in the coset C3 r^2 of
    Dic3 = C3 x| C4 they are not, so r fuses classes there."""
    from math import gcd

    from galmckay.groups import _orbits

    needed = []
    for G, r, k, H in product_cases():
        C = [G.index_of(conjugate(x, r)) for x in G.elements]
        for j in range(1, k):
            maps = H._coset_maps(j)
            fused = _orbits(G.order, maps + [C])
            if gcd(j, k) == 1:
                assert _orbits(G.order, maps) == fused, (H.name, j)
            else:
                needed.append(_orbits(G.order, maps) != fused)
    assert any(needed)


def brute_coset_classes(G, r, j, gens):
    """Orbits of the coset G r^j under conjugation by the permutations
    gens, as sets of product numbers j*|G| + G.index_of(m), found by
    composing the rebuilt elements."""
    n = G.order
    rj = perm_pow(r, j)
    elements = [compose(m, rj) for m in G.elements]
    index = {x: j * n + i for i, x in enumerate(elements)}
    pairs = [(inverse(g), g) for g in gens]
    seen, orbits = set(), []
    for x in elements:
        if index[x] in seen:
            continue
        orbit, queue = {index[x]}, [x]
        for y in queue:
            for gi, g in pairs:
                z = compose(compose(gi, y), g)
                if index[z] not in orbit:
                    orbit.add(index[z])
                    queue.append(z)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return set(orbits)


def test_product_classes_fuse_g_classes_under_r():
    """The classes of each product coset G r^j are the conjugacy classes
    of the rebuilt product there.  In coset 0 and in the coset C3 r^2 of
    Dic3 = C3 x| C4 the G-classes alone are not: r fuses them.  The
    G-classes are compared in the products below 2,000 elements."""
    unfused = set()
    for G, r, k, H in product_cases():
        n = G.order
        classes = [frozenset(cl.indices) for cl in H.conjugacy_classes]
        for j in range(k):
            want = brute_coset_classes(G, r, j, H.generators)
            assert {c for c in classes if min(c) // n == j} == want, \
                (H.name, j)
            if H.order < 2000 and \
                    brute_coset_classes(G, r, j, G.generators) != want:
                unfused.add((H.name, G.degree, j))
    assert {("C3.4", 7, 0), ("C3.4", 7, 2)} <= unfused


def test_base_key_collision_is_not_membership():
    c5 = cyclic_group(5)
    assert c5.base[0] == 0
    c5.elements   # enumerated: lookups now sift and walk the tables
    gen = c5.generators[0]
    affine = tuple((2 * x + 1) % 5 for x in range(5))
    assert affine[0] == gen[0]   # same base image as a member
    assert affine not in c5
    assert gen in c5
    assert (0, 1, 2) not in c5   # wrong degree
    with pytest.raises(KeyError):
        c5.class_of_element(affine)
    # a transposition does not normalize C5: it conjugates the generator
    # to a 5-cycle outside C5 whose base image is that of a member
    swap = (1, 0, 2, 3, 4)
    moved = conjugate(gen, swap)
    assert moved not in c5
    assert any(x[0] == moved[0] for x in c5.elements)
    with pytest.raises(GroupError):
        induced_class_permutation(c5, swap)
    with pytest.raises(GroupError):
        check_realizer(c5, swap)


def test_enumeration_budget(monkeypatch):
    from galmckay import groups
    from galmckay.groups import (
        ENUMERATION_BUDGET, GroupTooLargeError, enumeration_bytes)

    s12 = symmetric_group(12)
    need = enumeration_bytes(479001600, len(s12.base), 2)
    assert need > ENUMERATION_BUDGET
    with pytest.raises(GroupTooLargeError) as err:
        s12.elements
    msg = str(err.value)
    assert "479001600" in msg and "12 points" in msg and str(need) in msg
    with pytest.raises(GroupTooLargeError):
        s12.conjugacy_classes
    # the budget is read when a group is enumerated
    s4_need = enumeration_bytes(24, len(symmetric_group(4).base), 2)
    monkeypatch.setattr(groups, "ENUMERATION_BUDGET", s4_need - 1)
    with pytest.raises(GroupTooLargeError):
        symmetric_group(4).elements
    monkeypatch.setattr(groups, "ENUMERATION_BUDGET", s4_need)
    assert len(symmetric_group(4).elements) == 24


def budget(order, G):
    """enumeration_bytes for a group of the given order with G's base
    and generators."""
    from galmckay.groups import enumeration_bytes

    return enumeration_bytes(order, len(G.base), len(G.generators))


def test_list_targets_fit_the_budget():
    from galmckay.groups import ENUMERATION_BUDGET
    from galmckay.verify import global_side, list_targets, \
        local_model_group
    from galmckay.zoo import field_automorphism

    for t in list_targets():
        N = local_model_group(t["family"], t["f"], t["p"])
        assert budget(N.order, N) <= ENUMERATION_BUDGET
        if t["mode"] == "full":
            G = global_side(t["family"], t["f"]).table.group
            k = coset_order(G, field_automorphism(G))
            # the largest group a full target builds is G x| C_k
            assert budget(k * G.order, G) <= ENUMERATION_BUDGET
