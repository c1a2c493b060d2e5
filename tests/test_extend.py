import pytest

from galmckay.cyclo import ONE
from galmckay.groups import (
    FiniteGroup, GroupError, coset_order, conjugate, identity_perm,
    perm_pow, inverse, induced_class_permutation,
)
from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, dixon_schneider,
)
from galmckay import extend
from galmckay.galois import GaloisElement, GaloisError, h_group
from galmckay.extend import (
    ActionOnSet, ExtendError, Side, find_extensions,
    invariant_extension_exists,
)
from galmckay.zoo import field_automorphism, torus_normalizer
from oracles import (
    cyclic_group, dicyclic_over_cyclic, dihedral_group, full_galois_group,
)


def times_mod(m, n):
    """x -> m*x on Z/n: conjugation by it sends the rotation to its m-th
    power and fixes the reflection x -> -x."""
    return tuple(m * i % n for i in range(n))


def c3_with_inversion():
    c3 = cyclic_group(3)
    a = times_mod(-1, 3)
    assert conjugate(c3.generators[0], a) == inverse(c3.generators[0])
    return c3, a


def c7_with_squaring():
    c7 = cyclic_group(7)
    a = times_mod(2, 7)
    assert conjugate(c7.generators[0], a) == perm_pow(c7.generators[0], 2)
    return c7, a


def d14_with_c3():
    d = dihedral_group(7)
    rot, refl = d.generators
    a = times_mod(2, 7)
    assert [conjugate(g, a) for g in d.generators] == [perm_pow(rot, 2), refl]
    assert coset_order(d, a) == 3
    return d, a


def a_psi_order(side, row):
    """|A_psi|: the number of powers a^j, j < k, that fix the row."""
    return sum(perm[row] == row for perm in side.automorphism_perms)


def test_gallagher_counts_in_the_nonsplit_q8():
    # Q8 = <i>.<j>: j inverts i, and j^2 = -1 lies in C4 = <i>.  j fixes
    # the two real rows of C4, and each has 2 extensions to Q8; it swaps
    # the other two, which stay put
    c4, j = dicyclic_over_cyclic(2)
    assert perm_pow(j, 2) in c4 and perm_pow(j, 2) != identity_perm(8)
    side = Side(dixon_schneider(c4), j, 2)
    for row, psi in enumerate(side.table.rows):
        real = all(v == v.galois(-1) for v in psi.values)
        assert len(find_extensions(side, row)[2]) == (2 if real else 1)
    # Q8, not D8: six elements of order 4
    q8 = side.product(1)[0].table
    assert q8.group.order == 8
    assert sum(cl.size for cl in q8.classes if cl.element_order == 4) == 6


def test_moved_character_stays_put():
    # psi not A-invariant: A_psi trivial, the extension set is psi itself
    c3, a = c3_with_inversion()
    t = dixon_schneider(c3)
    row = next(i for i, r in enumerate(t.rows)
               if any(v != ONE for v in r.values))
    side = Side(t, a, 2)
    ext_side, _, rows = find_extensions(side, row)
    assert a_psi_order(side, row) == 1
    assert rows == (row,)
    assert ext_side is side


def test_trivial_character_two_extensions():
    c3, a = c3_with_inversion()
    t = dixon_schneider(c3)
    triv = next(i for i, r in enumerate(t.rows)
                if all(v == ONE for v in r.values))
    side = Side(t, a, 2)
    ext_side, _, rows = find_extensions(side, triv)
    assert a_psi_order(side, triv) == 2
    assert len(rows) == 2
    assert ext_side.table.group.order == 6
    assert all(ext_side.table.rows[i].degree_int() == 1 for i in rows)


def test_gallagher_counts_c7_c3():
    c7, a = c7_with_squaring()
    t = dixon_schneider(c7)
    for row in range(len(t.rows)):
        _, _, rows = find_extensions(Side(t, a, 3), row)
        trivial = all(v == ONE for v in t.rows[row].values)
        assert len(rows) == (3 if trivial else 1)


def test_restriction_is_exact():
    d, a = d14_with_c3()
    t = dixon_schneider(d)
    sign = next(i for i, r in enumerate(t.rows)
                if r.degree_int() == 1 and any(v != ONE for v in r.values))
    ext_side, fusion, rows = find_extensions(Side(t, a, 3), sign)
    assert len(rows) == 3
    for i in rows:
        chi = ext_side.table.rows[i]
        for c in range(len(t.classes)):
            assert chi.values[fusion[c]] == t.rows[sign].values[c]


def test_unique_real_extension_odd_stabilizer():
    # real row, odd cyclic stabilizer: exactly one real extension and it
    # is the joint-stabilizer-invariant one
    d, a = d14_with_c3()
    t = dixon_schneider(d)
    sign = next(i for i, r in enumerate(t.rows)
                if r.degree_int() == 1 and any(v != ONE for v in r.values))
    ext_side, _, rows = find_extensions(Side(t, a, 3), sign)
    real = [i for i in rows
            if all(v == v.galois(-1)
                   for v in ext_side.table.rows[i].values)]
    assert len(real) == 1
    H = h_group(2, ext_side.table.exponent)
    w = invariant_extension_exists(Side(t, a, 3), sign, H)
    assert w["invariant"]
    assert w["witness_row"] == real[0]


def test_joint_stabilizer_contains_identity():
    d, a = d14_with_c3()
    t = dixon_schneider(d)
    H = h_group(2, t.exponent * 3)
    assert (0, 1) in Side(t, a, 3).action(H).stabilizer(0)


def test_linear_character_invariant_extension():
    c7, a = c7_with_squaring()
    t = dixon_schneider(c7)
    triv = next(i for i, r in enumerate(t.rows)
                if all(v == ONE for v in r.values))
    H = h_group(5, 42)
    side = Side(t, a, 3)
    w = invariant_extension_exists(side, triv, H)
    assert w["invariant"]
    ext_side, _, _ = find_extensions(side, triv)
    chi = ext_side.table.rows[w["witness_row"]]
    c = ext_side.table.group.class_of_element(
        perm_pow(ext_side.realizer, side.k // w["stabilizer_order"]))
    assert chi.values[c] == ONE


def test_realizer_path():
    c3 = FiniteGroup(3, [(1, 2, 0)], name="C3")
    t = dixon_schneider(c3)
    triv = next(i for i, r in enumerate(t.rows)
                if all(v == ONE for v in r.values))
    ext_side, _, rows = find_extensions(Side(t, (0, 2, 1), 2), triv)
    assert ext_side.table.group.degree == 3
    assert ext_side.table.group.order == 6
    assert len(rows) == 2
    # an order-2 realizer does not give an action of order dividing 3
    with pytest.raises(ExtendError):
        find_extensions(Side(t, (0, 2, 1), 3), triv)
    # not a permutation of the points of C3
    with pytest.raises(GroupError):
        find_extensions(Side(t, (1, 0, 2, 3), 2), triv)


def test_side_builds_each_product_once():
    # the trivial row of C7 is the only one fixed by a, so every row that
    # extends reads the one product C7 x| C3, the Frobenius group of order 21
    c7, a = c7_with_squaring()
    side = Side(dixon_schneider(c7), a, 3)
    product = side.product(1)
    assert product[0].table.group.order == 21
    H = h_group(5, side.exponent())
    for row in range(len(side.table.rows)):
        invariant_extension_exists(side, row, H)
    assert side.products == {1: product}
    assert side.exponent() == 21
    assert Side(side.table, identity_perm(7), 1).exponent() == 7


def test_side_galois_perms_once_per_residue(monkeypatch):
    # the 12 units mod 42 act on the table of C7 through their 6 residues
    # mod 7; a modulus the exponent does not divide is refused wherever it
    # stands in H, also after a residue it shares has been acted on
    c7, a = c7_with_squaring()
    side = Side(dixon_schneider(c7), a, 3)
    calls = []
    real = extend.act_on_table
    monkeypatch.setattr(extend, "act_on_table",
                        lambda t, s: calls.append(s.b) or real(t, s))
    H = full_galois_group(42)
    action = side.action(H)
    assert len(H) == 12 and len(calls) == len({s.b % 7 for s in H}) == 6
    # labels j-major, then in H's order; (j, b) is a^j, then sigma_b
    assert action.labels == tuple((j, s.b) for j in range(3) for s in H)
    assert action.perms == tuple(
        tuple(real(side.table, s)[x] for x in gamma)
        for gamma in side.automorphism_perms for s in H)
    for bad in ([GaloisElement(5, 1)], [H[0], GaloisElement(5, 1)]):
        with pytest.raises(GaloisError, match="not divisible"):
            side.action(bad)


def test_side_action_is_built_once_per_h():
    c7, a = c7_with_squaring()
    side = Side(dixon_schneider(c7), a, 3)
    H = full_galois_group(42)
    assert side.action(H) is side.action(tuple(H))
    assert side.action(H) is not side.action(H[:1])


def test_restrict_refuses_a_subset_that_is_not_stable():
    # a = x -> 2x permutes the six nontrivial rows of C7 in two orbits
    c7, a = c7_with_squaring()
    side = Side(dixon_schneider(c7), a, 3)
    action = side.action(h_group(5, 42))
    triv = next(i for i, r in enumerate(side.table.rows)
                if all(v == ONE for v in r.values))
    other = next(i for i in range(7) if i != triv)
    assert action.restrict([triv]).perms == ((0,),) * len(action.labels)
    with pytest.raises(ExtendError, match="not action-stable"):
        action.restrict([triv, other])


def test_action_on_set_refuses_labels_and_perms_of_different_lengths():
    with pytest.raises(ExtendError, match="differ in length"):
        ActionOnSet(["e", "a"], [(0, 1)], 2)


def test_gallagher_count_checked():
    # a product table missing one extension of the trivial row of C7
    c7, a = c7_with_squaring()
    t = dixon_schneider(c7)
    side = Side(t, a, 3)
    big, fusion = side.product(1)
    rows = big.table.rows
    triv = next(i for i, r in enumerate(rows)
                if all(v == ONE for v in r.values))
    short = CharacterTable(big.table.group, rows[:triv] + rows[triv + 1:])
    side.products[1] = (Side(short, a, 3), fusion)
    with pytest.raises(ExtendError, match="Gallagher count violated"):
        find_extensions(side, next(i for i, r in enumerate(t.rows)
                                   if all(v == ONE for v in r.values)))


def value_wise_row_perms(table, r, k):
    """perms[j][i]: the row chi_i composed with a^j, found by its values."""
    G = table.group
    out = []
    for j in range(k):
        cperm = induced_class_permutation(G, perm_pow(r, j))
        out.append(tuple(
            table.row_index(ClassFunction(G, [row.values[c] for c in cperm]))
            for row in table.rows))
    return tuple(out)


def assert_row_perms_value_wise(table, r, k):
    side = Side(table, r, k)
    perms = side.automorphism_perms
    assert perms == value_wise_row_perms(table, r, k)
    assert side.automorphism_perms is perms
    return perms


def test_row_perms_d14():
    d, a = d14_with_c3()
    perms = assert_row_perms_value_wise(dixon_schneider(d), a, 3)
    # the three degree-2 rows form one orbit
    assert perms[1] != perms[0]


def test_row_perms_c13_c4():
    spec = torus_normalizer("2B2", 1, 13)
    perms = assert_row_perms_value_wise(dixon_schneider(spec.group),
                                        times_mod(3, 13), 3)
    assert perms[1] != perms[0]


def test_row_perms_psl28_frobenius(psl28_table):
    perms = assert_row_perms_value_wise(
        psl28_table, field_automorphism(psl28_table.group), 3)
    assert perms[1] != perms[0]


def test_row_perms_extension_product_table():
    # the original realizer acts on D14 x| C3 through the same points
    d, a = d14_with_c3()
    t = dixon_schneider(d)
    sign = next(i for i, r in enumerate(t.rows)
                if r.degree_int() == 1 and any(v != ONE for v in r.values))
    ext_side, _, _ = find_extensions(Side(t, a, 3), sign)
    assert ext_side.table is not t
    assert_row_perms_value_wise(ext_side.table, ext_side.realizer, 3)


def test_row_perms_checks():
    d, a = d14_with_c3()
    t = dixon_schneider(d)
    with pytest.raises(ExtendError):
        Side(t, a, 2).automorphism_perms
    with pytest.raises(GroupError):
        Side(t, (1, 0) + tuple(range(2, 7)), 3).automorphism_perms
    # drop one degree-2 row: a moves another degree-2 row onto it
    two = next(i for i, r in enumerate(t.rows) if r.degree_int() == 2)
    partial = CharacterTable(d, t.rows[:two] + t.rows[two + 1:])
    with pytest.raises(ChartabError):
        Side(partial, a, 3).automorphism_perms
