import hashlib
import json
import random
from collections import Counter, deque
from functools import cache
from types import SimpleNamespace

import pytest

from galmckay.chartab import dixon_schneider
from galmckay.verify import (
    VerifyError, match_actions, condition_one, extension_sweep,
    torus_polynomials, lemma_congruence_check,
    tables_equivalent, cross_model_check, verify_target, list_targets,
    target_mode, local_model_group, local_model_table, local_side,
)
from galmckay import extend, verify
from galmckay.extend import ActionOnSet, ExtendError, Side
from galmckay.groups import (
    FiniteGroup, GroupError, check_realizer, compose, conjugate,
    identity_perm, perm_pow,
)
from galmckay.galois import h_group
from galmckay.zoo import field_automorphism, suzuki_group
from oracles import (
    block_arrangements, block_permutations_equivalent,
    brute_force_match_exists, cyclic_group, full_galois_group, symmetric_group,
)


def test_match_actions_identity():
    X = ActionOnSet(["e", "a"], [(0, 1, 2), (1, 0, 2)], 3)
    pairs, _, reason = match_actions(X, X)
    assert pairs is not None
    assert pairs == [(0, 0), (1, 1), (2, 2)]
    assert reason is None


def test_match_actions_failure():
    # C2 acting trivially vs acting with one swap
    X = ActionOnSet(["e", "a"], [(0, 1, 2), (0, 1, 2)], 3)
    Y = ActionOnSet(["e", "a"], [(0, 1, 2), (1, 0, 2)], 3)
    pairs, _, reason = match_actions(X, Y)
    assert pairs is None
    assert reason is not None


def test_match_actions_rejects_different_groups():
    X = ActionOnSet(["e"], [(0, 1)], 2)
    Y = ActionOnSet(["e", "a"], [(0, 1), (1, 0)], 2)
    with pytest.raises(VerifyError):
        match_actions(X, Y)


def test_action_images_must_be_permutations():
    with pytest.raises(ExtendError, match="not a permutation"):
        ActionOnSet(["e"], [(0, 0)], 2)


def test_match_actions_rejects_nonabelian():
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
    X = ActionOnSet(list(range(6)), s3, 3)
    with pytest.raises(VerifyError):
        match_actions(X, X)


def test_match_actions_reports_a_transport_conflict():
    """Labels that do not form a group: labels 1 and 2 both act as c on X
    but as c and c^2 on Y, so transport from point 0 sends 1 to 1 and 2."""
    c = (1, 2, 0, 3)
    X = ActionOnSet([0, 1, 2], [identity_perm(4), c, c], 4)
    Y = ActionOnSet([0, 1, 2], [identity_perm(4), c, perm_pow(c, 2)], 4)
    pairs, _, reason = match_actions(X, Y)
    assert (pairs, reason) == (None, "transport produced a conflict")


def test_match_actions_reports_an_unreached_point():
    """Labels not closed under composition: the identity and a 3-cycle
    move point 0 only to 0 and 1, so transport never defines point 2."""
    X = ActionOnSet([0, 1], [(0, 1, 2), (1, 2, 0)], 3)
    pairs, _, reason = match_actions(X, X)
    assert (pairs, reason) == (None, "transport did not reach every point")


def test_match_agrees_with_brute_force():
    # several C4-actions on 4 points, pairwise compared against the
    # exhaustive search
    def c4_action(perm):
        p2 = tuple(perm[i] for i in perm)
        p3 = tuple(p2[i] for i in perm)
        return ActionOnSet([0, 1, 2, 3],
                           [tuple(range(4)), perm, p2, p3], 4)

    actions = [
        c4_action((1, 2, 3, 0)),    # one 4-cycle
        c4_action((1, 0, 3, 2)),    # two swaps
        c4_action((1, 0, 2, 3)),    # one swap, two fixed
        c4_action((0, 1, 2, 3)),    # trivial
        c4_action((2, 3, 0, 1)),    # two swaps via squares
    ]
    for X in actions:
        for Y in actions:
            fast = match_actions(X, Y)[0] is not None
            brute = brute_force_match_exists(X, Y)
            assert fast == brute


def test_condition_one_psl28(psl28_table):
    rep = verify_target("PSL2", 1, 7)
    assert rep["verdict"] == {"part1": True, "part2": True}
    assert rep["counts"] == {"global": 5, "local": 5}
    assert len(rep["bijection"]) == 5


def test_condition_one_psl28_p2():
    rep = verify_target("PSL2", 1, 2)
    assert rep["counts"] == {"global": 8, "local": 8}
    assert rep["verdict"] == {"part1": True, "part2": True}
    degrees = sorted(e["degree"] for e in rep["extensions"]
                     if e["side"] == "global")
    assert degrees == [1, 7, 7, 7, 7, 9, 9, 9]


def test_condition_one_fails_under_the_full_galois_group():
    """Negative control: with all of Gal(Q(zeta_126)/Q) in place of H, the
    p = 2 actions on the p'-rows of PSL(2,8) and of its Sylow-2
    normalizer no longer match, while p = 3 and p = 7 still do."""
    H = full_galois_group(126)
    g = verify.global_side("PSL2", 1)
    expected = {2: (False, "stabilizer class multiplicity mismatch"),
                3: (True, None), 7: (True, None)}
    for p, (part1, reason) in expected.items():
        res = condition_one(g, local_side("PSL2", 1, p), p, H)
        assert (res["part1"], res["reason"]) == (part1, reason), p


def test_condition_one_holds_for_sz8_under_the_full_galois_group():
    """The full Galois group is no negative control for Sz(8): with all of
    Gal(Q(zeta_5460)/Q), 1,152 elements, in place of H, part 1 still holds
    at p = 5, 7 and 13.  Dropping the field automorphism from one side is
    one (see test_condition_one_fails_without_the_field_automorphism)."""
    g = verify.global_side("2B2", 1)
    for p in (5, 7, 13):
        l = local_side("2B2", 1, p)
        m = verify.galois_group(g, l, p)[0].m
        H = full_galois_group(m)
        assert (m, len(H)) == (5460, 1152)
        res = condition_one(g, l, p, H)
        assert (res["part1"], res["reason"]) == (True, None), p


@pytest.mark.parametrize("family, primes", [("2B2", (5, 7, 13)),
                                            ("PSL2", (2, 3, 7))])
def test_condition_one_fails_without_the_field_automorphism(family, primes):
    """Negative control: one side under the identity realizer, or under
    the square of its realizer, with k kept, in place of the field
    automorphism.  H comes from the unmodified sides, since a changed
    side builds no extension product here.  Part 1 then fails on either
    side, except at Sz(8) p = 5, where the automorphism fixes all five
    5'-rows on both sides."""
    g = verify.global_side(family, 1)
    for p in primes:
        l = local_side(family, 1, p)
        H = verify.galois_group(g, l, p)
        fixed = all(side.automorphism_perms[1][row] == row
                    for side in (g, l) for row in side.table.p_prime_rows(p))
        assert fixed == ((family, p) == ("2B2", 5)), p
        if fixed:
            assert len(g.table.p_prime_rows(p)) == 5
        expected = ((True, None) if fixed
                    else (False, "stabilizer class multiplicity mismatch"))
        for change in (without_automorphism, under_the_square):
            for sides in ((change(g), l), (g, change(l))):
                res = condition_one(*sides, p, H)
                assert (res["part1"], res["reason"]) == expected, \
                    (p, change.__name__)


def without_automorphism(side):
    return Side(side.table, identity_perm(side.table.group.degree), side.k)


def under_the_square(side):
    """The side with a^2 in place of a: label (j, b) then acts as a^2j."""
    return Side(side.table, perm_pow(side.realizer, 2), side.k)


def quaternion_product(x, y):
    """Hamilton product of quaternions given as (1, i, j, k) coordinates."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def quaternion_side():
    """Q8 on its right regular action, generated by right multiplication
    by i and j, under the automorphism alpha: i <-> j, k -> -k, applied
    to the points; Q8 x| <alpha> is the semidihedral group of order 16."""
    units = [tuple(sign * (n == m) for m in range(4))
             for sign in (1, -1) for n in range(4)]
    point = {u: x for x, u in enumerate(units)}

    def right(q):
        return tuple(point[quaternion_product(u, q)] for u in units)

    q8 = FiniteGroup(8, [right(units[1]), right(units[2])], name="Q8")
    alpha = tuple(point[a, c, b, -d] for a, b, c, d in units)
    return Side(dixon_schneider(q8), alpha, 2)


def test_extension_sweep_finds_no_invariant_extension_of_q8s_degree_2_row():
    """Negative control for part 2: alpha fixes the degree-2 row of Q8,
    and its two extensions to Q8 x| <alpha> take the values +-sqrt(-2) on
    the elements of order 8, so an H that moves sqrt(-2) (p = 5, 7) fixes
    neither, while H at p = 3 fixes both."""
    side = quaternion_side()
    for p, invariant in ((3, True), (5, False), (7, False)):
        H = h_group(p, side.exponent())
        entries = extension_sweep(side, H, p, "local")
        assert [(e["degree"], e["stabilizer_order"]) for e in entries
                if e["degree"] == 2] == [(2, 2)], p
        assert [e["invariant"] for e in entries] == \
            [True] * 4 + [invariant], p


def test_is_abelian_checks_every_generator():
    """A perm that commutes with no other one is found when it comes last,
    after perms that lie in the group already closed."""
    a = (1, 2, 0, 3, 4)
    b = (0, 1, 2, 4, 3)
    ab = (1, 2, 0, 4, 3)
    perms = [identity_perm(5), a, b, ab, perm_pow(a, 2)]
    assert ActionOnSet(range(5), perms, 5).is_abelian()
    perms.append((1, 0, 2, 3, 4))
    assert not ActionOnSet(range(6), perms, 5).is_abelian()


def test_is_abelian_matches_pairwise_commutation():
    rng = random.Random(3)
    s4 = list(symmetric_group(4).elements)
    for _ in range(200):
        perms = rng.sample(s4, rng.randrange(1, 5))
        pairwise = all(compose(p, q) == compose(q, p)
                       for p in perms for q in perms)
        assert ActionOnSet(range(len(perms)), perms, 4).is_abelian() == \
            pairwise


def test_joint_row_action_stability(psl28_table):
    H = h_group(7, psl28_table.exponent)
    rows = psl28_table.p_prime_rows(7)
    side = Side(psl28_table, identity_perm(psl28_table.group.degree), 1)
    X = side.action(H).restrict(rows)
    assert X.is_abelian()
    assert X.n == len(rows)


def test_torus_polynomials_f1():
    t = torus_polynomials(1)
    assert t == {"T1": 7, "T2+": 13, "T2-": 5, "T3": 57,
                 "T4+": 109, "T4-": 37}


def test_torus_polynomial_identities():
    for f in range(1, 9):
        q4 = 2 ** (2 * (2 * f + 1))
        t = torus_polynomials(f)
        assert t["T2+"] * t["T2-"] == q4 + 1
        assert t["T4+"] * t["T4-"] * (q4 + 1) == q4 ** 3 + 1


def test_lemma_congruences_small():
    rep = lemma_congruence_check(1, 3)
    assert rep["ok"]
    f1 = rep["per_f"][0]
    assert f1["values"]["T3"]["factors"] == [[3, 1], [19, 1]]
    assert f1["identities"]


def test_lemma_congruence_bounds():
    with pytest.raises(VerifyError):
        lemma_congruence_check(0, 3)
    with pytest.raises(VerifyError):
        lemma_congruence_check(2, 1)


def test_tables_equivalent_reflexive():
    t = dixon_schneider(symmetric_group(4))
    assert tables_equivalent(t, t)


def agrees_with_block_permutations(t1, t2):
    """tables_equivalent(t1, t2), checked against the reference search
    wherever that tries at most 7! column arrangements."""
    verdict = tables_equivalent(t1, t2)
    if block_arrangements(t1) <= 5040:
        assert block_permutations_equivalent(t1, t2) == verdict
    return verdict


def test_tables_equivalent_distinguishes():
    c4 = dixon_schneider(cyclic_group(4))
    gens = [(1, 0, 2, 3), (0, 1, 3, 2)]
    v4 = dixon_schneider(FiniteGroup(4, gens, name="V4"))
    assert not agrees_with_block_permutations(c4, v4)


def test_tables_equivalent_d8_q8():
    """D8 and Q8 have the same character values on classes of the same
    sizes, but D8 has five involutions and Q8 one, so their tables differ
    in the element order of two columns; without element orders they are
    equal."""
    d8 = FiniteGroup(4, [(1, 2, 3, 0), (0, 3, 2, 1)], name="D8")
    q8 = FiniteGroup(8, [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)],
                     name="Q8")
    tables = [dixon_schneider(G) for G in (d8, q8)]
    assert [sorted(cl.element_order for cl in t.classes)
            for t in tables] == [[1, 2, 2, 2, 4], [1, 2, 4, 4, 4]]
    assert not agrees_with_block_permutations(*tables)
    plain = [SimpleNamespace(
        group=t.group, rows=t.rows,
        classes=[SimpleNamespace(element_order=0, size=cl.size)
                 for cl in t.classes]) for t in tables]
    assert agrees_with_block_permutations(*plain)


def _rearranged(table, row_order, col_order, swap=None):
    """A stand-in for table with its rows and columns reordered; swap
    (i, j, c) then exchanges the values of rows i and j in column c."""
    values = [[table.rows[i].values[c] for c in col_order] for i in row_order]
    if swap:
        i, j, c = swap
        values[i][c], values[j][c] = values[j][c], values[i][c]
    return SimpleNamespace(
        group=table.group, classes=[table.classes[c] for c in col_order],
        rows=[SimpleNamespace(values=tuple(v)) for v in values])


def _shuffled(table, seed):
    rng = random.Random(seed)
    rows = list(range(len(table.rows)))
    cols = list(range(len(table.classes)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return _rearranged(table, rows, cols)


def _inequivalent_swap(table):
    """A swap (i, j, c) that keeps every column's multiset of values but
    leaves row i with a multiset of (column key, value) pairs no row of
    table has, so that no row and column permutation undoes it."""
    keys = [(cl.element_order, cl.size) for cl in table.classes]
    signatures = {frozenset(Counter(zip(keys, r.values)).items())
                  for r in table.rows}
    n = len(keys)
    for c in range(1, n):
        for i in range(len(table.rows)):
            for j in range(len(table.rows)):
                vi, vj = table.rows[i].values, table.rows[j].values
                if vi[c] == vj[c]:
                    continue
                row = vi[:c] + (vj[c],) + vi[c + 1:]
                if frozenset(Counter(zip(keys, row)).items()) \
                        not in signatures:
                    return i, j, c
    raise AssertionError("no inequivalent swap")


def counted_comparisons(monkeypatch):
    """Multiset comparisons of partial rows made by tables_equivalent from
    now on, one entry each."""
    made = []

    class Counting(Counter):
        def __eq__(self, other):
            made.append(1)
            return super().__eq__(other)

    monkeypatch.setattr(verify, "Counter", Counting)
    return made


@pytest.mark.parametrize("group", [symmetric_group(4), cyclic_group(5)],
                         ids=["S4", "C5"])
def test_tables_equivalent_permutations_and_swaps(group):
    t = dixon_schneider(group)
    n = len(t.classes)
    rows = list(reversed(range(n)))
    cols = [0] + list(range(2, n)) + [1]
    assert agrees_with_block_permutations(t, _rearranged(t, rows, cols))
    assert agrees_with_block_permutations(_rearranged(t, rows, cols), t)
    # swapping two values inside one column keeps every column's multiset
    i, j, c = next((i, j, c) for c in range(1, n)
                   for i in range(n) for j in range(i + 1, n)
                   if t.rows[i].values[c] != t.rows[j].values[c])
    assert not agrees_with_block_permutations(
        t, _rearranged(t, range(n), range(n), swap=(i, j, c)))


TARGETS = [(t["family"], t["f"], t["p"]) for t in list_targets()]


def target_id(target):
    return "%s-%d-%d" % target


@pytest.mark.parametrize("target", TARGETS, ids=target_id)
def test_model_tables_match_their_shuffles(target, monkeypatch):
    """Every model table matches a row-and-column shuffle of itself with
    at most n^2 comparisons of partial rows, and rejects a swap inside one
    column; the reference search agrees wherever it is affordable."""
    t = local_model_table(*target)
    n = len(t.classes)
    made = counted_comparisons(monkeypatch)
    for seed in range(3):
        made.clear()
        assert agrees_with_block_permutations(t, _shuffled(t, seed))
        assert len(made) <= n * n, (seed, len(made))
    swapped = _rearranged(t, range(n), range(n),
                          swap=_inequivalent_swap(t))
    assert not agrees_with_block_permutations(t, swapped)
    assert not agrees_with_block_permutations(swapped, t)
    # a column repeated in place of another one of the same element order
    # and class size: each column of t matches, but not two at once
    keys = [(cl.element_order, cl.size) for cl in t.classes]
    a, b = next((a, b) for b in range(n) for a in range(b)
                if keys[a] == keys[b])
    cols = list(range(n))
    cols[b] = a
    assert not agrees_with_block_permutations(
        t, _rearranged(t, range(n), cols))


def test_d62_model_matches_its_shuffles(monkeypatch):
    """2B2 f = 2 p = 31 is D62: 15 of its 17 columns share their element
    order, class size and multiset of values, too many arrangements for
    the reference search."""
    t = local_model_table("2B2", 2, 31)
    assert (t.group.order, len(t.classes)) == (62, 17)
    assert block_arrangements(t) > 10 ** 12
    made = counted_comparisons(monkeypatch)
    assert tables_equivalent(t, t)
    for seed in range(10):
        made.clear()
        assert tables_equivalent(t, _shuffled(t, seed))
        assert len(made) <= 17 * 17


@pytest.mark.parametrize("target", [t for t in TARGETS
                                    if target_mode(*t) == "full"],
                         ids=target_id)
def test_computed_normalizer_tables_match_their_models(target):
    family, f, p = target
    assert agrees_with_block_permutations(local_side(family, f, p).table,
                                          local_model_table(family, f, p))


def test_cross_model_2b2_p5():
    assert cross_model_check("2B2", 1, 5)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_cross_model_psl2(p):
    assert cross_model_check("PSL2", 1, p)


def test_cross_model_rejects_other_families():
    with pytest.raises(VerifyError, match="local-only"):
        cross_model_check("2G2", 1, 7)


def test_cross_model_rejects_non_full_targets(monkeypatch):
    def refuse(f):
        raise AssertionError("suzuki_group(%d) was built" % f)

    monkeypatch.setattr(verify, "suzuki_group", refuse)
    monkeypatch.setattr("galmckay.zoo.suzuki_group", refuse)
    with pytest.raises(VerifyError, match="local-only"):
        cross_model_check("2B2", 2, 31)
    with pytest.raises(VerifyError, match="out of scope"):
        cross_model_check("2B2", 1, 11)


# -- the transporter of stable_sylow_setup ----------------------------------

def breadth_first_transporter(G, A, B):
    """The first element, in breadth-first order of words in G's
    generators, that conjugates the elements of A onto those of B."""
    target = frozenset(B)
    ident = identity_perm(G.degree)
    seen = {ident}
    queue = deque([ident])
    while queue:
        w = queue.popleft()
        if frozenset(conjugate(x, w) for x in A) == target:
            return w
        for g in G.generators:
            wg = compose(w, g)
            if wg not in seen:
                seen.add(wg)
                queue.append(wg)
    raise AssertionError("not conjugate")


def sylow_indices(G, p):
    return frozenset(map(G.index_of, G.sylow_subgroup(p).elements))


def test_transporter_moves_the_field_automorphisms_sylow_13_back():
    """On Sz(8), only the Sylow 13-subgroup is moved by the field
    automorphism; the transporter carries its image back."""
    G = suzuki_group(1)
    r = check_realizer(G, field_automorphism(G))
    moved = {p: frozenset(G.index_of(conjugate(x, r))
                          for x in G.sylow_subgroup(p).elements)
             for p in (5, 7, 13)}
    assert [moved[p] == sylow_indices(G, p) for p in (5, 7, 13)] == \
        [True, True, False]
    A, B = moved[13], sylow_indices(G, 13)
    g = G.transporter(A, B)
    assert frozenset(G.index_of(conjugate(G.element(i), g)) for i in A) == B
    elements = G.elements
    assert g == breadth_first_transporter(
        G, [elements[i] for i in A], [elements[i] for i in B])


def test_transporter_of_equal_sets_is_the_identity(monkeypatch):
    """Equal sets need no walk over the conjugates."""
    G = suzuki_group(1)
    A = sylow_indices(G, 5)
    monkeypatch.setattr(FiniteGroup, "_conjugate_walk", None)
    assert G.transporter(A, A) == identity_perm(G.degree)


def test_transporter_refuses_non_conjugate_subgroups():
    G = suzuki_group(1)
    with pytest.raises(GroupError, match="subgroups are not conjugate"):
        G.transporter(sylow_indices(G, 5), sylow_indices(G, 13))


# sha256 of the json list of each full target's stable_sylow_setup realizer
REALIZER_SHA256 = {
    ("2B2", 5):
        "3cc99c6fc0f6b2e01c648afd384e90b4866f7cf2d1d0deb3faf811f512017c91",
    ("2B2", 7):
        "3cc99c6fc0f6b2e01c648afd384e90b4866f7cf2d1d0deb3faf811f512017c91",
    ("2B2", 13):
        "e6a026772de97d46ddc3381420b7ede72182f91403df2d8664164dbf5157b961",
    ("PSL2", 2):
        "6797ce658968dcaf6d73023c18a395d4f250d79c5289e42880b377346e8c42a4",
    ("PSL2", 3):
        "6797ce658968dcaf6d73023c18a395d4f250d79c5289e42880b377346e8c42a4",
    ("PSL2", 7):
        "6797ce658968dcaf6d73023c18a395d4f250d79c5289e42880b377346e8c42a4",
}


def test_stable_sylow_realizers_pinned():
    for (family, p), digest in REALIZER_SHA256.items():
        realizer = json.dumps(list(local_side(family, 1, p).realizer))
        assert hashlib.sha256(realizer.encode()).hexdigest() == digest, \
            (family, p)


def relabelled_group(G):
    """G conjugated by a seeded random permutation pi of its points, with
    its generators shuffled, and pi."""
    rng = random.Random(31)
    pi = tuple(rng.sample(range(G.degree), G.degree))
    gens = [conjugate(g, pi) for g in G.generators]
    rng.shuffle(gens)
    return FiniteGroup(G.degree, gens, name=G.name), pi


def report_invariants(report):
    """What relabelling the points and generators must not change: rows
    and classes may be reordered."""
    return (report["status"], report["counts"], report["verdict"],
            Counter(json.dumps(o, sort_keys=True) for o in report["orbits"]),
            Counter((e["side"], e["degree"], e["stabilizer_order"],
                     e["invariant"]) for e in report["extensions"]))


@pytest.mark.parametrize("family, p", [("PSL2", 2), ("PSL2", 3),
                                       ("PSL2", 7), ("2B2", 13)])
def test_verify_is_invariant_under_relabelling(family, p, monkeypatch):
    """The global group and its field realizer conjugated by a seeded
    random permutation of the points, with the generators shuffled, give
    the same report up to the order of rows and classes.  Sz(8) p = 13 is
    the one target whose transporter is not the identity."""
    expected = report_invariants(verify_target(family, 1, p))
    real = verify._field_action.__wrapped__

    @cache
    def relabelled(family, f):
        G, r, k = real(family, f)
        H, pi = relabelled_group(G)
        return H, conjugate(r, pi), k

    # fresh side caches: the relabelled sides never reach other tests
    monkeypatch.setattr(verify, "_field_action", relabelled)
    monkeypatch.setattr(verify, "global_side",
                        cache(verify.global_side.__wrapped__))
    monkeypatch.setattr(verify, "local_side",
                        cache(verify.local_side.__wrapped__))
    moves = []
    transporter = FiniteGroup.transporter

    def recording(G, A, B):
        t = transporter(G, A, B)
        moves.append(t != identity_perm(G.degree))
        return t

    monkeypatch.setattr(FiniteGroup, "transporter", recording)
    assert report_invariants(verify_target(family, 1, p)) == expected
    assert moves == [family == "2B2"]


@pytest.mark.parametrize("family, p", [("PSL2", 2), ("PSL2", 3),
                                       ("PSL2", 7), ("2B2", 5), ("2B2", 7),
                                       ("2B2", 13)])
def test_verify_is_invariant_under_the_choice_of_sylow_subgroup(
        family, p, monkeypatch):
    """The Sylow subgroup that stable_sylow_setup starts from conjugated
    by a seeded random element of the global group gives the same report
    up to the order of rows and classes."""
    expected = report_invariants(verify_target(family, 1, p))
    real = FiniteGroup.sylow_subgroup
    rng = random.Random(7)
    moved = []

    def conjugated(G, prime):
        P = real(G, prime)
        x = G.element(rng.randrange(G.order))
        Q = G.subgroup([conjugate(g, x) for g in P.generators], name="P")
        moved.append(set(map(G.index_of, Q.elements))
                     != set(map(G.index_of, P.elements)))
        return Q

    # a fresh side cache: the conjugated sides never reach other tests
    monkeypatch.setattr(FiniteGroup, "sylow_subgroup", conjugated)
    monkeypatch.setattr(verify, "local_side",
                        cache(verify.local_side.__wrapped__))
    assert report_invariants(verify_target(family, 1, p)) == expected
    assert moved == [True]


@pytest.mark.parametrize("family, f, p", [("2G2", 1, 7), ("2B2", 2, 31),
                                          ("2F4", 1, 109)])
def test_local_only_verify_is_invariant_under_relabelling(family, f, p,
                                                          monkeypatch):
    """The same check on local-only targets, where the group enters as
    the local model: its points are conjugated by a seeded random
    permutation and its generators shuffled."""
    expected = report_invariants(verify_target(family, f, p))
    real = verify.local_model_group
    built = []

    def relabelled(family, f, p):
        G, pi = relabelled_group(real(family, f, p))
        assert pi != identity_perm(G.degree)
        built.append(G)
        return G

    # fresh caches: the relabelled model never reaches other tests
    monkeypatch.setattr(verify, "local_model_group", relabelled)
    monkeypatch.setattr(verify, "local_model_table",
                        cache(verify.local_model_table.__wrapped__))
    monkeypatch.setattr(verify, "local_side",
                        cache(verify.local_side.__wrapped__))
    assert report_invariants(verify_target(family, f, p)) == expected
    assert [verify.local_side(family, f, p).table.group] == built


def test_out_of_scope_report():
    rep = verify_target("2B2", 1, 11)
    assert rep["status"] == "out-of-scope"
    assert rep["known_targets"]
    rep = verify_target("2F4", 3, 7)
    assert rep["status"] == "out-of-scope"


def test_local_only_target():
    rep = verify_target("2G2", 1, 7)
    assert rep["mode"] == "local-only"
    assert rep["verdict"]["part1"] is None
    assert rep["verdict"]["part2"] is True
    assert rep["counts"]["global"] is None


def test_target_modes():
    assert target_mode("2B2", 1, 5) == "full"
    assert target_mode("2B2", 2, 31) == "local-only"
    assert target_mode("2B2", 1, 11) is None


def test_list_targets_contains_acceptance_grid():
    grid = {(t["family"], t["f"], t["p"]) for t in list_targets()}
    for p in (5, 7, 13):
        assert ("2B2", 1, p) in grid
    for p in (2, 7):
        assert ("PSL2", 1, p) in grid


def test_local_model_group_psl2():
    assert local_model_group("PSL2", 1, 2).order == 56
    assert local_model_group("PSL2", 1, 7).order == 14
    assert local_model_group("PSL2", 1, 3).order == 18


def test_every_target_has_a_local_model():
    for t in list_targets():
        N = local_model_group(t["family"], t["f"], t["p"])
        assert N.order % t["p"] == 0


def counted_tables(monkeypatch):
    """Groups whose tables verify builds from now on, in build order."""
    built = []

    def counting(G, *args, **kwargs):
        built.append(G)
        return dixon_schneider(G, *args, **kwargs)

    monkeypatch.setattr(verify, "dixon_schneider", counting)
    return built


def test_local_model_built_once(monkeypatch):
    built = counted_tables(monkeypatch)
    local_model_table.cache_clear()
    t = local_model_table("2G2", 1, 37)
    assert local_model_table("2G2", 1, 37) is t
    assert verify_target("2G2", 1, 37)["status"] == "verified"
    assert built == [t.group]


def test_normalizer_table_shared_with_cross_check(monkeypatch):
    built = counted_tables(monkeypatch)
    local_side.cache_clear()
    local_model_table.cache_clear()
    assert verify_target("2B2", 1, 5)["status"] == "verified"
    assert cross_model_check("2B2", 1, 5)
    N = local_side("2B2", 1, 5).table.group
    model = local_model_table("2B2", 1, 5).group
    assert N.order == model.order == 20
    assert sum(G is N for G in built) == 1
    assert sum(G is model for G in built) == 1
    assert sum(G.order == 20 for G in built) == 2


def test_local_only_side_is_the_model_under_the_trivial_action():
    side = local_side("2G2", 1, 37)
    table = local_model_table("2G2", 1, 37)
    assert (side.table, side.realizer, side.k) == (
        table, identity_perm(table.group.degree), 1)
    assert side.exponent() == table.exponent


def test_cross_check_builds_no_extension_product():
    local_side.cache_clear()
    assert cross_model_check("2B2", 1, 5)
    assert local_side("2B2", 1, 5).products == {}


def test_local_only_target_builds_no_global_group(monkeypatch):
    def refuse(f):
        raise AssertionError("suzuki_group(%d) was built" % f)

    monkeypatch.setattr(verify, "suzuki_group", refuse)
    monkeypatch.setattr("galmckay.zoo.suzuki_group", refuse)
    assert verify_target("2B2", 2, 31)["status"] == "verified"


def test_row_action_built_once_per_table(monkeypatch):
    # fresh sides, so every table starts without cached row permutations
    monkeypatch.setattr(verify, "global_side",
                        cache(verify.global_side.__wrapped__))
    monkeypatch.setattr(verify, "local_side",
                        cache(verify.local_side.__wrapped__))
    calls = []
    real = extend.induced_class_permutation

    def counting(G, r):
        calls.append((G, tuple(r)))
        return real(G, r)

    monkeypatch.setattr(extend, "induced_class_permutation", counting)
    assert verify_target("PSL2", 1, 7)["status"] == "verified"
    keys = Counter((id(G), r) for G, r in calls)
    assert calls and max(keys.values()) == 1
    assert all(type(d) is int for d in verify.global_side("PSL2", 1).products)
