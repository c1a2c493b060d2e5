"""Brute-force differential suite for both parts of the verdict.

Each instance is a small group M in its right regular action, an
automorphism a of M of order k <= 4 written as a permutation of the
elements (so that conjugation by it induces a on M), and a prime
p <= 13.  `extension_sweep` and `condition_one` are compared with
value-wise oracles that never read a row permutation of the library:
characters are moved by evaluating them at conjugated class
representatives and at Galois images of their values, and extension
products are enumerated whole.  The draws are derandomized, and the
number of instances on which each part fails is pinned, so that the
suite shows both outcomes of each part.  Hypothesis seeds a derandomized
test from its source and its own version, so an edit to either test
re-draws its instances and its pin must be read again.
"""

from collections import Counter
from functools import cache
from itertools import product
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from galmckay.chartab import ClassFunction, dixon_schneider
from galmckay.extend import Side
from galmckay.galois import h_group
from galmckay.groups import (
    FiniteGroup, compose, conjugate, identity_perm, perm_order, perm_pow,
)
from galmckay.verify import condition_one, extension_sweep
from oracles import (
    brute_force_match_exists, cyclic_group, dihedral_group, galois_image,
    semidirect_product_by_enumeration, symmetric_group,
)

# derandomized, so that every run draws the same instances
DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=30,
                        deadline=None)

PRIMES = (2, 3, 5, 7, 11, 13)


def affine(n, u):
    """x -> x + 1 and x -> u*x on Z/n."""
    return FiniteGroup(n, [tuple((i + 1) % n for i in range(n)),
                           tuple(u * i % n for i in range(n))],
                       name="AGL(%d,%d)" % (n, u))


GROUPS = {
    "C4": lambda: cyclic_group(4),
    "C5": lambda: cyclic_group(5),
    "C7": lambda: cyclic_group(7),
    "C8": lambda: cyclic_group(8),
    "D8": lambda: dihedral_group(4),
    "D10": lambda: dihedral_group(5),
    "D12": lambda: dihedral_group(6),
    # i and j on the eight points of Q8's regular action
    "Q8": lambda: FiniteGroup(8, [(1, 2, 3, 0, 5, 6, 7, 4),
                                  (4, 7, 6, 5, 2, 1, 0, 3)], name="Q8"),
    "C5:C4": lambda: affine(5, 2),
    "C7:C3": lambda: affine(7, 2),
    "A4": lambda: FiniteGroup(4, [(1, 2, 0, 3), (1, 0, 3, 2)], name="A4"),
    "S4": lambda: symmetric_group(4),
}


@cache
def regular(name):
    """(G, its elements, G in its right regular action, that group's
    table)."""
    G = GROUPS[name]()
    elements = list(G.elements)
    number = {x: i for i, x in enumerate(elements)}
    M = FiniteGroup(len(elements),
                    [tuple(number[compose(x, g)] for x in elements)
                     for g in G.generators], name=name)
    return G, elements, M, dixon_schneider(M)


def extend_to_automorphism(name, images):
    """The automorphism of G sending its generators to images, as a
    permutation of the element numbers, or None if there is none."""
    G, elements, _, _ = regular(name)
    one = identity_perm(G.degree)
    alpha = {one: one}
    queue = [one]
    for x in queue:
        for g, a in zip(G.generators, images):
            y, z = compose(x, g), compose(alpha[x], a)
            if y not in alpha:
                alpha[y] = z
                queue.append(y)
            elif alpha[y] != z:
                return None
    if len(set(alpha.values())) != len(elements):
        return None
    number = {x: i for i, x in enumerate(elements)}
    return tuple(number[alpha[x]] for x in elements)


@cache
def automorphisms(name):
    """Every automorphism of G of order at most 4, from the images of its
    generators: conjugation by r maps right multiplication by g to right
    multiplication by a(g)."""
    G, elements, _, _ = regular(name)
    found = []
    for images in product(elements, repeat=len(G.generators)):
        if any(perm_order(a) != perm_order(g)
               for a, g in zip(images, G.generators)):
            continue
        r = extend_to_automorphism(name, images)
        if r is not None and perm_order(r) <= 4:
            found.append(r)
    return found


@st.composite
def instances(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    return name, draw(st.sampled_from(automorphisms(name))), \
        draw(st.sampled_from(PRIMES))


# -- value-wise oracles ------------------------------------------------------

def moved(chi, r, j):
    """The values of chi composed with a^j: chi(r^-j g r^j)."""
    G = chi.group
    rj = perm_pow(r, j)
    return ClassFunction(G, [chi.values[G.class_of_element(conjugate(c.rep,
                                                                     rj))]
                             for c in G.conjugacy_classes])


def fixes(chi, r, j, b):
    return galois_image(moved(chi, r, j), b).values == chi.values


def sweep_oracle(table, r, k, H, p):
    """(row, stabilizer order, invariant) for each p'-row: the extensions
    to M x| <a^d>, d the least j > 0 with psi o a^j = psi, found on the
    enumerated product by restriction through the class fusion, and
    tested against every pair (j, b) that fixes psi."""
    M = table.group
    out = []
    for row in table.p_prime_rows(p):
        psi = table.rows[row]
        d = next(d for d in range(1, k + 1)
                 if k % d == 0 and moved(psi, r, d % k).values == psi.values)
        pairs = [(j, s.b) for j in range(k) for s in H if fixes(psi, r, j, s.b)]
        if d == k:
            out.append((row, 1, True))
            continue
        P = semidirect_product_by_enumeration(M, perm_pow(r, d), k // d)
        big = dixon_schneider(P)
        fusion = [P.class_of_element(c.rep) for c in M.conjugacy_classes]
        exts = [chi for chi in big.rows
                if [chi.values[c] for c in fusion] == list(psi.values)]
        assert len(exts) == k // d
        invariant = any(all(fixes(chi, r, j, b) for j, b in pairs)
                        for chi in exts)
        out.append((row, k // d, invariant))
    return out


def value_wise_action(table, r, k, H, rows):
    """C_k x H on rows, each image found by its values."""
    return SimpleNamespace(n=len(rows), perms=[
        tuple(rows.index(table.row_index(galois_image(
            moved(table.rows[i], r, j), s.b))) for i in rows)
        for j in range(k) for s in H])


# -- the suite ----------------------------------------------------------------

def test_extension_sweep_matches_the_value_wise_oracle():
    outcomes = Counter()

    @DIFFERENTIAL
    @given(instances())
    def check(instance):
        name, r, p = instance
        table = regular(name)[3]
        k = perm_order(r)
        side = Side(table, r, k)
        H = h_group(p, side.exponent())
        entries = extension_sweep(side, H, p, "local")
        got = [(e["row"], e["stabilizer_order"], e["invariant"])
               for e in entries]
        assert got == sweep_oracle(table, r, k, H, p), instance
        outcomes[all(e["invariant"] for e in entries)] += 1

    check()
    assert outcomes == {True: 29, False: 1}


def test_condition_one_part1_matches_brute_force():
    outcomes = Counter()

    @DIFFERENTIAL
    @given(instances(), st.integers(0, 3))
    def check(instance, t):
        name, r, p = instance
        table = regular(name)[3]
        k = perm_order(r)
        # the second side under a^t, or under the identity for t = 0
        r2 = perm_pow(r, t % k)
        g, l = Side(table, r, k), Side(table, r2, k)
        H = h_group(p, g.exponent())
        rows = table.p_prime_rows(p)
        part1 = condition_one(g, l, p, H)["part1"]
        assert part1 == brute_force_match_exists(
            value_wise_action(table, r, k, H, rows),
            value_wise_action(table, r2, k, H, rows)), (instance, t)
        outcomes[part1] += 1

    check()
    assert outcomes == {True: 25, False: 5}
