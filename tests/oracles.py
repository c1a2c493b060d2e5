"""Test oracles and fixtures that galmckay itself never calls.

Each is an independent or brute-force counterpart of a library path, or a
small standard group the tests build tables of.
"""

import cmath
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial, gcd, prod
from operator import itemgetter, mul

from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, _characters_mod_p0,
    dixon_prime, inner_product,
)
from galmckay.cyclo import Cyclotomic, rational
from galmckay.galois import GaloisElement, _check_modulus
from galmckay.groups import (
    FiniteGroup, GroupError, check_realizer, identity_perm, perm_pow,
    power_class_permutation,
)
from galmckay.ntheory import primitive_root
from galmckay.verify import VerifyError


# -- cyclotomics -------------------------------------------------------------

def root(n: int, e: int = 1) -> Cyclotomic:
    """Canonical form of zeta_n^e."""
    return Cyclotomic.from_terms(n, ((e, 1),))


def approx(v: Cyclotomic) -> complex:
    """Numeric value of v as a complex float."""
    n = v.order
    return sum(float(c) * cmath.exp(2j * cmath.pi * e / n)
               for e, c in v.terms()) if v.terms() else 0j


def deserialize(doc: dict) -> Cyclotomic:
    """Inverse of Cyclotomic.serialize."""
    return Cyclotomic.from_terms(
        doc["order"],
        [(e, Fraction(num, den)) for e, num, den in doc["terms"]])


def deserialize_table(doc: dict) -> dict:
    """Inverse of cli.serialize_table with values as Cyclotomic objects."""
    return {
        "order": doc["order"],
        "exponent": doc["exponent"],
        "classes": [dict(c) for c in doc["classes"]],
        "irreducibles": [
            {"degree": r["degree"],
             "values": [deserialize(v) for v in r["values"]]}
            for r in doc["irreducibles"]
        ],
    }


# -- character tables ----------------------------------------------------------

def validate_all_pairs(table):
    """|G| * <chi_i, chi_j> for every pair i <= j of rows, each summed class
    by class through inner_product: the orthogonality check that the trace
    sums over rational classes in CharacterTable.validate replaced."""
    rows = table.rows
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            if inner_product(a, rows[j]) != (1 if i == j else 0):
                raise ChartabError("row orthogonality fails at (%d,%d)"
                                   % (i, j))
    return True


def per_class_dixon_schneider(G):
    """dixon_schneider with every class lifted on its own through its root
    of unity multiplicities and all row pairs checked: the path that the
    rational-class lift and the Galois-orbit check replaced."""
    classes = G.conjugacy_classes
    ncl = len(classes)
    p0 = dixon_prime(G.exponent, G.order, at_least=ncl)
    power_classes = [G.power_classes(k) for k in range(ncl)]

    w_root = primitive_root(p0)
    inv_root_powers = {}
    lift_tables = {}

    def inv_powers(o):
        """[z^-s mod p0 for s < o] with z a primitive o-th root mod p0."""
        tbl = inv_root_powers.get(o)
        if tbl is None:
            zinv = pow(w_root, p0 - 1 - (p0 - 1) // o, p0)
            tbl = [1] * o
            for t in range(1, o):
                tbl[t] = tbl[t - 1] * zinv % p0
            inv_root_powers[o] = tbl
        return tbl

    def lift_table(k):
        """The classes C_u of the powers of g = g_k, and F with F[j][u] =
        (1/o) sum of z^-jt over the t < o with g^t in C_u, o = |g|.

        The multiplicity of zeta_o^j in chi(g) is then
        sum_u chi(C_u) F[j][u] mod p0.
        """
        tbl = lift_tables.get(k)
        if tbl is None:
            o = classes[k].element_order
            powers = power_classes[k]
            targets = sorted(set(powers))
            slots = [targets.index(c) for c in powers]
            zinv = inv_powers(o)
            oinv = pow(o, -1, p0)
            F = []
            for j in range(o):
                f = [0] * len(targets)
                for t, u in enumerate(slots):
                    f[u] += zinv[j * t % o]
                F.append([x * oinv % p0 for x in f])
            tbl = lift_tables[k] = (targets, F)
        return tbl

    rows = []
    for deg, chi_mod in _characters_mod_p0(G, p0, power_classes):
        values = []
        for k in range(ncl):
            o = classes[k].element_order
            if o == 1:
                values.append(rational(deg))
                continue
            targets, F = lift_table(k)
            chi = [chi_mod[c] for c in targets]
            mults = []
            for j, f in enumerate(F):
                mj = sum(map(mul, chi, f)) % p0
                if mj > deg:
                    raise ChartabError("multiplicity lift out of range")
                if mj:
                    mults.append((j, mj))
            values.append(Cyclotomic.from_terms(o, mults))
        rows.append(ClassFunction(G, values))

    rows.sort(key=lambda r: r.sort_key())
    table = CharacterTable(G, rows)
    validate_all_pairs(table)
    return table


# -- small standard groups ----------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup(1, [], name="C1")
    return FiniteGroup(n, [tuple((i + 1) % n for i in range(n))],
                       name="C%d" % n)


def dihedral_group(n: int) -> FiniteGroup:
    """D_2n on the n vertices of an n-gon."""
    return FiniteGroup(n, [tuple((i + 1) % n for i in range(n)),
                           tuple(-i % n for i in range(n))],
                       name="D%d" % (2 * n))


def symmetric_group(n: int) -> FiniteGroup:
    if n < 2:
        return FiniteGroup(max(n, 1), [], name="S%d" % n)
    cyc = tuple(list(range(1, n)) + [0])
    tr = tuple([1, 0] + list(range(2, n)))
    return FiniteGroup(n, [cyc, tr], name="S%d" % n)


def semidirect_product_by_enumeration(G: FiniteGroup, r, k: int) -> FiniteGroup:
    """G ⋊ <r> as the permutation group generated by G and r, enumerated
    whole: the generic path groups.semidirect_product replaced."""
    if k < 1:
        raise GroupError("k must be positive")
    r = check_realizer(G, r)
    if perm_pow(r, k) != identity_perm(G.degree):
        raise GroupError("realizer^k is not the identity")
    H = FiniteGroup(G.degree, list(G.generators) + [r],
                    name=G.name + ".%d" % k)
    if H.order != k * G.order:
        raise GroupError("realizer lies in the group or has extra order "
                         "(got %d, want %d)" % (H.order, k * G.order))
    return H


def base_key_lookup(G: FiniteGroup, elements):
    """number(p): the number of the permutation p in G, or None if p is not
    in G, read from a map of the base key of each element to its number:
    the lookup the group kernel kept before it numbered elements by
    sifting.  elements is G.elements.  A base key can name a member and a
    permutation outside G, so the member it names is compared with p."""
    key = itemgetter(*G.base)
    index = {key(x): i for i, x in enumerate(elements)}

    def number(p):
        i = index.get(key(p))
        return i if i is not None and elements[i] == p else None
    return number


# -- Galois action -------------------------------------------------------------

def full_galois_group(m) -> list:
    """All of Gal(Q(zeta_m)/Q) as GaloisElement objects."""
    if m == 1:
        return [GaloisElement(1, 0)]
    return [GaloisElement(m, b) for b in range(1, m) if gcd(b, m) == 1]


def galois_image(cf, b: int) -> ClassFunction:
    """sigma_b applied to every value of the class function cf."""
    return ClassFunction(cf.group, [v.galois(b) for v in cf.values])


def power_compatibility_check(table, sigma: GaloisElement):
    """True iff sigma(chi(g)) = chi(g^b) for every row and class."""
    _check_modulus(table, sigma)
    powered = power_class_permutation(table.group, sigma.b)
    return all(galois_image(row, sigma.b).values
               == tuple(row.values[c] for c in powered)
               for row in table.rows)


# -- equivariant matching ------------------------------------------------------

def brute_force_match_exists(X, Y) -> bool:
    """Exhaustive equivariant-bijection search; oracle for small sets."""
    if X.n != Y.n:
        return False
    if X.n > 8:
        raise VerifyError("brute-force search capped at 8 points")
    for cand in permutations(range(Y.n)):
        if all(cand[px[x]] == py[cand[x]]
               for px, py in zip(X.perms, Y.perms)
               for x in range(X.n)):
            return True
    return False


# -- table equivalence ---------------------------------------------------------

def _column_keys(table: CharacterTable) -> list:
    """(element order, class size, multiset of values) for each column."""
    return [(c.element_order, c.size,
             frozenset(Counter(r.values[j] for r in table.rows).items()))
            for j, c in enumerate(table.classes)]


def block_permutations_equivalent(t1: CharacterTable,
                                  t2: CharacterTable) -> bool:
    """The former verify.tables_equivalent: equality up to row and column
    permutation, trying every arrangement of each block of columns with
    equal _column_keys."""
    if t1.group.order != t2.group.order:
        return False
    k1, k2 = _column_keys(t1), _column_keys(t2)
    if Counter(k1) != Counter(k2):
        return False
    blocks = {}
    for j, key in enumerate(k1):
        blocks.setdefault(key, ([], []))[0].append(j)
    for j, key in enumerate(k2):
        blocks[key][1].append(j)
    rowset2 = {r.values for r in t2.rows}
    choices = [permutations(cols1) for cols1, _ in blocks.values()]
    for combo in iproduct(*choices):
        colmap = [0] * len(k1)   # t2 column -> t1 column
        for (_, cols2), arrangement in zip(blocks.values(), combo):
            for j2, j1 in zip(cols2, arrangement):
                colmap[j2] = j1
        mapped = {tuple(r.values[colmap[j]] for j in range(len(k1)))
                  for r in t1.rows}
        if mapped == rowset2:
            return True
    return False


def block_arrangements(table) -> int:
    """How many column arrangements block_permutations_equivalent may try
    on a pair whose first table is table."""
    return prod(factorial(n) for n in Counter(_column_keys(table)).values())
