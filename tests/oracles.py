"""Test oracles and fixtures that galmckay itself never calls.

Each is an independent or brute-force counterpart of a library path, or a
small standard group the tests build tables of.
"""

import cmath
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial, gcd, lcm, prod
from operator import itemgetter, mul

from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, _characters_mod_p0,
    dixon_prime, inner_product,
)
from galmckay.cyclo import Cyclotomic, rational
from galmckay.galois import GaloisElement, _check_modulus
from galmckay.groups import (
    FiniteGroup, GroupError, check_realizer, coset_order, perm_pow,
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

def class_algebra_failures(table, count=3):
    """(row, i, j) wherever a row's central character
    omega(C) = |C| chi(g_C) / chi(1) breaks
    omega(C_i) omega(C_j) = sum_k a_ijk omega(C_k), a_ijk the entries
    class_matrix(i)[j][k] of the table's group, for i over the count
    smallest nontrivial classes and every j.  validate proves that the
    rows form a character table; this ties them to the group's class
    multiplication.  The check is exact: it is read, times chi(1)^2, on
    psi(C) = |C| chi(g_C), whose terms over zeta_e, e the lcm of the
    value orders, are summed and reduced once per side."""
    G = table.group
    sizes = [cl.size for cl in table.classes]
    chosen = sorted(range(1, len(sizes)), key=lambda c: (sizes[c], c))[:count]
    matrices = [(i, G.class_matrix(i)) for i in chosen]
    failures = []
    for r, row in enumerate(table.rows):
        deg = row.degree_int()
        e = lcm(*(v.order for v in row.values))
        psi = [[(x * (e // v.order), size * c) for x, c in v.terms()]
               for v, size in zip(row.values, sizes)]
        for i, M in matrices:
            for j, coefficients in enumerate(M):
                lhs = Cyclotomic.from_terms(e, [
                    (x + y, c * d) for x, c in psi[i] for y, d in psi[j]])
                rhs = Cyclotomic.from_terms(e, [
                    (x, deg * a * c) for k, a in enumerate(coefficients) if a
                    for x, c in psi[k]])
                if lhs != rhs:
                    failures.append((r, i, j))
    return failures


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


def semidirect_product_by_enumeration(G: FiniteGroup, r) -> FiniteGroup:
    """<G, r> as the permutation group generated by G and r, enumerated
    whole: the generic path groups.semidirect_product replaced.  r^k, k
    the coset order of r, may be any element of G."""
    r = check_realizer(G, r)
    k = coset_order(G, r)
    H = FiniteGroup(G.degree, list(G.generators) + [r],
                    name=G.name + ".%d" % k)
    if H.order != k * G.order:
        raise GroupError("<%s, r> has order %d, want %d"
                         % (G.name, H.order, k * G.order))
    return H


def right_regular(elements, mul):
    """g -> the permutation x -> x g on the positions of elements, for a
    group given by its elements and its product mul: a homomorphism under
    compose, so conjugation by its images is conjugation in the group."""
    point = {u: x for x, u in enumerate(elements)}
    return lambda g: tuple(point[mul(u, g)] for u in elements)


def dicyclic_over_cyclic(n):
    """(C_2n, x) in the dicyclic group Dic_n = <a, x | a^2n = 1,
    x^2 = a^n, x^-1 a x = a^-1> of order 4n on its right regular action:
    x normalizes C_2n = <a>, and x^2 = a^n is not 1.  Q8 for n = 2, Q12
    for n = 3."""
    def mul(u, v):
        (i, e), (j, f) = u, v
        return (i + (-1) ** e * j + n * (e & f)) % (2 * n), e ^ f

    rho = right_regular([(i, e) for e in (0, 1) for i in range(2 * n)], mul)
    return (FiniteGroup(4 * n, [rho((1, 0))], name="C%d" % (2 * n)),
            rho((0, 1)))


def c5_c2_in_c5_c8():
    """(C5 x C2, y) in C5 x| C8 = <x, y | x^5 = y^8 = 1, y x y^-1 = x^3>
    on its right regular action: y acts on C5 with order 4, and y^4
    generates the central C2, so y has coset order 4 and y^4 is not 1."""
    def mul(u, v):
        return (u[0] + 3 ** u[1] * v[0]) % 5, (u[1] + v[1]) % 8

    rho = right_regular([(a, b) for b in range(8) for a in range(5)], mul)
    return (FiniteGroup(40, [rho((1, 0)), rho((0, 4))], name="C5xC2"),
            rho((0, 1)))


def cyclic_over_half(n):
    """(C_(n/2), g) in C_n on n points, g its generator: g^2 generates
    the index-2 subgroup and is not 1."""
    g = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [perm_pow(g, 2)], name="C%d" % (n // 2)), g


def nonsplit_cases():
    """(G, r, k) for products <G, r> with r^k in G but not 1: Q8 = C4.C2,
    Q12 = C6.C2, C4 = C2.C2, C8 = C4.C2 and C5 x| C8 over C5 x C2, k = 4,
    whose coset 2 is fused by r."""
    return [dicyclic_over_cyclic(2) + (2,), dicyclic_over_cyclic(3) + (2,),
            cyclic_over_half(4) + (2,), cyclic_over_half(8) + (2,),
            c5_c2_in_c5_c8() + (4,)]


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
