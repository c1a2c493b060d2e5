"""Test oracles and fixtures that galmckay itself never calls.

Each is an independent or brute-force counterpart of a library path, or a
small standard group the tests build tables of.
"""

import cmath
from fractions import Fraction
from itertools import permutations
from math import gcd

from galmckay.cyclo import Cyclotomic
from galmckay.galois import (
    GaloisElement, _check_modulus, power_class_permutation,
)
from galmckay.groups import (
    FiniteGroup, GroupError, check_realizer, identity_perm, perm_pow,
)
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


# -- small standard groups ----------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup(1, [], name="C1")
    return FiniteGroup(n, [tuple((i + 1) % n for i in range(n))],
                       name="C%d" % n)


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


# -- Galois action -------------------------------------------------------------

def full_galois_group(m) -> list:
    """All of Gal(Q(zeta_m)/Q) as GaloisElement objects."""
    if m == 1:
        return [GaloisElement(1, 0)]
    return [GaloisElement(m, b) for b in range(1, m) if gcd(b, m) == 1]


def power_compatibility_check(table, sigma: GaloisElement):
    """True iff sigma(chi(g)) = chi(g^b) for every row and class."""
    _check_modulus(table, sigma)
    powered = power_class_permutation(table.group, sigma.b)
    return all(row.galois(sigma.b).values
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
