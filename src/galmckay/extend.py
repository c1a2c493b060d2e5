"""Character extensions to cyclic semidirect products and invariance tests.

Given a group M, a cyclic group A = <a> of automorphisms, and a character
psi of M, the stabilizer A_psi is cyclic and psi extends to M x| A_psi in
exactly |A_psi| ways (Gallagher).  This module enumerates the extensions
by brute restriction matching and searches for one fixed by every pair
(a^j, sigma) in the joint stabilizer of psi, where sigma runs over a
group of Galois automorphisms.  The automorphism a is given by a realizer
permutation r on the points of M, acting by x -> r^-1 x r.  A `Side`
holds M's table, r and k, and builds each extension product M x| <a^d>
it is asked for once.
"""

from typing import NamedTuple

from . import GalMcKayError
from .groups import (
    automorphism_order, check_realizer, compose, perm_pow, semidirect_product,
    induced_class_permutation,
)
from .chartab import CharacterTable, dixon_schneider
from .galois import act_on_table


class ExtendError(GalMcKayError):
    pass


def automorphism_row_perms(table: CharacterTable, realizer, k: int):
    """Row permutations of a^j for j = 0..k-1, a of order dividing k.

    perms[j][i] is the index of the row chi_i composed with a^j.  They are
    the powers of the row permutation of a, cached on the table per
    (realizer, k); a table not closed under a raises ChartabError.
    """
    key = (tuple(realizer), k)
    perms = table.automorphism_perms.get(key)
    if perms is not None:
        return perms
    M = table.group
    r = check_realizer(M, realizer)
    if k % automorphism_order(M, r):
        raise ExtendError("action does not have order dividing %d" % k)
    perms = [tuple(range(len(table.rows)))]
    if k > 1:
        base = table.row_perm(induced_class_permutation(M, r))
        while len(perms) < k:
            perms.append(compose(perms[-1], base))
    perms = table.automorphism_perms[key] = tuple(perms)
    return perms


def extension_product(table: CharacterTable, realizer, q: int):
    """(M x| <r>, its character table, class fusion of M) for r of order q."""
    product = semidirect_product(table.group, realizer, q)
    big = dixon_schneider(product)
    fusion = tuple(product.class_of_element(cl.rep) for cl in table.classes)
    return product, big, fusion


class Side(NamedTuple):
    """A character table, the realizer of an automorphism a of order
    dividing k on its group, and the extension products M x| <a^d> built
    so far, by stabilizer index d."""
    table: CharacterTable
    realizer: tuple
    k: int
    products: dict

    def product(self, d: int):
        """extension_product for M x| <a^d>, built once per side."""
        found = self.products.get(d)
        if found is None:
            found = self.products[d] = extension_product(
                self.table, perm_pow(self.realizer, d), self.k // d)
        return found

    def exponent(self) -> int:
        """Exponent of M x| <a> for k > 1, of the table for k = 1."""
        return (self.product(1)[0].exponent if self.k > 1
                else self.table.exponent)


class ExtensionSet:
    """All extensions of one character to M x| A_psi."""

    def __init__(self, realizer, k, d, product, table, fusion, rows):
        self.realizer = realizer
        self.k = k
        self.d = d
        self.a_psi_order = k // d
        self.product = product
        self.table = table
        self.fusion = tuple(fusion)
        self.rows = tuple(rows)


class ExtensionWitness:
    """One extension together with its joint-stabilizer invariance report."""

    def __init__(self, extension_set, extension_row, invariance):
        self.extension_set = extension_set
        self.extension_row = extension_row
        self.invariance = tuple(invariance)
        self.invariant = all(ok for _, _, ok in self.invariance)


def find_extensions(side: Side, row: int) -> ExtensionSet:
    """All rows of Irr(M x| A_psi) restricting to side.table.rows[row].

    A = <a> with a of order dividing side.k, realized by conjugation with
    side.realizer; the product M x| A_psi comes from side.product.
    """
    table, k = side.table, side.k
    psi = table.rows[row]
    perms = automorphism_row_perms(table, side.realizer, k)
    d = next(j for j in range(1, k + 1)
             if k % j == 0 and perms[j % k][row] == row)
    q = k // d
    if q == 1:
        return ExtensionSet(side.realizer, k, d, table.group, table,
                            range(len(table.classes)), (row,))
    product, big, fusion = side.product(d)
    rows = [i for i, chi in enumerate(big.rows)
            if all(chi.values[fusion[c]] == psi.values[c]
                   for c in range(len(table.classes)))]
    if len(rows) != q:
        raise ExtendError("Gallagher count violated: %d extensions, "
                          "expected %d" % (len(rows), q))
    return ExtensionSet(side.realizer, k, d, product, big, fusion, rows)


def joint_stabilizer(side: Side, row: int, H) -> list:
    """Pairs (j, sigma) with psi composed with a^j then sigma equal to psi."""
    table = side.table
    perms = automorphism_row_perms(table, side.realizer, side.k)
    pairs = []
    for j in range(side.k):
        pairs += [(j, sigma) for sigma in H
                  if act_on_table(table, sigma)[perms[j][row]] == row]
    return pairs


def invariant_extension_exists(side: Side, row: int, H):
    """Search the extensions of a row for a joint-stabilizer-fixed one.

    Returns an ExtensionWitness; .invariant reports success.  The Galois
    group H must have modulus divisible by the extension table exponent.
    """
    ext = find_extensions(side, row)
    pairs = joint_stabilizer(side, row, H)
    gammas = automorphism_row_perms(ext.table, ext.realizer, side.k)
    reports = []
    for i in ext.rows:
        report = []
        for j, sigma in pairs:
            image = act_on_table(ext.table, sigma)[gammas[j][i]]
            report.append((j, sigma.b, image == i))
        reports.append(report)
        if all(ok for _, _, ok in report):
            return ExtensionWitness(ext, i, report)
    return ExtensionWitness(ext, ext.rows[0], reports[0])
