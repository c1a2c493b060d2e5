"""Character extensions to cyclic semidirect products and invariance tests.

Given a group M, a cyclic group A = <a> of automorphisms, and a character
psi of M, the stabilizer A_psi is cyclic and psi extends to M x| A_psi in
exactly |A_psi| ways (Gallagher).  This module enumerates the extensions
by brute restriction matching and searches for one fixed by every pair
(a^j, sigma) in the joint stabilizer of psi, where sigma runs over a
group of Galois automorphisms.  The automorphism a is given by a realizer
permutation r on the points of M, acting by x -> r^-1 x r.
"""

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


class ExtensionSet:
    """All extensions of one character to M x| A_psi."""

    def __init__(self, base_table, base_row, realizer, k, d, product,
                 table, fusion, rows):
        self.base_table = base_table
        self.base_row = base_row
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
        self.base_row = extension_set.base_row
        self.extension_row = extension_row
        self.invariance = tuple(invariance)
        self.invariant = all(ok for _, _, ok in self.invariance)


def find_extensions(table: CharacterTable, realizer, k: int, row: int,
                    cache=None) -> ExtensionSet:
    """All rows of Irr(M x| A_psi) restricting to table.rows[row].

    A = <a> with a of order dividing k, realized by conjugation with the
    permutation realizer.  An optional cache dict (private to one (table,
    realizer, k) triple) stores extension_product results per stabilizer
    index d.
    """
    psi = table.rows[row]
    perms = automorphism_row_perms(table, realizer, k)
    realizer = tuple(realizer)
    d = next(j for j in range(1, k + 1)
             if k % j == 0 and perms[j % k][row] == row)
    q = k // d
    if q == 1:
        fusion = tuple(range(len(table.classes)))
        return ExtensionSet(table, row, realizer, k, d, table.group, table,
                            fusion, (row,))
    if cache is not None and d in cache:
        product, big, fusion = cache[d]
    else:
        product, big, fusion = extension_product(
            table, perm_pow(realizer, d), q)
        if cache is not None:
            cache[d] = (product, big, fusion)
    rows = []
    for i, chi in enumerate(big.rows):
        if all(chi.values[fusion[c]] == psi.values[c]
               for c in range(len(table.classes))):
            rows.append(i)
    if len(rows) != q:
        raise ExtendError("Gallagher count violated: %d extensions, "
                          "expected %d" % (len(rows), q))
    return ExtensionSet(table, row, realizer, k, d, product, big, fusion,
                        rows)


def joint_stabilizer(table: CharacterTable, realizer, k: int, row: int,
                     H) -> list:
    """Pairs (j, sigma) with psi composed with a^j then sigma equal to psi."""
    perms = automorphism_row_perms(table, realizer, k)
    pairs = []
    for j in range(k):
        pairs += [(j, sigma) for sigma in H
                  if act_on_table(table, sigma)[perms[j][row]] == row]
    return pairs


def invariant_extension_exists(table: CharacterTable, realizer, k: int,
                               row: int, H, cache=None):
    """Search the extensions of a row for a joint-stabilizer-fixed one.

    Returns an ExtensionWitness; .invariant reports success.  The Galois
    group H must have modulus divisible by the extension table exponent.
    """
    ext = find_extensions(table, realizer, k, row, cache=cache)
    pairs = joint_stabilizer(table, realizer, k, row, H)
    gammas = automorphism_row_perms(ext.table, ext.realizer, k)
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
