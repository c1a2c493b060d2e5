"""Character extensions to cyclic semidirect products and invariance tests.

Given a group M, a cyclic group A = <a> of automorphisms, and a character
psi of M, the stabilizer A_psi is cyclic and psi extends to M x| A_psi in
exactly |A_psi| ways (Gallagher).  This module enumerates the extensions
by brute restriction matching and searches for one fixed by every pair
(a^j, sigma) in the joint stabilizer of psi, where sigma runs over a
group of Galois automorphisms.  The automorphism a is given by a realizer
permutation r on the points of M, acting by x -> r^-1 x r.  A `Side`
holds M's table, r and k, owns the row action of C_k x Gal on the table,
and builds each extension product M x| <a^d> it is asked for once.
"""

from functools import cached_property

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
    the powers of the row permutation of a; a table not closed under a
    raises ChartabError.
    """
    M = table.group
    r = check_realizer(M, realizer)
    if k % automorphism_order(M, r):
        raise ExtendError("action does not have order dividing %d" % k)
    perms = [tuple(range(len(table.rows)))]
    if k > 1:
        base = table.row_perm(induced_class_permutation(M, r))
        while len(perms) < k:
            perms.append(compose(perms[-1], base))
    return tuple(perms)


class Side:
    """A character table with the row action of C_k x Gal on it: a is an
    automorphism of order dividing k on the table's group, realized by
    conjugation with realizer.  The side builds the row permutations of
    a^j once, sigma_b's once per residue b mod the exponent, and each
    extension product M x| <a^d> it is asked for once, by stabilizer
    index d."""

    def __init__(self, table: CharacterTable, realizer, k: int):
        self.table = table
        self.realizer = realizer
        self.k = k
        self.products = {}
        self._galois_perms = {}

    @cached_property
    def automorphism_perms(self):
        """automorphism_row_perms of the table under a."""
        return automorphism_row_perms(self.table, self.realizer, self.k)

    def galois_perm(self, sigma):
        """act_on_table(self.table, sigma), built once per residue."""
        e = self.table.exponent
        b = sigma.b % e
        if sigma.m % e or b not in self._galois_perms:
            self._galois_perms[b] = act_on_table(self.table, sigma)
        return self._galois_perms[b]

    def product(self, d: int):
        """(side of M x| <a^d> under the same a, class fusion of M), built
        once per side."""
        found = self.products.get(d)
        if found is None:
            G = semidirect_product(self.table.group,
                                   perm_pow(self.realizer, d), self.k // d)
            fusion = tuple(G.class_of_element(cl.rep)
                           for cl in self.table.classes)
            found = self.products[d] = (
                Side(dixon_schneider(G), self.realizer, self.k), fusion)
        return found

    def exponent(self) -> int:
        """Exponent of M x| <a> for k > 1, of the table for k = 1."""
        return (self.product(1)[0].table.exponent if self.k > 1
                else self.table.exponent)


class ExtensionSet:
    """All extensions of one character to M x| A_psi: rows of the table
    of side, with fusion the class fusion of M into its group."""

    def __init__(self, side, d, fusion, rows):
        self.side = side
        self.d = d
        self.a_psi_order = side.k // d
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
    perms = side.automorphism_perms
    d = next(j for j in range(1, k + 1)
             if k % j == 0 and perms[j % k][row] == row)
    q = k // d
    if q == 1:
        return ExtensionSet(side, d, range(len(table.classes)), (row,))
    big, fusion = side.product(d)
    rows = [i for i, chi in enumerate(big.table.rows)
            if all(chi.values[fusion[c]] == psi.values[c]
                   for c in range(len(table.classes)))]
    if len(rows) != q:
        raise ExtendError("Gallagher count violated: %d extensions, "
                          "expected %d" % (len(rows), q))
    return ExtensionSet(big, d, fusion, rows)


def joint_stabilizer(side: Side, row: int, H) -> list:
    """Pairs (j, sigma) with psi composed with a^j then sigma equal to psi."""
    perms = side.automorphism_perms
    pairs = []
    for j in range(side.k):
        pairs += [(j, sigma) for sigma in H
                  if side.galois_perm(sigma)[perms[j][row]] == row]
    return pairs


def invariant_extension_exists(side: Side, row: int, H):
    """Search the extensions of a row for a joint-stabilizer-fixed one.

    Returns an ExtensionWitness; .invariant reports success.  The Galois
    group H must have modulus divisible by the extension table exponent.
    """
    ext = find_extensions(side, row)
    pairs = joint_stabilizer(side, row, H)
    eside = ext.side
    gammas = eside.automorphism_perms
    reports = []
    for i in ext.rows:
        report = []
        for j, sigma in pairs:
            image = eside.galois_perm(sigma)[gammas[j][i]]
            report.append((j, sigma.b, image == i))
        reports.append(report)
        if all(ok for _, _, ok in report):
            return ExtensionWitness(ext, i, report)
    return ExtensionWitness(ext, ext.rows[0], reports[0])
