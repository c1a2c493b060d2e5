"""Character extensions to cyclic semidirect products and invariance tests.

Given a group M, a cyclic group A = <a> of automorphisms, and a character
psi of M, the stabilizer A_psi is cyclic and psi extends to M x| A_psi in
exactly |A_psi| ways (Gallagher).  This module enumerates the extensions
by brute restriction matching and searches for one fixed by every pair
(a^j, sigma) in the joint stabilizer of psi, where sigma runs over a
group of Galois automorphisms.  The automorphism a is given by a realizer
permutation r on the points of M, acting by x -> r^-1 x r.  A `Side`
holds M's table, r and k, owns the row action of C_k x Gal on the table,
and builds each extension product M x| <a^d> = <M, r^d> it is asked for
once.  r^k need only lie in M, with the same action and Gallagher count
as r^k = 1 (Isaacs, Character Theory of Finite Groups, 6.17 and 11.22).
"""

from functools import cached_property

from . import GalMcKayError
from .groups import (
    FiniteGroup, _orbits, check_realizer, compose, is_perm, perm_pow,
    semidirect_product, induced_class_permutation,
)
from .chartab import CharacterTable, dixon_schneider
from .galois import act_on_table


class ExtendError(GalMcKayError):
    pass


class ActionOnSet:
    """An abelian group acting on a finite index set.

    labels enumerate the abstract acting group (hashable, identical on
    both sides of a match); perms[i] is the permutation of the point set
    induced by labels[i].
    """

    def __init__(self, labels, perms, n):
        self.labels = tuple(labels)
        self.perms = tuple(tuple(p) for p in perms)
        self.n = n
        if len(self.labels) != len(self.perms):
            raise ExtendError("labels and permutations differ in length")
        if not all(is_perm(p, n) for p in self.perms):
            raise ExtendError("action image is not a permutation")

    def is_abelian(self):
        """Whether the perms generate an abelian group: the generators the
        kernel keeps generate it, so they must commute pairwise."""
        gens = FiniteGroup(self.n, self.perms).generators
        return all(compose(p, q) == compose(q, p)
                   for i, p in enumerate(gens) for q in gens[:i])

    def stabilizer(self, x):
        return frozenset(l for l, p in zip(self.labels, self.perms)
                         if p[x] == x)

    def orbits(self):
        return _orbits(self.n, self.perms)

    def restrict(self, points):
        """The action on a stable subset, renumbered in the order given."""
        pos = {x: i for i, x in enumerate(points)}
        try:
            perms = [tuple(pos[p[x]] for x in points) for p in self.perms]
        except KeyError:
            raise ExtendError("row subset is not action-stable")
        return ActionOnSet(self.labels, perms, len(pos))


class Side:
    """A character table with the row action of C_k x Gal on it: a is the
    automorphism of the table's group given by conjugation with realizer,
    and a^k fixes every row.  The side builds the row permutations of a^j
    once, the action of C_k x H once per H, and each extension product
    M x| <a^d> it is asked for once, by stabilizer index d."""

    def __init__(self, table: CharacterTable, realizer, k: int):
        self.table = table
        self.realizer = realizer
        self.k = k
        self.products = {}
        self._actions = {}

    @cached_property
    def automorphism_perms(self):
        """Row permutations of a^j for j = 0..k-1.

        perms[j][i] is the index of the row chi_i composed with a^j.  They
        are the powers of the row permutation of a; ExtendError unless
        a^k fixes every row, and a table not closed under a raises
        ChartabError.
        """
        M = self.table.group
        base = self.table.row_perm(induced_class_permutation(
            M, check_realizer(M, self.realizer)))
        perms = [tuple(range(len(self.table.rows)))]
        while len(perms) <= self.k:
            perms.append(compose(perms[-1], base))
        if perms.pop() != perms[0]:
            raise ExtendError("a^%d moves a row of the table" % self.k)
        return tuple(perms)

    def action(self, H):
        """ActionOnSet of C_k x H on the rows of the table, built once per
        H: label (j, b) acts as a^j, then sigma_b.  Labels run j-major,
        then in H's order; act_on_table runs once per residue b mod the
        table exponent."""
        H = tuple(H)
        found = self._actions.get(H)
        if found is None:
            e = self.table.exponent
            sigmas = {}
            for s in H:
                if s.m % e or s.b % e not in sigmas:
                    sigmas[s.b % e] = act_on_table(self.table, s)
            found = self._actions[H] = ActionOnSet(
                [(j, s.b) for j in range(self.k) for s in H],
                [compose(gamma, sigmas[s.b % e])
                 for gamma in self.automorphism_perms for s in H],
                len(self.table.rows))
        return found

    def product(self, d: int):
        """(side of M x| <a^d> under the same a, class fusion of M), built
        once per side; ExtendError unless the product has order
        (k/d)|M|."""
        found = self.products.get(d)
        if found is None:
            M = self.table.group
            G = semidirect_product(M, perm_pow(self.realizer, d))
            if G.order != self.k // d * M.order:
                raise ExtendError("M x| <a^%d> has order %d, not %d/%d "
                                  "times |M|" % (d, G.order, self.k, d))
            fusion = tuple(G.class_of_element(cl.rep)
                           for cl in self.table.classes)
            found = self.products[d] = (
                Side(dixon_schneider(G), self.realizer, self.k), fusion)
        return found

    def exponent(self) -> int:
        """Exponent of M x| <a> for k > 1, of the table for k = 1."""
        return (self.product(1)[0].table.exponent if self.k > 1
                else self.table.exponent)


def find_extensions(side: Side, row: int):
    """All rows of Irr(M x| A_psi) restricting to side.table.rows[row].

    A = <a> acts through C_k, k = side.k, a realized by conjugation with
    side.realizer; the product M x| A_psi comes from side.product.
    Returns (side of M x| A_psi, class fusion of M into it, rows); there
    are |A_psi| rows.
    """
    table, k = side.table, side.k
    psi = table.rows[row]
    perms = side.automorphism_perms
    d = next(j for j in range(1, k + 1)
             if k % j == 0 and perms[j % k][row] == row)
    q = k // d
    if q == 1:
        return side, tuple(range(len(table.classes))), (row,)
    big, fusion = side.product(d)
    rows = tuple(i for i, chi in enumerate(big.table.rows)
                 if all(chi.values[fusion[c]] == psi.values[c]
                        for c in range(len(table.classes))))
    if len(rows) != q:
        raise ExtendError("Gallagher count violated: %d extensions, "
                          "expected %d" % (len(rows), q))
    return big, fusion, rows


def invariant_extension_exists(side: Side, row: int, H):
    """Search the extensions of a row for a joint-stabilizer-fixed one.

    Returns the report fields witness_row (the first fixed extension, else
    the first extension), stabilizer_order (|A_psi|) and invariant.  The
    Galois group H must have modulus divisible by the extension table
    exponent.
    """
    ext_side, _, rows = find_extensions(side, row)
    stab = side.action(H).stabilizer(row)
    action = ext_side.action(H)
    witness = next((i for i in rows if stab <= action.stabilizer(i)), None)
    return {"witness_row": rows[0] if witness is None else witness,
            "stabilizer_order": len(rows),
            "invariant": witness is not None}
