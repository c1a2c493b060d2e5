"""Galois actions on character tables and Clifford labels of local rows.

For a prime p and a modulus m, the relevant Galois automorphisms are the
residues b mod m that act as some power of p on roots of unity of order
prime to p while acting arbitrarily on p-power roots.  This module builds
that group, lets it permute the rows of a character table, checks the
compatibility between Galois action and class power maps, and labels the
irreducible characters of a torus normalizer by pairs (torus character
orbit, complement character).
"""

from math import gcd

from sympy import isprime

from . import GalMcKayError
from .cyclo import ONE
from .groups import FiniteGroup, compose, inverse, identity_perm
from .chartab import (
    CharacterTable, ClassFunction, ChartabError, dixon_schneider,
    induce, inner_product,
)


class GaloisError(GalMcKayError):
    pass


class GaloisElement:
    """The automorphism of Q(zeta_m) sending zeta_m to zeta_m^b."""

    __slots__ = ("m", "b")

    def __init__(self, m, b):
        if m < 1:
            raise GaloisError("modulus must be positive")
        b %= m
        if gcd(b, m) != 1:
            raise GaloisError("residue %d not a unit mod %d" % (b, m))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("GaloisElement is immutable")

    def __eq__(self, other):
        return (isinstance(other, GaloisElement)
                and self.m == other.m and self.b == other.b)

    def __hash__(self):
        return hash((self.m, self.b))

    def __repr__(self):
        return "GaloisElement(m=%d, b=%d)" % (self.m, self.b)

    def compose(self, other):
        if self.m != other.m:
            raise GaloisError("mixed moduli")
        return GaloisElement(self.m, self.b * other.b)

    def inverse(self):
        if self.m == 1:
            return self
        return GaloisElement(self.m, pow(self.b, -1, self.m))

    def is_identity(self):
        return self.b == 1 % self.m

    def apply(self, value):
        """Apply to a cyclotomic whose order divides the modulus."""
        if self.m % value.order:
            raise GaloisError("value order %d does not divide modulus %d"
                              % (value.order, self.m))
        if value.order == 1:
            return value
        return value.galois(self.b)


class HGroup:
    """The image mod m of the Galois group attached to the prime p."""

    def __init__(self, p, m, elements):
        self.p = p
        self.m = m
        self.elements = tuple(elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, sigma):
        return sigma in self.elements

    def residues(self):
        return [s.b for s in self.elements]

    def __repr__(self):
        return "HGroup(p=%d, m=%d, order=%d)" % (self.p, self.m,
                                                 len(self.elements))


def h_group(p, m) -> HGroup:
    """Residues mod m acting as a power of p on p'-roots of unity."""
    if not isprime(p):
        raise GaloisError("p must be prime")
    if m < 1:
        raise GaloisError("modulus must be positive")
    m_pp = m
    while m_pp % p == 0:
        m_pp //= p
    powers = set()
    x = 1 % m_pp
    while x not in powers:
        powers.add(x)
        x = (x * p) % m_pp
    elems = [GaloisElement(m, b) for b in range(m)
             if gcd(b, m) == 1 and b % m_pp in powers]
    if m == 1:
        elems = [GaloisElement(1, 0)]
    return HGroup(p, m, elems)


def full_galois_group(m) -> list:
    """All of Gal(Q(zeta_m)/Q) as GaloisElement objects."""
    if m == 1:
        return [GaloisElement(1, 0)]
    return [GaloisElement(m, b) for b in range(1, m) if gcd(b, m) == 1]


def act_on_table(table: CharacterTable, sigma: GaloisElement):
    """Row permutation induced by applying sigma to every value.

    Returns a tuple perm with perm[i] = index of the image of row i.
    """
    if table.exponent > 1 and sigma.m % table.exponent:
        raise GaloisError("modulus %d not divisible by table exponent %d"
                          % (sigma.m, table.exponent))
    perm = []
    for row in table.rows:
        image = row.galois(sigma.b) if table.exponent > 1 else row
        try:
            perm.append(table.row_index(image))
        except ChartabError:
            raise GaloisError("table is not closed under the Galois action")
    if sorted(perm) != list(range(len(table.rows))):
        raise GaloisError("Galois action on rows is not a bijection")
    return tuple(perm)


def power_compatibility_check(table: CharacterTable, sigma: GaloisElement):
    """True iff sigma(chi(g)) = chi(g^b) for every row and class."""
    if table.exponent > 1 and sigma.m % table.exponent:
        raise GaloisError("modulus %d not divisible by table exponent %d"
                          % (sigma.m, table.exponent))
    G = table.group
    b = sigma.b
    powered = [G.power_map(c, b) for c in range(len(table.classes))]
    for row in table.rows:
        for c, v in enumerate(row.values):
            if sigma.apply(v) != row.values[powered[c]]:
                return False
    return True


class McKayLabel:
    """Label (s, eta) of a torus-normalizer character.

    s is recorded by the index of its orbit representative among the rows
    of the torus character table, eta by its row index in the character
    table of the stabilizer of s inside the complement.
    """

    __slots__ = ("s_row", "s_values", "orbit", "stabilizer_order",
                 "eta_index", "eta_degree")

    def __init__(self, s_row, s_values, orbit, stabilizer_order,
                 eta_index, eta_degree):
        self.s_row = s_row
        self.s_values = tuple(s_values)
        self.orbit = tuple(orbit)
        self.stabilizer_order = stabilizer_order
        self.eta_index = eta_index
        self.eta_degree = eta_degree

    @property
    def s_trivial(self):
        return all(v == ONE for v in self.s_values)

    def __repr__(self):
        return ("McKayLabel(s_row=%d, orbit=%d, stab=%d, eta=%d)"
                % (self.s_row, len(self.orbit), self.stabilizer_order,
                   self.eta_index))


def _complement_part(x, t_set, comp_elements, degree):
    """Split x = t * w with t in the torus and w in the complement."""
    for w in comp_elements:
        t = compose(x, inverse(w))
        if t in t_set:
            return t, w
    raise GaloisError("element does not split over the torus")


def clifford_label(spec, table=None):
    """Map row index of Irr(N) to its McKayLabel for a torus normalizer.

    N = T x| W with T abelian.  Characters over an orbit representative
    chi_s of W on Irr(T) arise as Ind from T x| W_s of the canonical
    extension of chi_s times an inflated eta in Irr(W_s).
    """
    N = spec.group
    if table is None:
        table = dixon_schneider(N)
    if table.group is not N:
        raise GaloisError("table does not belong to the given group")
    T = spec.torus_subgroup()
    W = N.subgroup(spec.complement_gens, name="W")
    if T.order * W.order != N.order:
        raise GaloisError("torus and complement orders do not multiply up")
    t_set = set(T.elements)
    w_elements = sorted(W.elements)
    if sum(1 for w in w_elements if w in t_set) != 1:
        raise GaloisError("complement meets the torus nontrivially")

    tt = dixon_schneider(T)
    n_tc = len(T.conjugacy_classes)

    # Row permutation of Irr(T) induced by conjugation with each w in W:
    # (chi . w)(t) = chi(w^-1 t w).
    row_perm = {}
    for w in w_elements:
        cperm = [T.class_of_element(compose(compose(inverse(w),
                                                    cl.rep), w))
                 for cl in T.conjugacy_classes]
        perm = []
        for row in tt.rows:
            image = ClassFunction(T, [row.values[cperm[c]]
                                      for c in range(n_tc)])
            perm.append(tt.row_index(image))
        row_perm[w] = tuple(perm)

    # Orbits of W on Irr(T).
    orbits = []
    seen = set()
    for i in range(len(tt.rows)):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for w in spec.complement_gens:
                k = row_perm[tuple(w)][j]
                if k not in orbit:
                    orbit.add(k)
                    frontier.append(k)
        seen |= orbit
        orbits.append(sorted(orbit))

    labels = {}
    for orbit in orbits:
        s = orbit[0]
        stab = [w for w in w_elements if row_perm[w][s] == s]
        Ws = N.subgroup(stab, name="W_s")
        if Ws.order != len(stab):
            raise GaloisError("stabilizer enumeration inconsistent")
        Ns = N.subgroup(list(T.generators) + stab, name="N_s")
        if Ns.order != T.order * Ws.order:
            raise GaloisError("stabilizer subgroup has wrong order")
        wt = dixon_schneider(Ws)
        # Decompose every class representative of N_s as t * w.
        parts = [_complement_part(cl.rep, t_set, stab, N.degree)
                 for cl in Ns.conjugacy_classes]
        s_vals = tt.rows[s].values
        for j, eta in enumerate(wt.rows):
            vals = []
            for t, w in parts:
                vt = s_vals[T.class_of_element(t)]
                vw = eta.values[Ws.class_of_element(w)]
                vals.append(vt * vw)
            cf = ClassFunction(Ns, vals)
            if inner_product(cf, cf) != ONE:
                raise GaloisError("extension times inflation not irreducible")
            ind = induce(N, Ns, cf)
            if inner_product(ind, ind) != ONE:
                raise GaloisError("induced label character not irreducible")
            try:
                idx = table.row_index(ind)
            except ChartabError:
                raise GaloisError("label character missing from the table")
            if idx in labels:
                raise GaloisError("row %d labeled twice" % idx)
            labels[idx] = McKayLabel(s, s_vals, orbit, len(stab), j,
                                     eta.degree_int())
    if len(labels) != len(table.rows):
        raise GaloisError("labeling incomplete: %d of %d rows"
                          % (len(labels), len(table.rows)))
    if sum(table.rows[i].degree_int() ** 2 for i in labels) != N.order:
        raise GaloisError("degree check failed")
    return labels
