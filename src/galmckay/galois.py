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

from . import GalMcKayError
from .cyclo import ONE
from .groups import FiniteGroup, compose, inverse, induced_class_permutation
from .ntheory import isprime
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


def h_group(p, m) -> tuple:
    """The Galois elements mod m acting as a power of p on p'-roots of
    unity."""
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
    return tuple(GaloisElement(m, b) for b in range(m)
                 if gcd(b, m) == 1 and b % m_pp in powers)


def power_class_permutation(group: FiniteGroup, b: int) -> tuple:
    """Class indices of rep^b for the class representatives of group."""
    return tuple(group.power_map(c, b % cl.element_order)
                 for c, cl in enumerate(group.conjugacy_classes))


def _check_modulus(table: CharacterTable, sigma: GaloisElement):
    if table.exponent > 1 and sigma.m % table.exponent:
        raise GaloisError("modulus %d not divisible by table exponent %d"
                          % (sigma.m, table.exponent))


def _generated(subgroup, b, m):
    """The subgroup of (Z/m)^x generated by a subgroup and the residue b."""
    out = set(subgroup)
    x = b
    while x not in subgroup:
        out.update(x * h % m for h in subgroup)
        x = x * b % m
    return frozenset(out)


def act_on_table(table: CharacterTable, sigma: GaloisElement):
    """Row permutation induced by applying sigma to every value.

    Returns a tuple perm with perm[i] = index of the image of row i.
    Since sigma_b(chi(g)) = chi(g^b), this is the row permutation of the
    power-map class permutation, cached on the table per residue b mod the
    exponent.  For b outside the subgroup of residues already checked, the
    image of every row is also computed value by value and must agree.
    The identity passes from b and c to bc, so every returned permutation
    equals the value-wise action.
    """
    _check_modulus(table, sigma)
    e = table.exponent
    b = sigma.b % e
    perm = table.galois_perms.get(b)
    if perm is not None:
        return perm
    try:
        perm = table.row_perm(power_class_permutation(table.group, b))
    except ChartabError:
        raise GaloisError("table is not closed under the Galois action")
    if sorted(perm) != list(range(len(table.rows))):
        raise GaloisError("Galois action on rows is not a bijection")
    if b not in table.galois_checked:
        for i, row in enumerate(table.rows):
            if row.galois(b) != table.rows[perm[i]]:
                raise GaloisError("Galois action on row %d disagrees with "
                                  "the power map" % i)
        table.galois_checked = _generated(table.galois_checked, b, e)
    table.galois_perms[b] = perm
    return perm


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

    def __repr__(self):
        return ("McKayLabel(s_row=%d, orbit=%d, stab=%d, eta=%d)"
                % (self.s_row, len(self.orbit), self.stabilizer_order,
                   self.eta_index))


def _complement_part(x, t_set, comp_elements):
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

    # Row permutation of Irr(T) induced by conjugation with each w in W:
    # (chi . w)(t) = chi(w^-1 t w).
    row_perm = {w: tt.row_perm(induced_class_permutation(T, w))
                for w in w_elements}

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

    # Orbits grouped by the stabilizer W_s of their representative s, so
    # that W_s, N_s and the table of W_s are built once per stabilizer.
    by_stabilizer = {}
    for orbit in orbits:
        stab = [w for w in w_elements if row_perm[w][orbit[0]] == orbit[0]]
        by_stabilizer.setdefault(frozenset(stab), (stab, []))[1].append(orbit)

    labels = {}
    for stab, stab_orbits in by_stabilizer.values():
        Ws = N.subgroup(stab, name="W_s")
        if Ws.order != len(stab):
            raise GaloisError("stabilizer enumeration inconsistent")
        Ns = N.subgroup(list(T.generators) + stab, name="N_s")
        if Ns.order != T.order * Ws.order:
            raise GaloisError("stabilizer subgroup has wrong order")
        wt = dixon_schneider(Ws)
        # Decompose every class representative of N_s as t * w.
        parts = [_complement_part(cl.rep, t_set, stab)
                 for cl in Ns.conjugacy_classes]
        for orbit in stab_orbits:
            s = orbit[0]
            s_vals = tt.rows[s].values
            for j, eta in enumerate(wt.rows):
                vals = []
                for t, w in parts:
                    vt = s_vals[T.class_of_element(t)]
                    vw = eta.values[Ws.class_of_element(w)]
                    vals.append(vt * vw)
                cf = ClassFunction(Ns, vals)
                if inner_product(cf, cf) != ONE:
                    raise GaloisError(
                        "extension times inflation not irreducible")
                ind = induce(N, Ns, cf)
                if inner_product(ind, ind) != ONE:
                    raise GaloisError(
                        "induced label character not irreducible")
                try:
                    idx = table.row_index(ind)
                except ChartabError:
                    raise GaloisError(
                        "label character missing from the table")
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
