"""Permutation-group kernel.

Groups are generated by permutations stored as tuples (point i maps to
p[i]).  Composition is left-to-right: compose(p, q) applies p first, and
is one itemgetter call, so the per-point loop runs in C.
Order, membership before enumeration and a base come from a stabilizer
chain, built on the same tuples by the deterministic Schreier-Sims
algorithm (Seress, Permutation Group Algorithms, 2003, ch. 4).  An
element of G is determined by the images of the base points, so the enumerated elements are indexed by
those images (their base key): enumeration, conjugacy classes, class
matrices and normalizer orbits compute a product or conjugate on the
base points only whenever a lookup is all they need, and a lookup of an
arbitrary permutation compares the whole permutation with the element
its key names.  Conjugacy classes, power maps, Sylow subgroups and
normalizers are computed here on a full element enumeration, which is
refused when its estimated memory exceeds a byte budget.

A semidirect product G ⋊ <r> with r of order k is never enumerated: it
is held as the k cosets G r^j of the enumerated G, an element as its
coset and its index in G.  Its classes, class matrices and lookups are
base-key lookups in G's index, so the byte budget bounds G alone.  The
coset G r^j with 2j > k holds the inverses of G r^(k-j), so its classes
are read from those of G r^(k-j) by one lookup per element.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from . import GalMcKayError

# bytes a full enumeration may take: elements, their base keys and class data
ENUMERATION_BUDGET = 1 << 30


def enumeration_bytes(order: int, degree: int) -> int:
    """Estimated memory of enumerating a group and its classes: per
    element, 8 bytes per point plus about 240 bytes of tuple header, list
    slots, base key, dict entry and class data (tracemalloc peaks: 218 at
    degree 65, 238 at degree 8)."""
    return order * (8 * degree + 240)


class GroupError(GalMcKayError):
    pass


class GroupTooLargeError(GroupError):
    pass


# -- permutation helpers ---------------------------------------------------

def identity_perm(degree: int) -> tuple:
    return tuple(range(degree))


def compose(p: tuple, q: tuple) -> tuple:
    """Apply p, then q: the tuple of q[p[i]], read by one itemgetter call.
    Below two points itemgetter would return a scalar, not a tuple."""
    if len(p) < 2:
        return tuple(map(q.__getitem__, p))
    return itemgetter(*p)(q)


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(x: tuple, g: tuple) -> tuple:
    """g^-1 x g (x conjugated by g)."""
    gi = inverse(g)
    return compose(compose(gi, x), g)


def perm_order(p: tuple) -> int:
    n = len(p)
    seen = [False] * n
    o = 1
    for i in range(n):
        if not seen[i]:
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            o = lcm(o, ln)
    return o


def perm_pow(p: tuple, k: int) -> tuple:
    n = len(p)
    if k < 0:
        return perm_pow(inverse(p), -k)
    acc = identity_perm(n)
    base = p
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


def is_perm(p, degree) -> bool:
    return len(p) == degree and sorted(p) == list(range(degree))


# -- stabilizer chains -----------------------------------------------------

def _sift(chain, g, start=0) -> tuple:
    """(residue, level): g divided by transversal elements from level start
    on, stopping at the first level whose orbit misses the image of its
    base point; level is len(chain) when g sifts through."""
    for i in range(start, len(chain)):
        b, _, orbit, _ = chain[i]
        t = orbit.get(g[b])
        if t is None:
            return g, i
        g = compose(g, t[1])
    return g, len(chain)


def _close_orbit(orbit, gens):
    """Close orbit under gens, keeping the entries already present.

    orbit is {x: (u, w, edge)} over the orbit of a base point b: u[b] = x,
    w = u^-1, and u = u_y gens[k] for edge = (y, k) (None at b).
    """
    inv_gens = [(g, inverse(g)) for g in gens]
    queue = list(orbit)
    for x in queue:
        u, w, _ = orbit[x]
        for k, (g, gi) in enumerate(inv_gens):
            y = g[x]
            if y not in orbit:
                orbit[y] = (compose(u, g), compose(gi, w), (x, k))
                queue.append(y)


def _extend_chain(chain, g, ident) -> bool:
    """Make chain a complete stabilizer chain of <chain, g>; False if g
    already sifts through it, so that the chain is unchanged.

    Levels after i are complete: their Schreier generators sift to the
    identity.  A generator that does not gives a new strong generator,
    and the check restarts at the deepest level it was added to.
    """
    h, j = _sift(chain, g)
    if h == ident:
        return False
    _add_strong(chain, h, j, 0)
    i = j
    while i >= 0:
        found = _sifted_schreier_generator(chain, i, ident)
        if found is None:
            i -= 1
        else:
            h, j = found
            _add_strong(chain, h, j, i + 1)
            i = j
    return True


def _sifted_schreier_generator(chain, i, ident):
    """(residue, level) of the first Schreier generator u_x s w_{x^s} of
    level i that does not sift to the identity through the later levels,
    or None.  Those of the orbit's tree edges are the identity, and the
    pairs (x, k) already checked stay checked: orbits only grow and keep
    their transversal elements."""
    _, gens, orbit, checked = chain[i]
    for x, (u, _, _) in orbit.items():
        for k, s in enumerate(gens):
            if (x, k) in checked:
                continue
            _, w, edge = orbit[s[x]]
            if edge != (x, k):
                h = compose(compose(u, s), w)
                if h != ident:
                    h, j = _sift(chain, h, i + 1)
                    if h != ident:
                        return h, j
            checked.add((x, k))
    return None


def _add_strong(chain, h, j, start):
    """Add h, which fixes the base points before level j, to the strong
    generators of levels start..j, opening level j if it is new."""
    if j == len(chain):
        b = next(x for x, y in enumerate(h) if x != y)
        ident = identity_perm(len(h))
        chain.append([b, [], {b: (ident, ident, None)}, set()])
    for _, gens, orbit, _ in chain[start:j + 1]:
        gens.append(h)
        _close_orbit(orbit, gens)


# -- conjugacy classes ------------------------------------------------------

class ConjClass:
    __slots__ = ("rep", "size", "element_order", "indices")

    def __init__(self, rep, size, element_order, indices):
        self.rep = rep
        self.size = size
        self.element_order = element_order
        self.indices = indices  # tuple of element indices, sorted

    def __repr__(self):
        return "ConjClass(order=%d, size=%d)" % (self.element_order, self.size)


def _lookup_orbits(elements, index, maps) -> list:
    """Orbits on the indices of an enumerated group under maps m -> g^-1 m h.

    Each map is a pair (h, pre) with pre the itemgetter of the base key of
    g^-1: the base image at b of g^-1 m h is h[m[g^-1[b]]], so an image
    costs one lookup in index.  Each orbit is a sorted list.
    """
    seen = [False] * len(elements)
    orbits = []
    for start in range(len(elements)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for xi in orbit:
            x = elements[xi]
            for h, pre in maps:
                yi = index[itemgetter(*pre(x))(h)]
                if not seen[yi]:
                    seen[yi] = True
                    orbit.append(yi)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def _ordered_classes(orbits, element, n) -> tuple:
    """(classes, class_of) from sorted orbits of element indices below n.

    Classes are ordered by element order, size and least index, and the
    element at the least index is the representative; element(i) is the
    permutation at index i.
    """
    keyed = []
    for orbit in orbits:
        rep = element(orbit[0])
        keyed.append((perm_order(rep), len(orbit), orbit[0], rep, orbit))
    keyed.sort(key=itemgetter(0, 1, 2))
    classes = []
    class_of = [-1] * n
    for cid, (eo, size, _, rep, orbit) in enumerate(keyed):
        classes.append(ConjClass(rep, size, eo, tuple(orbit)))
        for i in orbit:
            class_of[i] = cid
    return classes, class_of


class _Classes:
    """Class lookups shared by FiniteGroup and SemidirectProduct.  Both
    number their elements; index_of gives the number of an element and
    _compute_classes sets _classes and _class_of, the class of each
    number.  _powers caches power_classes by class."""

    @property
    def conjugacy_classes(self) -> list:
        self._compute_classes()
        return self._classes

    def class_of_element(self, p) -> int:
        """Class index of p; KeyError if p is not in the group."""
        self._compute_classes()
        return self._class_of[self.index_of(p)]

    def power_classes(self, c: int) -> list:
        """Class indices of g^t, t < |g|, for the representative g of class
        c; each power is one product after the one before it."""
        powers = self._powers.get(c)
        if powers is None:
            cl = self.conjugacy_classes[c]
            x, powers = cl.rep, [0]
            for _ in range(1, cl.element_order):
                powers.append(self.class_of_element(x))
                x = compose(x, cl.rep)
            self._powers[c] = powers
        return powers

    def power_map(self, c: int, k: int) -> int:
        """Class index of g^k for g in class c."""
        powers = self.power_classes(c)
        return powers[k % len(powers)]

    @property
    def exponent(self) -> int:
        m = 1
        for cl in self.conjugacy_classes:
            m = lcm(m, cl.element_order)
        return m


class FiniteGroup(_Classes):
    """Permutation group with cached enumeration and class data.

    A full enumeration is refused when its byte estimate (see
    enumeration_bytes) exceeds ENUMERATION_BUDGET, read at call time.
    """

    def __init__(self, degree, generators, name="G"):
        gens = []
        ident = identity_perm(degree)
        for g in generators:
            g = tuple(g)
            if not is_perm(g, degree):
                raise GroupError("bad generator for degree %d: %r" % (degree, g))
            if g != ident and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._order = None
        self._base = None
        self._elements = None
        self._index = None
        self._classes = None
        self._class_of = None
        self._powers = {}
        self._chain = None

    # -- order & membership ----------------------------------------------

    def _stabilizer_chain(self) -> list:
        """Levels [b, strong generators, orbit of b (see _close_orbit),
        checked Schreier generators], where the strong generators of a
        level fix the earlier base points.  A new base point is the least
        point moved by the generator that needs it."""
        if self._chain is None:
            chain = []
            for g in self.generators:
                _extend_chain(chain, g, identity_perm(self.degree))
            self._chain = chain
        return self._chain

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = 1
            for _, _, orbit, _ in self._stabilizer_chain():
                self._order *= len(orbit)
        return self._order

    @property
    def base(self) -> tuple:
        """Points whose images determine an element of the group: the
        base of its stabilizer chain, padded with point 0 to at least two
        points so that itemgetter(*base) returns a tuple."""
        if self._base is None:
            base = tuple(level[0] for level in self._stabilizer_chain())
            self._base = base + (0,) * (2 - len(base))
        return self._base

    def index_of(self, p) -> int:
        """Index of p in elements; KeyError if p is not in the group."""
        self._enumerate()
        p = tuple(p)
        i = None
        if len(p) == self.degree:
            i = self._index.get(itemgetter(*self._base)(p))
        if i is None or self._elements[i] != p:
            raise KeyError(p)
        return i

    def __contains__(self, p) -> bool:
        p = tuple(p)
        if self._index is not None:
            try:
                self.index_of(p)
            except KeyError:
                return False
            return True
        if not is_perm(p, self.degree):
            return False
        residue, _ = _sift(self._stabilizer_chain(), p)
        return residue == identity_perm(self.degree)

    # -- enumeration ------------------------------------------------------

    def _enumerate(self):
        if self._elements is not None:
            return
        need = enumeration_bytes(self.order, self.degree)
        if need > ENUMERATION_BUDGET:
            raise GroupTooLargeError(
                "group of order %d on %d points needs about %d bytes to "
                "enumerate (budget %d)"
                % (self.order, self.degree, need, ENUMERATION_BUDGET))
        base = self.base
        base_key = itemgetter(*base)
        ident = identity_perm(self.degree)
        elements = [ident]
        index = {base_key(ident): 0}
        gens = self.generators
        for e in elements:
            # the base key of e*g is g applied to the base key of e
            key_of = itemgetter(*base_key(e))
            for g in gens:
                key = key_of(g)
                if key not in index:
                    index[key] = len(elements)
                    elements.append(compose(e, g))
        assert len(elements) == self.order
        self._elements = elements
        self._index = index

    @property
    def elements(self) -> list:
        self._enumerate()
        return self._elements

    def conjugate_indices(self, S, g) -> frozenset:
        """Indices of g^-1 x g over the element indices x in S, for g in G
        or a checked realizer g (see check_realizer).

        The base image at b of g^-1 x g is g[x[g^-1[b]]].
        """
        elements, index = self.elements, self._index
        pre = itemgetter(*itemgetter(*self._base)(inverse(g)))
        return frozenset(index[itemgetter(*pre(elements[i]))(g)] for i in S)

    # -- conjugacy classes -------------------------------------------------

    def _compute_classes(self):
        if self._classes is not None:
            return
        self._enumerate()
        # conjugation by g: see conjugate_indices
        base_key = itemgetter(*self._base)
        maps = [(g, itemgetter(*base_key(inverse(g))))
                for g in self.generators]
        orbits = _lookup_orbits(self._elements, self._index, maps)
        self._classes, self._class_of = _ordered_classes(
            orbits, self._elements.__getitem__, len(self._elements))

    def quotient_classes(self, xi: int) -> list:
        """Class indices of x^-1 z over the class representatives z, for
        the element x at index xi.

        The base image of x^-1 z at b is z[x^-1[b]].
        """
        self._compute_classes()
        key_of = itemgetter(*map(self._elements[xi].index, self._base))
        index, class_of = self._index, self._class_of
        return [class_of[index[key_of(cl.rep)]] for cl in self._classes]

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, gens, name=None) -> "FiniteGroup":
        for g in gens:
            if tuple(g) not in self:
                raise GroupError("generator not in group")
        return FiniteGroup(self.degree, gens, name or self.name + "-sub")

    def sylow_subgroup(self, p: int) -> "FiniteGroup":
        if self.order % p:
            raise GroupError("%d does not divide group order %d"
                             % (p, self.order))
        target = 1
        o = self.order
        while o % p == 0:
            target *= p
            o //= p
        gens: list = []
        P = self.subgroup(gens, name="P")
        while P.order < target:
            N = self if not gens else self.normalizer(P)
            grew = False
            for x in N.elements:
                o = perm_order(x)
                m = o
                while m % p == 0:
                    m //= p
                y = perm_pow(x, m)  # p-part of x
                if y != identity_perm(self.degree) and y not in P:
                    gens.append(y)
                    P = self.subgroup(gens, name="P")
                    grew = True
                    break
            if not grew:
                raise GroupError("Sylow saturation failed")  # pragma: no cover
        return P

    def normalizer(self, H: "FiniteGroup") -> "FiniteGroup":
        """N_G(H) for H <= G via orbit-stabilizer on the conjugates of H,
        each held as the set of its element indices in G.  A Schreier
        generator is kept, in sorted order, only if it is not in the
        group the ones kept before it generate."""
        if H.degree != self.degree:
            raise GroupError("degree mismatch")
        if any(h not in self for h in H.generators):
            raise GroupError("%s is not a subgroup of %s" % (H.name, self.name))
        start = frozenset(map(self.index_of, H.elements))
        ident = identity_perm(self.degree)
        orbit = {start: ident}
        queue = [start]
        stab = set()
        while queue:
            S = queue.pop(0)
            t = orbit[S]
            for g in self.generators:
                Sg = self.conjugate_indices(S, g)
                u = orbit.get(Sg)
                if u is None:
                    orbit[Sg] = compose(t, g)
                    queue.append(Sg)
                else:
                    sch = compose(compose(t, g), inverse(u))
                    if sch != ident:
                        stab.add(sch)
        chain = []
        gens = [s for s in sorted(stab) if _extend_chain(chain, s, ident)]
        N = FiniteGroup(self.degree, gens, name="N_%s" % (H.name,))
        assert self.order % (N.order or 1) == 0
        assert N.order * len(orbit) == self.order
        return N

    def __repr__(self):
        return "FiniteGroup(%s, degree=%d, gens=%d)" % (
            self.name, self.degree, len(self.generators))


# -- automorphisms given by realizer permutations -------------------------
#
# An automorphism of G is represented by a permutation r on the same points
# with r^-1 G r = G; it acts by x -> conjugate(x, r).

def check_realizer(G: FiniteGroup, r) -> tuple:
    """r as a tuple, after checking that conjugation by r maps G to G."""
    r = tuple(r)
    if not is_perm(r, G.degree):
        raise GroupError("realizer is not a permutation of degree %d"
                         % G.degree)
    if any(conjugate(s, r) not in G for s in G.generators):
        raise GroupError("realizer does not normalize %s" % G.name)
    return r


def automorphism_order(G: FiniteGroup, r) -> int:
    """Order of the automorphism of G induced by the realizer r."""
    acc, j = tuple(r), 1
    while any(conjugate(s, acc) != s for s in G.generators):
        acc, j = compose(acc, r), j + 1
    return j


def induced_class_permutation(G: FiniteGroup, r) -> tuple:
    """Class indices of the images of the classes under conjugation by r."""
    try:
        return tuple(G.class_of_element(conjugate(cl.rep, r))
                     for cl in G.conjugacy_classes)
    except KeyError:
        raise GroupError("realizer does not normalize %s" % G.name)


# -- semidirect products ---------------------------------------------------

def semidirect_product(G: FiniteGroup, r, k: int) -> "SemidirectProduct":
    """G ⋊ <r> for a realizer r of order k with <r> meeting G trivially,
    on the points of G: G is a subgroup and conjugation by r induces the
    defining automorphism."""
    if k < 1:
        raise GroupError("k must be positive")
    r = check_realizer(G, r)
    if perm_pow(r, k) != identity_perm(G.degree):
        raise GroupError("realizer^k is not the identity")
    for j in range(1, k):
        if perm_pow(r, j) in G:
            raise GroupError("realizer lies in the group or has extra order "
                             "(r^%d is in %s)" % (j, G.name))
    return SemidirectProduct(G, r, k)


class SemidirectProduct(_Classes):
    """G ⋊ <r> as the cosets G r^j, 0 <= j < k, of the enumerated group G.

    The element m r^j has index j*|G| + G.index_of(m); an element is
    composed only when it is asked for.  Conjugation keeps each coset:
    for g in G, g^-1 (m r^j) g = g^-1 m (r^j g r^-j) r^j, and
    r^-1 (m r^j) r = (r^-1 m r) r^j, so the classes in coset j are orbits
    of maps m -> g^-1 m h on G's element indices (see _lookup_orbits).
    In coset 0 they are the r-orbits of G's classes.  Coset j > k/2 holds
    the inverses of coset k - j, so its classes are the inverses of those
    classes, one lookup per element.  Classes are ordered as FiniteGroup
    orders them.
    """

    def __init__(self, G: FiniteGroup, r: tuple, k: int):
        self.degree = G.degree
        self.generators = G.generators + ((r,) if k > 1 else ())
        self.name = G.name + ".%d" % k
        self.order = k * G.order
        self._G = G
        self._r = r
        self._k = k
        self._rpow = [perm_pow(r, j) for j in range(k)]
        self._rinv = [inverse(p) for p in self._rpow]
        # r^-a applied to G's base, for quotient_classes
        self._base_pre = [itemgetter(*G.base)(w) for w in self._rinv]
        self._classes = None
        self._class_of = None
        self._powers = {}
        self._shifted = None

    def _element(self, i: int) -> tuple:
        j, mi = divmod(i, self._G.order)
        return compose(self._G.elements[mi], self._rpow[j])

    def index_of(self, p) -> int:
        """Index of p: the coset j with p r^-j in G; KeyError if none."""
        p = tuple(p)
        G = self._G
        if is_perm(p, self.degree):
            for j, w in enumerate(self._rinv):
                try:
                    return j * G.order + G.index_of(compose(p, w))
                except KeyError:
                    pass
        raise KeyError(p)

    def __contains__(self, p) -> bool:
        try:
            self.index_of(p)
        except KeyError:
            return False
        return True

    def _compute_classes(self):
        if self._classes is not None:
            return
        G, r, k, n = self._G, self._r, self._k, self._G.order
        # coset 0: unions of the G-classes in one orbit of r
        cperm = induced_class_permutation(G, r)
        done = [False] * len(cperm)
        orbits = []
        for start in range(len(cperm)):
            merged, c = [], start
            while not done[c]:
                done[c] = True
                merged += G.conjugacy_classes[c].indices
                c = cperm[c]
            if merged:
                orbits.append(sorted(merged))
        # coset 0 < j <= k/2: conjugation by each generator of G and by r
        base_key = itemgetter(*G.base)
        pres = [itemgetter(*base_key(inverse(g))) for g in G.generators]
        r_map = (r, itemgetter(*base_key(inverse(r))))
        elements, index = G.elements, G._index
        by_coset = {}
        for j in range(1, k // 2 + 1):
            maps = [(conjugate(g, self._rinv[j]), pre)
                    for g, pre in zip(G.generators, pres)] + [r_map]
            by_coset[j] = _lookup_orbits(elements, index, maps)
        # coset j > k/2 holds the inverses of coset c = k - j:
        # (m r^c)^-1 = m' r^j with m' = r^-c m^-1 r^c, whose base image at
        # b is r^c[m^-1[r^-c[b]]]
        for j in range(k // 2 + 1, k):
            c = k - j
            pre, rc = self._base_pre[c], self._rpow[c]
            by_coset[j] = [
                sorted(index[itemgetter(*map(elements[i].index, pre))(rc)]
                       for i in orbit)
                for orbit in by_coset[c]]
        for j in range(1, k):
            for orbit in by_coset[j]:
                orbits.append([j * n + i for i in orbit])
        self._classes, self._class_of = _ordered_classes(
            orbits, self._element, self.order)
        # for x in coset a and a representative z in coset b, x^-1 z lies
        # in coset c = b - a: z r^-c and the index offset of coset c
        self._shifted = []
        for a in range(k):
            row = []
            for cl in self._classes:
                c = (cl.indices[0] // n - a) % k
                row.append((compose(cl.rep, self._rinv[c]), c * n))
            self._shifted.append(row)

    def quotient_classes(self, xi: int) -> list:
        """Class indices of x^-1 z over the class representatives z, for
        the element x = m r^a at index xi.

        The base image at b of the G-part x^-1 z r^-c is (z r^-c)[x^-1[b]],
        with x^-1[b] = m^-1[r^-a[b]].
        """
        self._compute_classes()
        a, mi = divmod(xi, self._G.order)
        key_of = itemgetter(*map(self._G.elements[mi].index,
                                 self._base_pre[a]))
        index, class_of = self._G._index, self._class_of
        return [class_of[off + index[key_of(z)]]
                for z, off in self._shifted[a]]
