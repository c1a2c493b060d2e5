"""Permutation-group kernel.

Groups are generated by permutations stored as tuples (point i maps to
p[i]).  Composition is left-to-right: compose(p, q) applies p first, and
is one itemgetter call, so the per-point loop runs in C.  Order,
membership and a base come from a stabilizer chain, built on the same
tuples by the deterministic Schreier-Sims algorithm (Seress, Permutation
Group Algorithms, 2003, ch. 4); membership sifts through it.

An element of G is determined by the images of the base points, its base
key: on at most 256 points a bytes object, which a generator moves in C
with bytes.translate and whose hash is cached, and a tuple above.  An
enumerated group stores no permutations.  It numbers its elements
e_0 = 1, e_1, ... in breadth-first order over the generators; the
breadth-first search tells elements apart by their base keys, and the map
from keys to numbers, with a queue of the keys not yet moved, lives only
while it runs.  The group then keeps three things:
- the right-multiplication table R_s[i] = number of e_i s of each
  generator s;
- the breadth-first tree, e_i = e_parent(i) s for one generator s;
- the tree word of each transversal element of the stabilizer chain.
Every other answer is an integer table derived from these.  Right
multiplication by an element applies the R tables along its tree word.
The number of a permutation p comes from the Schreier-Sims sift, which
also decides membership: it gives p = u_(L-1) ... u_0 over transversal
elements, and the R tables applied along their words number the product.
A walk down the tree gives the left table L_h[i] = number of h e_i, and
the conjugation table of generator s is C_s = R_s after L_(s^-1).  Any
other element, a realizer included, acts by conjugating permutations,
each numbered by a sift.  A group keeps, in the order given, only the
generators that extend its stabilizer chain; conjugacy classes are the
orbits of their C tables.  A class matrix counts the classes of u z over
an inverse class, and normalizers and transporters walk the conjugates
of index sets through the C tables, each conjugate held as the ascending
tuple of its numbers.  A permutation is rebuilt from the tree only when
it is asked for: class representatives and the elements of small groups.
Enumeration is refused when its estimated memory exceeds a byte budget.

A product <G, r> by a realizer r is never enumerated: for k the least
with r^k in G, where r^k need not be 1, it is held as the k cosets G r^j
of the enumerated G, an element as its coset and its number in G.  Its
classes and class matrices are read from G's tables and a few conjugates
by powers of r, so the byte budget bounds G alone.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from functools import cache
from math import gcd, lcm
from itertools import repeat
from operator import getitem, itemgetter

from . import GalMcKayError

# bytes an enumeration may take: base keys, tables, class data
ENUMERATION_BUDGET = 1 << 30


def enumeration_bytes(order: int, base_length: int, generators: int) -> int:
    """Estimated peak memory of enumerating a group, its classes and class
    matrices.  Per element: the base key (charged as a tuple of 40 + 8 *
    base_length bytes, the key above 256 points; up to 256 points it is a
    bytes object of 33 + base_length bytes), its dict entry and the
    element's number (about 80), the tree (16), the R table and the
    conjugation table of each generator (16 per generator), and about 40
    for class data and transient tables.  The base keys and their map
    live only while the enumeration runs, so the estimate bounds its
    peak, not what the group holds afterwards.  tracemalloc peaks per
    element of enumerating a group and building its character table: 143
    for Sz(8) (degree 65, a base of 3 points, 3 generators; estimate 248)
    and 126 for S8 (degree 8, a base of 7 points, 2 generators; estimate
    264)."""
    return order * (8 * base_length + 16 * generators + 176)


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


@cache
def _points(degree: int) -> frozenset:
    return frozenset(range(degree))


def is_perm(p, degree) -> bool:
    """p lists each of the points 0, ..., degree - 1 once."""
    return len(p) == degree and _points(degree) == set(p)


# -- stabilizer chains -----------------------------------------------------

def _sift(chain, g, start=0) -> tuple:
    """(residue, level, points): g divided by transversal elements from
    level start on, stopping at the first level whose orbit misses the
    image of its base point; level is len(chain) when g sifts through,
    and points are the base-point images divided out."""
    points = []
    for i in range(start, len(chain)):
        b, _, orbit, _ = chain[i]
        x = g[b]
        t = orbit.get(x)
        if t is None:
            return g, i, points
        points.append(x)
        g = compose(g, t[1])
    return g, len(chain), points


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
    h, j, _ = _sift(chain, g)
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
                    h, j, _ = _sift(chain, h, i + 1)
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
    """A class: its representative (a permutation), size, element order
    and indices, an int32 array of its element numbers in ascending
    order."""
    __slots__ = ("rep", "size", "element_order", "indices")

    def __init__(self, rep, size, element_order, indices):
        self.rep = rep
        self.size = size
        self.element_order = element_order
        self.indices = indices

    def __repr__(self):
        return "ConjClass(order=%d, size=%d)" % (self.element_order, self.size)


def _orbits(n: int, tables) -> list:
    """Orbits on range(n) under the index maps in tables, each sorted."""
    seen = bytearray(n)   # one byte a point, not a list's 8-byte pointer
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:
            for table in tables:
                y = table[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
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
    class_of = array("i", [-1]) * n
    for cid, (eo, size, _, rep, orbit) in enumerate(keyed):
        classes.append(ConjClass(rep, size, eo, array("i", orbit)))
        for i in orbit:
            class_of[i] = cid
    return classes, class_of


class _Classes:
    """Class lookups shared by FiniteGroup and SemidirectProduct.  Both
    number their elements; index_of gives the number of an element,
    times(S, i) the numbers of the products s e_i, and _compute_classes
    sets _classes and _class_of, the class of each number.  _powers
    caches power_classes by class."""

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
        c.  One walk serves the rational class of c: each power is one
        product after the one before it, and for t prime to |g| the class
        of (g^t)^s is that of g^(ts)."""
        powers = self._powers.get(c)
        if powers is None:
            powers = self._power_walk(c)
            o = len(powers)
            for t in range(o):
                if powers[t] not in self._powers and gcd(t, o) == 1:
                    self._powers[powers[t]] = [powers[t * s % o]
                                               for s in range(o)]
        return self._powers[c]

    def _power_walk(self, c: int) -> list:
        """Class indices of g^t, t < |g|, for the representative g of class
        c, each power numbered by the products of its predecessor with g:
        a power of g is in the group, so no lookup sifts it."""
        i = self.conjugacy_classes[c].indices[0]
        x, powers = 0, []
        for _ in range(self._classes[c].element_order):
            powers.append(self._class_of[x])
            (x,) = self.times([x], i)
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

    def class_matrix(self, i: int) -> list:
        """M[j][k] = #{(x, y) in C_i x C_j : xy = z_k} for the representative
        z_k of class k: the number of u in the inverse class C_i^-1 with
        u z_k in C_j."""
        classes = self.conjugacy_classes
        # read once: reading an int32 array allocates an int per entry
        inverses = list(classes[self.power_classes(i)[-1]].indices)
        M = [[0] * len(classes) for _ in classes]
        for k, cl in enumerate(classes):
            products = self.times(inverses, cl.indices[0])
            # getitem, not array.__getitem__, a slot wrapper that is slower
            for j, count in Counter(map(
                    getitem, repeat(self._class_of), products)).items():
                M[j][k] = count
        return M


class FiniteGroup(_Classes):
    """Permutation group with cached enumeration and class data.

    Enumeration is refused when its byte estimate (see enumeration_bytes)
    exceeds ENUMERATION_BUDGET, read at call time.
    """

    def __init__(self, degree, generators, name="G"):
        """Keeps, in the order given, the generators that are not in the
        group generated by those kept before them: each one extends the
        stabilizer chain.  The identity and repeats never do."""
        gens = []
        ident = identity_perm(degree)
        # levels [b, strong generators, orbit of b (see _close_orbit),
        # checked Schreier generators]; the strong generators of a level
        # fix the earlier base points, and a new base point is the least
        # point moved by the generator that needs it
        self._chain = []
        for g in generators:
            g = tuple(g)
            if not is_perm(g, degree):
                raise GroupError("bad generator for degree %d: %r" % (degree, g))
            if _extend_chain(self._chain, g, ident):
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._identity = ident
        self._order = None
        self._base = None
        # enumeration: R tables (None until enumerated), tree (from e_1
        # on), tree words of the transversal elements by level and point
        self._right = None
        self._parent = None
        self._gen = None
        self._transversal = None
        self._conj = [None] * len(gens)   # conjugation tables by generator
        self._classes = None
        self._class_of = None
        self._powers = {}

    # -- order & membership ----------------------------------------------

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = 1
            for _, _, orbit, _ in self._chain:
                self._order *= len(orbit)
        return self._order

    @property
    def base(self) -> tuple:
        """Points whose images determine an element of the group: the
        base of its stabilizer chain, padded with point 0 to at least two
        points so that itemgetter(*base) returns a tuple."""
        if self._base is None:
            base = tuple(level[0] for level in self._chain)
            self._base = base + (0,) * (2 - len(base))
        return self._base

    def index_of(self, p) -> int:
        """Number of p; KeyError if p is not in the group."""
        p = tuple(p)
        i = self._number(p)
        if i is None:
            raise KeyError(p)
        return i

    def _number(self, p: tuple):
        """Number of p, or None if p is not a permutation in the group.
        The sift gives p = u_(L-1) ... u_0, and the R tables applied along
        the tree words of u_(L-1), ..., u_0 from the identity number it."""
        if not is_perm(p, self.degree):
            return None
        h, _, points = _sift(self._chain, p)
        if h != self._identity:
            return None
        self._enumerate()
        right, i = self._right, 0
        for words, x in zip(reversed(self._transversal), reversed(points)):
            for s in words[x]:
                i = right[s][i]
        return i

    def __contains__(self, p) -> bool:
        p = tuple(p)
        return (is_perm(p, self.degree)
                and _sift(self._chain, p)[0] == self._identity)

    # -- enumeration ------------------------------------------------------

    def _enumerate(self):
        if self._right is not None:
            return
        base, gens = self.base, self.generators
        need = enumeration_bytes(self.order, len(base), len(gens))
        if need > ENUMERATION_BUDGET:
            raise GroupTooLargeError(
                "group of order %d on %d points needs about %d bytes to "
                "enumerate (budget %d)"
                % (self.order, self.degree, need, ENUMERATION_BUDGET))
        # the base key of e_i g is g applied to the base key of e_i: up to
        # 256 points a bytes key, moved in C by translate through g padded
        # to 256 entries, whose hash is cached; above, a tuple key read by
        # itemgetter (compose)
        if self.degree <= 256:
            encode, move = bytes, bytes.translate
            movers = [bytes(g) + bytes(256 - len(g)) for g in gens]
        else:
            encode, move, movers = tuple, compose, gens
        start = encode(base)   # the base key of the identity
        index = {start: 0}
        queue = deque([start])   # keys not yet moved; index holds them all
        right = [[] for _ in gens]
        # int32 is enough: ENUMERATION_BUDGET keeps k*|G| far below 2**31
        parent, gen = array("i"), array("i")
        steps = [(s, g, table.append)
                 for s, (g, table) in enumerate(zip(movers, right))]
        i = 0
        while queue:
            key = queue.popleft()
            for s, g, record in steps:
                image = move(key, g)
                j = index.get(image)
                if j is None:
                    j = index[image] = len(index)
                    queue.append(image)
                    parent.append(i)
                    gen.append(s)
                record(j)
            i += 1
        if len(index) != self.order:
            raise GroupError(
                "enumerated %d elements of %s, but its stabilizer chain "
                "gives order %d" % (len(index), self.name, self.order))
        self._parent, self._gen = parent, gen
        # the key map ends here: later lookups sift to transversal elements
        key = itemgetter(*base)
        self._transversal = [
            {x: tuple(self._word(index[encode(key(u))]))
             for x, (u, _, _) in orbit.items()}
            for _, _, orbit, _ in self._chain]
        self._right = right

    def _word(self, i: int) -> list:
        """Generator numbers s_1, ..., s_d with e_i = s_1 ... s_d."""
        word = []
        while i:
            word.append(self._gen[i - 1])
            i = self._parent[i - 1]
        word.reverse()
        return word

    def element(self, i: int) -> tuple:
        """The element numbered i, rebuilt along its tree word."""
        self._enumerate()
        p = self._identity
        for s in self._word(i):
            p = compose(p, self.generators[s])
        return p

    def _walk_elements(self):
        """The elements in order, each its parent times a generator; a
        caller that stops early rebuilds only a prefix."""
        self._enumerate()
        done = [self._identity]
        yield done[0]
        gens = self.generators
        for p, s in zip(self._parent, self._gen):
            x = compose(done[p], gens[s])
            done.append(x)
            yield x

    @property
    def elements(self) -> list:
        """All elements in order, rebuilt on each access."""
        return list(self._walk_elements())

    def times(self, S, i: int) -> list:
        """Numbers of x e_i over the numbers x in S: the R tables along
        the word of e_i."""
        self._enumerate()
        S = list(S)
        for s in self._word(i):
            S = list(map(self._right[s].__getitem__, S))
        return S

    def _tree_walk(self, start: int, tables) -> list:
        """out[0] = start and out[i] = tables[s][out[parent(i)]] for
        e_i = e_parent(i) s.  For the R tables and start numbering h,
        out[i] numbers h e_i."""
        out = [start]
        append = out.append
        for p, s in zip(self._parent, self._gen):
            append(tables[s][out[p]])
        return out

    def conjugation_table(self, s: int) -> list:
        """Numbers of g^-1 e_i g over all i for generator g = generators[s]:
        R_s after the left table of g^-1, built once per generator."""
        table = self._conj[s]
        if table is None:
            left = self._tree_walk(
                self.index_of(inverse(self.generators[s])), self._right)
            table = self._conj[s] = list(map(self._right[s].__getitem__,
                                             left))
        return table

    def conjugate_indices(self, S, s: int) -> tuple:
        """Numbers of g^-1 x g over the numbers x in S, g = generators[s],
        in ascending order."""
        return tuple(sorted(map(self.conjugation_table(s).__getitem__, S)))

    # -- conjugacy classes -------------------------------------------------

    def _compute_classes(self):
        if self._classes is not None:
            return
        tables = [self.conjugation_table(s)
                  for s in range(len(self.generators))]
        self._classes, self._class_of = _ordered_classes(
            _orbits(self.order, tables), self.element, self.order)

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
            for x in N._walk_elements():
                o = perm_order(x)
                m = o
                while m % p == 0:
                    m //= p
                y = perm_pow(x, m)  # p-part of x
                if y != self._identity and y not in P:
                    gens.append(y)
                    P = self.subgroup(gens, name="P")
                    grew = True
                    break
            if not grew:
                raise GroupError("Sylow saturation failed")  # pragma: no cover
        return P

    def _conjugate_walk(self, A: tuple):
        """Breadth-first walk over the conjugates of the index set A, each
        held as the ascending tuple of its numbers (see conjugate_indices)
        and moved by the generators in order.  A tuple takes 8 bytes a
        number; a frozenset of 13 to 448 numbers takes 5 to 9 times that.
        Yields (t, g, T, u) for each step from A^t by the generator g to
        T = A^(tg): u is None if the step reaches T first, and t g is then
        T's element; else u is T's element, and t g u^-1 fixes A."""
        orbit = {A: self._identity}
        queue = [A]
        for S in queue:
            t = orbit[S]
            for s, g in enumerate(self.generators):
                T = self.conjugate_indices(S, s)
                u = orbit.get(T)
                if u is None:
                    orbit[T] = compose(t, g)
                    queue.append(T)
                yield t, g, T, u

    def transporter(self, A, B) -> tuple:
        """The first t with A^t = B that the walk from the index set A
        reaches; the identity if A = B, GroupError if there is no t.  Both
        sets are compared as ascending tuples, the walk's keys."""
        A, B = tuple(sorted(A)), tuple(sorted(B))
        if A == B:
            return self._identity
        for t, g, T, _ in self._conjugate_walk(A):
            if T == B:
                return compose(t, g)
        raise GroupError("subgroups are not conjugate")

    def normalizer(self, H: "FiniteGroup") -> "FiniteGroup":
        """N_G(H) for H <= G via orbit-stabilizer on the conjugates of H,
        each held as the ascending tuple of its element numbers in G.  N
        gets the Schreier generators in sorted order and keeps those that
        extend its chain.  GroupError if |N| times the number of
        conjugates is not |G|, which also covers |N| dividing |G|."""
        if H.degree != self.degree:
            raise GroupError("degree mismatch")
        if any(h not in self for h in H.generators):
            raise GroupError("%s is not a subgroup of %s" % (H.name, self.name))
        conjugates, stab = 1, set()
        for t, g, _, u in self._conjugate_walk(
                tuple(sorted(map(self.index_of, H.elements)))):
            if u is None:
                conjugates += 1
                continue
            tg = compose(t, g)
            if tg != u:
                stab.add(compose(tg, inverse(u)))
        N = FiniteGroup(self.degree, sorted(stab), name="N_%s" % (H.name,))
        if N.order * conjugates != self.order:
            raise GroupError(
                "normalizer of %s has order %d and %d conjugates, but %s "
                "has order %d" % (H.name, N.order, conjugates, self.name,
                                  self.order))
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


def coset_order(G: FiniteGroup, r) -> int:
    """The least k >= 1 with r^k in G: the number of cosets of G in
    <G, r> for a realizer r."""
    acc, k = tuple(r), 1
    while acc not in G:
        acc, k = compose(acc, r), k + 1
    return k


def induced_class_permutation(G: FiniteGroup, r) -> tuple:
    """Class indices of the images of the classes under conjugation by r."""
    try:
        return tuple(G.class_of_element(conjugate(cl.rep, r))
                     for cl in G.conjugacy_classes)
    except KeyError:
        raise GroupError("realizer does not normalize %s" % G.name)


def power_class_permutation(group, b: int) -> tuple:
    """Class indices of rep^b for the class representatives of group."""
    return tuple(group.power_map(c, b)
                 for c in range(len(group.conjugacy_classes)))


# -- semidirect products ---------------------------------------------------

def semidirect_product(G: FiniteGroup, r) -> "SemidirectProduct":
    """<G, r> for a realizer r, on the points of G: G is a normal subgroup
    of index coset_order(G, r), and conjugation by r induces the defining
    automorphism."""
    r = check_realizer(G, r)
    return SemidirectProduct(G, r, coset_order(G, r))


class SemidirectProduct(_Classes):
    """<G, r> as the cosets G r^j, 0 <= j < k = coset_order(G, r), of the
    enumerated group G; r^k = e_z is 1 when the product is split.

    The element m r^j has number j*|G| + G.index_of(m); an element is
    composed only when it is asked for.  Conjugation keeps each coset:
    for g in G, g^-1 (m r^j) g = g^-1 m (r^j g r^-j) r^j, and
    r (m r^j) r^-1 = (r m r^-1) r^j.  So the classes in coset j are the
    orbits of r on its G-classes: G's own for j = 0, else the orbits of
    the maps m -> g^-1 m h (see _coset_maps).  When gcd(j, k) = 1 any x
    in the coset generates the product modulo G, so r fuses nothing
    there.  Classes are ordered as FiniteGroup orders them.
    """

    def __init__(self, G: FiniteGroup, r: tuple, k: int):
        self.degree = G.degree
        self.generators = G.generators + ((r,) if k > 1 else ())
        self.name = G.name + ".%d" % k
        self.order = k * G.order
        self._G = G
        self._k = k
        self._rpow = [perm_pow(r, j) for j in range(k)]
        self._rinv = [inverse(p) for p in self._rpow]
        self._z = G.index_of(perm_pow(r, k))
        self._shifts = {}
        self._classes = None
        self._class_of = None
        self._powers = {}

    def _element(self, i: int) -> tuple:
        j, mi = divmod(i, self._G.order)
        return compose(self._G.element(mi), self._rpow[j])

    def index_of(self, p) -> int:
        """Number of p: the coset j with p r^-j in G; KeyError if none."""
        p = tuple(p)
        G = self._G
        if is_perm(p, self.degree):
            for j, w in enumerate(self._rinv):
                i = G._number(compose(p, w))
                if i is not None:
                    return j * G.order + i
        raise KeyError(p)

    def __contains__(self, p) -> bool:
        try:
            self.index_of(p)
        except KeyError:
            return False
        return True

    def _shift(self, m: int, a: int) -> int:
        """Number in G of r^a e_m r^-a, 0 <= a < k: e_m rebuilt,
        conjugated and sifted once per (m, a)."""
        if a and (m, a) not in self._shifts:
            self._shifts[m, a] = self._G.index_of(compose(
                compose(self._rpow[a], self._G.element(m)), self._rinv[a]))
        return self._shifts[m, a] if a else m

    def times(self, S, zi: int) -> list:
        """Numbers of x z over the numbers x in S, all in one coset G r^a,
        for z = e_z' r^b numbered zi: x z = m (r^a z' r^-a) r^(a+b) for
        x = m r^a, and r^(a+b) = r^k r^(a+b-k) when a + b >= k."""
        G, n, k = self._G, self._G.order, self._k
        a = S[0] // n
        b, z = divmod(zi, n)
        products = G.times(map((-a * n).__add__, S), self._shift(z, a))
        if a + b >= k:
            # the identity's tree word is empty: a split product copies
            products, b = G.times(products, self._z), b - k
        return list(map(((a + b) * n).__add__, products))

    def _coset_maps(self, j: int) -> list:
        """Maps on G's numbers whose orbits, moved to the coset G r^j, are
        the G-classes there: m -> g^-1 m h = (g^-1 m g)(g^-1 h) for
        h = r^j g r^-j and each generator g."""
        G = self._G
        maps = []
        for s, g in enumerate(G.generators):
            (shift,) = G.times([G.index_of(inverse(g))],
                               self._shift(G.index_of(g), j))
            maps.append(G.times(G.conjugation_table(s), shift))
        return maps

    def _compute_classes(self):
        if self._classes is not None:
            return
        G, n, k = self._G, self._G.order, self._k
        orbits = []
        for j in range(k):
            parts = (_orbits(n, self._coset_maps(j)) if j
                     else [cl.indices for cl in G.conjugacy_classes])
            if gcd(j, k) > 1:
                # fuse the G-classes under m -> r m r^-1, read at one
                # member of each; each union is sorted into int32 at once
                label = G._class_of if not j else {
                    i: c for c, part in enumerate(parts) for i in part}
                fusion = [label[self._shift(part[0], 1)] for part in parts]
                parts = [array("i", sorted(i for c in orbit for i in parts[c]))
                         for orbit in _orbits(len(parts), [fusion])]
            orbits += [array("i", map((j * n).__add__, part))
                       for part in parts]
        self._classes, self._class_of = _ordered_classes(
            orbits, self._element, self.order)
