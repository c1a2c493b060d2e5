"""Exact irreducible character tables via the Dixon-Schneider method.

The class-sum eigenvalue vectors are found over a prime field F_p0 with
p0 = 1 mod exp(G) and p0 > 2*sqrt(|G|), by simultaneous eigenspace
splitting of the class matrices.  Character values are lifted exactly to
cyclotomics through a discrete Fourier transform over the root-of-unity
multiplicities, so no discrete logarithms are needed.  The lift runs once
per rational class: the class of g^t, t prime to |g|, takes
sigma_t(chi(g)), which must agree with the eigenvector mod p0.

A table numbers each distinct value once and looks rows up by the tuples
of those numbers.  Its validation first proves the table Galois-compatible,
chi(g^b) = sigma_b(chi(g)) for a generating set of the Galois group, then
checks orthogonality once per rational class, through the trace from
Q(zeta_o) to Q, for one row of each Galois orbit against every row.
galois.act_on_table relies on that proof.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import GalMcKayError
from .cyclo import Cyclotomic, ZERO, rational
from .groups import FiniteGroup, _orbits, compose, power_class_permutation
from .ntheory import isprime, primitive_root, sqrt_mod, unit_generators

P0_SEARCH_CAP = 10 ** 8


class ChartabError(GalMcKayError):
    pass


# -- linear algebra over F_p ----------------------------------------------

def _mat_vec(M, v, p):
    return [sum(map(mul, r, v)) % p for r in M]


def _eliminate(rows, ncols, p):
    """Gauss-Jordan elimination over F_p of the list rows, in place.

    Pivots are taken in the first ncols columns only, the pivot of a
    column being the first remaining row with a nonzero entry there.
    Returns the pivot columns; row r holds the pivot of the r-th one.
    """
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        sel = next((r for r in range(row, len(rows)) if rows[r][col] % p),
                   None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        inv = pow(rows[row][col], -1, p)
        rows[row] = [(x * inv) % p for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots


def _coordinates(basis, vectors, p):
    """Matrix X with vectors[c] = sum_i X[i][c] * basis[i], for linearly
    independent basis vectors spanning every vector; one elimination
    serves all of them."""
    d = len(basis)
    aug = [[b[r] for b in basis] + [w[r] for w in vectors]
           for r in range(len(basis[0]))]
    pivots = _eliminate(aug, d, p)
    if any(x % p for row in aug[len(pivots):] for x in row[d:]):
        raise ChartabError("inconsistent linear system")
    X = [[0] * len(vectors) for _ in range(d)]
    for r, col in enumerate(pivots):
        X[col] = aug[r][d:]
    return X


def _nullspace(M, p):
    """Basis of {v : M v = 0}, column vectors, M square d x d."""
    d = len(M)
    A = [row[:] for row in M]
    pivots = _eliminate(A, d, p)
    basis = []
    for col in range(d):
        if col in pivots:
            continue
        v = [0] * d
        v[col] = 1
        for r, c2 in enumerate(pivots):
            v[c2] = (-A[r][col]) % p
        basis.append(v)
    return basis


def _charpoly(A, p):
    """Characteristic polynomial of A mod p, by Hessenberg reduction.

    A is brought to upper Hessenberg form H by similarity transforms over
    F_p, and the charpoly follows from the recurrence on the leading
    principal minors of xI - H (Cohen, GTM 138, Algorithms 2.2.9 and
    2.2.10).  Returned low-to-high: [c_d, ..., c_1, 1] for
    x^d + c_1 x^{d-1} + ...
    """
    d = len(A)
    H = [[x % p for x in row] for row in A]
    for m in range(1, d - 1):
        i = next((i for i in range(m, d) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = pow(H[m][m - 1], -1, p)
        hm = H[m]
        for i in range(m + 1, d):
            u = H[i][m - 1] * inv % p
            if not u:
                continue
            # row_i -= u * row_m, then column_m += u * column_i
            H[i] = [(x - u * y) % p for x, y in zip(H[i], hm)]
            for row in H:
                row[m] = (row[m] + u * row[i]) % p
    # polys[m]: charpoly of the leading m x m block, low-to-high
    polys = [[1]]
    for m in range(1, d + 1):
        prev = polys[m - 1]
        h = H[m - 1][m - 1]
        new = [0] + prev
        for k, c in enumerate(prev):
            new[k] = (new[k] - h * c) % p
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * H[i][i - 1] % p
            if not t:
                break
            f = t * H[i - 1][m - 1] % p
            if f:
                for k, c in enumerate(polys[i - 1]):
                    new[k] = (new[k] - f * c) % p
        polys.append(new)
    return polys[d]


# -- polynomial helpers over F_p (coefficients low-to-high) ----------------

def _ptrim(f, p):
    f = [x % p for x in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out, p)


def _pdivmod(a, b, p):
    a = a[:]
    binv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        f = (a[-1] * binv) % p
        k = len(a) - len(b)
        q[k] = f
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - f * y) % p
        a = _ptrim(a, p)
    return _ptrim(q, p), a


def _pgcd(a, b, p):
    a, b = _ptrim(a, p), _ptrim(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(x * inv) % p for x in a]
    return a


def _ppowmod(base, e, mod, p):
    acc = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            acc = _pdivmod(_pmul(acc, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return acc


def _proots(f, p, rng):
    """All roots in F_p of f, which must split into linear factors.

    After the square-free reduction and the root 0 are divided out, f
    splits exactly when it divides x^(p-1) - 1, that is when
    h = x^((p-1)/2) mod f has h^2 = 1 mod f; otherwise ChartabError is
    raised, since the random splitting below would never end.  The same h
    gives the first Cantor-Zassenhaus split, gcd(h - 1, f).
    """
    f = _ptrim(f, p)
    inv = pow(f[-1], -1, p)
    f = [(x * inv) % p for x in f]
    deriv = _ptrim([(i * x) % p for i, x in enumerate(f)][1:], p)
    if deriv:
        f = _pdivmod(f, _pgcd(f, deriv, p), p)[0]
    roots = []
    if f[0] == 0:
        roots.append(0)
        f = f[1:]
    if len(f) == 1:
        return roots
    h = _ppowmod([0, 1], (p - 1) // 2, f, p)
    if _pdivmod(_pmul(h, h, p), f, p)[1] != [1]:
        raise ChartabError("characteristic polynomial does not split over "
                           "F_p0")
    stack = [(f, h)]
    while stack:
        g, h = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        if h is None:
            h = _ppowmod([rng.randrange(p), 1], (p - 1) // 2, g, p)
        t = (h or [0])[:]
        t[0] -= 1
        d = _pgcd(t, g, p)
        if 0 < len(d) - 1 < len(g) - 1:
            stack += [(d, None), (_pdivmod(g, d, p)[0], None)]
        else:
            stack.append((g, None))
    return roots


# -- class functions -------------------------------------------------------

class ClassFunction:
    """Values of a class function, one Cyclotomic per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        values = [v if isinstance(v, Cyclotomic) else rational(v)
                  for v in values]
        if len(values) != len(group.conjugacy_classes):
            raise ChartabError("one value per class required")
        self.group = group
        self.values = tuple(values)

    def degree_int(self) -> int:
        return self.values[0].integer_value()

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group is other.group and self.values == other.values)

    def sort_key(self):
        return (self.degree_int(),
                tuple((v.order, tuple((e, c.numerator, c.denominator)
                                      for e, c in v.terms()))
                      for v in self.values))

    def __repr__(self):
        return "ClassFunction(deg=%s)" % (self.values[0],)


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """<a, b>, summed in the group ring Z[x]/(x^e - 1) with e the lcm of
    the value orders: each value becomes its terms (k, c) for c*x^k over
    zeta_e, conj sends k to -k, and the sum is reduced to a cyclotomic
    once.  x -> zeta_e is a ring homomorphism, so the result is exact."""
    if a.group is not b.group:
        raise ChartabError("class functions on different groups")
    G = a.group
    e = lcm(*(v.order for v in a.values + b.values))
    acc: dict = {}
    for cl, x, y in zip(G.conjugacy_classes, a.values, b.values):
        ys = y._over(e)
        for i, c in x._over(e):
            c *= cl.size
            for j, d in ys:
                k = (i - j) % e
                acc[k] = acc.get(k, 0) + c * d
    return Cyclotomic.from_terms(e, acc.items()) * Fraction(1, G.order)


class CharacterTable:
    """Immutable exact character table of a finite group.

    Each distinct value is numbered once, and rows are looked up by the
    tuples of their value numbers.
    """

    def __init__(self, group: FiniteGroup, rows):
        self.group = group
        self.classes = group.conjugacy_classes
        self.rows = tuple(rows)
        self.exponent = group.exponent
        ids: dict = {}
        self._value_ids = ids
        self._row_ids = tuple(tuple(ids.setdefault(v, len(ids))
                                    for v in r.values) for r in self.rows)
        self._row_index = {r: i for i, r in enumerate(self._row_ids)}
        # set by validate, which proves sigma_b(chi(g)) = chi(g^b);
        # galois.act_on_table relies on it for its row permutations
        self.validated = False

    def row_index(self, cf: ClassFunction) -> int:
        i = self._row_index.get(tuple(map(self._value_ids.get, cf.values)))
        if i is None:
            raise ChartabError("class function is not a row of this table")
        return i

    def row_perm(self, class_perm) -> tuple:
        """perm[i] = index of the row chi_i composed with class_perm."""
        perm = []
        for ids in self._row_ids:
            i = self._row_index.get(compose(class_perm, ids))
            if i is None:
                raise ChartabError("permuted row is not a row of this table")
            perm.append(i)
        return tuple(perm)

    def degrees(self) -> list:
        return [r.degree_int() for r in self.rows]

    def p_prime_rows(self, p: int) -> list:
        return [i for i, r in enumerate(self.rows) if r.degree_int() % p]

    def _galois_class_perms(self) -> list:
        """The power-map class permutations c -> class of g_c^b for b in a
        generating set of (Z/e)^x, e the exponent, once the table is proved
        Galois-compatible: every value at class c lies in Q(zeta_|g_c|),
        and sigma_b(chi(g_c)) = chi(g_c^b) for every row chi.  By
        composition and CRT, chi(g^t) = sigma_t(chi(g)) then holds for
        every t prime to |g|.  Each sigma_b is applied once per distinct
        value."""
        values = list(self._value_ids)
        for c, (cl, column) in enumerate(zip(self.classes,
                                             zip(*self._row_ids))):
            for i in set(column):
                if cl.element_order % values[i].order:
                    raise ChartabError("value at class %d is not in "
                                       "Q(zeta_%d)" % (c, cl.element_order))
        perms = []
        for b in unit_generators(self.exponent):
            image = [self._value_ids.get(v.galois(b)) for v in values]
            perm = power_class_permutation(self.group, b)
            for r, ids in enumerate(self._row_ids):
                if compose(ids, image) != compose(perm, ids):
                    raise ChartabError("sigma_%d of row %d disagrees with "
                                       "the power map" % (b, r))
            perms.append(perm)
        return perms

    def validate(self):
        G = self.group
        n = len(self.rows)
        if n != len(self.classes):
            raise ChartabError("row count differs from class count")
        if sum(d * d for d in self.degrees()) != G.order:
            raise ChartabError("sum of squared degrees mismatch")
        for d in self.degrees():
            if G.order % d:
                raise ChartabError("degree does not divide group order")
        if len(self._row_index) != n:
            raise ChartabError("rows repeat")
        class_perms = self._galois_class_perms()
        # |G| * <chi_i, chi_j> over the rational classes R, the orbits of
        # the power maps: the classes of R have one size, and the sum of
        # chi conj(psi) over R is |R|/phi(o) times the trace from Q(zeta_o)
        # to Q at g_R, o = |g_R|.  That sum is a rational algebraic integer.
        # Integral Fraction coefficients become ints, so the sums stay ints.
        blocks = []
        for orbit in _orbits(len(self.classes), class_perms):
            cl = self.classes[orbit[0]]
            o = cl.element_order
            blocks.append((len(orbit), cl.size, _traces(o), [
                [(a * (o // v.order), c.numerator if c.denominator == 1
                  else c) for a, c in v.terms()]
                for v in (r.values[orbit[0]] for r in self.rows)]))
        # sigma<chi, psi> = <sigma chi, sigma psi> and the sigma_b permute
        # the distinct rows, so the pairs (r, j) with r the least row of
        # its Galois orbit cover every pair; a pair of two such rows is
        # needed once.
        reps = [orbit[0] for orbit in
                _orbits(n, [self.row_perm(p) for p in class_perms])]
        rep_set = set(reps)
        for i in reps:
            for j in range(n):
                if j < i and j in rep_set:
                    continue
                total = 0
                for count, size, traces, terms in blocks:
                    q, rem = divmod(count * _trace_sum(terms[i], terms[j],
                                                       traces), traces[0])
                    if rem:
                        break
                    total += size * q
                if rem or total != (G.order if i == j else 0):
                    raise ChartabError("row orthogonality fails at (%d,%d)"
                                       % (i, j))
        self.validated = True
        return True


@lru_cache(maxsize=None)
def _traces(o: int) -> tuple:
    """(Tr(zeta_o^m) for m < o), the trace from Q(zeta_o) to Q: the
    Ramanujan sum of d * mu(o/d) over the divisors d of (m, o)."""
    divisors = [d for d in range(1, o + 1) if o % d == 0]
    mu = {1: 1}
    for d in divisors[1:]:
        mu[d] = -sum(mu[x] for x in divisors if x < d and d % x == 0)
    return tuple(sum(d * mu[o // d] for d in divisors if m % d == 0)
                 for m in range(o))


def _trace_sum(xs, ys, traces):
    """Tr(x conj(y)) from Q(zeta_o) to Q for x, y given by their terms over
    zeta_o, traces as _traces(o)."""
    o = len(traces)
    return sum(c * d * traces[(a - b) % o] for a, c in xs for b, d in ys)


def dixon_prime(exponent: int, order: int, at_least=0) -> int:
    """Smallest prime = 1 mod exponent exceeding 2*sqrt(order).

    The prime must also exceed at_least.  The table solver passes the
    class count: the charpoly roots are found after a square-free
    reduction f / gcd(f, f'), which needs p0 above the degree of f so
    that f' keeps every term.
    """
    bound = max(2 * isqrt(order) + 2, at_least)
    p0 = exponent + 1
    while p0 < P0_SEARCH_CAP:
        if p0 > bound and isprime(p0):
            return p0
        p0 += exponent
    raise ChartabError("no Dixon prime = 1 mod %d below %d"
                       % (exponent, P0_SEARCH_CAP))


def _characters_mod_p0(G: FiniteGroup, p0: int, power_classes) -> list:
    """(chi(1), [chi(g_k) mod p0 for each class k]) for every irreducible chi.

    power_classes[k][t] is the class of g_k^t, t < |g_k|.
    """
    classes = G.conjugacy_classes
    ncl = len(classes)
    n = G.order
    rng = random.Random(12345)

    # simultaneous eigenspaces of the class matrices, split lazily in
    # ascending class-size order.  A class C^m with m prime to |g|, other
    # than the least class of its rational class C, comes after every
    # class of that kind: its central characters are those of C under
    # sigma_m, so it splits no space that C left whole.
    least = {min(p[m] for m in range(len(p)) if gcd(m, len(p)) == 1)
             for p in power_classes}
    spaces = [[[1 if r == c else 0 for r in range(ncl)] for c in range(ncl)]]
    # each space: list of basis column vectors (length ncl)
    for i in sorted(range(1, ncl),
                    key=lambda i: (i not in least, classes[i].size, i)):
        if all(len(sp) == 1 for sp in spaces):
            break
        M = G.class_matrix(i)
        new_spaces = []
        for sp in spaces:
            if len(sp) == 1:
                new_spaces.append(sp)
                continue
            d = len(sp)
            A = _coordinates(sp, [_mat_vec(M, b, p0) for b in sp], p0)
            roots = sorted(set(_proots(_charpoly(A, p0), p0, rng)))
            columns = list(zip(*sp))
            covered = 0
            for lam in roots:
                Ashift = [[(A[r][c] - (lam if r == c else 0)) % p0
                           for c in range(d)] for r in range(d)]
                block = [[sum(map(mul, v, col)) % p0 for col in columns]
                         for v in _nullspace(Ashift, p0)]
                if block:
                    new_spaces.append(block)
                    covered += len(block)
            if covered != d:
                raise ChartabError("class matrix failed to diagonalize")
        spaces = new_spaces
    if not all(len(sp) == 1 for sp in spaces):
        raise ChartabError("eigenspace splitting failed to converge")

    inv_class = [powers[-1] for powers in power_classes]
    size_inv = [pow(cl.size, -1, p0) for cl in classes]
    out = []
    for (w,) in spaces:
        if w[0] % p0 == 0:
            raise ChartabError("eigenvector vanishes at identity class")
        scale = pow(w[0], -1, p0)
        w = [(x * scale) % p0 for x in w]  # w[k] = |C_k| chi(g_k)/chi(1)
        s = sum(w[k] * w[inv_class[k]] * size_inv[k]
                for k in range(ncl)) % p0
        deg_sq = (n * pow(s, -1, p0)) % p0
        deg = sqrt_mod(deg_sq, p0)
        if deg is None:
            raise ChartabError("degree is not a square mod p0")
        out.append((deg, [x * deg * y % p0 for x, y in zip(w, size_inv)]))
    return out


def _lift_table(powers, zinv, p0):
    """The classes C_u of the powers of an element g of order o = |powers|,
    and F with F[j][u] = (1/o) sum of z^-jt over the t < o with g^t in C_u,
    zinv[s] = z^-s for a primitive o-th root z mod p0.

    The multiplicity of zeta_o^j in chi(g) is then
    sum_u chi(C_u) F[j][u] mod p0.
    """
    o = len(powers)
    targets = sorted(set(powers))
    slots = [targets.index(c) for c in powers]
    oinv = pow(o, -1, p0)
    F = []
    for j in range(o):
        f = [0] * len(targets)
        for t, u in enumerate(slots):
            f[u] += zinv[j * t % o]
        F.append([x * oinv % p0 for x in f])
    return targets, F


def dixon_schneider(G: FiniteGroup) -> CharacterTable:
    classes = G.conjugacy_classes
    ncl = len(classes)
    p0 = dixon_prime(G.exponent, G.order, at_least=ncl)

    # power_classes[k][t]: the class of g_k^t for t < |g_k|; the last one
    # is the class of g_k^-1
    power_classes = [G.power_classes(k) for k in range(ncl)]

    # Each rational class is lifted at its first class k0 alone: the class
    # of g_k0^t, t prime to |g|, holds chi(g_k0^t) = sigma_t(chi(g_k0)).
    # source[k] = (k0, t) with k0 <= k, t = 1 exactly when k0 = k.
    source = {}
    for k in range(1, ncl):
        if k not in source:
            o = classes[k].element_order
            for t in range(1, o):
                if gcd(t, o) == 1:
                    source.setdefault(power_classes[k][t], (k, t))

    # inv_root[o][s] = z^-s mod p0 with z the primitive o-th root
    # w^((p0 - 1)/o), w the least primitive root; zeta_o maps to z
    w_root = primitive_root(p0)
    inv_root = {}
    lift_tables = {}
    for k, (_, t) in source.items():
        o = classes[k].element_order
        if t == 1:
            if o not in inv_root:
                zinv = pow(w_root, p0 - 1 - (p0 - 1) // o, p0)
                inv_root[o] = [pow(zinv, s, p0) for s in range(o)]
            lift_tables[k] = _lift_table(power_classes[k], inv_root[o], p0)

    rows = []
    for deg, chi_mod in _characters_mod_p0(G, p0, power_classes):
        values = [rational(deg)]
        for k in range(1, ncl):
            k0, t = source[k]
            o = classes[k].element_order
            if t == 1:
                targets, F = lift_tables[k]
                chi = [chi_mod[c] for c in targets]
                mults = []
                for j, f in enumerate(F):
                    mj = sum(map(mul, chi, f)) % p0
                    if mj > deg:
                        raise ChartabError("multiplicity lift out of range")
                    if mj:
                        mults.append((j, mj))
                values.append(Cyclotomic.from_terms(o, mults))
                continue
            v = values[k0].galois(t)
            # v mod p0: zeta_o^a maps to z^a = inv_root[o][-a mod o]
            zinv, s = inv_root[o], o // v.order
            if sum(c * zinv[-e * s % o] for e, c in v.terms()) % p0 \
                    != chi_mod[k]:
                raise ChartabError("Galois-conjugate value disagrees with "
                                   "the eigenvector mod p0")
            values.append(v)
        rows.append(ClassFunction(G, values))

    rows.sort(key=lambda r: r.sort_key())
    table = CharacterTable(G, rows)
    table.validate()
    return table


def induce(G: FiniteGroup, H: FiniteGroup,
           tau: ClassFunction) -> ClassFunction:
    """Induced class function Ind_H^G(tau).

    H must act on the same points as G with elements belonging to G.
    """
    if tau.group is not H:
        raise ChartabError("tau is not a class function on H")
    fusion = [G.class_of_element(cl.rep) for cl in H.conjugacy_classes]
    ncl = len(G.conjugacy_classes)
    sums = [ZERO] * ncl
    for hc, cl in enumerate(H.conjugacy_classes):
        c = fusion[hc]
        cent_h = H.order // cl.size
        sums[c] = sums[c] + tau.values[hc] * Fraction(1, cent_h)
    values = []
    for c, cl in enumerate(G.conjugacy_classes):
        cent_g = G.order // cl.size
        values.append(sums[c] * cent_g)
    return ClassFunction(G, values)
