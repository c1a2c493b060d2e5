"""Concrete group constructors.

Everything the condition checks need is built here as a permutation
group: Suzuki groups on their ovoids, the small linear and unitary
groups on vectors or projective points, the order-168 affine normalizer
model, and the abstract torus-normalizer models with their complement
actions.  Matrix work happens only inside the constructors; groups that
support a field automorphism carry the realizing permutation as
provenance.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, prod

from . import GalMcKayError
from .groups import FiniteGroup, check_realizer, perm_order


class ZooError(GalMcKayError):
    pass


# -- small finite fields ---------------------------------------------------

_MODULI = {
    (2, 2): [1, 1, 1],       # x^2 + x + 1
    (2, 3): [1, 1, 0, 1],    # x^3 + x + 1
    (2, 5): [1, 0, 1, 0, 0, 1],  # x^5 + x^2 + 1
    (3, 2): [1, 0, 1],       # x^2 + 1
}


class FiniteField:
    """GF(p^k) with elements encoded as integers 0 .. p^k - 1 (base-p
    digits).  Sums, negatives and products are read from tables; the digit
    vectors exist only while the tables are built."""

    def __init__(self, p, k):
        if (p, k) not in _MODULI:
            raise ZooError("no modulus on file for GF(%d^%d)" % (p, k))
        self.p = p
        self.k = k
        self.q = p ** k
        mod = _MODULI[(p, k)]
        q = self.q
        digits = [[a // p ** i % p for i in range(k)] for a in range(q)]

        def number(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        self._add = [[number([(x + y) % p for x, y in zip(da, db)])
                      for db in digits] for da in digits]
        self._neg = [number([-x % p for x in da]) for da in digits]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(a, q):
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(digits[b]):
                        prod[i + j] = (prod[i + j] + x * y) % p
                for d in range(2 * k - 2, k - 1, -1):
                    c = prod[d]
                    if c:
                        prod[d] = 0
                        for i in range(k):
                            prod[d - k + i] = (prod[d - k + i] - c * mod[i]) % p
                v = number(prod[:k])
                mul[a][b] = v
                mul[b][a] = v
        self._mul = mul
        self._frob = [self.pow(a, p) for a in range(q)]

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def pow(self, a, n):
        if n == 0:
            return 1
        if a == 0:
            return 0
        n %= self.q - 1
        acc = 1
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def inv(self, a):
        if a == 0:
            raise ZooError("field inverse of zero")
        return self.pow(a, self.q - 2)

    def frob(self, a):
        return self._frob[a]

    def generator(self):
        """Smallest multiplicative generator."""
        return next(g for g in range(1, self.q)
                    if perm_order(self._mul[g]) == self.q - 1)


# -- Suzuki groups ---------------------------------------------------------

def suzuki_group(f: int) -> FiniteGroup:
    """Sz(2^(2f+1)) on its ovoid of q^4 + 1 points (q^2 = 2^(2f+1))."""
    if f < 1:
        raise ZooError("f must be >= 1")
    k = 2 * f + 1
    F = FiniteField(2, k)
    q2 = F.q
    e_theta = 2 ** (f + 1)          # x^theta = x^(2^(f+1)); theta^2 = frobenius^1 doubling

    def theta(x):
        return F.pow(x, e_theta)

    npts = q2 * q2 + 1
    INF = 0

    def pt(x, y):
        return 1 + x * q2 + y

    def translation(a, b):
        perm = [0] * npts
        perm[INF] = INF
        ta = theta(a)
        for x in range(q2):
            xa = F.add(x, a)
            base = F.add(b, F.mul(x, ta))
            for y in range(q2):
                perm[pt(x, y)] = pt(xa, F.add(y, base))
        return tuple(perm)

    def torus(lam):
        perm = [0] * npts
        perm[INF] = INF
        lt = F.mul(lam, theta(lam))
        for x in range(q2):
            lx = F.mul(lam, x)
            for y in range(q2):
                perm[pt(x, y)] = pt(lx, F.mul(lt, y))
        return tuple(perm)

    def involution():
        perm = [0] * npts
        perm[INF] = pt(0, 0)
        perm[pt(0, 0)] = INF
        for x in range(q2):
            for y in range(q2):
                if x == 0 and y == 0:
                    continue
                d = F.add(F.add(F.mul(F.mul(x, x), theta(x)),
                                F.mul(x, y)), theta(y))
                if d == 0:
                    raise ZooError("norm form vanishes off the origin")
                di = F.inv(d)
                perm[pt(x, y)] = pt(F.mul(y, di), F.mul(x, di))
        return tuple(perm)

    lam = F.generator()
    gens = [translation(1, 0), translation(0, 1), torus(lam), involution()]
    G = FiniteGroup(npts, gens, name="Sz(%d)" % q2)
    want = q2 * q2 * (q2 * q2 + 1) * (q2 - 1)
    if G.order != want:
        raise ZooError("Suzuki construction has order %d, want %d"
                       % (G.order, want))
    frob = [0] * npts
    frob[INF] = INF
    for x in range(q2):
        for y in range(q2):
            frob[pt(x, y)] = pt(F.frob(x), F.frob(y))
    G.frobenius_perm = tuple(frob)
    return G


# -- PSL2(8) and the order-168 affine model --------------------------------

def psl2_8() -> FiniteGroup:
    """PSL2(8) = SL2(8) on the 9 points of the projective line over F8."""
    F = FiniteField(2, 3)
    q = 8
    INF = q  # points 0..7 are field elements, 8 is infinity

    def shift(i):
        return INF if i == INF else F.add(i, 1)

    lam = F.generator()

    def scale(i):
        return INF if i == INF else F.mul(lam, i)

    def invert(i):
        if i == INF:
            return 0
        if i == 0:
            return INF
        return F.inv(i)

    gens = [tuple(map(fn, range(q + 1))) for fn in (shift, scale, invert)]
    G = FiniteGroup(q + 1, gens, name="PSL2(8)")
    if G.order != 504:
        raise ZooError("PSL2(8) construction has order %d" % G.order)
    frob = tuple(INF if i == INF else F.frob(i) for i in range(q + 1))
    G.frobenius_perm = frob
    return G


def agl18_normalizer() -> FiniteGroup:
    """The order-168 group (C2^3 x| C7) x| C3: AGammaL(1,8) on 8 points."""
    F = FiniteField(2, 3)
    lam = F.generator()
    add1 = tuple(F.add(x, 1) for x in range(8))
    mul = tuple(F.mul(lam, x) for x in range(8))
    frob = tuple(F.frob(x) for x in range(8))
    G = FiniteGroup(8, [add1, mul, frob], name="AGL18.3")
    if G.order != 168:
        raise ZooError("affine normalizer has order %d" % G.order)
    G.frobenius_perm = frob
    return G


def psl2_local_model(p) -> FiniteGroup:
    """Sylow p-normalizer models of PSL2(8): AGL(1,8) for p = 2, and the
    dihedral groups C9 x| C2 and C7 x| C2 for p = 3 and 7."""
    if p == 2:
        # x -> x + 1 and x -> lambda*x, without the Frobenius map
        return FiniteGroup(8, agl18_normalizer().generators[:2],
                           name="AGL(1,8)")
    if p in (3, 7):
        row, n = ("q+1", 9) if p == 3 else ("q-1", 7)
        return _affine_model("PSL2", 1, row, "C2", (n,), [((-1,),)], 2).group
    raise ZooError("no local model for p=%d" % p)


# -- unitary and linear groups ---------------------------------------------

def _mat_mul(F, A, B):
    return tuple(tuple(
        _dot(F, A[i], tuple(B[t][j] for t in range(3)))
        for j in range(3)) for i in range(3))


def _dot(F, row, col):
    s = 0
    for x, y in zip(row, col):
        s = F.add(s, F.mul(x, y))
    return s


def _mat_det(F, A):
    s = 0
    for (i, j, k, sign) in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                            (2, 1, 0, -1), (1, 0, 2, -1), (0, 2, 1, -1)):
        t = F.mul(F.mul(A[0][i], A[1][j]), A[2][k])
        s = F.add(s, t if sign > 0 else F.neg(t))
    return s


def _is_unitary(F, A):
    """A^T J conj(A) = J for the antidiagonal form J."""
    J = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    Ac = tuple(tuple(F.frob(x) for x in row) for row in A)
    At = tuple(tuple(A[j][i] for j in range(3)) for i in range(3))
    return _mat_mul(F, _mat_mul(F, At, J), Ac) == J


def _vec_apply(F, A, v):
    return tuple(_dot(F, row, v) for row in A)


def _su3_matrices(F):
    """Generators of SU3 over F (p^2 elements): upper and lower
    unitriangular, diagonal and antidiagonal (Weyl representative) unitary
    matrices of determinant 1, found by search in that order."""
    q = F.q
    shapes = (
        (range(q), lambda a, b, c: ((1, a, b), (0, 1, c), (0, 0, 1))),
        (range(q), lambda a, b, c: ((1, 0, 0), (a, 1, 0), (b, c, 1))),
        (range(1, q), lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c))),
        (range(1, q), lambda a, b, c: ((0, 0, a), (0, b, 0), (c, 0, 0))),
    )
    found = [A for entries, shape in shapes
             for A in itertools.starmap(shape,
                                        itertools.product(entries, repeat=3))
             if _is_unitary(F, A) and _mat_det(F, A) == 1]
    if not found:
        raise ZooError("no unitary matrices found")  # pragma: no cover
    return found


def _projective_points(F, isotropic_only=False):
    q = F.q
    pts = []
    for a in range(q):
        for b in range(q):
            pts.append((1, a, b))
    for a in range(q):
        pts.append((0, 1, a))
    pts.append((0, 0, 1))
    if isotropic_only:
        def herm(v):
            # v^T J conj(v) for antidiagonal J
            s = F.add(F.mul(v[0], F.frob(v[2])), F.mul(v[2], F.frob(v[0])))
            return F.add(s, F.mul(v[1], F.frob(v[1])))
        pts = [v for v in pts if herm(v) == 0]
    return pts


def _normalize_proj(F, v):
    for x in v:
        if x != 0:
            xi = F.inv(x)
            return tuple(F.mul(xi, y) for y in v)
    raise ZooError("zero vector")  # pragma: no cover


def _sl3_matrices(F):
    gens = []
    lam = F.generator() if F.q > 2 else 1
    for (i, j) in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)):
        for val in {1, lam}:
            A = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
            A[i][j] = val
            gens.append(tuple(tuple(r) for r in A))
    return gens


# tag -> (name, field (p, k), generating matrices, points of the action,
# order, extended by the Frobenius map); the points are the nonzero
# vectors of F^3, or its projective points, or only the isotropic ones
_SMALL_GROUPS = {
    "su3_2": ("SU3(2)", (2, 2), _su3_matrices, "vectors", 216, False),
    "su3_2_ext": ("SU3(2).2", (2, 2), _su3_matrices, "vectors", 432, True),
    "su3_3": ("SU3(3)", (3, 2), _su3_matrices, "isotropic", 6048, False),
    "g2_2": ("G2(2)", (3, 2), _su3_matrices, "isotropic", 12096, True),
    "sl3_4": ("SL3(4)", (2, 2), _sl3_matrices, "vectors", 60480, False),
    "psl3_4": ("PSL3(4)", (2, 2), _sl3_matrices, "projective", 20160, False),
}


def small_group(tag: str) -> FiniteGroup:
    """Concrete groups by tag; orders are checked on construction.  A group
    extended by the Frobenius map carries no field automorphism."""
    if tag not in _SMALL_GROUPS:
        raise ZooError("unknown group tag %r" % tag)
    name, (p, k), matrices, points, order, extended = _SMALL_GROUPS[tag]
    F = FiniteField(p, k)
    if points == "vectors":
        pts = [v for v in itertools.product(range(F.q), repeat=3) if any(v)]
        key = tuple
    else:
        pts = _projective_points(F, isotropic_only=points == "isotropic")
        key = functools.partial(_normalize_proj, F)
    index = {v: i for i, v in enumerate(pts)}
    gens = [tuple(index[key(_vec_apply(F, A, v))] for v in pts)
            for A in matrices(F)]
    frob = tuple(index[key(tuple(F.frob(x) for x in v))] for v in pts)
    G = FiniteGroup(len(pts), gens + [frob] if extended else gens, name=name)
    if G.order != order:
        raise ZooError("%s has order %d" % (name, G.order))
    if not extended:
        G.frobenius_perm = frob
    return G


def field_automorphism(G: FiniteGroup) -> tuple:
    """Realizer permutation of the automorphism induced by the field map."""
    r = getattr(G, "frobenius_perm", None)
    if r is None:
        raise ZooError("group %s has no field-automorphism provenance"
                       % G.name)
    return check_realizer(G, r)


# -- torus-normalizer models (Tables of Sylow torus normalizers) -----------

class TorusNormalizerSpec:
    """Model local group T x| W together with its building data."""

    def __init__(self, family, f, row, torus_orders, complement_tag,
                 group, torus_gens, complement_gens):
        self.family = family
        self.f = f
        self.row = row
        self.torus_orders = tuple(torus_orders)
        self.complement_tag = complement_tag
        self.group = group
        self.torus_gens = tuple(torus_gens)
        self.complement_gens = tuple(complement_gens)

    def torus_subgroup(self) -> FiniteGroup:
        return FiniteGroup(self.group.degree, self.torus_gens,
                           name="T-" + self.row)

    def __repr__(self):
        return "TorusNormalizerSpec(%s f=%d row=%s T=%s W=%s)" % (
            self.family, self.f, self.row, self.torus_orders,
            self.complement_tag)


def _affine_perm(moduli, M, shift):
    """The permutation v -> M*v + shift of Z_n1 x ... x Z_nr (moduli),
    row i of M and shift[i] read mod n_i, with the points numbered in
    mixed radix, last coordinate fastest."""
    index = [0] * prod(moduli)
    for row, s, n in zip(M, shift, moduli):
        # this coordinate of the image of every point, in point order
        col = [s]
        for m, k in zip(row, moduli):
            col = [c + m * x for c in col for x in range(k)]
        index = [i * n + c % n for i, c in zip(index, col)]
    return tuple(index)


def _affine_model(family, f, row, tag, moduli, wmats, w_order):
    """T x| W on the points of T = Z_n1 x ... x Z_nr (moduli), generated
    by the unit translations of T and the integer matrices wmats of W;
    W must have order w_order."""
    r = len(moduli)
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    tgens = [_affine_perm(moduli, unit, e) for e in unit]
    wgens = [_affine_perm(moduli, M, (0,) * r) for M in wmats]
    npts = prod(moduli)
    W = FiniteGroup(npts, wgens, name="W")
    if W.order != w_order:
        raise ZooError("complement for row %s has order %d, want %d"
                       % (row, W.order, w_order))
    G = FiniteGroup(npts, tgens + wgens, name="%s-%s" % (family, row))
    if G.order != npts * w_order:
        raise ZooError("torus normalizer for row %s has order %d, want %d"
                       % (row, G.order, npts * w_order))
    return TorusNormalizerSpec(family, f, row, moduli, tag, G, tgens, wgens)


def _sqrt_mod(a, d):
    a %= d
    for s in range(d):
        if (s * s) % d == a:
            return s
    return None


def _d16_mats(d):
    s = _sqrt_mod(2, d)
    if s is None:
        raise ZooError("number-theoretic inconsistency: no sqrt of 2 mod %d"
                       % d)
    si = pow(s, -1, d)
    rot = ((si % d, (-si) % d), (si % d, si % d))      # rotation by pi/4
    refl = ((1, 0), (0, d - 1))
    return [rot, refl]


# element-order multiset of GL2(3): identity, 13 involutions, 8 of order
# 3, the 6 order-4 elements of the quaternion Sylow piece, 8 of order 6
# and 12 of order 8
_GL23_ORDERS = tuple(sorted([1] + [2] * 13 + [3] * 8 + [4] * 6
                            + [6] * 8 + [8] * 12))


def _gl23_mats(d):
    """GL2(3) of order 48 inside GL2(Z_d), by deterministic search:
    the first order-8 element plus an order-3 partner that together
    generate a group of order 48 with the GL2(3) element-order multiset.
    Orders are those of the faithful action on Z_d^2."""
    units = [((a, b), (c, e))
             for a, b, c, e in itertools.product(range(d), repeat=4)
             if gcd((a * e - b * c) % d, d) == 1]

    def perm(M):
        return _affine_perm((d, d), M, (0, 0))

    A = next((A for A in units if perm_order(perm(A)) == 8), None)
    if A is None:
        raise ZooError("no order-8 element in GL2(Z_%d)" % d)
    for B in units:
        pb = perm(B)
        if perm_order(pb) != 3:
            continue
        X = FiniteGroup(d * d, [perm(A), pb])
        if X.order == 48 and tuple(sorted(
                map(perm_order, X.elements))) == _GL23_ORDERS:
            return [A, B]
    raise ZooError("no GL2(3) complement found inside GL2(Z_%d)" % d)


def _mat2_mul(A, B, d):
    return tuple(tuple(sum(A[r][t] * B[t][c] for t in range(2)) % d
                       for c in range(2)) for r in range(2))


def _st8_mats(d):
    """The order-96 complex reflection group inside GL2(Z_d): generated by
    two order-4 reflections s, t with sts = tst; needs i with i^2 = -1."""
    i4 = _sqrt_mod(-1, d)
    if i4 is None:
        raise ZooError("number-theoretic inconsistency: no 4th root of "
                       "unity mod %d" % d)
    s_mat = ((i4, 0), (0, 1))
    # search deterministically for the second braid generator
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    t_mat = ((a, b), (c, e))
                    if (a + e) % d != (1 + i4) % d:
                        continue
                    if (a * e - b * c) % d != i4:
                        continue
                    sts = _mat2_mul(_mat2_mul(s_mat, t_mat, d), s_mat, d)
                    tst = _mat2_mul(_mat2_mul(t_mat, s_mat, d), t_mat, d)
                    if sts != tst:
                        continue
                    if b == 0 and c == 0:
                        continue
                    return [s_mat, t_mat]
    raise ZooError("no braid partner found mod %d" % d)


def torus_polynomials(f):
    """Integer values T1, T2+, T2-, T3, T4+, T4- at q^2 = 2^(2f+1)."""
    q2 = 2 ** (2 * f + 1)
    r = 2 ** (f + 1)
    r3 = 2 ** (3 * f + 2)
    return {
        "T1": q2 - 1,
        "T2+": q2 + r + 1,
        "T2-": q2 - r + 1,
        "T3": q2 * q2 - q2 + 1,
        "T4+": q2 * q2 + r3 + q2 + r + 1,
        "T4-": q2 * q2 - r3 + q2 - r + 1,
    }


def torus_rows(family: str, f: int):
    """Row label -> (torus orders, complement tag, builder thunk).

    A cyclic row (n, multiplier, k) is C_n x| C_k, the complement acting
    by x -> multiplier*x; a square row (d, matrix search, |W|, tag) is
    (Z_d)^2 x| W, W generated by the 2x2 matrices the search returns.
    """
    if family not in ("2B2", "2G2", "2F4"):
        raise ZooError("unknown family %r" % family)
    p = 3 if family == "2G2" else 2
    q2, r = p ** (2 * f + 1), p ** (f + 1)
    if family == "2F4":
        t = torus_polynomials(f)
        square = {"(q2-1)^2": (q2 - 1, _d16_mats, 16, "D16"),
                  "(q2+1)^2": (q2 + 1, _gl23_mats, 48, "GL2(3)"),
                  "(q2+r+1)^2": (q2 + r + 1, _st8_mats, 96, "ST8"),
                  "(q2-r+1)^2": (q2 - r + 1, _st8_mats, 96, "ST8")}
        cyclic = {"q4-q2+1": (t["T3"], q2, 6), "t4+": (t["T4+"], q2, 12),
                  "t4-": (t["T4-"], q2, 12)}
    else:
        w = 4 if family == "2B2" else 6
        square = {}
        cyclic = {"q2-1": (q2 - 1, -1, 2), "q2+r+1": (q2 + r + 1, q2, w),
                  "q2-r+1": (q2 - r + 1, q2, w)}
    rows = {label: _square_row(family, f, label, *row)
            for label, row in square.items()}
    for label, (n, mult, k) in cyclic.items():
        rows[label] = ([n], "C%d" % k, functools.partial(
            _affine_model, family, f, label, "C%d" % k, (n,), [((mult,),)], k))
    if family == "2G2":
        half = (q2 + 1) // 2
        rows["(q2+1)/2x2"] = ([half, 2], "C6", lambda: _affine_model(
            family, f, "(q2+1)/2x2", "C6", *_ree_half_model(half), 6))
    return rows


def _square_row(family, f, label, d, search, w_order, tag):
    return [d, d], tag, lambda: _affine_model(family, f, label, tag, (d, d),
                                              search(d), w_order)


def _ree_half_model(half):
    """Moduli (2, 2, m) and complement matrices of (C_half x C2) x| C6,
    with T = C2 x C2 x C_m for the odd part m of the even half.

    The order-3 matrix cycles the three involutions of C2 x C2 and acts
    by an order-3 multiplier on C_m; the involution inverts C_m.
    """
    if half % 2:
        raise ZooError("expected even torus half-order, got %d" % half)
    m = half // 2
    mult3 = next((c for c in range(2, m) if pow(c, 3, m) == 1), None)
    if mult3 is None:
        raise ZooError("number-theoretic inconsistency: no order-3 "
                       "multiplier mod %d" % m)
    w3 = ((0, 1, 0), (1, 1, 0), (0, 0, mult3))
    w2 = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    return (2, 2, m), [w3, w2]


def torus_normalizer(family: str, f: int, p: int) -> TorusNormalizerSpec:
    """The torus-normalizer model for the row whose torus order p divides."""
    rows = torus_rows(family, f)
    matches = []
    for label, (orders, tag, build) in rows.items():
        if prod(orders) % p == 0:
            matches.append((label, build))
    if not matches:
        raise ZooError("prime %d divides no torus order for %s at f=%d"
                       % (p, family, f))
    if len(matches) > 1:
        raise ZooError("prime %d divides the torus orders of several rows "
                       "for %s at f=%d: %s"
                       % (p, family, f, ", ".join(m[0] for m in matches)))
    return matches[0][1]()
