"""Orchestration of the local-global condition checks.

The two halves of the condition are checked per target and prime: an
equivariant bijection between the p'-characters of the global group and
of a Sylow normalizer (found by stabilizer matching for the abelian
acting group), and an invariant-extension witness for every character on
both sides.  A local-only target, whose global group is too large to
enumerate, takes the same path with its local side on both sides.  The
module also houses the congruence verifier for the
torus order polynomials and the consistency check between computed
Sylow normalizers and the constructed normalizer models.
"""

from math import lcm, prod
from collections import Counter
from functools import cache

from . import GalMcKayError
from .groups import (
    FiniteGroup, compose, conjugate, identity_perm, check_realizer,
    coset_order,
)
from .chartab import CharacterTable, dixon_schneider
from .galois import h_group
from .ntheory import factorint
from .extend import ActionOnSet, Side, invariant_extension_exists
from .zoo import (
    suzuki_group, psl2_8, psl2_local_model, field_automorphism,
    torus_normalizer, torus_rows, torus_polynomials,
)


class VerifyError(GalMcKayError):
    pass


# -- permutation-isomorphism matching --------------------------------------

def match_actions(X: ActionOnSet, Y: ActionOnSet):
    """Equivariant bijection via stabilizer-multiset matching.

    Returns (pairs, orbit_summary, reason): pairs is the sorted list of
    point pairs (x, y) of the bijection, or None with the reason there is
    none.
    """
    if X.labels != Y.labels:
        raise VerifyError("the two actions have different acting groups")
    if not X.is_abelian() or not Y.is_abelian():
        raise VerifyError("nonabelian acting group is unsupported")

    def orbit_data(A):
        data = {}
        for orb in A.orbits():
            stab = A.stabilizer(orb[0])
            for x in orb[1:]:
                if A.stabilizer(x) != stab:
                    raise VerifyError("abelian orbit with varying stabilizer")
            data.setdefault(stab, []).append(orb)
        return data

    dx = orbit_data(X)
    dy = orbit_data(Y)
    summary = []
    keys = sorted(set(dx) | set(dy), key=lambda s: (len(s), sorted(s)))
    reason = None
    for stab in keys:
        ox = dx.get(stab, [])
        oy = dy.get(stab, [])
        size = len(ox[0]) if ox else len(oy[0])
        summary.append({
            "stabilizer": [list(l) if isinstance(l, tuple) else l
                           for l in sorted(stab)],
            "size": size,
            "count_global": len(ox),
            "count_local": len(oy),
        })
        if len(ox) != len(oy):
            reason = "stabilizer class multiplicity mismatch"
    if X.n != Y.n:
        reason = reason or "point counts differ"
    if reason:
        return None, summary, reason

    bij = {}
    for stab in keys:
        for orb_x, orb_y in zip(dx[stab], dy[stab]):
            rx, ry = orb_x[0], orb_y[0]
            for px, py in zip(X.perms, Y.perms):
                ax, ay = px[rx], py[ry]
                if ax in bij and bij[ax] != ay:
                    return None, summary, "transport produced a conflict"
                bij[ax] = ay
    if len(bij) != X.n:
        return None, summary, "transport did not reach every point"
    for px, py in zip(X.perms, Y.perms):
        for x in range(X.n):
            if bij[px[x]] != py[bij[x]]:
                return None, summary, "transported map is not equivariant"
    return sorted(bij.items()), summary, None


# -- condition checks ------------------------------------------------------

def condition_one(gside, lside, p, H):
    gp = gside.table.p_prime_rows(p)
    lp = lside.table.p_prime_rows(p)
    X = gside.action(H).restrict(gp)
    # a side matched with itself restricts its joint action once
    Y = X if lside is gside else lside.action(H).restrict(lp)
    pairs, orbits, reason = match_actions(X, Y)
    return {
        "counts": {"global": len(gp), "local": len(lp)},
        "orbits": orbits,
        "bijection": None if pairs is None
        else [[gp[i], lp[j]] for i, j in pairs],
        "part1": pairs is not None,
        "reason": reason,
    }


def extension_sweep(side, H, p, label):
    """Invariant-extension witnesses for every p'-row of one side."""
    return [{"side": label, "row": row,
             "degree": side.table.rows[row].degree_int(),
             **invariant_extension_exists(side, row, H)}
            for row in side.table.p_prime_rows(p)]


# -- torus order congruences -----------------------------------------------

_CONGRUENCES = {
    "T1": ("mod 8 in {1,7}", 8, {1, 7}, False),
    "T2+": ("mod 4 = 1", 4, {1}, False),
    "T2-": ("mod 4 = 1", 4, {1}, False),
    "T3": ("mod 3 = 1 unless p = 3", 3, {1}, True),
    "T4+": ("mod 12 in {1,11} unless p = 3", 12, {1, 11}, True),
    "T4-": ("mod 12 in {1,11} unless p = 3", 12, {1, 11}, True),
}


def lemma_congruence_check(f_min, f_max):
    """Congruences for every odd prime factor of the torus orders."""
    if not 1 <= f_min <= f_max <= 12:
        raise VerifyError("f range must satisfy 1 <= f_min <= f_max <= 12")
    per_f = []
    all_ok = True
    for f in range(f_min, f_max + 1):
        q2 = 2 ** (2 * f + 1)
        t = torus_polynomials(f)
        identities = (t["T2+"] * t["T2-"] == q2 * q2 + 1
                      and t["T4+"] * t["T4-"] * (q2 * q2 + 1)
                      == q2 ** 6 + 1)
        values = {}
        f_ok = identities
        for name, value in t.items():
            rule, mod, allowed, excl3 = _CONGRUENCES[name]
            factors = factorint(value)
            bad = []
            for prime in factors:
                if prime == 2 or (excl3 and prime == 3):
                    continue
                if prime % mod not in allowed:
                    bad.append(prime)
            ok = not bad
            f_ok = f_ok and ok
            values[name] = {
                "value": value,
                "factors": [[pr, e] for pr, e in sorted(factors.items())],
                "rule": rule,
                "ok": ok,
                "violations": bad,
            }
        all_ok = all_ok and f_ok
        per_f.append({"f": f, "q2": q2, "identities": identities,
                      "values": values, "ok": f_ok})
    return {"f_min": f_min, "f_max": f_max, "ok": all_ok, "per_f": per_f}


# -- cross-model consistency -----------------------------------------------

def tables_equivalent(t1: CharacterTable, t2: CharacterTable) -> bool:
    """Equality up to row and column permutation.

    t2's columns are matched in order, each to an unused t1 column of the
    same element order and class size.  A partial match is kept only while
    the two tables' multisets of partial rows agree; otherwise the search
    backtracks.
    """
    n = len(t1.classes)
    if t1.group.order != t2.group.order or len(t2.classes) != n:
        return False
    keys = [(c.element_order, c.size) for c in t1.classes]
    cols1 = list(zip(*(r.values for r in t1.rows)))
    cols2 = list(zip(*(r.values for r in t2.rows)))

    def search(j2, rows1, rows2, used):
        if j2 == n:
            return True
        key = (t2.classes[j2].element_order, t2.classes[j2].size)
        for j1 in range(n):
            if j1 in used or keys[j1] != key:
                continue
            ext1 = [r + (v,) for r, v in zip(rows1, cols1[j1])]
            ext2 = [r + (v,) for r, v in zip(rows2, cols2[j2])]
            if Counter(ext1) == Counter(ext2) and \
                    search(j2 + 1, ext1, ext2, used | {j1}):
                return True
        return False

    return search(0, [()] * len(t1.rows), [()] * len(t2.rows), frozenset())


def cross_model_check(family, f, p) -> bool:
    """Computed Sylow normalizer table vs the constructed model table."""
    mode = target_mode(family, f, p)
    if mode != "full":
        raise VerifyError("cross-model check needs a full target; "
                          "(%s, %d, %d) is %s"
                          % (family, f, p, mode or "out of scope"))
    return tables_equivalent(local_side(family, f, p).table,
                             local_model_table(family, f, p))


# -- target plumbing -------------------------------------------------------

def stable_sylow_setup(G: FiniteGroup, p: int, frob_realizer):
    """Sylow normalizer N with a realizer normalizing it.

    Conjugation by the field automorphism moves the chosen Sylow
    subgroup to a conjugate; G.transporter brings it back.  The realizer
    r t is returned as it is: its powers meet N where those of r meet G,
    and its k-th power need not be 1 (see groups.SemidirectProduct).
    """
    R = G.sylow_subgroup(p)
    N = G.normalizer(R)
    r = check_realizer(G, frob_realizer)
    elements = R.elements
    rset = frozenset(map(G.index_of, elements))
    moved = frozenset(G.index_of(conjugate(x, r)) for x in elements)
    return N, check_realizer(N, compose(r, G.transporter(moved, rset)))


# supported targets: (family, f) -> primes with full verification
_FULL_TARGETS = {
    ("2B2", 1): (5, 7, 13),
    ("PSL2", 1): (2, 3, 7),
}


def _local_only_primes(family, f):
    """Odd non-defining primes attached unambiguously to one torus row."""
    defining = 3 if family == "2G2" else 2
    hits = {}
    for label, (orders, tag, build) in torus_rows(family, f).items():
        for prime in factorint(prod(orders)):
            hits.setdefault(prime, set()).add(label)
    return tuple(sorted(p for p, labs in hits.items()
                        if p != defining and p % 2 and len(labs) == 1))


_LOCAL_ONLY = (("2B2", 2), ("2G2", 1), ("2F4", 1))


@cache
def _target_grid():
    """(family, f, p) -> "full" or "local-only", in list-targets order."""
    grid = {(family, f, p): "full"
            for (family, f), primes in sorted(_FULL_TARGETS.items())
            for p in primes}
    for family, f in sorted(_LOCAL_ONLY):
        for p in _local_only_primes(family, f):
            grid.setdefault((family, f, p), "local-only")
    return grid


def target_mode(family, f, p):
    return _target_grid().get((family, f, p))


def list_targets():
    return [{"family": family, "f": f, "p": p, "mode": mode}
            for (family, f, p), mode in _target_grid().items()]


def local_model_group(family, f, p) -> FiniteGroup:
    """The target's constructed Sylow normalizer model."""
    if family in ("2B2", "2G2", "2F4"):
        return torus_normalizer(family, f, p).group
    if family == "PSL2" and f == 1:
        return psl2_local_model(p)
    raise VerifyError("no local model for %s f=%d p=%d" % (family, f, p))


@cache
def local_model_table(family, f, p) -> CharacterTable:
    """Character table of the target's local model, built once."""
    return dixon_schneider(local_model_group(family, f, p))


def out_of_scope_report(family, f, p):
    return {
        "target": {"family": family, "f": f},
        "p": p,
        "status": "out-of-scope",
        "reason": "target is outside the verified instance grid",
        "known_targets": list_targets(),
    }


@cache
def _field_action(family, f):
    """The global group, its field automorphism's realizer and k, its
    coset order.

    Both sides start here, so a local side needs no global table.
    """
    if family == "2B2":
        G = suzuki_group(f)
    elif family == "PSL2" and f == 1:
        G = psl2_8()
    else:
        raise VerifyError("no global group constructor for %s f=%d"
                          % (family, f))
    frob = field_automorphism(G)
    return G, frob, coset_order(G, frob)


@cache
def global_side(family, f) -> Side:
    """The global group's side, shared by every prime of the target."""
    G, frob, k = _field_action(family, f)
    return Side(dixon_schneider(G), frob, k)


@cache
def local_side(family, f, p) -> Side:
    """The side of a Sylow normalizer stable under the field automorphism;
    for a local-only target, the model table under the trivial action."""
    if target_mode(family, f, p) == "local-only":
        table = local_model_table(family, f, p)
        return Side(table, identity_perm(table.group.degree), 1)
    G, frob, k = _field_action(family, f)
    N, lreal = stable_sylow_setup(G, p, frob)
    return Side(dixon_schneider(N), lreal, k)


def galois_group(gside: Side, lside: Side, p):
    """The Galois group H over the exponents of both extension products."""
    return h_group(p, lcm(gside.exponent(), lside.exponent()))


_NOTES = {
    "full": "verification is at the simple-group level; "
            "central covers are not modeled",
    "local-only": "global group exceeds the enumeration cap; "
                  "only the local model is verified",
}


def verify_target(family, f, p):
    """Full or local-only verification report for one (target, prime).

    A local-only target has no global side: its local side is matched
    against itself, and the global count, the bijection and part 1 of the
    verdict are None.
    """
    mode = target_mode(family, f, p)
    if mode is None:
        return out_of_scope_report(family, f, p)
    full = mode == "full"
    if full:
        g, l = global_side(family, f), local_side(family, f, p)
    else:
        g = l = local_side(family, f, p)
    H = galois_group(g, l, p)
    frag = condition_one(g, l, p, H)
    exts = extension_sweep(g, H, p, "global") if full else []
    exts += extension_sweep(l, H, p, "local")
    counts = frag["counts"]
    if not full:
        counts["global"] = None
    part1 = frag["part1"] if full else None
    part2 = all(e["invariant"] for e in exts)
    return {
        "target": {"family": family, "f": f},
        "p": p,
        "mode": mode,
        "status": "verified" if part2 and part1 is not False else "failed",
        "counts": counts,
        "orbits": frag["orbits"],
        "bijection": frag["bijection"] if full else None,
        "extensions": exts,
        "lemma32": None,
        "verdict": {"part1": part1, "part2": part2},
        "notes": [_NOTES[mode]],
    }
