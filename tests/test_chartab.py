import random
from fractions import Fraction
from math import gcd

import pytest
from sympy import GF, Matrix, symbols
from sympy.polys.matrices import DomainMatrix

from galmckay.cyclo import Cyclotomic, ZERO, ONE, rational
from galmckay.groups import FiniteGroup, semidirect_product
from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, dixon_schneider, dixon_prime,
    inner_product, induce, _charpoly, _coordinates, _nullspace, _proots,
    _traces,
)
from galmckay.cli import _GROUP_BUILDERS
from galmckay.galois import act_on_table
from oracles import (
    approx, cyclic_group, dihedral_group, full_galois_group, galois_image,
    per_class_dixon_schneider, power_compatibility_check, root,
    symmetric_group, validate_all_pairs,
)


def trivial_character(G):
    return ClassFunction(G, [1] * len(G.conjugacy_classes))


def regular_character(G):
    return ClassFunction(G, [G.order] + [0] * (len(G.conjugacy_classes) - 1))


def restrict(G, H, chi):
    return ClassFunction(H, [chi.values[G.class_of_element(cl.rep)]
                             for cl in H.conjugacy_classes])


def quaternion8():
    # regular representation of Q8 on its 8 elements
    # elements: 1, -1, i, -i, j, -j, k, -k as indices 0..7
    mult_i = (2, 3, 1, 0, 6, 7, 5, 4)   # right mult by i
    mult_j = (4, 5, 7, 6, 1, 0, 2, 3)   # right mult by j
    return FiniteGroup(8, [mult_i, mult_j], name="Q8")


def test_c2_table():
    t = dixon_schneider(cyclic_group(2))
    assert t.degrees() == [1, 1]
    vals = sorted(tuple(v.rational_value() for v in r.values) for r in t.rows)
    assert vals == [(1, -1), (1, 1)]


def test_c3_table_has_cube_roots():
    t = dixon_schneider(cyclic_group(3))
    assert t.degrees() == [1, 1, 1]
    z = root(3, 1)
    got = {r.values for r in t.rows}
    assert any(z in r for r in got)


def test_q8_degrees():
    t = dixon_schneider(quaternion8())
    assert sorted(t.degrees()) == [1, 1, 1, 1, 2]


def test_d14_table():
    t = dixon_schneider(dihedral_group(7))
    assert sorted(t.degrees()) == [1, 1, 2, 2, 2]
    t.validate()


def test_s4_table():
    t = dixon_schneider(symmetric_group(4))
    assert sorted(t.degrees()) == [1, 1, 2, 3, 3]


def c13_times_8():
    """C13 with x -> 8x mod 13, which sends the generator to its 8th power."""
    return cyclic_group(13), tuple(8 * i % 13 for i in range(13))


def test_c13_c4_table():
    c13, a = c13_times_8()
    t = dixon_schneider(semidirect_product(c13, a, 4))
    assert sorted(t.degrees()) == [1, 1, 1, 1, 4, 4, 4]


def test_second_orthogonality():
    G = symmetric_group(4)
    t = dixon_schneider(G)
    for c, cl in enumerate(G.conjugacy_classes):
        s = ZERO
        for r in t.rows:
            s = s + r.values[c] * r.values[c].galois(-1)
        assert s == rational(G.order // cl.size)


def test_dixon_prime_independence(monkeypatch):
    from galmckay import chartab

    G = dihedral_group(6)
    p1 = dixon_prime(G.exponent, G.order, at_least=len(G.conjugacy_classes))
    p2 = dixon_prime(G.exponent, G.order, at_least=p1)
    assert p1 != p2
    t1 = dixon_schneider(G)
    monkeypatch.setattr(chartab, "dixon_prime", lambda *args, **kw: p2)
    t2 = dixon_schneider(G)
    assert [r.values for r in t1.rows] == [r.values for r in t2.rows]


def test_galois_closure_of_table():
    G = dihedral_group(7)
    t = dixon_schneider(G)
    m = t.exponent
    rowset = {r.values for r in t.rows}
    for b in range(1, m):
        from math import gcd
        if gcd(b, m) != 1:
            continue
        for r in t.rows:
            assert galois_image(r, b).values in rowset


def test_inner_product_basics():
    G = symmetric_group(4)
    t = dixon_schneider(G)
    for i, r in enumerate(t.rows):
        for j, s in enumerate(t.rows):
            assert inner_product(r, s) == (ONE if i == j else ZERO)
    assert inner_product(trivial_character(G), regular_character(G)) == ONE


def test_induce_regular():
    G = symmetric_group(4)
    triv = G.subgroup([])
    tau = trivial_character(triv)
    ind = induce(G, triv, tau)
    assert ind == regular_character(G)


def test_induce_c13_to_frobenius():
    c13, a = c13_times_8()
    G = semidirect_product(c13, a, 4)
    T = c13
    tt = dixon_schneider(T)
    nontriv = next(r for r in tt.rows if any(v != ONE for v in r.values))
    ind = induce(G, T, nontriv)
    assert ind.degree_int() == 4
    assert inner_product(ind, ind) == ONE  # irreducible


def test_frobenius_reciprocity():
    G = symmetric_group(4)
    H = G.sylow_subgroup(3)
    tg = dixon_schneider(G)
    th = dixon_schneider(H)
    for chi in tg.rows:
        for tau in th.rows:
            lhs = inner_product(induce(G, H, tau), chi)
            rhs = inner_product(restrict(G, H, chi), tau)
            assert lhs == rhs


def test_restrict_then_induce_contains():
    G = symmetric_group(4)
    H = G.sylow_subgroup(2)
    tg = dixon_schneider(G)
    for chi in tg.rows[:3]:
        res = restrict(G, H, chi)
        back = induce(G, H, res)
        assert inner_product(back, chi) != ZERO


def test_p_prime_rows():
    G = symmetric_group(4)
    t = dixon_schneider(G)
    # degrees are 1,1,2,3,3: the odd ones are 1,1,3,3
    assert len(t.p_prime_rows(2)) == 4
    assert len(t.p_prime_rows(3)) == 3
    assert t.p_prime_rows(5) == list(range(5))


def test_values_live_in_element_order_field():
    G = dihedral_group(7)
    t = dixon_schneider(G)
    for r in t.rows:
        for v, cl in zip(r.values, G.conjugacy_classes):
            assert cl.element_order % v.order == 0


def _sympy_charpoly(A, p):
    """Integer charpoly of A from sympy, reduced mod p, low-to-high."""
    coeffs = Matrix(A).charpoly(symbols("x")).all_coeffs()
    return [int(c) % p for c in reversed(coeffs)]


def _random_matrices(rng, p):
    for _ in range(12):
        d = rng.randrange(1, 9)
        yield [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
    for _ in range(12):
        d = rng.randrange(2, 9)
        yield [[rng.randrange(p) if rng.random() < 0.2 else 0
                for _ in range(d)] for _ in range(d)]
    for _ in range(8):
        # singular: the last row repeats a combination of the others
        d = rng.randrange(2, 8)
        A = [[rng.randrange(p) for _ in range(d)] for _ in range(d - 1)]
        A.append([(2 * x + y) % p for x, y in zip(A[0], A[-1])])
        rng.shuffle(A)
        yield A
    for d in (3, 5, 7):
        # zero sub-diagonal pivots with nonzero entries below them force
        # row and column swaps
        A = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        for m in range(1, d - 1):
            A[m][m - 1] = 0
        yield A
        # strictly upper triangular: no pivot at all
        yield [[rng.randrange(p) if c > r else 0 for c in range(d)]
               for r in range(d)]


@pytest.mark.parametrize("p", [7, 101, 10007])
def test_charpoly_matches_sympy(p):
    rng = random.Random(p)
    for A in _random_matrices(rng, p):
        want = _sympy_charpoly(A, p)
        assert _charpoly(A, p) == want
        assert len(want) == len(A) + 1 and want[-1] == 1


def _sympy_rank(A, p):
    K = GF(p)
    return DomainMatrix([[K(x) for x in row] for row in A],
                        (len(A), len(A[0])), K).rank()


@pytest.mark.parametrize("p", [7, 101, 10007])
def test_elimination_matches_sympy_rank(p):
    """The kernel basis has d - rank(A) vectors, each killed by A, and
    coordinates over a basis reproduce the vectors they came from."""
    rng = random.Random(p)
    for A in _random_matrices(rng, p):
        d = len(A)
        kernel = _nullspace(A, p)
        assert len(kernel) == d - _sympy_rank(A, p)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0
                   for v in kernel for row in A)
        if kernel:
            continue
        # A is invertible: its rows are a basis of F_p^d
        X = [[rng.randrange(p) for _ in range(3)] for _ in range(d)]
        vectors = [[sum(X[i][c] * A[i][r] for i in range(d)) % p
                    for r in range(d)] for c in range(3)]
        assert _coordinates(A, vectors, p) == X
    with pytest.raises(ChartabError, match="inconsistent"):
        _coordinates([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], p)


def test_proots_refuses_a_polynomial_that_does_not_split():
    rng = random.Random(0)
    # (x - 2)^2 (x - 3) = x^3 - 7x^2 + 16x - 12: the square-free part splits
    assert sorted(_proots([-12, 16, -7, 1], 7, rng)) == [2, 3]
    # x^2 + 1 is irreducible over F_7, alone and times x - 2
    for f in ([1, 0, 1], [-2, 1, -2, 1]):
        with pytest.raises(ChartabError, match="does not split"):
            _proots(f, 7, rng)


@pytest.mark.parametrize("o", [1, 2, 4, 9, 12, 30, 109, 1308])
def test_traces_are_the_sums_over_galois_conjugates(o):
    """Tr(zeta_o^m) = sum of zeta_o^(mt) over the units t mod o, numerically
    and for the cyclotomic sum."""
    import cmath

    traces = _traces(o)
    units = [t for t in range(o) if gcd(t, o) == 1]
    assert traces[0] == len(units)
    for m in range(o):
        numeric = sum(cmath.exp(2j * cmath.pi * m * t / o) for t in units)
        assert abs(numeric - traces[m]) < 1e-6, m
    for m in range(0, o, max(1, o // 12)):
        assert Cyclotomic.from_terms(o, [(m * t, 1) for t in units]) \
            == traces[m]


def test_galois_conjugate_classes_build_no_class_matrix(monkeypatch):
    """Sz(8) needs the class matrices of 4 classes and Sz(8) x| C3 those of
    3; none of them is a power g^m, m prime to |g|, of another."""
    from math import gcd

    from galmckay import groups
    from galmckay.verify import global_side

    side = global_side("2B2", 1)
    used = []
    real = groups._Classes.class_matrix

    def counted(G, i):
        used.append(i)
        return real(G, i)

    monkeypatch.setattr(groups._Classes, "class_matrix", counted)
    for G, count in ((side.table.group, 4), (side.product(1)[0].table.group, 3)):
        used.clear()
        dixon_schneider(G)
        assert len(used) == count, G.name
        for i in used:
            o = G.conjugacy_classes[i].element_order
            conjugates = {G.power_map(i, m) for m in range(1, o)
                          if gcd(m, o) == 1}
            assert conjugates.isdisjoint(set(used) - {i}), (G.name, i)


def _direct_inner_product(a, b):
    G = a.group
    acc = ZERO
    for cl, x, y in zip(G.conjugacy_classes, a.values, b.values):
        acc = acc + x * y.galois(-1) * cl.size
    return acc * Fraction(1, G.order)


def _random_value(rng):
    n = rng.choice([1, 2, 3, 4, 5, 8, 9, 12, 15])
    terms = [(rng.randrange(n), rng.choice([rng.randrange(-3, 4),
                                            Fraction(rng.randrange(-5, 6),
                                                     rng.randrange(1, 5))]))
             for _ in range(rng.randrange(0, 4))]
    return Cyclotomic.from_terms(n, terms)


def test_inner_product_matches_direct_formula():
    rng = random.Random(29)
    for G in (symmetric_group(4), cyclic_group(12), dihedral_group(7)):
        ncl = len(G.conjugacy_classes)
        for _ in range(40):
            a = ClassFunction(G, [_random_value(rng) for _ in range(ncl)])
            b = ClassFunction(G, [_random_value(rng) for _ in range(ncl)])
            got = inner_product(a, b)
            assert got == _direct_inner_product(a, b)
            numeric = sum(cl.size * approx(x) * approx(y).conjugate()
                          for cl, x, y in zip(G.conjugacy_classes,
                                              a.values, b.values)) / G.order
            assert abs(approx(got) - numeric) < 1e-9
            assert inner_product(b, a) == got.galois(-1)


# validate's messages when the Galois-compatibility proof fails
COMPATIBILITY = (r"not in Q\(zeta|disagrees with the power map"
                 r"|permuted row is not a row")


def galois_compatible(table):
    """Oracle: every value at class c lies in Q(zeta_|g_c|), and for every
    unit b mod the exponent sigma_b(chi(g)) = chi(g^b) and sigma_b
    permutes the rows."""
    rows = {r.values for r in table.rows}
    return (all(cl.element_order % v.order == 0 for r in table.rows
                for v, cl in zip(r.values, table.classes))
            and all(power_compatibility_check(table, s)
                    and all(galois_image(r, s.b).values in rows
                            for r in table.rows)
                    for s in full_galois_group(table.exponent)))


def expected_rejection(table):
    """The message validate must reject a perturbed table with: the
    compatibility check runs before orthogonality."""
    return ("row orthogonality fails" if galois_compatible(table)
            else COMPATIBILITY)


def with_value(table, i, k, v):
    """The table with the value of row i at class k replaced by v."""
    vals = list(table.rows[i].values)
    vals[k] = v
    rows = list(table.rows)
    rows[i] = ClassFunction(table.group, vals)
    return CharacterTable(table.group, rows)


PERTURBATIONS = {
    "plus-half": lambda v, o: v + Fraction(1, 2),
    "plus-root": lambda v, o: v + root(7, 1),
    # these keep every row norm, so only an off-diagonal pair can fail
    "times-root7": lambda v, o: v * root(7, 1),
    "times-root12": lambda v, o: v * root(12, 5),
    # stays in the value field of the class
    "times-class-root": lambda v, o: v * root(o, 1),
}


@pytest.mark.parametrize("perturb", [PERTURBATIONS[k] for k in (
    "plus-half", "plus-root", "times-root7", "times-root12")],
    ids=["plus-half", "plus-root", "times-root7", "times-root12"])
def test_validate_catches_one_perturbed_value(perturb):
    for G in (dihedral_group(7), symmetric_group(4)):
        t = dixon_schneider(G)
        for i in range(len(t.rows)):
            for k in range(1, len(t.classes)):
                v = t.rows[i].values[k]
                if perturb(v, 1) == v:
                    continue
                bad = with_value(t, i, k, perturb(v, 1))
                with pytest.raises(ChartabError,
                                   match=expected_rejection(bad)):
                    bad.validate()


def accepts(check, table):
    try:
        check(table)
    except ChartabError:
        return False
    return True


def test_validate_agrees_with_the_all_pairs_oracle_on_perturbed_tables():
    """Over every perturbation family, one value or one swapped pair of
    values per table: validate accepts exactly the tables that the
    all-pairs oracle accepts and that are Galois-compatible, so it rejects
    every table the oracle rejects."""
    from galmckay.extend import Side

    c13, a = c13_times_8()
    d14_3 = Side(dixon_schneider(dihedral_group(7)),
                 tuple(2 * i % 7 for i in range(7)), 3).product(1)[0].table
    tables = [dixon_schneider(G) for G in (
        dihedral_group(7), cyclic_group(5), cyclic_group(12),
        symmetric_group(4), quaternion8(), semidirect_product(c13, a, 4))] + [d14_3]
    checked = rejected = 0
    for t in tables:
        n, ncl = len(t.rows), len(t.classes)
        perturbed = []
        for i in range(n):
            for k in range(1, ncl):
                v = t.rows[i].values[k]
                o = t.classes[k].element_order
                perturbed += [with_value(t, i, k, f(v, o))
                              for f in PERTURBATIONS.values()
                              if f(v, o) != v]
                if k + 1 < ncl and t.rows[i].values[k + 1] != v:
                    swapped = with_value(t, i, k, t.rows[i].values[k + 1])
                    perturbed.append(with_value(swapped, i, k + 1, v))
        for bad in perturbed:
            oracle = accepts(validate_all_pairs, bad)
            assert accepts(CharacterTable.validate, bad) == (
                oracle and galois_compatible(bad))
            checked += 1
            rejected += not oracle
    assert rejected == checked > 1000


# -- the rational-class lift and the Galois-orbit check ------------------------

def assert_matches_per_class_oracle(G, table):
    """The rows equal the per-class oracle's, and validate and the
    all-pairs oracle both accept them."""
    oracle = per_class_dixon_schneider(G)
    assert [r.values for r in table.rows] == [r.values for r in oracle.rows]
    assert table.validated and validate_all_pairs(table)


@pytest.mark.parametrize("name", sorted(_GROUP_BUILDERS))
def test_lift_matches_per_class_oracle_on_chartab_groups(name):
    G = _GROUP_BUILDERS[name]()
    assert_matches_per_class_oracle(G, dixon_schneider(G))


def test_lift_matches_per_class_oracle_on_target_models():
    from galmckay.verify import list_targets, local_model_group

    for target in list_targets():
        G = local_model_group(target["family"], target["f"], target["p"])
        assert_matches_per_class_oracle(G, dixon_schneider(G))


def test_lift_matches_per_class_oracle_on_extension_products():
    """The tables of Sz(8).3, PSL(2,8).3 and each N_P.3 that verify
    builds."""
    from galmckay.verify import global_side, list_targets, local_side

    for target in list_targets():
        if target["mode"] != "full":
            continue
        for side in (global_side(target["family"], target["f"]),
                     local_side(target["family"], target["f"], target["p"])):
            big = side.product(1)[0].table
            assert_matches_per_class_oracle(big.group, big)


def galois_orbits(table):
    """The orbits of Gal(Q(zeta_e)/Q) on the rows, e the table exponent,
    through the power maps (galois.act_on_table)."""
    perms = [act_on_table(table, s) for s in full_galois_group(table.exponent)]
    return sorted({tuple(sorted({p[i] for p in perms}))
                   for i in range(len(table.rows))})


def rational_class(G, k):
    o = G.conjugacy_classes[k].element_order
    return {G.power_map(k, m) for m in range(1, o) if gcd(m, o) == 1}


@pytest.mark.parametrize("G", [dihedral_group(7), cyclic_group(5),
                               symmetric_group(4)], ids=["D14", "C5", "S4"])
def test_validate_catches_a_corrupted_galois_orbit(G):
    """Adding 1/2 at one class to every row of an orbit keeps the rows
    permuted by the Galois group.  Where the class is not alone in its
    rational class, sigma_b(chi(g)) = chi(g^b) fails; added at every class
    of the rational class, it holds, and only the orthogonality check over
    one row per orbit can fail."""
    t = dixon_schneider(G)
    for orbit in galois_orbits(t):
        for k in range(1, len(t.classes)):
            for columns in ({k}, rational_class(G, k)):
                rows = list(t.rows)
                for i in orbit:
                    vals = list(rows[i].values)
                    for c in columns:
                        vals[c] = vals[c] + Fraction(1, 2)
                    rows[i] = ClassFunction(G, vals)
                bad = CharacterTable(G, rows)
                compatible = columns == rational_class(G, k)
                assert galois_compatible(bad) == compatible
                with pytest.raises(ChartabError, match=(
                        "row orthogonality fails" if compatible
                        else "disagrees with the power map")):
                    bad.validate()


def test_validate_rejects_a_table_not_galois_compatible():
    """In the table of C5, chi_1 and chi_4 replaced by a chi_1 + conj(a)
    chi_4 and conj(a) chi_1 + a chi_4, a = (1 + i)/2: the rows stay
    orthonormal of degree 1, so the all-pairs oracle accepts them, but they
    take values in Q(i) at classes of order 5, and sigma with
    zeta_5 -> zeta_5^2 and i -> i sends the first to a chi_2 + conj(a)
    chi_3, which is not a row.  It is not a character table."""
    G = cyclic_group(5)
    chi = [[root(5, a * k) for k in range(5)] for a in range(5)]
    a = (1 + root(4, 1)) * Fraction(1, 2)
    abar = a.galois(-1)
    mixed = [[x * a + y * abar for x, y in zip(chi[1], chi[4])],
             [x * abar + y * a for x, y in zip(chi[1], chi[4])]]
    t = CharacterTable(G, [ClassFunction(G, v)
                           for v in (chi[0], mixed[0], chi[2], chi[3],
                                     mixed[1])])
    assert validate_all_pairs(t)
    assert not galois_compatible(t)
    with pytest.raises(ChartabError, match=r"class 1 is not in Q\(zeta_5\)"):
        t.validate()
    assert not t.validated


def test_validate_rejects_a_repeated_row():
    """(1,1,1), (1,1,1), (2,0,-1) on the classes of S3 passes the degree
    checks and is Galois-compatible, but two rows are equal."""
    G = symmetric_group(3)
    assert [cl.size for cl in G.conjugacy_classes] == [1, 3, 2]
    t = CharacterTable(G, [ClassFunction(G, v) for v in
                           ((1, 1, 1), (1, 1, 1), (2, 0, -1))])
    with pytest.raises(ChartabError, match="rows repeat"):
        t.validate()


def test_2f4_109_lifts_once_per_rational_class(monkeypatch):
    """The 2F4 p=109 model has 20 nontrivial classes in 6 rational classes
    and 21 rows in 7 Galois orbits.  It builds 6 lift tables, and validate
    takes one trace sum per rational class, the identity's included, for
    each of 7 * 21 row pairs less the 21 pairs of two orbit
    representatives counted twice."""
    from galmckay import chartab
    from galmckay.verify import local_model_group

    G = local_model_group("2F4", 1, 109)
    lifts, sums = [], []
    real_lift, real_sum = chartab._lift_table, chartab._trace_sum

    def counted_lift(*args):
        lifts.append(args)
        return real_lift(*args)

    def counted_sum(*args):
        sums.append(args)
        return real_sum(*args)

    monkeypatch.setattr(chartab, "_lift_table", counted_lift)
    monkeypatch.setattr(chartab, "_trace_sum", counted_sum)
    t = dixon_schneider(G)
    rational_classes = {frozenset(rational_class(G, k))
                        for k in range(len(G.conjugacy_classes))}
    assert len(rational_classes) == 7
    assert len(lifts) == len(rational_classes) - 1 == 6
    orbits = len(galois_orbits(t))
    assert (orbits, len(t.rows)) == (7, 21)
    pairs = orbits * 21 - orbits * (orbits - 1) // 2
    assert len(sums) == 7 * pairs == 7 * 126


def test_2f4_109_walks_powers_once_per_rational_class(monkeypatch):
    """dixon_schneider on the 2F4 p=109 model walks the powers of one
    class in each rational class: 6 walks for its 20 nontrivial classes.
    After it, act_on_table makes no value-wise pass for any unit mod the
    exponent: validate has proved sigma_b(chi(g)) = chi(g^b)."""
    from galmckay import groups
    from galmckay.verify import local_model_group

    G = local_model_group("2F4", 1, 109)
    walks, galois_calls = [], []
    real_walk = groups._Classes._power_walk
    real_galois = Cyclotomic.galois

    def counted_walk(self, c):
        walks.append(c)
        return real_walk(self, c)

    def counted_galois(self, b):
        galois_calls.append(b)
        return real_galois(self, b)

    monkeypatch.setattr(groups._Classes, "_power_walk", counted_walk)
    t = dixon_schneider(G)
    classes = G.conjugacy_classes
    nontrivial = [c for c in walks if classes[c].element_order > 1]
    assert (len(nontrivial), len(classes) - 1) == (6, 20)
    assert len({frozenset(rational_class(G, c)) for c in nontrivial}) == 6
    monkeypatch.setattr(Cyclotomic, "galois", counted_galois)
    units = full_galois_group(t.exponent)
    perms = [act_on_table(t, s) for s in units]
    assert galois_calls == [] and len(walks) == 7
    monkeypatch.undo()
    assert len(units) == 432
    assert perms[:50] == [tuple(t.row_index(galois_image(r, s.b))
                                for r in t.rows) for s in units[:50]]
