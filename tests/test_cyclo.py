import cmath
import random
from fractions import Fraction

import pytest

from galmckay.cyclo import Cyclotomic, CycloError, ONE, ZERO, rational
from oracles import approx, deserialize, root


def test_make_root_identity():
    assert root(1, 0) == rational(1)
    assert root(1, 0).is_rational()


def test_imaginary_unit():
    i = root(4, 1)
    assert i * i == rational(-1)
    assert i.galois(-1) != i


def test_cube_roots_sum():
    z = root(3, 1)
    z2 = root(3, 2)
    s = z + z2
    assert s.is_rational()
    assert s.rational_value() == -1


def test_mul_inverse_roots():
    assert root(5, 1) * root(5, 4) == ONE


def test_real_element_conj():
    a = root(7, 1) + root(7, 6)
    assert a.galois(-1) == a
    assert a + a.galois(-1) == 2 * a


def test_galois_apply_basic():
    a = root(5, 1) + root(5, 4)
    assert a.galois(2) == root(5, 2) + root(5, 3)
    i = root(4, 1)
    assert i.galois(3) == -i
    assert rational(Fraction(7, 2)).galois(11) == rational(Fraction(7, 2))


def test_galois_rejects_noncoprime():
    with pytest.raises(CycloError):
        root(8, 1).galois(2)


def test_conj_examples():
    assert root(3, 1).galois(-1) == root(3, 2)
    two_plus_3i = rational(2) + 3 * root(4, 1)
    assert two_plus_3i.galois(-1) == rational(2) - 3 * root(4, 1)


def test_rationality_and_reality():
    assert (root(3, 1) + root(3, 2)).is_rational()
    sqrt2 = root(8, 1) + root(8, 7)
    assert sqrt2.galois(-1) == sqrt2
    assert not sqrt2.is_rational()
    assert root(8, 1).galois(-1) != root(8, 1)


def test_rational_hash_matches_fraction():
    for v in (1, Fraction(1, 2), 0):
        c = rational(v)
        assert c == v
        assert hash(c) == hash(v) == hash(Fraction(v))
        assert len({c, v}) == 1
        assert {c: "cyclo"}[v] == "cyclo"
    assert len({rational(1), 1, ONE, Fraction(1), root(1, 0)}) == 1
    assert len({ZERO, 0, rational(0)}) == 1


def test_approx_complex():
    assert abs(approx(root(4, 1)) - 1j) < 1e-12
    sqrt2 = root(8, 1) + root(8, 7)
    assert abs(approx(sqrt2) - 2 ** 0.5) < 1e-9
    assert abs(approx(rational(-1)) + 1) < 1e-12


def _random_elt(rng, n):
    acc = ZERO
    for _ in range(rng.randrange(1, 5)):
        e = rng.randrange(n)
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        acc = acc + root(n, e) * c
    return acc


def test_conj_involution_random():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([5, 8, 12, 20, 21])
        a = _random_elt(rng, n)
        assert a.galois(-1).galois(-1) == a


def test_galois_is_homomorphism():
    rng = random.Random(11)
    n = 20
    for _ in range(50):
        a = _random_elt(rng, n)
        b = _random_elt(rng, n)
        for s in (3, 7, 9):
            assert (a + b).galois(s) == a.galois(s) + b.galois(s)
            assert (a * b).galois(s) == a.galois(s) * b.galois(s)
        assert a.galois(3).galois(7) == a.galois(21 % 20)


def test_canonical_equality_matches_numeric():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.choice([7, 9, 12, 15])
        a = _random_elt(rng, n)
        b = _random_elt(rng, n)
        same = abs(approx(a) - approx(b)) < 1e-9
        assert (a == b) == same
        if a == b:
            assert (a - b).is_zero()


def test_basis_reduction_full_support():
    # sum of all n-th roots of unity is zero for n > 1
    for n in (6, 8, 9, 12):
        s = ZERO
        for e in range(n):
            s = s + root(n, e)
        assert s.is_zero()


def test_order_reduction():
    # zeta_12^3 = i lives in order 4
    a = root(12, 3)
    assert a == root(4, 1)
    assert a.order == 4


def test_serialize_roundtrip():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.choice([5, 8, 12, 21])
        a = _random_elt(rng, n)
        assert deserialize(a.serialize()) == a


def test_from_terms_matches_sum_of_roots():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.choice([1, 2, 4, 8, 9, 12, 27, 30, 60, 84, 1308])
        terms = []
        for _ in range(rng.randrange(0, 8)):
            # exponents outside [0, n) and repeated ones are allowed
            e = rng.randrange(-2 * n, 2 * n)
            c = rng.choice([rng.randrange(-4, 5),
                            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))])
            terms.append((e, c))
        got = Cyclotomic.from_terms(n, terms)
        want = ZERO
        for e, c in terms:
            want = want + root(n, e) * c
        assert got == want
        assert hash(got) == hash(want)
        numeric = sum(complex(c) * cmath.exp(2j * cmath.pi * e / n)
                      for e, c in terms)
        assert abs(approx(got) - numeric) < 1e-9


def test_from_terms_full_orbit_and_order():
    for n in (6, 12, 25, 1308):
        assert Cyclotomic.from_terms(n, [(e, 1) for e in range(n)]).is_zero()
    assert Cyclotomic.from_terms(12, [(3, 1), (15, 1)]) == 2 * root(4, 1)
    assert Cyclotomic.from_terms(12, [(3, 1)]).order == 4
    with pytest.raises(CycloError):
        Cyclotomic.from_terms(0, [])


def _prime_powers(n):
    """[(p, p^a), ...] over the primes p dividing n, by trial division."""
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def test_from_terms_canonical_form_oracle():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randrange(1, 401)
        terms = []
        for _ in range(rng.randrange(0, 9)):
            e = rng.randrange(-2 * n, 2 * n)
            c = rng.choice([rng.randrange(-4, 5),
                            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))])
            terms.append((e, c))
            if rng.random() < 0.3:
                # the same root again, written with a different exponent
                terms.append((e + n * rng.randrange(-2, 3), c))
        got = Cyclotomic.from_terms(n, terms)
        m = got.order
        exps = [e for e, _ in got.terms()]
        assert n % m == 0
        assert exps == sorted(set(exps)) and all(0 <= e < m for e in exps)
        assert all(c for _, c in got.terms())
        for p, q in _prime_powers(m):
            # every q-part is a power-basis exponent of Q(zeta_q) ...
            u = pow(m // q, -1, q)
            assert all(e * u % q < q - q // p for e in exps)
            # ... and the order is minimal
            assert not all(e % p == 0 for e in exps)
        numeric = sum(complex(c) * cmath.exp(2j * cmath.pi * e / n)
                      for e, c in terms)
        assert abs(approx(got) - numeric) < 1e-9
        k = rng.randrange(2, 6)
        assert Cyclotomic.from_terms(k * n, [(k * e, c) for e, c in terms]) \
            == got


@pytest.mark.parametrize("n, terms, doc", [
    (9, [(7, 1)], {"order": 9, "terms": [[1, -1, 1], [4, -1, 1]]}),
    (12, [(5, 1)], {"order": 12, "terms": [[3, 1, 1], [7, 1, 1]]}),
    (16, [(11, 1)], {"order": 16, "terms": [[3, -1, 1]]}),
    (15, [(1, 1), (4, 1)],
     {"order": 15, "terms": [[6, -1, 1], [9, -1, 1], [11, -1, 1],
                             [14, -1, 1]]}),
    (8, [(1, Fraction(1, 2)), (7, Fraction(1, 2))],
     {"order": 8, "terms": [[1, 1, 2], [3, -1, 2]]}),
    (7, [(6, 3), (0, -2)],
     {"order": 7, "terms": [[0, -5, 1], [1, -3, 1], [2, -3, 1], [3, -3, 1],
                            [4, -3, 1], [5, -3, 1]]}),
    (20, [(3, 1), (7, Fraction(-5, 3))],
     {"order": 20, "terms": [[13, -1, 1], [17, 5, 3]]}),
    (36, [(5, 1), (30, 2)],
     {"order": 36, "terms": [[12, -2, 1], [17, -1, 1], [29, -1, 1]]}),
    (24, [(1, 1), (19, 1)],
     {"order": 24, "terms": [[3, -1, 1], [9, -1, 1], [11, -1, 1],
                             [17, -1, 1]]}),
    (105, [(52, 1)], {"order": 105, "terms": [[17, -1, 1], [87, -1, 1]]}),
    (30, [(25, 1), (10, 2), (0, Fraction(1, 4))],
     {"order": 3, "terms": [[0, 1, 4], [1, 1, 1]]}),
    (27, [(20, -1), (26, 4)],
     {"order": 27, "terms": [[2, 1, 1], [8, -4, 1], [11, 1, 1],
                             [17, -4, 1]]}),
])
def test_serialize_frozen(n, terms, doc):
    value = Cyclotomic.from_terms(n, terms)
    assert value.serialize() == doc
    assert deserialize(doc) == value
