"""galmckay.ntheory against sympy's number theory as an oracle."""

import random

import pytest
import sympy

from galmckay import GalMcKayError
from galmckay.chartab import dixon_prime
from galmckay.ntheory import (
    MR_BOUND, factorint, isprime, primitive_root, sqrt_mod, unit_generators,
    units_generated)
from galmckay.zoo import torus_polynomials


def test_isprime_small():
    assert [isprime(n) for n in range(20001)] == \
        [sympy.isprime(n) for n in range(20001)]


def test_isprime_on_dixon_searches(sz8_table, psl28_table):
    """Every candidate each bundled table's Dixon prime search visits."""
    from galmckay.verify import list_targets, local_model_group

    groups = [sz8_table.group, psl28_table.group]
    groups += [local_model_group(t["family"], t["f"], t["p"])
               for t in list_targets()]
    for G in groups:
        e = G.exponent
        p0 = dixon_prime(e, G.order, at_least=len(G.conjugacy_classes))
        assert sympy.isprime(p0)
        for n in range(e + 1, p0 + 1, e):
            assert isprime(n) == sympy.isprime(n), (G.name, n)


def test_isprime_large_and_beyond_the_bound():
    rng = random.Random(7)
    for n in [rng.randrange(MR_BOUND) | 1 for _ in range(300)] + [
            2 ** 61 - 1, 2 ** 81 - 1, 3825123056546413051,
            318665857834031151167461, MR_BOUND - 2]:
        assert isprime(n) == sympy.isprime(n), n
    for n in (MR_BOUND, MR_BOUND + 2, 2 ** 127 - 1):
        with pytest.raises(GalMcKayError):
            isprime(n)


def test_factorint():
    values = list(range(1, 5001))
    values += [v for f in range(1, 13) for v in torus_polynomials(f).values()]
    rng = random.Random(11)
    values += [rng.randrange(2, 1 << 60) for _ in range(100)]
    values += [1000003 ** 2, 999983 * 1000003, 2 ** 50 - 1]
    for n in values:
        mine = factorint(n)
        assert mine == sympy.factorint(n), n
        assert list(mine) == sorted(mine), n
    with pytest.raises(GalMcKayError):
        factorint(0)


def test_primitive_root_is_smallest():
    for p in sympy.primerange(2, 20000):
        assert primitive_root(p) == sympy.primitive_root(p), p
    with pytest.raises(GalMcKayError):
        primitive_root(15)


def test_sqrt_mod():
    primes = list(sympy.primerange(2, 300)) + [65537, 1000000007]
    for p in primes:
        for a in list(range(min(p, 300))) + [p + 3, 5 * p]:
            r = sqrt_mod(a, p)
            assert (r is None) == (sympy.sqrt_mod(a, p) is None), (a, p)
            if r is not None:
                assert r * r % p == a % p, (a, p, r)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 20, 52, 1308])
def test_unit_generators_generate_the_units(m):
    """Each generator lies outside the subgroup of those before it, and
    together they generate every unit mod m (sympy's totient counts them)."""
    sub = frozenset({1 % m})
    for b in unit_generators(m):
        assert b not in sub
        sub = units_generated(sub, b, m)
    assert len(sub) == sympy.totient(m)
    assert all(sympy.gcd(b, m) == 1 for b in sub)
