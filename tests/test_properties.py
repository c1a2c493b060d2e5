"""Property tests: CharacterTable.validate on the tables of random
permutation groups, against the all-pairs orthogonality oracle, and the
ring laws of cyclotomics of mixed orders, against their complex values."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, dixon_schneider,
)
from galmckay.cyclo import ZERO, Cyclotomic
from galmckay.groups import FiniteGroup
from oracles import approx, root, validate_all_pairs

# derandomized, so that every run draws the same groups
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def two_generator_groups(draw):
    """The subgroup of S_n, n <= 7, generated by two random permutations."""
    n = draw(st.integers(2, 7))
    gens = [tuple(draw(st.permutations(range(n)))) for _ in range(2)]
    return FiniteGroup(n, gens, name="G")


@PROPERTY
@given(two_generator_groups())
def test_validate_accepts_the_dixon_schneider_table(G):
    t = dixon_schneider(G)
    assert t.validated and validate_all_pairs(t)
    fresh = CharacterTable(G, t.rows)
    assert fresh.validate() and fresh.validated


@PROPERTY
@given(two_generator_groups(), st.data())
def test_validate_rejects_one_perturbed_value(G, data):
    """A nonzero value at a non-identity class shifted by 1/2 or multiplied
    by a nontrivial root of unity of the class's element order: validate
    and the oracle both reject the table."""
    t = dixon_schneider(G)
    assume(len(t.classes) > 1)
    i, k = data.draw(st.sampled_from(
        [(i, k) for i, row in enumerate(t.rows)
         for k in range(1, len(t.classes)) if not row.values[k].is_zero()]))
    v = t.rows[i].values[k]
    o = t.classes[k].element_order
    if o > 1 and data.draw(st.booleans()):
        v = v * root(o, data.draw(st.integers(1, o - 1)))
    else:
        v = v + Fraction(1, 2)
    vals = list(t.rows[i].values)
    vals[k] = v
    rows = list(t.rows)
    rows[i] = ClassFunction(G, vals)
    bad = CharacterTable(G, rows)
    with pytest.raises(ChartabError):
        validate_all_pairs(bad)
    with pytest.raises(ChartabError):
        bad.validate()


# orders with one, two and three prime factors, some not squarefree, so
# that sums and products reduce over a basis of a larger common order
ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24, 28, 30)


@st.composite
def cyclotomics(draw):
    """A sum of one to five small nonzero rational multiples of n-th roots
    of unity, n drawn from ORDERS."""
    n = draw(st.sampled_from(ORDERS))
    terms = draw(st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.fractions(-4, 4, max_denominator=3).filter(bool)),
        min_size=1, max_size=5))
    return Cyclotomic.from_terms(n, terms)


def close(z, w):
    return abs(z - w) <= 1e-9 * max(1.0, abs(z), abs(w))


@PROPERTY
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_cyclotomic_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero() and a - a == ZERO


@PROPERTY
@given(cyclotomics(), cyclotomics())
def test_cyclotomic_arithmetic_matches_complex_values(a, b):
    assert close(approx(a + b), approx(a) + approx(b))
    assert close(approx(a * b), approx(a) * approx(b))


@PROPERTY
@given(cyclotomics(), cyclotomics(), st.data())
def test_galois_is_a_ring_homomorphism(a, b, data):
    """sigma_u for a unit u mod the common order of a and b."""
    n = lcm(a.order, b.order)
    u = data.draw(st.sampled_from(
        [u for u in range(1, n + 1) if gcd(u, n) == 1]))
    assert (a + b).galois(u) == a.galois(u) + b.galois(u)
    assert (a * b).galois(u) == a.galois(u) * b.galois(u)
