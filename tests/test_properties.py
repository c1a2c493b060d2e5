"""Property tests: CharacterTable.validate on the tables of random
permutation groups, against the all-pairs orthogonality oracle."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from galmckay.chartab import (
    CharacterTable, ChartabError, ClassFunction, dixon_schneider,
)
from galmckay.groups import FiniteGroup
from oracles import root, validate_all_pairs

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
