from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from smtkit.oracle import (
    char_monomial,
    demazure_apply,
    demazure_character,
    demazure_character_along,
    mass,
    weyl_dim,
)
from smtkit.rootdata import build_root_system
from smtkit.weyl import WeylGroup
from weyl_matrices import MatrixOracle, reduced_words

A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
B3 = build_root_system("B", 3)


def test_weyl_dim_anchors():
    assert weyl_dim(A2, A2.weight((0, 0))) == 1
    assert weyl_dim(A2, A2.fundamental_weight(0)) == 3
    assert weyl_dim(A2, A2.weight((1, 1))) == 8
    assert weyl_dim(C2, C2.fundamental_weight(1)) == 5
    assert weyl_dim(C2, C2.fundamental_weight(0)) == 4
    assert weyl_dim(B3, B3.fundamental_weight(2)) == 8
    a3 = build_root_system("A", 3)
    assert weyl_dim(a3, a3.weight((0, 2, 0))) == 20
    assert weyl_dim(a3, a3.weight((0, 3, 0))) == 50


def test_weyl_dim_requires_dominant():
    with pytest.raises(ValueError):
        weyl_dim(A2, A2.weight((-1, 0)))


def test_demazure_monomial_rules():
    # <mu, alpha^vee> = 0: fixed
    assert demazure_apply(A2, 0, {(0, 3): 1}) == {(0, 3): 1}
    # <mu, alpha^vee> = -1: killed
    assert demazure_apply(A2, 0, {(-1, 2): 1}) == {}
    # <mu, alpha^vee> = 1: a two-term string
    assert demazure_apply(A2, 0, {(1, 0): 1}) == {(1, 0): 1, (-1, 1): 1}
    # <mu, alpha^vee> = -2: one negative term
    assert demazure_apply(A2, 0, {(-2, 1): 1}) == {(0, 0): -1}


characters = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-2, 2).filter(bool),
    max_size=5,
)


@settings(max_examples=60)
@given(c=characters, i=st.integers(0, 1))
def test_demazure_idempotent(c, i):
    once = demazure_apply(A2, i, c)
    assert demazure_apply(A2, i, once) == once


def test_demazure_character_anchors():
    g = WeylGroup(A2)
    lam = A2.fundamental_weight(0)
    assert demazure_character(A2, g.identity, lam) == char_monomial(lam)
    assert demazure_character(A2, g.simple[0], lam) == {(1, 0): 1, (-1, 1): 1}
    full = demazure_character(A2, g.w_o, lam)
    assert mass(full) == 3
    assert full == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


def test_full_character_mass_equals_weyl_dim():
    for rs in (A2, C2, B3):
        g = WeylGroup(rs)
        sweep = [rs.fundamental_weight(i) for i in range(rs.rank)]
        sweep.append(rs.weight((1,) * rs.rank))
        for lam in sweep:
            assert mass(demazure_character(rs, g.w_o, lam)) == weyl_dim(rs, lam)


def test_reduced_word_independence():
    for rs in (A2, C2):
        g = WeylGroup(rs)
        lam = rs.weight((1,) * rs.rank)
        for el in g.elements:
            results = {
                tuple(sorted(demazure_character_along(rs, w, lam).items()))
                for w in reduced_words(g, el)
            }
            assert len(results) == 1


def test_non_reduced_word_rejected():
    with pytest.raises(ValueError):
        demazure_character_along(A2, (0, 0), A2.fundamental_weight(0))
    with pytest.raises(ValueError):
        demazure_character_along(A2, (0, 1, 0, 1), A2.fundamental_weight(0))


def test_full_character_is_weyl_invariant():
    g = WeylGroup(C2)
    oracle = MatrixOracle(g)
    lam = C2.weight((1, 1))
    full = demazure_character(C2, g.w_o, lam)
    for s in g.simple:
        image = Counter()
        for mu, m in full.items():
            image[oracle.apply(s, mu)] += m
        assert image == Counter(full)


def test_mass_monotone_along_covers():
    for rs in (A2, C2):
        g = WeylGroup(rs)
        lam = rs.weight((1,) * rs.rank)
        masses = {w: mass(demazure_character(rs, w, lam)) for w in g.elements}
        for w in g.elements:
            for v in g.elements:
                if v.length == w.length - 1 and g.leq(v, w):
                    assert masses[v] <= masses[w]
