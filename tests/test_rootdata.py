from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from smtkit.admissible import WeightPoset
from smtkit.oracle import demazure_character, weyl_dim
from smtkit.rootdata import (
    Root,
    Weight,
    build_root_system,
    is_classical_type,
    max_pairing,
    pairing,
    parse_cartan_type,
    rho,
)
from smtkit.smt import StandardContext
from smtkit.weyl import WeylGroup

COUNT_FORMULAS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 3): 6,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 2): 4,
    ("C", 3): 9,
    ("D", 4): 12,
    ("G", 2): 6,
    ("F", 4): 24,
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}


@pytest.mark.parametrize("family,rank", sorted(COUNT_FORMULAS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == COUNT_FORMULAS[(family, rank)]


def test_c2_positive_roots_by_closure():
    rs = build_root_system("C", 2)
    coords = {r.coords for r in rs.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_roots_never_mix_signs():
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = parse_cartan_type(label)
        for r in rs.positive_roots:
            assert all(c >= 0 for c in r.coords)
            assert all(c <= 0 for c in (-r).coords)


def test_cartan_matrix_shape():
    for label in ["A2", "B3", "C3", "D4", "G2", "F4", "E6"]:
        rs = parse_cartan_type(label)
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            for j in range(rs.rank):
                if i != j:
                    assert rs.cartan[i][j] <= 0


def test_invalid_types():
    with pytest.raises(ValueError):
        build_root_system("H", 3)
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        build_root_system("E", 5)
    with pytest.raises(ValueError):
        build_root_system("A", 9)  # default rank cap


def test_pairing_fundamental_vs_simple_is_kronecker():
    for label in ["A3", "B3", "C3", "G2"]:
        rs = parse_cartan_type(label)
        for i in range(rs.rank):
            for j, alpha in enumerate(rs.simple_roots):
                assert pairing(rs, rs.fundamental_weight(i), alpha) == (i == j)


def test_rho_pairs_to_one_on_simples():
    rs = build_root_system("D", 4)
    for alpha in rs.simple_roots:
        assert pairing(rs, rho(rs), alpha) == 1


def test_a2_pairing_with_highest_root():
    rs = build_root_system("A", 2)
    theta = next(r for r in rs.positive_roots if r.height == 2)
    assert pairing(rs, rs.fundamental_weight(0), theta) == 1


def test_negative_root_pairing():
    rs = build_root_system("A", 2)
    theta = next(r for r in rs.positive_roots if r.height == 2)
    assert pairing(rs, rs.fundamental_weight(0), -theta) == -1


def test_pairing_rejects_non_roots():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        pairing(rs, rs.fundamental_weight(0), Root.from_coords((1, -1)))


def test_classical_type_fundamentals():
    a3 = build_root_system("A", 3)
    for i in range(3):
        assert is_classical_type(a3, a3.fundamental_weight(i))
    g2 = build_root_system("G", 2)
    # alpha_1 is the long simple root in our G2 table; its fundamental weight
    # hits a pairing of 3 against the coroot of the highest short root
    assert not is_classical_type(g2, g2.fundamental_weight(0))
    assert max_pairing(g2, g2.fundamental_weight(0)) == 3
    assert is_classical_type(g2, g2.weight((0, 0)))


def test_classical_iff_group_classical_remark():
    for label in ["A3", "B3", "C3", "D4"]:
        rs = parse_cartan_type(label)
        assert all(
            is_classical_type(rs, rs.fundamental_weight(i)) for i in range(rs.rank)
        )
    for label in ["G2", "F4", "E8"]:
        rs = parse_cartan_type(label)
        assert any(
            not is_classical_type(rs, rs.fundamental_weight(i))
            for i in range(rs.rank)
        )


def test_classical_type_requires_dominant():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        is_classical_type(rs, rs.weight((-1, 0)))


def test_simple_reflection_permutes_other_positives():
    for label in ["A3", "B2", "C3", "G2"]:
        rs = parse_cartan_type(label)
        positives = set(rs.positive_roots)
        for i, alpha in enumerate(rs.simple_roots):
            images = set()
            for beta in positives:
                c = list(beta.coords)
                ci = sum(rs.cartan[i][j] * c[j] for j in range(rs.rank))
                c[i] -= ci
                images.add(Root.from_coords(tuple(c)))
            assert images - {-alpha} == positives - {alpha}


@given(st.data())
def test_pairing_additive_in_weight(data):
    rs = build_root_system("B", 3)
    coords = st.tuples(*(st.integers(-4, 4) for _ in range(3)))
    lam = Weight(data.draw(coords))
    mu = Weight(data.draw(coords))
    beta = data.draw(st.sampled_from(rs.positive_roots))
    assert pairing(rs, lam + mu, beta) == pairing(rs, lam, beta) + pairing(rs, mu, beta)


def test_coroot_normalization_never_leaks():
    # 2 beta / (beta, beta) computed through the dual closure must satisfy
    # <beta, beta^vee> = 2 for every root
    for label in ["A2", "B3", "C3", "G2", "F4"]:
        rs = parse_cartan_type(label)
        for beta in rs.positive_roots:
            f = rs.root_in_weight_coords(beta)
            assert sum(a * b for a, b in zip(f, rs.coroot(beta))) == 2


@pytest.mark.parametrize("coords", [(1, 0), (1, 0, 0, 1)])
def test_weight_with_wrong_number_of_coordinates_rejected(coords):
    a3 = build_root_system("A", 3)
    g = WeylGroup(a3)
    lam = Weight(coords)
    with pytest.raises(ValueError):
        weyl_dim(a3, lam)
    with pytest.raises(ValueError):
        is_classical_type(a3, lam)
    with pytest.raises(ValueError):
        demazure_character(a3, g.w_o, lam)
    with pytest.raises(ValueError):
        WeightPoset(g, lam)
    with pytest.raises(ValueError):
        StandardContext(g, (), (lam,))
    with pytest.raises(ValueError):
        g.quotient(()).orbit(lam)
