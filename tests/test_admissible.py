from collections import Counter

import pytest

from smtkit.admissible import WeightPoset
from smtkit.oracle import demazure_character, weyl_dim
from smtkit.rootdata import build_root_system
from smtkit.schubert import schubert_divisors
from smtkit.weyl import WeylGroup
from weyl_matrices import MatrixOracle

from test_schubert import classical_weights  # shared sweep helper


def test_minuscule_a2_only_trivial_pairs():
    rs = build_root_system("A", 2)
    g = WeylGroup(rs)
    pairs = WeightPoset(g, rs.fundamental_weight(0)).pairs()
    assert len(pairs) == 3 == weyl_dim(rs, rs.fundamental_weight(0))
    assert all(p.is_trivial for p in pairs)
    assert all(p.double_chain == () for p in pairs)


def test_c2_omega2_has_one_nontrivial_pair():
    rs = build_root_system("C", 2)
    g = WeylGroup(rs)
    lam = rs.fundamental_weight(1)
    pairs = WeightPoset(g, lam).pairs()
    assert len(pairs) == 5 == weyl_dim(rs, lam)
    nontrivial = [p for p in pairs if not p.is_trivial]
    assert len(nontrivial) == 1
    (p,) = nontrivial
    assert len(p.double_chain) == 2
    assert p.double_chain[0] == p.w and p.double_chain[-1] == p.v
    # the midpoint weight is integral
    assert p.weight().coords == (0, 0)


def test_b3_spin_all_trivial():
    rs = build_root_system("B", 3)
    g = WeylGroup(rs)
    pairs = WeightPoset(g, rs.fundamental_weight(2)).pairs()
    assert len(pairs) == 8 == weyl_dim(rs, rs.fundamental_weight(2))
    assert all(p.is_trivial for p in pairs)


def test_is_admissible_examples():
    rs = build_root_system("C", 2)
    g = WeylGroup(rs)
    lam = rs.fundamental_weight(1)
    poset = WeightPoset(g, lam)
    for w in poset.quotient.min_reps:
        ok, chain = poset.is_admissible(w, w), poset.witness_chain(w, w)
        assert ok and chain == ()
    # minuscule: no nontrivial admissibility
    a2 = build_root_system("A", 2)
    ga = WeylGroup(a2)
    pos_min = WeightPoset(ga, a2.fundamental_weight(0))
    for w in pos_min.quotient.min_reps:
        for v in pos_min.quotient.min_reps:
            if v != w and pos_min.quotient.leq(v, w):
                assert not pos_min.is_admissible(v, w)
    # the C2 nontrivial pair comes with an explicit length-2 chain
    nontrivial = [p for p in poset.pairs() if not p.is_trivial][0]
    ok = poset.is_admissible(nontrivial.v, nontrivial.w)
    chain = poset.witness_chain(nontrivial.v, nontrivial.w)
    assert ok and len(chain) == 2


def test_rejects_non_classical_weight():
    g2 = build_root_system("G", 2)
    g = WeylGroup(g2)
    with pytest.raises(ValueError):
        WeightPoset(g, g2.fundamental_weight(0)).pairs()


@pytest.mark.parametrize("label", ["A2", "B2", "B3", "C2", "C3"])
def test_all_chains_double_everywhere(label):
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    for lam in classical_weights(rs):
        poset = WeightPoset(g, lam)
        for p in poset.pairs():
            assert poset.all_chains_double(p.v, p.w)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C2", "C3"])
def test_double_divisor_necessity(label):
    # (v, w) admissible and u a divisor of w with u >= v  =>  mult(u, w) = 2
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    for lam in classical_weights(rs):
        poset = WeightPoset(g, lam)
        for p in poset.pairs():
            if p.is_trivial:
                continue
            for child, mult in poset.covers[p.w]:
                if poset.quotient.leq(p.v, child):
                    assert mult == 2


def test_weight_of_trivial_pair_is_negated_extremal():
    rs = build_root_system("C", 2)
    g = WeylGroup(rs)
    lam = rs.fundamental_weight(1)
    oracle = MatrixOracle(g)
    for p in WeightPoset(g, lam).pairs():
        if p.is_trivial:
            assert p.weight().coords == tuple(-c for c in oracle.apply(p.w, lam.coords))


def test_divisibility_holds_on_sweep():
    for label in ["A3", "B3", "C3", "D4"]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        for lam in classical_weights(rs):
            for p in WeightPoset(g, lam).pairs():
                assert all(c % 2 == 0 for c in p.xi2)


def test_extremal_weight_map_is_injective():
    # multiplicity one: x -> x(lam) is injective on W^lam
    for label in ["A3", "C3", "D4"]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        for lam in classical_weights(rs):
            poset = WeightPoset(g, lam)
            orbit = g.orbit(lam)
            images = {orbit[g.from_word(x.word).id] for x in poset.quotient.min_reps}
            assert len(images) == len(poset.quotient.min_reps)


def test_pair_weights_distinct_for_fixed_w():
    rs = build_root_system("C", 3)
    g = WeylGroup(rs)
    for lam in classical_weights(rs):
        by_w = {}
        for p in WeightPoset(g, lam).pairs():
            by_w.setdefault(p.w, []).append(p.weight().coords)
        for w, weights in by_w.items():
            assert len(weights) == len(set(weights))


def test_count_identity_small_sweep():
    for label in ["A2", "B2", "C2"]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        for lam in classical_weights(rs):
            assert len(WeightPoset(g, lam).pairs()) == weyl_dim(rs, lam)


def test_character_identity_small_sweep():
    for label in ["A2", "C2"]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        for lam in classical_weights(rs):
            pairs = WeightPoset(g, lam).pairs()
            neg_xi = Counter(tuple(-c for c in p.weight().coords) for p in pairs)
            assert neg_xi == Counter(demazure_character(rs, g.w_o, lam))


def test_witness_chain_is_lex_least():
    rs = build_root_system("C", 3)
    g = WeylGroup(rs)
    lam = rs.fundamental_weight(1)
    poset = WeightPoset(g, lam)
    for p in poset.pairs():
        if p.is_trivial:
            continue
        all_double = [
            ch
            for ch in poset.saturated_chains(p.v, p.w)
            if all(m == 2 for m in poset.chain_multiplicities(ch))
        ]
        key = lambda ch: tuple((x.length, x.word) for x in ch)
        assert p.double_chain == min(all_double, key=key)
