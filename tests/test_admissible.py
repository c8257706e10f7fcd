from collections import Counter

import pytest

from smtkit.admissible import AdmissiblePair, WeightPoset
from smtkit.oracle import demazure_character, weyl_dim
from smtkit.rootdata import build_root_system
from smtkit.schubert import schubert_divisors
from smtkit.weyl import WeylGroup
from schubert_reference import all_chains_double, chevalley_multiplicity
from weyl_matrices import MatrixOracle

from test_schubert import classical_weights  # shared sweep helper


# -- a test-local reference: covers and chains from the reflection roots ----


def reference_covers(poset, w):
    """The covers of w with m_lam = <lam, beta^vee>, beta folded along w's word."""
    q, lam = poset.quotient, poset.lam
    return [(d.child, chevalley_multiplicity(q, d.child, w, lam)) for d in schubert_divisors(q, w)]


def saturated_chains(poset, v, w):
    """All saturated chains (w, ..., v) in W^lam, any multiplicities."""
    if v == w:
        yield (w,)
        return
    for d in schubert_divisors(poset.quotient, w):
        if poset.quotient.leq(v, d.child):
            for rest in saturated_chains(poset, v, d.child):
                yield (w,) + rest


def is_double(poset, chain):
    q, lam = poset.quotient, poset.lam
    return all(chevalley_multiplicity(q, b, a, lam) == 2 for a, b in zip(chain, chain[1:]))


def double_chains(poset, v, w):
    return [ch for ch in saturated_chains(poset, v, w) if is_double(poset, ch)]


def test_minuscule_a2_only_trivial_pairs():
    rs = build_root_system("A", 2)
    g = WeylGroup(rs)
    pairs = WeightPoset(g, rs.fundamental_weight(0)).pairs()
    assert len(pairs) == 3 == weyl_dim(rs, rs.fundamental_weight(0))
    assert all(p.v == p.w for p in pairs)
    assert all(p.double_chain == () for p in pairs)


def test_c2_omega2_has_one_nontrivial_pair():
    rs = build_root_system("C", 2)
    g = WeylGroup(rs)
    lam = rs.fundamental_weight(1)
    pairs = WeightPoset(g, lam).pairs()
    assert len(pairs) == 5 == weyl_dim(rs, lam)
    nontrivial = [p for p in pairs if p.v != p.w]
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
    assert all(p.v == p.w for p in pairs)


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
    nontrivial = [p for p in poset.pairs() if p.v != p.w][0]
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
            assert all_chains_double(poset, p.v, p.w)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C2", "C3"])
def test_double_divisor_necessity(label):
    # (v, w) admissible and u a divisor of w with u >= v  =>  mult(u, w) = 2
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    for lam in classical_weights(rs):
        poset = WeightPoset(g, lam)
        for p in poset.pairs():
            if p.v == p.w:
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
        if p.v == p.w:
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
            borel = g.quotient(())
            orbit = borel.orbit(lam)
            images = {orbit[borel.pos[x]] for x in poset.quotient.min_reps}
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
        if p.v == p.w:
            continue
        all_double = double_chains(poset, p.v, p.w)
        key = lambda ch: tuple((x.length, x.word) for x in ch)
        assert p.double_chain == min(all_double, key=key)


REFERENCE_SWEEP = ["A2", "A3", "A4", "B2", "B3", "C2", "C3", "C4", "D4", "G2", "F4", "E6"]
# G2 omega_1 is not of classical type, so G2 runs its classical weights;
# F4 and E6 run one classical fundamental weight each
EXCEPTIONAL_WEIGHTS = {"F4": [3], "E6": [0]}


def reference_sweep(label):
    rs = build_root_system(label[0], int(label[1]))
    if label in EXCEPTIONAL_WEIGHTS:
        return WeylGroup(rs), [rs.fundamental_weight(i) for i in EXCEPTIONAL_WEIGHTS[label]]
    return WeylGroup(rs), classical_weights(rs)


@pytest.mark.parametrize("label", REFERENCE_SWEEP)
def test_covers_match_reflection_root_multiplicities(label):
    g, weights = reference_sweep(label)
    assert weights
    for lam in weights:
        poset = WeightPoset(g, lam)
        for w in poset.quotient.min_reps:
            assert poset.covers[w] == reference_covers(poset, w), (lam, w)


@pytest.mark.parametrize("label", REFERENCE_SWEEP)
def test_all_chains_double_matches_exhaustive_chains(label):
    g, weights = reference_sweep(label)
    for lam in weights:
        poset = WeightPoset(g, lam)
        for p in poset.pairs():
            chains = list(saturated_chains(poset, p.v, p.w))
            assert chains and all(is_double(poset, ch) for ch in chains), (lam, p)
            assert all_chains_double(poset, p.v, p.w), (lam, p)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4"])
def test_all_chains_double_sees_every_chain_cover(label):
    # a cover on any saturated chain of the pair, set to multiplicity 1,
    # must make the check fail
    g, weights = reference_sweep(label)
    for lam in weights:
        poset = WeightPoset(g, lam)
        for p in poset.pairs():
            steps = {(a, b) for ch in saturated_chains(poset, p.v, p.w) for a, b in zip(ch, ch[1:])}
            for a, b in steps:
                saved = poset.covers[a]
                poset.covers[a] = [(c, 1 if c == b else m) for c, m in saved]
                assert not all_chains_double(poset, p.v, p.w), (lam, p, a, b)
                poset.covers[a] = saved


def test_pairs_returns_a_fresh_list():
    rs = build_root_system("C", 3)
    poset = WeightPoset(WeylGroup(rs), rs.fundamental_weight(1))
    first = poset.pairs()
    expected = list(first)
    first.clear()
    assert poset.pairs() == expected
    assert len(expected) == weyl_dim(rs, rs.fundamental_weight(1))


def test_is_admissible_is_false_off_the_quotient():
    rs = build_root_system("C", 2)
    g = WeylGroup(rs)
    poset = WeightPoset(g, rs.fundamental_weight(1))
    s1 = g.simple[0]  # in the stabilizer of omega_2, so not in W^lam
    assert s1 not in poset.quotient
    for w in poset.quotient.min_reps:
        assert poset.is_admissible(s1, w) is False
    # and w off the quotient: on A2 omega_1, s1.s2 is not in W^lam
    a2 = build_root_system("A", 2)
    ga = WeylGroup(a2)
    pos_a2 = WeightPoset(ga, a2.fundamental_weight(0))
    s1s2 = ga.quotient(()).from_word((0, 1))
    assert s1s2 not in pos_a2.quotient
    for v in pos_a2.quotient.min_reps:
        assert pos_a2.is_admissible(v, s1s2) is False


def test_pair_weight_is_checked_on_construction():
    rs = build_root_system("C", 2)
    poset = WeightPoset(WeylGroup(rs), rs.fundamental_weight(1))
    p = poset.pairs()[0]
    with pytest.raises(AssertionError, match="divisibility"):
        AdmissiblePair(p.v, p.w, p.double_chain, (1,) + p.xi2[1:])
    assert AdmissiblePair(p.v, p.w, p.double_chain, p.xi2) == p
    assert "weight" not in repr(p)
