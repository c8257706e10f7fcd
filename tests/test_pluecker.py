import itertools
import random
from fractions import Fraction

import pytest

from smtkit.oracle import weyl_dim
from smtkit.pluecker import (
    MERSENNE_PRIME,
    RankReport,
    all_indices,
    flag_monomial_evaluate,
    index_leq,
    perm_from_word,
    rank_mod_p,
    relation_residual,
    restriction_table,
    sample_flag_point,
    schubert_point_sample,
    standard_monomials_grassmann,
    straighten,
    verify_hodge_i,
    verify_hodge_iii,
)
from smtkit.pluecker import _minor_poly
from smtkit.rootdata import build_root_system

SEEDS = (1, 2, 3)


def test_index_leq():
    assert index_leq((1, 3), (2, 4))
    assert not index_leq((1, 4), (2, 3))
    assert not index_leq((2, 3), (1, 4))
    assert index_leq((1, 4), (1, 4))
    with pytest.raises(ValueError):
        index_leq((1, 2), (1, 2, 3))


def test_chain_counts_against_brute_force_and_weyl_dim():
    idx = all_indices(2, 4)
    assert len(standard_monomials_grassmann(2, 4, 1)) == len(idx) == 6
    two = sum(1 for I in idx for J in idx if index_leq(I, J))
    assert len(standard_monomials_grassmann(2, 4, 2)) == two == 20
    three = sum(
        1
        for I in idx
        for J in idx
        for K in idx
        if index_leq(I, J) and index_leq(J, K)
    )
    assert len(standard_monomials_grassmann(2, 4, 3)) == three == 50
    a3 = build_root_system("A", 3)
    assert len(standard_monomials_grassmann(2, 4, 2)) == weyl_dim(a3, a3.weight((0, 2, 0)))
    assert len(standard_monomials_grassmann(2, 4, 3)) == weyl_dim(a3, a3.weight((0, 3, 0)))
    a4 = build_root_system("A", 4)
    assert len(standard_monomials_grassmann(2, 5, 2)) == weyl_dim(a4, a4.weight((0, 2, 0, 0)))


def test_chains_lexicographic_and_degree_zero():
    chains = standard_monomials_grassmann(2, 4, 2)
    assert chains == sorted(chains)
    assert standard_monomials_grassmann(2, 4, 0) == [()]


def test_classic_straightening_relation():
    rel = straighten((1, 4), (2, 3), 2, 4)
    assert dict((pair, c) for c, pair in rel.rhs) == {
        ((1, 3), (2, 4)): 1,
        ((1, 2), (3, 4)): -1,
    }
    assert relation_residual(rel) == {}


def test_straighten_rejects_standard_pairs():
    with pytest.raises(ValueError):
        straighten((1, 3), (2, 4), 2, 4)
    with pytest.raises(ValueError):
        straighten((1, 2), (1, 2), 2, 4)


@pytest.mark.parametrize("r,n", [(2, 4), (2, 5)])
def test_exhaustive_straightening(r, n):
    nonstandard = [
        (I, J)
        for I, J in itertools.combinations(all_indices(r, n), 2)
        if not index_leq(I, J) and not index_leq(J, I)
    ]
    assert nonstandard
    for I, J in nonstandard:
        rel = straighten(I, J, r, n)
        assert relation_residual(rel) == {}
        for c, (I2, J2) in rel.rhs:
            assert index_leq(I2, J2)
            assert index_leq(I2, I) and index_leq(J, J2)


def test_straighten_either_input_order():
    # an incomparable pair may arrive in either order; the order condition
    # holds relative to the arguments as given
    for I, J in [((1, 4), (2, 3)), ((2, 3), (1, 4))]:
        rel = straighten(I, J, 2, 4)
        assert relation_residual(rel) == {}
        for _c, (I2, J2) in rel.rhs:
            assert index_leq(I2, I) and index_leq(J, J2)


def test_gr36_straightening():
    rel = straighten((1, 4, 5), (2, 3, 6), 3, 6)
    assert len(rel.rhs) >= 3
    assert relation_residual(rel) == {}
    for _c, (I2, J2) in rel.rhs:
        assert index_leq(I2, (1, 4, 5)) and index_leq((2, 3, 6), J2)


def test_degree_two_standard_monomials_linearly_independent():
    # exact nullspace over Q of the coefficient matrix is zero
    r, n = 2, 4
    pairs = [
        (I, J)
        for I in all_indices(r, n)
        for J in all_indices(r, n)
        if index_leq(I, J)
    ]
    polys = [
        _mul(_minor_poly(I, r, n), _minor_poly(J, r, n)) for I, J in pairs
    ]
    monomials = sorted({m for p in polys for m in p})
    rows = [[Fraction(p.get(m, 0)) for p in polys] for m in monomials]
    assert _rank_q(rows) == len(pairs)


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            k = tuple(x + y for x, y in zip(ma, mb))
            out[k] = out.get(k, 0) + ca * cb
            if not out[k]:
                del out[k]
    return out


def _rank_q(rows):
    rows = [row[:] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_base_point_sample():
    rng = random.Random(0)
    pt = schubert_point_sample((1, 2), 2, 4, rng)
    vals = {J: pt.plucker(J) for J in all_indices(2, 4)}
    assert vals[(1, 2)] != 0
    assert all(v == 0 for J, v in vals.items() if J != (1, 2))


def test_prime_floor():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        schubert_point_sample((1, 2), 2, 4, rng, prime=101)


@pytest.mark.parametrize("r,n", [(2, 4), (2, 5)])
def test_restriction_criterion(r, n):
    table = restriction_table(r, n, seeds=SEEDS, num_samples=5)
    for (I, J), observed in table.items():
        assert observed == index_leq(J, I)


def test_opposite_restriction_criterion():
    # p_J on X^I is nonzero iff J >= I (the longest-element twist)
    r, n = 2, 4
    for I in all_indices(r, n):
        hits = {J: False for J in all_indices(r, n)}
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(5):
                pt = schubert_point_sample(I, r, n, rng, opposite=True)
                for J in all_indices(r, n):
                    if pt.plucker(J):
                        hits[J] = True
        for J in all_indices(r, n):
            assert hits[J] == index_leq(I, J)


@pytest.mark.parametrize("m,count", [(1, 6), (2, 20), (3, 50)])
def test_hodge_i_rank(m, count):
    rep = verify_hodge_i(2, 4, m, seeds=SEEDS)
    assert rep.expected_rank == count
    assert rep.passed


def test_hodge_iii_all_schuberts():
    for I in all_indices(2, 4):
        for m in (1, 2):
            rep = verify_hodge_iii(I, 2, 4, m, seeds=SEEDS)
            assert rep.passed, (I, m, rep)


# RankReport of verify_hodge_iii(I, 2, 5, 2, seeds=(4,)) on every X_I of
# Gr(2,5): the expected rank (standard chains on X_I), reached by the seed.
GR25_DEGREE2_RANKS = {
    (1, 2): 1, (1, 3): 3, (1, 4): 6, (1, 5): 10, (2, 3): 6,
    (2, 4): 14, (2, 5): 25, (3, 4): 20, (3, 5): 40, (4, 5): 50,
}


def test_hodge_iii_reports_gr25_degree2():
    for I in all_indices(2, 5):
        k = GR25_DEGREE2_RANKS[I]
        assert verify_hodge_iii(I, 2, 5, 2, seeds=(4,)) == RankReport(True, k, ((4, k),), True)


def test_point_schubert_variety_has_rank_one():
    rep = verify_hodge_iii((1, 2), 2, 4, 2, seeds=SEEDS)
    assert rep.expected_rank == 1 and rep.passed


def test_evaluation_rank_on_forty_samples():
    chains = standard_monomials_grassmann(2, 4, 2)
    rng = random.Random(7)
    pts = [schubert_point_sample((3, 4), 2, 4, rng) for _ in range(40)]
    matrix = [[pt.chain_value(ch) for ch in chains] for pt in pts]
    assert rank_mod_p(matrix, MERSENNE_PRIME) == 20


def test_flag_extremal_nonzero_on_own_schubert():
    # p_{x(omega_i)} restricted to X_x never vanishes identically
    n = 3
    for word in [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]:
        perm = perm_from_word(word, n)
        rng = random.Random(5)
        g = sample_flag_point(word, n, rng)
        for i in (1, 2):
            assert flag_monomial_evaluate(g, [(perm, i)]) != 0


def test_flag_remark_counterexample_nonzero():
    # the SL(3) monomial that is not standard on X_{s2s1} still evaluates
    # nonzero there (on at least one sample per seed, in fact on all)
    p_s1 = perm_from_word((0,), 3)
    p_s2 = perm_from_word((1,), 3)
    for seed in SEEDS:
        rng = random.Random(seed)
        hits = 0
        for _ in range(20):
            g = sample_flag_point((1, 0), 3, rng)
            if flag_monomial_evaluate(g, [(p_s1, 1), (p_s2, 2)]):
                hits += 1
        assert hits >= 1


def test_flag_vanishing_direction():
    # an extremal factor whose class fails the interval criterion vanishes
    # identically: p_{w_o(omega_1)} on X_{s1}
    p_w0 = perm_from_word((0, 1, 0), 3)
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(20):
            g = sample_flag_point((0,), 3, rng)
            assert flag_monomial_evaluate(g, [(p_w0, 1)]) == 0
