import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest

from smtkit.oracle import weyl_dim
from smtkit.pluecker import (
    MERSENNE_PRIME,
    PointSample,
    RankReport,
    all_indices,
    extremal_minor,
    flag_monomial_evaluate,
    index_leq,
    perm_from_word,
    rank_mod_p,
    relation_residual,
    sample_flag_point,
    schubert_point_sample,
    standard_chain_count,
    standard_monomials_grassmann,
    straighten,
    verify_hodge_i,
    verify_hodge_iii,
)
from smtkit.pluecker import (
    _grassmann_word,
    _group_element_along,
    _minor_terms,
    _product,
    _reduced_word_of_perm,
)
from smtkit.rootdata import build_root_system
from pluecker_reference import eager_hodge_report, restriction_table

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


@pytest.mark.parametrize("r,n", [(2, 5), (3, 6)])
def test_cached_minors_give_the_uncached_relations_twice(monkeypatch, r, n):
    # every caller shares the terms that _minor_terms caches, so a cache
    # keyed or filled wrongly would corrupt the runs after it: run everything twice
    import smtkit.pluecker as pl

    nonstandard = [
        (I, J)
        for I, J in itertools.combinations(all_indices(r, n), 2)
        if not index_leq(I, J) and not index_leq(J, I)
    ]

    def run():
        out = []
        for I, J in nonstandard:
            rel = straighten(I, J, r, n)
            out.append((rel, relation_residual(rel)))
        return out

    with monkeypatch.context() as m:
        m.setattr(pl, "_minor_terms", pl._minor_terms.__wrapped__)
        want = run()
    assert all(res == {} for _rel, res in want)
    assert run() == want
    assert run() == want


def test_straighten_raises_when_the_leading_monomial_survives(monkeypatch):
    # a minor that lost its leading term breaks unit-triangularity: the
    # decoded product no longer cancels the residual's leading monomial, and
    # straighten must raise instead of subtracting it forever
    import signal

    import smtkit.pluecker as pl

    uncached = pl._minor_terms.__wrapped__

    def broken(I, r):
        terms = uncached(I, r)
        if I == (1, 3):
            # the diagonal term picks the least columns, row by row
            terms = tuple(t for t in terms if t != min(terms))
        return terms

    def timeout(_signum, _frame):
        raise TimeoutError("straighten did not return within 10 s")

    monkeypatch.setattr(pl, "_minor_terms", broken)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(AssertionError, match="does not cancel the leading monomial"):
            straighten((1, 4), (2, 3), 2, 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_degree_two_standard_monomials_linearly_independent():
    # exact nullspace over Q of the coefficient matrix is zero
    r, n = 2, 4
    pairs = [
        (I, J)
        for I in all_indices(r, n)
        for J in all_indices(r, n)
        if index_leq(I, J)
    ]
    polys = [_product(I, J, r) for I, J in pairs]
    monomials = sorted({m for p in polys for m in p})
    rows = [[Fraction(p.get(m, 0)) for p in polys] for m in monomials]
    assert _rank_q(rows) == len(pairs)


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


def test_stale_positional_prime_is_a_type_error():
    # the field is fixed, and opposite is keyword-only: a fifth positional
    # argument must not be read as opposite=True
    with pytest.raises(TypeError):
        schubert_point_sample((1, 2), 2, 4, random.Random(0), MERSENNE_PRIME)


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


# ---------------------------------------------------------------------------
# differential tests: sampling, minors and rank against the Gaussian forms
# ---------------------------------------------------------------------------


def _oracle_det_mod(rows, p):
    """Determinant over F_p by Gaussian elimination with a pivot inverse."""
    m = [row[:] for row in rows]
    k = len(m)
    det = 1
    for col in range(k):
        piv = next((i for i in range(col, k) if m[i][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for i in range(col + 1, k):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[col])]
    return det % p


def _oracle_mat_mul_mod(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def _oracle_group_element_along(word, ts, n, p):
    """prod_j u_{i_j}(t_j) s_{i_j} as a product of full matrices."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for j, t in zip(word, ts):
        f = [[int(i == k) for k in range(n)] for i in range(n)]
        f[j][j], f[j][j + 1], f[j + 1][j], f[j + 1][j + 1] = t % p, p - 1, 1, 0
        g = _oracle_mat_mul_mod(g, f, p)
    return g


def _oracle_rank_mod_p(rows, p):
    """Rank over F_p by column elimination over all rows."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


GRASSMANNIANS_UP_TO_7 = [(r, n) for n in range(2, 8) for r in range(1, n)]


@pytest.mark.parametrize("r,n", GRASSMANNIANS_UP_TO_7)
def test_sample_coords_equal_gaussian_minors(r, n):
    rng = random.Random(100 * n + r)
    for I in all_indices(r, n):
        for opposite in (False, True):
            pt = schubert_point_sample(I, r, n, rng, opposite=opposite)
            assert set(pt.coords) == set(all_indices(r, n))
            # the sampled slab has rank r, so no sample needs a redraw
            assert any(pt.coords.values()), (I, opposite)
            for J in all_indices(r, n):
                want = _oracle_det_mod([list(pt.matrix[j - 1]) for j in J], MERSENNE_PRIME)
                assert pt.coords[J] == want == pt.plucker(J), (I, opposite, J)


@pytest.mark.parametrize("n", range(2, 8))
def test_column_update_sampling_equals_block_products(n):
    rng = random.Random(n)
    for length in (0, 1, 5, 20):
        word = [rng.randrange(n - 1) for _ in range(length)]
        ts = [rng.randrange(1, MERSENNE_PRIME) for _ in word]
        assert _group_element_along(word, ts, n) == _oracle_group_element_along(
            word, ts, n, MERSENNE_PRIME
        )


@pytest.mark.parametrize("n", range(2, 7))
def test_slab_sampling_equals_leading_columns_of_full_product(n):
    rng = random.Random(50 + n)
    for r in range(1, n):
        for I in all_indices(r, n):
            word = _grassmann_word(I, n)
            ts = [rng.randrange(1, MERSENNE_PRIME) for _ in word]
            full = _oracle_group_element_along(word, ts, n, MERSENNE_PRIME)
            slab = _group_element_along(word, ts, n, r)
            assert slab == [row[:r] for row in full], (I, word)


def test_extremal_minor_equals_gaussian_minor():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for perm in itertools.permutations(range(1, n + 1)):
            g = sample_flag_point(_reduced_word_of_perm(perm), n, rng)
            for i in range(n + 1):
                sub = [g[a - 1][:i] for a in sorted(perm[:i])]
                assert extremal_minor(g, perm, i) == _oracle_det_mod(sub, MERSENNE_PRIME)


# sha256 of repr((r, n, I, J, rhs)) over the non-standard pairs of each
# Grassmannian in STRAIGHTENING_ORACLE_CASES, in combinations order
STRAIGHTENING_ORACLE_CASES = [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]
STRAIGHTENING_DIGEST = "fe38a4b07422a8c29da02818d2a8889561ef3ff12791bed53cce3a2c9128ede7"


def test_relations_vanish_at_random_matrices_and_keep_their_digest():
    # p_I p_J - rhs is a nonzero polynomial of degree 2r unless the relation
    # is exact, so it is nonzero at a random point of F_p^{r x n} with
    # probability at least 1 - 2r/p; the minors come from Gaussian
    # elimination, not from the symbolic layer
    p = MERSENNE_PRIME
    digest = hashlib.sha256()
    for r, n in STRAIGHTENING_ORACLE_CASES:
        rng = random.Random(1000 * r + n)
        points = []
        for _ in range(3):
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
            points.append({J: _oracle_det_mod([[row[j - 1] for j in J] for row in m], p)
                           for J in all_indices(r, n)})
        for I, J in itertools.combinations(all_indices(r, n), 2):
            if index_leq(I, J) or index_leq(J, I):
                continue
            rel = straighten(I, J, r, n)
            digest.update(repr((r, n, I, J, rel.rhs)).encode())
            for x in points:
                rhs = sum(c * x[I2] * x[J2] for c, (I2, J2) in rel.rhs)
                assert (x[I] * x[J] - rhs) % p == 0, (I, J, rel.rhs)
    assert digest.hexdigest() == STRAIGHTENING_DIGEST


def _planted_rank_matrix(rng, rows, cols, rank, p):
    """rows x cols of rank min(rank, rows, cols) over F_p (with high probability)."""
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]


@pytest.mark.parametrize("p", [MERSENNE_PRIME, 7])
def test_rank_equals_column_elimination(p):
    rng = random.Random(11)
    shapes = [(1, 1), (3, 8), (8, 3), (6, 6), (12, 12), (20, 9), (9, 20), (30, 30)]
    for rows, cols in shapes:
        for rank in range(0, min(rows, cols) + 2):
            m = _planted_rank_matrix(rng, rows, cols, rank, p)
            # the same classes mod p, shifted out of 0..p-1
            shifted = [[x + p * rng.randrange(-3, 4) for x in row] for row in m]
            want = _oracle_rank_mod_p(m, p)
            assert rank_mod_p(m, p) == want == _oracle_rank_mod_p(shifted, p)
            assert rank_mod_p(shifted, p) == want
            if p == MERSENNE_PRIME:
                assert want == min(rank, rows, cols)


def test_rank_edge_cases():
    p = MERSENNE_PRIME
    assert rank_mod_p([], p) == 0
    assert rank_mod_p([[0, 0, 0]] * 4, p) == 0
    assert rank_mod_p([[p, -p, 2 * p]], p) == 0
    assert rank_mod_p([[-1, 0], [0, p + 1]], p) == 2
    # a repeated row, then rows past full rank
    rows = [[1, 2, 3], [1, 2, 3], [0, 1, 1], [4, 5, 6], [7, 8, 10]]
    assert rank_mod_p(rows, p) == _oracle_rank_mod_p(rows, p) == 3
    # a pivot left of an earlier one: reduction must go by pivot order
    assert rank_mod_p([[0, 1, 0], [1, 1, 0], [1, 1, 0]], p) == 2


@pytest.mark.parametrize("p", [MERSENNE_PRIME, 5])
def test_rank_equals_column_elimination_on_sparse_rows(p):
    # mostly-zero rows put pivots out of order
    rng = random.Random(12)
    for rows, cols in [(4, 4), (6, 9), (9, 6), (12, 12)] * 10:
        m = [[rng.randrange(-p, 2 * p) if rng.random() < 0.3 else 0 for _ in range(cols)]
             for _ in range(rows)]
        assert rank_mod_p(m, p) == _oracle_rank_mod_p(m, p)


def test_point_sample_hashable_and_equal_by_matrix():
    a = schubert_point_sample((2, 4), 2, 4, random.Random(1))
    b = schubert_point_sample((2, 4), 2, 4, random.Random(1))
    c = schubert_point_sample((2, 4), 2, 4, random.Random(2))
    assert a == b and hash(a) == hash(b) and a != c
    assert a.coords is not b.coords
    keys = {(a, (1, 2)), (b, (1, 2)), (c, (1, 2))}
    assert len(keys) == 2
    assert PointSample(a.r, a.n, a.matrix) == a
    assert "coords" not in repr(a)


def test_plucker_accepts_lists_and_rejects_bad_indices():
    pt = schubert_point_sample((3, 4), 2, 4, random.Random(5))
    assert pt.plucker([1, 3]) == pt.plucker((1, 3)) == pt.coords[(1, 3)]
    want = pt.coords[(1, 3)] * pt.coords[(2, 4)] % MERSENNE_PRIME
    assert pt.chain_value([[1, 3], (2, 4)]) == want
    for bad in [(1,), (1, 2, 3), (0, 2), (3, 2), (2, 2), (1, 5)]:
        with pytest.raises(ValueError):
            pt.plucker(bad)
        with pytest.raises(ValueError):
            pt.chain_value([(1, 2), bad])


@pytest.mark.parametrize(
    "bad, fault",
    [
        ((1, 2, 3), "does not have 2 entries"),
        ((0, 2), "has an entry outside 1..4"),
        ((1, 5), "has an entry outside 1..4"),
        ((3, 2), "is not strictly increasing"),
        ((2, 2), "is not strictly increasing"),
    ],
)
def test_bad_indices_name_their_fault(bad, fault):
    with pytest.raises(ValueError, match=f"^{re.escape(f'index {bad} {fault}')}$"):
        straighten(bad, (2, 3), 2, 4)


@pytest.mark.parametrize("n", range(2, 8))
def test_chain_count_equals_enumeration(n):
    for r in range(1, n):
        for m in range(0, 4):
            assert standard_chain_count(r, n, m) == len(standard_monomials_grassmann(r, n, m))
    with pytest.raises(ValueError):
        standard_chain_count(n, n, 1)
    with pytest.raises(ValueError):
        standard_chain_count(1, n, -1)


@pytest.mark.parametrize("r,n,m", [(3, 6, 2), (2, 5, 3)])
def test_hodge_i_at_175_chains(r, n, m):
    a = build_root_system("A", n - 1)
    coords = [0] * (n - 1)
    coords[r - 1] = m
    rep = verify_hodge_i(r, n, m, seeds=(1,))
    assert rep.passed
    assert rep.expected_rank == weyl_dim(a, a.weight(tuple(coords))) == 175
    assert rep.ranks_by_seed == ((1, 175),)


# (r, n, m) of the Hodge-I checks that the benchmark's hodge workload runs
HODGE_DEGREES = [(2, 5, 2), (2, 4, 3), (3, 6, 1), (2, 6, 1)]


@pytest.mark.parametrize("I", all_indices(2, 5))
def test_hodge_iii_equals_eager_reference_on_gr25(I):
    for num_samples in (None, 3):
        rep = verify_hodge_iii(I, 2, 5, 2, seeds=SEEDS, num_samples=num_samples)
        assert rep == eager_hodge_report(I, 2, 5, 2, seeds=SEEDS, num_samples=num_samples)


@pytest.mark.parametrize("r,n,m", HODGE_DEGREES)
def test_hodge_i_equals_eager_reference(r, n, m):
    top = tuple(range(n - r + 1, n + 1))
    rep = verify_hodge_i(r, n, m, seeds=SEEDS)
    assert rep == eager_hodge_report(top, r, n, m, seeds=SEEDS)
    assert rep.passed
    # fewer points than chains: the rank falls short and every row is read
    few = rep.expected_rank - 1
    short = verify_hodge_i(r, n, m, seeds=SEEDS, num_samples=few)
    assert short == eager_hodge_report(top, r, n, m, seeds=SEEDS, num_samples=few)
    assert not short.passed and short.vanishing_ok
    assert short.ranks_by_seed == tuple((seed, few) for seed in SEEDS)


def test_every_sample_is_checked_for_vanishing(monkeypatch):
    """The last point of the first seed comes from the top cell, so an
    off-X_I chain is nonzero there: the report must see it, although the
    rank was reached long before."""
    import smtkit.pluecker as pl

    I, r, n, m, num_samples = (1, 3), 2, 4, 2, 20
    top = (3, 4)
    real = pl.schubert_point_sample
    calls: dict = {}

    def sample(J, r, n, rng):
        first = next(iter(calls), rng)
        calls[rng] = calls.get(rng, 0) + 1
        last_of_first = rng is first and calls[rng] == num_samples
        return real(top if last_of_first else J, r, n, rng)

    monkeypatch.setattr(pl, "schubert_point_sample", sample)
    rep = verify_hodge_iii(I, r, n, m, seeds=SEEDS, num_samples=num_samples)
    assert not rep.vanishing_ok
    assert not rep.passed
    assert list(calls.values()) == [num_samples] * len(SEEDS)
    assert rep.ranks_by_seed[0][1] == rep.expected_rank < num_samples


def _top_cell_at_last_sample(real, top, num_samples):
    """A schubert_point_sample that draws the last point of the first seed
    from the top cell, where off-X_I coordinates are nonzero."""
    calls: dict = {}

    def sample(J, r, n, rng):
        first = next(iter(calls), rng)
        calls[rng] = calls.get(rng, 0) + 1
        last_of_first = rng is first and calls[rng] == num_samples
        return real(top if last_of_first else J, r, n, rng)

    return sample


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_vanishing_on_coordinates_equals_vanishing_on_chains(monkeypatch, m):
    """verify_hodge_iii reads off-X_I coordinates; the eager reference
    evaluates every off-X_I chain.  On a sample off X_I both must fail the
    vanishing check in degree >= 1, and neither checks it in degree 0."""
    import pluecker_reference

    import smtkit.pluecker as pl

    I, r, n, num_samples, top = (1, 3), 2, 4, 20, (3, 4)
    real = pl.schubert_point_sample
    monkeypatch.setattr(pl, "schubert_point_sample", _top_cell_at_last_sample(real, top, num_samples))
    monkeypatch.setattr(
        pluecker_reference, "schubert_point_sample", _top_cell_at_last_sample(real, top, num_samples)
    )
    rep = verify_hodge_iii(I, r, n, m, seeds=SEEDS, num_samples=num_samples)
    assert rep == eager_hodge_report(I, r, n, m, seeds=SEEDS, num_samples=num_samples)
    assert rep.vanishing_ok == (m == 0)
