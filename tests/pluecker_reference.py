"""Test-local references for the Plücker layer.

``restriction_table`` tabulates which Plücker coordinates were seen nonzero
on samples of each Schubert variety.  ``eager_hodge_report`` is the Hodge
rank check with its evaluation matrix built in full before the rank is
taken; ``verify_hodge_iii`` builds the rows only until the rank is reached,
and must report the same.
"""

import random

from smtkit.pluecker import (
    MERSENNE_PRIME,
    RankReport,
    all_indices,
    index_leq,
    rank_mod_p,
    schubert_point_sample,
    standard_monomials_grassmann,
)


def restriction_table(r, n, seeds=(1, 2, 3), num_samples=6):
    """Observed nonvanishing of p_J on samples of X_I, for all pairs (I, J).

    The value at (I, J) is True iff p_J was nonzero at some sample over the
    seeds.  Agreement with index_leq(J, I) is the caller's assertion.
    """
    out = {}
    idx = all_indices(r, n)
    for I in idx:
        hits = {J: False for J in idx}
        for seed in seeds:
            rng = random.Random(seed)
            for _ in range(num_samples):
                pt = schubert_point_sample(I, r, n, rng)
                for J in idx:
                    if pt.plucker(J):
                        hits[J] = True
        for J in idx:
            out[(I, J)] = hits[J]
    return out


def eager_hodge_report(I, r, n, m, seeds=(1, 2, 3), num_samples=None):
    """verify_hodge_iii with every row of every seed's matrix evaluated first."""
    chains = standard_monomials_grassmann(r, n, m)
    on_X = [ch for ch in chains if m == 0 or index_leq(ch[-1], I)]
    off_X = [ch for ch in chains if not (m == 0 or index_leq(ch[-1], I))]
    k = len(on_X)
    if num_samples is None:
        num_samples = 2 * k + 4
    ranks = []
    vanish_ok = True
    for seed in seeds:
        rng = random.Random(seed)
        points = [schubert_point_sample(I, r, n, rng) for _ in range(num_samples)]
        matrix = [[pt.chain_value(ch) for ch in on_X] for pt in points]
        ranks.append((seed, rank_mod_p(matrix, MERSENNE_PRIME)))
        if any(pt.chain_value(ch) for pt in points for ch in off_X):
            vanish_ok = False
    passed = vanish_ok and any(rank == k for _seed, rank in ranks)
    return RankReport(passed, k, tuple(ranks), vanish_ok)
