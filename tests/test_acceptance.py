"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Every tolerance here is exact (integer or multiset equality); the only
probabilistic ingredients are the seeded finite-field rank checks, which pass
on at least one of three fixed seeds and whose vanishing half must hold
identically.
"""

import itertools
import random
from collections import Counter

import pytest

from smtkit.admissible import WeightPoset
from smtkit.oracle import demazure_character, mass, weyl_dim
from smtkit.pluecker import (
    all_indices,
    flag_monomial_evaluate,
    index_leq,
    perm_from_word,
    relation_residual,
    sample_flag_point,
    standard_monomials_grassmann,
    straighten,
    verify_hodge_i,
    verify_hodge_iii,
)
from smtkit.rootdata import build_root_system, is_classical_type
from smtkit.schubert import (
    is_cover,
    chevalley_multiplicity,
    make_pair,
    moving_root,
    richardson_contains,
    schubert_divisors,
)
from smtkit.smt import StandardContext
from smtkit.weyl import ParabolicQuotient, WeylGroup
from pluecker_reference import restriction_table
from weyl_matrices import MatrixOracle

SEEDS = (1, 2, 3)
SWEEP_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4"]
RANK3_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3"]

_groups = {}


def group_of(label):
    if label not in _groups:
        rs = build_root_system(label[0], int(label[1]))
        _groups[label] = (rs, WeylGroup(rs))
    return _groups[label]


def classical_weights(rs, include_zero=False):
    """Every dominant weight of classical type: any such weight is fundamental
    or a sum of two minuscule fundamentals, so coordinate sum <= 2 exhausts."""
    totals = (0, 1, 2) if include_zero else (1, 2)
    out = []
    for total in totals:
        for combo in itertools.combinations_with_replacement(range(rs.rank), total):
            coords = [0] * rs.rank
            for i in combo:
                coords[i] += 1
            lam = rs.weight(tuple(coords))
            if is_classical_type(rs, lam):
                out.append(lam)
    return out


def report(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_admissible_count_identity():
    anchors = {("A2", (1, 0)): 3, ("C2", (0, 1)): 5, ("B3", (0, 0, 1)): 8}
    checked = 0
    for label in SWEEP_TYPES:
        rs, g = group_of(label)
        for lam in classical_weights(rs, include_zero=True):
            pairs = WeightPoset(g, lam).pairs()
            assert len(pairs) == weyl_dim(rs, lam), (label, lam.coords)
            checked += 1
            anchor = anchors.get((label, lam.coords))
            if anchor is not None:
                assert len(pairs) == anchor
    report(1, True, f"#admissible = weyl_dim for {checked} classical weights over {SWEEP_TYPES}")


def test_criterion_02_character_identity():
    checked = 0
    for label in SWEEP_TYPES:
        rs, g = group_of(label)
        for lam in classical_weights(rs, include_zero=True):
            pairs = WeightPoset(g, lam).pairs()
            neg_xi = Counter(tuple(-c for c in p.weight().coords) for p in pairs)
            full = Counter(demazure_character(rs, g.w_o, lam))
            assert neg_xi == full, (label, lam.coords)
            checked += 1
    report(2, True, f"admissible-pair weight multisets match full characters ({checked} weights)")


def test_criterion_03_demazure_restriction():
    checked = 0
    for label in ("A2", "C2"):
        rs, g = group_of(label)
        for lam in classical_weights(rs):
            poset = WeightPoset(g, lam)
            q = poset.quotient
            pairs = poset.pairs()
            for w in q.min_reps:
                count = sum(
                    1
                    for p in pairs
                    if any(g.leq(x, w) for x in q.lifts(q)[p.w])
                )
                assert count == mass(demazure_character(rs, w, lam)), (label, lam.coords, w)
                checked += 1
    report(3, True, f"Schubert-restricted counts match Demazure masses ({checked} cases)")


def test_criterion_04_mixed_weight_count_and_filtration():
    rs, g = group_of("A2")
    w1, w2 = rs.fundamental_weight(0), rs.fundamental_weight(1)
    ctx = StandardContext(g, set(), (w1, w2))
    ctx1 = StandardContext(g, set(), (w1,))
    ctx2 = StandardContext(g, set(), (w2,))
    full = ctx.enumerate(ctx.pair(g.identity, g.w_o))
    assert len(full) == 8 == weyl_dim(rs, w1 + w2)
    # internal consistency of the full table: partition each count by the top
    # greedy lift of the bottom factor, as the graded filtration predicts
    for v in g.elements:
        for w in g.elements:
            if not g.leq(v, w):
                continue
            total = len(ctx.enumerate(ctx.pair(v, w)))
            by_block = 0
            for x in g.elements:
                if not (g.leq(v, x) and g.leq(x, w)):
                    continue
                bottom = 0
                for f2 in ctx2.posets[0].pairs():
                    lifts = ctx2.certify((f2,), ctx2.pair(v, x))
                    if lifts is not None and lifts[-1] == x:
                        bottom += 1
                top = len(ctx1.enumerate(ctx1.pair(x, w)))
                by_block += bottom * top
            assert by_block == total, (v, w, by_block, total)
    report(4, True, "SL(3) mixed-weight count is 8 and the full table is filtration-consistent")


def test_criterion_05_hodge_i_counts_and_ranks():
    for m, count in [(1, 6), (2, 20), (3, 50)]:
        assert len(standard_monomials_grassmann(2, 4, m)) == count
        rep = verify_hodge_i(2, 4, m, seeds=SEEDS)
        assert rep.expected_rank == count and rep.passed, (m, rep)
    report(5, True, "Gr(2,4) standard-chain counts 6/20/50 match evaluation ranks (3 seeds)")


def test_criterion_06_straightening_relations():
    rel = straighten((1, 4), (2, 3), 2, 4)
    assert dict((p, c) for c, p in rel.rhs) == {
        ((1, 3), (2, 4)): 1,
        ((1, 2), (3, 4)): -1,
    }
    total = 0
    for r, n in [(2, 4), (2, 5)]:
        for I, J in itertools.combinations(all_indices(r, n), 2):
            if index_leq(I, J) or index_leq(J, I):
                continue
            rel = straighten(I, J, r, n)
            assert relation_residual(rel) == {}
            for _c, (I2, J2) in rel.rhs:
                assert index_leq(I2, I) and index_leq(J, J2) and index_leq(I2, J2)
            total += 1
    report(6, True, f"{total} non-standard degree-2 pairs straightened to exact identities")


def test_criterion_07_hodge_iii_restriction_bases():
    for I in all_indices(2, 4):
        for m in (1, 2):
            rep = verify_hodge_iii(I, 2, 4, m, seeds=SEEDS)
            assert rep.passed, (I, m, rep)
    report(7, True, "all 6 Schubert varieties of Gr(2,4): restricted bases full rank, rest vanish")


def test_criterion_08_restriction_criterion():
    for r, n in [(2, 4), (2, 5)]:
        table = restriction_table(r, n, seeds=SEEDS, num_samples=5)
        for (I, J), observed in table.items():
            assert observed == index_leq(J, I), (I, J)
    # the single-factor nonvanishing direction on the flag side: an extremal
    # vector with class not below w vanishes identically on X_w
    p_w0 = perm_from_word((0, 1, 0), 3)
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(10):
            gpt = sample_flag_point((0,), 3, rng)
            assert flag_monomial_evaluate(gpt, [(p_w0, 1)]) == 0
    report(8, True, "p_J|_{X_I} nonzero iff J <= I on Gr(2,4), Gr(2,5); vanishing direction exact")


def test_criterion_09_remark_counterexample():
    rs, g = group_of("A2")
    s1, s2 = g.simple
    w1, w2 = rs.fundamental_weight(0), rs.fundamental_weight(1)
    ctx = StandardContext(g, set(), (w1, w2))
    x1 = ctx.posets[0].quotient.from_word(s1.word)
    x2 = ctx.posets[1].quotient.from_word(s2.word)
    f1, f2 = ctx.posets[0].pair(x1, x1), ctx.posets[1].pair(x2, x2)
    target = ctx.pair(g.identity, g.mul(s2, s1))
    assert ctx.certify((f1, f2), ctx.pair(g.identity, g.w_o)) is not None
    assert ctx.certify((f1, f2), target) is None
    p_s1 = perm_from_word((0,), 3)
    p_s2 = perm_from_word((1,), 3)
    for seed in SEEDS:
        rng = random.Random(seed)
        hits = sum(
            1
            for _ in range(20)
            if flag_monomial_evaluate(sample_flag_point((1, 0), 3, rng), [(p_s1, 1), (p_s2, 2)])
        )
        assert hits >= 1, seed
    report(9, True, "SL(3) monomial not standard on X_{s2.s1} yet nonzero there (3 seeds)")


def test_criterion_10_structural_lemma_suite():
    violations = 0
    cases = 0
    for label in RANK3_TYPES:
        rs, g = group_of(label)
        oracle = MatrixOracle(g)
        for lam in classical_weights(rs):
            poset = WeightPoset(g, lam)
            q = poset.quotient
            covers = [
                (v, w) for w in q.min_reps for v, _m in poset.covers[w]
            ]
            # double => moving, and the moving dichotomy + multiplicity transport
            for v, w in covers:
                cases += 1
                if chevalley_multiplicity(q, v, w, lam) == 2 and moving_root(q, v, w) is None:
                    violations += 1
                alpha = moving_root(q, v, w)
                if alpha is None:
                    continue
                s_alpha = g.elements[oracle.reflection_id[alpha.coords]]
                for u in q.min_reps:
                    if q.leq(u, w):
                        su = q.from_word(g.mul(s_alpha, u).word)
                        if not (q.leq(u, v) or q.leq(su, v)):
                            violations += 1
                for step in schubert_divisors(q, w):
                    u = step.child
                    if u == v:
                        continue
                    su = g.mul(s_alpha, u)
                    if su not in q.pos or not is_cover(q, su, v):
                        violations += 1
                        continue
                    if chevalley_multiplicity(q, su, v, lam) != chevalley_multiplicity(q, u, w, lam):
                        violations += 1
            # Deodhar uniqueness of extremal coset elements
            w_lam = [y for y in g.elements if q.from_word(y.word) == g.identity]
            for x in q.min_reps:
                for w in g.elements:
                    below = [y for y in w_lam if g.leq(g.mul(x, y), w)]
                    if below:
                        cases += 1
                        tops = [
                            y
                            for y in below
                            if all(g.leq(g.mul(x, z), g.mul(x, y)) for z in below)
                        ]
                        if len(tops) != 1:
                            violations += 1
            # every chain of every admissible pair is double
            for p in poset.pairs():
                cases += 1
                if not poset.all_chains_double(p.v, p.w):
                    violations += 1
    # containment vs fixed-point criterion, exhaustively on two quotients
    for label, subset in [("A2", set()), ("B2", {0})]:
        rs, g = group_of(label)
        q = ParabolicQuotient(g, subset)
        pairs = [
            make_pair(q, v, w)
            for v in q.min_reps
            for w in q.min_reps
            if q.leq(v, w)
        ]
        for outer in pairs:
            fo = set(q.interval(outer.v, outer.w))
            for inner in pairs:
                cases += 1
                if richardson_contains(q, outer, inner) != (set(q.interval(inner.v, inner.w)) <= fo):
                    violations += 1
    report(10, violations == 0, f"structural lemma suite: {cases} cases, {violations} violations")
