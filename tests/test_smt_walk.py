"""Differential test: the greedy-lift walk against the cartesian-product loop.

``reference_enumerate`` is the product-then-certify enumeration that the walk
replaced: every tuple of admissible pairs, in ``itertools.product`` order,
certified from scratch by greedy lifts from below, with the single check
against w made at the top.  The walk must list the same monomials, with the
same lifts and total weights, in the same order, and ``certify`` must agree
with it on every tuple.
"""

import itertools

import pytest

from smtkit.rootdata import Weight, build_root_system
from smtkit.smt import RichardsonPair, StandardContext
from smtkit.weyl import WeylGroup


def reference_certify(ctx, factors, pair):
    cur = pair.v
    lifts = []
    for i in range(len(factors) - 1, -1, -1):
        f = factors[i]
        a = ctx.min_lift_above(i, f.v, cur)
        if a is None:
            return None
        b = ctx.min_lift_above(i, f.w, a)
        if b is None:
            return None
        lifts.extend((a, b))
        cur = b
    if not ctx.quot.leq(cur, pair.w):
        return None
    return tuple(lifts)


def reference_enumerate(ctx, pair):
    out = []
    for combo in itertools.product(*[p.pairs() for p in ctx.posets]):
        lifts = reference_certify(ctx, combo, pair)
        if lifts is not None:
            total = Weight((0,) * ctx.rs.rank)
            for f in combo:
                total = total + f.weight()
            out.append((combo, lifts, total))
    return out


# (type, parabolic subset, profile as fundamental-weight index tuples), 0-based
CONTEXTS = [
    ("A2", (), ((0,), (1,))),
    ("B2", (), ((0,), (1,))),
    ("C2", (), ((0,), (1,))),
    # the A3 contexts of the monomials benchmark workload
    ("A3", (), ((0,), (1,), (2,))),
    ("A3", (1,), ((0, 2),)),
    ("A3", (0, 2), ((1,), (1,))),
    ("B3", (0, 1), ((2,), (2,))),
    ("C3", (0, 1), ((2,), (2,))),
    # P strictly inside the stabilizer of each weight: classes have several lifts
    ("C3", (0,), ((2,), (1,))),
    ("B3", (2,), ((0,), (1,))),
    # the empty profile
    ("A2", (), ()),
]


def _context(label, subset, profile):
    rs = build_root_system(label[0], int(label[1:]))
    weights = []
    for idxs in profile:
        coords = [0] * rs.rank
        for i in idxs:
            coords[i] += 1
        weights.append(rs.weight(tuple(coords)))
    return StandardContext(WeylGroup(rs), set(subset), tuple(weights))


@pytest.mark.parametrize("label,subset,profile", CONTEXTS)
def test_walk_matches_product_loop(label, subset, profile):
    ctx = _context(label, subset, profile)
    q = ctx.quot
    combos = list(itertools.product(*[p.pairs() for p in ctx.posets]))
    for v in q.min_reps:
        for w in q.min_reps:
            if not q.leq(v, w):
                continue
            pair = ctx.pair(v, w)
            want = reference_enumerate(ctx, pair)
            got = [(m.factors, m.lifts, m.total_weight) for m in ctx.enumerate(pair)]
            assert got == want, (v, w)
            lifts = {combo: chain for combo, chain, _total in want}
            for combo in combos:
                assert ctx.certify(combo, pair) == lifts.get(combo), (v, w, combo)


def test_strict_parabolic_contexts_have_classes_with_several_lifts():
    for label, subset, profile in CONTEXTS[8:10]:
        ctx = _context(label, subset, profile)
        assert all(
            any(len(lifts) > 1 for lifts in table.values()) for table in ctx.lift_tables
        ), label


def test_empty_profile_certifies_exactly_the_comparable_pairs():
    ctx = _context("A2", (), ())
    for v in ctx.quot.min_reps:
        for w in ctx.quot.min_reps:
            pair = RichardsonPair(v, w)
            assert ctx.certify((), pair) == reference_certify(ctx, (), pair)
            assert [m.lifts for m in ctx.enumerate(pair)] == [
                lifts for _c, lifts, _t in reference_enumerate(ctx, pair)
            ]
