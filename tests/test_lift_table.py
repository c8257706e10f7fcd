"""Differential tests of the lift table against an exhaustive scan.

``ParabolicQuotient.lifts`` backs both ``StandardContext.min_lift_above``
and the test reference ``extremal_restricts_nonzero``.  Here each answer is
recomputed by projecting every member of W^P, the scan the table replaced,
and the least lift above a bound by scanning for the lift below all the
others.
"""

import itertools

import pytest

from smtkit.rootdata import build_root_system
from smtkit.smt import StandardContext, make_pair
from smtkit.weyl import ParabolicQuotient, WeylGroup, stabilizer_subset
from schubert_reference import extremal_restricts_nonzero

from test_schubert import classical_weights  # shared sweep helper
from test_weyl import extremal_scan


def _scan(quot_p, quot_lam, x_class):
    return [x for x in quot_p.min_reps if quot_lam.from_word(x.word) == x_class]


def _subsets(indices):
    indices = sorted(indices)
    for k in range(len(indices) + 1):
        yield from itertools.combinations(indices, k)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3"])
def test_min_lift_above_matches_scan(label):
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    checked = 0
    for lam in classical_weights(rs):
        for subset in _subsets(stabilizer_subset(rs, lam)):
            ctx = StandardContext(g, subset, [lam])
            quot, ql = ctx.quot, ctx.posets[0].quotient
            for x_class in ql.min_reps:
                lifts = _scan(quot, ql, x_class)
                assert ctx.lift_tables[0][x_class] == tuple(lifts)
                for base in quot.min_reps:
                    above = [x for x in lifts if quot.leq(base, x)]
                    want = extremal_scan(quot.leq, above, want_max=False)
                    assert (want is None) == (not above)
                    assert ctx.min_lift_above(0, x_class, base) == want
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("label", ["A3", "B2", "C2"])
def test_extremal_restricts_nonzero_matches_scan(label):
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    qb = ParabolicQuotient(g, ())
    pairs = [make_pair(qb, v, w) for v in qb.min_reps for w in qb.min_reps if qb.leq(v, w)]
    for lam in classical_weights(rs):
        ql = ParabolicQuotient(g, stabilizer_subset(rs, lam))
        for x_class in ql.min_reps:
            lifts = _scan(qb, ql, x_class)
            for pair in pairs:
                want = any(qb.leq(pair.v, x) and qb.leq(x, pair.w) for x in lifts)
                assert extremal_restricts_nonzero(qb, ql, x_class, pair) == want
