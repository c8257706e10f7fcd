"""E-type quotients, built without enumerating W.

Each group's order cap lies below |W| (51 840 for E6) and above every
quotient the check needs, so any code path that enumerated all of W would
raise instead of passing.
"""

from collections import Counter

import pytest

from smtkit.admissible import WeightPoset
from smtkit.oracle import demazure_character, weyl_dim
from smtkit.rootdata import parse_cartan_type
from smtkit.smt import StandardContext
from smtkit.weyl import WeylGroup, stabilizer_subset

CAP = 10_000


@pytest.mark.parametrize("label,i,dim", [("E6", 0, 27), ("E7", 6, 56), ("E8", 7, 248)])
def test_pairs_count_and_character_without_w(label, i, dim):
    rs = parse_cartan_type(label)
    group = WeylGroup(rs, order_cap=CAP)
    lam = rs.fundamental_weight(i)
    pairs = WeightPoset(group, lam).pairs()
    assert len(pairs) == weyl_dim(rs, lam) == dim
    assert group.w_o.length == len(rs.positive_roots)
    neg_xi = Counter(tuple(-c for c in p.weight().coords) for p in pairs)
    assert neg_xi == Counter(demazure_character(rs, group.w_o, lam))


def test_e6_two_factor_count_without_w():
    rs = parse_cartan_type("E6")
    group = WeylGroup(rs, order_cap=CAP)
    w1 = rs.fundamental_weight(0)
    ctx = StandardContext(group, stabilizer_subset(rs, w1), (w1, w1))
    monos = ctx.enumerate(ctx.pair(group.identity, ctx.quot.top()))
    assert len(monos) == weyl_dim(rs, w1 + w1) == 351


def test_e6_group_order_is_capped():
    with pytest.raises(ValueError):
        len(WeylGroup(parse_cartan_type("E6"), order_cap=1000))
