import itertools
from collections import Counter

import pytest

from smtkit.oracle import demazure_character, mass, weyl_dim
from smtkit.rootdata import build_root_system
from smtkit.schubert import richardson_contains
from smtkit.smt import StandardContext, make_union
from smtkit.weyl import WeylGroup, stabilizer_subset

A2 = build_root_system("A", 2)
GA2 = WeylGroup(A2)
W1 = A2.fundamental_weight(0)
W2 = A2.fundamental_weight(1)


def exhaustive_certificate_exists(ctx, factors, pair):
    """Brute-force oracle: search over ALL tuples of interleaved lifts."""
    g = ctx.group
    per_factor = []
    for i, f in enumerate(factors):
        proj = ctx.posets[i].quotient.from_word
        lifts_v = [x for x in ctx.quot.min_reps if proj(x.word) == f.v]
        lifts_w = [x for x in ctx.quot.min_reps if proj(x.word) == f.w]
        per_factor.append(
            [(a, b) for a in lifts_v for b in lifts_w if g.leq(a, b)]
        )
    for combo in itertools.product(*per_factor):
        chain = [pair.v]
        for a, b in reversed(combo):  # factor m first, factor 1 last
            chain.extend((a, b))
        chain.append(pair.w)
        if all(g.leq(x, y) for x, y in zip(chain, chain[1:])):
            return True
    return False


def test_empty_profile_standard_everywhere():
    ctx = StandardContext(GA2, set(), ())
    for v in GA2.elements:
        for w in GA2.elements:
            if GA2.leq(v, w):
                assert ctx.certify((), ctx.pair(v, w)) == ()


def test_single_weight_reduces_to_interval_condition():
    # m = 1 with P = P_lam: standard on (v, w) iff v <= e(pi) <= i(pi) <= w
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, stabilizer_subset(A2, lam), (lam,))
    q = ctx.quot
    factors = ctx.posets[0].pairs()
    for v in q.min_reps:
        for w in q.min_reps:
            if not q.leq(v, w):
                continue
            pair = ctx.pair(v, w)
            for f in factors:
                expected = q.leq(v, f.v) and q.leq(f.w, w)
                assert (ctx.certify((f,), pair) is not None) == expected


def test_mixed_count_a2():
    ctx = StandardContext(GA2, set(), (W1, W2))
    monos = ctx.enumerate(ctx.pair(GA2.identity, GA2.w_o))
    assert len(monos) == 8 == weyl_dim(A2, W1 + W2)
    for m in monos:
        chain = list(m.lifts) + [GA2.w_o]
        assert all(GA2.leq(a, b) for a, b in zip(chain, chain[1:]))


def test_minuscule_single_weight_full_space():
    for i, lam in enumerate((W1, W2)):
        ctx = StandardContext(GA2, set(), (lam,))
        monos = ctx.enumerate(ctx.pair(GA2.identity, GA2.w_o))
        assert len(monos) == 3
        assert all(f.is_trivial for m in monos for f in m.factors)


def test_point_pair_has_one_monomial():
    ctx = StandardContext(GA2, set(), (W1, W2))
    for w in GA2.elements:
        monos = ctx.enumerate(ctx.pair(w, w))
        assert len(monos) == 1
        (m,) = monos
        assert all(f.is_trivial for f in m.factors)
        assert m.factors[0].w == ctx.posets[0].quotient.from_word(w.word)
        assert m.factors[1].w == ctx.posets[1].quotient.from_word(w.word)


def test_remark_counterexample_combinatorial():
    # p_{s1(w1)} p_{s2(w2)}: standard on the full space, restricts nonzero to
    # X_{s2s1} (numeric side in test_pluecker), but is NOT standard there.
    s1, s2 = GA2.simple
    ctx = StandardContext(GA2, set(), (W1, W2))
    x1 = ctx.posets[0].quotient.from_word(s1.word)
    x2 = ctx.posets[1].quotient.from_word(s2.word)
    f1, f2 = ctx.posets[0].pair(x1, x1), ctx.posets[1].pair(x2, x2)
    assert ctx.certify((f1, f2), ctx.pair(GA2.identity, GA2.w_o)) is not None
    assert ctx.certify((f1, f2), ctx.pair(GA2.identity, GA2.mul(s2, s1))) is None


def test_greedy_matches_exhaustive_lift_search():
    # ranks <= 2, degree <= 2: greedy certification == brute-force over lifts
    for label, coords in [("A2", ((1, 0), (0, 1))), ("B2", ((1, 0), (0, 1))), ("C2", ((0, 1), (1, 0)))]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        weights = [rs.weight(c) for c in coords]
        for profile in (weights[:1], weights):
            ctx = StandardContext(g, set(), tuple(profile))
            factor_lists = [p.pairs() for p in ctx.posets]
            for v in g.elements:
                for w in g.elements:
                    if not g.leq(v, w):
                        continue
                    pair = ctx.pair(v, w)
                    for combo in itertools.product(*factor_lists):
                        greedy = ctx.certify(combo, pair) is not None
                        brute = exhaustive_certificate_exists(ctx, combo, pair)
                        assert greedy == brute, (label, profile, combo, v, w)


def test_monotone_under_containment():
    ctx = StandardContext(GA2, set(), (W1, W2))
    pairs = [
        ctx.pair(v, w)
        for v in GA2.elements
        for w in GA2.elements
        if GA2.leq(v, w)
    ]
    for small in pairs:
        small_set = {m.factors for m in ctx.enumerate(small)}
        for big in pairs:
            if richardson_contains(ctx.quot, big, small):
                big_set = {m.factors for m in ctx.enumerate(big)}
                assert small_set <= big_set


def test_total_weights_match_oracle_character():
    for label, profile in [
        ("A2", ((1, 0), (0, 1))),
        ("C2", ((0, 1), (1, 0))),
        ("C2", ((1, 0), (1, 0))),
    ]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        weights = tuple(rs.weight(c) for c in profile)
        total = weights[0] + weights[1]
        ctx = StandardContext(g, set(), weights)
        monos = ctx.enumerate(ctx.pair(g.identity, g.w_o))
        neg_totals = Counter(tuple(-c for c in m.total_weight.coords) for m in monos)
        assert neg_totals == Counter(demazure_character(rs, g.w_o, total))


def test_weight_must_be_character_of_parabolic():
    with pytest.raises(ValueError):
        StandardContext(GA2, {0}, (W1,))  # <w1, a1^vee> = 1 on the subset


def test_non_classical_weight_rejected():
    g2 = build_root_system("G", 2)
    g = WeylGroup(g2)
    with pytest.raises(ValueError):
        StandardContext(g, set(), (g2.fundamental_weight(0),))


def test_union_single_and_idempotent():
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, set(), (lam,))
    s1s2 = GA2.from_word((0, 1))
    x = ctx.pair(GA2.identity, s1s2)
    u1 = make_union(ctx.quot, [x])
    assert ctx.count_on_union(u1).count == len(ctx.enumerate(x))
    u2 = make_union(ctx.quot, [x, x])
    assert u2 == (x,)
    assert ctx.count_on_union(u2).count == len(ctx.enumerate(x))


def test_union_inclusion_exclusion_a2():
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, set(), (lam,))
    X = ctx.pair(GA2.identity, GA2.from_word((0, 1)))
    Y = ctx.pair(GA2.identity, GA2.from_word((1, 0)))
    uc = ctx.count_on_union(make_union(ctx.quot, [X, Y]))
    assert uc.inclusion_exclusion is not None
    assert uc.count == uc.inclusion_exclusion
    # independent mass computation of h0(X) + h0(Y) - h0(X cap Y)
    h = lambda w: mass(demazure_character(A2, w, lam))
    s1, s2 = GA2.simple
    expected = (
        h(GA2.from_word((0, 1)))
        + h(GA2.from_word((1, 0)))
        - (h(s1) + h(s2) - h(GA2.identity))
    )
    assert uc.count == expected


def test_union_count_enumerates_each_component_once(monkeypatch):
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, set(), (lam,))
    X = ctx.pair(GA2.identity, GA2.from_word((0, 1)))
    Y = ctx.pair(GA2.identity, GA2.from_word((1, 0)))
    expected = ctx.count_on_union(make_union(ctx.quot, [X, Y]))
    calls = []
    enumerate_ = StandardContext.enumerate

    def counting(self, pair):
        calls.append(pair)
        return enumerate_(self, pair)

    monkeypatch.setattr(StandardContext, "enumerate", counting)
    assert ctx.count_on_union(make_union(ctx.quot, [X, Y])) == expected
    # X, Y and each of the two intersection components, once each
    assert len(ctx.intersection_components(X, Y)) == 2
    assert len(calls) == 4 and len(set(calls)) == 4


def test_union_intersection_components():
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, set(), (lam,))
    X = ctx.pair(GA2.identity, GA2.from_word((0, 1)))
    Y = ctx.pair(GA2.identity, GA2.from_word((1, 0)))
    comps = ctx.intersection_components(X, Y)
    assert {(c.v, c.w) for c in comps} == {
        (GA2.identity, GA2.simple[0]),
        (GA2.identity, GA2.simple[1]),
    }
    # disjoint-ish pair: intersection of the two one-dimensional opposite strips
    P = ctx.pair(GA2.simple[0], GA2.simple[0])
    Q = ctx.pair(GA2.simple[1], GA2.simple[1])
    assert ctx.intersection_components(P, Q) == ()


def test_filtration_partition_blocks():
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, set(), (lam,))
    for v in GA2.elements:
        for w in GA2.elements:
            if not GA2.leq(v, w):
                continue
            pair = ctx.pair(v, w)
            blocks = ctx.filtration_partition(pair)
            monos = ctx.enumerate(pair)
            assert sum(blocks.values()) == len(monos)
            for x, cnt in blocks.items():
                direct = [
                    m for m in ctx.enumerate(ctx.pair(x, w)) if m.factors[0].v == x
                ]
                assert len(direct) == cnt
            # block at x = w: single monomial (the trivial pair at w) when m=1
            if w in blocks:
                assert blocks[w] == 1


def test_filtration_partition_requires_full_stabilizer():
    ctx = StandardContext(GA2, set(), (W1,))  # P = B strictly inside P_lam
    with pytest.raises(ValueError):
        ctx.filtration_partition(ctx.pair(GA2.identity, GA2.w_o))


@pytest.mark.parametrize(
    "label,profile",
    [
        ("A2", ((1, 0), (0, 1))),
        ("A2", ((1, 1), (1, 0))),
        ("B2", ((1, 0), (0, 1))),
        ("C2", ((0, 1), (1, 0))),
        ("C2", ((0, 1), (0, 1))),
    ],
)
def test_mixed_schubert_counts_match_demazure_mass(label, profile):
    # on (e, w) the standard monomials are a basis of the degree-(sum) space,
    # so their number must equal the Demazure mass for the summed weight
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    weights = tuple(rs.weight(c) for c in profile)
    total = weights[0]
    for lam in weights[1:]:
        total = total + lam
    ctx = StandardContext(g, set(), weights)
    for w in g.elements:
        count = len(ctx.enumerate(ctx.pair(g.identity, w)))
        assert count == mass(demazure_character(rs, w, total)), w


def test_filtration_blocks_against_direct_enumeration():
    # block at x counts the admissible pairs with e-class exactly x hanging
    # below the top; enumerate both ways (minuscule: every block is 1)
    for lam in (W1, A2.weight((2, 0))):
        ctx = StandardContext(GA2, stabilizer_subset(A2, lam), (lam,))
        q = ctx.quot
        top = q.top()
        blocks = ctx.filtration_partition(ctx.pair(GA2.identity, top))
        pairs = ctx.posets[0].pairs()
        for x in q.min_reps:
            direct = sum(1 for p in pairs if p.v == x and q.leq(p.w, top))
            assert blocks.get(x, 0) == direct
            if lam is W1:
                assert direct == 1


def test_counts_symmetric_under_order_reversing_involution():
    # X_w ^ X^v maps to the pair (iota(w), iota(v)) under the longest element,
    # so standard-monomial counts must agree
    lam = A2.weight((1, 1))
    ctx = StandardContext(GA2, set(), (lam,))
    iota = ctx.quot.order_reversing_involution
    for v in GA2.elements:
        for w in GA2.elements:
            if GA2.leq(v, w):
                n = len(ctx.enumerate(ctx.pair(v, w)))
                n_dual = len(ctx.enumerate(ctx.pair(iota(w), iota(v))))
                assert n == n_dual


def test_counts_are_order_insensitive():
    ctx12 = StandardContext(GA2, set(), (W1, W2))
    ctx21 = StandardContext(GA2, set(), (W2, W1))
    for v in GA2.elements:
        for w in GA2.elements:
            if GA2.leq(v, w):
                assert len(ctx12.enumerate(ctx12.pair(v, w))) == len(
                    ctx21.enumerate(ctx21.pair(v, w))
                )


def test_enumerate_twice_on_one_context_is_equal():
    c3 = build_root_system("C", 3)
    g = WeylGroup(c3)
    lam = c3.fundamental_weight(1)
    ctx = StandardContext(g, stabilizer_subset(c3, lam), (lam, lam))
    pair = ctx.pair(ctx.quot.min_reps[0], ctx.quot.top())
    first = ctx.enumerate(pair)
    assert first and first == ctx.enumerate(pair)
