import pytest

from smtkit.rootdata import build_root_system
from smtkit.smt import StandardContext
from smtkit.weyl import (
    ParabolicQuotient,
    WeylGroup,
    bruhat_leq_subword,
    format_word,
    parse_word,
    stabilizer_subset,
)
from weyl_matrices import MatrixOracle, inversions, mat_mul, reduced_words

ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("C", 2): 8, ("B", 3): 48}


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_group_orders(family, rank):
    g = WeylGroup(build_root_system(family, rank))
    assert len(g) == ORDERS[(family, rank)]
    assert g.elements[0] is g.identity


def test_order_cap():
    with pytest.raises(ValueError):
        len(WeylGroup(build_root_system("B", 3), order_cap=10))


def test_length_is_inversion_count():
    for label in ["A3", "C2", "B3"]:
        g = WeylGroup(build_root_system(label[0], int(label[1])))
        for el in g.elements:
            assert el.length == inversions(g, el)


def test_canonical_words_multiply_out_and_are_lex_least():
    g = WeylGroup(build_root_system("B", 2))
    for el in g.elements:
        assert g.from_word(el.word) == el
        assert len(el.word) == el.length
        assert el.word == min(reduced_words(g, el))


def test_longest_element():
    for label in ["A2", "C2", "B3"]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        assert g.w_o.length == len(rs.positive_roots)
        assert g.mul(g.w_o, g.w_o) == g.identity
        assert all(g.leq(x, g.w_o) for x in g.elements)


def test_bruhat_basics():
    g = WeylGroup(build_root_system("A", 2))
    s1, s2 = g.simple
    for w in g.elements:
        assert g.leq(g.identity, w)
    assert g.leq(s1, g.mul(s1, s2))
    assert not g.leq(s1, s2)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "B3", "C3"])
def test_bruhat_matches_subword_oracle(label):
    g = WeylGroup(build_root_system(label[0], int(label[1])))
    for x in g.elements:
        for y in g.elements:
            assert g.leq(x, y) == bruhat_leq_subword(g, x, y)


def test_minimal_coset_reps_a2():
    g = WeylGroup(build_root_system("A", 2))
    q = ParabolicQuotient(g, {1})  # P = P_{omega_1}
    assert [format_word(x.word) for x in q.min_reps] == ["e", "s1", "s2.s1"]
    assert len(ParabolicQuotient(g, {0, 1})) == 1
    assert len(ParabolicQuotient(g, set())) == len(g)


def test_each_coset_has_unique_minimal_rep():
    g = WeylGroup(build_root_system("C", 2))
    q = ParabolicQuotient(g, {0})
    seen = {}
    for x in g.elements:
        rep = q.from_word(x.word)
        assert rep in q.pos
        assert rep.length <= x.length
        seen.setdefault(rep, set()).add(x)
    assert len(seen) == len(q.min_reps)
    assert sum(len(c) for c in seen.values()) == len(g)


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "C3"])
def test_involution_reverses_quotient_order(label):
    g = WeylGroup(build_root_system(label[0], int(label[1])))
    for subset in [set(), {0}, {g.rank - 1}]:
        q = ParabolicQuotient(g, subset)
        for x in q.min_reps:
            assert q.order_reversing_involution(q.order_reversing_involution(x)) == x
        for x in q.min_reps:
            for y in q.min_reps:
                assert q.leq(x, y) == q.leq(
                    q.order_reversing_involution(y), q.order_reversing_involution(x)
                )


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "C3", "D4"])
def test_quotient_is_graded(label):
    # every strict relation refines into covers of length difference one
    g = WeylGroup(build_root_system(label[0], int(label[1])))
    for subset in [set(range(g.rank)) - {0}, {0}]:
        q = ParabolicQuotient(g, subset)
        reach = {}
        for w in q.min_reps:  # sorted by length
            below = {w}
            for v in (x for x in q.min_reps if x.length == w.length - 1):
                if q.leq(v, w):
                    below |= reach[v]
            reach[w] = below
        for v in q.min_reps:
            for w in q.min_reps:
                assert q.leq(v, w) == (v in reach[w])


def test_stabilizer_subset():
    a2 = build_root_system("A", 2)
    assert stabilizer_subset(a2, a2.fundamental_weight(0)) == {1}
    assert stabilizer_subset(a2, a2.weight((1, 1))) == frozenset()
    assert stabilizer_subset(a2, a2.weight((0, 0))) == {0, 1}
    with pytest.raises(ValueError):
        stabilizer_subset(a2, a2.weight((-1, 0)))


def extremal_scan(leq, cands, want_max):
    """The element of cands above (want_max) or below all the others, or None:
    an exhaustive scan over cands, with no appeal to lengths."""
    if want_max:
        found = [e for e in cands if all(leq(c, e) for c in cands)]
    else:
        found = [e for e in cands if all(leq(e, c) for c in cands)]
    assert len(found) <= 1
    return found[0] if found else None


def _lift_scan(group, quot_p, quot_lam, x_class, w, above):
    lifts = [x for x in quot_p.min_reps if quot_lam.from_word(x.word) == x_class]
    if above:
        return [x for x in lifts if group.leq(w, x)]
    return [x for x in lifts if group.leq(x, w)]


def _extremal_lift(group, quot_p, quot_lam, x_class, w, above):
    """The least lift above w (or greatest below w) from the scan, or None;
    a nonempty lift set without one contradicts Deodhar's lemma."""
    cands = _lift_scan(group, quot_p, quot_lam, x_class, w, above)
    got = extremal_scan(group.leq, cands, want_max=not above)
    assert (got is None) == (not cands), "Deodhar uniqueness failed"
    return got


def test_min_lift_above_raises_without_a_least_lift():
    rs = build_root_system("A", 2)
    g = WeylGroup(rs)
    s1, s2 = g.simple
    s1s2 = g.from_word((0, 1))
    for want_max in (False, True):
        assert extremal_scan(g.leq, [s1, s2], want_max) is None
    # s1 and s2 are both minimal; s1s2 lies above both
    assert extremal_scan(g.leq, [s1, s2, s1s2], want_max=False) is None
    assert extremal_scan(g.leq, [s1, s2, s1s2], want_max=True) == s1s2
    # A2 Borel: a lift table with the incomparable s1 and s2 above e
    ctx = StandardContext(g, (), (rs.weight((1, 1)),))
    x_class = ctx.posets[0].quotient.top()
    for lifts in [(s1, s2), (s1, s2, s1s2)]:
        ctx.lift_tables = ({x_class: lifts},)
        with pytest.raises(AssertionError, match="Deodhar uniqueness failed"):
            ctx.min_lift_above(0, x_class, g.identity)
        assert ctx.min_lift_above(0, x_class, s1) == s1
        assert ctx.min_lift_above(0, x_class, s2) == s2


@pytest.mark.parametrize("label,coords", [("A2", (1, 0)), ("B2", (0, 1)), ("C2", (0, 1))])
def test_deodhar_uniqueness_exhaustive(label, coords):
    # Every nonempty lift set below (resp. above) a bound has a unique
    # greatest (resp. least) element; the lift operations assert this too.
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    lam = rs.weight(coords)
    qp = ParabolicQuotient(g, set())
    ql = ParabolicQuotient(g, stabilizer_subset(rs, lam))
    ctx = StandardContext(g, (), (lam,))
    for x_class in ql.min_reps:
        for w in g.elements:
            below = _lift_scan(g, qp, ql, x_class, w, above=False)
            got = _extremal_lift(g, qp, ql, x_class, w, above=False)
            if below:
                assert got == max(below, key=lambda e: e.length)
                assert all(g.leq(c, got) for c in below)
            else:
                assert got is None
            above = _lift_scan(g, qp, ql, x_class, w, above=True)
            got = _extremal_lift(g, qp, ql, x_class, w, above=True)
            if above:
                assert got == min(above, key=lambda e: e.length)
                assert all(g.leq(got, c) for c in above)
            else:
                assert got is None
            assert ctx.min_lift_above(0, x_class, w) == got


def test_lift_examples():
    rs = build_root_system("A", 2)
    g = WeylGroup(rs)
    lam = rs.fundamental_weight(0)
    ql = ParabolicQuotient(g, stabilizer_subset(rs, lam))
    # regular weight: unique lift, equal to the class itself
    q_reg = ParabolicQuotient(g, stabilizer_subset(rs, rs.weight((1, 1))))
    for x in q_reg.min_reps:
        assert _extremal_lift(g, q_reg, q_reg, x, g.w_o, above=False) == x
    # P = P_lam: the lift of proj(w) below w, within W^lam, is proj(w)
    for w in ql.min_reps:
        assert _extremal_lift(g, ql, ql, ql.from_word(w.word), w, above=False) == w
    # A2, P = B, lam = omega_1: lift of s1-class below w_o is the coset max
    qp = ParabolicQuotient(g, set())
    s1 = g.simple[0]
    got = _extremal_lift(g, qp, ql, s1, g.w_o, above=False)
    assert got == g.from_word((0, 1))  # s1.s2, the longer member of s1 W_lam


def test_word_round_trip():
    assert parse_word("e", 3) == ()
    assert parse_word("s1.s2.s1", 3) == (0, 1, 0)
    assert format_word((0, 1, 0)) == "s1.s2.s1"
    assert format_word(()) == "e"
    with pytest.raises(ValueError):
        parse_word("s4", 3)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_multiplication_tables(label):
    g = WeylGroup(build_root_system(label[0], int(label[1])))
    oracle = MatrixOracle(g)
    m, pos = oracle.matrix, g.quotient(()).pos
    for i, x in enumerate(g.elements):
        assert pos[x] == i
        for j in range(g.rank):
            assert m[pos[g.from_word((j,) + x.word)]] == mat_mul(oracle.simple[j], m[i])
            assert m[pos[g.from_word(x.word + (j,))]] == mat_mul(m[i], oracle.simple[j])
    for x in g.elements:
        assert mat_mul(m[pos[g.from_word(x.word[::-1])]], m[pos[x]]) == m[pos[g.identity]]
        for y in g.elements:
            assert m[pos[g.mul(x, y)]] == mat_mul(m[pos[x]], m[pos[y]])


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_equal_elements_of_separate_groups_agree(label):
    rs = build_root_system(label[0], int(label[1]))
    g1, g2 = WeylGroup(rs), WeylGroup(build_root_system(label[0], int(label[1])))
    q1 = ParabolicQuotient(g1, set())
    for i, (x1, x2) in enumerate(zip(g1.elements, g2.elements)):
        assert x1 is not x2
        assert x1 == x2 and hash(x1) == hash(x2)
        assert q1.pos[x2] == g2.quotient(()).pos[x1] == i
        assert g1.from_word(x2.word[::-1]) == g2.from_word(x1.word[::-1])
        assert q1.leq(x2, g2.w_o) and q1.leq(g2.identity, x2)
