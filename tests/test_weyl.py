import pytest

from smtkit.rootdata import build_root_system
from smtkit.weyl import (
    bruhat_leq,
    bruhat_leq_subword,
    enumerate_weyl,
    format_word,
    lambda_maximal_lift,
    lambda_minimal_lift,
    minimal_coset_reps,
    parse_word,
    stabilizer_subset,
)

ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("C", 2): 8, ("B", 3): 48}


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_group_orders(family, rank):
    g = enumerate_weyl(build_root_system(family, rank))
    assert len(g) == ORDERS[(family, rank)]
    assert g.elements[0] is g.identity


def test_order_cap():
    with pytest.raises(ValueError):
        enumerate_weyl(build_root_system("B", 3), order_cap=10)


def test_length_is_inversion_count():
    for label in ["A3", "C2", "B3"]:
        g = enumerate_weyl(build_root_system(label[0], int(label[1])))
        for el in g.elements:
            assert el.length == g.inversions(el)


def test_canonical_words_multiply_out_and_are_lex_least():
    g = enumerate_weyl(build_root_system("B", 2))
    for el in g.elements:
        assert g.from_word(el.word) == el
        assert len(el.word) == el.length
        assert el.word == min(g.reduced_words(el))


def test_longest_element():
    for label in ["A2", "C2", "B3"]:
        rs = build_root_system(label[0], int(label[1]))
        g = enumerate_weyl(rs)
        assert g.w_o.length == len(rs.positive_roots)
        assert g.mul(g.w_o, g.w_o) == g.identity
        assert all(g.leq(x, g.w_o) for x in g.elements)


def test_bruhat_basics():
    g = enumerate_weyl(build_root_system("A", 2))
    s1, s2 = g.simple
    for w in g.elements:
        assert bruhat_leq(g, g.identity, w)
    assert bruhat_leq(g, s1, g.mul(s1, s2))
    assert not bruhat_leq(g, s1, s2)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "B3", "C3"])
def test_bruhat_matches_subword_oracle(label):
    g = enumerate_weyl(build_root_system(label[0], int(label[1])))
    for x in g.elements:
        for y in g.elements:
            assert g.leq(x, y) == bruhat_leq_subword(g, x, y)


def test_minimal_coset_reps_a2():
    g = enumerate_weyl(build_root_system("A", 2))
    q = minimal_coset_reps(g, {1})  # P = P_{omega_1}
    assert [format_word(x.word) for x in q.min_reps] == ["e", "s1", "s2.s1"]
    assert len(minimal_coset_reps(g, {0, 1})) == 1
    assert len(minimal_coset_reps(g, set())) == len(g)


def test_each_coset_has_unique_minimal_rep():
    g = enumerate_weyl(build_root_system("C", 2))
    q = minimal_coset_reps(g, {0})
    seen = {}
    for x in g.elements:
        rep = q.project(x)
        assert rep in q.pos
        assert rep.length <= x.length
        seen.setdefault(rep, set()).add(x)
    assert len(seen) == len(q.min_reps)
    assert sum(len(c) for c in seen.values()) == len(g)


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "C3"])
def test_involution_reverses_quotient_order(label):
    g = enumerate_weyl(build_root_system(label[0], int(label[1])))
    for subset in [set(), {0}, {g.rank - 1}]:
        q = minimal_coset_reps(g, subset)
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
    g = enumerate_weyl(build_root_system(label[0], int(label[1])))
    for subset in [set(range(g.rank)) - {0}, {0}]:
        q = minimal_coset_reps(g, subset)
        reach = {}
        for w in q.min_reps:  # sorted by length
            below = {w}
            for v in q.of_length(w.length - 1):
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


def _lift_scan(group, quot_p, quot_lam, x_class, w, above):
    lifts = [x for x in quot_p.min_reps if quot_lam.project(x) == x_class]
    if above:
        return [x for x in lifts if group.leq(w, x)]
    return [x for x in lifts if group.leq(x, w)]


@pytest.mark.parametrize("label,coords", [("A2", (1, 0)), ("B2", (0, 1)), ("C2", (0, 1))])
def test_deodhar_uniqueness_exhaustive(label, coords):
    # Every nonempty lift set below (resp. above) a bound has a unique
    # greatest (resp. least) element; the lift operations assert this too.
    rs = build_root_system(label[0], int(label[1]))
    g = enumerate_weyl(rs)
    lam = rs.weight(coords)
    qp = minimal_coset_reps(g, set())
    ql = minimal_coset_reps(g, stabilizer_subset(rs, lam))
    for x_class in ql.min_reps:
        for w in g.elements:
            below = _lift_scan(g, qp, ql, x_class, w, above=False)
            got = lambda_maximal_lift(qp, ql, x_class, w)
            if below:
                assert got == max(below, key=lambda e: e.length)
                assert all(g.leq(c, got) for c in below)
            else:
                assert got is None
            above = _lift_scan(g, qp, ql, x_class, w, above=True)
            got = lambda_minimal_lift(qp, ql, x_class, w)
            if above:
                assert got == min(above, key=lambda e: e.length)
                assert all(g.leq(got, c) for c in above)
            else:
                assert got is None


def test_lift_examples():
    rs = build_root_system("A", 2)
    g = enumerate_weyl(rs)
    lam = rs.fundamental_weight(0)
    ql = minimal_coset_reps(g, stabilizer_subset(rs, lam))
    # regular weight: unique lift, equal to the class itself
    q_reg = minimal_coset_reps(g, stabilizer_subset(rs, rs.weight((1, 1))))
    for x in q_reg.min_reps:
        assert lambda_maximal_lift(q_reg, q_reg, x, g.w_o) == x
    # P = P_lam: the lift of proj(w) below w, within W^lam, is proj(w)
    for w in ql.min_reps:
        assert lambda_maximal_lift(ql, ql, ql.project(w), w) == w
    # A2, P = B, lam = omega_1: lift of s1-class below w_o is the coset max
    qp = minimal_coset_reps(g, set())
    s1 = g.simple[0]
    got = lambda_maximal_lift(qp, ql, s1, g.w_o)
    assert got == g.from_word((0, 1))  # s1.s2, the longer member of s1 W_lam


def test_word_round_trip():
    assert parse_word("e", 3) == ()
    assert parse_word("s1.s2.s1", 3) == (0, 1, 0)
    assert format_word((0, 1, 0)) == "s1.s2.s1"
    assert format_word(()) == "e"
    with pytest.raises(ValueError):
        parse_word("s4", 3)


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_multiplication_tables(label):
    g = enumerate_weyl(build_root_system(label[0], int(label[1])))
    for i, x in enumerate(g.elements):
        assert g.idx(x) == i == x.id
        for j in range(g.rank):
            assert g.lmul_s(j, x) == g.from_word((j,) + x.word)
            assert g.rmul_s(x, j) == g.from_word(x.word + (j,))
    for x in g.elements:
        assert _mat_mul(g.inv(x).action, x.action) == g.identity.action
        for y in g.elements:
            assert g.mul(x, y).action == _mat_mul(x.action, y.action)


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_equal_elements_of_separate_groups_agree(label):
    rs = build_root_system(label[0], int(label[1]))
    g1, g2 = enumerate_weyl(rs), enumerate_weyl(build_root_system(label[0], int(label[1])))
    q1 = minimal_coset_reps(g1, set())
    for x1, x2 in zip(g1.elements, g2.elements):
        assert x1 is not x2
        assert x1 == x2 and hash(x1) == hash(x2)
        assert g1.idx(x2) == g2.idx(x1) == x1.id == x2.id
        assert g1.inv(x2) == g2.inv(x1)
        assert q1.leq(x2, g2.w_o) and q1.leq(g2.identity, x2)
