import pytest

from smtkit.rootdata import Weight, build_root_system, is_classical_type, pairing
from smtkit.schubert import (
    RichardsonPair,
    chevalley_multiplicity,
    extremal_restricts_nonzero,
    is_cover,
    lambda_boundary,
    make_pair,
    moving_root,
    richardson_contains,
    schubert_divisors,
)
from smtkit.weyl import ParabolicQuotient, WeylGroup, stabilizer_subset
from weyl_matrices import MatrixOracle


def classical_weights(rs):
    """All dominant weights of classical type (coordinate sum <= 2 suffices)."""
    out = []
    n = rs.rank
    for total in (1, 2):
        stack = [((), total)]
        while stack:
            prefix, rem = stack.pop()
            if len(prefix) == n:
                if rem == 0:
                    lam = rs.weight(prefix)
                    if is_classical_type(rs, lam):
                        out.append(lam)
                continue
            for c in range(rem + 1):
                stack.append((prefix + (c,), rem - c))
    return out


def lambda_quotient(rs, group, lam):
    return ParabolicQuotient(group, stabilizer_subset(rs, lam))


def covering_pairs(quot):
    for w in quot.min_reps:
        for step in schubert_divisors(quot, w):
            yield step.child, w, step.beta


A2 = build_root_system("A", 2)
GA2 = WeylGroup(A2)
QB = ParabolicQuotient(GA2, set())


def test_divisors_of_identity_empty():
    assert schubert_divisors(QB, GA2.identity) == []


def test_divisors_a2():
    s1, s2 = GA2.simple
    children = {d.child for d in schubert_divisors(QB, GA2.mul(s1, s2))}
    assert children == {s1, s2}
    assert len(schubert_divisors(QB, GA2.w_o)) == 2


def test_divisor_roots_recover_cover():
    for label in ["A2", "B2", "C2"]:
        rs = build_root_system(label[0], int(label[1]))
        g = WeylGroup(rs)
        m = MatrixOracle(g)
        for subset in [set(), {0}]:
            q = ParabolicQuotient(g, subset)
            for v, w, beta in covering_pairs(q):
                s_beta = g.elements[m.reflection_id[beta.coords]]
                assert g.mul(w, s_beta) == v


def test_chevalley_minuscule_always_one():
    a3 = build_root_system("A", 3)
    g = WeylGroup(a3)
    lam = a3.fundamental_weight(1)
    q = lambda_quotient(a3, g, lam)
    for v, w, _ in covering_pairs(q):
        assert chevalley_multiplicity(q, v, w, lam) == 1


def test_chevalley_c2_has_a_double():
    c2 = build_root_system("C", 2)
    g = WeylGroup(c2)
    lam = c2.fundamental_weight(1)
    q = lambda_quotient(c2, g, lam)
    mults = [chevalley_multiplicity(q, v, w, lam) for v, w, _ in covering_pairs(q)]
    assert 2 in mults


def test_chevalley_consistent_with_pairing():
    c2 = build_root_system("C", 2)
    g = WeylGroup(c2)
    lam = c2.weight((2, 0))
    q = lambda_quotient(c2, g, lam)
    for v, w, beta in covering_pairs(q):
        assert chevalley_multiplicity(q, v, w, lam) == pairing(c2, lam, beta)


def test_chevalley_rejects_non_cover():
    q = QB
    with pytest.raises(ValueError):
        chevalley_multiplicity(q, GA2.identity, GA2.w_o, A2.weight((1, 1)))


def test_moving_root_rejects_non_cover():
    with pytest.raises(ValueError):
        moving_root(QB, GA2.identity, GA2.w_o)
    s1, s2 = GA2.simple
    assert moving_root(QB, s2, GA2.mul(s1, s2)) == A2.simple_roots[0]


def test_lambda_boundary_vs_divisors():
    lam_reg = A2.weight((1, 1))
    for w in GA2.elements:
        sd = {d.child for d in schubert_divisors(QB, w)}
        lb = {d.child for d in lambda_boundary(QB, w, lam_reg)}
        assert lb == sd  # regular weight: boundary equals the full divisor set
    assert lambda_boundary(QB, GA2.w_o, A2.weight((0, 0))) == []
    # non-regular weight: contained, and strict somewhere
    lam = A2.fundamental_weight(0)
    strict = False
    for w in GA2.elements:
        sd = {d.child for d in schubert_divisors(QB, w)}
        lb = {d.child for d in lambda_boundary(QB, w, lam)}
        assert lb <= sd
        strict = strict or lb < sd
    assert strict


def test_lambda_boundary_requires_character_of_p():
    g = GA2
    q = ParabolicQuotient(g, {1})
    with pytest.raises(ValueError):
        lambda_boundary(q, q.min_reps[1], A2.weight((1, 1)))


@pytest.mark.parametrize("coords", [(1,), (1, 0, 0, 1), (1, 0, 0, 0, 5)])
def test_lambda_boundary_rejects_wrong_length_weight(coords):
    # A3 with P = {s3}: a short weight used to raise IndexError and a long
    # one to return [] at w = e
    a3 = build_root_system("A", 3)
    g = WeylGroup(a3)
    q = ParabolicQuotient(g, {2})
    for w in (g.identity, q.top()):
        with pytest.raises(ValueError):
            lambda_boundary(q, w, Weight(coords))


def test_multiplicity_values_on_boundary_steps():
    c2 = build_root_system("C", 2)
    g = WeylGroup(c2)
    lam = c2.fundamental_weight(1)
    q = lambda_quotient(c2, g, lam)
    for w in q.min_reps:
        for step in lambda_boundary(q, w, lam):
            assert step.multiplicity == chevalley_multiplicity(q, step.child, w, lam)
            assert step.multiplicity > 0


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C2", "C3"])
def test_double_implies_moving(label):
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    for lam in classical_weights(rs):
        q = lambda_quotient(rs, g, lam)
        for v, w, _ in covering_pairs(q):
            if chevalley_multiplicity(q, v, w, lam) == 2:
                assert moving_root(q, v, w) is not None


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C2", "C3"])
def test_moving_divisor_dichotomy(label):
    # moving divisor v = s_alpha w: every u <= w satisfies u <= v or s_alpha u <= v
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    m = MatrixOracle(g)
    for lam in classical_weights(rs):
        q = lambda_quotient(rs, g, lam)
        for v, w, _ in covering_pairs(q):
            alpha = moving_root(q, v, w)
            if alpha is None:
                continue
            s_alpha = g.elements[m.reflection_id[alpha.coords]]
            for u in q.min_reps:
                if q.leq(u, w):
                    su = q.from_word(g.mul(s_alpha, u).word)
                    assert q.leq(u, v) or q.leq(su, v)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C2", "C3"])
def test_multiplicity_transport(label):
    # v = s_alpha w moving, u another divisor of w: s_alpha u is a divisor of
    # v with the same Chevalley multiplicity
    rs = build_root_system(label[0], int(label[1]))
    g = WeylGroup(rs)
    m = MatrixOracle(g)
    for lam in classical_weights(rs):
        q = lambda_quotient(rs, g, lam)
        for v, w, _ in covering_pairs(q):
            alpha = moving_root(q, v, w)
            if alpha is None:
                continue
            s_alpha = g.elements[m.reflection_id[alpha.coords]]
            for step in schubert_divisors(q, w):
                u = step.child
                if u == v:
                    continue
                su = g.mul(s_alpha, u)
                assert su in q.pos, "transported divisor left the quotient"
                assert is_cover(q, su, v)
                assert chevalley_multiplicity(q, su, v, lam) == chevalley_multiplicity(
                    q, u, w, lam
                )


def test_richardson_contains_basics():
    s1 = GA2.simple[0]
    full = make_pair(QB, GA2.identity, GA2.w_o)
    point = make_pair(QB, s1, s1)
    assert richardson_contains(QB, full, point)
    assert richardson_contains(QB, point, point)
    assert not richardson_contains(QB, point, full)
    for v in GA2.elements:
        for w in GA2.elements:
            if QB.leq(v, w):
                assert richardson_contains(QB, full, make_pair(QB, v, w))


def test_pair_requires_comparability():
    s1, s2 = GA2.simple
    with pytest.raises(ValueError):
        make_pair(QB, s1, s2)


def test_containment_matches_fixed_point_sets_exhaustively():
    # containment of pairs agrees with nesting of their fixed-point intervals
    pairs = [
        make_pair(QB, v, w)
        for v in GA2.elements
        for w in GA2.elements
        if QB.leq(v, w)
    ]
    for outer in pairs:
        fo = set(QB.interval(outer.v, outer.w))
        for inner in pairs:
            fi = set(QB.interval(inner.v, inner.w))
            assert richardson_contains(QB, outer, inner) == (fi <= fo)


def test_extremal_restriction_truth_table():
    lam = A2.fundamental_weight(0)
    ql = lambda_quotient(A2, GA2, lam)
    for x_class in ql.min_reps:
        for v in GA2.elements:
            for w in GA2.elements:
                if not QB.leq(v, w):
                    continue
                pair = make_pair(QB, v, w)
                expected = any(
                    ql.from_word(x.word) == x_class and QB.leq(v, x) and QB.leq(x, w)
                    for x in GA2.elements
                )
                assert extremal_restricts_nonzero(QB, ql, x_class, pair) == expected
    # the lift w(lam) of the top always works
    for w in GA2.elements:
        pair = make_pair(QB, GA2.identity, w)
        assert extremal_restricts_nonzero(QB, ql, ql.from_word(w.word), pair)


def test_extremal_restriction_regular_weight():
    # regular weight: the lift is unique, so the predicate is v <= x <= w
    q_reg = lambda_quotient(A2, GA2, A2.weight((1, 1)))
    for x in GA2.elements:
        for v in GA2.elements:
            for w in GA2.elements:
                if QB.leq(v, w):
                    pair = make_pair(QB, v, w)
                    assert extremal_restricts_nonzero(QB, q_reg, x, pair) == (
                        QB.leq(v, x) and QB.leq(x, w)
                    )


def test_image_of_richardson_need_not_be_richardson():
    # SL(3), pair (v, w) = (s2, s2s1), lam = omega_1: the fixed points of the
    # image in the omega_1 quotient are the classes of {s2, s2s1}, which is
    # not an interval of the quotient poset.
    s1, s2 = GA2.simple
    w = GA2.mul(s2, s1)
    pair = make_pair(QB, s2, w)
    lam = A2.fundamental_weight(0)
    ql = lambda_quotient(A2, GA2, lam)
    image_classes = {ql.from_word(x.word) for x in QB.interval(pair.v, pair.w)}
    assert image_classes == {ql.from_word(s2.word), ql.from_word(w.word)}
    assert image_classes == {GA2.identity, w}  # e_{omega_1} and e_{s2s1(omega_1)}
    intervals = {
        frozenset(ql.interval(a, b))
        for a in ql.min_reps
        for b in ql.min_reps
        if ql.leq(a, b)
    }
    assert frozenset(image_classes) not in intervals
