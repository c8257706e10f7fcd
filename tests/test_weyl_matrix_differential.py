"""Differential test of the matrix-free Weyl layer against action matrices.

Every element is identified by its canonical word, and every quotient and
weight image is read off orbit points; here each element's action matrix is
rebuilt from its word (tests/weyl_matrices.py) and every query is recomputed
from the matrices: positions and equality, reflections, W^P, covers with their
roots, Chevalley multiplicities and moving roots on every parabolic subset,
weight orbits, projections, quotient words, the order-reversing involution
and per-quotient orbits, and for each classical fundamental weight the lift
tables and the admissible pairs (words, xi2 and witness chains).  Types of
rank <= 4 are swept; F4 is swept on its Borel quotient only, except for the
point-based queries, which cover its every subset.  Quotient elements are
compared with W by word.
"""

import itertools

import pytest

from smtkit.admissible import WeightPoset
from smtkit.rootdata import Weight, build_root_system, is_classical_type
from smtkit.schubert import schubert_divisors
from smtkit.weyl import ParabolicQuotient, WeylGroup
from schubert_reference import chevalley_multiplicity, moving_root
from weyl_matrices import MatrixOracle, mat_mul, mat_vec, reflection_root

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]

_CACHE = {}


def setting(label):
    if label not in _CACHE:
        g = WeylGroup(build_root_system(label[0], int(label[1:])))
        _CACHE[label] = (g, MatrixOracle(g))
    return _CACHE[label]


def subsets(label, rank):
    if label == "F4":
        return [()]
    return [s for k in range(rank + 1) for s in itertools.combinations(range(rank), k)]


def oracle_min_reps(g, m, subset):
    """The shortest element of each coset x W_P, a coset named by x(rho_P)."""
    rho_p = tuple(0 if i in subset else 1 for i in range(g.rank))
    best = {}
    for x in m.elements:
        key = m.apply(x, rho_p)
        if key not in best or x.length < best[key].length:
            best[key] = x
    return sorted(best.values(), key=m.pos.__getitem__)


def oracle_covers(g, m, ids, y):
    """(child, root) for the v = y s_beta in W^P (ids) of length l(y) - 1."""
    out = []
    for beta, k in m.reflection_id.items():
        v = m.index[mat_mul(m.word_matrix(y.word), m.matrix[k])]
        if v in ids and m.elements[v].length == y.length - 1:
            out.append((v, beta))
    return sorted(out)


@pytest.mark.parametrize("label", TYPES)
def test_identity_and_reflections_match_matrices(label):
    g, m = setting(label)
    g2 = WeylGroup(build_root_system(label[0], int(label[1:])))
    n = len(g)
    borel = g.quotient(())
    pos, elements, elements2 = borel.pos, borel.min_reps, g2.quotient(()).min_reps
    assert len(set(elements)) == len(pos) == len(m.index) == n
    for i, x in enumerate(elements):
        assert pos[x] == i
        x2, other = elements2[i], elements2[(i + 1) % n]
        assert m.word_matrix(x2.word) == m.matrix[i]
        assert x == x2 and hash(x) == hash(x2) and pos[x2] == i
        assert x != other
        beta = reflection_root(g, x)
        assert (beta.coords if beta is not None else None) == m.root_of.get(i)


@pytest.mark.parametrize("label", TYPES)
def test_orbit_matches_matrices(label):
    g, m = setting(label)
    n = g.rank
    weights = [(1,) * n, (3, -1, 2, 0)[:n]] + [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    for mu in weights:
        assert g.quotient(()).orbit(Weight(mu)) == [mat_vec(a, mu) for a in m.matrix]


@pytest.mark.parametrize("label", TYPES)
def test_quotients_match_matrices(label):
    g, m = setting(label)
    for subset in subsets(label, g.rank):
        q = ParabolicQuotient(g, subset)
        reps = oracle_min_reps(g, m, subset)
        assert [x.word for x in q.min_reps] == [x.word for x in reps], subset
        rho_p = tuple(0 if i in subset else 1 for i in range(g.rank))
        ids = {m.pos[x] for x in reps}
        for y in reps:
            want = oracle_covers(g, m, ids, y)
            got = [m.pos[v] for v in q.cover_roots(y)]
            assert got == [v for v, _ in want], (subset, y)
            steps = schubert_divisors(q, y)
            assert [(m.pos[d.child], d.beta.coords) for d in steps] == want, (
                subset, y)
            for v, beta in want:
                child = m.elements[v]
                got = chevalley_multiplicity(q, child, y, Weight(rho_p))
                assert got == m.multiplicity(rho_p, beta), (subset, y, child)
                simple = [
                    i for i, s in enumerate(m.simple)
                    if mat_mul(s, m.word_matrix(y.word)) == m.matrix[v]
                ]
                alpha = moving_root(q, child, y)
                assert (alpha.coords if alpha is not None else None) == (
                    tuple(1 if k == simple[0] else 0 for k in range(g.rank))
                    if simple else None
                ), (subset, y, child)


def _key(x):
    return (x.length, x.word)


def oracle_pairs(g, m, lam, reps):
    """Admissible pairs by the closure of multiplicity-2 covers, with the
    lex-least witness chain and xi2 = -(w(lam) + v(lam)), from matrices."""
    ids = {m.pos[x] for x in reps}
    covers = {
        m.pos[y]: sorted(
            ((m.elements[v], m.multiplicity(lam, beta)) for v, beta in oracle_covers(g, m, ids, y)),
            key=lambda t: _key(t[0]),
        )
        for y in reps
    }
    below = {}
    for y in reps:
        reach = {m.pos[y]}
        for child, mult in covers[m.pos[y]]:
            if mult == 2:
                reach |= below[m.pos[child]]
        below[m.pos[y]] = reach
    out = []
    for w in reps:
        for v in sorted((m.elements[k] for k in below[m.pos[w]]), key=_key):
            chain, cur = [], w
            while v != w and cur != v:
                chain.append(cur.word)
                cur = next(
                    c for c, mult in covers[m.pos[cur]] if mult == 2 and m.pos[v] in below[m.pos[c]]
                )
            if chain:
                chain.append(v.word)
            xi2 = tuple(-(a + b) for a, b in zip(m.apply(w, lam), m.apply(v, lam)))
            out.append((v.word, w.word, tuple(chain), xi2))
    return out


@pytest.mark.parametrize("label", TYPES)
def test_lifts_and_pairs_match_matrices(label):
    g, m = setting(label)
    rs = g.rs
    checked = 0
    for i in range(g.rank):
        lam = rs.fundamental_weight(i)
        if not is_classical_type(rs, lam):
            continue
        checked += 1
        stab = tuple(j for j in range(g.rank) if j != i)
        reps_lam = oracle_min_reps(g, m, stab)
        class_of = {m.apply(c, lam.coords): c.word for c in reps_lam}
        q_lam = ParabolicQuotient(g, stab)
        for subset in subsets(label, g.rank):
            if not set(subset) <= set(stab):
                continue
            want = {}
            for x in oracle_min_reps(g, m, subset):
                want.setdefault(class_of[m.apply(x, lam.coords)], []).append(x.word)
            got = ParabolicQuotient(g, subset).lifts(q_lam)
            assert {c.word: [x.word for x in xs] for c, xs in got.items()} == want, (lam, subset)
        got_pairs = [
            (p.v.word, p.w.word, tuple(c.word for c in p.double_chain), p.xi2)
            for p in WeightPoset(g, lam).pairs()
        ]
        assert got_pairs == oracle_pairs(g, m, lam.coords, reps_lam), lam
    assert checked


@pytest.mark.parametrize("label", TYPES)
def test_point_queries_match_matrices(label):
    # projections by from_word, quotient from_word, the involution w -> w_o w w_{o,P} and the
    # per-quotient orbit, on every parabolic subset
    g, m = setting(label)
    n = g.rank
    w_o = max(m.elements, key=lambda x: x.length)
    assert g.w_o == w_o and g.w_o.word == w_o.word
    for subset in [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]:
        q = ParabolicQuotient(g, subset)
        rho_p = tuple(0 if i in subset else 1 for i in range(n))
        rep_of = {m.apply(x, rho_p): x for x in oracle_min_reps(g, m, subset)}
        w_op = max((x for x in m.elements if m.apply(x, rho_p) == rho_p), key=lambda x: x.length)
        s_rho_p = [mat_vec(s, rho_p) for s in m.simple]
        for x in m.elements:
            assert q.from_word(x.word).word == rep_of[m.apply(x, rho_p)].word, (subset, x)
            for j in range(n):
                xs_j = rep_of[mat_vec(m.word_matrix(x.word), s_rho_p[j])]  # x s_j (rho_P)
                assert q.from_word(x.word + (j,)).word == xs_j.word, (subset, x, j)
        for w in q.min_reps:
            image = mat_mul(
                mat_mul(m.word_matrix(w_o.word), m.word_matrix(w.word)), m.word_matrix(w_op.word)
            )
            want = m.elements[m.index[image]]
            assert q.order_reversing_involution(w).word == want.word, (subset, w)
        for mu in [(1,) * n, (3, -1, 2, 0)[:n], rho_p]:
            assert q.orbit(Weight(mu)) == [m.apply(x, mu) for x in q.min_reps], (subset, mu)
