"""Differential tests for the bitset Bruhat order.

The order ideals are built from orbit covers; they are checked against the
subword property on every type of rank <= 3, against the length-recursive
criterion (a test-local copy, with left multiplication taken from action
matrices) on every pair of A4, B4, C4, D4 and a seeded sample of F4, and
quotient by quotient against the full group's order.
"""

import itertools
import random

import pytest

from smtkit.rootdata import build_root_system
from smtkit.weyl import ParabolicQuotient, WeylGroup
from schubert_reference import bruhat_leq_subword
from weyl_matrices import MatrixOracle, mat_mul, reflection_root

RANK3_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]

_GROUPS = {}


def group_of(label):
    if label not in _GROUPS:
        _GROUPS[label] = WeylGroup(build_root_system(label[0], int(label[1:])))
    return _GROUPS[label]


class RecursiveLeq:
    """Bruhat order by the length-recursive descent criterion

        x <= y  iff  min(x, s x) <= s y    for a left descent s of y,

    memoised on positions in W; s x is looked up by the product of action
    matrices."""

    def __init__(self, g):
        m = MatrixOracle(g)
        self.length = [x.length for x in g.quotient(()).min_reps]
        self.left = [
            [m.index[mat_mul(s, mx)] for s in m.simple] for mx in m.matrix
        ]
        self.memo = {}

    def __call__(self, x, y):
        length, left = self.length, self.left
        if length[x] > length[y]:
            return False
        if x == y:
            return True
        key = (x, y)
        if key not in self.memo:
            j = next(j for j, k in enumerate(left[y]) if length[k] < length[y])
            sy, sx = left[y][j], left[x][j]
            self.memo[key] = self(sx, sy) if length[sx] < length[x] else self(x, sy)
        return self.memo[key]


@pytest.mark.parametrize("label", RANK3_TYPES)
def test_every_pair_matches_subword_oracle(label):
    g = group_of(label)
    elements = g.quotient(()).min_reps
    for x in elements:
        for y in elements:
            assert g.leq(x, y) == bruhat_leq_subword(g, x, y), (x, y)


@pytest.mark.parametrize("label", ["A4", "B4", "C4", "D4"])
def test_every_pair_matches_recursive_criterion(label):
    g = group_of(label)
    ref = RecursiveLeq(g)
    elements = g.quotient(()).min_reps
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            assert g.leq(x, y) == ref(i, j), (x, y)


def test_f4_sample_matches_recursive_criterion():
    g = group_of("F4")
    ref = RecursiveLeq(g)
    rng = random.Random(2001)
    n = len(g)
    elements = g.quotient(()).min_reps
    hits = 0
    for _ in range(20_000):
        x, y = rng.randrange(n), rng.randrange(n)
        got = g.leq(elements[x], elements[y])
        assert got == ref(x, y), (elements[x], elements[y])
        hits += got
    assert 0 < hits < 20_000


@pytest.mark.parametrize("label", RANK3_TYPES)
def test_quotient_order_is_restriction_of_group_order(label):
    g = group_of(label)
    foreign = group_of("A1" if label != "A1" else "A2").simple[0]
    for size in range(g.rank + 1):
        for subset in itertools.combinations(range(g.rank), size):
            q = ParabolicQuotient(g, subset)
            for x in q.min_reps:
                for y in q.min_reps:
                    assert q.leq(x, y) == g.leq(x, y), (subset, x, y)
            outsiders = [foreign] + [g.simple[j] for j in subset]
            for z in outsiders:
                with pytest.raises(KeyError):
                    q.leq(z, q.top())
                with pytest.raises(KeyError):
                    q.leq(g.identity, z)


@pytest.mark.parametrize("label", RANK3_TYPES + ["D4"])
def test_covers_are_reflection_steps(label):
    # v covers-below y in W^P iff l(v) = l(y) - 1 and y^-1 v is a reflection
    g = group_of(label)
    borel = g.quotient(())
    for subset in [(), (0,), tuple(range(1, g.rank))]:
        q = ParabolicQuotient(g, subset)
        for y in q.min_reps:
            expected = [
                v
                for v in q.min_reps
                if v.length == y.length - 1
                and reflection_root(g, borel.from_word(y.word[::-1] + v.word)) is not None
            ]
            assert list(q.cover_roots(y)) == expected
