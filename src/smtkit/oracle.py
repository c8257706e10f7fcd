"""Independent dimension and character oracles.

Everything the rest of the package counts combinatorially is re-derived here
from two textbook formulas that the combinatorial side never touches: the
Weyl dimension formula (a product of exact rationals, asserted integral) and
the Demazure operators acting on characters.  Agreement between the two
routes is therefore a genuine cross-check, not a tautology.

A character is a plain dict mapping weight-coordinate tuples (fundamental
basis) to integer multiplicities, with zero entries never stored.
"""

from __future__ import annotations

from fractions import Fraction

from .rootdata import RootSystem, Weight, pairing, rho
from .weyl import WeylElement

__all__ = [
    "Character",
    "mass",
    "weyl_dim",
    "demazure_apply",
    "demazure_character",
]

Character = dict[tuple[int, ...], int]


def mass(c: Character) -> int:
    """Total multiplicity (the dimension, for a module's character)."""
    return sum(c.values())


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """dim V(lam) by the Weyl dimension formula, over exact rationals."""
    if not lam.is_dominant:
        raise ValueError("weight is not dominant")
    r = rho(rs)
    num = Fraction(1)
    for beta in rs.positive_roots:
        num *= Fraction(pairing(rs, lam + r, beta), pairing(rs, r, beta))
    if num.denominator != 1:
        raise AssertionError("Weyl dimension formula did not give an integer")
    return int(num)


def demazure_apply(rs: RootSystem, alpha_index: int, c: Character) -> Character:
    """Apply the Demazure operator D_alpha for a simple root to a character.

    On a monomial e^mu with k = <mu, alpha^vee>:

        k >= 0   ->  e^mu + e^{mu-alpha} + ... + e^{mu-k alpha}
        k == -1  ->  0
        k <= -2  ->  -(e^{mu+alpha} + ... + e^{mu+(-k-1) alpha})
    """
    if not 0 <= alpha_index < rs.rank:
        raise ValueError(f"no simple root with index {alpha_index}")
    alpha = tuple(rs.cartan[k][alpha_index] for k in range(rs.rank))
    out: Character = {}

    def add(mu: tuple[int, ...], m: int) -> None:
        out[mu] = out.get(mu, 0) + m
        if out[mu] == 0:
            del out[mu]

    for mu, m in c.items():
        k = mu[alpha_index]
        if k >= 0:
            for t in range(k + 1):
                add(tuple(x - t * a for x, a in zip(mu, alpha)), m)
        elif k <= -2:
            for t in range(1, -k):
                add(tuple(x + t * a for x, a in zip(mu, alpha)), -m)
    return out


def demazure_character(rs: RootSystem, w: WeylElement, lam: Weight) -> Character:
    """The Demazure character D_w e^lam, along the element's canonical word.

    Independence of the chosen reduced word is a theorem; the test suite
    re-derives the character along alternative words and compares.
    """
    if not lam.is_dominant:
        raise ValueError("weight is not dominant")
    return demazure_character_along(rs, w.word, lam)


def demazure_character_along(rs: RootSystem, word, lam: Weight) -> Character:
    """D_{s_{i1}} ... D_{s_{ik}} e^lam for an explicit word (i1, ..., ik).

    Raises if the word is not reduced (detected by a length drop: the number
    of inversions of the product must equal the word length).
    """
    lam = rs.weight(lam.coords)  # rejects the wrong number of coordinates
    word = tuple(word)
    if _word_inversions(rs, word) != len(word):
        raise ValueError("word is not reduced")
    c = {lam.coords: 1}
    for i in reversed(word):
        c = demazure_apply(rs, i, c)
    return c


def _word_inversions(rs: RootSystem, word) -> int:
    """Inversion count of the element spelled by a word, via root images."""
    n = rs.rank
    count = 0
    for beta in rs.positive_roots:
        c = list(beta.coords)
        for i in reversed(word):
            ci = sum(rs.cartan[i][j] * c[j] for j in range(n))
            c[i] -= ci
        if all(x <= 0 for x in c):
            count += 1
    return count
