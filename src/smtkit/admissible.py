"""Admissible pairs for a classical-type dominant weight.

A pair (v, w) in W^lam with v <= w is admissible when v = w or when some
saturated chain w = w_1 > w_2 > ... > w_r = v exists whose every step is a
cover of Chevalley multiplicity 2 (a "double chain").

All of it is read off the quotient.  For a cover v = s_gamma w = w s_beta
the multiplicity <lam, beta^vee> is -<w(lam), gamma^vee>, from the orbit
point w(lam) and the cover's left root.  Admissibility, the closure of the
multiplicity-2 covers, is one position bitset per element, built bottom-up.
The pairs of a poset are built once, on first request; each carries:

  * one witnessing chain (lexicographically least by canonical words, empty
    for trivial pairs), and
  * the vector xi2 = -(w(lam) + v(lam)), twice its T-weight.  That this
    vector is divisible by 2 is part of the theory; a violation raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .rootdata import Weight, is_classical_type
from .weyl import WeylElement, WeylGroup, stabilizer_subset

__all__ = ["AdmissiblePair", "WeightPoset"]


@dataclass(frozen=True)
class AdmissiblePair:
    """An admissible pair (v, w) in W^lam with a witnessing double chain.

    double_chain is the full descending chain (w, ..., v); it is empty for
    trivial pairs (v == w).  Divisibility of xi2 is checked on construction.
    """

    v: WeylElement
    w: WeylElement
    double_chain: tuple[WeylElement, ...]
    xi2: tuple[int, ...]
    _weight: Weight = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(c % 2 for c in self.xi2):
            raise AssertionError("pair weight is not integral: divisibility violated")
        object.__setattr__(self, "_weight", Weight(tuple(c // 2 for c in self.xi2)))

    def weight(self) -> Weight:
        """The T-weight xi with 2 xi = xi2."""
        return self._weight


class WeightPoset:
    """The quotient W^lam with covering multiplicities and admissibility data."""

    def __init__(self, group: WeylGroup, lam: Weight):
        rs = group.rs
        if not lam.is_dominant:
            raise ValueError("weight is not dominant")
        if not is_classical_type(rs, lam):
            raise ValueError(f"{lam.coords} is not of classical type for {rs.cartan_type}")
        self.group = group
        self.rs = rs
        self.lam = lam
        q = self.quotient = group.quotient(stabilizer_subset(rs, lam))
        self._images = q.orbit(lam)  # x(lam), in the order of min_reps
        pos = q.pos
        # covers below each w with multiplicities; _double[i] has bit k when
        # min_reps[k] is below min_reps[i] along multiplicity-2 covers
        self.covers: dict[WeylElement, list[tuple[WeylElement, int]]] = {}
        self._double: list[int] = []
        for i, (w, mu) in enumerate(zip(q.min_reps, self._images)):
            below = self.covers[w] = [
                (v, -sum(a * b for a, b in zip(rs.coroot(gamma), mu)))
                for v, gamma in q.cover_roots(w).items()
            ]
            bits = 1 << i
            for v, m in below:
                if m == 2:
                    bits |= self._double[pos[v]]
            self._double.append(bits)

    def is_admissible(self, v: WeylElement, w: WeylElement) -> bool:
        """False unless both are in W^lam and (v, w) is admissible."""
        pos = self.quotient.pos
        k, i = pos.get(v), pos.get(w)
        return k is not None and i is not None and self._double[i] >> k & 1 == 1

    def witness_chain(self, v: WeylElement, w: WeylElement) -> tuple[WeylElement, ...]:
        """Lex-least double chain (w, ..., v); empty for a trivial pair."""
        if not self.is_admissible(v, w):
            raise ValueError("pair is not admissible")
        if v == w:
            return ()
        pos, bit = self.quotient.pos, 1 << self.quotient.pos[v]
        chain = [w]
        while chain[-1] != v:
            for child, m in self.covers[chain[-1]]:
                if m == 2 and self._double[pos[child]] & bit:
                    chain.append(child)
                    break
            else:
                raise AssertionError("reachability table is inconsistent")
        return tuple(chain)

    def pair(self, v: WeylElement, w: WeylElement) -> AdmissiblePair:
        pos, images = self.quotient.pos, self._images
        xi2 = tuple(-(a + b) for a, b in zip(images[pos[w]], images[pos[v]]))
        return AdmissiblePair(v, w, self.witness_chain(v, w), xi2)

    def pairs(self) -> list[AdmissiblePair]:
        """All admissible pairs, trivial pairs included, sorted by (w, v)."""
        return list(self._pairs)

    @functools.cached_property
    def _pairs(self) -> list[AdmissiblePair]:
        reps, out = self.quotient.min_reps, []
        for w, bits in zip(reps, self._double):
            while bits:  # lowest set bit first: v in position order
                low = bits & -bits
                out.append(self.pair(reps[low.bit_length() - 1], w))
                bits ^= low
        return out
