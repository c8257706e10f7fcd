"""Admissible pairs for a classical-type dominant weight.

A pair (v, w) in W^lam with v <= w is admissible when v = w or when some
saturated chain w = w_1 > w_2 > ... > w_r = v exists whose every step is a
cover of Chevalley multiplicity 2 (a "double chain").  Admissibility is
therefore the reflexive-transitive closure of the multiplicity-2 covering
relation, computed here by dynamic programming up the length grading.

Each admissible pair carries:

  * one witnessing chain (lexicographically least by canonical words, empty
    for trivial pairs), and
  * the vector xi2 = -(w(lam) + v(lam)), twice its T-weight.  That this
    vector is divisible by 2 is part of the theory; a violation raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Weight, is_classical_type, pairing
from .schubert import schubert_divisors
from .weyl import WeylElement, WeylGroup, stabilizer_subset

__all__ = ["AdmissiblePair", "WeightPoset"]


@dataclass(frozen=True)
class AdmissiblePair:
    """An admissible pair (v, w) in W^lam with a witnessing double chain.

    double_chain is the full descending chain (w, ..., v); it is empty for
    trivial pairs (v == w).
    """

    v: WeylElement
    w: WeylElement
    double_chain: tuple[WeylElement, ...]
    xi2: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.v == self.w

    def weight(self) -> Weight:
        """The T-weight xi with 2 xi = xi2; integrality is guaranteed."""
        if any(c % 2 for c in self.xi2):
            raise AssertionError("pair weight is not integral: divisibility violated")
        return Weight(tuple(c // 2 for c in self.xi2))


def _sort_key(x: WeylElement):
    return (x.length, x.word)


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
        self.quotient = group.quotient(stabilizer_subset(rs, lam))
        self._images = self.quotient.orbit(lam)  # x(lam), in the order of min_reps
        # covers below each element, with multiplicities <lam, beta^vee>
        self.covers: dict[WeylElement, list[tuple[WeylElement, int]]] = {}
        for w in self.quotient.min_reps:
            steps = schubert_divisors(self.quotient, w)
            self.covers[w] = sorted(
                ((d.child, pairing(rs, lam, d.beta)) for d in steps),
                key=lambda t: _sort_key(t[0]),
            )
        # reachability along multiplicity-2 covers, bottom-up in length
        self.double_below: dict[WeylElement, frozenset[WeylElement]] = {}
        for w in self.quotient.min_reps:  # min_reps are sorted by length
            reach = {w}
            for child, m in self.covers[w]:
                if m == 2:
                    reach |= self.double_below[child]
            self.double_below[w] = frozenset(reach)

    def is_admissible(self, v: WeylElement, w: WeylElement) -> bool:
        return v in self.double_below[w]

    def witness_chain(self, v: WeylElement, w: WeylElement) -> tuple[WeylElement, ...]:
        """Lex-least double chain (w, ..., v); empty for a trivial pair."""
        if not self.is_admissible(v, w):
            raise ValueError("pair is not admissible")
        if v == w:
            return ()
        chain = [w]
        cur = w
        while cur != v:
            for child, m in self.covers[cur]:
                if m == 2 and v in self.double_below[child]:
                    chain.append(child)
                    cur = child
                    break
            else:
                raise AssertionError("reachability table is inconsistent")
        return tuple(chain)

    def xi2(self, v: WeylElement, w: WeylElement) -> tuple[int, ...]:
        pos, images = self.quotient.pos, self._images
        return tuple(-(a + b) for a, b in zip(images[pos[w]], images[pos[v]]))

    def pair(self, v: WeylElement, w: WeylElement) -> AdmissiblePair:
        p = AdmissiblePair(v, w, self.witness_chain(v, w), self.xi2(v, w))
        p.weight()  # divisibility assertion (Prop on half-sum weights)
        return p

    def pairs(self) -> list[AdmissiblePair]:
        """All admissible pairs, trivial pairs included, sorted by (w, v)."""
        out = []
        for w in self.quotient.min_reps:
            for v in sorted(self.double_below[w], key=_sort_key):
                out.append(self.pair(v, w))
        return out

    def saturated_chains(self, v: WeylElement, w: WeylElement):
        """All saturated chains (w, ..., v) in W^lam, any multiplicities."""
        if v == w:
            yield (w,)
            return
        for child, _m in self.covers[w]:
            if self.quotient.leq(v, child):
                for rest in self.saturated_chains(v, child):
                    yield (w,) + rest

    def chain_multiplicities(self, chain: tuple[WeylElement, ...]) -> list[int]:
        mults = []
        for a, b in zip(chain, chain[1:]):
            for child, m in self.covers[a]:
                if child == b:
                    mults.append(m)
                    break
            else:
                raise ValueError("not a saturated chain")
        return mults

    def all_chains_double(self, v: WeylElement, w: WeylElement) -> bool:
        """Check that EVERY saturated chain of an admissible pair is double.

        This is a theorem-level assertion: a False return would contradict the
        admissibility equivalence, so callers treat it as a bug detector.
        """
        if not self.is_admissible(v, w):
            raise ValueError("pair is not admissible")
        return all(
            all(m == 2 for m in self.chain_multiplicities(chain))
            for chain in self.saturated_chains(v, w)
        )
