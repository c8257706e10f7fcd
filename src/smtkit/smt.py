"""Standard sequences and monomials on Richardson pairs, and union counting.

A degree profile is an ordered tuple of dominant classical-type weights
(lam_1, ..., lam_m), all characters of the same parabolic P.  A monomial is a
choice of one admissible pair per weight; it is standard on the pair (v, w)
when interleaved lifts exist in W^P:

    v <= v~_m <= w~_m <= ... <= v~_1 <= w~_1 <= w.

One walk decides standardness.  It grows chains from the bottom factor up,
level by level: each prefix (factors i..m-1 with their lifts) carries its
top lift as the bound, and factor i extends it by v~_i lambda_i-minimal on
the bound and w~_i lambda_i-minimal on v~_i, from ``min_lift_above``: greedy
lifts are least among all lifts above the running bound (Deodhar), and the
lifts of a standard monomial ascend from v to w.  So a prefix whose greedy
lift is missing, or is not <= w, has no completion at all, and dropping it
there loses nothing; the test suite cross-checks the greedy rule against an
exhaustive search over all lift tuples on small cases.  ``enumerate`` walks
every factor's admissible pairs and sorts the survivors by their choice
indices, which is the order of the cartesian product of the pair lists;
``certify`` walks one pair per factor.

Standardness is order-sensitive: the factor for lam_1 is the top of the
chain.  A union of Richardson pairs is the tuple of its irredundant
components (``make_union``).  Counting on it takes "standard on some
component" verbatim; pairwise intersections are expanded inside the poset
W^P as unions of pairs (maximal lower bounds of the w's against minimal
upper bounds of the v's), which is what makes the inclusion-exclusion
identity checkable for two components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissible import AdmissiblePair, WeightPoset
from .rootdata import Weight
from .schubert import RichardsonPair, make_pair
from .weyl import ParabolicQuotient, WeylElement, WeylGroup

__all__ = [
    "StandardMonomial",
    "StandardContext",
    "UnionCount",
    "make_union",
]


@dataclass(frozen=True)
class StandardMonomial:
    """A standard sequence of admissible pairs with its certifying lifts.

    lifts is the ascending chain (v~_m, w~_m, ..., v~_1, w~_1) in W^P.
    """

    factors: tuple[AdmissiblePair, ...]
    lifts: tuple[WeylElement, ...]
    total_weight: Weight


def make_union(quot: ParabolicQuotient, components) -> tuple[RichardsonPair, ...]:
    """An irredundant union of Richardson pairs: the components kept after
    dropping duplicates and components contained in another."""
    comps = list(dict.fromkeys(components))
    kept = [
        c
        for i, c in enumerate(comps)
        if not any(
            j != i and quot.leq(comps[j].v, c.v) and quot.leq(c.w, comps[j].w)
            for j in range(len(comps))
        )
    ]
    return tuple(kept)


@dataclass(frozen=True)
class UnionCount:
    """Direct union count, with the two-component inclusion-exclusion value."""

    count: int
    inclusion_exclusion: int | None


class StandardContext:
    """All data for one (group, parabolic subset, degree profile) setting."""

    def __init__(self, group: WeylGroup, parabolic_subset, weights):
        self.group = group
        self.rs = group.rs
        self.quot = group.quotient(parabolic_subset)
        # rs.weight rejects the wrong number of coordinates before lam.coords[i]
        self.weights: tuple[Weight, ...] = tuple(self.rs.weight(lam.coords) for lam in weights)
        for lam in self.weights:
            if any(lam.coords[i] != 0 for i in self.quot.subset):
                raise ValueError(
                    f"{lam.coords} is not a character of the chosen parabolic"
                )
        # WeightPoset validates dominance and classical type
        self.posets: tuple[WeightPoset, ...] = tuple(
            WeightPoset(group, lam) for lam in self.weights
        )
        # the lift table of each factor's W^lam into W^P
        self.lift_tables = tuple(self.quot.lifts(p.quotient) for p in self.posets)

    def pair(self, v: WeylElement, w: WeylElement) -> RichardsonPair:
        return make_pair(self.quot, v, w)

    def min_lift_above(
        self, factor_index: int, x_class: WeylElement, base: WeylElement
    ) -> WeylElement | None:
        """The least lift of x_class into W^P above base (lambda-minimal on
        base), or None.  By Deodhar's lemma it is unique.  The lift table is
        in shortlex order and x < y forces l(x) < l(y), so it is the first
        lift above base; it is compared with every other, and a failure
        raises rather than pick arbitrarily."""
        leq = self.quot.leq
        above = [x for x in self.lift_tables[factor_index].get(x_class, ()) if leq(base, x)]
        if not above:
            return None
        least = above[0]
        if not all(leq(least, x) for x in above[1:]):
            raise AssertionError("Deodhar uniqueness failed: no unique extremal lift")
        return least

    def certify(self, factors, pair: RichardsonPair) -> tuple[WeylElement, ...] | None:
        """Greedy interleaved lifts from below; None when not standard."""
        factors = tuple(factors)
        if len(factors) != len(self.weights):
            raise ValueError("one factor per weight is required")
        found = self._walk([(f,) for f in factors], pair)
        return found[0].lifts if found else None

    def enumerate(self, pair: RichardsonPair) -> list[StandardMonomial]:
        return self._walk([p.pairs() for p in self.posets], pair)

    def _walk(self, choices, pair: RichardsonPair) -> list[StandardMonomial]:
        """The standard monomials on pair with factor i drawn from choices[i],
        in product order of the choices."""
        leq = self.quot.leq
        # a state is (choice indices, factors, lifts, bound) for factors i..m-1
        states = [((), (), (), pair.v)] if leq(pair.v, pair.w) else []
        for i in range(len(choices) - 1, -1, -1):
            grown = []
            for idx, fs, lifts, bound in states:
                for j, f in enumerate(choices[i]):
                    a = self.min_lift_above(i, f.v, bound)
                    if a is None:
                        continue
                    b = self.min_lift_above(i, f.w, a)
                    if b is not None and leq(b, pair.w):
                        grown.append(((j,) + idx, (f,) + fs, lifts + (a, b), b))
            states = grown
        states.sort(key=lambda s: s[0])
        zero = Weight((0,) * self.rs.rank)
        return [
            StandardMonomial(fs, lifts, sum((f.weight() for f in fs), zero))
            for _idx, fs, lifts, _bound in states
        ]

    # -- unions ------------------------------------------------------------

    def intersection_components(
        self, a: RichardsonPair, b: RichardsonPair
    ) -> tuple[RichardsonPair, ...]:
        """The intersection of two pairs as a union of pairs inside W^P."""
        vs = self.quot.min_upper_bounds((a.v, b.v))
        ws = self.quot.max_lower_bounds((a.w, b.w))
        comps = [
            RichardsonPair(v, w)
            for v in vs
            for w in ws
            if self.quot.leq(v, w)
        ]
        return make_union(self.quot, comps)

    def count_on_union(self, union: tuple[RichardsonPair, ...]) -> UnionCount:
        """Count the monomials standard on at least one component.

        Each component is enumerated once, for both the count and the
        inclusion-exclusion terms."""
        sets = [{m.factors for m in self.enumerate(c)} for c in union]
        ie = None
        if len(sets) == 2:
            inter = {
                m.factors
                for c in self.intersection_components(*union)
                for m in self.enumerate(c)
            }
            ie = len(sets[0]) + len(sets[1]) - len(inter)
        return UnionCount(len(set().union(*sets)), ie)

    # -- filtration blocks (single weight, P = P_lam) -----------------------

    def filtration_partition(self, pair: RichardsonPair) -> dict[WeylElement, int]:
        """Partition the standard monomials on (v, w) by the class of e(pi).

        Only meaningful in the single-weight case with P = P_lam, where the
        index set collapses to admissible pairs and e(pi) is the pair's v.
        """
        if len(self.weights) != 1:
            raise ValueError("filtration partition is a single-weight operation")
        if self.quot.subset != self.posets[0].quotient.subset:
            raise ValueError("filtration partition requires P = P_lam")
        blocks: dict[WeylElement, int] = {}
        for mono in self.enumerate(pair):
            e_class = mono.factors[0].v
            blocks[e_class] = blocks.get(e_class, 0) + 1
        return blocks

