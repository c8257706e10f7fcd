"""Standard sequences and monomials on Richardson pairs, and union counting.

A degree profile is an ordered tuple of dominant classical-type weights
(lam_1, ..., lam_m), all characters of the same parabolic P.  A monomial is a
choice of one admissible pair per weight; it is standard on the pair (v, w)
when interleaved lifts exist in W^P:

    v <= v~_m <= w~_m <= ... <= v~_1 <= w~_1 <= w.

Certification is greedy from below: v~_m is taken lambda_m-minimal on v,
w~_m lambda_m-minimal on v~_m, and so on upward.  Greedy lifts are least
among all lifts above the running bound (Deodhar), so a greedy failure rules
out every other choice of lifts; the test suite cross-checks this against an
exhaustive search over all lift tuples on small cases.

Standardness is order-sensitive: the factor for lam_1 is the top of the
chain.  Counting on a union of Richardson pairs takes "standard on some
component" verbatim; pairwise intersections are expanded inside the poset
W^P as unions of pairs (maximal lower bounds of the w's against minimal
upper bounds of the v's), which is what makes the inclusion-exclusion
identity checkable for two components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .admissible import AdmissiblePair, WeightPoset
from .rootdata import Weight
from .schubert import RichardsonPair, make_pair
from .weyl import ParabolicQuotient, WeylElement, WeylGroup, unique_extremal

__all__ = [
    "StandardMonomial",
    "RichardsonUnion",
    "StandardContext",
    "UnionCount",
    "make_union",
]


@dataclass(frozen=True)
class StandardMonomial:
    """A sequence of admissible pairs with certifying lifts, when standard.

    lifts, when present, is the ascending chain
    (v~_m, w~_m, ..., v~_1, w~_1) in W^P.
    """

    factors: tuple[AdmissiblePair, ...]
    weights: tuple[Weight, ...]
    lifts: tuple[WeylElement, ...] | None
    total_weight: Weight


@dataclass(frozen=True)
class RichardsonUnion:
    """An irredundant finite union of Richardson pairs."""

    components: tuple[RichardsonPair, ...]


def make_union(quot: ParabolicQuotient, components) -> RichardsonUnion:
    """Drop duplicate components and components contained in another."""
    comps = list(dict.fromkeys(components))
    kept = [
        c
        for i, c in enumerate(comps)
        if not any(
            j != i and quot.leq(comps[j].v, c.v) and quot.leq(c.w, comps[j].w)
            for j in range(len(comps))
        )
    ]
    return RichardsonUnion(tuple(kept))


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
        """The least lift of x_class into W^P above base, via the lift table."""
        cands = [
            x
            for x in self.lift_tables[factor_index].get(x_class, ())
            if self.quot.leq(base, x)
        ]
        if not cands:
            return None
        return unique_extremal(self.quot, cands, want_max=False)

    def certify(self, factors, pair: RichardsonPair) -> tuple[WeylElement, ...] | None:
        """Greedy interleaved lifts from below; None when not standard."""
        factors = tuple(factors)
        if len(factors) != len(self.weights):
            raise ValueError("one factor per weight is required")
        cur = pair.v
        lifts: list[WeylElement] = []
        for i in range(len(factors) - 1, -1, -1):
            f = factors[i]
            a = self.min_lift_above(i, f.v, cur)
            if a is None:
                return None
            b = self.min_lift_above(i, f.w, a)
            if b is None:
                return None
            lifts.extend((a, b))
            cur = b
        if not self.quot.leq(cur, pair.w):
            return None
        return tuple(lifts)

    def monomial(self, factors, pair: RichardsonPair) -> StandardMonomial | None:
        lifts = self.certify(factors, pair)
        if lifts is None:
            return None
        factors = tuple(factors)
        total = Weight((0,) * self.rs.rank)
        for f in factors:
            total = total + f.weight()
        return StandardMonomial(factors, self.weights, lifts, total)

    def enumerate(self, pair: RichardsonPair) -> list[StandardMonomial]:
        out = []
        pair_lists = [p.pairs() for p in self.posets]
        for combo in itertools.product(*pair_lists):
            mono = self.monomial(combo, pair)
            if mono is not None:
                out.append(mono)
        return out

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
        return make_union(self.quot, comps).components

    def standard_on_union(self, union: RichardsonUnion) -> list[StandardMonomial]:
        """Monomials standard on at least one component, without repetition."""
        seen: dict[tuple[AdmissiblePair, ...], StandardMonomial] = {}
        for comp in union.components:
            for mono in self.enumerate(comp):
                seen.setdefault(mono.factors, mono)
        return list(seen.values())

    def count_on_union(self, union: RichardsonUnion) -> UnionCount:
        # each component is enumerated once, for both the count and the
        # inclusion-exclusion terms
        per_comp = [self.enumerate(c) for c in union.components]
        direct = len({mono.factors for monos in per_comp for mono in monos})
        ie = None
        if len(union.components) == 2:
            a, b = union.components
            inter = self.intersection_components(a, b)
            n_inter = (
                len(self.standard_on_union(RichardsonUnion(inter))) if inter else 0
            )
            ie = len(per_comp[0]) + len(per_comp[1]) - n_inter
        return UnionCount(direct, ie)

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

