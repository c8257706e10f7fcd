"""Richardson pairs and boundary/divisor combinatorics on W^P.

Covers in a parabolic quotient are length-difference-1 Bruhat relations
between minimal representatives; such a relation is always a cover in the
full group, so its reflection is pinned down exactly.  The quotient keeps
the left root of each cover, v = s_gamma w, and the right root is
beta = -w^{-1}(gamma), so that v = w s_beta; it is folded along w's word on
root coordinates.  A covering step that fails to produce a positive root is
a hard error, never silently repaired.

Boundaries are plain lists of divisor children; no geometry is represented
beyond the poset data that downstream counting needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Root, Weight, pairing
from .weyl import ParabolicQuotient, WeylElement

__all__ = [
    "RichardsonPair",
    "DivisorStep",
    "schubert_divisors",
    "chevalley_multiplicity",
    "lambda_boundary",
    "moving_root",
    "richardson_contains",
    "extremal_restricts_nonzero",
]


@dataclass(frozen=True)
class RichardsonPair:
    """A pair (v, w) in W^P with v <= w, indexing the intersection X_w ^ X^v."""

    v: WeylElement
    w: WeylElement

    @property
    def dimension(self) -> int:
        return self.w.length - self.v.length


def make_pair(quot: ParabolicQuotient, v: WeylElement, w: WeylElement) -> RichardsonPair:
    if v not in quot or w not in quot:
        raise ValueError("pair members must be minimal coset representatives")
    if not quot.leq(v, w):
        raise ValueError("empty Richardson pair: v is not below w")
    return RichardsonPair(v, w)


@dataclass(frozen=True)
class DivisorStep:
    """A covering relation child < parent in W^P, with its reflection root.

    multiplicity is filled in only by the Chevalley-aware operations.
    """

    parent: WeylElement
    child: WeylElement
    beta: Root
    multiplicity: int | None = None


def _cover_root(rs, w: WeylElement, gamma: Root) -> Root:
    """The positive root beta = -w^{-1}(gamma) with v = w s_beta, for the
    cover v = s_gamma w: s_i(c) = c - <c, alpha_i^vee> e_i along w's word."""
    c = list(gamma.coords)
    for i in w.word:
        c[i] -= sum(a * b for a, b in zip(rs.cartan[i], c))
    beta = Root.from_coords(tuple(-x for x in c))
    if not beta.is_positive:
        raise AssertionError("covering pair is not a reflection step")
    return beta


def schubert_divisors(quot: ParabolicQuotient, w: WeylElement) -> list[DivisorStep]:
    """All covering co-relations v < w inside W^P, each with its root."""
    if w not in quot:
        raise ValueError("w must be a minimal coset representative")
    rs = quot.group.rs
    return [
        DivisorStep(parent=w, child=v, beta=_cover_root(rs, w, gamma))
        for v, gamma in quot.cover_roots(w).items()
    ]


def is_cover(quot: ParabolicQuotient, v: WeylElement, w: WeylElement) -> bool:
    return v.length == w.length - 1 and quot.leq(v, w)


def chevalley_multiplicity(
    quot_lam: ParabolicQuotient, v: WeylElement, w: WeylElement, lam: Weight
) -> int:
    """m_lam(v, w) = <lam, beta^vee> where v = w s_beta covers in W^lam."""
    if not is_cover(quot_lam, v, w):
        raise ValueError("(v, w) is not a covering pair")
    rs = quot_lam.group.rs
    return pairing(rs, lam, _cover_root(rs, w, quot_lam.cover_roots(w)[v]))


def lambda_boundary(
    quot: ParabolicQuotient, w: WeylElement, lam: Weight
) -> list[DivisorStep]:
    """The divisors of the lambda-boundary: those with <lam, beta^vee> > 0.

    Equals all of the boundary exactly when lam is P-regular.
    """
    rs = quot.group.rs
    lam = rs.weight(lam.coords)  # rejects the wrong number of coordinates
    if not lam.is_dominant:
        raise ValueError("weight is not dominant")
    if any(lam.coords[i] != 0 for i in quot.subset):
        raise ValueError("weight is not a character of P")
    out = []
    for step in schubert_divisors(quot, w):
        m = pairing(rs, lam, step.beta)
        if m > 0:
            out.append(DivisorStep(step.parent, step.child, step.beta, m))
    return out


def moving_root(quot_lam: ParabolicQuotient, v: WeylElement, w: WeylElement) -> Root | None:
    """The simple alpha with v = s_alpha w, if the divisor is moving, else None."""
    if not is_cover(quot_lam, v, w):
        raise ValueError("(v, w) is not a covering pair")
    gamma = quot_lam.cover_roots(w)[v]  # v = s_gamma w
    return gamma if gamma.height == 1 else None


def richardson_contains(
    quot: ParabolicQuotient, outer: RichardsonPair, inner: RichardsonPair
) -> bool:
    """Containment of T-fixed-point intervals: v <= x and y <= w."""
    return quot.leq(outer.v, inner.v) and quot.leq(inner.w, outer.w)


def extremal_restricts_nonzero(
    quot_p: ParabolicQuotient,
    quot_lam: ParabolicQuotient,
    x_class: WeylElement,
    pair: RichardsonPair,
) -> bool:
    """Whether the extremal section indexed by x_class survives on the pair.

    True iff some lift x in W^P of x_class satisfies v <= x <= w.
    """
    return any(
        quot_p.leq(pair.v, x) and quot_p.leq(x, pair.w)
        for x in quot_p.lifts(quot_lam).get(x_class, ())
    )
