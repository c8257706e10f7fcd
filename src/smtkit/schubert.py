"""Richardson pairs and boundary/divisor combinatorics on W^P.

Covers in a parabolic quotient are length-difference-1 Bruhat relations
between minimal representatives; such a relation is always a cover in the
full group, so its reflection is pinned down exactly: v = w s_beta with
s_beta = w^{-1} v.  A covering step that fails to produce a reflection is a
hard error, never silently repaired.

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


def _cover_root(quot: ParabolicQuotient, v: WeylElement, w: WeylElement) -> Root:
    """The positive root beta with v = w s_beta, for a cover v < w in W^P."""
    g = quot.group
    t = g.mul(g.inv(w), v)
    beta = g.reflection_root(t)
    if beta is None:
        raise AssertionError("covering pair is not a reflection step")
    return beta


def schubert_divisors(quot: ParabolicQuotient, w: WeylElement) -> list[DivisorStep]:
    """All covering co-relations v < w inside W^P, each with its root."""
    if w not in quot:
        raise ValueError("w must be a minimal coset representative")
    return [
        DivisorStep(parent=w, child=v, beta=_cover_root(quot, v, w))
        for v in quot.covers(w)
    ]


def is_cover(quot: ParabolicQuotient, v: WeylElement, w: WeylElement) -> bool:
    return v.length == w.length - 1 and quot.leq(v, w)


def chevalley_multiplicity(
    quot_lam: ParabolicQuotient, v: WeylElement, w: WeylElement, lam: Weight
) -> int:
    """m_lam(v, w) = <lam, beta^vee> where v = w s_beta covers in W^lam."""
    if not is_cover(quot_lam, v, w):
        raise ValueError("(v, w) is not a covering pair")
    beta = _cover_root(quot_lam, v, w)
    return pairing(quot_lam.group.rs, lam, beta)


def lambda_boundary(
    quot: ParabolicQuotient, w: WeylElement, lam: Weight
) -> list[DivisorStep]:
    """The divisors of the lambda-boundary: those with <lam, beta^vee> > 0.

    Equals all of the boundary exactly when lam is P-regular.
    """
    rs = quot.group.rs
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
    g = quot_lam.group
    beta = g.reflection_root(g.mul(v, g.inv(w)))
    if beta is not None and beta.height == 1:
        return beta
    return None


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
