"""Boundary divisors of Schubert varieties in W^P, with their reflection roots.

Covers in a parabolic quotient are length-difference-1 Bruhat relations
between minimal representatives; such a relation is always a cover in the
full group, so its reflection is pinned down exactly.  The quotient keeps
the left root of each cover, v = s_gamma w, and the right root is
beta = -w^{-1}(gamma), so that v = w s_beta; it is folded along w's word on
root coordinates.  A covering step that fails to produce a positive root is
a hard error, never silently repaired.

Richardson pairs live in ``smt``; the Chevalley multiplicities, moving
roots and other Schubert lemmas that only the tests state live in
``tests/schubert_reference.py``.  This module keeps ``schubert_divisors``
alone because the benchmark tracer (``smtbench/tracing.py``) patches it; it
goes with ROADMAP item 9, the benchmark change that drops that counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Root
from .weyl import ParabolicQuotient, WeylElement

__all__ = ["DivisorStep", "schubert_divisors"]


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
