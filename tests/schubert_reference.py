"""Test-only Schubert and Bruhat references.

The program calls none of these; the tests state the paper's lemmas through
them (acceptance criterion 10 among them) and cross-check the package
against them:

  * Chevalley multiplicities, moving roots, lambda-boundaries and
    extremal-section nonvanishing, read off the quotient's covers and
    ``smtkit.schubert.schubert_divisors``;
  * the exponential subword test of Bruhat order, independent of the
    bitset order ideals;
  * the check that every saturated chain of an admissible pair is double.
"""

import itertools

from smtkit.rootdata import Root, Weight, pairing
from smtkit.schubert import DivisorStep, _cover_root, schubert_divisors
from smtkit.smt import RichardsonPair
from smtkit.weyl import ParabolicQuotient, WeylElement, WeylGroup


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


def bruhat_leq_subword(group: WeylGroup, x: WeylElement, y: WeylElement) -> bool:
    """Independent subword-property oracle (exhaustive, exponential in l(y))."""
    k = x.length
    if k > y.length:
        return False
    borel = group.quotient(())
    return any(
        borel.from_word(y.word[p] for p in positions) == x
        for positions in itertools.combinations(range(y.length), k)
    )


def all_chains_double(poset, v: WeylElement, w: WeylElement) -> bool:
    """Check that EVERY saturated chain of an admissible pair of the
    ``WeightPoset`` is double.

    W^lam is graded, so every cover (u, child) with u in [v, w] and
    v <= child lies on a saturated chain from w down to v; the check is
    that each such cover has multiplicity 2.  This is a theorem-level
    assertion: a False return would contradict the admissibility
    equivalence, so callers treat it as a bug detector.
    """
    if not poset.is_admissible(v, w):
        raise ValueError("pair is not admissible")
    leq = poset.quotient.leq
    return all(
        m == 2
        for u in poset.quotient.interval(v, w)
        for child, m in poset.covers[u]
        if leq(v, child)
    )
