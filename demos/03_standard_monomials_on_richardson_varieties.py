"""Standard monomials on Richardson pairs, lifts, unions, and the classic
failure of naive restriction.

The SL(3) full flag variety with the degree profile (omega_1, omega_2) is
small enough to print everything: the 8 standard monomials on the whole
space, their certifying lifts, the one monomial that restricts nonzero to
X_{s2.s1} without being standard there, and the inclusion-exclusion count on
a union of two Schubert varieties.
"""

from smtkit import (
    WeylGroup,
    demazure_character,
    format_word,
    make_union,
    mass,
    parse_cartan_type,
    weyl_dim,
)
from smtkit.smt import StandardContext

rs = parse_cartan_type("A2")
g = WeylGroup(rs)
w1, w2 = rs.fundamental_weight(0), rs.fundamental_weight(1)

print("== degree profile (omega_1, omega_2) on the full flag variety ==")
ctx = StandardContext(g, set(), (w1, w2))
full = ctx.pair(g.identity, g.w_o)
monos = ctx.enumerate(full)
print(f"{len(monos)} standard monomials (weyl_dim = {weyl_dim(rs, w1 + w2)}):")
for m in monos:
    fs = " * ".join(f"p[{format_word(f.v.word)};{format_word(f.w.word)}]" for f in m.factors)
    lifts = " <= ".join(format_word(x.word) for x in m.lifts)
    print(f"  {fs:<34} lifts {lifts}")

print("\n== restriction is subtler than nonvanishing ==")
s1, s2 = g.simple
x1 = ctx.posets[0].quotient.from_word(s1.word)
x2 = ctx.posets[1].quotient.from_word(s2.word)
f1, f2 = ctx.posets[0].pair(x1, x1), ctx.posets[1].pair(x2, x2)
on_full = ctx.certify((f1, f2), full)
on_small = ctx.certify((f1, f2), ctx.pair(g.identity, g.mul(s2, s1)))
print("p[s1]p[s2] standard on G/B:      ", on_full is not None)
print("p[s1]p[s2] standard on X_{s2.s1}:", on_small is not None,
      "  (yet it does NOT vanish there; see demo 04)")

print("\n== counting on a union of Schubert varieties ==")
lam = rs.weight((1, 1))
ctx1 = StandardContext(g, set(), (lam,))
X = ctx1.pair(g.identity, g.from_word((0, 1)))
Y = ctx1.pair(g.identity, g.from_word((1, 0)))
union = make_union(ctx1.quot, [X, Y])
uc = ctx1.count_on_union(union)
h = lambda w: mass(demazure_character(rs, w, lam))
print(f"direct count of monomials standard on X u Y: {uc.count}")
print(f"inclusion-exclusion h(X) + h(Y) - h(X n Y):  {uc.inclusion_exclusion}")
print(f"independent Demazure masses: {h(X.w)} + {h(Y.w)} - "
      f"{h(s1) + h(s2) - h(g.identity)} = {h(X.w) + h(Y.w) - h(s1) - h(s2) + h(g.identity)}")

print("\n== filtration blocks ==")
blocks = ctx1.filtration_partition(ctx1.pair(g.identity, g.w_o))
for x, cnt in sorted(blocks.items(), key=lambda t: (t[0].length, t[0].word)):
    print(f"  block at {format_word(x.word):<10}: {cnt}")
print(f"  total {sum(blocks.values())} = dim V(rho) = {weyl_dim(rs, lam)}")
