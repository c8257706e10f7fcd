"""Tour of the root-system and Weyl-group layer.

Builds a few classical and exceptional root systems, shows which weights are
of classical type, and walks through Bruhat order and parabolic quotients.
"""

from smtkit import (
    ParabolicQuotient,
    WeylGroup,
    build_root_system,
    format_word,
    is_classical_type,
    pairing,
    parse_cartan_type,
    stabilizer_subset,
)
from smtkit.rootdata import max_pairing

print("== positive roots ==")
for label in ["A2", "C2", "B3", "D4", "G2", "F4"]:
    rs = parse_cartan_type(label)
    print(f"{label}: {len(rs.positive_roots)} positive roots")

rs = build_root_system("C", 2)
print("\nC2 positive roots in simple-root coordinates:")
for beta in rs.positive_roots:
    print(f"  {beta.coords}   coroot {rs.coroot(beta)}   <w2, beta^vee> = "
          f"{pairing(rs, rs.fundamental_weight(1), beta)}")

print("\n== classical-type weights ==")
print("a dominant weight is classical when no coroot pairing exceeds 2")
for label in ["A3", "B3", "C3", "D4", "G2", "F4", "E8"]:
    rs = parse_cartan_type(label)
    flags = [
        is_classical_type(rs, rs.fundamental_weight(i)) for i in range(rs.rank)
    ]
    worst = max(max_pairing(rs, rs.fundamental_weight(i)) for i in range(rs.rank))
    print(f"{label}: fundamentals classical? {flags}  (largest pairing {worst})")

print("\n== Weyl groups and Bruhat order ==")
rs = build_root_system("A", 2)
g = WeylGroup(rs)
print(f"W(A2) has {len(g)} elements:")
for el in g.elements:
    print(f"  {format_word(el.word):<10} length {el.length}")
s1, s2 = g.simple
print(f"s1 <= s1.s2? {g.leq(s1, g.mul(s1, s2))}")
print(f"s1 <= s2?    {g.leq(s1, s2)}")

print("\n== parabolic quotients ==")
lam = rs.fundamental_weight(0)
q = ParabolicQuotient(g, stabilizer_subset(rs, lam))
print("W^{omega_1} for A2 (the projective plane):",
      [format_word(x.word) for x in q.min_reps])
print("order-reversing involution w -> w_o w w_{o,P}:")
for x in q.min_reps:
    print(f"  {format_word(x.word):<8} -> {format_word(q.order_reversing_involution(x).word)}")
