"""Admissible pairs versus the character oracles.

For each classical-type dominant weight of a sweep of groups, enumerate the
admissible pairs (double-chain witnesses included) and confirm that both the
count and the full weight multiset reproduce the representation-theoretic
answer computed by completely independent formulas.
"""

import itertools
from collections import Counter

from smtkit import (
    WeightPoset,
    WeylGroup,
    demazure_character,
    format_word,
    is_classical_type,
    parse_cartan_type,
    weyl_dim,
)


def classical_weights(rs):
    for total in (1, 2):
        for combo in itertools.combinations_with_replacement(range(rs.rank), total):
            coords = [0] * rs.rank
            for i in combo:
                coords[i] += 1
            lam = rs.weight(tuple(coords))
            if is_classical_type(rs, lam):
                yield lam


print("== the C2, omega_2 story in full ==")
rs = parse_cartan_type("C2")
g = WeylGroup(rs)
lam = rs.fundamental_weight(1)
pairs = WeightPoset(g, lam).pairs()
for p in pairs:
    chain = " > ".join(format_word(x.word) for x in p.double_chain) or "(trivial)"
    print(f"  v={format_word(p.v.word):<10} w={format_word(p.w.word):<10} "
          f"xi={p.weight().coords}   {chain}")
print(f"count = {len(pairs)}, weyl_dim = {weyl_dim(rs, lam)}")

print("\n== sweep: counts and characters against the oracles ==")
for label in ["A2", "A3", "B2", "B3", "C2", "C3", "D4"]:
    rs = parse_cartan_type(label)
    g = WeylGroup(rs)
    for lam in classical_weights(rs):
        pairs = WeightPoset(g, lam).pairs()
        dim = weyl_dim(rs, lam)
        neg_xi = Counter(tuple(-c for c in p.weight().coords) for p in pairs)
        char = Counter(demazure_character(rs, g.w_o, lam))
        ok = len(pairs) == dim and neg_xi == char
        ntriv = sum(1 for p in pairs if p.v != p.w)
        print(f"{label} lam={lam.coords}: {len(pairs)} pairs "
          f"({ntriv} non-trivial), dim {dim}, character match {ok}")
