"""Command-line front end.

Three subcommands mirror the package's verification surfaces:

  smtkit admissible --type C2 --weight 0,1 [--json]
  smtkit smt --type A2 --parabolic none --weights 1,0+0,1 --pair e:w0
             [--union v:w+v:w] [--verify-filtration] [--verify-count] [--json]
  smtkit straighten --grassmann 2,4 [--pair 14,23] [--verify-hodge]
             [--degree 2] [--seeds 1,2,3] [--json]

Weights are comma-separated fundamental-weight coordinates, several weights
joined by "+".  Elements are dot-joined reduced words ("s2.s1") with the
aliases "e" and "w0".  Exit codes: 0 all requested assertions passed,
1 an assertion failed or an internal invariant broke, 2 usage error or a
request over a work cap.  All randomness is seeded and the
seeds are echoed in the output, so identical invocations give identical
output, byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter

from .admissible import WeightPoset
from .oracle import demazure_character, mass, weyl_dim
from .pluecker import (
    _check_index,
    all_indices,
    relation_residual,
    standard_chain_count,
    straighten,
    verify_hodge_i,
    verify_hodge_iii,
)
from .rootdata import Weight, parse_cartan_type
from .smt import StandardContext, make_union
from .weyl import DEFAULT_ORDER_CAP, WeylGroup, format_word, parse_word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_DEGREE_CAP = 4
# straighten --verify-hodge: caps on the predicted work, checked before sampling
HODGE_CHAIN_CAP = 200
HODGE_SAMPLE_CAP = 256
HODGE_SWEEP_CAP = 4000
# the two figures above, times the number of seeds: three seeds always fit
HODGE_SEEDED_CHAIN_CAP = 3 * HODGE_CHAIN_CAP
HODGE_SEEDED_SWEEP_CAP = 3 * HODGE_SWEEP_CAP
CAP_HELP = (
    "bound on the size of every enumeration: |W^P| for each parabolic quotient, "
    "|W| if all of W is built (default: %(default)s)"
)


class UsageError(Exception):
    pass


def _parse_weight(text: str, rank: int) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise UsageError(f"weight {text!r} needs {rank} coordinates")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad weight {text!r}") from exc
    return Weight(coords)


def _parse_weights(text: str, rank: int) -> list[Weight]:
    return [_parse_weight(p, rank) for p in text.split("+")]


def _parse_element(text: str, quot):
    """An element of W^P from a word, or its top from "w0"."""
    text = text.strip()
    if text == "w0":
        return quot.top()
    try:
        word = parse_word(text, quot.group.rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return quot.from_word(word)


def _parse_parabolic(text: str, rank: int) -> frozenset[int]:
    text = text.strip().lower()
    if text in ("none", "b"):
        return frozenset()
    if text == "all":
        return frozenset(range(rank))
    try:
        idxs = frozenset(int(p) - 1 for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --parabolic subset {text!r}") from exc
    if any(not 0 <= i < rank for i in idxs):
        raise UsageError(f"--parabolic subset {text!r} out of range")
    return idxs


def _parse_pair(text: str, r: int, n: int):
    """The two indices of --pair on Gr(r, n): "14,23", or "1.4,2.3" past 9."""
    parts = [t.strip() for t in text.split(",")]
    try:
        I, J = (tuple(int(p) for p in (t.split(".") if "." in t else t)) for t in parts)
    except ValueError:
        I = J = ()
    if not I or not J:
        raise UsageError(f"--pair expects two indices such as 14,23, not {text!r}")
    try:
        return _check_index(I, r, n), _check_index(J, r, n)
    except ValueError as exc:
        raise UsageError(f"--pair {text!r}: {exc}") from exc


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_admissible(args) -> int:
    rs = parse_cartan_type(args.type)
    lam = _parse_weight(args.weight, rs.rank)
    if not lam.is_dominant:
        raise UsageError("weight must be dominant")
    group = WeylGroup(rs, order_cap=args.cap)
    pairs = WeightPoset(group, lam).pairs()
    dim = weyl_dim(rs, lam)
    neg_xi = Counter(tuple(-c for c in p.weight().coords) for p in pairs)
    char = Counter(demazure_character(rs, group.w_o, lam))
    count_ok = len(pairs) == dim
    char_ok = neg_xi == char

    payload = {
        "type": rs.cartan_type,
        "weight": list(lam.coords),
        "count": len(pairs),
        "weyl_dim": dim,
        "count_matches_dim": count_ok,
        "character_matches": char_ok,
        "pairs": [
            {
                "v": format_word(p.v.word),
                "w": format_word(p.w.word),
                "xi": [c // 2 for c in p.xi2],
                "chain": [format_word(x.word) for x in p.double_chain],
            }
            for p in pairs
        ],
    }
    lines = [f"admissible pairs for {rs.cartan_type}, weight {lam.coords}:"]
    for p in payload["pairs"]:
        chain = " > ".join(p["chain"]) if p["chain"] else "(trivial)"
        lines.append(f"  v={p['v']:<12} w={p['w']:<12} xi={tuple(p['xi'])}  {chain}")
    lines.append(f"count {len(pairs)} vs weyl_dim {dim}: {'PASS' if count_ok else 'FAIL'}")
    lines.append(f"character multiset vs Demazure oracle: {'PASS' if char_ok else 'FAIL'}")
    _emit(payload, args.json, lines)
    return EXIT_OK if count_ok and char_ok else EXIT_FAIL


def cmd_smt(args) -> int:
    given = (("--pair", args.pair), ("--union", args.union), ("--parabolic", args.parabolic))
    for flag, text in given:
        if text is not None and not text.strip():
            raise UsageError(f"{flag} is empty")
    if args.union and (args.pair or args.verify_count or args.verify_filtration):
        raise UsageError("--union takes no --pair, --verify-count or --verify-filtration")
    rs = parse_cartan_type(args.type)
    weights = _parse_weights(args.weights, rs.rank)
    group = WeylGroup(rs, order_cap=args.cap)
    subset = _parse_parabolic(args.parabolic, rs.rank)
    ctx = StandardContext(group, subset, weights)

    def parse_pair(text: str, flag: str):
        vt, _, wt = text.partition(":")
        if not wt:
            raise UsageError(f"{flag} {text!r} must look like v:w")
        return ctx.pair(_parse_element(vt, ctx.quot), _parse_element(wt, ctx.quot))

    failures: list[str] = []
    lines: list[str] = []
    payload: dict = {"type": rs.cartan_type, "weights": [list(w.coords) for w in weights]}

    if args.union:
        comps = [parse_pair(p, "--union component") for p in args.union.split("+")]
        union = make_union(ctx.quot, comps)
        uc = ctx.count_on_union(union)
        payload["union"] = {
            "components": [
                {"v": format_word(c.v.word), "w": format_word(c.w.word)}
                for c in union
            ],
            "count": uc.count,
            "inclusion_exclusion": uc.inclusion_exclusion,
        }
        lines.append(f"union count: {uc.count}")
        if uc.inclusion_exclusion is not None:
            lines.append(f"inclusion-exclusion value: {uc.inclusion_exclusion}")
            if uc.inclusion_exclusion != uc.count:
                failures.append("union inclusion-exclusion mismatch")
    else:
        pair = parse_pair(args.pair or "e:w0", "--pair")
        monos = ctx.enumerate(pair)
        payload["pair"] = {"v": format_word(pair.v.word), "w": format_word(pair.w.word)}
        payload["monomials"] = [
            {
                "factors": [
                    {"v": format_word(f.v.word), "w": format_word(f.w.word)}
                    for f in m.factors
                ],
                "lifts": [format_word(x.word) for x in m.lifts],
                "weight": list(m.total_weight.coords),
            }
            for m in monos
        ]
        payload["count"] = len(monos)
        lines.append(
            f"standard monomials on ({payload['pair']['v']}, {payload['pair']['w']}): {len(monos)}"
        )
        for m in payload["monomials"]:
            fs = " * ".join(f"p[{f['v']};{f['w']}]" for f in m["factors"])
            lines.append(f"  {fs:<42} lifts {'<='.join(m['lifts'])}")

        if args.verify_count:
            total = Weight((0,) * rs.rank)
            for lam in weights:
                total = total + lam
            checks = {}
            if pair.v == group.identity and pair.w == ctx.quot.top():
                checks["weyl_dim"] = weyl_dim(rs, total)
                if len(monos) != checks["weyl_dim"]:
                    failures.append("count differs from Weyl dimension")
            if len(weights) == 1 and subset == ctx.posets[0].quotient.subset and pair.v == group.identity:
                checks["demazure_mass"] = mass(demazure_character(rs, pair.w, weights[0]))
                if len(monos) != checks["demazure_mass"]:
                    failures.append("count differs from Demazure mass")
            payload["verify_count"] = checks
            if checks:
                lines.append(f"count checks {checks}: {'PASS' if not failures else 'FAIL'}")
            else:
                lines.append("count checks: none apply to this pair")

        if args.verify_filtration:
            blocks = ctx.filtration_partition(pair)
            ok = sum(blocks.values()) == len(monos)
            for x, cnt in blocks.items():
                sub = [
                    m
                    for m in ctx.enumerate(ctx.pair(x, pair.w))
                    if m.factors[0].v == x
                ]
                ok = ok and len(sub) == cnt
            payload["verify_filtration"] = {
                "blocks": {format_word(x.word): c for x, c in blocks.items()},
                "consistent": ok,
            }
            lines.append(f"filtration blocks consistent: {'PASS' if ok else 'FAIL'}")
            if not ok:
                failures.append("filtration partition inconsistent")

    _emit(payload, args.json, lines)
    return EXIT_FAIL if failures else EXIT_OK


def _check_hodge_work(r: int, n: int, degree: int, seeds: int) -> None:
    """Refuse a --verify-hodge request whose predicted work is over a cap.

    Three figures bound it: the numbers one point sample computes (its n x r
    slab and the Laplace table of all minors of size <= r), the top-degree
    chains (the largest rank check), and the Schubert sweep, one restriction
    check of up to chains(min(degree, 2)) chains per index.  The slab is
    checked alone first, so that a large n is refused before its minor table
    is summed.  Every seed repeats the rank checks, so the chains and the
    sweep are capped once more times the seed count.
    """

    def figures():
        yield n * r, "entries in a sampled slab", HODGE_SAMPLE_CAP
        sample = n * r + sum(math.comb(n, k) for k in range(r + 1))
        yield sample, "numbers per point sample", HODGE_SAMPLE_CAP
        chains = standard_chain_count(r, n, degree)
        yield chains, f"standard chains in degree {degree}", HODGE_CHAIN_CAP
        sweep = math.comb(n, r) * standard_chain_count(r, n, min(degree, 2))
        yield sweep, "Schubert indices x restriction chains", HODGE_SWEEP_CAP
        yield seeds * chains, f"seeds x chains in degree {degree}", HODGE_SEEDED_CHAIN_CAP
        yield seeds * sweep, "seeds x Schubert sweep checks", HODGE_SEEDED_SWEEP_CAP

    for figure, what, cap in figures():
        if figure > cap:
            raise UsageError(f"Gr({r},{n}) has {figure} {what}, over the cap of {cap}")


def cmd_straighten(args) -> int:
    try:
        r, n = (int(p) for p in args.grassmann.split(","))
    except ValueError:
        r = n = 0
    if not 1 <= r < n:
        raise UsageError(f"--grassmann expects 1 <= r < n, not {args.grassmann!r}")
    if args.pair is not None and r * (n - r) > 8:
        raise UsageError(f"--pair needs r(n-r) <= 8; Gr({r},{n}) is over that desk-scale cap")
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError as exc:
        raise UsageError(f"--seeds expects comma-separated integers, not {args.seeds!r}") from exc
    if args.degree is not None and not args.verify_hodge:
        raise UsageError("--degree needs --verify-hodge")
    degree = 2 if args.degree is None else args.degree
    if args.verify_hodge:
        if degree < 0:
            raise UsageError(f"--degree must be nonnegative, not {degree}")
        if degree > DEFAULT_DEGREE_CAP:
            raise UsageError(f"--degree {degree} exceeds cap {DEFAULT_DEGREE_CAP}")
        _check_hodge_work(r, n, degree, len(seeds))
    failures: list[str] = []
    lines: list[str] = []
    payload: dict = {"grassmann": [r, n], "seeds": list(seeds)}

    if args.pair is not None:
        I, J = _parse_pair(args.pair, r, n)
        rel = straighten(I, J, r, n)
        exact = relation_residual(rel) == {}
        payload["relation"] = {
            "lhs": [list(I), list(J)],
            "rhs": [{"c": f"{c:+d}", "pair": [list(a), list(b)]} for c, (a, b) in rel.rhs],
            "exact": exact,
        }
        def fmt(c, a, b):
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            return f"{'+' if c > 0 else '-'} {mag}p{list(a)}*p{list(b)}"

        terms = " ".join(fmt(c, a, b) for c, (a, b) in rel.rhs)
        lines.append(f"p{list(I)}*p{list(J)} = {terms.lstrip('+ ')}")
        lines.append(f"symbolic identity: {'PASS' if exact else 'FAIL'}")
        if not exact:
            failures.append("relation is not an exact identity")

    if args.verify_hodge:
        counts = []
        hodge_i = {}
        for m in range(1, degree + 1):
            rep = hodge_i[m] = verify_hodge_i(r, n, m, seeds=seeds)
            counts.append(
                {
                    "degree": m,
                    "chains": standard_chain_count(r, n, m),
                    "rank_ok": rep.passed,
                    "ranks": [list(t) for t in rep.ranks_by_seed],
                }
            )
            lines.append(
                f"degree {m}: chains {counts[-1]['chains']}, rank check "
                f"{'PASS' if rep.passed else 'FAIL'}"
            )
            if not rep.passed:
                failures.append(f"degree-{m} rank check failed")
        schuberts = []
        sweep_degree, top = min(degree, 2), tuple(range(n - r + 1, n + 1))
        for I in all_indices(r, n):
            # X_top is all of Gr(r, n): its check is the Hodge-I check
            if I == top and sweep_degree in hodge_i:
                rep = hodge_i[sweep_degree]
            else:
                rep = verify_hodge_iii(I, r, n, sweep_degree, seeds=seeds)
            schuberts.append({"I": list(I), "ok": rep.passed})
            if not rep.passed:
                failures.append(f"restriction basis check failed on X_{I}")
        lines.append(
            "Schubert restriction checks: "
            + ("PASS" if all(s["ok"] for s in schuberts) else "FAIL")
        )
        payload["verify_hodge"] = {"degrees": counts, "schubert": schuberts}

    if args.pair is None and not args.verify_hodge:
        raise UsageError("nothing to do: give --pair and/or --verify-hodge")
    _emit(payload, args.json, lines)
    return EXIT_FAIL if failures else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="smtkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("admissible", help="enumerate admissible pairs and verify counts")
    pa.add_argument("--type", required=True)
    pa.add_argument("--weight", required=True)
    pa.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP, help=CAP_HELP)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_admissible)

    ps = sub.add_parser("smt", help="standard monomials on Richardson pairs and unions")
    ps.add_argument("--type", required=True)
    ps.add_argument("--parabolic", default="none")
    ps.add_argument("--weights", required=True)
    ps.add_argument("--pair", default=None, help="v:w (default: e:w0)")
    ps.add_argument("--union", default=None)
    ps.add_argument("--verify-count", action="store_true")
    ps.add_argument("--verify-filtration", action="store_true")
    ps.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP, help=CAP_HELP)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_smt)

    pp = sub.add_parser("straighten", help="Plücker straightening and Hodge rank checks")
    pp.add_argument("--grassmann", required=True)
    pp.add_argument("--pair", default=None)
    pp.add_argument("--verify-hodge", action="store_true")
    pp.add_argument("--degree", type=int, default=None, help="with --verify-hodge (default: 2)")
    pp.add_argument("--seeds", default="1,2,3")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_straighten)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
