"""Seeded inputs, operations and the correctness gate for the smtkit benchmark.

An operation is one result the package computes, checked against an
independent oracle of the package (Weyl dimension, Demazure character and
mass, inclusion-exclusion, Hodge rank reports, symbolic straightening
residuals) or, for CLI requests, against the exit code and every check field
of the JSON output.  An operation fails when any of its checks fails or it
raises.

Inputs are plain data made from the workload seed alone: Cartan types,
weights as lists of fundamental-weight indices (1-based, so [1, 5] is
omega_1 + omega_5), parabolic subsets (1-based), sub-seeds for picking
Richardson pairs, sampling seeds and CLI argument lists.  Every layer is
called through its module attribute (``weyl.WeylGroup``, not a name imported
from the package), so wrappers installed on the modules see every call.

The seed also shuffles the operation lists of `monomials`, `hodge` and
`cli_mix`, so that short operations are spread over a pass instead of
running in one burst that samples the machine's speed at a single moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter

from smtkit import admissible, cli, oracle, pluecker, rootdata, smt, weyl

WORKLOADS = ("quotients", "monomials", "hodge", "cli_mix")

# |W| for every type `quotients` builds; textbook orders, the oracle for the
# Weyl-group enumeration.
WEYL_ORDER = {
    "A3": 24, "A5": 720, "C4": 384, "D4": 192, "D5": 1920, "F4": 1152,
}
# |W_P| of the one non-Borel parabolic in `quotients`: F4 nodes {2, 3} span B2.
PARABOLIC_ORDER = {("F4", (2, 3)): 8}

# quotients: StandardContext builds, then an admissible-pair sweep.
QUOTIENT_CONTEXTS = (
    ("D4", (), ((1,), (3,))),
    ("A5", (), ((1, 5), (3,))),
    ("F4", (2, 3), ((1,),)),
)
QUOTIENT_SWEEP = (("A5", (3,)), ("C4", (4,)), ("D5", (5,)), ("F4", (4,)))

# monomials: (kind, (type, parabolic, profile), length of v for a pair op).
# On C4 the length-1 element of W^P is unique, so there the seed moves w
# only; the other contexts are small enough that seeded v's cost little.
C4_CUBE = ("C4", (1, 2, 3), ((4,), (4,), (4,)))
A3_FLAG = ("A3", (), ((1,), (2,), (3,)))
B3_CUBE = ("B3", (1, 2), ((3,), (3,), (3,)))
C3_CUBE = ("C3", (1, 2), ((3,), (3,), (3,)))
MONOMIAL_PLAN = (
    ("top", C4_CUBE, None), ("pair", C4_CUBE, 1),
    ("top", A3_FLAG, None), ("pair", A3_FLAG, 1), ("pair", A3_FLAG, 2),
    ("pair", A3_FLAG, 3), ("pair", A3_FLAG, 4), ("union", A3_FLAG, None),
    ("union", A3_FLAG, None),
    ("top", B3_CUBE, None), ("pair", B3_CUBE, 1), ("pair", B3_CUBE, 2),
    ("pair", B3_CUBE, 3), ("union", B3_CUBE, None),
    ("top", C3_CUBE, None), ("pair", C3_CUBE, 1), ("pair", C3_CUBE, 2),
    ("pair", C3_CUBE, 3), ("union", C3_CUBE, None), ("union", C3_CUBE, None),
    ("filtration", ("C4", (1, 2, 3), ((4,),)), None),
    ("filtration", ("C4", (1, 2, 3), ((4,),)), None),
    ("filtration", ("B3", (1, 2), ((3,),)), None),
    ("filtration", ("C3", (1, 2), ((3,),)), None),
    ("filtration", ("C3", (1, 2), ((3,),)), None),
    ("filtration", ("A3", (2,), ((1, 3),)), None),
    ("filtration", ("A3", (2,), ((1, 3),)), None),
)

# hodge: Grassmannian rank checks and straightening.
HODGE_I = ((2, 5, 2), (2, 4, 3), (3, 6, 1), (2, 6, 1))
HODGE_III = (2, 5, 2)
STRAIGHTEN_GRASSMANNIANS = ((2, 5), (3, 6), (2, 6))

# cli_mix: a fixed multiset of request classes per pass; the seed picks the
# order and every free parameter (pairs, words, union components, sampling
# seeds), none of which changes a request's cost much, so the latency
# distribution has the same shape on every seed.
README_REQUESTS = (
    "admissible --type C2 --weight 0,1",
    "admissible --type A2 --weight 1,0",
    "smt --type A2 --parabolic none --weights 1,0+0,1 --pair e:w0 --verify-count",
    "smt --type A2 --weights 1,1 --pair e:w0 --verify-filtration",
    "smt --type A2 --weights 1,1 --union e:s1.s2+e:s2.s1",
    "straighten --grassmann 2,4 --pair 14,23",
    "straighten --grassmann 2,4 --verify-hodge --degree 2",
)
CLI_ADMISSIBLE = (
    ("A1", (1,)), ("A2", (2,)), ("A2", (1, 2)), ("A3", (1,)), ("A3", (2,)),
    ("A3", (1, 3)), ("A4", (1,)), ("A4", (2,)), ("B2", (1,)), ("B2", (2,)),
    ("B3", (1,)), ("B3", (3,)), ("C2", (1,)), ("C3", (1,)), ("C3", (3,)),
    ("B4", (4,)), ("C4", (4,)), ("D4", (1,)), ("D4", (2,)), ("G2", (2,)),
)
# (type, parabolic, profile, single weight with P = P_lam)
CLI_SMT = (
    ("A2", "none", ((1,), (2,)), False),
    ("A2", "none", ((1, 2),), True),
    ("B2", "none", ((1,), (1,)), False),
    ("C2", "none", ((1,), (2,)), False),
    ("A3", "none", ((1,), (2,), (3,)), False),
    ("A3", "2", ((1, 3),), True),
    ("A3", "1,3", ((2,), (2,)), False),
    ("B3", "1,2", ((3,),), True),
    ("B3", "1,2", ((3,), (3,)), False),
    ("C3", "1,2", ((3,), (3,)), False),
    ("C3", "2,3", ((1,),), True),
    ("D4", "1,3,4", ((2,),), True),
)
CLI_UNION_TYPES = (
    ("A2", "none", ((1, 2),)), ("A3", "none", ((1,), (3,))), ("B2", "none", ((1,), (2,))),
    ("C2", "none", ((1,), (2,))), ("A3", "2", ((1, 3),)), ("B3", "1,2", ((3,),)),
)
CLI_STRAIGHTEN = ((2, 4), (2, 5), (3, 5), (2, 6))
# (r, n, degree, copies per pass); with the README's Gr(2,4) degree-2 request
# these are the slow requests, and p95 falls inside the Gr(2,5)/Gr(3,5) ones.
CLI_HODGE = ((2, 4, 2, 1), (2, 4, 1, 3), (2, 5, 1, 5), (3, 5, 1, 5))

# The self-check: one small operation of the workload's kind, run with a
# deliberately wrong expected value, must be counted as failed.
SELF_CHECK_OP = {
    "quotients": {"kind": "sweep", "type": "A3", "weight": [2]},
    "monomials": {"kind": "top", "context": ["A3", [], [[1], [2], [3]]]},
    "hodge": {"kind": "hodge_i", "r": 2, "n": 4, "m": 1, "seeds": [1, 2, 3]},
    "cli_mix": {"kind": "cli", "argv": README_REQUESTS[0].split() + ["--json"]},
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's operation list; the same seed gives the same list."""
    rng = random.Random(f"smtbench:{workload}:{seed}")
    if workload == "quotients":
        ops = [
            {"kind": "context", "type": t, "parabolic": list(p), "weights": [list(w) for w in ws]}
            for t, p, ws in QUOTIENT_CONTEXTS
        ]
        ops += [{"kind": "sweep", "type": t, "weight": list(w)} for t, w in QUOTIENT_SWEEP]
        return ops
    if workload == "monomials":
        ops = []
        for kind, (t, p, ws), v_length in MONOMIAL_PLAN:
            op = {"kind": kind, "context": [t, list(p), [list(w) for w in ws]]}
            if kind != "top":
                op["pick"] = rng.randrange(2**32)
            if kind == "pair":
                op["v_length"] = v_length
            ops.append(op)
        rng.shuffle(ops)
        return ops
    if workload == "hodge":
        def seeds():
            return [rng.randrange(1, 2**31) for _ in range(3)]

        ops = [{"kind": "hodge_i", "r": r, "n": n, "m": m, "seeds": seeds()} for r, n, m in HODGE_I]
        r, n, m = HODGE_III
        ops += [
            {"kind": "hodge_iii", "I": list(I), "r": r, "n": n, "m": m, "seeds": seeds()}
            for I in pluecker.all_indices(r, n)
        ]
        for r, n in STRAIGHTEN_GRASSMANNIANS:
            ops += [
                {"kind": "straighten", "I": list(I), "J": list(J), "r": r, "n": n}
                for I, J in _nonstandard_pairs(r, n)
            ]
        rng.shuffle(ops)
        return ops
    if workload == "cli_mix":
        reqs = [line.split() for line in README_REQUESTS]
        for _ in range(3):
            reqs += [["admissible", "--type", t, "--weight", _weights_arg(t, [w])] for t, w in CLI_ADMISSIBLE]
        for _ in range(5):
            for t, par, ws, single in CLI_SMT:
                req = ["smt", "--type", t, "--parabolic", par, "--weights", _weights_arg(t, ws),
                       "--pair", f"{_random_word(rng, t)}:w0", "--verify-count"]
                if single:
                    req.append("--verify-filtration")
                reqs.append(req)
        for _ in range(5):
            for t, par, ws in CLI_UNION_TYPES:
                a, b = _random_word(rng, t), _random_word(rng, t)
                reqs.append(["smt", "--type", t, "--parabolic", par, "--weights", _weights_arg(t, ws),
                             "--union", f"e:{a}+e:{b}"])
        for _ in range(11):
            for r, n in CLI_STRAIGHTEN:
                I, J = rng.choice(_nonstandard_pairs(r, n))
                reqs.append(["straighten", "--grassmann", f"{r},{n}", "--pair",
                             "".join(map(str, I)) + "," + "".join(map(str, J))])
        for r, n, m, copies in CLI_HODGE:
            for _ in range(copies):
                seeds = ",".join(str(rng.randrange(1, 2**31)) for _ in range(3))
                reqs.append(["straighten", "--grassmann", f"{r},{n}", "--verify-hodge",
                             "--degree", str(m), "--seeds", seeds])
        rng.shuffle(reqs)
        return [{"kind": "cli", "argv": req + ["--json"]} for req in reqs]
    raise ValueError(f"unknown workload {workload!r}")


def input_hash(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def _nonstandard_pairs(r: int, n: int):
    idx = pluecker.all_indices(r, n)
    return [
        (I, J)
        for a, I in enumerate(idx)
        for J in idx[a + 1:]
        if not (pluecker.index_leq(I, J) or pluecker.index_leq(J, I))
    ]


def _random_word(rng: random.Random, cartan_type: str) -> str:
    rank = int(cartan_type[1:])
    word = [f"s{rng.randrange(1, rank + 1)}" for _ in range(rng.randrange(0, 4))]
    return ".".join(word) or "e"


def _weights_arg(cartan_type: str, profile) -> str:
    """A profile of fundamental-index lists as the CLI's "1,0+0,1" syntax."""
    rank = int(cartan_type[1:])
    args = []
    for fundamentals in profile:
        coords = [0] * rank
        for i in fundamentals:
            coords[i - 1] += 1
        args.append(",".join(map(str, coords)))
    return "+".join(args)


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


class Gate:
    """The checks of one operation.  With tamper=True the first expected
    value is replaced by one nothing equals, which must fail the operation."""

    def __init__(self, tamper: bool = False):
        self.ok = True
        self._tamper = tamper

    def expect(self, got, want) -> None:
        if self._tamper:
            self._tamper = False
            want = object()
        if got != want:
            self.ok = False


def character_hash(char) -> str:
    """Hash of a character (weight -> multiplicity), independent of order."""
    items = sorted((list(k), v) for k, v in Counter(char).items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def run_op(op: dict, gate: Gate):
    """Run one operation, feeding its checks to the gate; returns its record
    for the result digest (counts and character hashes)."""
    return _OPS[op["kind"]](op, gate)


def _weight(rs, fundamentals):
    coords = [0] * rs.rank
    for i in fundamentals:
        coords[i - 1] += 1
    return rootdata.Weight(tuple(coords))


def _check_admissible(rs, group, poset, gate: Gate):
    pairs = poset.pairs()
    gate.expect(len(pairs), oracle.weyl_dim(rs, poset.lam))
    neg_xi = Counter(tuple(-c for c in p.weight().coords) for p in pairs)
    gate.expect(neg_xi, Counter(oracle.demazure_character(rs, group.w_o, poset.lam)))
    return [len(pairs), character_hash(neg_xi)]


def _op_context(op, gate):
    t = op["type"]
    rs = rootdata.parse_cartan_type(t)
    group = weyl.WeylGroup(rs)
    weights = [_weight(rs, w) for w in op["weights"]]
    ctx = smt.StandardContext(group, [i - 1 for i in op["parabolic"]], weights)
    gate.expect(len(group), WEYL_ORDER[t])
    gate.expect(len(ctx.quot), WEYL_ORDER[t] // PARABOLIC_ORDER.get((t, tuple(op["parabolic"])), 1))
    return [len(group), len(ctx.quot)] + [_check_admissible(rs, group, p, gate) for p in ctx.posets]


def _op_sweep(op, gate):
    rs = rootdata.parse_cartan_type(op["type"])
    group = weyl.WeylGroup(rs)
    gate.expect(len(group), WEYL_ORDER[op["type"]])
    poset = admissible.WeightPoset(group, _weight(rs, op["weight"]))
    return _check_admissible(rs, group, poset, gate)


def _context(spec):
    t, parabolic, profile = spec
    rs = rootdata.parse_cartan_type(t)
    group = weyl.WeylGroup(rs)
    ctx = smt.StandardContext(group, [i - 1 for i in parabolic], [_weight(rs, w) for w in profile])
    total = rootdata.Weight((0,) * rs.rank)
    for lam in ctx.weights:
        total = total + lam
    return rs, group, ctx, total


def _sorted_reps(ctx):
    return sorted(ctx.quot.min_reps, key=lambda x: (x.length, x.word))


def _check_demazure(rs, w, total, monos, gate: Gate):
    """Count and character of the monomials on (e, w) against D_w e^total."""
    char = Counter(tuple(-c for c in m.total_weight.coords) for m in monos)
    gate.expect(char, Counter(oracle.demazure_character(rs, w, total)))
    return [len(monos), character_hash(char)]


def _op_top(op, gate):
    rs, group, ctx, total = _context(op["context"])
    monos = ctx.enumerate(ctx.pair(group.identity, ctx.quot.top()))
    gate.expect(len(monos), oracle.weyl_dim(rs, total))
    return _check_demazure(rs, group.w_o, total, monos, gate)


def _op_pair(op, gate):
    """Monomials on a seeded (v, w) with v != e: those on (e, w) match the
    Demazure character of w, and the (v, w) ones are a subset of them."""
    rs, group, ctx, total = _context(op["context"])
    rng = random.Random(op["pick"])
    reps = _sorted_reps(ctx)
    v = rng.choice([x for x in reps if x.length == op["v_length"]])
    w = rng.choice([x for x in reps if ctx.quot.leq(v, x)])
    on_vw = ctx.enumerate(ctx.pair(v, w))
    on_ew = ctx.enumerate(ctx.pair(group.identity, w))
    record = _check_demazure(rs, w, total, on_ew, gate)
    gate.expect({m.factors for m in on_vw} <= {m.factors for m in on_ew}, True)
    return [weyl.format_word(v.word), weyl.format_word(w.word), len(on_vw)] + record


def _op_union(op, gate):
    """Two components with incomparable w's, so neither contains the other;
    the direct count must equal inclusion-exclusion."""
    _rs, _group, ctx, _total = _context(op["context"])
    rng = random.Random(op["pick"])
    reps = _sorted_reps(ctx)
    leq = ctx.quot.leq
    w1, w2 = rng.choice([(a, b) for a in reps for b in reps if a is not b and not leq(a, b) and not leq(b, a)])
    comps = [ctx.pair(rng.choice([x for x in reps if leq(x, w)]), w) for w in (w1, w2)]
    uc = ctx.count_on_union(smt.make_union(ctx.quot, comps))
    gate.expect(uc.inclusion_exclusion, uc.count)
    return [[weyl.format_word(c.v.word), weyl.format_word(c.w.word)] for c in comps] + [uc.count]


def _op_filtration(op, gate):
    """Filtration blocks of (e, w) for a seeded w: they sum to the count, each
    block recounts on (x, w), and the count is the Demazure mass."""
    rs, group, ctx, total = _context(op["context"])
    w = random.Random(op["pick"]).choice(_sorted_reps(ctx))
    pair = ctx.pair(group.identity, w)
    monos = ctx.enumerate(pair)
    blocks = ctx.filtration_partition(pair)
    gate.expect(sum(blocks.values()), len(monos))
    for x, count in blocks.items():
        sub = [m for m in ctx.enumerate(ctx.pair(x, w)) if m.factors[0].v == x]
        gate.expect(len(sub), count)
    gate.expect(len(monos), oracle.mass(oracle.demazure_character(rs, w, total)))
    return [weyl.format_word(w.word), sorted(blocks.values())]


def _op_hodge_i(op, gate):
    r, n, m = op["r"], op["n"], op["m"]
    rep = pluecker.verify_hodge_i(r, n, m, seeds=tuple(op["seeds"]))
    gate.expect(rep.passed, True)
    rs = rootdata.build_root_system("A", n - 1)
    gate.expect(rep.expected_rank, oracle.weyl_dim(rs, _weight(rs, [r] * m)))
    return [rep.expected_rank, rep.ranks_by_seed]


def _op_hodge_iii(op, gate):
    rep = pluecker.verify_hodge_iii(tuple(op["I"]), op["r"], op["n"], op["m"], seeds=tuple(op["seeds"]))
    gate.expect(rep.passed, True)
    return [rep.expected_rank, rep.ranks_by_seed]


def _op_straighten(op, gate):
    rel = pluecker.straighten(tuple(op["I"]), tuple(op["J"]), op["r"], op["n"])
    gate.expect(pluecker.relation_residual(rel), {})
    return [[c, [list(a), list(b)]] for c, (a, b) in rel.rhs]


def _op_cli(op, gate):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op["argv"]))
    gate.expect(code, cli.EXIT_OK)
    if code != cli.EXIT_OK:
        return [code, err.getvalue()]
    text = out.getvalue()
    payload = json.loads(text)
    command = op["argv"][0]
    if command == "admissible":
        gate.expect(payload["count_matches_dim"], True)
        gate.expect(payload["character_matches"], True)
    elif command == "smt" and "union" in payload:
        if payload["union"]["inclusion_exclusion"] is not None:
            gate.expect(payload["union"]["count"], payload["union"]["inclusion_exclusion"])
    elif command == "smt":
        for value in payload.get("verify_count", {}).values():
            gate.expect(payload["count"], value)
        if "--verify-filtration" in op["argv"]:
            gate.expect(payload["verify_filtration"]["consistent"], True)
    elif command == "straighten":
        if "relation" in payload:
            gate.expect(payload["relation"]["exact"], True)
        for check in payload.get("verify_hodge", {}).get("degrees", []):
            gate.expect(check["rank_ok"], True)
        for check in payload.get("verify_hodge", {}).get("schubert", []):
            gate.expect(check["ok"], True)
    return [code, hashlib.sha256(text.encode()).hexdigest()[:16]]


_OPS = {
    "context": _op_context,
    "sweep": _op_sweep,
    "top": _op_top,
    "pair": _op_pair,
    "union": _op_union,
    "filtration": _op_filtration,
    "hodge_i": _op_hodge_i,
    "hodge_iii": _op_hodge_iii,
    "straighten": _op_straighten,
    "cli": _op_cli,
}
