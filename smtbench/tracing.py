"""Span and counter wrappers installed on smtkit from outside the package.

Spans wrap the public entry points of each layer (a layer is a module of
the package).  Each span records its layer, name, start, end and parent
span; they are kept in memory and summarised when the pass ends.  A layer's
self time is the total of its spans' durations minus the time their direct
child spans cover.

Hot methods (Bruhat ``leq``, ``certify``, ``min_lift_above``, ``plucker``)
run up to millions of times per pass, so wrapping them would distort the
self times; they are counted only in a separate counting pass.

A function is wrapped in every module namespace that binds it, because
``smtkit.admissible`` and ``smtkit.cli`` import names from their sibling
modules directly.  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, layer, name of the call counter, post-call counter)
ENTRY_POINTS = (
    ("rootdata", "build_root_system", "rootdata", "rootdata.calls", None),
    ("weyl", "WeylGroup.__init__", "weyl", None, "weyl.group_order"),
    ("weyl", "ParabolicQuotient.__init__", "weyl", None, "weyl.quotient_size"),
    ("schubert", "schubert_divisors", "schubert", "schubert.divisor_calls", None),
    ("admissible", "WeightPoset.__init__", "admissible", None, None),
    ("admissible", "WeightPoset.pairs", "admissible", None, "admissible.pairs"),
    ("smt", "StandardContext.__init__", "smt", None, None),
    ("smt", "StandardContext.enumerate", "smt", None, None),
    ("smt", "StandardContext.count_on_union", "smt", None, None),
    ("smt", "StandardContext.filtration_partition", "smt", None, None),
    ("oracle", "weyl_dim", "oracle", "oracle.calls", None),
    ("oracle", "demazure_character", "oracle", "oracle.calls", None),
    ("pluecker", "verify_hodge_i", "pluecker", None, None),
    ("pluecker", "verify_hodge_iii", "pluecker", None, None),
    ("pluecker", "schubert_point_sample", "pluecker", "pluecker.samples", None),
    ("pluecker", "rank_mod_p", "pluecker", "pluecker.rank_calls", None),
    ("pluecker", "straighten", "pluecker", None, None),
    ("pluecker", "relation_residual", "pluecker", None, None),
    ("cli", "main", "cli", "cli.requests", None),
)

LAYERS = ("rootdata", "weyl", "schubert", "admissible", "smt", "oracle", "pluecker", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.plucker_keys: set = set()

    def reset(self) -> None:
        """Forget what set-up and the self-check recorded."""
        self.spans.clear()
        self.counts.clear()
        self.plucker_keys.clear()

    # -- installing --------------------------------------------------------

    def install_spans(self) -> None:
        for module, attr, layer, calls, size in ENTRY_POINTS:
            _patch(module, attr, functools.partial(self._span, layer, attr, calls, size))

    def install_counters(self) -> None:
        counts = self.counts
        keys = self.plucker_keys

        def leq(fn):
            def wrapper(group, x, y):
                counts["weyl.leq_calls"] += 1
                return fn(group, x, y)
            return wrapper

        def certify(fn):
            def wrapper(ctx, factors, pair):
                counts["smt.certify_calls"] += 1
                lifts = fn(ctx, factors, pair)
                if lifts is not None:
                    counts["smt.certified"] += 1
                return lifts
            return wrapper

        def min_lift_above(fn):
            def wrapper(ctx, factor_index, x_class, base):
                counts["smt.lift_calls"] += 1
                return fn(ctx, factor_index, x_class, base)
            return wrapper

        def plucker(fn):
            def wrapper(sample, J):
                counts["pluecker.plucker_calls"] += 1
                keys.add((sample, tuple(J)))
                return fn(sample, J)
            return wrapper

        _patch("weyl", "WeylGroup.leq", leq)
        _patch("smt", "StandardContext.certify", certify)
        _patch("smt", "StandardContext.min_lift_above", min_lift_above)
        _patch("pluecker", "PointSample.plucker", plucker)

    def _span(self, layer, name, calls, size, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if calls:
                counts[calls] += 1
            if size:
                counts[size] += len(args[0] if name.endswith("__init__") else result)
            return result

        return wrapper

    # -- summaries ---------------------------------------------------------

    def self_times(self, duration) -> dict[str, float]:
        """Self time per layer, plus ``pluecker.rank`` for rank_mod_p alone;
        duration(start, end) gives the length of a span."""
        lengths = [duration(start, end) for _layer, _name, start, end, _parent in self.spans]
        covered = [0.0] * len(self.spans)
        for (_layer, _name, _start, _end, parent), length in zip(self.spans, lengths):
            if parent >= 0:
                covered[parent] += length
        out = dict.fromkeys(LAYERS, 0.0)
        out["pluecker.rank"] = 0.0
        for (layer, name, _start, _end, _parent), length, child in zip(self.spans, lengths, covered):
            own = length - child
            out[layer] += own
            if name == "rank_mod_p":
                out["pluecker.rank"] += own
        return out


def _patch(module: str, attr: str, make_wrapper) -> None:
    """Replace module.attr (a function or Class.method) by make_wrapper(it),
    in every smtkit namespace that binds the function."""
    mod = sys.modules[f"smtkit.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    orig = getattr(mod, attr)
    wrapped = make_wrapper(orig)
    for name, m in list(sys.modules.items()):
        if name == "smtkit" or name.startswith("smtkit."):
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
