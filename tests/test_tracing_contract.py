"""The benchmark tracer patches smtkit by name: every name must still resolve.

``smtbench/tracing.py`` wraps its span entry points and its four hot-method
counters through ``cls.__dict__`` (methods) or the module namespace
(functions).  It is loaded from its path, unchanged, so that renaming or
deleting one of its targets fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "smtbench" / "tracing.py"

COUNTER_TARGETS = (
    ("weyl", "WeylGroup.leq"),
    ("smt", "StandardContext.certify"),
    ("smt", "StandardContext.min_lift_above"),
    ("pluecker", "PointSample.plucker"),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("smtbench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    targets = [(module, attr) for module, attr, *_rest in tracing.ENTRY_POINTS]
    source = TRACING.read_text()
    for module, attr in COUNTER_TARGETS:
        assert f'_patch("{module}", "{attr}"' in source
    for module, attr in targets + list(COUNTER_TARGETS):
        mod = importlib.import_module(f"smtkit.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(mod, attr, None)), attr
