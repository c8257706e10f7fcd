"""The benchmark's seed-1 operations pass their gate and keep their digests.

``smtbench/workloads.py`` is loaded from its path, unchanged, as
``test_tracing_contract.py`` loads ``tracing.py``.  Every seed-1 operation of
each workload runs once through ``run_op`` with a fresh ``Gate``; the input
hash and the sha256 of ``json.dumps(records, sort_keys=True)`` must equal the
values pinned here, which are those ``smtbench/README.md`` records.  A
change that alters any count or character the benchmark checks fails here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "smtbench" / "workloads.py"

# workload: (input hash, result digest) for seed 1
SEED_1 = {
    "quotients": (
        "b65cf27c0902ccd61f0208266f762ab7010fe030ce5a0028054468e2a41e7aac",
        "4fc58e93ae5b9d58042002b9b3783d9b89073b3665e9d1dbf293b4fa2fb129f5",
    ),
    "monomials": (
        "b910afcef491a03d6cfdeb875da9fc6a80f8cb331f0a98a676046df4bb215779",
        "23a2a8a510bdb001185b7ffeaf90122620e1642939ed72f2bc34a26b0875a36a",
    ),
    "hodge": (
        "ae31ff73cd217e0df23117507e405a14e852635824e8ae53e1fe680d4d0ac5ce",
        "fbb626ccb66d134d868fe6ea8c0a34b9368372aca03523097cb366653d7eca7e",
    ),
    "cli_mix": (
        "ce1ec51c333f23443ebe6daa0b6e9502a073a27ea758eec489e10e492a97b03d",
        "c56fc5d5b2f35b4bb5f1bd0bf778115eb070d13b243e9a0a981e2a4ed5db3095",
    ),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("smtbench_workloads_digests", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(SEED_1)


@pytest.mark.parametrize("name", sorted(SEED_1))
def test_seed_1_operations_pass_and_keep_their_digest(workloads, name):
    ops = workloads.make_inputs(name, 1)
    records, failed = [], []
    for op in ops:
        gate = workloads.Gate()
        records.append(workloads.run_op(op, gate))
        if not gate.ok:
            failed.append(op)
    assert ops and not failed
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert (workloads.input_hash(ops), digest) == SEED_1[name]
