"""Every module's star import succeeds, so no ``__all__`` lists a missing name;
every name the package re-exports is in its source module's ``__all__``; and
``import smtkit`` loads every module that the benchmark tracer patches."""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import smtkit

TRACING = Path(__file__).resolve().parents[1] / "smtbench" / "tracing.py"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(smtkit.__path__)))
def test_star_import(name):
    exec(f"from smtkit.{name} import *", {})


def test_reexports_are_in_their_module_all():
    tree = ast.parse(Path(smtkit.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    missing = [
        (module, name)
        for module, name in reexports
        if name not in importlib.import_module(f"smtkit.{module}").__all__
    ]
    assert missing == []


def test_import_loads_every_module_the_tracer_patches():
    # smtbench/tracing.py looks each target module up in sys.modules, while
    # smtbench/workloads.py imports only the modules below: the package
    # itself must load the rest (schubert, which no workload calls)
    spec = importlib.util.spec_from_file_location("smtbench_tracing_surface", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    src = str(Path(smtkit.__file__).resolve().parents[1])
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import sys\n"
            "from smtkit import admissible, cli, oracle, pluecker, rootdata, smt, weyl\n"
            "print(*sorted(sys.modules))",
        ],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    ).stdout.split()
    wanted = {f"smtkit.{module}" for module, *_rest in tracing.ENTRY_POINTS}
    assert wanted <= set(out)
