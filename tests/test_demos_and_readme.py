"""The demos and the README's command-line examples print recorded bytes.

Each of the four demos and each README command, plain and with ``--json``,
runs in a fresh interpreter with ``src`` on the import path.  The test
checks its exit code (the G2 command is a usage error, exit 2) and the
sha256 of its stdout against the digest recorded here, so any change to
that output fails; a change meant to alter an output updates its digest.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_roots_and_weyl_groups.py":
        "87116c4fe09485ec8b8199d3cee21604cbdb6240937f5d917a70635f50e09bce",
    "02_admissible_pairs_and_characters.py":
        "3c0b97d12d7a970e0be653fb103d882fd439cee4925f894c05de1d0a8fcde8b7",
    "03_standard_monomials_on_richardson_varieties.py":
        "df58ab5ab72945c05f460352d52f6074a64c5b24c4530f543d349a642ea4a42d",
    "04_grassmannian_straightening.py":
        "60ca120cf430385f23787b5ba90b3916c2e1355499edb69575c19d5c51646be0",
}

# README command, without "smtkit" -> (exit code, stdout sha256 plain, with --json)
COMMANDS = {
    "admissible --type C2 --weight 0,1": (
        0,
        "46337b074fa32563b70dec151dc97c371b906c6b76bc5ecf054a242580992c75",
        "35ee8ac743b0d8abae5f6fe5932c0816236e1b31dc28a887a8a06f79324cd1be",
    ),
    "admissible --type A2 --weight 1,0": (
        0,
        "e6ae5e319d1bfa78c5f10ae56fbe03040816f1078f90b2b551f2503bc4b81d5b",
        "137a4fd3c71f4068bf287d0dc2446ca8e24f8d98c6372e6621817dbdfa9afe3d",
    ),
    "admissible --type G2 --weight 1,0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "admissible --type E6 --weight 1,0,0,0,0,0": (
        0,
        "04a532a0c35bf78a314aff04414602bb825e9e4e70b15c9b771ec9534d8ae6f7",
        "bcc27daddf8d6467116a64b4de97ad666e5b107fd0d694ef6029d0d3baa2e954",
    ),
    "smt --type A2 --parabolic none --weights 1,0+0,1 --pair e:w0 --verify-count": (
        0,
        "b9f9c82009413b83a6c20d9d951d52b06b95d1f525129c5a23cd5dd8e842ca8d",
        "cb39da28f5640a9f29eacedbc103b7e2ae7dd0038e915fc6ae81c4229bfd452a",
    ),
    "smt --type A2 --weights 1,1 --pair e:w0 --verify-filtration": (
        0,
        "342915ca0645422ab5d432d2e88bfca3a54b0be69e3adf30fa9c55abb18a26c7",
        "9ae06626009cdda89a906217c7a0a152e126392e625aa09252b85a6966b50b83",
    ),
    "smt --type A2 --weights 1,1 --union e:s1.s2+e:s2.s1": (
        0,
        "79199f6f44d6a6bc2d07f7e7939876c91a8ff075470390d535471685002db075",
        "178e7894a543df26e2e99d3c4e00cea8b2eb539ad6cb65846c4f62020b310ac4",
    ),
    "straighten --grassmann 2,4 --pair 14,23": (
        0,
        "0834f739d641aaf4594a558701c4071ac26bfa8eeec36b9a64a41fb26b8011f0",
        "8266e1be1a89e62e3f607c77b0fcee2a5dbf24126ff88e4beaacc843f9cfa22b",
    ),
    "straighten --grassmann 2,4 --verify-hodge --degree 2": (
        0,
        "fd27ccf564577bd23d486ee63c46649ffdcd0fec58b73b71d60f085817dcc25f",
        "024de4e6c75cc4f739874369f9bc3eebeb577f574ba98d65fd041f5a62c370ea",
    ),
}


def _run(argv):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=300
    )


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line[len("smtkit "):] for line in lines if line.startswith("smtkit ")]


def test_readme_lists_the_recorded_commands():
    assert _readme_commands() == list(COMMANDS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    result = _run([str(ROOT / "demos" / name)])
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMOS[name]


CASES = [(cmd, flag) for cmd in COMMANDS for flag in (False, True)]


@pytest.mark.parametrize(
    "command,json_flag",
    CASES,
    ids=[cmd.replace(" ", "_") + ("_--json" if flag else "") for cmd, flag in CASES],
)
def test_readme_command_output(command, json_flag):
    code, plain, as_json = COMMANDS[command]
    argv = ["-m", "smtkit.cli", *shlex.split(command)] + (["--json"] if json_flag else [])
    result = _run(argv)
    assert result.returncode == code, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == (as_json if json_flag else plain)
